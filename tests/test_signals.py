import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parareal import (
    Constant,
    Difference,
    PwmSingle,
    Side,
    SineWave,
    StepWave,
    ThreePhasePwm,
    ThreePhaseSine,
    Zero,
    parse_signal,
)
from parareal import signals

T = 0.02


def scripted_pwm(t, m, period):
    # independent transcription of the comparator definition
    saw = (m / period) * t - math.floor((m / period) * t)
    s = math.sin(2 * math.pi * t / period)
    if saw - abs(s) < 0:
        return math.copysign(1.0, s)
    return 0.0


class TestPwmSingle:
    def test_zero_at_origin(self):
        # saw(0)=0 and |sin(0)|=0, the strict comparison fails -> zero branch
        assert PwmSingle(m=10, period=T).value(0.0) == 0.0

    def test_quarter_period_on(self):
        sig = PwmSingle(m=10, period=T)
        assert sig.value(0.005) == 1.0
        assert sig.value(0.005) == scripted_pwm(0.005, 10, T)

    def test_matches_scripted_formula_on_grid(self):
        sig = PwmSingle(m=400, period=T)
        ts = np.linspace(0.0, T, 4001)
        # the comparator-tie points (sine zeros) carry the documented zero
        # convention and are asserted separately below
        ts = ts[np.abs(np.sin(2 * math.pi * ts / T)) > 1e-12]
        expected = np.array([scripted_pwm(t, 400, T) for t in ts])
        np.testing.assert_array_equal(sig.values(ts), expected)

    @pytest.mark.parametrize("t", [0.0, T / 2, T])
    def test_comparator_tie_resolves_to_zero_branch(self, t):
        assert PwmSingle(m=400, period=T).value(t) == 0.0
        assert PwmSingle(m=10, period=T).value(t) == 0.0

    @given(st.floats(min_value=0.0, max_value=T, allow_nan=False))
    def test_value_set(self, t):
        assert PwmSingle(m=10, period=T).value(t) in (-1.0, 0.0, 1.0)

    def test_half_wave_antisymmetry_even_m(self):
        sig = PwmSingle(m=10, period=T)
        switches = sig.switching_times(0.0, T)
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.0, T / 2, 200):
            if min(abs(t - s) for s in switches) < 1e-9 * T:
                continue
            if min(abs(t + T / 2 - s) for s in switches) < 1e-9 * T:
                continue
            assert sig.value(t + T / 2) == -sig.value(t)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            PwmSingle(m=10, period=T).value(-1e-9)
        with pytest.raises(ValueError):
            PwmSingle(m=10, period=T).value(T + 1e-9)

    def test_bad_pulse_count(self):
        with pytest.raises(ValueError):
            PwmSingle(m=0, period=T)


class TestSwitchingTimes:
    def test_sine_has_none(self):
        assert len(SineWave(T).switching_times(0.0, T)) == 0

    def test_step_jumps_at_half_period(self):
        sw = StepWave(T).switching_times(0.0, T)
        assert len(sw) == 1
        assert sw[0] == pytest.approx(0.01, abs=1e-18)

    @staticmethod
    def _drop_tooth_boundaries(ts, m):
        # exact tooth-boundary samples carry the measure-zero comparator-tie
        # convention and are excluded from piecewise-constancy checks
        h = T / m
        frac = np.abs(ts / h - np.round(ts / h))
        return frac * h > 1e-11

    @pytest.mark.parametrize("window", [(0.0, 0.002), (0.0, 0.006), (0.004, 0.012)])
    def test_dense_scan_oracle_pwm10(self, window):
        # between consecutive switching instants the signal must be constant
        sig = PwmSingle(m=10, period=T)
        t0, t1 = window
        switches = list(sig.switching_times(t0, t1))
        fences = [t0] + switches + [t1]
        ts = np.linspace(t0, t1, 1_000_001)
        keep = self._drop_tooth_boundaries(ts, 10)
        ts, vals = ts[keep], sig.values(ts[keep])
        for lo, hi in zip(fences, fences[1:]):
            inside = (ts > lo + 1e-13) & (ts < hi - 1e-13)
            segment = vals[inside]
            assert segment.size > 0
            assert np.all(segment == segment[0])

    def test_dense_scan_oracle_pwm400(self):
        sig = PwmSingle(m=400, period=T)
        t0, t1 = 0.0031, 0.0034
        switches = list(sig.switching_times(t0, t1))
        assert switches == sorted(switches)
        fences = [t0] + switches + [t1]
        ts = np.linspace(t0, t1, 300_001)
        keep = self._drop_tooth_boundaries(ts, 400)
        ts, vals = ts[keep], sig.values(ts[keep])
        for lo, hi in zip(fences, fences[1:]):
            inside = (ts > lo + 1e-12) & (ts < hi - 1e-12)
            segment = vals[inside]
            assert np.all(segment == segment[0])

    def test_three_phase_dense_scan(self):
        sig = ThreePhasePwm(m=100, period=T, phase_index=2)
        switches = list(sig.switching_times(0.0, T))
        fences = [0.0] + switches + [T]
        ts = np.linspace(0.0, T, 500_001)
        keep = self._drop_tooth_boundaries(ts, 100)
        ts, vals = ts[keep], sig.values(ts[keep])
        for lo, hi in zip(fences, fences[1:]):
            inside = (ts > lo + 1e-12) & (ts < hi - 1e-12)
            segment = vals[inside]
            # switch pairs closer than the sample spacing leave empty slices
            assert segment.size == 0 or np.all(segment == segment[0])

    def test_identical_difference_has_no_switches(self):
        sig = PwmSingle(m=10, period=T)
        assert len(Difference(sig, sig).switching_times(0.0, T)) == 0


class TestSides:
    def test_step_one_sided_values(self):
        step = StepWave(T)
        assert step.value(0.01, Side.LEFT_LIMIT) == 1.0
        assert step.value(0.01, Side.RIGHT_LIMIT) == -1.0
        assert step.value(0.01, Side.POINTWISE) == -1.0

    def test_sine_value(self):
        assert SineWave(T).value(0.005) == pytest.approx(1.0, abs=1e-15)

    def test_sides_agree_away_from_switches(self):
        rng = np.random.default_rng(3)
        for sig in [
            PwmSingle(m=10, period=T),
            StepWave(T),
            SineWave(T),
            ThreePhasePwm(m=20, period=T, phase_index=3),
            Difference(PwmSingle(m=10, period=T), SineWave(T)),
        ]:
            switches = sig.switching_times(0.0, T)
            for t in rng.uniform(0.0, T, 300):
                if switches.size and np.min(np.abs(switches - t)) < 1e-6 * T:
                    continue
                p = sig.value(t, Side.POINTWISE)
                assert sig.value(t, Side.LEFT_LIMIT) == p
                assert sig.value(t, Side.RIGHT_LIMIT) == p

    def test_pwm_sides_differ_at_a_switch(self):
        sig = PwmSingle(m=10, period=T)
        sw = float(sig.switching_times(0.0, T)[0])
        left = sig.value(sw, Side.LEFT_LIMIT)
        right = sig.value(sw, Side.RIGHT_LIMIT)
        assert left != right


def searchsorted_one_sided(sig, t, side):
    """One-sided value located with ``np.searchsorted`` on the switch table."""
    if isinstance(sig, Difference):
        return searchsorted_one_sided(sig.a, t, side) - searchsorted_one_sided(sig.b, t, side)
    table = sig._switch_table().times
    if table.size == 0:
        return sig._formula(t)
    tol = 1e-9 * sig.period
    i = np.searchsorted(table, t)
    cand = []
    if i < table.size:
        cand.append(table[i])
    if i > 0:
        cand.append(table[i - 1])
    hits = [s for s in cand if abs(s - t) <= tol]
    if not hits:
        return sig._formula(t)
    sw = hits[0]
    j = np.searchsorted(table, sw)
    lo = float(table[j - 1] if j > 0 else 0.0)
    hi = float(table[j + 1] if j + 1 < table.size else sig.period)
    sw = float(sw)
    if side is Side.LEFT_LIMIT:
        return sig._formula(0.5 * (lo + sw))
    return sig._formula(0.5 * (sw + hi))


ONE_SIDED_SIGNALS = [
    PwmSingle(m=400, period=T),
    ThreePhasePwm(m=400, period=T, phase_index=2),
    StepWave(T),
    Difference(PwmSingle(m=400, period=T), SineWave(T)),
]


@st.composite
def near_switch_times(draw):
    """A signal and a time: a switch moved by up to twice the snap tolerance, or an end point."""
    sig = draw(st.sampled_from(ONE_SIDED_SIGNALS))
    if draw(st.booleans()):
        return sig, draw(st.sampled_from([0.0, T]))
    table = sig.switching_times(0.0, T)
    sw = float(table[draw(st.integers(0, table.size - 1))])
    delta = draw(st.floats(min_value=0.0, max_value=2e-9 * T))
    t = sw + delta if draw(st.booleans()) else sw - delta
    return sig, min(max(t, 0.0), T)


# every signal kind, a difference with one PWM and one of two PWMs (whose
# switch tables merge), and a difference whose switches all cancel
NODE_SIGNALS = [
    parse_signal(spec, T)
    for spec in ["pwm:m=400", "pwm:m=7", "pwm3:m=400,phase=2", "step", "sine", "sine3:phase=3", "const:v=1",
                 "zero", "diff:pwm:m=400-sine", "diff:pwm:m=400-pwm3:m=400", "diff:pwm:m=7-pwm:m=7"]
]


def _operand_switches(sig):
    if isinstance(sig, Difference):
        return _operand_switches(sig.a) + _operand_switches(sig.b)
    return sig.switching_times(0.0, T).tolist()


@st.composite
def node_grids(draw):
    """A signal and an increasing grid of nodes: uniform draws, end points,
    and switches (of the signal or, for a difference, of its operands) moved
    by up to twice the 1e-9*T snap tolerance, by exactly that tolerance, or
    by one ulp more or less than it."""
    sig = draw(st.sampled_from(NODE_SIGNALS))
    switches = _operand_switches(sig)
    tol = 1e-9 * T
    nodes = set(draw(st.lists(st.floats(0.0, T), max_size=20)))
    if draw(st.booleans()):
        nodes |= {0.0, T}
    for _ in range(draw(st.integers(0, 12)) if switches else 0):
        sw = draw(st.sampled_from(switches))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        kind = draw(st.sampled_from(["within", "at", "ulp"]))
        if kind == "within":
            t = sw + sign * draw(st.floats(0.0, 2.0 * tol))
        else:
            t = sw + sign * tol
            if kind == "ulp":
                t = math.nextafter(t, draw(st.sampled_from([-math.inf, math.inf])))
        nodes.add(min(max(t, 0.0), T))
    return sig, sorted(nodes)


class TestOneSidedLookup:
    @given(near_switch_times(), st.sampled_from([Side.LEFT_LIMIT, Side.RIGHT_LIMIT]))
    @settings(max_examples=400, deadline=None)
    def test_matches_searchsorted_lookup(self, sig_t, side):
        sig, t = sig_t
        got = sig.value(t, side)
        want = searchsorted_one_sided(sig, t, side)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @given(node_grids())
    @settings(max_examples=400, deadline=None)
    def test_node_limits_equal_two_value_calls(self, sig_ts):
        sig, ts = sig_ts
        lefts, rights = sig.node_limits(ts)
        want_l = [sig.value(t, Side.LEFT_LIMIT) for t in ts]
        want_r = [sig.value(t, Side.RIGHT_LIMIT) for t in ts]
        assert np.array(lefts).tobytes() == np.array(want_l).tobytes()
        assert np.array(rights).tobytes() == np.array(want_r).tobytes()

    def test_node_limits_at_the_snap_tolerance_edge(self):
        # the last node after a switch that still snaps to it, and the next float
        sig = PwmSingle(m=400, period=T)
        sw = float(sig.switching_times(0.0, T)[100])
        tol = 1e-9 * T
        edge = sw + tol
        while abs(edge - sw) > tol:
            edge = math.nextafter(edge, -math.inf)
        while abs(math.nextafter(edge, math.inf) - sw) <= tol:
            edge = math.nextafter(edge, math.inf)
        past = math.nextafter(edge, math.inf)
        lefts, rights = sig.node_limits([sw, edge, past])
        assert lefts == [sig.value(t, Side.LEFT_LIMIT) for t in (sw, edge, past)]
        assert rights == [sig.value(t, Side.RIGHT_LIMIT) for t in (sw, edge, past)]
        # the switch's two sides at the snapped nodes, one side past the edge
        assert lefts[0] != rights[0] and (lefts[1], rights[1]) == (lefts[0], rights[0])
        assert lefts[2] == rights[2] == rights[0]

    def test_node_limits_outside_the_domain(self):
        sig = Difference(PwmSingle(m=400, period=T), SineWave(T))
        assert sig.node_limits([]) == ([], [])
        with pytest.raises(ValueError, match=f"t={T * 1.5} outside"):
            sig.node_limits([T / 2, T * 1.5, T * 2])
        with pytest.raises(ValueError, match="t=-1.0 outside"):
            PwmSingle(m=400, period=T).node_limits([-1.0, T / 2])


class TestSwitchTableCache:
    def test_racing_first_lookups_build_once(self, monkeypatch):
        builds = []
        original = PwmSingle._build_table

        def counting(self):
            builds.append(threading.get_ident())
            return original(self)

        monkeypatch.setattr(PwmSingle, "_build_table", counting)
        signals._table_cache.cache_clear()
        # equal but distinct instances, so each thread takes the shared-cache path
        sigs = [PwmSingle(m=97, period=T) for _ in range(8)]
        start = threading.Barrier(len(sigs))

        def first_lookup(sig):
            start.wait(timeout=30)
            sig.switching_times(0.0, T)

        threads = [threading.Thread(target=first_lookup, args=(sig,)) for sig in sigs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            signals._table_cache.cache_clear()
        assert not any(th.is_alive() for th in threads)
        assert len(builds) == 1
        floats = [sig._switch_table().floats for sig in sigs]
        assert all(f is floats[0] for f in floats)


def numpy_scan_roots(g, lo, hi, tol, samples=33):
    # the numpy root scan that the float one in ``signals._scan_roots`` replaced
    ts = np.linspace(lo, hi, samples)
    gs = np.array([g(t) for t in ts])
    sgn = np.sign(gs)
    roots = []
    for i in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
        roots.append(signals._bisect(g, ts[i], ts[i + 1], tol))
    return roots


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(-10.0, 10.0),
    width=st.floats(1e-9, 10.0),
    samples=st.integers(2, 40),
    picks=st.lists(st.tuples(st.integers(0, 39), st.floats(0.0, 1.0)), min_size=1, max_size=3),
)
@example(lo=-1.901, width=7.838, samples=21, picks=[(39, 1.0)])  # a root at hi, where 20*step + lo != hi
def test_root_scan_equals_the_numpy_scan(lo, width, samples, picks):
    # roots between samples, on a sample (frac 0 or 1; such a root brackets
    # nothing) and in the last bracket, whose right end is ``hi`` itself
    hi = lo + width
    grid = np.linspace(lo, hi, samples).tolist()
    roots = []
    for i, frac in picks:
        i = min(i, samples - 2)
        roots.append(grid[i + 1] if frac == 1.0 else grid[i] + frac * (grid[i + 1] - grid[i]))

    def g(t):
        out = 1.0
        for r in roots:
            out *= t - r
        return out

    tol = signals.SWITCH_TOL * width
    got = signals._scan_roots(g, lo, hi, tol, samples)
    assert np.array(got, dtype=float).tobytes() == np.array(numpy_scan_roots(g, lo, hi, tol, samples), dtype=float).tobytes()


def straight_line_table(sig):
    # the per-class tooth scan the shared one replaced, written out once per
    # kind, on the numpy root scan
    h, period = sig.period / sig.m, sig.period
    cands = [j * h for j in range(1, sig.m)]
    for j in range(sig.m):
        ta, tb = j * h, (j + 1) * h
        if isinstance(sig, PwmSingle):
            def g(t, ta=ta):
                return (t - ta) / h - abs(math.sin(2 * math.pi * t / period))
        else:
            shift = signals.PHASE_SHIFTS[sig.phase_index]

            def g(t, ta=ta):
                return math.sin(2 * math.pi * t / period + shift) - (2.0 * (t - ta) / h - 1.0)
        pts = [ta] + signals._quarter_points(period, ta, tb) + [tb]
        for lo, hi in zip(pts, pts[1:]):
            cands.extend(numpy_scan_roots(g, lo, hi, signals.SWITCH_TOL * period))
    return signals._filter_jumps(sig, cands)


@pytest.mark.parametrize("m", [1, 7, 37, 400])
def test_tooth_scan_tables_equal_the_straight_line_scan(m):
    for period in (T, 1.0, 3.7):
        sigs = [PwmSingle(m=m, period=period)] + [ThreePhasePwm(m=m, period=period, phase_index=i) for i in (1, 2, 3)]
        for sig in sigs:
            table = sig._build_table()
            assert table.size > 0
            assert table.tobytes() == straight_line_table(sig).tobytes(), sig


class TestThreePhase:
    @given(st.floats(min_value=0.0, max_value=T, allow_nan=False), st.sampled_from([1, 2, 3]))
    @settings(max_examples=60)
    def test_values_are_plus_minus_one(self, t, phase):
        assert ThreePhasePwm(m=20, period=T, phase_index=phase).value(t) in (-1.0, 1.0)

    def test_sine_phases(self):
        t = 0.004
        for phase, shift in [(1, 0.0), (2, -2 * math.pi / 3), (3, -4 * math.pi / 3)]:
            sig = ThreePhaseSine(T, phase_index=phase)
            assert sig.value(t) == pytest.approx(math.sin(2 * math.pi * t / T + shift), abs=1e-15)

    def test_bad_phase_index(self):
        with pytest.raises(ValueError):
            ThreePhasePwm(m=10, period=T, phase_index=4)


class TestDifference:
    def test_pointwise_subtraction(self):
        d = Difference(PwmSingle(m=10, period=T), SineWave(T))
        ts = np.linspace(0.0, T, 1001)
        np.testing.assert_allclose(
            d.values(ts), PwmSingle(m=10, period=T).values(ts) - SineWave(T).values(ts)
        )

    def test_bounded_by_two(self):
        d = Difference(PwmSingle(m=400, period=T), SineWave(T))
        ts = np.linspace(0.0, T, 200_001)
        assert np.max(np.abs(d.values(ts))) <= 2.0


class TestParse:
    @pytest.mark.parametrize(
        "spec,kind",
        [
            ("pwm:m=400", PwmSingle),
            ("step", StepWave),
            ("sine", SineWave),
            ("pwm3:m=400,phase=2", ThreePhasePwm),
            ("sine3:phase=3", ThreePhaseSine),
            ("zero", Zero),
            ("const:v=1", Constant),
            ("diff:pwm:m=400-sine", Difference),
        ],
    )
    def test_known_kinds(self, spec, kind):
        assert isinstance(parse_signal(spec, period=T), kind)

    def test_parsed_params(self):
        sig = parse_signal("pwm3:m=128,phase=2", period=T)
        assert sig.m == 128 and sig.phase_index == 2 and sig.period == T

    def test_difference_payload(self):
        sig = parse_signal("diff:pwm:m=10-sine", period=T)
        assert isinstance(sig.a, PwmSingle) and isinstance(sig.b, SineWave)

    def test_unknown_kind(self):
        for spec, match in [
            ("sawtooth", "unknown signal kind"),
            ("sine3:phse=2", "unknown key 'phse'"),
            ("pwm", "missing required key 'm'"),
            ("sine:m=4", "unknown key 'm'"),
            ("pwm:m", "expected key=value"),
        ]:
            with pytest.raises(ValueError, match=match):
                parse_signal(spec, period=T)
