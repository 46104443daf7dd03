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
    LinearScalarModel,
    PwmSingle,
    Side,
    SineWave,
    SplitIvp,
    StepWave,
    ThetaPropagator,
    ThreePhasePwm,
    parse_propagator,
    parse_signal,
)
from parareal import algorithm, models, signals
from test_propagators import frozen_limits, make_signal

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

    @pytest.mark.parametrize("spec", ["pwm:m=10", "step", "sine", "const"])
    @pytest.mark.parametrize("t0, t1", [(0.0, 0.0), (T / 2, T / 2), (T, T), (T / 2, T / 4)])
    def test_an_empty_or_reversed_interval_is_rejected(self, spec, t0, t1):
        with pytest.raises(ValueError, match=rf"^need t0 < t1, got \({t0}, {t1}\)$") as info:
            parse_signal(spec, T).switching_times(t0, t1)
        assert type(info.value) is ValueError

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
        # off the switches, both sides are the value inside t's segment
        lo = float(table[i - 1] if i > 0 else 0.0)
        hi = float(table[i] if i < table.size else sig.period)
        return sig._formula(0.5 * (lo + hi))
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
    for spec in ["pwm:m=400", "pwm:m=7", "pwm3:m=400,phase=2", "step", "sine", "sine3:phase=3", "const:v=1", "zero"]
] + [
    Difference(PwmSingle(m=400, period=T), SineWave(T)),
    Difference(PwmSingle(m=400, period=T), ThreePhasePwm(m=400, period=T)),
    Difference(PwmSingle(m=7, period=T), PwmSingle(m=7, period=T)),
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
    def test_limits_array_equals_value_calls(self, sig_ts):
        # the array form a theta set-up uses, against two value calls per
        # node and against the frozen list merge walk
        sig, ts = sig_ts
        want_l = np.array([sig.value(t, Side.LEFT_LIMIT) for t in ts], dtype=float)
        want_r = np.array([sig.value(t, Side.RIGHT_LIMIT) for t in ts], dtype=float)
        got_l, got_r = sig._limits_array(np.array(ts, dtype=float))
        assert (got_l.tobytes(), got_r.tobytes()) == (want_l.tobytes(), want_r.tobytes())
        frozen_l, frozen_r = frozen_limits(sig, ts)
        assert (np.array(frozen_l, dtype=float).tobytes(), np.array(frozen_r, dtype=float).tobytes()) == (
            want_l.tobytes(), want_r.tobytes())

    def test_limits_at_the_snap_tolerance_edge(self):
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
        lefts = [sig.value(t, Side.LEFT_LIMIT) for t in (sw, edge, past)]
        rights = [sig.value(t, Side.RIGHT_LIMIT) for t in (sw, edge, past)]
        assert [a.tolist() for a in sig._limits_array(np.array([sw, edge, past]))] == [lefts, rights]
        # the switch's two sides at the snapped nodes, one side past the edge
        assert lefts[0] != rights[0] and (lefts[1], rights[1]) == (lefts[0], rights[0])
        assert lefts[2] == rights[2] == rights[0]

    def test_limits_outside_the_domain(self):
        sig, pwm = Difference(PwmSingle(m=400, period=T), SineWave(T)), PwmSingle(m=400, period=T)
        assert [a.tolist() for a in sig._limits_array(np.empty(0))] == [[], []]
        with pytest.raises(ValueError, match=f"t={T * 1.5} outside"):
            sig._limits_array(np.array([T / 2, T * 1.5, T * 2]))
        with pytest.raises(ValueError, match="t=-1.0 outside"):
            pwm._limits_array(np.array([-1.0, T / 2]))
        for side in (Side.LEFT_LIMIT, Side.RIGHT_LIMIT):
            with pytest.raises(ValueError, match=f"t={T * 1.5} outside"):
                sig.value(T * 1.5, side)
            with pytest.raises(ValueError, match="t=-1.0 outside"):
                pwm.value(-1.0, side)


def _equal_keys(table):
    # a key of ``table`` on a new input instance, equal to but distinct from every other
    sig = PwmSingle(m=97, period=T)
    if table is signals._table_cache:
        return (sig,)
    if table is models._step_table:
        return (10.0, 0.01, sig)
    return (SplitIvp(decay=10.0, gain=0.01, signal=sig, u0=0.0), 8, 1.0)


class TestSwitchTableCache:
    # every per-process table (``signals._per_process``)
    TABLES = (signals._table_cache, models._step_table, algorithm._reference)

    @pytest.mark.parametrize("table", TABLES, ids=["switch-table", "step-table", "reference"])
    def test_racing_first_lookups_build_once(self, table):
        for t in self.TABLES:
            t.cache_clear()
        keys = [_equal_keys(table) for _ in range(8)]
        results = [None] * len(keys)
        start = threading.Barrier(len(keys))

        def first_lookup(i):
            start.wait(timeout=30)
            results[i] = table(*keys[i])

        threads = [threading.Thread(target=first_lookup, args=(i,)) for i in range(len(keys))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
            info = table.cache_info()
        finally:
            sys.setswitchinterval(interval)
            for t in self.TABLES:
                t.cache_clear()
        assert not any(th.is_alive() for th in threads)
        assert (info.hits, info.misses, info.maxsize) == (7, 1, 64)
        assert all(r is results[0] for r in results)


def numpy_scan_roots(g, lo, hi, tol, samples=33):
    # the numpy root scan that the float one in ``signals._scan_roots``
    # replaced, with the zero samples as roots too
    ts = np.linspace(lo, hi, samples)
    gs = np.array([g(t) for t in ts])
    sgn = np.sign(gs)
    roots = ts[gs == 0.0].tolist()
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
    # roots between samples, on a sample (frac 0 or 1; a zero sample is a
    # root of its own) and in the last bracket, whose right end is ``hi`` itself
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


# comparator inputs whose roots land on a scan sample or a bracket end
# (T/12, 7T/12 for pwm:m=6), with neighbours and the paper's m=400
COMPLETE_SPECS = (
    [f"pwm:m={m}" for m in (*range(1, 9), 13, 18, 400)]
    + [f"pwm3:m={m},phase={p}" for m in (1, 2, 3, 4, 5, 7, 9, 400) for p in (1, 2, 3)]
    + ["step"]
)


@pytest.mark.parametrize("period", [T, 1.0, 3.7])
@pytest.mark.parametrize("spec", COMPLETE_SPECS)
def test_segment_constants_equal_the_formula_off_the_switches(spec, period):
    # a complete table: on dense nodes away from every switch, both one-sided
    # values are the segment's constant, and that is the pointwise formula
    sig = parse_signal(spec, period)
    table = sig.switching_times(0.0, period).tolist()
    tol = 1e-9 * period
    ts = [(i + 0.5 ** 0.5) * period / 4001 for i in range(4001)]
    ts = [t for t in ts if min((abs(t - s) for s in table), default=math.inf) > tol]
    want = [sig._formula(t) for t in ts]
    assert [a.tolist() for a in sig._limits_array(np.array(ts))] == [want, want]
    assert [sig.value(t, Side.LEFT_LIMIT) for t in ts] == want
    assert [sig.value(t, Side.RIGHT_LIMIT) for t in ts] == want


# inputs whose tables missed switches when a comparator root landed on a scan sample
REPAIRED_SPECS = ["pwm:m=6", "pwm:m=18", "pwm:m=30", "pwm:m=54", "pwm3:m=9,phase=3"]


@pytest.mark.parametrize("spec", REPAIRED_SPECS)
def test_exact_agrees_with_a_table_free_quadrature(spec):
    # u(T) = gain * integral of exp(-a (T - s)) w(s) ds from u(0) = 0, by the
    # midpoint value of _formula on each of M uniform cells times the cell's
    # exact exponential weight: no switch table is read.  Only a cell holding
    # a switch errs, by at most 2 * gain * T/M; a switch missing from the
    # table moved exact by a relative 0.6 to 27 on these inputs
    cells = 100_000
    model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal(spec, T))
    ivp = model.ivp()
    s = np.linspace(0.0, T, cells + 1)
    weights = np.diff(np.exp(-ivp.decay * (T - s))) / ivp.decay
    w = np.array([model.signal._formula(0.5 * (lo + hi)) for lo, hi in zip(s[:-1].tolist(), s[1:].tolist())])
    oracle = ivp.gain * float(weights @ w)
    changes = int(np.count_nonzero(w[1:] != w[:-1]))
    exact = parse_propagator("exact", ivp, model).propagate(0.0, T, 0.0)
    assert abs(exact - oracle) <= 2.0 * ivp.gain * (T / cells) * (changes + 2)


@pytest.mark.parametrize("spec", REPAIRED_SPECS)
def test_exact_agrees_with_aligned_crank_nicolson(spec):
    # both read the same table and segment constants, so this checks the
    # propagators against each other; the quadrature above checks the table
    model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal(spec, T))
    exact = parse_propagator("exact", model.ivp(), model).propagate(0.0, T, 0.0)
    cn = parse_propagator("cn:substeps=20000,aligned=1", model.ivp(), model).propagate(0.0, T, 0.0)
    assert abs(cn - exact) <= 1e-9 * abs(exact)


class TestThreePhase:
    @pytest.mark.parametrize("phase", [1, 2, 3])
    def test_one_sided_values_at_the_domain_end_are_limits(self, phase):
        # the comparator's point value at T is +1; the input is -1 on the
        # last carrier segment, and so are both limits there
        sig = ThreePhasePwm(m=400, period=T, phase_index=phase)
        assert sig._formula(T) == 1.0
        assert sig.value(T, Side.LEFT_LIMIT) == sig.value(T, Side.RIGHT_LIMIT) == -1.0
        assert [a.tolist() for a in sig._limits_array(np.array([T]))] == [[-1.0], [-1.0]]
        # so a backward Euler step onto T takes -1 as its input
        ivp = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=sig).ivp()
        t0, u = T - T / 40, 1e-6
        h = T - t0
        want = (u + h * (1.0 * (0.0 + ivp.gain * -1.0))) / (1.0 - h * 1.0 * -ivp.decay)
        assert ThetaPropagator(ivp, theta=1.0).propagate(t0, T, u) == want

    def test_one_sided_values_at_an_isolated_tie_are_limits(self):
        # phase 1 ties at 3T/4 (sin = -1 meets the carrier's -1): the point
        # value is +1 and both limits are -1; 3T/4 is no switch
        sig = ThreePhasePwm(m=400, period=T, phase_index=1)
        t = 0.75 * T
        assert sig._formula(t) == 1.0
        assert sig.switching_times(t - 1e-6 * T, t + 1e-6 * T).size == 0
        assert sig.value(t, Side.LEFT_LIMIT) == sig.value(t, Side.RIGHT_LIMIT) == -1.0
        assert [a.tolist() for a in sig._limits_array(np.array([t]))] == [[-1.0], [-1.0]]

    @given(st.floats(min_value=0.0, max_value=T, allow_nan=False), st.sampled_from([1, 2, 3]))
    @settings(max_examples=60)
    def test_values_are_plus_minus_one(self, t, phase):
        assert ThreePhasePwm(m=20, period=T, phase_index=phase).value(t) in (-1.0, 1.0)

    def test_sine_phases(self):
        t = 0.004
        for phase, shift in [(1, 0.0), (2, -2 * math.pi / 3), (3, -4 * math.pi / 3)]:
            sig = SineWave(T, phase_index=phase)
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


# every kind of parseable signal, each three-phase one at each phase
BASE_SPECS = (
    "pwm:m=10", "pwm3:m=10,phase=1", "pwm3:m=10,phase=2", "pwm3:m=10,phase=3", "step", "sine",
    "sine3:phase=1", "sine3:phase=2", "sine3:phase=3", "const:v=0.5", "zero",
)
# and the difference of each two of them, and of a difference and a PWM, each labelled by its operands
BASE_SIGNALS = [pytest.param(parse_signal(spec, T), id=spec) for spec in BASE_SPECS]
DIFF_SIGNALS = [
    pytest.param(Difference(parse_signal(a, T), parse_signal(b, T)), id=f"diff:{a}-{b}")
    for a in BASE_SPECS for b in BASE_SPECS
] + [
    pytest.param(Difference(Difference(SineWave(T), SineWave(T, phase_index=2)), PwmSingle(m=10, period=T)),
                 id="diff:diff:sine-sine3:phase=2-pwm:m=10"),
]


def _segments(sig):
    pts = [0.0] + sig.switching_times(0.0, sig.period).tolist() + [sig.period]
    return list(zip(pts, pts[1:]))


def _form_before_phasors(sig, tl, tr):
    """``segment_form`` as it was before a difference of two phases of one
    sinusoid had a closed form: None there."""
    if not isinstance(sig, Difference):
        return sig.segment_form(tl, tr)
    fa, fb = _form_before_phasors(sig.a, tl, tr), _form_before_phasors(sig.b, tl, tr)
    if fa is None or fb is None:
        return None
    if fa.amp == 0.0 and fb.amp == 0.0:
        return signals.SegmentForm(fa.const - fb.const)
    if fb.amp == 0.0:
        return signals.SegmentForm(fa.const - fb.const, fa.amp, fa.omega, fa.phase)
    if fa.amp == 0.0:
        return signals.SegmentForm(fa.const - fb.const, -fb.amp, fb.omega, fb.phase)
    if fa.omega == fb.omega and fa.phase == fb.phase:
        return signals.SegmentForm(fa.const - fb.const, fa.amp - fb.amp, fa.omega, fa.phase)
    return None


def _bits(form):
    return [float(x).hex() for x in (form.const, form.amp, form.omega, form.phase)]


class TestClosedForms:
    @pytest.mark.parametrize("sig", BASE_SIGNALS + DIFF_SIGNALS)
    def test_every_parseable_signal_has_a_closed_form(self, sig):
        for tl, tr in _segments(sig):
            form = sig.segment_form(tl, tr)
            assert form is not None, (tl, tr)
            mid = 0.5 * (tl + tr)
            want = sig._formula(mid)
            assert abs(form.const + form.amp * math.sin(form.omega * mid + form.phase) - want) <= 1e-12

    @pytest.mark.parametrize("sig", DIFF_SIGNALS)
    def test_forms_that_existed_keep_their_bits(self, sig):
        for tl, tr in _segments(sig):
            old = _form_before_phasors(sig, tl, tr)
            if old is not None:
                assert _bits(sig.segment_form(tl, tr)) == _bits(old)

    def test_sinusoids_of_different_frequencies_have_none(self):
        assert Difference(SineWave(T), SineWave(2 * T)).segment_form(0.0, T) is None


class TestParse:
    @pytest.mark.parametrize(
        "spec,kind",
        [
            ("pwm:m=400", PwmSingle),
            ("step", StepWave),
            ("sine", SineWave),
            ("pwm3:m=400,phase=2", ThreePhasePwm),
            ("sine3", SineWave),
            ("sine3:phase=3", SineWave),
            ("zero", Constant),
            ("const:v=1", Constant),
        ],
    )
    def test_known_kinds(self, spec, kind):
        assert type(parse_signal(spec, period=T)) is kind

    @pytest.mark.parametrize("spec, want", [
        ("sine", SineWave(T, phase_index=1)),
        ("sine3", SineWave(T, phase_index=1)),
        ("sine3:phase=2", SineWave(T, phase_index=2)),
        ("zero", Constant(0.0, T)),
    ])
    def test_merged_kinds_parse_to_one_class(self, spec, want):
        assert parse_signal(spec, period=T) == want

    def test_sine_of_each_phase_keeps_the_three_phase_bits(self):
        # the formula of the former three-phase sine class, phase 1 included
        ts = np.linspace(0.0, T, 1001).tolist() + [T / 3, 0.75 * T, 5e-324]
        for k, shift in signals.PHASE_SHIFTS.items():
            sig = SineWave(T, k)
            got = sig.values(np.array(ts))
            want = [math.sin(signals.TWO_PI * t / T + shift) for t in ts]
            assert [float(v).hex() for v in got] == [v.hex() for v in want]
            assert _bits(sig.segment_form(0.0, T)) == _bits(signals.SegmentForm(0.0, 1.0, signals.TWO_PI / T, shift))

    def test_zero_is_constant_zero(self):
        zero, const = parse_signal("zero", period=T), Constant(0.0, T)
        ts = np.linspace(0.0, T, 101)
        assert [v.hex() for v in zero.values(ts)] == [v.hex() for v in const.values(ts)]
        assert [a.tobytes() for a in zero._limits_array(ts)] == [a.tobytes() for a in const._limits_array(ts)]
        for side in (Side.LEFT_LIMIT, Side.RIGHT_LIMIT):
            assert [zero.value(t, side) for t in ts.tolist()] == [const.value(t, side) for t in ts.tolist()]
        assert zero.segment_form(0.0, T) == const.segment_form(0.0, T) == signals.SegmentForm(0.0)

    # every kind with the payload it needs
    KINDS = ("pwm:m=4", "pwm3:m=4,phase=2", "step", "sine", "sine3:phase=3", "diff:pwm:m=4-sine", "const:v=1", "zero")

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("spec", KINDS)
    def test_every_kind_rejects_a_bad_period(self, spec, period):
        # a difference raises from its first operand
        with pytest.raises(ValueError, match=f"period must be positive and finite, got {period}$"):
            make_signal(spec, period)

    @pytest.mark.parametrize("make", [
        lambda: PwmSingle(m=4, period=math.inf),
        lambda: ThreePhasePwm(m=4, period=math.inf),
        lambda: SineWave(T, phase_index=0),
        lambda: StepWave(-T),
        lambda: Constant(1.0, math.nan),
    ])
    def test_constructors_check_their_parameters(self, make):
        with pytest.raises(ValueError, match="must be"):
            make()

    def test_parsed_params(self):
        sig = parse_signal("pwm3:m=128,phase=2", period=T)
        assert sig.m == 128 and sig.phase_index == 2 and sig.period == T

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
