import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
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


class TestOneSidedLookup:
    @given(near_switch_times(), st.sampled_from([Side.LEFT_LIMIT, Side.RIGHT_LIMIT]))
    @settings(max_examples=400, deadline=None)
    def test_matches_searchsorted_lookup(self, sig_t, side):
        sig, t = sig_t
        got = sig.value(t, side)
        want = searchsorted_one_sided(sig, t, side)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
        assert d.bound() == 2.0
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
