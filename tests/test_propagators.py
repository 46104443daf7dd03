import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parareal import (
    ExactLinearPropagator,
    LinearScalarModel,
    NonFiniteStateError,
    PwmSingle,
    Side,
    SplitIvp,
    ThetaPropagator,
    UnsupportedSignalError,
    Zero,
    exact_linear_propagate,
    local_order_probe,
    parse_propagator,
    parse_signal,
)
from parareal import models
from parareal.propagators import planned
from parareal.signals import MERGE_TOL

T = 0.02
A_RATE = 10.0


@contextlib.contextmanager
def study_scope():
    """One study's end-segment memo, set as ``run_study`` sets it around each of its runs."""
    token = models._study_segments.set({})
    try:
        yield
    finally:
        models._study_segments.reset(token)


@pytest.fixture(scope="module")
def sine_ivp(sine_model):
    return sine_model.ivp()


class TestThetaStep:
    def test_backward_euler_closed_form(self):
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Zero())
        be = ThetaPropagator(m.ivp(), theta=1.0)
        out = be.propagate(0.0, 0.002, 1.0)
        assert out == pytest.approx(1.0 / 1.02, rel=1e-15)

    def test_crank_nicolson_closed_form(self):
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Zero())
        cn = ThetaPropagator(m.ivp(), theta=0.5)
        out = cn.propagate(0.0, 0.002, 1.0)
        assert out == pytest.approx(0.99 / 1.01, rel=1e-15)

    def test_determinism(self, sine_ivp):
        be = ThetaPropagator(sine_ivp, theta=1.0, substeps=7)
        u = np.array([0.123])
        a = be.propagate(0.001, 0.013, u)
        b = be.propagate(0.001, 0.013, u)
        assert np.array_equal(a, b)

    def test_coarse_map_is_nonexpansive(self, sine_ivp):
        # amplification factor of BE/CN on a decaying scalar mode is <= 1
        rng = np.random.default_rng(9)
        for theta in (1.0, 0.5):
            prop = ThetaPropagator(sine_ivp, theta=theta)
            for _ in range(20):
                u, v = rng.uniform(-5, 5, 2).tolist()
                gu = prop.propagate(0.004, 0.006, u)
                gv = prop.propagate(0.004, 0.006, v)
                assert abs(gu - gv) <= abs(u - v)

    def test_state_must_be_scalar(self, pwm10_model):
        # a float or a one-element array is a state, and the result is a float,
        # cold or planned; more elements are a caller's mistake
        for prop in (
            ThetaPropagator(pwm10_model.ivp(), theta=0.5, substeps=3, discontinuity_aligned=True),
            ExactLinearPropagator(pwm10_model),
        ):
            want = prop.propagate(0.0013, 0.007, 1.0)
            assert type(want) is float
            for scope in (contextlib.nullcontext, lambda: planned([prop], [0.0, 0.0013, 0.007, T])):
                with scope():
                    for u in (1.0, np.array([1.0]), np.array([[1.0]])):
                        got = prop.propagate(0.0013, 0.007, u)
                        assert type(got) is float and got.hex() == want.hex()
                    with pytest.raises(ValueError, match="scalar state"):
                        prop.propagate(0.0013, 0.007, np.array([1.0, 2.0]))

    def test_degenerate_interval_rejected(self, sine_ivp):
        be = ThetaPropagator(sine_ivp, theta=1.0)
        with pytest.raises(ValueError):
            be.propagate(0.01, 0.01, np.array([0.0]))

    def test_step_input_restarts_at_jump(self, step_signal):
        # a CN step ending exactly at the jump must see the pre-jump value
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=step_signal)
        cn = ThetaPropagator(m.ivp(), theta=0.5)
        h = 0.001
        got = cn.propagate(0.01 - h, 0.01, 0.2)
        a = A_RATE
        want = (0.2 * (1 - a * h / 2) + h * 0.01 * 1.0) / (1 + a * h / 2)
        assert got == pytest.approx(want, rel=1e-14)
        # and a step starting at the jump must see the post-jump value
        got2 = cn.propagate(0.01, 0.01 + h, 0.2)
        want2 = (0.2 * (1 - a * h / 2) + h * 0.01 * (-1.0)) / (1 + a * h / 2)
        assert got2 == pytest.approx(want2, rel=1e-14)


class TestSubstepRefinement:
    def test_backward_euler_first_order_to_exact(self, pwm10_model):
        exact = exact_linear_propagate(pwm10_model, 0.0, T, 0.0)
        errs, ns = [], [64, 128, 256, 512]
        for n in ns:
            be = ThetaPropagator(pwm10_model.ivp(), theta=1.0, substeps=n, discontinuity_aligned=True)
            errs.append(abs(be.propagate(0.0, T, 0.0) - exact))
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope >= 0.9

    def test_crank_nicolson_second_order_to_exact(self, sine_model):
        exact = exact_linear_propagate(sine_model, 0.0, T, 0.0)
        errs, ns = [], [16, 32, 64, 128]
        for n in ns:
            cn = ThetaPropagator(sine_model.ivp(), theta=0.5, substeps=n)
            errs.append(abs(cn.propagate(0.0, T, 0.0) - exact))
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)


class TestLocalOrderProbe:
    def test_backward_euler_probe(self, sine_model):
        be = ThetaPropagator(sine_model.ivp(), theta=1.0)
        exact = ExactLinearPropagator(sine_model)
        probe = local_order_probe(be, exact, t_start=0.003, u_start=np.array([0.02]), dt_max=T / 32)
        assert probe.slope == pytest.approx(2.0, abs=0.2)

    def test_crank_nicolson_probe(self, sine_model):
        cn = ThetaPropagator(sine_model.ivp(), theta=0.5)
        exact = ExactLinearPropagator(sine_model)
        probe = local_order_probe(cn, exact, t_start=0.003, u_start=np.array([0.02]), dt_max=T / 32)
        assert probe.slope == pytest.approx(3.0, abs=0.2)

    def test_exact_vs_itself_hits_floor(self, sine_model):
        exact = ExactLinearPropagator(sine_model)
        probe = local_order_probe(exact, exact, t_start=0.003, u_start=np.array([0.02]))
        assert probe.floor_hit
        assert math.isnan(probe.slope)


class TestNonlinearAndVector:
    def test_non_finite_detection(self):
        # (theta, growth rate, substeps): a growing mode stepped exactly onto
        # the implicit solve's pole, and an explicit step whose growth
        # overflows to inf with no pole in sight
        for theta, rate, substeps in ((1.0, 1.0, 1), (0.0, 1e200, 3)):
            ivp = SplitIvp(decay=-rate, gain=1.0, signal=Zero(period=1.0), u0=1.0, t_end=1.0)
            prop = ThetaPropagator(ivp, theta=theta, substeps=substeps)
            with pytest.raises(NonFiniteStateError):
                prop.propagate(0.0, 1.0, ivp.u0)


def reference_sweep(prop, t0, t1, u0):
    """The theta stepper's scalar update, one numpy substep at a time."""
    ivp = prop.ivp
    th = prop.theta
    grid = np.linspace(t0, t1, prop.substeps + 1)
    if prop.discontinuity_aligned:
        switches = ivp.signal.switching_times(t0, t1)
        if switches.size:
            merged = np.union1d(grid, switches)
            grid = merged[np.concatenate([[True], np.diff(merged) > 1e-13 * (t1 - t0)])]
    u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    a00 = float(-ivp.decay)
    for s, e in zip(grid, grid[1:]):
        s, e = float(s), float(e)
        h = e - s
        p_s = np.array([[ivp.gain]]) @ np.array([ivp.signal.value(s, Side.RIGHT_LIMIT)])
        p_e = np.array([[ivp.gain]]) @ np.array([ivp.signal.value(e, Side.LEFT_LIMIT)])
        num = u[0] + h * ((1.0 - th) * (a00 * u[0] + p_s[0]) + th * p_e[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.array([np.float64(num) / np.float64(1.0 - h * th * a00)])
    return u.item()


class TestScalarSweepReference:
    """``propagate`` on scalar linear problems equals the numpy reference bitwise."""

    @pytest.mark.parametrize("spec", ["pwm:m=400", "pwm3:m=400", "step", "sine", "diff:pwm:m=400-sine", "const:v=1"])
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_sync_grid_sweeps(self, spec, theta):
        ivp = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal(spec, T)).ivp()
        for substeps in (1, 7):
            for aligned in (False, True):
                prop = ThetaPropagator(ivp, theta=theta, substeps=substeps, discontinuity_aligned=aligned)
                # N=20 divides m=400, so every sync point lands on a PWM switch
                for n_int in (20, 13):
                    times = np.linspace(0.0, T, n_int + 1)
                    u = want = 0.25
                    for n in range(n_int):
                        u = prop.propagate(times[n], times[n + 1], u)
                        want = reference_sweep(prop, times[n], times[n + 1], want)
                        assert u == want, (substeps, aligned, n_int, n)

    def test_signed_zero_state(self):
        # a -0.0 input product must become +0.0 as in the matrix product, or
        # a -0.0 state in a neutral mode keeps its sign; == cannot see this
        ivp = SplitIvp(decay=-0.0, gain=-1.0, signal=Zero(period=T), u0=-0.0, t_end=T)
        for theta in (1.0, 0.5):
            prop = ThetaPropagator(ivp, theta=theta, substeps=3)
            got = prop.propagate(0.0, T, ivp.u0)
            assert got.hex() == reference_sweep(prop, 0.0, T, ivp.u0).hex()


PLAN_INPUTS = ["pwm:m=400", "pwm3:m=400", "step", "sine", "diff:pwm:m=400-sine", "const:v=1"]


def _chain(prop, times, u=0.25):
    out = [u]
    for t0, t1 in zip(times, times[1:]):
        out.append(prop.propagate(t0, t1, out[-1]))
    return np.array(out)


class TestPlannedPropagate:
    """A planned ``propagate`` equals the cold call of a fresh propagator bitwise."""

    @staticmethod
    def _assert_planned_equals_cold(make, times):
        warm, cold = make(), make()
        with planned([warm], times):
            holder = warm.model if isinstance(warm, ExactLinearPropagator) else warm
            assert len(holder._plans) == len(times) - 1  # every interval is served by its plan
            got = _chain(warm, times)
        assert holder._plans is None
        want = _chain(cold, times)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", PLAN_INPUTS)
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_theta(self, spec, theta):
        ivp = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal(spec, T)).ivp()
        for substeps in (1, 7):
            for aligned in (False, True):
                for n_int in (13, 20):
                    times = [n * T / n_int for n in range(n_int + 1)]
                    self._assert_planned_equals_cold(
                        lambda: ThetaPropagator(ivp, theta=theta, substeps=substeps, discontinuity_aligned=aligned),
                        times,
                    )

    @pytest.mark.parametrize("spec", PLAN_INPUTS)
    def test_exact(self, spec):
        # the 13-interval grid builds the input's table of switch-to-switch
        # segments; the 20-interval grid slices the table the other one built
        models._step_table.cache_clear()
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal(spec, T))
        for n_int in (13, 20):
            times = [n * T / n_int for n in range(n_int + 1)]
            self._assert_planned_equals_cold(lambda: parse_propagator("exact", model.ivp(), model), times)

    def test_failed_set_up_leaves_the_interval_unplanned(self):
        # diff:sine-sine3 has no closed form on any interval: nothing is
        # planned, and the call fails as a cold one does
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("diff:sine-sine3:phase=2", T))
        prop = parse_propagator("exact", model.ivp(), model)
        with planned([prop], [0.0, T / 2, T]):
            assert prop.model._plans == {}
            with pytest.raises(UnsupportedSignalError, match="constant-plus-sinusoid"):
                prop.propagate(0.0, T / 2, 0.0)
        # a theta grid whose last point lies past the input's domain: the
        # whole grid stays unplanned, the good interval runs cold with the
        # same bits, and the bad one fails as a cold call does
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T))
        past = math.nextafter(T, math.inf)
        warm, cold = (ThetaPropagator(model.ivp(), theta=0.5, substeps=3) for _ in range(2))
        with planned([warm], [0.0, T / 2, past]):
            assert warm._plans == {}
            assert warm.propagate(0.0, T / 2, 0.25).hex() == cold.propagate(0.0, T / 2, 0.25).hex()
            with pytest.raises(ValueError, match="outside signal domain"):
                warm.propagate(T / 2, past, 0.25)

    @pytest.mark.parametrize("times, bad", [
        ([-0.002, -0.001, T / 2], -0.002),  # every node of the first interval lies before 0
        ([T / 2, 0.021, 0.022], 0.021),  # the first node past T is a sync point
        ([0.0, 0.04], np.linspace(0.0, 0.04, 4)[2].item()),  # an interior node past T
    ])
    def test_theta_set_up_reports_the_first_node_outside_the_domain(self, times, bad):
        # the nodes are looked up in increasing order, so the error names the
        # first one outside the input's domain
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T))
        prop = ThetaPropagator(model.ivp(), theta=0.5, substeps=3)
        with pytest.raises(ValueError, match=re.escape(f"t={bad} outside signal domain")):
            prop._substeps(times)

    def test_plans_are_dropped_on_error(self, sine_model):
        prop = ThetaPropagator(sine_model.ivp())
        with pytest.raises(RuntimeError, match="inside"):
            with planned([prop], [0.0, T]):
                raise RuntimeError("inside")
        assert prop._plans is None


NEAR_SWITCH_INPUTS = ["pwm:m=400", "pwm3:m=400", "step", "diff:pwm:m=400-sine"]


@st.composite
def near_switch_grids(draw):
    """An input and a sync grid on ``[0, T]`` some of whose points sit within
    ``MERGE_TOL*T`` or ``1e-9*T`` of a switch, on either side."""
    sig = parse_signal(draw(st.sampled_from(NEAR_SWITCH_INPUTS)), T)
    table = sig.switching_times(0.0, T).tolist()
    n_int = draw(st.integers(1, 40))
    points = {n * T / n_int for n in range(n_int + 1)}
    for _ in range(draw(st.integers(1, 6))):
        sw = table[draw(st.integers(0, len(table) - 1))]
        reach = draw(st.sampled_from([MERGE_TOL, 1e-9])) * T
        points.add(sw + draw(st.floats(-reach, reach)))
    return sig, sorted(points)


class TestNearSwitchGrids:
    @given(near_switch_grids())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_split_equals_switching_times(self, sig_times):
        sig, times = sig_times
        want = [sig.switching_times(t0, t1).tolist() for t0, t1 in zip(times, times[1:])]
        assert sig.grid_switches(times) == want

    @given(near_switch_grids())
    @settings(max_examples=100, deadline=None)
    def test_study_planned_exact_equals_cold_call(self, sig_times):
        # after a uniform run has built the input's switch-to-switch table and,
        # inside a study, filled the study's end-segment memo; then outside one
        sig, times = sig_times
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=sig)

        def make():
            return parse_propagator("exact", model.ivp(), model)

        cold = make()
        want = np.vstack([cold.propagate(t0, t1, 0.25) for t0, t1 in zip(times, times[1:])]).tobytes()
        for scope in (study_scope, contextlib.nullcontext):
            with scope():
                with planned([make()], [n * T / 20 for n in range(21)]):
                    pass
                warm = make()
                with planned([warm], times):
                    assert len(warm.model._plans) == len(times) - 1
                    got = [warm.propagate(t0, t1, 0.25) for t0, t1 in zip(times, times[1:])]
            assert np.vstack(got).tobytes() == want, scope

    @given(
        near_switch_grids(),
        st.sampled_from([1.0, 0.5]),
        st.sampled_from([1, 7]),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_planned_theta_equals_cold_call(self, sig_times, theta, substeps, aligned):
        # the whole grid set up in one pass against one fresh propagator's
        # cold call per interval; a failure (a substep collapsed to h = 0 on
        # an interval a few ulps wide) must be the same too
        sig, times = sig_times
        ivp = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=sig).ivp()

        def make():
            return ThetaPropagator(ivp, theta=theta, substeps=substeps, discontinuity_aligned=aligned)

        def chain(prop):
            out = []
            for t0, t1 in zip(times, times[1:]):
                try:
                    out.append(prop.propagate(t0, t1, 0.25).hex())
                except ValueError as exc:
                    out.append(repr(exc))
            return out

        warm = make()
        with planned([warm], times):
            assert len(warm._plans) == len(times) - 1
            got = chain(warm)
        assert got == chain(make())

    @given(
        st.sampled_from(["pwm:m=400", "pwm3:m=400"]),
        st.integers(0, 10**6),
        st.integers(1, 36),
        st.sampled_from([0.0, MERGE_TOL, 1e-9, 2e-9]),
        st.sampled_from([-1.0, 1.0]),
        st.floats(T / 8000, T / 400),
        st.sampled_from([1.0, 0.5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_cold_theta_with_interior_nodes_near_switches(self, spec, pick, j, reach, sign, h, theta):
        # a non-aligned 37-substep interval whose interior node j lands on a
        # switch, or within MERGE_TOL*T or 1e-9*T of it: the one-pass node
        # lookup against the straight-line ``Signal.value`` formula
        sig = parse_signal(spec, T)
        table = sig.switching_times(0.0, T).tolist()
        sw = table[pick % len(table)]
        t0 = max(sw + sign * reach * T - j * h, 0.0)
        t1 = min(t0 + 37 * h, T)
        ivp = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=sig).ivp()
        prop = ThetaPropagator(ivp, theta=theta, substeps=37)
        assert prop.propagate(t0, t1, 0.25).hex() == reference_sweep(prop, t0, t1, 0.25).hex()

    @given(near_switch_grids())
    @settings(max_examples=100, deadline=None)
    def test_closed_form_trajectory_equals_cold_chain(self, sig_times):
        # both trajectories, set up from the switch-to-switch table outside a
        # run, against one cold set-up per interval
        sig, times = sig_times
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=sig)
        want = [model.u0]
        for t0, t1 in zip(times, times[1:]):
            want.append(models._advance(models._segments(model.decay_rate, model.R_res, sig, t0, t1), want[-1]))
        want = np.array(want).tobytes()
        assert models.closed_form_trajectory(model.ivp(), times).tobytes() == want
        assert models.exact_trajectory(model, times).tobytes() == want

    def test_closed_form_trajectory_slices_the_switch_table(self, monkeypatch):
        # after the first call has built the table, a call sets up only the end
        # segments of its intervals, not each of the input's ~800 segments
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T))
        times = [n * T / 20 for n in range(21)]
        want = models.closed_form_trajectory(model.ivp(), times)
        calls = []
        step = models._segment_step
        monkeypatch.setattr(models, "_segment_step", lambda *args: calls.append(args) or step(*args))
        assert models.closed_form_trajectory(model.ivp(), times).tobytes() == want.tobytes()
        assert 0 < len(calls) <= 2 * 20

    def test_closed_form_trajectory_without_a_closed_form(self):
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("diff:sine-sine3:phase=2", T))
        assert models.closed_form_trajectory(model.ivp(), [0.0, T / 2, T]) is None
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T))
        with pytest.raises(ValueError, match="need t0 < t1"):
            models.closed_form_trajectory(model.ivp(), [0.0, T / 2, T / 2, T])

    def test_shared_memo_is_per_problem(self):
        # two inputs with the same segment ends (no switches) on one circuit,
        # and two PWM circuits that differ only in R, whose switch-to-switch
        # tables have the same ends; inside a study and outside one
        times = [n * T / 8 for n in range(9)]
        problems = [(0.01, "sine"), (0.01, "const:v=1"), (0.01, "pwm:m=400"), (0.02, "pwm:m=400")]
        for scope in (study_scope, contextlib.nullcontext):
            models._step_table.cache_clear()
            with scope():
                for r_res, spec in problems:
                    model = LinearScalarModel(R_res=r_res, L_ind=0.001, signal=parse_signal(spec, T))
                    warm, cold = (parse_propagator("exact", model.ivp(), model) for _ in range(2))
                    with planned([warm], times):
                        assert _chain(warm, times).tobytes() == _chain(cold, times).tobytes(), (r_res, spec)

    def test_shared_end_segments_are_keyed_by_both_ends(self, pwm400_model):
        # in both grids the first interval's right end segment starts at the
        # same switch and the second interval's left one ends at the next,
        # but the sync point between them differs
        sw = pwm400_model.signal.switching_times(0.0, T).tolist()
        grids = [[0.0, 0.5 * (sw[10] + sw[11]), T], [0.0, 0.25 * sw[10] + 0.75 * sw[11], T]]
        with study_scope():
            for times in grids:
                warm, cold = (parse_propagator("exact", pwm400_model.ivp(), pwm400_model) for _ in range(2))
                with planned([warm], times):
                    assert _chain(warm, times).tobytes() == _chain(cold, times).tobytes(), times

    def test_shared_memo_is_dropped_on_error(self, pwm400_model, monkeypatch):
        # a run that fills the study's memo and then raises past the study's
        # per-point handler: the memo is unset when ``run_study`` unwinds
        import parareal.analysis as analysis

        class Abort(BaseException):
            pass

        memos = []

        def failing(cfg, executor=None):
            with planned([ExactLinearPropagator(pwm400_model)], [0.0, T / 2, T]):
                memos.append(models._study_segments.get())
                assert memos[-1][(pwm400_model.decay_rate, pwm400_model.R_res, pwm400_model.signal)]
                raise Abort

        monkeypatch.setattr(analysis, "iterate", failing)
        for _ in range(2):
            with pytest.raises(Abort):
                analysis.run_study(analysis.StudySpec(model=pwm400_model, n_list=(5, 10)))
            assert models._study_segments.get() is None
        assert memos[0] is not memos[1]  # each study starts a memo of its own


class TestParsePropagator:
    def test_names(self, sine_model):
        ivp = sine_model.ivp()
        assert parse_propagator("be", ivp, sine_model).theta == 1.0
        assert parse_propagator("cn", ivp, sine_model).theta == 0.5
        assert parse_propagator("be:substeps=4", ivp, sine_model).substeps == 4
        assert isinstance(parse_propagator("exact", ivp, sine_model), ExactLinearPropagator)

    def test_unknown(self, sine_model):
        for spec, match in [
            ("rk4", "unknown propagator"),
            ("be:substep=50", "unknown key 'substep'"),
            ("cn:aligned=on", "aligned must be 0 or 1, got 'on'"),
            ("be:substeps", "expected key=value"),
            ("be:substeps=2,substeps=3", "given twice"),
            ("exact:substeps=2", "unknown key 'substeps'"),
            ("cn:substeps=x", "substeps must be an integer, got 'x'"),
        ]:
            with pytest.raises(ValueError, match=match):
                parse_propagator(spec, sine_model.ivp(), sine_model)
