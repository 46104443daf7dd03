import bisect
import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parareal import (
    Constant,
    Difference,
    ExactLinearPropagator,
    LinearScalarModel,
    NonFiniteStateError,
    PararealConfig,
    PwmSingle,
    Side,
    SineWave,
    SplitIvp,
    StepWave,
    ThetaPropagator,
    UnsupportedSignalError,
    exact_linear_propagate,
    iterate,
    local_order_probe,
    make_config,
    parse_propagator,
    parse_signal,
    reference_trajectory,
)
from parareal import algorithm, models, propagators
from parareal.propagators import planned
from parareal.signals import MERGE_TOL, SNAP_TOL

T = 0.02
A_RATE = 10.0

# the differences the input lists name, each by its label and its two operands' specs; no spec
# names a ``Difference``, so it is built from Python
DIFFERENCES = {
    "diff:pwm:m=400-sine": ("pwm:m=400", "sine"),
    "diff:pwm:m=10-sine": ("pwm:m=10", "sine"),
    "diff:pwm:m=4-sine": ("pwm:m=4", "sine"),
    "diff:sine-sine3:phase=2": ("sine", "sine3:phase=2"),
}


def make_signal(name, period=T):
    """The input that ``name`` labels, at ``period``: the ``Difference`` of its operands
    where it is one of ``DIFFERENCES``, else the signal of the spec ``name``."""
    if name in DIFFERENCES:
        a, b = DIFFERENCES[name]
        return Difference(parse_signal(a, period), parse_signal(b, period))
    return parse_signal(name, period)


@pytest.fixture(scope="module")
def sine_ivp(sine_model):
    return sine_model.ivp()


class TestThetaStep:
    def test_backward_euler_closed_form(self):
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Constant(0.0, T))
        be = ThetaPropagator(m.ivp(), theta=1.0)
        out = be.propagate(0.0, 0.002, 1.0)
        assert out == pytest.approx(1.0 / 1.02, rel=1e-15)

    def test_crank_nicolson_closed_form(self):
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Constant(0.0, T))
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

    @pytest.mark.parametrize("substeps", [2.5, 3.0, "3", None, True])
    def test_non_integer_substeps_rejected(self, sine_ivp, substeps):
        # at construction, in the words of ``parse_propagator``, not at the first call
        with pytest.raises(ValueError, match=re.escape(f"substeps must be an integer, got {substeps!r}")):
            ThetaPropagator(sine_ivp, substeps=substeps)

    def test_numpy_integer_substeps(self, sine_ivp):
        want = ThetaPropagator(sine_ivp, substeps=3).propagate(0.001, 0.013, 0.123)
        assert ThetaPropagator(sine_ivp, substeps=np.int64(3)).propagate(0.001, 0.013, 0.123).hex() == want.hex()

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
        # an explicit step on a fast decaying mode: its growth factor
        # 1 - h*decay overflows the state to inf in the second substep
        ivp = SplitIvp(decay=1e200, gain=1.0, signal=Constant(0.0, 1.0), u0=1.0)
        prop = ThetaPropagator(ivp, theta=0.0, substeps=3)
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
        ivp = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=make_signal(spec)).ivp()
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
        # a -0.0 input product must become +0.0 as in the matrix product; ==
        # cannot see this.  In a decaying mode a*u turns a zero state of
        # either sign into +0.0 before the input term is added, so the
        # state's sign cannot show it either: the set-up's input terms do
        ivp = SplitIvp(decay=10.0, gain=-1.0, signal=Constant(0.0, T), u0=-0.0)
        p = (np.array([[ivp.gain]]) @ np.array([0.0])).item()
        for theta in (1.0, 0.5):
            prop = ThetaPropagator(ivp, theta=theta, substeps=3)
            got = prop.propagate(0.0, T, ivp.u0)
            assert got.hex() == reference_sweep(prop, 0.0, T, ivp.u0).hex()
            (_, p_s, th_p_e, _), _ = prop._substeps((0.0, T))
            assert [x.hex() for x in p_s + th_p_e] == [p.hex()] * 3 + [(theta * p).hex()] * 3


PLAN_INPUTS = ["pwm:m=400", "pwm3:m=400", "step", "sine", "diff:pwm:m=400-sine", "const:v=1"]


def _chain(prop, times, u=0.25):
    out = [u]
    for t0, t1 in zip(times, times[1:]):
        out.append(prop.propagate(t0, t1, out[-1]))
    return np.array(out)


def one_step(prop):
    """Whether ``planned`` plans ``prop``: an exact propagator, or a theta one
    that takes one step per interval (one substep, not aligned)."""
    return not isinstance(prop, ThetaPropagator) or (prop.substeps == 1 and not prop.discontinuity_aligned)


def assert_plans(prop, n):
    """Inside ``planned``: a plan for each of ``n`` intervals, or none at all
    on a multi-step theta propagator, which runs cold."""
    holder = getattr(prop, "model", prop)
    if one_step(prop):
        assert len(holder._plans) == n
    else:
        assert holder._plans is None


def set_ups(prop, times):
    """The grids the set-ups of ``prop`` over ``times`` cover: the whole grid
    for a one-step propagator (a run's plans), each interval on its own for a
    multi-step one."""
    return [times] if one_step(prop) else [(t0, t1) for t0, t1 in zip(times, times[1:])]


class TestPlannedPropagate:
    """A planned ``propagate`` equals the cold call of a fresh propagator
    bitwise; a multi-step theta propagator holds no plans and runs cold."""

    @staticmethod
    def _assert_planned_equals_cold(make, times):
        warm, cold = make(), make()
        with planned([warm], times):
            assert_plans(warm, len(times) - 1)  # every interval is served by its plan
            got = _chain(warm, times)
        assert getattr(warm, "model", warm)._plans is None
        want = _chain(cold, times)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", PLAN_INPUTS)
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_theta(self, spec, theta):
        ivp = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=make_signal(spec)).ivp()
        for substeps in (1, 7):
            for aligned in (False, True):
                for n_int in (13, 20):
                    times = [n * T / n_int for n in range(n_int + 1)]
                    self._assert_planned_equals_cold(
                        lambda: ThetaPropagator(ivp, theta=theta, substeps=substeps, discontinuity_aligned=aligned),
                        times,
                    )

    @pytest.mark.parametrize("scheme, one", [
        ("be", True), ("cn", True), ("exact", True),
        ("be:substeps=4", False), ("cn:aligned=1", False), ("cn:substeps=7,aligned=1", False),
    ])
    def test_a_plan_is_one_step(self, scheme, one):
        # the planning rule: an exact propagator and a theta one that takes
        # one step per interval hold a plan per interval, a theta plan being
        # one (h, p_s, theta*p_e, den) step; any other theta propagator holds
        # no plans and runs cold
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T))
        prop = parse_propagator(scheme, model.ivp(), model)
        holder = getattr(prop, "model", prop)
        times = [n * T / 20 for n in range(20)] + [T]
        with planned([prop], times):
            plans = holder._plans
        assert holder._plans is None
        if not one:
            assert plans is None
            return
        assert list(plans) == times[:-1] and [end for end, _ in plans.values()] == times[1:]
        if isinstance(prop, ThetaPropagator):
            steps = [step for _, step in plans.values()]
            assert all(type(step) is tuple and len(step) == 4 and all(type(x) is float for x in step) for step in steps)

    @pytest.mark.parametrize("spec", PLAN_INPUTS)
    def test_exact(self, spec):
        # the 13-interval grid builds the input's table of switch-to-switch
        # segments; the 20-interval grid slices the table the other one built
        models._step_table.cache_clear()
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=make_signal(spec))
        for n_int in (13, 20):
            times = [n * T / n_int for n in range(n_int + 1)]
            self._assert_planned_equals_cold(lambda: parse_propagator("exact", model.ivp(), model), times)

    @pytest.mark.parametrize("scheme", ["be", "cn:substeps=7", "cn:substeps=7,aligned=1", "exact"])
    @pytest.mark.parametrize("spec", ["pwm:m=400", "sine"])
    def test_a_call_that_ends_elsewhere_runs_cold(self, spec, scheme):
        # plans are found by their interval's start: a call from a planned
        # start to any other end runs cold, with the cold call's bits or error
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal(spec, T))
        warm, cold = (parse_propagator(scheme, model.ivp(), model) for _ in range(2))
        times = [n * T / 20 for n in range(20)] + [T]
        calls = [(times[3], times[5]), (times[3], 0.5 * (times[3] + times[4])),
                 (times[3], math.nextafter(times[4], 1.0)), (0.0, T), (times[4], times[3]), (times[4], times[4])]
        with planned([warm], times):
            assert_plans(warm, 20)
            for t0, t1 in calls:
                want = outcome(cold.propagate, t0, t1, 0.25)
                assert outcome(warm.propagate, t0, t1, 0.25) == want, (t0, t1)

    @pytest.mark.parametrize("spec", ["pwm:m=400", "sine"])
    @pytest.mark.parametrize("theta, substeps", [(1.0, 1), (0.5, 7)])
    def test_a_planned_interval_takes_a_one_element_array_as_its_float(self, spec, theta, substeps):
        # a one-element array is read as its float and runs the same plan:
        # the same bits, and the same error for NaN, as a float state
        ivp = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal(spec, T)).ivp()
        prop = ThetaPropagator(ivp, theta=theta, substeps=substeps)
        times = [n * T / 20 for n in range(20)] + [T]
        with planned([prop], times):
            assert_plans(prop, 20)
            for t0, t1 in zip(times, times[1:]):
                assert prop.propagate(t0, t1, np.array([0.02])).hex() == prop.propagate(t0, t1, 0.02).hex()
            nan = outcome(prop.propagate, times[3], times[4], math.nan)
            assert nan[0] is NonFiniteStateError
            assert outcome(prop.propagate, times[3], times[4], np.array([math.nan])) == nan
        assert outcome(prop.propagate, times[3], times[4], math.nan) == nan

    def test_failed_set_up_leaves_the_interval_unplanned(self):
        # sinusoids of different frequencies have no closed form on any
        # interval: nothing is planned, and the call fails as a cold one does
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Difference(SineWave(T), SineWave(2 * T)))
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
        warm, cold = (ThetaPropagator(model.ivp(), theta=0.5) for _ in range(2))
        with planned([warm], [0.0, T / 2, past]):
            assert warm._plans == {}
            assert warm.propagate(0.0, T / 2, 0.25).hex() == cold.propagate(0.0, T / 2, 0.25).hex()
            with pytest.raises(ValueError, match="outside signal domain"):
                warm.propagate(T / 2, past, 0.25)

    @pytest.mark.parametrize("substeps, times, bad", [
        (1, [-0.002, -0.001, T / 2], -0.002),  # every node of the first interval lies before 0
        (1, [T / 2, 0.021, 0.022], 0.021),  # the first node past T is a sync point
        (3, [-0.002, -0.001], -0.002),  # every node of the interval lies before 0
        (3, [T / 2, 0.021], 0.021),  # the first node past T is the interval's end
        (3, [0.0, 0.04], np.linspace(0.0, 0.04, 4)[2].item()),  # an interior node past T
    ])
    def test_theta_set_up_reports_the_first_node_outside_the_domain(self, substeps, times, bad):
        # the nodes are looked up in increasing order, so the error names the
        # first one outside the input's domain: of a run's sync grid, or of
        # one multi-step interval
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T))
        prop = ThetaPropagator(model.ivp(), theta=0.5, substeps=substeps)
        with pytest.raises(ValueError, match=re.escape(f"t={bad} outside signal domain")):
            prop._substeps(times)

    def test_plans_are_dropped_on_error(self, sine_model):
        prop = ThetaPropagator(sine_model.ivp())
        with pytest.raises(RuntimeError, match="inside"):
            with planned([prop], [0.0, T]):
                raise RuntimeError("inside")
        assert prop._plans is None


NEAR_SWITCH_INPUTS = ["pwm:m=400", "pwm3:m=400", "step", "diff:pwm:m=400-sine"]
# every kind of segment form: constant between switches (PWM of both kinds,
# the step), sinusoidal with no switch, and sinusoidal between switches
PLANNED_SEGMENT_INPUTS = [
    "pwm:m=400", "pwm3:m=400,phase=1", "pwm3:m=400,phase=2", "pwm3:m=400,phase=3", "step", "sine",
    "const:v=1", "diff:pwm:m=10-sine", "diff:sine-sine3:phase=2",
]


@st.composite
def near_switch_grids(draw, specs=NEAR_SWITCH_INPUTS):
    """An input and a sync grid on ``[0, T]`` some of whose points sit within
    ``MERGE_TOL*T`` or ``1e-9*T`` of a switch, on either side; on an input
    with no switch, of a uniform grid's point."""
    sig = make_signal(draw(st.sampled_from(specs)))
    n_int = draw(st.integers(1, 40))
    points = {n * T / n_int for n in range(n_int + 1)}
    table = sig.switching_times(0.0, T).tolist() or sorted(points)[1:-1] or [T / 2]
    for _ in range(draw(st.integers(1, 6))):
        sw = table[draw(st.integers(0, len(table) - 1))]
        reach = draw(st.sampled_from([MERGE_TOL, 1e-9])) * T
        points.add(sw + draw(st.floats(-reach, reach)))
    return sig, sorted(points)


def segment_bits(plan):
    """An interval's segment data, each float as its hex string (None stays None)."""
    return [tuple(None if x is None else x.hex() for x in segment) for segment in plan]


class TestNearSwitchGrids:
    @given(near_switch_grids())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_split_equals_switching_times(self, sig_times):
        sig, times = sig_times
        want = [sig.switching_times(t0, t1).tolist() for t0, t1 in zip(times, times[1:])]
        table = sig._switch_table().floats
        assert [list(table[i:j]) for i, j in zip(*sig.grid_switches(times))] == want

    @given(near_switch_grids(PLANNED_SEGMENT_INPUTS))
    # a sync point 1.4e-15 before the step's switch: the interval it starts
    # holds no switch, and the one it ends takes the form before the switch
    @example((parse_signal("step", T), [0.0, 0.009999999999998599, 0.01, 0.02]))
    # an interval one ulp wide that ends at a switch of the table: its rounded
    # midpoint is the switch, so both set-ups take the segment before it
    @example((parse_signal("pwm:m=400", T), [0.0, 0.00375, 0.0037500000000000003, T]))
    # a sync point 1e-15 (within MERGE_TOL*T) before the switch at 3e-4 starts
    # an interval that holds the next 175 switches: its first end segment
    # takes the form of the table segment after that switch by index, which
    # is the form that holds its midpoint
    @example((parse_signal("pwm:m=400", T), [0.0, 0.000299999999999, 0.0047, T]))
    @settings(max_examples=200, deadline=None)
    def test_planned_intervals_equal_cold_segments(self, sig_times):
        # every plan, end segments set up from the per-process forms and the
        # rest sliced from the per-process table, against the cold set-up of
        # each interval on its own
        sig, times = sig_times
        args = (A_RATE, 0.01, sig)
        got = models._grid_plans(*args, times)
        assert len(got) == len(times) - 1
        for plan, t0, t1 in zip(got, times, times[1:]):
            assert segment_bits(plan) == segment_bits(models._segments(*args, t0, t1)), (t0, t1)

    @given(near_switch_grids())
    @settings(max_examples=100, deadline=None)
    def test_planned_exact_equals_cold_call(self, sig_times):
        # after a uniform run has built the input's switch-to-switch table
        sig, times = sig_times
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=sig)

        def make():
            return parse_propagator("exact", model.ivp(), model)

        cold = make()
        want = np.vstack([cold.propagate(t0, t1, 0.25) for t0, t1 in zip(times, times[1:])]).tobytes()
        with planned([make()], [n * T / 20 for n in range(21)]):
            pass
        warm = make()
        with planned([warm], times):
            assert len(warm.model._plans) == len(times) - 1
            got = [warm.propagate(t0, t1, 0.25) for t0, t1 in zip(times, times[1:])]
        assert np.vstack(got).tobytes() == want

    @given(
        near_switch_grids(),
        st.sampled_from([1.0, 0.5]),
        st.sampled_from([1, 7]),
        st.booleans(),
    )
    # an interval a few ulps wide whose seven substeps collapse to h = 0: the
    # multi-step propagator runs unplanned, and its cold call fails
    @example((StepWave(0.02), [0.0, 0.010000000000001607, 0.010000000000001617, 0.02]), 1.0, 7, False)
    @settings(max_examples=200, deadline=None)
    def test_planned_theta_equals_cold_call(self, sig_times, theta, substeps, aligned):
        # a one-step propagator's whole grid set up in one pass, or a
        # multi-step one left unplanned, against one fresh propagator's cold
        # call per interval; a failure (a substep collapsed to h = 0 on an
        # interval a few ulps wide) must be the same too
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
            # every interval planned with one step each, none with more
            assert_plans(warm, len(times) - 1)
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
    # an interval one ulp wide that ends at a switch of the table
    @example((parse_signal("pwm:m=400", T), [0.0, 0.00375, 0.0037500000000000003, T]))
    @settings(max_examples=100, deadline=None)
    def test_exact_trajectory_equals_cold_chain(self, sig_times):
        # the trajectory, set up from the switch-to-switch table outside a
        # run, against one cold set-up per interval
        sig, times = sig_times
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=sig)
        want = [model.u0]
        for t0, t1 in zip(times, times[1:]):
            want.append(models._advance(models._segments(model.decay_rate, model.R_res, sig, t0, t1), want[-1]))
        want = np.array(want).tobytes()
        assert models.exact_trajectory(model, times).tobytes() == want

    def test_exact_trajectory_slices_the_switch_table(self, monkeypatch):
        # after the first call has built the table, a call sets up only the end
        # segments of its intervals, not each of the input's ~800 segments
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T))
        times = [n * T / 20 for n in range(21)]
        want = models.exact_trajectory(model, times)
        calls = []
        step = models._segment_step
        monkeypatch.setattr(models, "_segment_step", lambda *args: calls.append(args) or step(*args))
        assert models.exact_trajectory(model, times).tobytes() == want.tobytes()
        assert 0 < len(calls) <= 2 * 20

    def test_exact_trajectory_without_a_closed_form(self):
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Difference(SineWave(T), SineWave(2 * T)))
        with pytest.raises(UnsupportedSignalError, match="constant-plus-sinusoid"):
            models.exact_trajectory(model, [0.0, T / 2, T])
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T))
        for decay in (0.0, -1.0, math.nan):  # no problem without a closed form is built
            with pytest.raises(ValueError, match="decay rate > 0"):
                SplitIvp(decay, 0.01, model.signal, 0.0)
        with pytest.raises(ValueError, match="need t0 < t1"):
            models.exact_trajectory(model, [0.0, T / 2, T / 2, T])

    def test_exact_trajectory_of_one_point_and_of_none(self):
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T), u0=0.25)
        assert models.exact_trajectory(model, [0.0]).tolist() == [0.25]
        with pytest.raises(ValueError, match="need a grid of at least one time"):
            models.exact_trajectory(model, [])

    @pytest.mark.parametrize("times", [
        [0.0, T / 2, T / 4, T],
        [0.0, T / 2, T / 2, T],
        [0.0, math.nan, T],
        [-1e-3, 0.0, T],
        [0.0, T, 1.5 * T, 2 * T],
        [0.0, 3 * T, T],
        [3 * T, T, 2 * T],
    ])
    def test_exact_trajectory_of_a_faulty_grid_fails_as_the_cold_chain(self, times):
        # the grid set-up meets the fault the first cold interval set-up meets
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T))
        with pytest.raises(ValueError) as cold:
            for t0, t1 in zip(times, times[1:]):
                list(models._segments(model.decay_rate, model.R_res, model.signal, t0, t1))
        with pytest.raises(ValueError) as exact:
            models.exact_trajectory(model, times)
        with pytest.raises(ValueError) as split:
            model.signal.grid_switches(np.array(times))
        assert str(exact.value) == str(split.value) == str(cold.value)
        if times == [0.0, T / 2, T / 4, T]:
            assert str(cold.value) == "need t0 < t1, got (0.01, 0.005)"

    def test_an_array_grid_is_planned(self):
        prop = ExactLinearPropagator(LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T)))
        times = np.array([n * T / 8 for n in range(9)])
        with planned([prop], times):
            assert len(prop.model._plans) == 8

    def test_no_trajectory_reads_a_runs_plans(self):
        # plans that are not the closed form's, on every interval of a run's
        # grid: neither the run's reference nor a trajectory chains them
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=parse_signal("pwm:m=400", T))
        cfg = make_config(model, 4)
        fine = cfg.fine.model
        want = models.exact_trajectory(fine, cfg.times)
        algorithm._reference.cache_clear()  # a miss: the reference is computed with the plans attached
        ts = cfg.times.tolist()
        object.__setattr__(fine, "_plans", {t0: (t1, ((0.0, 42.0, None, None),)) for t0, t1 in zip(ts, ts[1:])})
        try:
            assert reference_trajectory(cfg)[:, 0].tobytes() == want.tobytes()
            assert models.exact_trajectory(fine, cfg.times).tobytes() == want.tobytes()
        finally:
            object.__setattr__(fine, "_plans", None)
        assert algorithm._reference.cache_info().misses == 1
        assert reference_trajectory(cfg)[:, 0].tobytes() == want.tobytes()

    def test_plans_are_per_problem(self):
        # two inputs with the same segment ends (no switches) on one circuit,
        # and two PWM circuits that differ only in R, whose switch-to-switch
        # tables have the same ends
        times = [n * T / 8 for n in range(9)]
        problems = [(0.01, "sine"), (0.01, "const:v=1"), (0.01, "pwm:m=400"), (0.02, "pwm:m=400")]
        models._step_table.cache_clear()
        for r_res, spec in problems:
            model = LinearScalarModel(R_res=r_res, L_ind=0.001, signal=parse_signal(spec, T))
            warm, cold = (parse_propagator("exact", model.ivp(), model) for _ in range(2))
            with planned([warm], times):
                assert _chain(warm, times).tobytes() == _chain(cold, times).tobytes(), (r_res, spec)

    def test_end_segments_between_the_same_switches(self, pwm400_model):
        # in both grids the first interval's right end segment starts at the
        # same switch and the second interval's left one ends at the next,
        # but the sync point between them differs
        sw = pwm400_model.signal.switching_times(0.0, T).tolist()
        grids = [[0.0, 0.5 * (sw[10] + sw[11]), T], [0.0, 0.25 * sw[10] + 0.75 * sw[11], T]]
        for times in grids:
            warm, cold = (parse_propagator("exact", pwm400_model.ivp(), pwm400_model) for _ in range(2))
            with planned([warm], times):
                assert _chain(warm, times).tobytes() == _chain(cold, times).tobytes(), times


# -- a frozen copy of the list-based theta set-up, the oracle of the array one --


def frozen_limits(sig, ts):
    """A frozen copy of the deleted ``node_limits``: both one-sided values of
    each of the increasing times ``ts`` in one merge walk over the switch
    table, with each segment's constant ``_formula`` at its midpoint."""
    if ts and (ts[0] < 0.0 or ts[-1] > sig.period):
        for t in ts:
            if t < 0.0 or t > sig.period:
                raise ValueError(f"t={t} outside signal domain [0, {sig.period}]")
    if isinstance(sig, Difference):
        la, ra = frozen_limits(sig.a, ts)
        lb, rb = frozen_limits(sig.b, ts)
        return [x - y for x, y in zip(la, lb)], [x - y for x, y in zip(ra, rb)]
    table = sig._switch_table().floats
    if not table:
        lefts = [sig._formula(t) for t in ts]
        return lefts, lefts[:]
    fences = [0.0, *table, sig.period]
    consts = [sig._formula(0.5 * (lo + hi)) for lo, hi in zip(fences, fences[1:])]
    tol = 1e-9 * (sig.period if math.isfinite(sig.period) else 1.0)
    lefts, rights = [], []
    n = len(table)
    i = bisect.bisect_left(table, ts[0]) if ts else 0
    prev = table[i - 1] if i else -math.inf
    nxt = table[i] if i < n else math.inf
    for t in ts:
        while nxt < t:
            i += 1
            prev, nxt = nxt, table[i] if i < n else math.inf
        if nxt - t <= tol:
            lefts.append(consts[i])
            rights.append(consts[i + 1])
        elif t - prev <= tol:
            lefts.append(consts[i - 1])
            rights.append(consts[i])
        else:
            lefts.append(consts[i])
            rights.append(consts[i])
    return lefts, rights


def snap_edges(sw, tol):
    """Around the switch ``sw``: the first float below the snap window, its
    lowest float, ``sw``, its highest float and the first float above it."""
    lo, hi = sw - tol, sw + tol  # each within a few ulps of its edge
    while sw - lo > tol:
        lo = math.nextafter(lo, math.inf)
    while sw - math.nextafter(lo, -math.inf) <= tol:
        lo = math.nextafter(lo, -math.inf)
    while hi - sw > tol:
        hi = math.nextafter(hi, -math.inf)
    while math.nextafter(hi, math.inf) - sw <= tol:
        hi = math.nextafter(hi, math.inf)
    return [math.nextafter(lo, -math.inf), lo, sw, hi, math.nextafter(hi, math.inf)]


def frozen_grid(prop, t0, t1):
    if prop.substeps == 1 and not prop.discontinuity_aligned:
        return [float(t0), float(t1)]
    grid = np.linspace(t0, t1, prop.substeps + 1)
    if prop.discontinuity_aligned:
        switches = prop.ivp.signal.switching_times(t0, t1)
        if switches.size:
            merged = np.union1d(grid, switches)
            keep = np.concatenate([[True], np.diff(merged) > MERGE_TOL * (t1 - t0)])
            grid = merged[keep]
    return grid.tolist()


def frozen_substeps(prop, times):
    """The list of ``(h, p_s, theta*p_e, den, end)`` of the grid ``times``, and each interval's count."""
    nodes, counts = [], []
    for t0, t1 in zip(times, times[1:]):
        if not t0 < t1:
            raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
        grid = frozen_grid(prop, t0, t1)
        nodes += grid[1:] if nodes else grid
        counts.append(len(grid) - 1)
    sig, gain, th, a = prop.ivp.signal, prop.ivp.gain, prop.theta, -prop.ivp.decay
    first = frozen_limits(sig, nodes[:1])[1][0]
    lefts, rights = frozen_limits(sig, nodes[1:-1])
    last = frozen_limits(sig, nodes[-1:])[0][0]
    p_s = [0.0 + gain * v for v in [first] + rights]
    th_p_e = [th * (0.0 + gain * v) for v in lefts + [last]]
    ends = nodes[1:]
    hs = [e - s for s, e in zip(nodes, ends)]
    return list(zip(hs, p_s, th_p_e, [1.0 - h * th * a for h in hs], ends)), counts


def frozen_propagate(prop, t0, t1, u):
    a, c = -prop.ivp.decay, 1.0 - prop.theta
    for h, p_s, th_p_e, den, e in frozen_substeps(prop, (t0, t1))[0]:
        if h <= 0.0:
            raise ValueError("degenerate substep")
        num = u + h * (c * (a * u + p_s) + th_p_e)
        u = num / den
        if not math.isfinite(u):
            raise NonFiniteStateError(f"non-finite state after step ending at t={e}")
    return u


def frozen_columns(prop, times):
    """``frozen_substeps`` in the form of ``_substeps``: its first four columns
    ``(h, p_s, theta*p_e, den)``, and whether every ``h > 0``."""
    steps, _ = frozen_substeps(prop, times)
    hs, p_s, th_p_e, dens = (list(col) for col in zip(*[step[:4] for step in steps]))
    return (hs, p_s, th_p_e, dens), all(h > 0.0 for h in hs)


def assert_ends(prop, times):
    """The frozen set-up's end column is each interval's ``_grid`` without its start."""
    steps, counts = frozen_substeps(prop, times)
    ends = [prop._grid((t0, t1))[1:].tolist() for t0, t1 in zip(times, times[1:])]
    assert [len(e) for e in ends] == counts
    assert np.array([step[4] for step in steps]).tobytes() == np.array([e for es in ends for e in es]).tobytes()


def outcome(fn, *args):
    """What ``fn(*args)`` gives: the bytes of its float results, or its exception's type and message."""
    try:
        out = fn(*args)
    except (ValueError, NonFiniteStateError) as exc:
        return type(exc), str(exc)
    if isinstance(out, float):
        return out.hex()
    columns, clean = out
    assert len(columns) == 4 and all(type(x) is float for col in columns for x in col)
    return np.array(columns).tobytes(), clean


ORACLE_INPUTS = ["pwm:m=6", "pwm:m=400", "pwm3:m=400,phase=2", "step", "diff:pwm:m=400-sine", "sine", "const:v=1"]
ORACLE_SCHEMES = ["be", "cn", "be:substeps=7", "cn:substeps=500,aligned=1"]


def _theta(spec, scheme):
    model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=make_signal(spec))
    return parse_propagator(scheme, model.ivp(), model)


class TestArraySetUpOracle:
    """The array set-up of a theta call, and of a run's plans, against the
    frozen list-based one, bit for bit.  A one-step propagator's set-up covers
    a whole sync grid, as a run's plans do; a multi-step one's covers one
    interval (``set_ups``)."""

    @pytest.mark.parametrize("scheme", ORACLE_SCHEMES)
    @pytest.mark.parametrize("spec", ORACLE_INPUTS)
    def test_uniform_grids(self, spec, scheme):
        prop = _theta(spec, scheme)
        for n_int in (1, 5, 20, 320):
            times = [n * T / n_int for n in range(n_int)] + [T]
            # one run's plans in one set-up, or every interval's set-up of a
            # multi-step propagator; and the first intervals' cold set-ups
            for ts in set_ups(prop, times):
                assert outcome(prop._substeps, ts) == outcome(frozen_columns, prop, ts), (n_int, ts[0])
            assert_ends(prop, times)
            for t0, t1 in zip(times[:21], times[1:21]):
                assert outcome(prop._substeps, (t0, t1)) == outcome(frozen_columns, prop, (t0, t1)), (n_int, t0)

    @pytest.mark.parametrize("aligned", [0, 1])
    @pytest.mark.parametrize("substeps", [1, 3, 500])
    @pytest.mark.parametrize("head", ["be", "cn"])
    @pytest.mark.parametrize("spec", ["pwm:m=400", "pwm3:m=400,phase=2", "step", "sine"])
    def test_one_grid_of_nodes(self, spec, head, substeps, aligned):
        # one ``_grid`` call over a whole sync grid of a one-step propagator,
        # or over each interval of a multi-step one: the intervals' frozen
        # grids, neighbours sharing their sync point; and one substep per
        # pair of neighbouring nodes
        prop = _theta(spec, f"{head}:substeps={substeps},aligned={aligned}")
        for n_int in (1, 7, 320):
            times = [n * T / n_int for n in range(n_int)] + [T]
            for ts in set_ups(prop, times):
                grids = [frozen_grid(prop, t0, t1) for t0, t1 in zip(ts, ts[1:])]
                want = np.array(grids[0] + [t for grid in grids[1:] for t in grid[1:]])
                got = prop._grid(ts)
                assert type(got) is np.ndarray and (got.shape, got.dtype) == (want.shape, want.dtype), n_int
                assert got.tobytes() == want.tobytes(), (n_int, ts[0])
                assert len(prop._substeps(ts)[0][0]) == len(want) - 1, (n_int, ts[0])

    @given(near_switch_grids(ORACLE_INPUTS), st.sampled_from(ORACLE_SCHEMES))
    @settings(max_examples=100, deadline=None)
    def test_grids_near_switches(self, sig_times, scheme):
        sig, times = sig_times
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=sig)
        prop = parse_propagator(scheme, model.ivp(), model)
        for ts in set_ups(prop, times):
            assert outcome(prop._substeps, ts) == outcome(frozen_columns, prop, ts)
        assert_ends(prop, times)
        for t0, t1 in zip(times, times[1:]):
            assert outcome(prop.propagate, t0, t1, 0.25) == outcome(frozen_propagate, prop, t0, t1, 0.25)

    def test_snap_window_edges(self):
        # at each of a few switches, the last floats on either side that snap
        # to it and the first ones that do not, as one sorted grid
        tol = SNAP_TOL * T
        for spec in ("pwm:m=400", "pwm3:m=400,phase=2", "step", "diff:pwm:m=400-sine"):
            sig = make_signal(spec)
            ts = sorted({t for sw in sig.switching_times(0.0, T).tolist()[:3] for t in snap_edges(sw, tol)})
            lefts, rights = sig._limits_array(np.array(ts))
            want = frozen_limits(sig, ts)
            assert (lefts.tobytes(), rights.tobytes()) == (np.array(want[0]).tobytes(), np.array(want[1]).tobytes())
            assert want[0] != want[1]  # some nodes snap
            times = [0.0, *ts, T]
            for scheme in ("be", "cn:substeps=3"):
                prop = _theta(spec, scheme)
                for grid in set_ups(prop, times):
                    assert outcome(prop._substeps, grid) == outcome(frozen_columns, prop, grid), (spec, scheme)

    def test_signed_zero_input_terms(self):
        # a -0.0 input product becomes +0.0 in both input terms
        ivp = SplitIvp(decay=10.0, gain=-1.0, signal=Constant(0.0, T), u0=-0.0)
        for theta in (0.0, 0.5, 1.0):
            for substeps in (1, 3):
                prop = ThetaPropagator(ivp, theta=theta, substeps=substeps)
                for grid in set_ups(prop, [0.0, T / 2, T]):
                    assert outcome(prop._substeps, grid) == outcome(frozen_columns, prop, grid), (theta, substeps)
                assert outcome(prop.propagate, 0.0, T, -0.0) == outcome(frozen_propagate, prop, 0.0, T, -0.0)

    def test_plans_are_the_set_up_steps(self):
        # a one-step propagator's plans are its set-up's steps, one 4-tuple
        # per interval; a multi-step one holds no plans in a run, and its
        # calls there are cold calls, bit for bit
        times = [n * T / 20 for n in range(21)]
        prop = _theta("pwm:m=400", "be")
        steps, _ = frozen_substeps(prop, times)
        got = propagators._theta_plans(prop, times)
        assert all(type(plan) is tuple and len(plan) == 4 for plan in got)
        assert np.array(got).tobytes() == np.array([step[:4] for step in steps]).tobytes()
        warm, cold = _theta("pwm:m=400", "be:substeps=7"), _theta("pwm:m=400", "be:substeps=7")
        with planned([warm], times):
            assert warm._plans is None
            assert _chain(warm, times).tobytes() == _chain(cold, times).tobytes()

    @pytest.mark.parametrize("spec", ORACLE_INPUTS)
    @pytest.mark.parametrize("times", [
        [-0.002, -0.001, T / 2],
        [T / 2, 0.021, 0.022],
        [0.0, 0.04],
        [0.0, T / 2, 0.03],
    ])
    def test_first_node_outside_the_domain(self, spec, times):
        for scheme in ("cn:substeps=3", "be"):
            prop = _theta(spec, scheme)
            got = [outcome(prop._substeps, grid) for grid in set_ups(prop, times)]
            assert got == [outcome(frozen_columns, prop, grid) for grid in set_ups(prop, times)]
            assert got[-1][0] is ValueError and "outside signal domain" in got[-1][1]

    def test_a_substep_that_underflows_is_degenerate(self):
        # a horizon of six subnormals on four intervals of one and two: a
        # third of one subnormal rounds to 0, two thirds to one subnormal, so
        # np.linspace sets the intervals' nodes up by two different formulas,
        # and either way some substep has h = 0
        ivp = SplitIvp(decay=1.0, gain=1.0, signal=Constant(0.0, 3e-323), u0=1.0)
        prop = ThetaPropagator(ivp, theta=0.5, substeps=3)
        times = list(algorithm._sync_times(3e-323, 4))
        assert {t1 - t0 for t0, t1 in zip(times, times[1:])} == {5e-324, 1e-323}
        for t0, t1 in zip(times, times[1:]):
            assert outcome(prop._substeps, (t0, t1)) == outcome(frozen_columns, prop, (t0, t1)), t0
            got = outcome(prop.propagate, t0, t1, 1.0)
            assert got == (ValueError, "degenerate substep") == outcome(frozen_propagate, prop, t0, t1, 1.0), t0

    def test_degenerate_substep(self):
        # seven substeps across an interval two ulps wide: some have h = 0
        t0 = T / 2
        t1 = math.nextafter(math.nextafter(t0, 1.0), 1.0)
        for spec in ORACLE_INPUTS:
            prop = _theta(spec, "be:substeps=7")
            got = outcome(prop.propagate, t0, t1, 0.25)
            assert got == (ValueError, "degenerate substep") == outcome(frozen_propagate, prop, t0, t1, 0.25)

    def test_overflow(self):
        # an explicit step whose growth overflows, and an implicit one whose
        # decay term a*u overflows (a SplitIvp's decay rate is finite)
        for theta, rate, substeps, u in ((0.0, 1e200, 3, 1.0), (0.5, 1e300, 1, 1e10)):
            ivp = SplitIvp(decay=rate, gain=1.0, signal=Constant(0.0, 1.0), u0=1.0)
            prop = ThetaPropagator(ivp, theta=theta, substeps=substeps)
            got = outcome(prop.propagate, 0.0, 1.0, u)
            assert got == outcome(frozen_propagate, prop, 0.0, 1.0, u)
            assert got[0] is NonFiniteStateError and got[1].startswith("non-finite state after step ending at t=")


NON_FINITE = [math.inf, -math.inf, math.nan]


class TestCheckFreeRecurrence:
    """``propagate`` runs a clean set-up without per-step checks and locates a
    failure with the checked loop: the same result or error as ``frozen_propagate``."""

    @given(
        u=st.sampled_from(NON_FINITE),
        theta=st.sampled_from([0.0, 0.5, 1.0]),
        a=st.floats(max_value=-5e-324, allow_infinity=False),  # a SplitIvp's decay rate is finite
        h=st.floats(min_value=0.0, exclude_min=True),
        p_s=st.floats(),
        th_p_e=st.floats(),
        den=st.floats().filter(lambda den: den != 0.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_non_finite_state_stays_non_finite(self, u, theta, a, h, p_s, th_p_e, den):
        # the one step of the recurrence, in the operand order of ``propagate``
        c = 1.0 - theta
        assert not math.isfinite((u + h * (c * (a * u + p_s) + th_p_e)) / den)
        # the same step as the plan of (0, 1): the final state is not finite,
        # and the checked loop names the step
        ivp = SplitIvp(decay=-a, gain=1.0, signal=Constant(0.0, 1.0), u0=0.0)
        prop = ThetaPropagator(ivp, theta=theta)
        object.__setattr__(prop, "_plans", {0.0: (1.0, (h, p_s, th_p_e, den))})
        with pytest.raises(NonFiniteStateError, match=re.escape("non-finite state after step ending at t=1.0")):
            prop.propagate(0.0, 1.0, u)

    @given(
        h=st.floats(min_value=0.0, exclude_min=True),
        theta=st.floats(0.0, 1.0),
        a=st.floats(max_value=0.0),
    )
    @example(h=math.inf, theta=0.0, a=0.0)
    @example(h=5e-324, theta=0.5, a=-math.inf)
    def test_a_decaying_mode_has_no_pole(self, h, theta, a):
        # why ``_substeps`` tests no denominator: ``SplitIvp`` holds a decaying mode only
        assert 1.0 - h * theta * a != 0.0

    @pytest.mark.parametrize("substeps, first", [(3, NonFiniteStateError), (7, ValueError)])
    def test_non_finite_and_degenerate_steps_in_either_order(self, substeps, first):
        # substeps across an interval two ulps wide, some with h = 0, of an
        # explicit step on a fast decaying mode, whose a*u overflows from
        # u = 1e300 at the first step with h > 0: three substeps run one step
        # before the degenerate one, seven start with a degenerate one
        t0 = T / 2
        t1 = math.nextafter(math.nextafter(t0, 1.0), 1.0)
        ivp = SplitIvp(decay=1e10, gain=1.0, signal=Constant(0.0, T), u0=0.0)
        prop = ThetaPropagator(ivp, theta=0.0, substeps=substeps)
        (hs, *_), clean = prop._substeps((t0, t1))
        assert not clean and (hs[0] > 0.0) == (first is NonFiniteStateError) and 0.0 in hs
        times = [0.0, t0, t1, T]
        for u in (1e300, 0.25, math.nan, -math.inf):
            want = outcome(frozen_propagate, prop, t0, t1, u)
            assert want[0] is (ValueError if u == 0.25 else first), u
            assert outcome(prop.propagate, t0, t1, u) == want, u
            # a multi-step propagator is left unplanned: the call is a cold one
            with planned([prop], times):
                assert prop._plans is None
                assert outcome(prop.propagate, t0, t1, u) == want, u

    @pytest.mark.parametrize("scheme", ORACLE_SCHEMES)
    @pytest.mark.parametrize("spec", ["pwm:m=400", "sine"])
    def test_non_finite_incoming_state(self, spec, scheme):
        prop = _theta(spec, scheme)
        times = [n * T / 20 for n in range(20)] + [T]
        for u in NON_FINITE:
            want = outcome(frozen_propagate, prop, times[3], times[4], u)
            assert want[0] is NonFiniteStateError
            assert outcome(prop.propagate, times[3], times[4], u) == want
            assert outcome(prop.propagate, times[3], times[4], np.array([u])) == want
            with planned([prop], times):
                assert_plans(prop, 20)
                assert outcome(prop.propagate, times[3], times[4], u) == want

    @pytest.mark.parametrize("decay, u0, t_end, n_intervals, theta, substeps, want", [
        # an explicit step on a fast decaying mode, clean: a*u0 = -1e310 overflows
        (1e10, 1e300, 1.0, 4, 0.0, 1, (NonFiniteStateError, "non-finite state after step ending at t=0.25")),
        # seven substeps across a horizon two subnormals long, the first with h = 0
        (1.0, 1.0, 1e-323, 1, 1.0, 7, (ValueError, "degenerate substep")),
    ])
    def test_iterate_with_a_failing_coarse_set_up(self, monkeypatch, decay, u0, t_end, n_intervals, theta, substeps,
                                                  want):
        ivp = SplitIvp(decay=decay, gain=1.0, signal=Constant(0.0, t_end), u0=u0)
        coarse = ThetaPropagator(ivp, theta=theta, substeps=substeps)
        cfg = PararealConfig(n_intervals=n_intervals, fine=ThetaPropagator(ivp, theta=0.5), coarse=coarse)
        t1 = cfg.times[1].item()
        assert outcome(frozen_propagate, coarse, 0.0, t1, u0) == want
        seen = []
        cold_propagate = ThetaPropagator.propagate

        def spy(self, t0, t1, u):
            seen.append(self._plans)
            return cold_propagate(self, t0, t1, u)

        monkeypatch.setattr(ThetaPropagator, "propagate", spy)
        with pytest.raises(want[0]) as info:
            iterate(cfg)
        # a one-step coarse propagator plans every interval, a multi-step one
        # runs cold; either way its first call raises, relabelled by the
        # initial guess
        assert [plans and len(plans) for plans in seen] == [n_intervals if substeps == 1 else None]
        assert str(info.value) == f"coarse guess failed on interval 1: {want[1]}"
        if want[0] is NonFiniteStateError:
            assert (info.value.k, info.value.n) == (0, 1)


class TestParsePropagator:
    @pytest.mark.parametrize("check, message", [
        (lambda ivp: ThetaPropagator(ivp, theta=-0.5), r"^theta must lie in \[0, 1\]$"),
        (lambda ivp: ThetaPropagator(ivp, theta=1.5), r"^theta must lie in \[0, 1\]$"),
        (lambda ivp: ThetaPropagator(ivp, substeps=0), "^substeps must be >= 1$"),
        (lambda ivp: parse_propagator("exact", ivp), "^exact propagator needs a scalar linear model$"),
    ], ids=["theta-below-zero", "theta-above-one", "zero-substeps", "exact-without-model"])
    def test_input_checks(self, sine_ivp, check, message):
        with pytest.raises(ValueError, match=message) as info:
            check(sine_ivp)
        assert type(info.value) is ValueError

    def test_names(self, sine_model):
        ivp = sine_model.ivp()
        assert parse_propagator("be", ivp, sine_model).theta == 1.0
        assert parse_propagator("cn", ivp, sine_model).theta == 0.5
        assert parse_propagator("be:substeps=4", ivp, sine_model).substeps == 4
        exact = parse_propagator("exact", ivp, sine_model)
        assert isinstance(exact, ExactLinearPropagator)
        assert exact.ivp is exact.ivp and exact.ivp == ivp  # one record, built at construction

    def test_unknown(self, sine_model):
        for spec, match in [
            ("rk4", "^unknown propagator kind 'rk4' in 'rk4'$"),
            ("be:substep=50", "unknown key 'substep'"),
            ("cn:aligned=on", "aligned must be 0 or 1, got 'on'"),
            ("be:substeps", "expected key=value"),
            ("be:substeps=2,substeps=3", "given twice"),
            ("exact:substeps=2", "unknown key 'substeps'"),
            ("cn:substeps=x", "substeps must be an integer, got 'x'"),
        ]:
            with pytest.raises(ValueError, match=match):
                parse_propagator(spec, sine_model.ivp(), sine_model)
