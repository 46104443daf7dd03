import math

import numpy as np
import pytest

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
from parareal.propagators import planned

T = 0.02
A_RATE = 10.0


@pytest.fixture(scope="module")
def sine_ivp(sine_model):
    return sine_model.ivp()


class TestThetaStep:
    def test_backward_euler_closed_form(self):
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Zero())
        be = ThetaPropagator(m.ivp(), theta=1.0)
        out = be.propagate(0.0, 0.002, np.array([1.0]))
        assert out[0] == pytest.approx(1.0 / 1.02, rel=1e-15)

    def test_crank_nicolson_closed_form(self):
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Zero())
        cn = ThetaPropagator(m.ivp(), theta=0.5)
        out = cn.propagate(0.0, 0.002, np.array([1.0]))
        assert out[0] == pytest.approx(0.99 / 1.01, rel=1e-15)

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
                u, v = rng.uniform(-5, 5, 2)
                gu = prop.propagate(0.004, 0.006, np.array([u]))
                gv = prop.propagate(0.004, 0.006, np.array([v]))
                assert abs(gu[0] - gv[0]) <= abs(u - v)

    def test_state_must_be_scalar(self, sine_model):
        # a float or a one-element array is a state; more elements are a caller's mistake
        for prop in (ThetaPropagator(sine_model.ivp()), ExactLinearPropagator(sine_model)):
            want = prop.propagate(0.0, 0.001, 1.0)
            assert np.array_equal(prop.propagate(0.0, 0.001, np.array([1.0])), want)
            assert np.array_equal(prop.propagate(0.0, 0.001, np.array([[1.0]])), want)
            with pytest.raises(ValueError, match="scalar state"):
                prop.propagate(0.0, 0.001, np.array([1.0, 2.0]))

    def test_degenerate_interval_rejected(self, sine_ivp):
        be = ThetaPropagator(sine_ivp, theta=1.0)
        with pytest.raises(ValueError):
            be.propagate(0.01, 0.01, np.array([0.0]))

    def test_step_input_restarts_at_jump(self, step_signal):
        # a CN step ending exactly at the jump must see the pre-jump value
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=step_signal)
        cn = ThetaPropagator(m.ivp(), theta=0.5)
        h = 0.001
        got = cn.propagate(0.01 - h, 0.01, np.array([0.2]))
        a = A_RATE
        want = (0.2 * (1 - a * h / 2) + h * 0.01 * 1.0) / (1 + a * h / 2)
        assert got[0] == pytest.approx(want, rel=1e-14)
        # and a step starting at the jump must see the post-jump value
        got2 = cn.propagate(0.01, 0.01 + h, np.array([0.2]))
        want2 = (0.2 * (1 - a * h / 2) + h * 0.01 * (-1.0)) / (1 + a * h / 2)
        assert got2[0] == pytest.approx(want2, rel=1e-14)


class TestSubstepRefinement:
    def test_backward_euler_first_order_to_exact(self, pwm10_model):
        exact = exact_linear_propagate(pwm10_model, 0.0, T, 0.0)
        errs, ns = [], [64, 128, 256, 512]
        for n in ns:
            be = ThetaPropagator(pwm10_model.ivp(), theta=1.0, substeps=n, discontinuity_aligned=True)
            errs.append(abs(be.propagate(0.0, T, np.array([0.0]))[0] - exact))
        slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert slope >= 0.9

    def test_crank_nicolson_second_order_to_exact(self, sine_model):
        exact = exact_linear_propagate(sine_model, 0.0, T, 0.0)
        errs, ns = [], [16, 32, 64, 128]
        for n in ns:
            cn = ThetaPropagator(sine_model.ivp(), theta=0.5, substeps=n)
            errs.append(abs(cn.propagate(0.0, T, np.array([0.0]))[0] - exact))
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
    return u


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
                    u = want = np.array([0.25])
                    for n in range(n_int):
                        u = prop.propagate(times[n], times[n + 1], u)
                        want = reference_sweep(prop, times[n], times[n + 1], want)
                        assert np.array_equal(u, want), (substeps, aligned, n_int, n)

    def test_signed_zero_state(self):
        # a -0.0 input product must become +0.0 as in the matrix product, or
        # a -0.0 state in a neutral mode keeps its sign; == cannot see this
        ivp = SplitIvp(decay=-0.0, gain=-1.0, signal=Zero(period=T), u0=-0.0, t_end=T)
        for theta in (1.0, 0.5):
            prop = ThetaPropagator(ivp, theta=theta, substeps=3)
            got = prop.propagate(0.0, T, ivp.u0)
            assert got.tobytes() == reference_sweep(prop, 0.0, T, ivp.u0).tobytes()


PLAN_INPUTS = ["pwm:m=400", "pwm3:m=400", "step", "sine", "diff:pwm:m=400-sine", "const:v=1"]


def _chain(prop, times, u=0.25):
    out = [np.array([u])]
    for t0, t1 in zip(times, times[1:]):
        out.append(prop.propagate(t0, t1, out[-1]))
    return np.vstack(out)


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

    def test_plans_are_dropped_on_error(self, sine_model):
        prop = ThetaPropagator(sine_model.ivp())
        with pytest.raises(RuntimeError, match="inside"):
            with planned([prop], [0.0, T]):
                raise RuntimeError("inside")
        assert prop._plans is None


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
        ]:
            with pytest.raises(ValueError, match=match):
                parse_propagator(spec, sine_model.ivp(), sine_model)
