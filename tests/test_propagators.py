import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from parareal import (
    ExactLinearPropagator,
    LinearScalarModel,
    NonFiniteStateError,
    PwmSingle,
    Side,
    SineWave,
    SplitIvp,
    StepWave,
    ThetaPropagator,
    Zero,
    exact_linear_propagate,
    local_order_probe,
    parse_propagator,
    parse_signal,
)

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
    def test_newton_path_against_scipy(self):
        # u' = -u^3 + R * sin input; no smooth_matrix so the stepper uses Newton
        sig = SineWave(T)
        ivp = SplitIvp(
            dim=1,
            smooth_rhs=lambda t, u: -(u**3),
            input_signals=(sig,),
            injection=np.array([[1.0]]),
            u0=np.array([0.5]),
            t_end=T,
            lipschitz=3.0,
            smooth_bound=1.0,
            smooth_jac=lambda t, u: np.array([[-3.0 * u[0] ** 2]]),
        )
        be = ThetaPropagator(ivp, theta=1.0, substeps=512)
        got = be.propagate(0.0, T, ivp.u0)
        sol = solve_ivp(
            lambda t, y: [-y[0] ** 3 + math.sin(2 * math.pi * t / T)],
            (0, T), [0.5], method="DOP853", rtol=1e-12, atol=1e-14,
        )
        assert got[0] == pytest.approx(sol.y[0, -1], abs=5e-4)

    def test_newton_without_jacobian_matches_with(self):
        sig = Zero(period=T)
        common = dict(
            dim=1,
            smooth_rhs=lambda t, u: -(u**3),
            input_signals=(sig,),
            injection=np.array([[1.0]]),
            u0=np.array([0.7]),
            t_end=T,
            lipschitz=3.0,
            smooth_bound=1.0,
        )
        with_jac = SplitIvp(**common, smooth_jac=lambda t, u: np.array([[-3.0 * u[0] ** 2]]))
        without = SplitIvp(**common)
        a = ThetaPropagator(with_jac, theta=1.0, substeps=16).propagate(0.0, T, with_jac.u0)
        b = ThetaPropagator(without, theta=1.0, substeps=16).propagate(0.0, T, without.u0)
        assert a[0] == pytest.approx(b[0], abs=1e-11)

    def test_two_dimensional_linear_system(self):
        # coupled decaying system with two input channels through an injection matrix
        A = np.array([[-3.0, 1.0], [0.5, -2.0]])
        B = np.array([[1.0, 0.0], [0.2, 0.7]])
        signals = (SineWave(T), StepWave(T))
        ivp = SplitIvp(
            dim=2,
            smooth_rhs=lambda t, u: A @ u,
            input_signals=signals,
            injection=B,
            u0=np.array([1.0, -1.0]),
            t_end=T,
            lipschitz=4.0,
            smooth_bound=10.0,
            smooth_matrix=A,
        )
        cn = ThetaPropagator(ivp, theta=0.5, substeps=1024, discontinuity_aligned=True)
        got = cn.propagate(0.0, T, ivp.u0)

        def rhs(t, y):
            w = np.array([math.sin(2 * math.pi * t / T), 1.0 if t < T / 2 else -1.0])
            return A @ y + B @ w

        mid = solve_ivp(rhs, (0, T / 2), ivp.u0, method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
        ref = solve_ivp(rhs, (T / 2, T), mid, method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
        np.testing.assert_allclose(got, ref, atol=1e-8)

    def test_non_finite_detection(self):
        # (theta, growth rate, substeps): a growing mode stepped exactly onto
        # the implicit solve's pole, and an explicit step whose growth
        # overflows to inf with no pole in sight
        for theta, rate, substeps in ((1.0, 1.0, 1), (0.0, 1e200, 3)):
            ivp = SplitIvp(
                dim=1,
                smooth_rhs=lambda t, u, rate=rate: rate * u,
                input_signals=(Zero(period=1.0),),
                injection=np.array([[1.0]]),
                u0=np.array([1.0]),
                t_end=1.0,
                lipschitz=rate,
                smooth_bound=rate,
                smooth_matrix=np.array([[rate]]),
            )
            prop = ThetaPropagator(ivp, theta=theta, substeps=substeps)
            with pytest.raises(NonFiniteStateError):
                prop.propagate(0.0, 1.0, ivp.u0)


def reference_sweep(prop, t0, t1, u0):
    """The theta stepper's scalar update, one numpy substep at a time."""
    ivp = prop.ivp
    th = prop.theta
    grid = np.linspace(t0, t1, prop.substeps + 1)
    if prop.discontinuity_aligned:
        switches = ivp.input_switching_times(t0, t1)
        if switches.size:
            merged = np.union1d(grid, switches)
            grid = merged[np.concatenate([[True], np.diff(merged) > 1e-13 * (t1 - t0)])]
    u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    a00 = float(ivp.smooth_matrix[0, 0])
    for s, e in zip(grid, grid[1:]):
        s, e = float(s), float(e)
        h = e - s
        p_s = ivp.injection @ ivp.input_vector(s, Side.RIGHT_LIMIT)
        p_e = ivp.injection @ ivp.input_vector(e, Side.LEFT_LIMIT)
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

    def test_two_channel_scalar_problem(self):
        signals = (parse_signal("pwm:m=400", T), SineWave(T))
        ivp = SplitIvp(
            dim=1,
            smooth_rhs=lambda t, u: -A_RATE * u,
            input_signals=signals,
            injection=np.array([[0.01, 0.003]]),
            u0=np.array([0.0]),
            t_end=T,
            smooth_matrix=np.array([[-A_RATE]]),
        )
        for theta in (1.0, 0.5):
            prop = ThetaPropagator(ivp, theta=theta, substeps=7, discontinuity_aligned=True)
            times = np.linspace(0.0, T, 14)
            u = want = ivp.u0
            for n in range(13):
                u = prop.propagate(times[n], times[n + 1], u)
                want = reference_sweep(prop, times[n], times[n + 1], want)
                assert np.array_equal(u, want), (theta, n)

    def test_signed_zero_state(self):
        # a -0.0 input product must become +0.0 as in the matrix product, or
        # a -0.0 state in a neutral mode keeps its sign; == cannot see this
        ivp = SplitIvp(
            dim=1,
            smooth_rhs=lambda t, u: 0.0 * u,
            input_signals=(Zero(period=T),),
            injection=np.array([[-1.0]]),
            u0=np.array([-0.0]),
            t_end=T,
            smooth_matrix=np.array([[0.0]]),
        )
        for theta in (1.0, 0.5):
            prop = ThetaPropagator(ivp, theta=theta, substeps=3)
            got = prop.propagate(0.0, T, ivp.u0)
            assert got.tobytes() == reference_sweep(prop, 0.0, T, ivp.u0).tobytes()


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
