import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from parareal import (
    Constant,
    Difference,
    LinearScalarModel,
    PwmSingle,
    SineWave,
    StepWave,
    ThreePhaseSine,
    UnsupportedSignalError,
    Zero,
    exact_linear_propagate,
    exact_trajectory,
    parse_model,
    reduced_ivp,
)

T = 0.02
A_RATE = 10.0  # R/L for the reference circuit


def brute_force_trajectory(model, t0, t1, phi0, rtol=1e-13):
    """Independent oracle: high-order adaptive stepping aligned to switches."""
    a = model.decay_rate
    sig = model.signal
    pts = [t0] + [float(s) for s in sig.switching_times(t0, t1)] + [t1]
    phi = phi0
    for s, e in zip(pts, pts[1:]):
        mid = 0.5 * (s + e)
        c = sig.value(mid)
        form = sig.segment_form(s, e)
        if form.amp == 0.0:
            rhs = lambda t, y, c=c: [-a * y[0] + model.R_res * c]
        else:
            rhs = lambda t, y, f=form: [
                -a * y[0] + model.R_res * (f.const + f.amp * math.sin(f.omega * t + f.phase))
            ]
        sol = solve_ivp(rhs, (s, e), [phi], method="DOP853", rtol=rtol, atol=1e-18)
        phi = float(sol.y[0, -1])
    return phi


class TestExactPropagate:
    def test_pure_decay(self):
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Zero())
        out = exact_linear_propagate(m, 0.0, 0.02, 1.0)
        assert out == pytest.approx(math.exp(-0.2), rel=1e-15)

    def test_constant_input_steady_state(self):
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Constant(1.0))
        out = exact_linear_propagate(m, 0.0, 10.0, 0.0)
        assert out == pytest.approx(0.001, abs=1e-12)

    def test_pwm_against_refined_stepping_oracle(self, pwm10_model):
        got = exact_linear_propagate(pwm10_model, 0.0, T, 0.0)
        want = brute_force_trajectory(pwm10_model, 0.0, T, 0.0)
        assert got == pytest.approx(want, abs=1e-11)

    def test_sine_against_refined_stepping_oracle(self, sine_model):
        got = exact_linear_propagate(sine_model, 0.0, T, 0.0)
        want = brute_force_trajectory(sine_model, 0.0, T, 0.0)
        assert got == pytest.approx(want, abs=1e-11)

    def test_semigroup_property(self, pwm10_model):
        rng = np.random.default_rng(11)
        switches = pwm10_model.signal.switching_times(0.0, T)
        mids = list(rng.uniform(0.002, 0.018, 8)) + [float(switches[3])]
        for tm in mids:
            phi0 = float(rng.uniform(-1, 1))
            direct = exact_linear_propagate(pwm10_model, 0.0, T, phi0)
            stop = exact_linear_propagate(pwm10_model, 0.0, tm, phi0)
            composed = exact_linear_propagate(pwm10_model, tm, T, stop)
            assert composed == pytest.approx(direct, abs=1e-12)

    def test_linearity_in_initial_value(self, pwm10_model):
        rng = np.random.default_rng(5)
        for _ in range(5):
            phi0 = float(rng.uniform(-1, 1))
            alpha = float(rng.uniform(-3, 3))
            base = exact_linear_propagate(pwm10_model, 0.0, 0.013, 0.0)
            one = exact_linear_propagate(pwm10_model, 0.0, 0.013, phi0)
            scaled = exact_linear_propagate(pwm10_model, 0.0, 0.013, alpha * phi0)
            assert scaled - base == pytest.approx(alpha * (one - base), abs=1e-14)

    def test_unsupported_segment(self):
        # sinusoids with different phases cannot be merged into one closed form
        bad = Difference(SineWave(T), ThreePhaseSine(T, phase_index=2))
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=bad)
        with pytest.raises(UnsupportedSignalError):
            exact_linear_propagate(m, 0.0, 0.001, 0.0)

    def test_trajectory_endpoints(self, pwm400_model):
        ts = np.array([0.0, 0.005, 0.01, 0.02])
        traj = exact_trajectory(pwm400_model, ts)
        assert traj[0] == 0.0
        assert traj[-1] == pytest.approx(exact_linear_propagate(pwm400_model, 0.0, T, 0.0), abs=1e-16)


class TestDefectScaling:
    def test_one_interval_defect_slope_at_least_linear(self, pwm400_model, sine_signal):
        # the bounded-input defect bound guarantees decay at least ~ dT
        from parareal import defect_scaling_study

        study = defect_scaling_study(pwm400_model, sine_signal)
        assert study.slope >= 0.9


class TestReducedIvp:
    def test_replaces_input_only(self, pwm400_model, sine_signal):
        ivp = pwm400_model.ivp()
        red = reduced_ivp(ivp, sine_signal)
        assert red.signal == sine_signal
        assert red.u0 == ivp.u0 and red.t_end == ivp.t_end
        assert red.decay == ivp.decay

    def test_step_surrogate(self, pwm400_model, step_signal):
        red = reduced_ivp(pwm400_model.ivp(), step_signal)
        assert isinstance(red.signal, StepWave)

    def test_identity_reduction_gives_zero_perturbation(self, pwm400_model):
        ivp = pwm400_model.ivp()
        red = reduced_ivp(ivp, ivp.signal)
        pert = Difference(ivp.signal, red.signal)
        ts = np.linspace(0.0, T, 20001)
        assert np.all(pert.values(ts) == 0.0)

    def test_channel_mismatch(self, pwm400_model):
        with pytest.raises(ValueError):
            reduced_ivp(pwm400_model.ivp(), (SineWave(T), SineWave(T)))


class TestParseModel:
    def test_round_trip(self):
        m = parse_model("rl:R=0.01,L=0.001,input=pwm:m=400")
        assert m.R_res == 0.01 and m.L_ind == 0.001
        assert isinstance(m.signal, PwmSingle) and m.signal.m == 400

    def test_nested_input_with_comma(self):
        m = parse_model("rl:R=0.02,L=0.002,input=pwm3:m=100,phase=2")
        assert m.signal.phase_index == 2

    def test_unknown_model(self):
        for spec, match in [
            ("rc:R=1", "unknown model kind"),
            ("rl:R=0.01,Q=3", "unknown key 'Q'"),
            ("rl:R", "expected key=value"),
            ("rl:input=pwm3:m=100,phase=2,Q=3", "unknown key 'Q'"),
        ]:
            with pytest.raises(ValueError, match=match):
                parse_model(spec)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LinearScalarModel(R_res=-1.0, L_ind=0.001, signal=SineWave(T))
