import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from parareal import (
    Constant,
    Difference,
    LinearScalarModel,
    PwmSingle,
    SineWave,
    SplitIvp,
    StepWave,
    UnsupportedSignalError,
    exact_linear_propagate,
    exact_trajectory,
    parse_model,
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
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Constant(0.0, T))
        out = exact_linear_propagate(m, 0.0, 0.02, 1.0)
        assert out == pytest.approx(math.exp(-0.2), rel=1e-15)

    def test_constant_input_steady_state(self):
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Constant(1.0, 10.0))
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
        # sinusoids of different frequencies cannot be merged into one closed form
        bad = Difference(SineWave(T), SineWave(2 * T))
        m = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=bad)
        with pytest.raises(UnsupportedSignalError):
            exact_linear_propagate(m, 0.0, 0.001, 0.0)

    @pytest.mark.parametrize("sig", [
        Difference(SineWave(T), SineWave(2 * T)),
        Difference(Difference(SineWave(T), SineWave(2 * T)), PwmSingle(m=10, period=T)),
    ], ids=["two-frequencies", "nested-with-pwm"])
    def test_unsupported_segment_fails_every_set_up(self, sig):
        from parareal import models

        args = (A_RATE, 0.01, sig)
        with pytest.raises(UnsupportedSignalError, match="constant-plus-sinusoid"):
            models._grid_plans(*args, [0.0, 0.005, 0.01, T])
        # with or without a switch, the table sets up the form of each segment
        # between two of its fences, 0 and T the outer ones: a switch-free
        # input's table has one form and no segment between two switches
        with pytest.raises(UnsupportedSignalError, match="constant-plus-sinusoid"):
            models._step_table(*args)
        sine = SineWave(T)
        assert models._step_table(A_RATE, 0.01, sine) == ((), (), (sine.segment_form(0.0, T),))

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


class TestSplitIvp:
    def test_four_fields_and_the_input_period_as_horizon(self, pwm400_model):
        ivp = pwm400_model.ivp()
        assert [f.name for f in dataclasses.fields(SplitIvp)] == ["decay", "gain", "signal", "u0"]
        assert ivp.t_end == ivp.signal.period == T
        with pytest.raises(TypeError):
            SplitIvp(decay=10.0, gain=0.01, signal=SineWave(T), u0=0.0, t_end=T)

    @pytest.mark.parametrize("decay", [0.0, -0.0, -1.0, math.nan, -math.inf, math.inf])
    def test_a_decay_rate_not_finite_and_above_zero_is_rejected(self, decay, pwm400_model):
        message = re.escape(f"the closed form needs a finite decay rate > 0, got {decay!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            SplitIvp(decay=decay, gain=0.01, signal=SineWave(T), u0=0.0)
        with pytest.raises(ValueError, match=f"^{message}$"):  # replace checks again
            dataclasses.replace(pwm400_model.ivp(), decay=decay)

    @pytest.mark.parametrize("signal", [(SineWave(T), SineWave(T)), None, 1.0])
    def test_an_input_that_is_not_one_signal_is_rejected(self, signal):
        with pytest.raises(ValueError, match="expected one input signal, got"):
            SplitIvp(decay=10.0, gain=0.01, signal=signal, u0=0.0)


class TestReducedIvp:
    """A reduced problem is the IVP with its input replaced (``dataclasses.replace``)."""

    def test_replaces_input_only(self, pwm400_model, sine_signal):
        ivp = pwm400_model.ivp()
        red = dataclasses.replace(ivp, signal=sine_signal)
        assert red.signal == sine_signal
        assert red.u0 == ivp.u0 and red.t_end == ivp.t_end
        assert red.decay == ivp.decay

    def test_step_surrogate(self, pwm400_model, step_signal):
        red = dataclasses.replace(pwm400_model.ivp(), signal=step_signal)
        assert isinstance(red.signal, StepWave)

    def test_identity_reduction_gives_zero_perturbation(self, pwm400_model):
        ivp = pwm400_model.ivp()
        red = dataclasses.replace(ivp, signal=ivp.signal)
        pert = Difference(ivp.signal, red.signal)
        ts = np.linspace(0.0, T, 20001)
        assert np.all(pert.values(ts) == 0.0)

    def test_channel_mismatch(self, pwm400_model):
        with pytest.raises(ValueError, match="expected one input signal"):
            dataclasses.replace(pwm400_model.ivp(), signal=(SineWave(T), SineWave(T)))


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

    @pytest.mark.parametrize("R, L, match", [
        (1.0, math.inf, "positive and finite"),
        (math.inf, 1.0, "positive and finite"),
        (math.nan, 1.0, "positive and finite"),
        (1e-300, 1e300, "underflows to 0"),
        (1e300, 1e-300, "overflows to inf"),
    ])
    def test_degenerate_parameters(self, R, L, match):
        with pytest.raises(ValueError, match=match):
            LinearScalarModel(R_res=R, L_ind=L, signal=SineWave(T))


def chain_50_digits(model, times):
    """The closed form at ``times`` in 50-digit arithmetic, on the input's own switch instants and
    segment constants, and at each point the scale the chain has carried so far: the largest
    magnitude of its state and of its sinusoid's particular solution."""
    mp = pytest.importorskip("mpmath")
    ctx = mp.mp.clone()
    ctx.dps = 50
    a, gain, sig = ctx.mpf(model.decay_rate), ctx.mpf(model.R_res), model.signal
    switches = sig._switch_table().floats
    phi, scale = ctx.mpf(model.u0), abs(model.u0)
    states, scales = [phi], [scale]
    for t0, t1 in zip(times, times[1:]):
        fences = [t0, *(s for s in switches if t0 < s < t1), t1]
        for s, e in zip(fences, fences[1:]):
            form = sig.segment_form(s, e)
            omega, steady = ctx.mpf(form.omega), gain * ctx.mpf(form.const) / a

            def particular(t):
                arg = omega * ctx.mpf(t) + ctx.mpf(form.phase)
                return gain * ctx.mpf(form.amp) * (a * ctx.sin(arg) - omega * ctx.cos(arg)) / (a * a + omega * omega)

            p0, p1 = particular(s), particular(e)
            phi = (phi - steady - p0) * ctx.exp(-a * (ctx.mpf(e) - ctx.mpf(s))) + steady + p1
            scale = max(scale, abs(float(p0)), abs(float(p1)))
        scale = max(scale, abs(float(phi)))
        states.append(phi)
        scales.append(scale)
    return states, scales


class TestClosedFormAccuracy:
    """The closed form is as accurate as its own state: a constant segment no longer cancels
    against its steady state gain*c/a (1e-3 here), which is far larger than the state near t = 0."""

    @pytest.mark.parametrize("spec", ["pwm:m=400", "sine", "step"])
    @pytest.mark.parametrize("n_intervals", [10, 20, 40, 80, 160, 320])
    def test_exact_trajectory_against_a_50_digit_chain(self, spec, n_intervals):
        # at every sync point within 16 ulp of the scale carried so far; the subtraction of the
        # steady state read up to 2e4 ulp (2.7e-18) on pwm:m=400
        model = parse_model(f"rl:R=0.01,L=0.001,input={spec}")
        times = [n * T / n_intervals for n in range(n_intervals + 1)]
        exact, scales = chain_50_digits(model, times)
        got = exact_trajectory(model, times).tolist()
        ulps = [float(abs(g - e)) / math.ulp(s) if s else float(g != e) for g, e, s in zip(got, exact, scales)]
        assert max(ulps) <= 16.0, (max(ulps), ulps.index(max(ulps)))
