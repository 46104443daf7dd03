import math

import numpy as np
import pytest

from parareal import (
    BoundParams,
    Constant,
    ExactLinearPropagator,
    InsufficientPointsError,
    LinearScalarModel,
    SineWave,
    StepWave,
    StudySpec,
    ThetaPropagator,
    Zero,
    best_fit_constant,
    defect_ode_solution,
    defect_scaling_study,
    eval_bound,
    exact_linear_propagate,
    fit_order,
    local_order_probe,
    run_study,
)

T = 0.02


class TestFitOrder:
    def test_exact_power_law(self):
        pts = [(n, 3.7 * n**-4.0) for n in (5, 10, 20, 40, 80)]
        fit = fit_order(pts)
        assert fit.order == pytest.approx(4.0, abs=1e-9)
        assert fit.residual < 1e-12

    def test_floor_points_are_excluded(self):
        pts = [(5, 1e-3), (10, 1e-5), (20, 1e-7), (40, 1e-14), (80, 1e-15)]
        fit = fit_order(pts, floor=1e-13)
        assert fit.window == [0, 1, 2]

    def test_perturbed_power_law(self):
        rng = np.random.default_rng(0)
        pts = [(n, 2.0 * n**-3.0 * (1.0 + rng.uniform(-0.05, 0.05))) for n in (5, 10, 20, 40, 80, 160, 320)]
        fit = fit_order(pts)
        assert fit.order == pytest.approx(3.0, abs=0.15)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPointsError):
            fit_order([(5, 1e-3), (10, 1e-14), (20, 1e-15)], floor=1e-13)

    def test_best_fit_constant(self):
        pts = [(n, 0.42 * n**-2.0) for n in (10, 20, 40)]
        assert best_fit_constant(pts, 2.0) == pytest.approx(0.42, rel=1e-12)


class TestEvalBound:
    def test_smooth_collapse_at_minimal_n(self):
        # n = k+1 makes the growth factor's power vanish
        p = BoundParams(c1=2.0, c2=5.0, c3=3.0, l=1, dt=1e-3, n=2, k=1)
        got = eval_bound(p, "smooth")
        want = (3.0 / 2.0) * (2.0 * 1e-3**2) ** 2 / math.factorial(2) * (2 * 1)
        assert got == pytest.approx(want, rel=1e-15)

    def test_reduced_linf_with_zero_perturbation_reduces_to_second_term(self):
        p = BoundParams(c1=1.5, c2=0.3, c3=2.0, c4=9.0, c_p=0.0, l=1, dt=1e-3, n=6, k=2)
        got = eval_bound(p, "reduced-linf")
        growth = (1 + 0.3 * 1e-3) ** (6 - 3) / math.factorial(3) * (6 * 5 * 4)
        want = 1.5**2 * 2.0 * (1e-3) ** 6 * growth
        assert got == pytest.approx(want, rel=1e-14)

    def test_reduced_lp_first_term_exponent(self):
        # l=1, k=1, p=inf: the perturbation term scales like dt^3
        base = dict(c1=1.0, c2=0.0, c3=0.0, c4=1.0, c_p=1.0, l=1, p=math.inf, n=2, k=1)
        v1 = eval_bound(BoundParams(dt=1e-3, **base), "reduced-lp")
        v2 = eval_bound(BoundParams(dt=2e-3, **base), "reduced-lp")
        assert v2 / v1 == pytest.approx(8.0, rel=1e-12)

    def test_lemma_degenerate_p_one(self):
        with pytest.warns(UserWarning):
            got = eval_bound(BoundParams(c4=1.0, c_p=2.0, p=1.0, dt=1e-3), "lemma")
        assert got == 2.0

    def test_lemma_linf(self):
        got = eval_bound(BoundParams(c4=3.0, c_p=0.5, p=math.inf, dt=1e-4), "lemma")
        assert got == pytest.approx(3.0 * 0.5 * 1e-4, rel=1e-15)

    def test_domain_error_for_small_n(self):
        with pytest.raises(ValueError):
            eval_bound(BoundParams(n=1, k=1), "smooth")

    def test_monotone_in_constants_and_n(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            base = dict(
                c1=rng.uniform(0.1, 2), c2=rng.uniform(0, 2), c3=rng.uniform(0.1, 2),
                c4=rng.uniform(0.1, 2), c_p=rng.uniform(0.1, 2),
                l=int(rng.integers(1, 3)), dt=10 ** rng.uniform(-4, -2),
                n=int(rng.integers(3, 30)), k=int(rng.integers(1, 3)),
            )
            v = eval_bound(BoundParams(**base), "reduced-linf")
            for key in ("c1", "c3", "c4", "c_p"):
                bumped = dict(base)
                bumped[key] = base[key] * 1.5
                assert eval_bound(BoundParams(**bumped), "reduced-linf") >= v
            bigger_n = dict(base)
            bigger_n["n"] = base["n"] + 1
            assert eval_bound(BoundParams(**bigger_n), "reduced-linf") >= v

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            BoundParams(c1=-1.0)


class TestDefectStudy:
    def test_identical_inputs_hit_floor(self, pwm400_model):
        study = defect_scaling_study(pwm400_model, pwm400_model.signal)
        assert study.floor_hit
        assert math.isnan(study.slope)

    def test_constant_versus_zero_closed_form(self):
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Constant(1.0))
        ladder = [T / 2**j for j in range(6, 13)]
        study = defect_scaling_study(model, Zero(), dt_ladder=ladder)
        a = model.decay_rate
        for dt, d in zip(study.dts, study.defects):
            assert d == pytest.approx(0.001 * (1 - math.exp(-a * dt)), rel=1e-12)
        assert study.slope == pytest.approx(1.0, abs=0.05)

    def test_step_surrogate_is_linear_in_dt(self, pwm400_model, step_signal):
        study = defect_scaling_study(pwm400_model, step_signal)
        assert study.slope == pytest.approx(1.0, abs=0.1)

    def test_slopes_come_from_fit_order(self, pwm400_model, sine_model, step_signal):
        study = defect_scaling_study(pwm400_model, step_signal)
        assert study.slope == -fit_order(list(zip(study.dts, study.defects)), floor=1e-16, min_points=2).order
        probe = local_order_probe(
            ThetaPropagator(sine_model.ivp(), theta=0.5), ExactLinearPropagator(sine_model),
            t_start=0.003, u_start=np.array([0.02]), dt_max=T / 32,
        )
        assert probe.slope == -fit_order(list(zip(probe.dts, probe.errors)), floor=1e-15, min_points=2).order

    def test_defect_matches_averaged_jacobian_ode(self, pwm400_model, sine_signal):
        # the defect equation driven by the input difference reproduces the
        # directly measured defect on random intervals
        rng = np.random.default_rng(12)
        for _ in range(6):
            t0 = float(rng.uniform(0.0, 0.015))
            dt = float(rng.uniform(1e-4, 4e-3))
            u = float(rng.uniform(-0.5, 0.5))
            full = exact_linear_propagate(pwm400_model, t0, t0 + dt, u)
            red = exact_linear_propagate(pwm400_model.with_signal(sine_signal), t0, t0 + dt, u)
            via_ode = defect_ode_solution(pwm400_model, sine_signal, t0, t0 + dt)
            assert full - red == pytest.approx(via_ode, abs=1e-11)


class TestRunStudy:
    def test_exact_coarse_reports_floor(self, pwm10_model):
        spec = StudySpec(model=pwm10_model, variant="original", coarse_scheme="exact",
                         k=1, n_list=(5, 10, 20))
        study = run_study(spec)
        assert study.floor_hit
        assert math.isnan(study.fitted_order)
        for p in study.results:
            assert p.err_max <= 1e-12

    def test_dt_recomputed_per_point(self, pwm10_model, sine_signal):
        spec = StudySpec(model=pwm10_model, variant="reduced", reduced_input=sine_signal,
                         k=1, n_list=(5, 10, 20))
        study = run_study(spec)
        for p in study.results:
            assert p.dt == T / p.n

    def test_even_n_restriction_for_cn_step(self, pwm10_model, step_signal):
        spec = StudySpec(model=pwm10_model, variant="reduced", coarse_scheme="cn",
                         reduced_input=step_signal, k=1)
        assert all(n % 2 == 0 for n in spec.n_list)

    def test_unknown_variant(self, pwm10_model):
        with pytest.raises(ValueError, match="unknown variant"):
            StudySpec(model=pwm10_model, variant="classic")

    def test_n_list_must_increase(self, pwm10_model):
        with pytest.raises(ValueError):
            StudySpec(model=pwm10_model, n_list=(10, 5))

    def test_metric_columns_are_all_recorded(self, pwm10_model, sine_signal):
        spec = StudySpec(model=pwm10_model, variant="reduced", reduced_input=sine_signal,
                         k=1, n_list=(5, 10, 20))
        study = run_study(spec)
        for p in study.results:
            assert p.err_max > 0.0 and p.err_final > 0.0 and p.err_first_active > 0.0
            assert p.err_max >= p.err_final and p.err_max >= p.err_first_active
        assert len(study.pairwise_orders()) == 2

    def test_fit_min_n_window(self, pwm400_model):
        spec = StudySpec(model=pwm400_model, variant="original", k=1,
                         n_list=(5, 10, 20, 40, 80), fit_min_n=20)
        study = run_study(spec)
        assert study.fit_window and all(n >= 20 for n in study.fit_window)

    def test_per_point_failures_are_recorded(self, pwm10_model, sine_signal, monkeypatch):
        import parareal.analysis as analysis

        real_iterate = analysis.iterate

        def flaky(cfg, executor=None):
            if cfg.n_intervals == 10:
                raise RuntimeError("synthetic blow-up")
            return real_iterate(cfg, executor)

        monkeypatch.setattr(analysis, "iterate", flaky)
        spec = StudySpec(model=pwm10_model, variant="reduced", reduced_input=sine_signal,
                         k=1, n_list=(5, 10, 20, 40))
        study = run_study(spec)
        failed = [p for p in study.results if p.failure is not None]
        assert len(failed) == 1 and failed[0].n == 10
        assert failed[0].failure == "RuntimeError: synthetic blow-up"
        assert not math.isnan(study.fitted_order)  # remaining points still fitted
