import contextlib
import functools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from parareal import (
    BoundParams,
    Constant,
    ExactLinearPropagator,
    FixedIterations,
    InsufficientPointsError,
    LinearScalarModel,
    SineWave,
    StepWave,
    StudySpec,
    ThetaPropagator,
    defect_scaling_study,
    eval_bound,
    fit_order,
    iterate,
    local_order_probe,
    make_config,
    parse_model,
    parse_signal,
    reference_trajectory,
    run_study,
)
from parareal import models
from parareal.analysis import DEFAULT_N_LIST, _bound_constants, _slopes, _sup_distance
from parareal.cli import PRESETS

T = 0.02


def test_dir_lists_the_lazily_loaded_names():
    # the analysis names are listed before their module is loaded
    import parareal

    names = dir(parareal)
    assert names == sorted(names) and parareal._ANALYSIS_NAMES <= set(names)
    assert set(parareal.__all__) <= set(names)


class TestFitOrder:
    def test_exact_power_law(self):
        pts = [(n, 3.7 * n**-4.0) for n in (5, 10, 20, 40, 80)]
        fit = fit_order(pts)
        assert fit.order == pytest.approx(4.0, abs=1e-9)

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


class TestEvalBound:
    def test_zero_perturbation_collapse_at_minimal_n(self):
        # n = k+1 makes the growth factor's power vanish; c_p = 0 leaves the classic bound
        p = BoundParams(c1=2.0, c2=5.0, c3=3.0, c_p=0.0, l=1, dt=1e-3, n=2, k=1)
        got = eval_bound(p, "reduced-lp")
        want = (3.0 / 2.0) * (2.0 * 1e-3**2) ** 2 / math.factorial(2) * (2 * 1)
        assert got == pytest.approx(want, rel=1e-14)

    def test_zero_perturbation_is_the_classic_bound(self):
        # Gander & Vandewalle's c3/c1 * (c1 dt^(l+1))^(k+1) * growth, to roundoff, at any p
        rng = np.random.default_rng(7)
        for _ in range(2000):
            k, l = int(rng.integers(0, 3)), int(rng.integers(1, 3))
            p = BoundParams(c1=rng.uniform(0.1, 3), c2=rng.uniform(0, 3), c3=rng.uniform(0, 3), c4=rng.uniform(0, 3),
                            c_p=0.0, l=l, p=float(rng.choice([1.5, 2.0, math.inf])), dt=10 ** rng.uniform(-4, -1),
                            n=int(rng.integers(k + 1, 60)), k=k)
            growth = (1.0 + p.c2 * p.dt) ** (p.n - k - 1) / math.factorial(k + 1) * math.prod(range(p.n - k, p.n + 1))
            classic = p.c3 / p.c1 * (p.c1 * p.dt ** (l + 1)) ** (k + 1) * growth
            assert eval_bound(p, "reduced-lp") == pytest.approx(classic, rel=1e-13), p

    def test_zero_perturbation_reduces_to_second_term(self):
        p = BoundParams(c1=1.5, c2=0.3, c3=2.0, c4=9.0, c_p=0.0, l=1, dt=1e-3, n=6, k=2)
        got = eval_bound(p, "reduced-lp")
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

    def test_reduced_lp_degenerate_p_one(self):
        # q = inf: the perturbation term keeps dt^((l+1)k) only
        with pytest.warns(UserWarning, match="p=1 gives q=inf"):
            got = eval_bound(BoundParams(c1=1.0, c3=0.0, c4=1.0, c_p=2.0, p=1.0, l=1, dt=1e-3, n=2, k=1), "reduced-lp")
        assert got == pytest.approx(2.0 * 1e-3**2, rel=1e-15)  # growth 1 at n = k+1

    def test_lemma_linf(self):
        got = eval_bound(BoundParams(c4=3.0, c_p=0.5, p=math.inf, dt=1e-4), "lemma")
        assert got == pytest.approx(3.0 * 0.5 * 1e-4, rel=1e-15)

    def test_domain_error_for_small_n(self):
        with pytest.raises(ValueError):
            eval_bound(BoundParams(n=1, k=1), "reduced-lp")

    def test_monotone_in_constants_and_n(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            base = dict(
                c1=rng.uniform(0.1, 2), c2=rng.uniform(0, 2), c3=rng.uniform(0.1, 2),
                c4=rng.uniform(0.1, 2), c_p=rng.uniform(0.1, 2),
                l=int(rng.integers(1, 3)), dt=10 ** rng.uniform(-4, -2),
                n=int(rng.integers(3, 30)), k=int(rng.integers(1, 3)),
            )
            v = eval_bound(BoundParams(**base), "reduced-lp")
            for key in ("c1", "c3", "c4", "c_p"):
                bumped = dict(base)
                bumped[key] = base[key] * 1.5
                assert eval_bound(BoundParams(**bumped), "reduced-lp") >= v
            bigger_n = dict(base)
            bigger_n["n"] = base["n"] + 1
            assert eval_bound(BoundParams(**bigger_n), "reduced-lp") >= v

    def test_reduced_lp_is_the_literal_right_hand_side(self):
        # exponent (l+1)k + 1/q with 1/q = 1/(p/(p-1)), and 1 at p = inf: the L^inf bound, bit for bit
        rng = np.random.default_rng(13)
        for _ in range(20000):
            k, l = int(rng.integers(0, 3)), int(rng.integers(0, 5))
            p = BoundParams(
                c1=rng.uniform(0, 3), c2=rng.uniform(0, 3), c3=rng.uniform(0, 3), c4=rng.uniform(0, 3),
                c_p=rng.uniform(0, 3), l=l, p=float(rng.choice([1.5, 2.0, 7.0, math.inf])),
                dt=10 ** rng.uniform(-6, 0), n=int(rng.integers(k + 1, 60)), k=k,
            )
            inv_q = 1.0 if math.isinf(p.p) else 1.0 / (p.p / (p.p - 1.0))
            first = p.c4 * p.c_p * p.dt ** ((l + 1) * k + inv_q)
            second = p.c3 * p.dt ** ((l + 1) * (k + 1))
            want = p.c1**k * (first + second) * ((1.0 + p.c2 * p.dt) ** (p.n - k - 1) / math.factorial(k + 1)
                                                 * math.prod(range(p.n - k, p.n + 1)))
            assert eval_bound(p, "reduced-lp").hex() == want.hex(), p

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            BoundParams(c1=-1.0)

    @pytest.mark.parametrize("check, message", [
        (lambda model: StudySpec(model=model, variant="reduced"), "^reduced variant needs a reduced_input signal$"),
        (lambda model: BoundParams(p=0.5), "^p must be >= 1$"),
        (lambda model: BoundParams(dt=0.0), "^dt must be positive$"),
        (lambda model: BoundParams(dt=-1e-3), "^dt must be positive$"),
        (lambda model: eval_bound(BoundParams(c1=0.0), "smooth"), "^unknown bound 'smooth'$"),
        (lambda model: eval_bound(BoundParams(), "reduced-linf"), "^unknown bound 'reduced-linf'$"),
        (lambda model: eval_bound(BoundParams(), "rough"), "^unknown bound 'rough'$"),
    ], ids=["reduced-without-input", "p-below-one", "zero-dt", "negative-dt", "smooth-is-gone", "linf-alias-is-gone",
            "unknown-bound"])
    def test_input_checks(self, pwm10_model, check, message):
        with pytest.raises(ValueError, match=message) as info:
            check(pwm10_model)
        assert type(info.value) is ValueError


class TestDefectStudy:
    def test_identical_inputs_hit_floor(self, pwm400_model):
        study = defect_scaling_study(pwm400_model, pwm400_model.signal)
        assert study.floor_hit
        assert math.isnan(study.slope)

    def test_constant_versus_zero_closed_form(self):
        model = LinearScalarModel(R_res=0.01, L_ind=0.001, signal=Constant(1.0, T))
        ladder = [T / 2**j for j in range(6, 13)]
        study = defect_scaling_study(model, Constant(0.0, T), dt_ladder=ladder)
        a = model.decay_rate
        for dt, d in zip(study.dts, study.errors):
            assert d == pytest.approx(0.001 * (1 - math.exp(-a * dt)), rel=1e-12)
        assert study.slope == pytest.approx(1.0, abs=0.05)

    def test_step_surrogate_is_linear_in_dt(self, pwm400_model, step_signal):
        study = defect_scaling_study(pwm400_model, step_signal)
        assert study.slope == pytest.approx(1.0, abs=0.1)

    def test_slopes_come_from_fit_order(self, pwm400_model, sine_model, step_signal):
        study = defect_scaling_study(pwm400_model, step_signal)
        assert study.slope == -fit_order(list(zip(study.dts, study.errors)), floor=1e-16, min_points=2).order
        probe = local_order_probe(
            ThetaPropagator(sine_model.ivp(), theta=0.5), ExactLinearPropagator(sine_model),
            t_start=0.003, u_start=np.array([0.02]), dt_max=T / 32,
        )
        assert probe.slope == -fit_order(list(zip(probe.dts, probe.errors)), floor=1e-15, min_points=2).order

    def test_one_element_state(self, pwm400_model, sine_signal):
        # the state goes through ``scalar_state``, as in every ``propagate``
        want = defect_scaling_study(pwm400_model, sine_signal, t_start=0.003, u_start=0.02)
        got = defect_scaling_study(pwm400_model, sine_signal, t_start=0.003, u_start=np.array([0.02]))
        assert [type(e) for e in got.errors] == [float] * len(want.errors)
        assert got.errors == want.errors
        with pytest.raises(ValueError, match="expected a scalar state"):
            defect_scaling_study(pwm400_model, sine_signal, u_start=np.array([0.02, 0.03]))


def _pairwise_slopes(study):
    pts = list(zip(study.dts, study.errors))
    return [math.log(b / a) / math.log(db / da) for (da, a), (db, b) in zip(pts, pts[1:])]


class TestSineSurrogateDefect:
    """Criterion 5's window, dT = T/64 ... T/4096 on ``pwm:m=400``, spans two regimes."""

    def test_inside_the_first_tooth_from_zero_the_defect_is_quadratic(self, pwm400_model, sine_signal):
        # the PWM is 0 until its first switch after T/400, so for dT <= T/512 the
        # defect is the integral of the sine alone, which grows as dT**2
        assert pwm400_model.signal.switching_times(0.0, T / 512).size == 0
        slopes = _pairwise_slopes(defect_scaling_study(pwm400_model, sine_signal))
        assert slopes[-3:] == pytest.approx([2.0] * 3, abs=0.01)

    def test_inside_a_tooth_where_the_inputs_differ_the_defect_is_linear(self, pwm400_model, sine_signal):
        t0 = 0.3 * T
        assert pwm400_model.signal.switching_times(t0, t0 + T / 512).size == 0
        assert abs(pwm400_model.signal.value(t0) - sine_signal.value(t0)) > 0.01
        slopes = _pairwise_slopes(defect_scaling_study(pwm400_model, sine_signal, t_start=t0))
        assert slopes[-3:] == pytest.approx([1.0] * 3, abs=0.05)

    @pytest.mark.parametrize("start", [1 / 8, 0.3, 0.37])
    def test_no_power_law_across_teeth(self, pwm400_model, sine_signal, start):
        study = defect_scaling_study(pwm400_model, sine_signal, t_start=start * T)
        assert abs(study.slope) < 0.2


class TestRunStudy:
    def test_exact_coarse_reports_floor(self, pwm10_model):
        spec = StudySpec(model=pwm10_model, variant="original", coarse_scheme="exact",
                         k=1, n_list=(5, 10, 20))
        study = run_study(spec)
        assert study.floor_hit
        assert math.isnan(study.fitted_order)
        for p in study.results:
            assert p.err_max <= 1e-12

    def test_pairwise_orders_read_nan_next_to_a_zero_error(self, pwm10_model):
        # an exact coarse propagator leaves no error at all; in a study with
        # errors, a zero one has no order with either neighbour
        exact = run_study(StudySpec(model=pwm10_model, coarse_scheme="exact", k=1, n_list=(5, 10, 20)))
        assert [p.err_max for p in exact.results] == [0.0] * 3
        assert all(math.isnan(x) for x in exact.pairwise_orders()) and len(exact.pairwise_orders()) == 2
        study = run_study(StudySpec(model=pwm10_model, k=1, n_list=(5, 10, 20, 40)))
        study.results[1] = replace(study.results[1], err_max=0.0)
        orders = study.pairwise_orders()
        assert math.isnan(orders[0]) and math.isnan(orders[1]) and math.isfinite(orders[2])

    def test_dt_recomputed_per_point(self, pwm10_model, sine_signal):
        spec = StudySpec(model=pwm10_model, variant="reduced", reduced_input=sine_signal,
                         k=1, n_list=(5, 10, 20))
        study = run_study(spec)
        for p in study.results:
            assert p.dt == T / p.n

    def test_even_n_restriction_for_cn_step(self, pwm10_model, step_signal):
        for scheme in ("cn", "cn:substeps=3"):
            spec = StudySpec(model=pwm10_model, variant="reduced", coarse_scheme=scheme,
                             reduced_input=step_signal, k=1)
            assert spec.n_list == (10, 20, 40, 80, 160, 320), scheme

    def test_coarse_scheme_is_a_propagator_spec(self, pwm10_model, sine_signal):
        spec = StudySpec(model=pwm10_model, variant="reduced", coarse_scheme="be:substeps=4",
                         reduced_input=sine_signal, k=1, n_list=(5, 10))
        assert spec.config(5).coarse.substeps == 4
        assert all(p.failure is None for p in run_study(spec).results)
        for bad in ("rk4", "be:substep=4", "cn:aligned=on", "exact:substeps=2"):
            with pytest.raises(ValueError):
                StudySpec(model=pwm10_model, coarse_scheme=bad)

    def test_original_variant_takes_no_reduced_input(self, pwm10_model, sine_signal, step_signal):
        # the classic algorithm's coarse input is the model's, so a reduced
        # input given with it would be dropped without a word
        for reduced in (sine_signal, step_signal):
            with pytest.raises(ValueError, match="^original variant takes no reduced_input signal"):
                StudySpec(model=pwm10_model, variant="original", coarse_scheme="cn", reduced_input=reduced)

    def test_unknown_variant(self, pwm10_model):
        with pytest.raises(ValueError, match="unknown variant"):
            StudySpec(model=pwm10_model, variant="classic")

    @pytest.mark.parametrize("kwargs, message", [
        (dict(k=0), r"need k >= 1 and every N >= 1, got k=0,"),
        (dict(k=-2), r"need k >= 1 and every N >= 1, got k=-2,"),
        (dict(n_list=(0, 5, 10)), r"got k=1, n_list=\(0, 5, 10\)"),
        (dict(n_list=(-5, 5)), r"got k=1, n_list=\(-5, 5\)"),
        (dict(error_metric="bogus"), "unknown error metric 'bogus'"),
    ])
    def test_bad_settings_are_rejected(self, pwm10_model, kwargs, message):
        with pytest.raises(ValueError, match=message):
            StudySpec(model=pwm10_model, **kwargs)

    def test_unbounded_horizon_is_rejected(self):
        # an infinite horizon is an infinite period, which no signal takes
        with pytest.raises(ValueError, match="period must be positive and finite, got inf"):
            models.parse_model("rl:T=inf,input=const")

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

        def flaky(cfg):
            if cfg.n_intervals == 10:
                raise RuntimeError("synthetic blow-up")
            return real_iterate(cfg)

        monkeypatch.setattr(analysis, "iterate", flaky)
        spec = StudySpec(model=pwm10_model, variant="reduced", reduced_input=sine_signal,
                         k=1, n_list=(5, 10, 20, 40))
        study = run_study(spec)
        failed = [p for p in study.results if p.failure is not None]
        assert len(failed) == 1 and failed[0].n == 10
        assert failed[0].failure == "RuntimeError: synthetic blow-up"
        assert failed[0].failure_type is RuntimeError
        assert all(p.failure_type is None for p in study.results if p.failure is None)
        assert not math.isnan(study.fitted_order)  # remaining points still fitted

    def test_points_run_in_order_in_the_calling_thread(self, pwm10_model, monkeypatch):
        import parareal.analysis as analysis

        real_iterate = analysis.iterate
        calls = []

        def record(cfg):
            calls.append((cfg.n_intervals, threading.get_ident()))
            return real_iterate(cfg)

        monkeypatch.setattr(analysis, "iterate", record)
        spec = StudySpec(model=pwm10_model, k=1, n_list=(5, 10, 20, 40))
        assert [p.n for p in run_study(spec).results] == [5, 10, 20, 40]
        assert calls == [(n, threading.get_ident()) for n in (5, 10, 20, 40)]


def _run_bits(run):
    return [np.asarray(a).tobytes() for a in run.iterates + run.fine_arrivals + run.jumps + run.errors_vs_reference]


class TestStudyOracle:
    """Each point of a study has the bits of the same run made outside any study."""

    def test_preset_points_equal_runs_outside_a_study(self, pwm400_model, monkeypatch):
        # the first point builds the input's table of switch-to-switch segments;
        # every later one slices a table built on another grid.  The run made
        # alone is also checked against the same run made with no plans at all,
        # every call cold
        import parareal.algorithm as algorithm
        import parareal.analysis as analysis

        models._step_table.cache_clear()
        real_iterate = analysis.iterate
        runs = {}

        def cold_iterate(cfg):
            with monkeypatch.context() as m:
                m.setattr(algorithm, "planned", lambda props, times: contextlib.nullcontext())
                return real_iterate(cfg)

        def capture(cfg):
            runs[cfg.n_intervals] = run = real_iterate(cfg)
            return run

        monkeypatch.setattr(analysis, "iterate", capture)
        for e in [e for series in PRESETS.values() for e in series]:
            reduced = parse_signal(e["reduced"], T) if e.get("reduced") else None
            spec = StudySpec(model=pwm400_model, variant=e["variant"], coarse_scheme=e["scheme"],
                             reduced_input=reduced, k=e["k"])
            runs.clear()
            study = run_study(spec)
            assert [p.n for p in study.results] == list(spec.n_list)
            for point in study.results:
                alone = real_iterate(spec.config(point.n))
                assert point.failure is None and _run_bits(runs[point.n]) == _run_bits(alone), (e["label"], point.n)
                assert _run_bits(alone) == _run_bits(cold_iterate(spec.config(point.n))), (e["label"], point.n)
                got = [point.err_max, point.err_final, point.err_first_active]
                want = [alone.error(spec.k, metric) for metric in ("max", "final", "first_active")]
                assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_overlapping_studies_on_threads(self, pwm400_model):
        # studies that start and end while others run keep their bits
        specs = [StudySpec(model=pwm400_model, variant="reduced", reduced_input=parse_signal(red, T), k=2,
                           n_list=(5, 10, 20, 40)) for red in ("sine", "step")] * 4

        def bits(study):
            return np.array([[p.err_max, p.err_final, p.err_first_active] for p in study.results]).tobytes()

        want = [bits(run_study(spec)) for spec in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = [bits(study) for study in pool.map(run_study, specs, timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert got == want


# the distinct series of the bundled presets (fig3-right repeats fig3-left's "BE k=1")
PRESET_SERIES = sorted({(e["variant"], e["scheme"], e["k"], e.get("reduced"))
                        for entries in PRESETS.values() for e in entries}, key=str)


@functools.cache
def series_spec(series: tuple) -> StudySpec:
    """The study of one preset series on the default model and N list."""
    from parareal.cli import HARD_DEFAULTS

    variant, scheme, k, reduced = series
    model = parse_model(HARD_DEFAULTS["model"])
    return StudySpec(model=model, variant=variant, coarse_scheme=scheme, k=k,
                     reduced_input=parse_signal(reduced, period=model.t_end) if reduced else None)


@functools.cache
def bounded_run(series: tuple, n: int):
    """``(params, errors, u, cfg)`` of one preset series at N = ``n``: the constants
    read off its run (``_bound_constants``), the signed errors of each iterate at
    the sync points, the run's reference and its config."""
    spec = series_spec(series)
    cfg = spec.config(n)
    u = reference_trajectory(cfg)[:, 0]
    errors = [it[:, 0] - u for it in iterate(cfg).iterates]
    return _bound_constants(spec.model, cfg), errors, u, cfg


class TestBoundOnRuns:
    """The paper's bound, with the constants read off each run, against the run's measured error."""

    @pytest.mark.parametrize("series", PRESET_SERIES, ids=str)
    def test_the_error_is_under_the_bound_above_the_floor(self, series):
        # the floor of double precision on this problem's scale: 1e-12 max|u| = 6.06e-17; the slack of
        # 1e-12 covers n = k+1, where the bound is attained exactly when c3's maximum lies on interval 1
        k = series[2]
        checked = 0
        for n_intervals in series_spec(series).n_list:
            params, errors, u, _ = bounded_run(series, n_intervals)
            floor = 1e-12 * np.max(np.abs(u))
            for n in range(k + 1, n_intervals + 1):
                err = abs(errors[k][n])
                if err > floor:
                    checked += 1
                    bound = eval_bound(replace(params, n=n), "reduced-lp")
                    assert err <= bound * (1 + 1e-12), (n_intervals, n, err, bound)
        assert checked >= 10

    @pytest.mark.parametrize("scheme, ratio", [("be", 0.986), ("cn", 0.978)])
    def test_the_bound_is_tight_on_the_step_surrogate(self, scheme, ratio):
        # the ratios of the same run made in 50-digit arithmetic: 0.98628 (BE) and 0.97759 (CN, at n = 4,
        # an error of 7.5e-17, where a closed form that cancelled against its steady state read 0.9738)
        params, errors, u, _ = bounded_run(("reduced", scheme, 1, "step"), 320)
        floor = 1e-12 * np.max(np.abs(u))
        ratios = [abs(errors[1][n]) / eval_bound(replace(params, n=n), "reduced-lp")
                  for n in range(2, 321) if abs(errors[1][n]) > floor]
        assert max(ratios) == pytest.approx(ratio, abs=1e-3)

    @pytest.mark.parametrize("series", [s for s in PRESET_SERIES if s[0] == "reduced"], ids=str)
    def test_the_one_interval_defect_is_under_the_lemma_bound(self, series):
        # the defect on interval n is the full problem's exact solve from 0 minus the reduced problem's
        # (linearity); the lemma bounds it by c4 c_p dt with c4 = R and c_p = sup |w - w_red| (p = inf)
        spec = series_spec(series)
        full = ExactLinearPropagator(spec.model)
        reduced = ExactLinearPropagator(spec.model.with_signal(spec.reduced_input))
        scaled = []
        for n_intervals in spec.n_list:
            params, _, _, cfg = bounded_run(series, n_intervals)
            assert (params.c4, params.p) == (spec.model.R_res, math.inf)
            bound = eval_bound(params, "lemma")
            times = cfg._times
            defects = [abs(full.propagate(t0, t1, 0.0) - reduced.propagate(t0, t1, 0.0))
                       for t0, t1 in zip(times, times[1:])]
            assert max(defects) <= bound, (n_intervals, max(defects), bound)
            scaled.append((n_intervals, max(defects) / params.dt))
        if series[3] == "step":
            # tight: c4 c_p = 0.01, and the largest defect / dt rises toward it with N
            tail = [r for n, r in scaled if n >= 10]
            assert tail == sorted(tail) and 0.0069 <= tail[0] and tail[-1] <= 0.0099, scaled
            assert tail[-1] / 0.01 == pytest.approx(0.987, abs=1e-3)

    @pytest.mark.parametrize("series", PRESET_SERIES, ids=str)
    def test_first_active_error_is_the_product_of_slope_gaps(self, series):
        # e^k_{k+1} = prod_{j=2}^{k+1} (A^F_j - A^G_j) e^0_1 holds exactly for affine propagators.  In
        # double both sides carry the roundoff of the states: the reference's own error is at most 6.6e-20,
        # 6.6e-6 of the 1e-14 above which the check reads; the largest gap measured is 2.4e-7.
        k = series[2]
        checked = 0
        for n_intervals in series_spec(series).n_list:
            _, errors, _, cfg = bounded_run(series, n_intervals)
            gaps = [f - g for f, g in zip(_slopes(cfg.fine, cfg._times), _slopes(cfg.coarse, cfg._times))]
            want = math.prod(gaps[1 : k + 1]) * errors[0][1]
            if abs(errors[k][k + 1]) > 1e-14:
                checked += 1
                assert errors[k][k + 1] == pytest.approx(want, rel=1e-6), n_intervals
        assert checked >= 2

    @pytest.mark.parametrize("scheme, band", [("be", (9.7e-3, 1.0e-2)), ("cn", (4.7e-3, 6.2e-3))])
    def test_c3_grows_as_dt_to_the_minus_l_on_the_pwm_input(self, scheme, band):
        # over N = 20 ... 320 dt shrinks 16-fold, and c3 grows 16-fold (BE) and 256-fold (CN):
        # the coarse schemes' local defect on a PWM input is first order, not dt^(l+1)
        scaled = []
        for n_intervals in (20, 40, 80, 160, 320):
            params = bounded_run(("original", scheme, 1, None), n_intervals)[0]
            scaled.append(params.c3 * params.dt**params.l)
        assert band[0] <= min(scaled) and max(scaled) <= band[1], scaled

    def test_c3_is_flat_on_the_sine_surrogate(self):
        c3 = [bounded_run(("reduced", "be", 1, "sine"), n)[0].c3 for n in (20, 40, 80, 160, 320)]
        assert 1.54 <= min(c3) and max(c3) <= 1.58, c3

    def test_constants_of_the_default_run(self):
        params, _, _, _ = bounded_run(("original", "be", 1, None), 20)
        assert (params.l, params.c2, params.c4, params.c_p, params.p, params.n, params.k) == (
            1, 0.0, 0.01, 0.0, math.inf, 2, 1)
        assert params.c1 == pytest.approx(49.18, abs=0.01) and params.c3 == pytest.approx(9.776, abs=1e-3)
        assert params.dt == T / 20

    @pytest.mark.parametrize("reduced, sup", [
        ("step", 1.0), ("const:v=0.3", 1.3), ("sine", 0.9998766629107396), ("sine3:phase=2", 2.0)])
    def test_sup_distance_is_exact(self, pwm400_model, reduced, sup):
        # the ends and interior extrema of every piece; a 400001-point sample stays below it
        v = parse_signal(reduced, period=T)
        got = _sup_distance(pwm400_model.signal, v, T)
        ts = np.linspace(0.0, T, 400001)
        sampled = np.max(np.abs(pwm400_model.signal.values(ts) - v.values(ts)))
        assert got == pytest.approx(sup, rel=1e-12) and sampled <= got < sampled + 1e-6
        assert _sup_distance(SineWave(T), parse_signal("sine3:phase=2", period=T), T) == pytest.approx(
            math.sqrt(3), rel=1e-15)

    def test_an_exact_coarse_propagator_has_no_order(self, pwm10_model):
        cfg = make_config(pwm10_model, 4, coarse="exact", termination=FixedIterations(1))
        with pytest.raises(ValueError, match="^the bound needs a be or cn coarse propagator, of order l = 1 or 2; "
                                             "an exact one has none$"):
            _bound_constants(pwm10_model, cfg)


class TestSineBeatsClassic:
    """The paper's headline on this circuit, head to head: at equal N and k the
    sine-reduced coarse input leaves a smaller max error than the classic one."""

    @pytest.mark.parametrize("scheme, k", [("be", 1), ("be", 2), ("cn", 1)])
    def test_below_the_classic_error_at_every_default_n(self, scheme, k):
        # classic/sine ratios measured over N = 5 ... 320: BE k=1 5.4 ... 73,
        # BE k=2 7.2 ... 85, CN k=1 3.7 ... 1079; the smallest is CN k=1 at
        # N = 5.  CN k=2 is left out: from N = 160 on both reach roundoff
        classic = run_study(series_spec(("original", scheme, k, None)))
        sine = run_study(series_spec(("reduced", scheme, k, "sine")))
        assert [p.n for p in classic.results] == [p.n for p in sine.results] == list(DEFAULT_N_LIST)
        ratios = [c.err_max / s.err_max for c, s in zip(classic.results, sine.results)]
        assert min(ratios) > 3.5, ratios

    def test_the_step_surrogate_loses_at_large_n(self):
        # its mean is not the PWM's, so its initial guess keeps an error of
        # 3.37e-5 to 3.46e-5 at every N from 10 on, while the classic one falls
        # to 1.4e-5 and the sine one to 3.3e-7 at N = 320; at BE k=1 and
        # N = 320 the step error is 2.5 times the classic one
        step, classic, sine = ("reduced", "be", 1, "step"), ("original", "be", 1, None), ("reduced", "be", 1, "sine")

        def max_error(series, n, k):
            return np.max(np.abs(bounded_run(series, n)[1][k]))

        e0 = [max_error(step, n, 0) for n in DEFAULT_N_LIST[1:]]
        assert 3.3e-5 < min(e0) and max(e0) < 3.5e-5, e0
        assert max_error(sine, 320, 0) < max_error(classic, 320, 0) < max_error(step, 320, 0)
        assert max_error(step, 320, 1) > 2 * max_error(classic, 320, 1)
