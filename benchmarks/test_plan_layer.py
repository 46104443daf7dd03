"""Layer micro-benchmarks: exact propagation, a planned coarse call, the plans
of one run, one study point's config, the exact plans of one study's grids,
the fine sweep, the corrected coarse sweep, one ``iterate``, the
bookkeeping of a planned ``iterate``, one ``run_study``, one preset's pass and
one pass of every preset study, the layers that interval plans and the
per-process tables move.

These sit outside the tier-1 ``testpaths``; run them from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_plan_layer.py --benchmark-json BENCH_plan.json

``benchmarks/conftest.py`` drops each case's raw timing samples (``stats.data``)
from the JSON, so it is ready to check in.

The planned cases run inside ``propagators.planned``, as the calls of a run
do after its plans are built; the plans are built before the timed calls.  A
source tree without ``planned`` runs those cases cold, which is how its runs
make the same calls.  The "plan one run" cases time building and dropping
the plans of one propagator over a sync grid (N=5 or N=320), outside a
study, after one untimed warm-up build; the "study point config" case builds
the ``PararealConfig`` of one reduced study point; the "theta plans" cases
time the one-pass set-up of a backward-Euler propagator's plans alone
(``propagators._theta_plans``), on the PWM input and on its sine reduction; the "one study's grids" case sets up the
exact plans of a study's seven grids as its runs do, and a source tree that keeps a
study's end segments in a memo gets a fresh memo for each timed call, as
``run_study`` makes one.  ``iterate`` and ``run_study`` build their plans
inside the timed call.  Every case warms the input's switch table first.  The
checked-in ``BENCH_plan.json`` and ``BENCH_study.json`` merge alternating runs
against two source trees; each entry's name carries the tree and the pair,
e.g. ``[parent-1]``.
"""

import contextlib

import numpy as np
import pytest

from parareal import (
    FixedIterations,
    LinearScalarModel,
    PwmSingle,
    SineWave,
    StudySpec,
    ThetaPropagator,
    iterate,
    make_config,
    parse_signal,
    run_study,
)
from parareal import algorithm, models, propagators
from parareal.cli import PRESETS

T = 0.02
R_RES = 0.01
L_IND = 0.001
N_EXACT = 20
N_RUN = 80
N_PLAN = 320


def planned(props, times):
    plan = getattr(propagators, "planned", None)
    return contextlib.nullcontext() if plan is None else plan(props, times)


def sync_times(n):
    return [i * T / n for i in range(n + 1)]


@pytest.fixture(scope="module")
def model():
    sig = PwmSingle(m=400, period=T)
    sig.switching_times(0.0, T)
    return LinearScalarModel(R_res=R_RES, L_ind=L_IND, signal=sig)


def test_exact_interval_cold(benchmark, model):
    # one fine call across T/20: 40 PWM segments set up and applied
    fine = make_config(model, N_EXACT).fine
    times = sync_times(N_EXACT)
    out = benchmark(fine.propagate, times[3], times[4], 0.25)
    assert np.isfinite(out).all()


def test_exact_interval_planned(benchmark, model):
    fine = make_config(model, N_EXACT).fine
    times = sync_times(N_EXACT)
    with planned([fine], times):
        out = benchmark(fine.propagate, times[3], times[4], 0.25)
    assert np.isfinite(out).all()


def test_coarse_interval_planned(benchmark, model):
    # one backward-Euler call across T/320 on a float state, as a run makes it
    coarse = make_config(model, N_PLAN).coarse
    times = sync_times(N_PLAN)
    with planned([coarse], times):
        out = benchmark(coarse.propagate, times[3], times[4], 0.25)
    assert np.isfinite(out)


def plan_once(prop, times):
    with planned([prop], times):
        pass


@pytest.mark.parametrize("role", ["fine", "coarse"])
def test_plan_one_run_n320(benchmark, model, role):
    # the plans iterate builds for an exact fine or a backward-Euler coarse
    # propagator on the PWM input over N=320 intervals, built and dropped
    prop = getattr(make_config(model, N_PLAN), role)
    times = sync_times(N_PLAN)
    plan_once(prop, times)
    benchmark(plan_once, prop, times)
    with planned([prop], times):
        assert len(getattr(prop, "model", prop)._plans) == N_PLAN


@pytest.mark.parametrize("role", ["fine", "coarse"])
def test_plan_one_run_n5(benchmark, model, role):
    # the fixed cost per run at a study's smallest N: five intervals of about
    # 160 switches each for the exact fine, five one-substep intervals for the
    # backward-Euler coarse propagator
    prop = getattr(make_config(model, 5), role)
    times = sync_times(5)
    plan_once(prop, times)
    benchmark(plan_once, prop, times)
    with planned([prop], times):
        assert len(getattr(prop, "model", prop)._plans) == 5


def test_study_point_config(benchmark, model):
    # the config of one study point at N=320 on the sine-reduced series:
    # propagators, problem check and sync grid
    spec = StudySpec(model=model, variant="reduced", coarse_scheme="be", reduced_input=SineWave(T), k=1)
    cfg = benchmark(spec.config, N_PLAN)
    assert cfg.n_intervals == N_PLAN and cfg.coarse.ivp.signal == SineWave(T)


@pytest.mark.parametrize("spec", ["pwm:m=400", "sine"])
def test_theta_plans_be_n320(benchmark, spec):
    # the one-pass set-up of a backward-Euler coarse propagator's plans over
    # N=320 intervals, one substep each: the coarse set-up of the largest
    # study-presets points and of cli-run, on the full and the reduced input
    sig = parse_signal(spec, T)
    sig.switching_times(0.0, T)
    coarse = LinearScalarModel(R_res=R_RES, L_ind=L_IND, signal=sig).ivp()
    prop = ThetaPropagator(coarse, theta=1.0)
    times = sync_times(N_PLAN)
    propagators._theta_plans(prop, times)
    plans = benchmark(propagators._theta_plans, prop, times)
    # a plan is one step: one (h, p_s, theta*p_e, den) tuple per interval
    assert len(plans) == N_PLAN and all(type(plan) is tuple and len(plan) == 4 for plan in plans)


def test_grid_plans_one_study(benchmark, model):
    # the exact plans of the seven grids of one study, N = 5 ... 320
    args = (model.decay_rate, model.R_res, model.signal)
    grids = [sync_times(n) for n in (5, 10, 20, 40, 80, 160, 320)]
    memo = getattr(models, "_study_segments", None)

    def one_study():
        token = None if memo is None else memo.set({})
        try:
            return [models._grid_plans(*args, times) for times in grids]
        finally:
            if token is not None:
                memo.reset(token)

    one_study()
    plans = benchmark(one_study)
    assert [len(p) for p in plans] == [5, 10, 20, 40, 80, 160, 320]


def test_fine_sweep_n80(benchmark, model):
    # the N exact fine calls of one iteration, serial, on float states
    cfg = make_config(model, N_RUN)
    times = sync_times(N_RUN)
    state = [0.0] + [1e-5 * n for n in range(1, N_RUN + 1)]
    with planned([cfg.fine], times):
        arrivals = benchmark(algorithm._fine_sweep, cfg, 0, times, state)
    assert np.isfinite(arrivals).all()


def test_corrected_coarse_sweep_n80(benchmark, model):
    # the 2N backward-Euler calls of one correction, on float states
    coarse = make_config(model, N_RUN).coarse
    times = sync_times(N_RUN)
    state = [0.0] + [1e-5 * n for n in range(1, N_RUN + 1)]

    def sweep():
        new = [0.0]
        for n in range(1, N_RUN + 1):
            g_old = coarse.propagate(times[n - 1], times[n], state[n - 1])
            g_new = coarse.propagate(times[n - 1], times[n], new[n - 1])
            new.append(state[n] + g_new - g_old)
        return new

    with planned([coarse], times):
        new = benchmark(sweep)
    assert np.isfinite(new).all()


def test_planned_be_correction_sweep_n320(benchmark, model):
    # one correction of a run at N=320: the N jump norms of the fine arrivals
    # and the 2N planned backward-Euler calls, on float states
    cfg = make_config(model, N_PLAN)
    coarse, term = cfg.coarse, cfg.termination
    times = cfg.times.tolist()
    state = [0.0] + [1e-5 * n for n in range(1, N_PLAN + 1)]
    arrivals = [0.0] + [1.001e-5 * n for n in range(1, N_PLAN + 1)]

    def sweep():
        jumps = [algorithm.jump_norm(arrivals[n], state[n], term.atol, term.rtol) for n in range(1, N_PLAN + 1)]
        new = [0.0]
        for n in range(1, N_PLAN + 1):
            g_old = coarse.propagate(times[n - 1], times[n], state[n - 1])
            g_new = coarse.propagate(times[n - 1], times[n], new[n - 1])
            new.append(arrivals[n] + g_new - g_old)
        return jumps, new

    with planned([coarse], times):
        jumps, new = benchmark(sweep)
    assert np.isfinite(jumps).all() and np.isfinite(new).all()


def test_iterate_n80_k1_original(benchmark, model):
    # each interval's fine call is made once in the sweep and once in the reference
    cfg = make_config(model, N_RUN, termination=FixedIterations(1))
    run = benchmark(iterate, cfg)
    assert run.iterations_used == 1 and np.isfinite(run.iterates[1]).all()


def test_iterate_bookkeeping_n320_k2(benchmark, model):
    # a run whose every call is planned, the reduced-sine backward-Euler
    # point at a study's largest N: around the planned recurrences it times
    # the plan lookups, the correction loop, the jump norms and the run
    # history; its plans are built inside the timed call, its reference comes
    # from the per-process table
    cfg = make_config(model, N_PLAN, reduced_input=SineWave(T), termination=FixedIterations(2))
    iterate(cfg)
    run = benchmark(iterate, cfg)
    assert run.iterations_used == 2 and np.isfinite(run.errors_vs_reference[2]).all()


def test_run_study_fig4_right_sine_k2(benchmark, model):
    # the "sine k=2" series of the fig4-right preset: N = 5 ... 320
    spec = StudySpec(model=model, variant="reduced", coarse_scheme="be", reduced_input=SineWave(T), k=2)
    study = benchmark(run_study, spec)
    assert all(p.failure is None for p in study.results)


def test_preset_pass_fig3_left(benchmark, model):
    # the series of the fig3-left preset, N = 5 ... 320 each, after a warm-up pass
    specs = [StudySpec(model=model, variant=e["variant"], coarse_scheme=e["scheme"], k=e["k"],
                       fit_min_n=e.get("fit_min_n")) for e in PRESETS["fig3-left"]]

    def one_pass():
        return [run_study(spec) for spec in specs]

    one_pass()
    studies = benchmark(one_pass)
    assert all(p.failure is None for s in studies for p in s.results)


def test_study_presets_pass(benchmark, model):
    # every series of the five CLI presets, 69 points: N = 5 ... 320 per series
    specs = []
    for e in [e for series in PRESETS.values() for e in series]:
        reduced = parse_signal(e["reduced"], T) if e.get("reduced") else None
        specs.append(StudySpec(model=model, variant=e["variant"], coarse_scheme=e["scheme"],
                               reduced_input=reduced, k=e["k"], fit_min_n=e.get("fit_min_n")))
    studies = benchmark(lambda: [run_study(spec) for spec in specs])
    assert sum(len(s.results) for s in studies) == 69
    assert all(p.failure is None for s in studies for p in s.results)
