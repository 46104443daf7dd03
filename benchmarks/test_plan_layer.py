"""Layer micro-benchmarks: exact propagation, the corrected coarse sweep, one
``iterate`` and one ``run_study``, the layers that per-run interval plans move.

These sit outside the tier-1 ``testpaths``; run them from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_plan_layer.py --benchmark-json BENCH_plan.json

The planned cases run inside ``propagators.planned``, as the calls of a run
do after its plans are built; the plans are built before the timed calls.  A
source tree without ``planned`` runs those cases cold, which is how its runs
make the same calls.  ``iterate`` and ``run_study`` build their plans inside
the timed call.  Every case warms the input's switch table first.  The
checked-in ``BENCH_plan.json`` merges alternating runs against two source
trees; each entry's name carries the tree and the pair, e.g. ``[parent-1]``.
"""

import contextlib

import numpy as np
import pytest

from parareal import FixedIterations, LinearScalarModel, PwmSingle, SineWave, StudySpec, iterate, make_config, run_study
from parareal import propagators

T = 0.02
R_RES = 0.01
L_IND = 0.001
N_EXACT = 20
N_RUN = 80


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


def test_corrected_coarse_sweep_n80(benchmark, model):
    # the 2N backward-Euler calls of one correction, on float states
    coarse = make_config(model, N_RUN).coarse
    times = sync_times(N_RUN)
    state = [0.0] + [1e-5 * n for n in range(1, N_RUN + 1)]

    def sweep():
        new = [0.0]
        for n in range(1, N_RUN + 1):
            g_old = coarse.propagate(times[n - 1], times[n], state[n - 1])[0]
            g_new = coarse.propagate(times[n - 1], times[n], new[n - 1])[0]
            new.append(float(state[n] + g_new - g_old))
        return new

    with planned([coarse], times):
        new = benchmark(sweep)
    assert np.isfinite(new).all()


def test_iterate_n80_k1_original(benchmark, model):
    # each interval's fine call is made once in the sweep and once in the reference
    cfg = make_config(model, N_RUN, termination=FixedIterations(1))
    run = benchmark(iterate, cfg)
    assert run.iterations_used == 1 and np.isfinite(run.iterates[1]).all()


def test_run_study_fig4_right_sine_k2(benchmark, model):
    # the "sine k=2" series of the fig4-right preset: N = 5 ... 320
    spec = StudySpec(model=model, variant="reduced", coarse_scheme="be", reduced_input=SineWave(T), k=2)
    study = benchmark(run_study, spec)
    assert all(p.failure is None for p in study.results)
