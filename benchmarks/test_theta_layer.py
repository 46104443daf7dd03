"""Layer micro-benchmarks: one theta step, one costly fine call (always cold:
a multi-step theta propagator is never planned), one input lookup, and one
costly-fine ``iterate``.

These sit outside the tier-1 ``testpaths``; run them from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_theta_layer.py --benchmark-json BENCH_theta.json

``benchmarks/conftest.py`` drops each case's raw timing samples (``stats.data``)
from the JSON, so it is ready to check in.

Every case warms the signal's switch table first, so the timings are of the
steady state that a parareal run spends its time in; the first-call case
times a costly fine call on a new input equal to a warm one, as each
``parareal run`` of the same input in one process makes.  The checked-in
``BENCH_theta.json`` merges alternating runs against two source trees; each
entry's name carries the tree and the pair, e.g. ``[parent-1]``, and its
``extra_info`` the tree, the pair and which tree ran first.  Its
``test_fine_cn_5000_aligned_interval`` entries are history, from an earlier
pair of trees: they timed a reference that is now always the closed form.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from parareal import LinearScalarModel, PwmSingle, Side, SineWave, iterate, make_config, parse_propagator

T = 0.02
R_RES = 0.01
L_IND = 0.001
U0 = np.array([0.0])


@pytest.fixture(scope="module")
def pwm():
    sig = PwmSingle(m=400, period=T)
    sig.switching_times(0.0, T)
    return sig


def test_coarse_be_one_step_sine(benchmark):
    # the reduced coarse propagator of a run: one BE step across a sync interval
    model = LinearScalarModel(R_res=R_RES, L_ind=L_IND, signal=SineWave(T))
    coarse = parse_propagator("be", model.ivp(), model)
    t0, t1 = 3 * T / 20, 4 * T / 20
    out = benchmark(coarse.propagate, t0, t1, U0)
    assert np.isfinite(out).all()


def test_fine_cn_500_aligned_interval(benchmark, pwm):
    # one fine call of a costly-fine run: a cold sweep over one sync interval of T/20
    model = LinearScalarModel(R_res=R_RES, L_ind=L_IND, signal=pwm)
    fine = parse_propagator("cn:substeps=500,aligned=1", model.ivp(), model)
    out = benchmark(fine.propagate, 0.0, T / 20, U0)
    assert np.isfinite(out).all()


def test_fine_cn_500_aligned_first_call(benchmark, pwm):
    # the same call on a new input instance: its switch table, with the
    # segment constants, comes from the shared cache, not from the instance
    def first_call():
        model = LinearScalarModel(R_res=R_RES, L_ind=L_IND, signal=PwmSingle(m=400, period=T))
        return parse_propagator("cn:substeps=500,aligned=1", model.ivp(), model).propagate(0.0, T / 20, U0)

    out = benchmark(first_call)
    assert np.isfinite(out).all()


@pytest.fixture(scope="module")
def costly_fine(pwm):
    # the costly-fine workload's run: N = 20, cold CN fine calls, planned BE coarse
    model = LinearScalarModel(R_res=R_RES, L_ind=L_IND, signal=pwm)
    return make_config(model, 20, fine="cn:substeps=500,aligned=1", coarse="be")


def test_costly_fine_iterate_serial(benchmark, costly_fine):
    run = benchmark(iterate, costly_fine)
    assert run.converged


def test_costly_fine_iterate_default_pool(benchmark, costly_fine):
    # the pool ``parareal run`` opens at the default ``--threads 0``
    with ThreadPoolExecutor() as pool:
        run = benchmark(iterate, costly_fine, pool)
    assert run.converged


def test_pwm_right_limit_at_switch(benchmark, pwm):
    sw = float(pwm.switching_times(0.0, T)[100])
    value = benchmark(pwm.value, sw, Side.RIGHT_LIMIT)
    assert value in (-1.0, 0.0, 1.0)
