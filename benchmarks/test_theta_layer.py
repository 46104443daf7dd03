"""Layer micro-benchmarks: one theta step, one costly fine call, one input lookup.

These sit outside the tier-1 ``testpaths``; run them from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_theta_layer.py --benchmark-json BENCH_theta.json

Every case warms the signal's switch table first, so the timings are of the
steady state that a parareal run spends its time in.  The checked-in
``BENCH_theta.json`` merges alternating runs against two source trees; each
entry's name carries the tree and the pair, e.g. ``[parent-1]``.
"""

import numpy as np
import pytest

from parareal import LinearScalarModel, PwmSingle, Side, SineWave, parse_propagator

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


def test_fine_cn_5000_aligned_interval(benchmark, pwm):
    # the refined reference of a costly-fine run: one sync interval of T/20
    model = LinearScalarModel(R_res=R_RES, L_ind=L_IND, signal=pwm)
    fine = parse_propagator("cn:substeps=5000,aligned=1", model.ivp(), model)
    out = benchmark(fine.propagate, 0.0, T / 20, U0)
    assert np.isfinite(out).all()


def test_pwm_right_limit_at_switch(benchmark, pwm):
    sw = float(pwm.switching_times(0.0, T)[100])
    value = benchmark(pwm.value, sw, Side.RIGHT_LIMIT)
    assert value in (-1.0, 0.0, 1.0)
