"""Layer micro-benchmarks: the reference trajectory of one parareal run.

These sit outside the tier-1 ``testpaths``; run them from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_reference_layer.py --benchmark-json BENCH_reference.json

The costly-fine case is the reference of a ``cn:substeps=500,aligned=1`` fine
propagator at N=20; the exact-fine case, at N=320, is the control whose
reference was already the closed form.  Both warm the input's switch table
first.  The checked-in ``BENCH_reference.json`` merges alternating runs
against two source trees; each entry's name carries the tree and the pair,
e.g. ``[parent-1]``.
"""

import numpy as np
import pytest

from parareal import FixedIterations, LinearScalarModel, PararealConfig, PwmSingle, make_config, parse_propagator
from parareal.algorithm import reference_trajectory

T = 0.02
R_RES = 0.01
L_IND = 0.001


@pytest.fixture(scope="module")
def model():
    sig = PwmSingle(m=400, period=T)
    sig.switching_times(0.0, T)
    return LinearScalarModel(R_res=R_RES, L_ind=L_IND, signal=sig)


def test_reference_costly_fine_n20(benchmark, model):
    fine = parse_propagator("cn:substeps=500,aligned=1", model.ivp(), model)
    coarse = parse_propagator("be", model.ivp(), model)
    cfg = PararealConfig(n_intervals=20, fine=fine, coarse=coarse, termination=FixedIterations(1))
    ref = benchmark(reference_trajectory, cfg)
    assert ref.shape == (21, 1) and np.isfinite(ref).all()


def test_reference_exact_fine_n320(benchmark, model):
    cfg = make_config(model, 320, termination=FixedIterations(1))
    ref = benchmark(reference_trajectory, cfg)
    assert ref.shape == (321, 1) and np.isfinite(ref).all()
