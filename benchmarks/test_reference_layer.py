"""Layer micro-benchmarks: the reference trajectory of one parareal run.

These sit outside the tier-1 ``testpaths``; run them from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_reference_layer.py --benchmark-json BENCH_reference.json

The costly-fine case is the reference of a ``cn:substeps=500,aligned=1`` fine
propagator at N=20, and the exact-fine case that of an exact one at N=320,
each called outside a run, as a study or a repeated run calls it after its
first.  The miss case, at N=320, empties the per-process table of references
(``algorithm._reference``) before each round, so that each round computes
the closed form; the hit case finds the entry its warm-up call left.  A source
tree without the table computes the closed form in every case.  All cases
warm the input's switch table first.  The checked-in ``BENCH_reference.json``
merges alternating runs against two source trees; each entry's name carries
the tree and the pair, e.g. ``[parent-1]``.
"""

import numpy as np
import pytest

from parareal import FixedIterations, LinearScalarModel, PararealConfig, PwmSingle, make_config, parse_propagator
from parareal import algorithm
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


def clear_references():
    table = getattr(algorithm, "_reference", None)
    if table is not None:
        table.cache_clear()


def test_reference_miss_n320(benchmark, model):
    cfg = make_config(model, 320, termination=FixedIterations(1))
    ref = benchmark.pedantic(reference_trajectory, args=(cfg,), setup=clear_references, rounds=200, warmup_rounds=1)
    assert ref.shape == (321, 1) and np.isfinite(ref).all()


def test_reference_hit_n320(benchmark, model):
    cfg = make_config(model, 320, termination=FixedIterations(1))
    reference_trajectory(cfg)
    ref = benchmark(reference_trajectory, cfg)
    assert ref.shape == (321, 1) and np.isfinite(ref).all()
