"""Layer micro-benchmarks of a ``parareal run`` process: a cold switch-table
build, one ``iterate`` on a default thread pool, and a whole fresh process.

These sit outside the tier-1 ``testpaths``; run them from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_cli_layer.py --benchmark-json BENCH_cli.json

The three cases are the costs of the cli-run workload of ``perfbench``:

* ``test_pwm400_table_build``: the switch table of ``pwm:m=400`` built from
  nothing (``_build_table``, which no cache sits in front of);
* ``test_iterate_n320_k2_default_pool``: the run of ``parareal run --variant
  reduced --reduced-input sine --N 320 --k 2``, on a ``ThreadPoolExecutor()``
  opened and shut inside the timed call as the CLI does, with a warm table;
* ``test_cli_run_process``: that command as one fresh interpreter (import,
  argparse, table build, run and CSV), on the source tree this module
  imports ``parareal`` from.

The checked-in ``BENCH_cli.json`` merges alternating runs against two source
trees; each entry's name carries the tree and the pair, e.g. ``[parent-1]``.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import parareal
from parareal import FixedIterations, LinearScalarModel, PwmSingle, SineWave, iterate, make_config

T = 0.02
R_RES = 0.01
L_IND = 0.001
RUN_ARGS = ["run", "--variant", "reduced", "--reduced-input", "sine", "--N", "320", "--k", "2"]


def test_pwm400_table_build(benchmark):
    sig = PwmSingle(m=400, period=T)
    table = benchmark(sig._build_table)
    assert table.size == 792


@pytest.fixture(scope="module")
def run_config():
    sig = PwmSingle(m=400, period=T)
    sig.switching_times(0.0, T)
    model = LinearScalarModel(R_res=R_RES, L_ind=L_IND, signal=sig)
    return make_config(model, 320, reduced_input=SineWave(T), termination=FixedIterations(2))


def test_iterate_n320_k2_default_pool(benchmark, run_config):
    def pooled_run():
        with ThreadPoolExecutor() as pool:
            return iterate(run_config, pool)

    run = benchmark(pooled_run)
    assert run.iterations_used == 2 and np.isfinite(run.iterates[-1]).all()


def test_cli_run_process(benchmark, tmp_path):
    src = Path(parareal.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = tmp_path / "run.csv"
    cmd = [sys.executable, "-c", "from parareal.cli import entry; entry()", *RUN_ARGS, "--out", str(out)]
    proc = benchmark.pedantic(subprocess.run, args=(cmd,), kwargs=dict(env=env, capture_output=True, timeout=120),
                              rounds=15, warmup_rounds=1)
    assert proc.returncode == 0, proc.stderr
    assert out.is_file()
