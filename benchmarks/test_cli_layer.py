"""Layer micro-benchmarks of the CLI: a cold switch-table build, one ``iterate``
on a default thread pool, a fresh import of the CLI and a whole fresh ``parareal
run`` process, and the five study presets through ``main`` in process.

These sit outside the tier-1 ``testpaths``; run them from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/test_cli_layer.py --benchmark-json BENCH_cli.json

``benchmarks/conftest.py`` drops each case's raw timing samples (``stats.data``)
from the JSON, so it is ready to check in.

The first four cases are the costs of the cli-run workload of ``perfbench``:

* ``test_pwm400_table_build``: the switch table of ``pwm:m=400`` built from
  nothing (``_build_table``, which no cache sits in front of);
* ``test_iterate_n320_k2_default_pool``: the run of ``parareal run --variant
  reduced --reduced-input sine --N 320 --k 2``, on a ``ThreadPoolExecutor()``
  opened and shut inside the timed call as the CLI does, with a warm table;
* ``test_cli_import_process``: a fresh interpreter that only runs ``import
  parareal.cli`` (start-up, numpy and the modules a ``run`` loads);
* ``test_cli_run_process``: that command as one fresh interpreter (import,
  argparse, table build, run, CSV and exit).

``test_study_run_presets_in_process`` runs ``parareal study run --preset P
--out FILE`` for each of the five presets through ``cli.main``, at the
default settings, 15 rounds after a warm-up (so with warm switch tables): the
study layer of the CLI, which no ``perfbench`` workload runs.

Both process cases run on the source tree this module imports ``parareal``
from.

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
from parareal.cli import PRESETS, main

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


def _process(benchmark, code, *args):
    """One fresh interpreter running ``code`` on ``args``, 15 rounds after a warm-up."""
    env = {**os.environ, "PYTHONPATH": str(Path(parareal.__file__).resolve().parents[1])}
    cmd = [sys.executable, "-c", code, *args]
    return benchmark.pedantic(subprocess.run, args=(cmd,), kwargs=dict(env=env, capture_output=True, timeout=120),
                              rounds=15, warmup_rounds=1)


def test_cli_import_process(benchmark):
    proc = _process(benchmark, "import parareal.cli")
    assert proc.returncode == 0, proc.stderr


def test_cli_run_process(benchmark, tmp_path):
    out = tmp_path / "run.csv"
    proc = _process(benchmark, "from parareal.cli import entry; entry()", *RUN_ARGS, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.is_file()


def test_study_run_presets_in_process(benchmark, tmp_path):
    def presets():
        return [main(["study", "run", "--preset", name, "--out", str(tmp_path / f"{name}.csv")]) for name in PRESETS]

    assert benchmark.pedantic(presets, rounds=15, warmup_rounds=1) == [0] * len(PRESETS)
