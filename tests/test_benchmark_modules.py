"""The layer micro-benchmarks in ``benchmarks/`` and the repo benchmark in
``perfbench/`` sit outside ``testpaths``, so a public name they import or
rebind could disappear, or a case could break, unnoticed; this imports each
micro-benchmark, runs each of its cases once, installs the perfbench tracer,
and runs the benchmark's traced self-check on each of its workloads."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = sorted((ROOT / "benchmarks").glob("test_*.py"))  # not conftest.py, which holds no cases


def test_benchmarks_are_found():
    assert BENCHMARKS


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_saved_results_hold_no_raw_samples(path):
    # ``--benchmark-json`` writes every timing sample under ``stats.data``;
    # a checked-in result keeps only the summary statistics
    entries = json.loads(path.read_text())["benchmarks"]
    assert entries and not [entry["name"] for entry in entries if "data" in entry["stats"]]


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_module_imports(path):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_cases_run_once(path):
    # with --benchmark-disable each case calls its timed function once, untimed
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, "-m", "pytest", str(path), "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_perfbench_tracer_installs():
    # in a fresh interpreter, so the rebinding does not leak into this session
    code = "import tracer; tracer.install(tracer.Tracer())"
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


TRACED_RUN = """
import json
import tracer
from parareal import algorithm
from parareal.algorithm import FixedIterations, make_config
from parareal.models import parse_model

t = tracer.Tracer()
tracer.install(t)
cfg = make_config(parse_model("rl:R=0.01,L=0.001,input=pwm:m=400"), 5, termination=FixedIterations(1))
t.start()
algorithm.iterate(cfg)
spans = t.stop()
inst = spans.cols["inst"]
print(json.dumps({
    "fine": int((spans.mask("propagators.exact") & (inst == id(cfg.fine))).sum()),
    "coarse": int((spans.mask("propagators.theta") & (inst == id(cfg.coarse))).sum()),
    "exact_linear_propagate": int(spans.mask("models.exact_linear_propagate").sum()),
    "jump_norm": int(spans.mask("algorithm.jump_norm").sum()),
    "segments": spans.counts.get("models.segments", 0),
    "substeps": spans.counts.get("propagators.theta.substeps", 0),
}))
"""


def test_perfbench_tracer_sees_every_layer_of_a_run():
    # the tracer tells fine from coarse by instance and counts the layers below
    # them, so a run must keep calling them: N*k fine and N + 2*N*k coarse calls
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["fine"] == 5 and counts["coarse"] == 15, counts
    assert counts["exact_linear_propagate"] >= 1 and counts["jump_norm"] >= 1 and counts["segments"] >= 1, counts
    # the backward-Euler coarse plans: one substep per interval, counted from the nodes of ``_grid``
    assert counts["substeps"] == 5, counts


TRACED_THETA_RUN = """
import json
import tracer
from parareal import algorithm
from parareal.algorithm import FixedIterations, make_config
from parareal.models import parse_model

t = tracer.Tracer()
tracer.install(t)
cfg = make_config(parse_model("rl:R=0.01,L=0.001,input=pwm:m=400"), 5, fine="cn:substeps=50,aligned=1",
                  termination=FixedIterations(1))
t.start()
algorithm.iterate(cfg)
spans = t.stop()
inst = spans.cols["inst"]
print(json.dumps({
    "fine": int((spans.mask("propagators.theta") & (inst == id(cfg.fine))).sum()),
    "value": int(spans.mask("signals.value").sum()),
    "substeps": spans.counts.get("propagators.theta.substeps", 0),
    "fine_substeps": sum(len(cfg.fine._substeps(ts)[0][0]) for ts in zip(cfg._times, cfg._times[1:])),
}))
"""


def test_perfbench_tracer_sees_a_theta_fine_run():
    # costly-fine's self-check needs one-sided lookups and substep counts from
    # a cold theta fine propagator, whatever path its interior nodes take
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", TRACED_THETA_RUN], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["fine"] == 5 and counts["value"] > 0, counts
    # the five cold fine calls: 50 substeps per interval, split at the input's
    # 792 switches in (0, T), 48 of which a node already holds to within the
    # merge tolerance; and the five one-substep intervals of the coarse plans
    assert counts["fine_substeps"] == 994 and counts["substeps"] == 994 + 5, counts


TRACED_STUDY = """
import json

import tracer
from parareal import analysis, cli, models
from parareal.analysis import StudySpec
from parareal.models import parse_model

t = tracer.Tracer()
tracer.install(t)
model = parse_model("rl:R=0.01,L=0.001,input=pwm:m=400")
models._step_table(model.decay_rate, model.R_res, model.signal)  # the per-process table, untraced
e = cli.PRESETS["fig3-left"][0]
spec = StudySpec(model=model, variant=e["variant"], coarse_scheme=e["scheme"], k=e["k"], fit_min_n=e["fit_min_n"])
counts = []
for _ in range(2):
    t.start()
    analysis.run_study(spec)
    counts.append(t.stop().counts.get("models.segments", 0))
print(json.dumps(counts))
"""


def test_each_study_sets_up_its_own_end_segments():
    # study-presets' self-check needs segment set-ups in every operation: each
    # run sets up the end segments of its own grid, whatever ran before it,
    # so a second identical study sets them up again (about 2 per interval of
    # each of the seven grids, N = 5 ... 320); the first study also sets up
    # each run's reference, which the second finds in the per-process table
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", TRACED_STUDY], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [2540, 1270]


SELF_CHECK = """
import sys
from pathlib import Path

import run

run.RUN_DIR = Path(sys.argv[1])  # its trace and CSV files, outside the checkout
run.SETUP_REPEATS = 1  # set-up is timed, not checked
sys.exit(run.main(["--workload", sys.argv[2], "--seed", "1", "--seconds", "0", "--trace", "1"]))
"""


@pytest.mark.parametrize("workload", ["cli-run", "costly-fine", "study-presets"])
def test_perfbench_self_check_passes(tmp_path, workload):
    # the benchmark's traced run of each workload, one operation long: it is
    # correct only if every operation passes its output check and every
    # counter of ``run.EXERCISED`` reads above 0
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", SELF_CHECK, str(tmp_path), workload], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    failures = [line for line in proc.stdout.splitlines() if line.startswith("self-check failed")]
    assert report["correct"] and report["failed"] == 0, failures + proc.stderr.splitlines()[-5:]
