"""The layer micro-benchmarks in ``benchmarks/`` and the repo benchmark in
``perfbench/`` sit outside ``testpaths``, so a public name they import or
rebind could disappear unnoticed; this imports each micro-benchmark and
installs the perfbench tracer."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


def test_benchmarks_are_found():
    assert BENCHMARKS


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_module_imports(path):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


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
