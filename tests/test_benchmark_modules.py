"""The layer micro-benchmarks in ``benchmarks/`` and the repo benchmark in
``perfbench/`` sit outside ``testpaths``, so a public name they import or
rebind could disappear unnoticed; this imports each micro-benchmark and
installs the perfbench tracer."""

import importlib.util
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
