"""The layer micro-benchmarks in ``benchmarks/`` sit outside ``testpaths``, so a
public name they import could disappear unnoticed; this imports each of them."""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = sorted((Path(__file__).resolve().parent.parent / "benchmarks").glob("*.py"))


def test_benchmarks_are_found():
    assert BENCHMARKS


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_module_imports(path):
    spec = importlib.util.spec_from_file_location(f"_benchmark_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
