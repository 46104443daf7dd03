"""Hooks shared by the layer micro-benchmarks.

pytest-benchmark writes each case's raw timing samples (``stats.data``) into
``--benchmark-json``; ``pytest_benchmark_update_json`` drops them before the
file is saved, so the file holds the summary statistics only and is ready to
check in.  ``--benchmark-save-data`` keeps them.
"""


def pytest_benchmark_update_json(config, benchmarks, output_json):
    if not config.getoption("benchmark_save_data"):
        for entry in output_json["benchmarks"]:
            entry["stats"].pop("data", None)
