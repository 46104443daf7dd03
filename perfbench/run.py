"""Benchmark of the parareal package: end-to-end metrics, or per-layer metrics
from a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``workloads.py``), each one closed-loop caller:

* ``study-presets``: all 10 series of the CLI presets ``fig3-left`` ... ``fig5``
  through ``run_study``, serial, 69 study points per operation, after one
  warm-up pass.
* ``costly-fine``: ``parareal.cli.main(["run", "--fine",
  "cn:substeps=500,aligned=1", "--coarse", "be", "--N", "20", "--threads",
  <nproc>, ...])`` in process.
* ``cli-run``: fresh ``python -c "from parareal.cli import entry; entry()" run
  --variant reduced --reduced-input sine --N 320 --k 2`` processes at the
  default ``--threads``.

Each run times the workload's set-up in ``SETUP_REPEATS`` fresh
interpreters, five of them first and four after the operations.  It builds its
inputs from ``--seed``, makes one untimed warm-up operation, then repeats
operations for ``--seconds``.  Before each operation
and after each of its timed pieces (each series on study-presets, the whole
operation on the other two), untimed, it runs ``workloads.calibration_burst``,
a fixed piece of package-independent work whose time tracks the shared host's
drifting speed.  After each operation, untimed, it runs the serial fine solve
of the same work (the speedup base) and checks the outputs; an exception, a
non-zero exit or a failed check counts as a failed operation.

End-to-end metrics (``--trace 0``), the same names on every workload:

* ``setup_s``: median set-up time (import, models, signals with their switch
  tables, configs) over the fresh interpreters.
* ``op_p50_cal``: median time of one operation, which is ``sweep_s`` on
  study-presets, ``solve_s`` on costly-fine and ``cli_p50_s`` on cli-run, in
  units of ``cal``: each operation's wall time over the mean calibration burst
  around it.  On a shared host raw wall seconds drift run to run by more than
  the bound; the ratio drifts much less.  The median wall time and burst are
  printed next to it.
* ``op_tail_cal``: the highest percentile of the same ratios with at least ten
  samples beyond it (``cli_tail_s`` on cli-run); with fewer than 20 samples,
  with at least a quarter of them beyond it.  The percentile, the sample count
  and the wall time are printed next to it.
* ``speedup``: the serial fine-solve time of an operation's work over the
  operation's time, each in ``cal`` units of the bursts around it, median over
  operations.  Each serial solve runs right after its operation.
* ``ok_ratio``: 1 - fail_ratio, failed over attempted operations.
* ``peak_rss_mb``: peak resident memory of the process doing the work.

``--trace 1`` spends the first half of ``--seconds`` untraced and the second
half with ``tracer.install`` active, and prints the per-layer metrics of
``PER_LAYER``: counts and span seconds per operation (summed over threads, so
pooled spans count their waiting too), ratios and mean costs from the parts
summed over the traced operations, and ``trace.overhead_s``, the median traced
operation minus the median untraced one.  It fails
its self-check (``correct`` false) when a layer that the workload exercises
records nothing, or when the fine and coarse call counts differ from N*k and
N + 2*N*k.  The spans are written to ``perfbench/_runs/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / "_runs"
SETUP_REPEATS = 9

END_TO_END = {
    "setup_s": "s",
    "op_p50_cal": "cal",
    "op_tail_cal": "cal",
    "speedup": "ratio",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "signals.table_build.calls": "count",
    "signals.table_build.s": "s",
    "signals.switching_times.calls": "count",
    "signals.switching_times.s": "s",
    "signals.value.calls": "count",
    "signals.value.s": "s",
    "models.exact_linear_propagate.calls": "count",
    "models.exact_linear_propagate.s": "s",
    "models.segments": "count",
    "propagators.theta.calls": "count",
    "propagators.theta.substeps": "count",
    "propagators.theta.s": "s",
    "propagators.exact.calls": "count",
    "propagators.exact.s": "s",
    "algorithm.iterate.s": "s",
    "algorithm.iterate.self_s": "s",
    "algorithm.initial_guess.s": "s",
    "algorithm.fine_sweep.s": "s",
    "algorithm.coarse_sweep.s": "s",
    "algorithm.reference.s": "s",
    "algorithm.iterations": "count",
    "algorithm.fine_calls": "count",
    "algorithm.coarse_calls": "count",
    "algorithm.jump_norm.calls": "count",
    "algorithm.fine_sweep.busy_ratio": "ratio",
    "algorithm.cost_fine_s": "s",
    "algorithm.cost_coarse_s": "s",
    "algorithm.speedup_model": "ratio",
    "algorithm.speedup_measured": "ratio",
    "analysis.run_study.s": "s",
    "analysis.fit_order.s": "s",
    "analysis.points": "count",
    "analysis.points_failed": "count",
    "cli.import.s": "s",
    "cli.main.s": "s",
    "cli.pool_workers": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# per-layer metrics that must be above 0 on each workload (the tracer's
# self-check, which catches a wrapper bound to the wrong name): exact
# propagation runs only where the fine propagator is exact, the CLI layer only
# where the CLI is driven, and a cold switch-table build only in a fresh process
_COMMON = ("signals.switching_times.calls", "signals.value.calls", "propagators.theta.calls",
           "propagators.theta.substeps", "algorithm.iterate.s", "algorithm.initial_guess.s",
           "algorithm.reference.s", "algorithm.iterations", "algorithm.fine_calls",
           "algorithm.coarse_calls", "algorithm.jump_norm.calls", "cli.import.s")
_EXACT = ("models.exact_linear_propagate.calls", "models.segments", "propagators.exact.calls")
_CLI = ("cli.main.s", "cli.pool_workers", "cli.output_bytes")
EXERCISED = {
    "study-presets": _COMMON + _EXACT + ("analysis.run_study.s", "analysis.fit_order.s", "analysis.points"),
    "costly-fine": _COMMON + _CLI,
    "cli-run": _COMMON + _EXACT + _CLI + ("signals.table_build.calls",),
}

# ratio metrics: (numerator key, denominator key) summed over operations
RATIOS = {
    "algorithm.fine_sweep.busy_ratio": ("busy_num", "busy_den"),
    "algorithm.cost_fine_s": ("cost_fine_num", "cost_fine_den"),
    "algorithm.cost_coarse_s": ("cost_coarse_num", "cost_coarse_den"),
    "algorithm.speedup_model": ("model_num", "model_den"),
}


@dataclass
class Sample:
    op_s: float
    cal_s: float  # mean calibration burst around this operation
    serial_s: float
    serial_cal_s: float  # mean calibration burst around the serial fine solve
    attempted: int
    failed: int
    output_bytes: int
    spans: object = None
    base_spans: object = None


def measure(wl, seconds: float, trace=None) -> list[Sample]:
    """Operations back to back for ``seconds``, at least one."""
    from workloads import calibration_burst

    bursts: list[float] = []

    def calibrate():
        bursts.extend(calibration_burst() for _ in range(wl.cal_reps))

    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        wl.before_op()
        spans = base = op_s = None
        bursts.clear()
        calibrate()
        t_start = time.perf_counter()
        try:
            if trace:
                trace.start()
            result, op_s = wl.op(calibrate, traced=trace is not None)
            cal_s = statistics.fmean(bursts)
            if trace:
                own = trace.stop()
                child = wl.child_spans(result)
                spans = own if child is None else child
                trace.start()
            n_op = len(bursts)
            t0 = time.perf_counter()
            finals = wl.serial()
            serial_s = time.perf_counter() - t0
            calibrate()
            serial_cal_s = statistics.fmean(bursts[n_op - wl.cal_reps:])
            if trace:
                base = trace.stop()
            attempted, failed, problems = wl.check(result)
            serial_ok = wl.check_serial(finals)
        except Exception:  # noqa: BLE001 - a failed operation is data
            traceback.print_exc()
            if trace and trace.recording is not None:
                trace.stop()
            elapsed = time.perf_counter() - t_start if op_s is None else op_s
            samples.append(Sample(elapsed, statistics.fmean(bursts), math.nan, math.nan, len(wl.units) + 1,
                                  len(wl.units) + 1, 0))
            continue
        for problem in problems + ([] if serial_ok else ["serial fine solve is off the exact trajectory"]):
            print(f"check failed: {problem}", file=sys.stderr)
        samples.append(Sample(op_s, cal_s, serial_s, serial_cal_s, attempted + 1, failed + int(not serial_ok),
                              wl.output_bytes(result), spans, base))
    return samples


def setup_probe(workload: str, seed: int, env: dict[str, str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(RUN_DIR)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest percentile with at least ten samples beyond it;
    with fewer than 20 samples, which leave no such percentile at or above 50, at least
    a quarter of them beyond it (the maximum of fewer than 4), since the maximum of a
    few samples on a shared host mostly measures the host."""
    xs = sorted(values)
    n = len(xs)
    beyond = 10 if n >= 20 else n // 4
    p = math.floor(100 * (n - beyond) / n)
    return xs[max(math.ceil(p * n / 100) - 1, 0)], p


def speedup_cal(s: Sample) -> float:
    """Serial fine solve over the operation, each timed in units of the
    calibration bursts around it."""
    return (s.serial_s / s.serial_cal_s) / (s.op_s / s.cal_s)


def median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def end_to_end(wl, setups: list[dict], samples: list[Sample]) -> tuple[dict, list[str]]:
    ops = [s.op_s for s in samples]
    ops_cal = [s.op_s / s.cal_s for s in samples]
    serial = median(s.serial_s for s in samples)
    speedup = median(speedup_cal(s) for s in samples)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    tail_cal, pct = tail(ops_cal)
    values = {
        "setup_s": median(s["setup_s"] for s in setups),
        "op_p50_cal": median(ops_cal),
        "op_tail_cal": tail_cal,
        "speedup": speedup,
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": wl.peak_rss_kb() / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; import parareal.cli "
                   f"{median(s['import_s'] for s in setups):.4f} s",
        "op_p50_cal": f"{wl.what}; median of {len(ops)} operations; wall {median(ops):.4f} s, "
                      f"burst {median(s.cal_s for s in samples) * 1e3:.3f} ms",
        "op_tail_cal": f"p{pct} of {len(ops)} operations" + (" (the maximum)" if pct == 100 else "")
                       + f"; wall p{pct} {tail(ops)[0]:.4f} s",
        "speedup": f"median over operations of serial fine solve / operation, each in cal "
                   f"(serial median {serial:.4f} s)",
        "ok_ratio": f"fail_ratio {failed}/{attempted}",
        "peak_rss_mb": "cli-run: the largest child process" if wl.name == "cli-run" else "this process",
    }
    return values, [f"{k:<12} {v:.6g} {END_TO_END[k]:<6} {notes[k]}" for k, v in values.items()]


def per_layer(wl, setups, untraced: list[Sample], traced: list[Sample]) -> tuple[dict, list[str], bool]:
    import tracer

    traced = [s for s in traced if s.base_spans is not None]
    if not traced:
        return {}, ["self-check failed: no traced operation completed"], False
    layers = [tracer.analyse(s.spans, s.base_spans, wl.units) for s in traced]
    n_ops = len(layers)

    def total(key):
        return sum(layer[key] for layer in layers)

    values = {}
    for name in PER_LAYER:
        if name in RATIOS:
            num, den = (total(k) for k in RATIOS[name])
            values[name] = num / den if den else 0.0
        elif name in layers[0]:
            values[name] = total(name) / n_ops
    values["algorithm.speedup_measured"] = median(speedup_cal(s) for s in untraced)
    values["cli.import.s"] = median(s["import_s"] for s in setups)
    values["cli.pool_workers"] = max(layer["cli.pool_workers"] for layer in layers)
    values["cli.output_bytes"] = sum(s.output_bytes for s in traced) / n_ops
    values["trace.overhead_s"] = median(s.op_s for s in traced) - median(s.op_s for s in untraced)

    problems = [f"{name} is 0 on {wl.name}" for name in EXERCISED[wl.name] if not values[name] > 0]
    if total("algorithm.fine_calls") != total("expected_fine_calls"):
        problems.append("fine calls differ from N*k")
    if total("algorithm.coarse_calls") != total("expected_coarse_calls"):
        problems.append("coarse calls differ from N + 2*N*k")
    if not all(layer["base_ok"] for layer in layers):
        problems.append("serial fine solve spans do not match the iterate calls")
    lines = [f"{k:<36} {v:.6g} {PER_LAYER[k]}" for k, v in values.items()]
    lines.append(f"{'traced operations':<36} {n_ops} (untraced: {len(untraced)})")
    lines += [f"self-check failed: {p}" for p in problems]
    tracer.save(RUN_DIR / f"trace-{wl.name}.npz", [s.spans for s in traced])
    return values, lines, not problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "parareal" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'parareal'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import parareal
    import workloads

    if Path(parareal.__file__).resolve().parent != (SRC / "parareal").resolve():
        print(f"error: imported parareal from {parareal.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)

    env = workloads.child_env()
    setups = [setup_probe(args.workload, args.seed, env) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    if any(Path(s["package"]).resolve().parent != (SRC / "parareal").resolve() for s in setups):
        print("error: the set-up probe imported another parareal", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, RUN_DIR)
    measure(wl, 0.0)  # warm-up, not counted

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        import tracer

        untraced = measure(wl, args.seconds / 2)
        trace = tracer.Tracer()
        tracer.install(trace)
        traced = measure(wl, args.seconds / 2, trace)
    else:
        samples = measure(wl, args.seconds)
    # the other half of the set-up probes, so that set-up time samples the
    # host at both ends of the run
    setups += [setup_probe(args.workload, args.seed, env) for _ in range(SETUP_REPEATS // 2)]
    if args.trace:
        values, lines, trace_ok = per_layer(wl, setups, untraced, traced)
        samples, metric_units = untraced + traced, PER_LAYER
    else:
        values, lines = end_to_end(wl, setups, samples)
        trace_ok, metric_units = True, END_TO_END
    print("\n".join(lines))
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    print(json.dumps({
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        # a metric left without data by failed operations reads 0, never NaN
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": metric_units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
