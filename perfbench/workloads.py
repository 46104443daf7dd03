"""The benchmark's workloads: inputs drawn from a seed, one timed operation,
the serial fine solve it is compared with, and the output checks.

Every workload draws R and L within 10% of the paper's circuit (R=0.01,
L=0.001, decay rate times horizon about 0.2) and keeps the PWM input (m=400),
the N lists and the substep counts fixed, so the work per operation does not
depend on the seed.  One caller runs operations back to back (a closed loop).

All package calls go through module attributes (``analysis.run_study``,
``cli.main``) so that the tracer's wrappers, once installed, see them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import parareal.algorithm as algorithm
import parareal.analysis as analysis
import parareal.cli as cli
from parareal.models import exact_trajectory, parse_model
from parareal.propagators import parse_propagator
from parareal.signals import parse_signal

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)

# finite termination: iterate k is exact at sync points n <= k, up to roundoff
EXACT_RTOL = 1e-12
# costly-fine converges at k=1 about 2e-8 from the exact trajectory
COSTLY_ATOL = 1e-6


def circuit_spec(rng: random.Random) -> str:
    r_res = 0.01 * (1.0 + rng.uniform(-0.1, 0.1))
    l_ind = 0.001 * (1.0 + rng.uniform(-0.1, 0.1))
    return f"rl:R={r_res!r},L={l_ind!r},input=pwm:m=400"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def sync_times(t_end: float, n: int) -> np.ndarray:
    """The sync points ``T_n = n*T/N``, computed as ``PararealConfig.times`` does."""
    return np.array([i * t_end / n for i in range(n + 1)])


def finite_termination_ok(iterate_k: np.ndarray, exact: np.ndarray, k: int) -> bool:
    scale = float(np.max(np.abs(exact)))
    got = np.asarray(iterate_k, dtype=float).reshape(len(exact), -1)[: k + 1, 0]
    return bool(np.all(np.abs(got - exact[: k + 1]) <= EXACT_RTOL * scale))


def serial_fine_solve(fine, times: np.ndarray) -> float:
    """The fine propagator alone, one public ``propagate`` call per interval."""
    u = fine.ivp.u0
    for n in range(1, len(times)):
        u = fine.propagate(times[n - 1], times[n], u)
    return float(np.atleast_1d(u)[0])


def read_run_csv(path: Path) -> tuple[list[list[str]], str | None]:
    """Data rows and the ``# summary`` line of a ``parareal run`` CSV."""
    rows, summary = [], None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# summary "):
                summary = line[len("# summary "):]
            elif line and not line.startswith("#") and not line.startswith("k,"):
                rows.append(line.split(","))
    return rows, summary


def check_run_csv(path: Path, n: int, exact: np.ndarray, k_fixed: int | None) -> tuple[bool, str]:
    """Rows, summary and accuracy of one CLI ``run`` output."""
    if not path.is_file():
        return False, "no output file"
    rows, summary = read_run_csv(path)
    if summary is None:
        return False, "no summary line"
    fields = dict(kv.split("=", 1) for kv in summary.split(","))
    k = int(fields["iterations_used"])
    if len(rows) != (k + 1) * (n + 1):
        return False, f"{len(rows)} data rows, want {(k + 1) * (n + 1)}"
    last = np.array([float(r[3]) for r in rows if int(r[0]) == k])
    if k_fixed is not None:
        if k != k_fixed or not finite_termination_ok(last, exact, k):
            return False, f"iterate {k} is not exact at n <= {k}"
    elif fields["converged"] != "true" or not np.all(np.abs(last - exact) <= COSTLY_ATOL):
        return False, f"final iterate off the exact trajectory by {np.max(np.abs(last - exact)):.3g}"
    return True, ""


_CAL_MATRIX = np.array([[0.9, 0.1], [0.0, 0.95]])


def calibration_burst() -> float:
    """Wall seconds of a fixed piece of work that uses no package code: a float
    loop and 2x2 numpy steps, the kinds of work the package's propagators do.

    On a shared host the CPU's speed drifts by tens of per cent over minutes.
    The benchmark runs bursts between the timed pieces of each operation and
    reports operation times in units of the mean burst, which cancels most of
    the drift and none of a change to the package.
    """
    t0 = time.perf_counter()
    x = 0.0
    for i in range(40_000):
        x += (i * 0.5) % 7.0
    a = np.ones(2)
    for i in range(1_500):
        a = _CAL_MATRIX @ a + 0.001
        x += float(a[0]) * 0.5 + i % 3
    return time.perf_counter() - t0


def timed(fn, *args):
    """(result, wall seconds) of one call."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


class Workload:
    """One workload: ``op`` is timed; ``serial`` is the speedup base."""

    name: str
    what: str  # what one operation is, for the report
    units: list[int]  # N of each ``iterate`` call of one operation, in call order
    # calibration bursts in each ``calibrate()`` call, sized so that an
    # operation's bursts add up to a few per cent of its time
    cal_reps = 1

    def before_op(self) -> None:
        """Untimed preparation of the next operation."""

    def op(self, calibrate, traced: bool = False) -> tuple[object, float]:
        """Run one operation; returns (result, seconds timed).  ``calibrate``
        runs, untimed, after each timed piece of the operation."""
        raise NotImplementedError

    def check(self, result) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) for one operation."""
        raise NotImplementedError

    def serial(self) -> list[float]:
        """Run the serial fine solve of the operation's work; returns final states."""
        raise NotImplementedError

    def check_serial(self, finals: list[float]) -> bool:
        raise NotImplementedError

    def output_bytes(self, result) -> int:
        return 0

    def child_spans(self, result):
        return None

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class StudyPresets(Workload):
    name = "study-presets"
    what = "one pass of all preset study points (sweep_s)"

    def __init__(self, seed: int, run_dir: Path):
        rng = random.Random(seed)
        model = parse_model(circuit_spec(rng))
        model.signal.switching_times(0.0, model.t_end)  # build the switch table
        entries = [e for series in cli.PRESETS.values() for e in series]
        rng.shuffle(entries)
        self.specs = []
        for e in entries:
            kwargs = dict(model=model, variant=e["variant"], coarse_scheme=e["scheme"], k=e["k"])
            if e.get("reduced"):
                kwargs["reduced_input"] = parse_signal(e["reduced"], period=model.t_end)
            if e.get("fit_min_n"):
                kwargs["fit_min_n"] = e["fit_min_n"]
            self.specs.append(analysis.StudySpec(**kwargs))
        self.points = [(spec, n) for spec in self.specs for n in spec.n_list]
        self.fines = [(spec.config(n).fine, sync_times(model.t_end, n)) for spec, n in self.points]
        self.units = [n for _, n in self.points]
        self.exact = {n: exact_trajectory(model, sync_times(model.t_end, n)) for n in set(self.units)}
        # keep each point's run for the finite-termination check
        self.runs: list = []

        def capture(cfg, executor=None):
            try:
                run = algorithm.iterate(cfg, executor)
            except Exception:
                self.runs.append(None)
                raise
            self.runs.append(run)
            return run

        analysis.iterate = capture

    def op(self, calibrate, traced=False):
        # one timed piece per series, each followed by a calibration burst, so
        # the bursts sample the machine's speed across the whole pass
        self.runs.clear()
        studies, op_s = [], 0.0
        for spec in self.specs:
            study, dt = timed(analysis.run_study, spec)
            studies.append(study)
            op_s += dt
            calibrate()
        return studies, op_s

    def check(self, studies):
        problems = []
        points = [p for study in studies for p in study.results]
        if len(points) != len(self.points) or len(self.runs) != len(self.points):
            return len(self.points), len(self.points), ["study returned the wrong number of points"]
        failed = 0
        for (spec, n), point, run in zip(self.points, points, self.runs):
            errs = (point.err_max, point.err_final, point.err_first_active)
            if point.failure is not None or run is None or not all(map(math.isfinite, errs)):
                problem = f"N={n} k={spec.k}: {point.failure or 'non-finite error'}"
            elif point.n != n or not finite_termination_ok(run.iterates[spec.k], self.exact[n], spec.k):
                problem = f"N={n} k={spec.k}: iterate {spec.k} is not exact at n <= {spec.k}"
            else:
                continue
            failed += 1
            problems.append(problem)
        return len(self.points), failed, problems

    def serial(self):
        return [serial_fine_solve(fine, times) for fine, times in self.fines]

    def check_serial(self, finals):
        return all(abs(u - self.exact[n][-1]) <= EXACT_RTOL * np.max(np.abs(self.exact[n]))
                   for u, n in zip(finals, self.units))


class _RunCommand(Workload):
    """A ``parareal run`` over N intervals, written to a CSV and checked against the exact trajectory."""

    N: int
    FINE: str

    def __init__(self, seed: int, run_dir: Path):
        self.spec = circuit_spec(random.Random(seed))
        model = parse_model(self.spec)
        model.signal.switching_times(0.0, model.t_end)
        self.out = run_dir / f"{self.name}.csv"
        self.fine = parse_propagator(self.FINE, model.ivp(), model)
        self.times = sync_times(model.t_end, self.N)
        self.exact = exact_trajectory(model, self.times)
        self.units = [self.N]

    def before_op(self):
        self.out.unlink(missing_ok=True)

    def serial(self):
        return [serial_fine_solve(self.fine, self.times)]

    def output_bytes(self, result):
        return self.out.stat().st_size if self.out.is_file() else 0


class CostlyFine(_RunCommand):
    name = "costly-fine"
    what = "one in-process `run` with a costly fine propagator (solve_s)"
    N = 20
    FINE = "cn:substeps=500,aligned=1"
    cal_reps = 12

    def __init__(self, seed: int, run_dir: Path):
        super().__init__(seed, run_dir)
        self.argv = ["run", "--model", self.spec, "--fine", self.FINE, "--coarse", "be", "--N", str(self.N),
                     "--threads", str(NPROC), "--out", str(self.out)]

    def op(self, calibrate, traced=False):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code, op_s = timed(cli.main, self.argv)
        calibrate()
        return (code, stdout.getvalue()), op_s

    def check(self, result):
        code, stdout = result
        if code != 0:
            return 1, 1, [f"exit code {code}"]
        ok, problem = check_run_csv(self.out, self.N, self.exact, None)
        if ok and "iterations_used=" not in stdout:
            ok, problem = False, "no summary on stdout"
        return 1, int(not ok), [problem] if not ok else []

    def check_serial(self, finals):
        return abs(finals[0] - self.exact[-1]) <= COSTLY_ATOL


class CliRun(_RunCommand):
    name = "cli-run"
    what = "one fresh `parareal run` process (cli_p50_s)"
    N = 320
    K = 2
    FINE = "exact"
    cal_reps = 3

    def __init__(self, seed: int, run_dir: Path):
        super().__init__(seed, run_dir)
        self.spans_out = run_dir / "cli-run-spans.npz"
        self.args = ["run", "--model", self.spec, "--variant", "reduced", "--reduced-input", "sine",
                     "--N", str(self.N), "--k", str(self.K), "--out", str(self.out)]
        self.env = child_env()

    def before_op(self):
        super().before_op()
        self.spans_out.unlink(missing_ok=True)

    def op(self, calibrate, traced=False):
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(self.spans_out), *self.args]
        else:
            cmd = [sys.executable, "-c", "from parareal.cli import entry; entry()", *self.args]
        proc, op_s = timed(functools.partial(subprocess.run, cmd, cwd=ROOT, env=self.env, capture_output=True,
                                             text=True, timeout=120))
        calibrate()
        return proc, op_s

    def check(self, proc):
        if proc.returncode != 0:
            return 1, 1, [f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"]
        ok, problem = check_run_csv(self.out, self.N, self.exact, self.K)
        return 1, int(not ok), [problem] if not ok else []

    def check_serial(self, finals):
        return abs(finals[0] - self.exact[-1]) <= EXACT_RTOL * np.max(np.abs(self.exact))

    def child_spans(self, proc):
        from tracer import Spans

        with np.load(self.spans_out) as arrays:
            return Spans.from_arrays(arrays, "op0_")

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


WORKLOADS = {w.name: w for w in (StudyPresets, CostlyFine, CliRun)}
