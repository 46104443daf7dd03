"""Command-line entry point.

Subcommands: ``signal dump``, ``model reference``, ``run`` (one parareal run),
``study run`` (convergence sweeps, including the bundled experiment presets)
and ``bound eval`` (a run's error and the paper's bound on it, at each sync
point).  Every CSV starts with a manifest comment tying the output to the exact
resolved configuration.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .algorithm import FixedIterations, PararealConfig, Termination, iterate, make_config
from .models import LinearScalarModel, exact_trajectory, parse_model
from .propagators import NonFiniteStateError
from .signals import Signal, parse_signal

HARD_DEFAULTS = {
    "period": 0.02,
    "samples": 2000,
    "grid": 400,
    "model": "rl:R=0.01,L=0.001,input=pwm:m=400",
    "fine": "exact",
    "coarse": "be",
    "variant": "original",
    "reduced_input": "sine",
    "N": 20,
    "kmax": Termination.k_max,
    "k": None,
    "atol": Termination.atol,
    "rtol": Termination.rtol,
    "threads": 0,  # run only; 0 = hardware default
    "metric": "max",
    "n_list": None,
    "preset": None,
}


class UsageError(ValueError):
    pass


def _resolve(args: argparse.Namespace) -> dict:
    """The subcommand's settings, one per flag it has, so a manifest records only what
    its subcommand reads: the flag where given, else its ``HARD_DEFAULTS`` entry."""
    given = vars(args)
    return {key: hard if given[key] is None else given[key] for key, hard in HARD_DEFAULTS.items() if key in given}


def _manifest_lines(command: str, resolved: dict) -> list[str]:
    """Hash and JSON of the configuration; lists stay JSON lists, other values become strings."""
    manifest = {
        "command": command,
        "version": __version__,
        **{k: v if isinstance(v, list) else str(v) for k, v in sorted(resolved.items())},
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return [f"# manifest {digest} {blob}", f"# timestamp {stamp}"]


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_signal_dump(args) -> int:
    r = _resolve(args)
    sig = parse_signal(args.signal, period=r["period"])
    n = r["samples"]
    if n < 1:
        raise UsageError(f"--samples must be >= 1, got {n}")
    ts = np.linspace(0.0, sig.period, n)
    vals = sig.values(ts)
    lines = _manifest_lines("signal dump", {"signal": args.signal, "samples": n, "period": r["period"]})
    lines.append("t,value")
    lines.extend(f"{_fmt(t)},{_fmt(v)}" for t, v in zip(ts, vals))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_model_reference(args) -> int:
    r = _resolve(args)
    model = parse_model(r["model"])
    npts = r["grid"]
    if npts < 1:
        raise UsageError(f"--grid must be >= 1, got {npts}")
    uniform = np.linspace(0.0, model.t_end, npts + 1)
    switches = model.signal.switching_times(0.0, model.t_end)
    ts = np.union1d(uniform, switches)
    phis = exact_trajectory(model, ts)
    lines = _manifest_lines("model reference", {"model": r["model"], "grid": npts})
    lines.append("t,phi")
    lines.extend(f"{_fmt(t)},{_fmt(p)}" for t, p in zip(ts, phis))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


_THREADS_HELP = ("size of the thread pool the run opens (0, the default: the hardware default; 1: no pool); "
                 "the pool gets no work, the fine sweep runs in the calling thread")


def _pool(r: dict):
    """The executor of ``run``, the one subcommand with ``--threads``, as a context: none
    for ``--threads 1``, else a thread pool (``--threads 0``: the hardware default)."""
    threads = r["threads"]
    if threads < 0:
        raise UsageError(f"--threads must be >= 0 (0: hardware default), got {threads}")
    return contextlib.nullcontext() if threads == 1 else ThreadPoolExecutor(max_workers=threads or None)


def _read_settings(args, r: dict) -> dict:
    """The settings a ``run``, ``bound eval`` or ``study run`` reads: all but ``reduced_input`` in the
    original variant and ``kmax`` under ``--k``, whose flags are usage errors where given."""
    unread = {"reduced_input": "--variant original"} if r["variant"] == "original" else {}
    if r["k"] is not None and "kmax" in r:
        unread["kmax"] = "--k (a fixed iteration count)"
    for key, reason in unread.items():
        _reject_ignored(args, (key,), reason)
    return {key: value for key, value in r.items() if key not in unread}


def _check_counts(r: dict) -> None:
    """``--N``, ``--k`` and ``--kmax`` below 1 are usage errors, found before any run starts."""
    for key in ("N", "k", "kmax"):
        if r.get(key) is not None and r[key] < 1:
            raise UsageError(f"--{key} must be >= 1, got {r[key]}")


def _reject_ignored(args, keys: tuple[str, ...], reason: str) -> None:
    """A usage error for each flag of ``keys`` that was given where ``reason`` makes it do nothing."""
    for key in keys:
        if getattr(args, key) is not None:
            raise UsageError(f"--{key.replace('_', '-')} has no effect with {reason}")


def _problem(r: dict) -> tuple[LinearScalarModel, Signal | None]:
    """The model of ``--model`` and the coarse input of ``--variant`` (``--reduced-input``, or None)."""
    model = parse_model(r["model"])
    if r["variant"] not in ("original", "reduced"):
        raise UsageError(f"unknown variant {r['variant']!r}")
    return model, parse_signal(r["reduced_input"], period=model.t_end) if r["variant"] == "reduced" else None


def _build_run_config(r: dict) -> PararealConfig:
    model, reduced = _problem(r)
    if r["k"] is not None:
        term = FixedIterations(r["k"], atol=r["atol"], rtol=r["rtol"])
    else:
        term = Termination(atol=r["atol"], rtol=r["rtol"], k_max=r["kmax"])
    return make_config(
        model, r["N"], coarse=r["coarse"], fine=r["fine"], reduced_input=reduced, termination=term,
    )


def _cmd_run(args) -> int:
    r = _resolve(args)
    settings = _read_settings(args, r)
    _check_counts(r)
    cfg = _build_run_config(r)
    with _pool(r) as executor:
        run = iterate(cfg, executor=executor)

    lines = _manifest_lines("run", settings)
    lines.append("k,n,T_n,U,fine_arrival,jump,err_vs_ref")
    # the rows read plain floats, each array converted once
    times = run.times.tolist()
    errs = run.errors_vs_reference
    for k, (it, err) in enumerate(zip(run.iterates, errs)):
        swept = 1 <= k <= run.iterations_used  # iterate k follows fine sweep k - 1
        arrivals = run.fine_arrivals[k - 1][:, 0].tolist() if swept else None
        jumps = run.jumps[k - 1].tolist() if swept else None
        for n, (t, u, e) in enumerate(zip(times, it[:, 0].tolist(), err.tolist())):
            arrival = jump = ""
            if swept and n >= 1:
                arrival, jump = _fmt(arrivals[n]), _fmt(jumps[n])
            lines.append(f"{k},{n},{_fmt(t)},{_fmt(u)},{arrival},{jump},{_fmt(e)}")
    max_jump = run.max_jump(run.iterations_used - 1) if run.jumps else math.nan
    summary = (
        f"iterations_used={run.iterations_used},converged={str(run.converged).lower()},"
        f"max_jump={_fmt(max_jump)}"
    )
    lines.append(f"# summary {summary}")
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.out not in (None, "-"):
        print(summary)
    if args.svg:
        from .svgplot import log_log_svg

        series = [
            (f"k={k}", list(range(1, cfg.n_intervals + 1)), [float(e) for e in errs[k][1:]])
            for k in range(len(run.iterates))
        ]
        _write_text(args.svg, log_log_svg(series, title="error vs interval", xlabel="n", ylabel="err"))
    return 0


PRESETS = {
    # classic algorithm on the full PWM input; fit restricted to N >= 20
    "fig3-left": [
        dict(variant="original", scheme="be", k=1, fit_min_n=20, label="BE k=1"),
        dict(variant="original", scheme="be", k=2, fit_min_n=20, label="BE k=2"),
    ],
    "fig3-right": [
        dict(variant="original", scheme="cn", k=1, fit_min_n=20, label="CN k=1"),
        dict(variant="original", scheme="be", k=1, fit_min_n=20, label="BE k=1"),
    ],
    # reduced-input coarse propagators
    "fig4-left": [
        dict(variant="reduced", scheme="be", k=1, reduced="step", label="step k=1"),
        dict(variant="reduced", scheme="be", k=1, reduced="sine", label="sine k=1"),
    ],
    "fig4-right": [
        dict(variant="reduced", scheme="be", k=2, reduced="step", label="step k=2"),
        dict(variant="reduced", scheme="be", k=2, reduced="sine", label="sine k=2"),
    ],
    "fig5": [
        dict(variant="reduced", scheme="cn", k=1, reduced="step", label="step k=1"),
        dict(variant="reduced", scheme="cn", k=1, reduced="sine", label="sine k=1"),
    ],
}


def _cmd_study_run(args) -> int:
    from .analysis import StudySpec, run_study

    r = _resolve(args)
    model = parse_model(r["model"])
    n_list = []
    for entry in r["n_list"].split(",") if r["n_list"] else ():
        try:
            n_list.append(int(entry))
        except ValueError:
            raise UsageError(f"--n-list entries must be integers, got {entry!r}") from None

    if r["preset"]:
        if r["preset"] not in PRESETS:
            raise UsageError(f"unknown preset {r['preset']!r}; known: {sorted(PRESETS)}")
        _reject_ignored(args, ("k", "coarse", "variant", "reduced_input"), "--preset (its series set it)")
        entries = PRESETS[r["preset"]]
    else:
        _read_settings(args, r)
        entries = [
            dict(
                variant=r["variant"],
                scheme=r["coarse"],
                k=1 if r["k"] is None else r["k"],
                reduced=r["reduced_input"] if r["variant"] == "reduced" else None,
                label="study",
            )
        ]

    specs = []
    for e in entries:
        kwargs = dict(
            model=model,
            variant=e["variant"],
            coarse_scheme=e["scheme"],
            k=e["k"],
            error_metric=r["metric"],
        )
        if e.get("reduced"):
            kwargs["reduced_input"] = parse_signal(e["reduced"], period=model.t_end)
        if e.get("fit_min_n"):
            kwargs["fit_min_n"] = e["fit_min_n"]
        if n_list:
            kwargs["n_list"] = tuple(n_list)
        specs.append((e["label"], StudySpec(**kwargs)))

    studies = [(label, run_study(spec)) for label, spec in specs]

    # each series records the spec it ran; the run-wide flags it overrides are dropped
    series = [
        {"label": label, "variant": spec.variant, "coarse": spec.coarse_scheme, "k": spec.k,
         "reduced_input": e.get("reduced"), "n_list": list(spec.n_list), "fit_min_n": spec.fit_min_n}
        for e, (label, spec) in zip(entries, specs)
    ]
    shared = {k: v for k, v in r.items() if k not in ("variant", "coarse", "k", "reduced_input", "n_list")}
    lines = _manifest_lines("study run", {**shared, "series": series})
    lines.append("N,dT,err_max,err_final,order_fit_running,series,k,err_first_active")
    for label, study in studies:
        running = [math.nan] + study.pairwise_orders()
        for point, ro in zip(study.results, running):
            lines.append(
                f"{point.n},{_fmt(point.dt)},{_fmt(point.err_max)},{_fmt(point.err_final)},"
                f"{_fmt(ro)},{label},{study.spec.k},{_fmt(point.err_first_active)}"
            )
        lines.append(
            f"# order series={label} fitted={_fmt(study.fitted_order)} "
            f"window={study.fit_window} metric={study.spec.error_metric}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.out not in (None, "-"):
        for label, study in studies:
            print(f"{label}: fitted_order={study.fitted_order:.3f} (metric={study.spec.error_metric})")
    if args.svg:
        from .svgplot import log_log_svg

        series = [
            (label, [p.n for p in st.results], [p.metric(st.spec.error_metric) for p in st.results])
            for label, st in studies
        ]
        _write_text(args.svg, log_log_svg(series, title=r["preset"] or "study", xlabel="N", ylabel="err"))
    return 0


def _cmd_bound_eval(args) -> int:
    from .analysis import _bound_constants, eval_bound

    r = _resolve(args)
    r["k"] = k = 1 if r["k"] is None else r["k"]  # a missing --k means 1, as in study run
    settings = _read_settings(args, r)
    _check_counts(r)
    model, reduced = _problem(r)
    n_intervals = r["N"]
    cfg = make_config(model, n_intervals, coarse=r["coarse"], reduced_input=reduced, termination=FixedIterations(k))
    if n_intervals <= k:
        raise UsageError(f"bound eval needs N > k, got N={n_intervals}, k={k}: "
                         "with N <= k every sync point is exact after k iterations, so no error is left to bound")
    params = _bound_constants(model, cfg)  # before the run: an exact coarse propagator has no bound
    run = iterate(cfg)
    times, errors = run.times.tolist(), run.errors_vs_reference[k].tolist()
    lines = _manifest_lines("bound eval", settings)
    lines.append("# constants " + " ".join(f"{name}={_fmt(getattr(params, name))}"
                                           for name in ("c1", "c2", "c3", "c4", "c_p", "l", "dt")))
    lines.append("n,T_n,bound,err,ratio")
    for n in range(k + 1, n_intervals + 1):
        bound = eval_bound(replace(params, n=n), "reduced-lp")
        err = errors[n]
        ratio = err / bound if bound else math.nan
        lines.append(f"{n},{_fmt(times[n])},{_fmt(bound)},{_fmt(err)},{_fmt(ratio)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parareal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sig = sub.add_parser("signal", help="signal utilities")
    sig_sub = p_sig.add_subparsers(dest="action", required=True)
    p_dump = sig_sub.add_parser("dump", help="emit t,value CSV samples")
    p_dump.add_argument("--signal", required=True)
    p_dump.add_argument("--samples", type=int)
    p_dump.add_argument("--period", type=float)
    p_dump.add_argument("--out")
    p_dump.set_defaults(func=_cmd_signal_dump)

    p_model = sub.add_parser("model", help="model utilities")
    model_sub = p_model.add_subparsers(dest="action", required=True)
    p_ref = model_sub.add_parser("reference", help="exact trajectory CSV")
    p_ref.add_argument("--model")
    p_ref.add_argument("--grid", type=int)
    p_ref.add_argument("--out")
    p_ref.set_defaults(func=_cmd_model_reference)

    p_run = sub.add_parser("run", help="one parareal run")
    for flag, typ in [
        ("--model", str), ("--fine", str), ("--coarse", str), ("--variant", str),
        ("--reduced-input", str), ("--N", int), ("--k", int), ("--kmax", int),
        ("--atol", float), ("--rtol", float), ("--threads", int),
    ]:
        p_run.add_argument(flag, type=typ, dest=flag.lstrip("-").replace("-", "_"),
                           help=_THREADS_HELP if flag == "--threads" else None)
    p_run.add_argument("--out")
    p_run.add_argument("--svg")
    p_run.set_defaults(func=_cmd_run)

    p_study = sub.add_parser("study", help="convergence studies")
    study_sub = p_study.add_subparsers(dest="action", required=True)
    p_srun = study_sub.add_parser("run", help="sweep N at fixed k and fit the order")
    for flag, typ in [
        ("--preset", str), ("--model", str), ("--variant", str), ("--coarse", str),
        ("--reduced-input", str), ("--k", int), ("--n-list", str), ("--metric", str),
    ]:
        p_srun.add_argument(flag, type=typ, dest=flag.lstrip("-").replace("-", "_"))
    p_srun.add_argument("--out")
    p_srun.add_argument("--svg")
    p_srun.set_defaults(func=_cmd_study_run)

    p_bound = sub.add_parser("bound", help="theoretical bound evaluation")
    bound_sub = p_bound.add_subparsers(dest="action", required=True)
    p_beval = bound_sub.add_parser("eval", help="a run's error and its bound at each sync point n > k")
    for flag, typ in [("--model", str), ("--coarse", str), ("--variant", str), ("--reduced-input", str),
                      ("--N", int), ("--k", int)]:
        p_beval.add_argument(flag, type=typ, dest=flag.lstrip("-").replace("-", "_"))
    p_beval.add_argument("--out")
    p_beval.set_defaults(func=_cmd_bound_eval)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves the tree unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems; remap usage to 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonFiniteStateError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The console script: exit with ``main()``'s code on ``sys.argv``.

    Every object still alive dies with the process, so ``gc.freeze`` first takes
    them out of the interpreter's final collections.  Atexit handlers, thread
    joins and stream flushes still run.  ``main()`` never freezes: in-process
    callers keep a normal collector.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
