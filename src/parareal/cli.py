"""Command-line entry point.

Subcommands: ``signal dump``, ``model reference``, ``run`` (one parareal run),
``study run`` (convergence sweeps, including the bundled experiment presets)
and ``bound eval`` (theoretical error-bound values).  Every CSV starts with a
manifest comment tying the output to the exact resolved configuration.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .algorithm import FixedIterations, PararealConfig, Termination, iterate, make_config
from .analysis import BoundParams, StudySpec, eval_bound, run_study
from .models import exact_trajectory, parse_model
from .propagators import NonFiniteStateError
from .signals import parse_signal
from .svgplot import log_log_svg

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
    "kmax": 20,
    "k": None,
    "atol": 1.5e-5,
    "rtol": 1.5e-5,
    "jump_threshold": 1.0,
    "threads": 0,  # 0 = hardware default
    "metric": "max",
    "n_list": None,
    "preset": None,
}


class UsageError(ValueError):
    pass


def _read_config(path: str | None) -> dict:
    """``key=value`` lines; a key that no subcommand has a flag for is a usage error."""
    if not path:
        return {}
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}")
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in HARD_DEFAULTS:
                raise UsageError(f"unknown config key {key!r} in {path}")
            out[key] = val.strip()
    return out


def _resolve(args: argparse.Namespace, config: dict) -> dict:
    """The subcommand's settings, one per flag it has: defaults, overridden by
    the config file, overridden by explicit flags.  Config keys of other
    subcommands are ignored, so a manifest records only what its subcommand reads."""
    resolved = {}
    for key, hard in HARD_DEFAULTS.items():
        if hasattr(args, key):
            value = getattr(args, key)
            resolved[key] = config.get(key, hard) if value is None else value
    return resolved


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


def _cmd_signal_dump(args, config) -> int:
    r = _resolve(args, config)
    sig = parse_signal(args.signal, period=float(r["period"]))
    n = int(r["samples"])
    ts = np.linspace(0.0, sig.period, n)
    vals = sig.values(ts)
    lines = _manifest_lines("signal dump", {"signal": args.signal, "samples": n, "period": r["period"]})
    lines.append("t,value")
    lines.extend(f"{_fmt(t)},{_fmt(v)}" for t, v in zip(ts, vals))
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.svg:
        svg = log_log_svg([("signal", ts[ts > 0], np.abs(vals[ts > 0]) + 1e-12)], title=args.signal)
        _write_text(args.svg, svg)
    return 0


def _cmd_model_reference(args, config) -> int:
    r = _resolve(args, config)
    model = parse_model(r["model"] if args.model is None else args.model)
    npts = int(r["grid"])
    uniform = np.linspace(0.0, model.t_end, npts + 1)
    switches = model.signal.switching_times(0.0, model.t_end)
    ts = np.union1d(uniform, switches)
    phis = exact_trajectory(model, ts)
    lines = _manifest_lines("model reference", {"model": args.model or r["model"], "grid": npts})
    lines.append("t,phi")
    lines.extend(f"{_fmt(t)},{_fmt(p)}" for t, p in zip(ts, phis))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


_THREADS_HELP = ("thread pool size (0, the default: the hardware default; 1: serial); a run's fine sweep "
                 "sends it at most one block of intervals per CPU, a study one task per point")


def _pool(r: dict):
    """The executor a subcommand's runs share, as a context: none for ``--threads 1``,
    else a thread pool (``--threads 0``: the hardware default)."""
    threads = int(r["threads"])
    if threads < 0:
        raise UsageError(f"--threads must be >= 0 (0: hardware default), got {threads}")
    return contextlib.nullcontext() if threads == 1 else ThreadPoolExecutor(max_workers=threads or None)


def _build_run_config(r: dict) -> PararealConfig:
    model = parse_model(r["model"])
    if r["variant"] not in ("original", "reduced"):
        raise UsageError(f"unknown variant {r['variant']!r}")
    reduced = parse_signal(r["reduced_input"], period=model.t_end) if r["variant"] == "reduced" else None
    if r["k"] is not None:
        term = FixedIterations(int(r["k"]), atol=float(r["atol"]), rtol=float(r["rtol"]))
    else:
        term = Termination(
            atol=float(r["atol"]), rtol=float(r["rtol"]), jump_threshold=float(r["jump_threshold"]),
            k_max=int(r["kmax"]),
        )
    return make_config(
        model, int(r["N"]), coarse=r["coarse"], fine=r["fine"], reduced_input=reduced, termination=term,
    )


def _cmd_run(args, config) -> int:
    r = _resolve(args, config)
    if r["k"] is not None:
        for key in ("jump_threshold", "kmax"):
            if getattr(args, key) is not None or key in config:
                raise UsageError(f"--{key.replace('_', '-')} has no effect with --k (a fixed iteration count)")
    cfg = _build_run_config(r)
    with _pool(r) as executor:
        run = iterate(cfg, executor=executor)

    lines = _manifest_lines("run", r)
    lines.append("k,n,T_n,U,fine_arrival,jump,err_vs_ref")
    errs = run.errors_vs_reference
    for k, it in enumerate(run.iterates):
        for n, t in enumerate(run.times):
            arrival = jump = ""
            if 1 <= k <= run.iterations_used and n >= 1:
                arrival = _fmt(run.fine_arrivals[k - 1][n, 0])
                jump = _fmt(run.jumps[k - 1][n])
            lines.append(f"{k},{n},{_fmt(t)},{_fmt(it[n, 0])},{arrival},{jump},{_fmt(float(errs[k][n]))}")
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


def _cmd_study_run(args, config) -> int:
    r = _resolve(args, config)
    model = parse_model(r["model"])
    n_list = None
    if r["n_list"]:
        n_list = tuple(int(x) for x in str(r["n_list"]).split(","))

    if r["preset"]:
        if r["preset"] not in PRESETS:
            raise UsageError(f"unknown preset {r['preset']!r}; known: {sorted(PRESETS)}")
        entries = PRESETS[r["preset"]]
    else:
        entries = [
            dict(
                variant=r["variant"],
                scheme=r["coarse"],
                k=int(r["k"] or 1),
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
            kwargs["n_list"] = n_list
        specs.append((e["label"], StudySpec(**kwargs)))

    with _pool(r) as executor:
        studies = [(label, run_study(spec, executor=executor)) for label, spec in specs]

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
        series = [
            (label, [p.n for p in st.results], [p.metric(st.spec.error_metric) for p in st.results])
            for label, st in studies
        ]
        _write_text(args.svg, log_log_svg(series, title=r["preset"] or "study", xlabel="N", ylabel="err"))
    return 0


def _cmd_bound_eval(args, config) -> int:
    params = BoundParams(
        c1=args.C1, c2=args.C2, c3=args.C3, c4=args.C4, c_p=args.Cp,
        l=args.l, p=args.p, dt=args.dT, n=args.n, k=args.k,
    )
    value = eval_bound(params, args.which)
    print(_fmt(value))
    if args.out not in (None, "-") and args.out:
        lines = _manifest_lines("bound eval", vars(args))
        lines.append("value")
        lines.append(_fmt(value))
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parareal", description=__doc__)
    parser.add_argument("--config", help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sig = sub.add_parser("signal", help="signal utilities")
    sig_sub = p_sig.add_subparsers(dest="action", required=True)
    p_dump = sig_sub.add_parser("dump", help="emit t,value CSV samples")
    p_dump.add_argument("--signal", required=True)
    p_dump.add_argument("--samples", type=int)
    p_dump.add_argument("--period", type=float)
    p_dump.add_argument("--out")
    p_dump.add_argument("--svg")
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
        ("--atol", float), ("--rtol", float), ("--jump-threshold", float),
        ("--threads", int),
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
        ("--threads", int),
    ]:
        p_srun.add_argument(flag, type=typ, dest=flag.lstrip("-").replace("-", "_"),
                            help=_THREADS_HELP if flag == "--threads" else None)
    p_srun.add_argument("--out")
    p_srun.add_argument("--svg")
    p_srun.set_defaults(func=_cmd_study_run)

    p_bound = sub.add_parser("bound", help="theoretical bound evaluation")
    bound_sub = p_bound.add_subparsers(dest="action", required=True)
    p_beval = bound_sub.add_parser("eval", help="evaluate one bound")
    p_beval.add_argument("--which", default="reduced-linf",
                         choices=["smooth", "reduced-lp", "reduced-linf", "lemma"])
    p_beval.add_argument("--C1", type=float, default=1.0)
    p_beval.add_argument("--C2", type=float, default=0.0)
    p_beval.add_argument("--C3", type=float, default=1.0)
    p_beval.add_argument("--C4", type=float, default=1.0)
    p_beval.add_argument("--Cp", type=float, default=1.0)
    p_beval.add_argument("--l", type=int, default=1)
    p_beval.add_argument("--p", type=float, default=math.inf)
    p_beval.add_argument("--dT", type=float, default=1e-3)
    p_beval.add_argument("--n", type=int, default=2)
    p_beval.add_argument("--k", type=int, default=1)
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
        config = _read_config(args.config)
        return args.func(args, config)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonFiniteStateError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
