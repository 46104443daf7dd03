"""In-memory span tracer for the parareal package, installed from outside it.

``install`` wraps the public functions and methods of each layer (``signals``,
``models``, ``propagators``, ``algorithm``, ``analysis``, ``cli``).  The
package imports names with ``from .x import y``, so a wrapper is bound at every
module attribute that holds the original object: the lookup site, not only the
defining module.  Methods are wrapped on the class that defines them.

A span records name, start, end, parent span (same thread) and thread, plus
the instance for ``propagate`` so fine and coarse calls can be told apart.
Spans go to per-thread column buffers of the current ``Recording``; with no
recording active a wrapper only forwards the call.  ``models.segments`` and
``propagators.theta.substeps`` are counts, not spans, because they sit below
the per-call layers.

``analyse`` turns the spans of one operation into per-layer numbers.  A
layer's self time is its span's duration minus the part of that interval that
spans inside it cover, in any thread.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

PROPAGATE = ("propagators.theta", "propagators.exact")

# layers reported as ``<name>.calls`` and ``<name>.s``
CALL_LAYERS = (
    "signals.table_build",
    "signals.switching_times",
    "signals.value",
    "models.exact_linear_propagate",
    "propagators.theta",
    "propagators.exact",
    "algorithm.jump_norm",
)
# layers reported as ``<name>.s`` only
TIME_LAYERS = (
    "algorithm.iterate",
    "algorithm.initial_guess",
    "algorithm.reference",
    "analysis.run_study",
    "analysis.fit_order",
    "cli.main",
)
COUNTS = ("models.segments", "propagators.theta.substeps")


class _Buffer:
    """Span columns written by one thread into one recording."""

    def __init__(self, recording: "Recording"):
        self.recording = recording
        self.thread = threading.get_ident()
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.inst = array("q")
        self.stack: list[int] = []
        self.meta: dict[int, tuple] = {}
        self.counts: dict[str, int] = {}


class Recording:
    def __init__(self, names: list[str]):
        self.names = names
        self.buffers: list[_Buffer] = []
        self.lock = threading.Lock()

    def spans(self) -> "Spans":
        offsets, total = [], 0
        for b in self.buffers:
            offsets.append(total)
            total += len(b.start)
        cols = {k: np.concatenate([np.frombuffer(getattr(b, k), dtype=d) for b in self.buffers] or [np.empty(0, d)])
                for k, d in (("name", np.int64), ("start", float), ("end", float), ("inst", np.int64))}
        parent = [np.frombuffer(b.parent, dtype=np.int64) for b in self.buffers]
        cols["parent"] = np.concatenate([np.where(p >= 0, p + off, -1) for p, off in zip(parent, offsets)]
                                        or [np.empty(0, np.int64)])
        cols["thread"] = np.concatenate([np.full(len(b.start), b.thread, np.int64) for b in self.buffers]
                                        or [np.empty(0, np.int64)])
        meta = {off + i: m for b, off in zip(self.buffers, offsets) for i, m in b.meta.items()}
        counts: dict[str, int] = {}
        for b in self.buffers:
            for k, v in b.counts.items():
                counts[k] = counts.get(k, 0) + v
        return Spans(list(self.names), cols, meta, counts)


class Spans:
    """Merged span columns of one recording."""

    def __init__(self, names: list[str], cols: dict[str, np.ndarray], meta: dict[int, tuple], counts: dict[str, int]):
        self.names = names
        self.cols = cols
        self.meta = meta
        self.counts = counts

    def __len__(self) -> int:
        return len(self.cols["start"])

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), bool)
        return self.cols["name"] == self.names.index(name)

    def arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Columns plus a JSON header, as arrays for ``np.savez``."""
        header = {"names": self.names, "meta": {str(k): list(v) for k, v in self.meta.items()},
                  "counts": self.counts}
        out = {prefix + k: v for k, v in self.cols.items()}
        out[prefix + "header"] = np.array(json.dumps(header))
        return out

    @classmethod
    def from_arrays(cls, arrays, prefix: str = "") -> "Spans":
        header = json.loads(str(arrays[prefix + "header"]))
        cols = {k: np.asarray(arrays[prefix + k]) for k in ("name", "start", "end", "inst", "parent", "thread")}
        meta = {int(k): tuple(v) for k, v in header["meta"].items()}
        return cls(header["names"], cols, meta, header["counts"])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.recording: Recording | None = None
        self._local = threading.local()

    def start(self) -> Recording:
        self.recording = Recording(self.names)
        return self.recording

    def stop(self) -> Spans:
        rec, self.recording = self.recording, None
        return rec.spans()

    def _buffer(self, rec: Recording) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.recording is not rec:
            buf = _Buffer(rec)
            with rec.lock:
                rec.buffers.append(buf)
            self._local.buf = buf
        return buf

    def span(self, name: str, fn, inst: bool = False, meta=None):
        """Wrap ``fn`` so each call records a span; ``meta(args, result)`` annotates it."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.recording
            if rec is None:
                return fn(*args, **kwargs)
            buf = self._buffer(rec)
            i = len(buf.start)
            stack = buf.stack
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.inst.append(id(args[0]) if inst else 0)
            buf.end.append(0.0)
            stack.append(i)
            buf.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[i] = time.perf_counter()
                stack.pop()
            if meta is not None:
                buf.meta[i] = meta(args, result)
            return result

        return traced

    def counter(self, key: str, fn, amount=lambda result: 1):
        """Wrap ``fn`` so each call adds ``amount(result)`` to the count ``key``."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec = self.recording
            if rec is not None:
                counts = self._buffer(rec).counts
                counts[key] = counts.get(key, 0) + amount(result)
            return result

        return counted


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` at every parareal module attribute holding it."""
    bound = False
    for modname, mod in list(sys.modules.items()):
        if modname != "parareal" and not modname.startswith("parareal."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                bound = True
    if not bound:
        raise RuntimeError(f"{original!r} is not bound in any parareal module")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported parareal package."""
    import parareal.algorithm as algorithm
    import parareal.analysis as analysis
    import parareal.cli as cli
    import parareal.models as models
    import parareal.propagators as propagators
    import parareal.signals as signals

    def method(cls, attr, wrap):
        setattr(cls, attr, wrap(vars(cls)[attr]))

    # signals: cold switch-table builds run only on a cache miss of _cached_table
    for cls in (signals.PwmSingle, signals.ThreePhasePwm, signals.Difference):
        method(cls, "_build_table", lambda f: tracer.span("signals.table_build", f))
    method(signals.Signal, "switching_times", lambda f: tracer.span("signals.switching_times", f))
    for cls in (signals.Signal, signals.Difference):
        method(cls, "value", lambda f: tracer.span("signals.value", f))

    # models
    _rebind(models.exact_linear_propagate,
            tracer.span("models.exact_linear_propagate", models.exact_linear_propagate))
    models._segment_step = tracer.counter("models.segments", models._segment_step)

    # propagators
    method(propagators.ThetaPropagator, "propagate", lambda f: tracer.span("propagators.theta", f, inst=True))
    method(propagators.ThetaPropagator, "_grid",
           lambda f: tracer.counter("propagators.theta.substeps", f, amount=lambda grid: len(grid) - 1))
    method(propagators.ExactLinearPropagator, "propagate",
           lambda f: tracer.span("propagators.exact", f, inst=True))

    # algorithm: iterate spans carry (N, iterations used, fine id, coarse id)
    def iterate_meta(args, run):
        cfg = args[0]
        return (cfg.n_intervals, run.iterations_used, id(cfg.fine), id(cfg.coarse))

    _rebind(algorithm.iterate, tracer.span("algorithm.iterate", algorithm.iterate, meta=iterate_meta))
    for name in ("initial_guess", "reference_trajectory", "jump_norm"):
        span_name = "algorithm.reference" if name == "reference_trajectory" else f"algorithm.{name}"
        fn = getattr(algorithm, name)
        _rebind(fn, tracer.span(span_name, fn))

    # analysis: run_study spans carry (points, failed points)
    def study_meta(args, study):
        return (len(study.results), sum(p.failure is not None for p in study.results))

    _rebind(analysis.run_study, tracer.span("analysis.run_study", analysis.run_study, meta=study_meta))
    _rebind(analysis.fit_order, tracer.span("analysis.fit_order", analysis.fit_order))

    # cli: pool creation spans carry the worker count
    cli.main = tracer.span("cli.main", cli.main)
    base = cli.ThreadPoolExecutor
    if base is not ThreadPoolExecutor:
        raise RuntimeError("parareal.cli.ThreadPoolExecutor is already wrapped")
    pool = type("TracedThreadPoolExecutor", (base,), {})
    pool.__init__ = tracer.span("cli.pool", base.__init__, meta=lambda args, _: (args[0]._max_workers,))
    cli.ThreadPoolExecutor = pool


def _union_length(start: np.ndarray, end: np.ndarray) -> float:
    """Total length covered by the union of the intervals ``[start_i, end_i]``."""
    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    s, e = start[order], end[order]
    reach = np.maximum.accumulate(e)
    first = np.empty(s.size, bool)
    first[0] = True
    first[1:] = s[1:] > reach[:-1]
    idx = np.flatnonzero(first)
    block_end = np.maximum.reduceat(e, idx)
    return float(np.sum(block_end - s[idx]))


def analyse(op: Spans, base: Spans, base_units: list[int]) -> dict[str, float]:
    """Per-layer sums for one operation.

    ``base`` holds the spans of the serial fine solve of the same work, one
    sequential propagate call per interval, ``base_units`` giving N for each
    iterate of the operation in call order.  Keys ending in ``_num``/``_den``
    are the parts of ratios, summed over operations before dividing.
    """
    c = op.cols
    dur = c["end"] - c["start"]
    out: dict[str, float] = {}
    for name in CALL_LAYERS:
        m = op.mask(name)
        out[f"{name}.calls"] = float(m.sum())
        out[f"{name}.s"] = float(dur[m].sum())
    for name in TIME_LAYERS:
        out[f"{name}.s"] = float(dur[op.mask(name)].sum())
    for key in COUNTS:
        out[key] = float(op.counts.get(key, 0))

    pool_idx = np.flatnonzero(op.mask("cli.pool"))
    workers = max((op.meta[i][0] for i in pool_idx), default=0)
    out["cli.pool_workers"] = float(workers)
    studies = [op.meta[i] for i in np.flatnonzero(op.mask("analysis.run_study")) if i in op.meta]
    out["analysis.points"] = float(sum(s[0] for s in studies))
    out["analysis.points_failed"] = float(sum(s[1] for s in studies))

    # serial fine solve: top-level propagate spans in call order, split per unit
    bc = base.cols
    btop = (bc["parent"] < 0) & (base.mask(PROPAGATE[0]) | base.mask(PROPAGATE[1]))
    border = np.flatnonzero(btop)[np.argsort(bc["start"][btop], kind="stable")]
    bdur = (bc["end"] - bc["start"])[border]
    serial, pos = [], 0
    for n in base_units:
        serial.append(float(bdur[pos:pos + n].sum()))
        pos += n
    base_ok = pos == len(border)

    is_prop = op.mask(PROPAGATE[0]) | op.mask(PROPAGATE[1])
    ref = op.mask("algorithm.reference")
    guess = op.mask("algorithm.initial_guess")
    p = max(workers, 1)
    acc = dict.fromkeys(("algorithm.iterate.self_s", "algorithm.fine_sweep.s", "algorithm.coarse_sweep.s",
                         "algorithm.iterations", "algorithm.fine_calls", "algorithm.coarse_calls",
                         "expected_fine_calls", "expected_coarse_calls",
                         "busy_num", "busy_den", "model_num", "model_den",
                         "cost_fine_num", "cost_fine_den", "cost_coarse_num", "cost_coarse_den"), 0.0)
    # an iterate that raised has no meta; dropping it unpairs the serial solve
    iterates = np.array([i for i in np.flatnonzero(op.mask("algorithm.iterate")) if i in op.meta], dtype=int)
    iterates = iterates[np.argsort(c["start"][iterates], kind="stable")]
    base_ok = base_ok and len(iterates) == len(base_units)
    for j, it in enumerate(iterates):
        n_int, k, fine_id, coarse_id = op.meta[it]
        s, e = c["start"][it], c["end"][it]
        inside = (c["start"] >= s) & (c["end"] <= e)
        inside[it] = False
        acc["algorithm.iterate.self_s"] += float(e - s) - _union_length(c["start"][inside], c["end"][inside])

        prop = inside & is_prop
        for r in np.flatnonzero(inside & ref):
            prop &= ~((c["start"] >= c["start"][r]) & (c["end"] <= c["end"][r]))
        fine = prop & (c["inst"] == fine_id)
        coarse = prop & (c["inst"] == coarse_id)
        acc["algorithm.iterations"] += k
        acc["algorithm.fine_calls"] += float(fine.sum())
        acc["algorithm.coarse_calls"] += float(coarse.sum())
        acc["expected_fine_calls"] += n_int * k
        acc["expected_coarse_calls"] += n_int + 2 * n_int * k
        acc["cost_coarse_num"] += float(dur[coarse].sum())
        acc["cost_coarse_den"] += float(coarse.sum())

        # fine and coarse sweeps: maximal runs of same-role propagate spans after the guess
        guess_end = max((c["end"][g] for g in np.flatnonzero(inside & guess)), default=s)
        sweep = np.flatnonzero((fine | coarse) & (c["start"] >= guess_end))
        sweep = sweep[np.argsort(c["start"][sweep], kind="stable")]
        fine_wall = 0.0
        if sweep.size:
            role = c["inst"][sweep] == fine_id
            cuts = np.flatnonzero(np.diff(role.astype(np.int8))) + 1
            for block in np.split(sweep, cuts):
                wall = float(c["end"][block].max() - c["start"][block].min())
                if c["inst"][block[0]] == fine_id:
                    fine_wall += wall
                else:
                    acc["algorithm.coarse_sweep.s"] += wall
        acc["algorithm.fine_sweep.s"] += fine_wall

        if base_ok:
            c_f = serial[j] / n_int
            c_g = float(dur[coarse].mean()) if coarse.any() else 0.0
            acc["busy_num"] += k * serial[j]
            acc["busy_den"] += p * fine_wall
            acc["model_num"] += n_int * c_f
            acc["model_den"] += n_int * c_g + k * (math.ceil(n_int / p) * c_f + n_int * c_g)
            acc["cost_fine_num"] += serial[j]
            acc["cost_fine_den"] += n_int
    out.update(acc)
    out["base_ok"] = float(base_ok)
    out["trace.spans"] = float(len(op))
    return out


def save(path, ops: list[Spans]) -> None:
    """Write the spans of every traced operation to one ``.npz`` file."""
    arrays: dict[str, np.ndarray] = {}
    for i, spans in enumerate(ops):
        arrays.update(spans.arrays(f"op{i}_"))
    np.savez(path, **arrays)
