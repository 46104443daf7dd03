"""The parallel-in-time iteration, in its classic form and the variant whose
coarse propagator solves a smoothed-input problem.

The update at iteration k+1 on the uniform grid ``T_n = n*T/N`` (``T_N = T``) is

    U[0]   = u0
    U[n]   = F(T_n, T_{n-1}, U_prev[n-1])
             + G(T_n, T_{n-1}, U[n-1]) - G(T_n, T_{n-1}, U_prev[n-1])

where F is the fine and G the coarse propagator; in the reduced variant G
integrates the smoothed-input problem while F keeps the original input.  The
N fine propagations of an iteration are independent of each other and run in
the calling thread; the corrected coarse sweep is sequential.

A run stops after exactly k sweeps (``FixedIterations``) or once every jump
is below 1, after at most ``k_max`` (``Termination``).  Its errors are always
measured against the exact solution in closed form (``reference_trajectory``);
an input segment without one fails there.

A run keeps its states, and its history of iterates, fine arrivals and jumps,
as Python floats; the arrays of ``PararealRun`` are built once, when it ends.
Its config sets the sync grid up once, at construction.  The run plans the
intervals of both propagators under one rule (``propagators.planned``): an
exact one and a one-step theta one are planned, and a multi-step theta one,
the costly kind of fine propagator, runs cold.  It drops the plans when it
returns.  Only ``propagate`` reads the plans.  The reference depends only on
the fine problem and N, so each process computes it once per pair and keeps
it in a bounded table.  ``models`` describes the set-up kept per process and
per run.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass, field, replace

import numpy as np

from .models import LinearScalarModel, SplitIvp, _trajectory
from .propagators import NonFiniteStateError, Propagator, parse_propagator, planned, scalar_state
from .signals import Signal, _per_process


def _check_tolerances(atol: float, rtol: float) -> None:
    # negated comparisons, so that NaN fails too: ``nan < 0`` is False
    if not (0 < atol < math.inf and 0 <= rtol < math.inf):
        raise ValueError(f"need finite atol > 0 and finite rtol >= 0, got atol={atol!r}, rtol={rtol!r}")


@dataclass(frozen=True)
class Termination:
    """Stop once every mixed-tolerance jump norm is below 1, or after ``k_max`` sweeps.

    1 is the acceptance level of a mixed-tolerance norm, so ``atol`` and
    ``rtol`` alone set the scale of an acceptable jump.
    """

    atol: float = 1.5e-5
    rtol: float = 1.5e-5
    k_max: int = 20

    def __post_init__(self):
        _check_tolerances(self.atol, self.rtol)
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


@dataclass(frozen=True)
class FixedIterations:
    """Run exactly k update sweeps, no early stopping."""

    k: int
    atol: float = Termination.atol
    rtol: float = Termination.rtol

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        _check_tolerances(self.atol, self.rtol)


@dataclass(frozen=True, eq=False)
class PararealConfig:
    """Everything needed for one run: the (fine, coarse) propagator pair,
    the sync grid and when to stop.  ``make_config`` builds one from spec
    strings.

    ``variant`` is "original" (coarse solves the same problem as fine) or
    "reduced" (coarse solves the smoothed-input problem).  Either way the
    coarse propagator's IVP must be the fine IVP with at most its input
    signal replaced, by one on the same horizon; "original" also requires
    the same input signal.
    """

    n_intervals: int
    fine: Propagator
    coarse: Propagator
    termination: Termination | FixedIterations = field(default_factory=Termination)
    variant: str = "original"

    def __post_init__(self):
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        if self.variant not in ("original", "reduced"):
            raise ValueError(f"unknown variant {self.variant!r}")
        fi, ci = self.fine.ivp, self.coarse.ivp
        if (ci.decay, ci.gain, ci.u0, ci.t_end) != (fi.decay, fi.gain, fi.u0, fi.t_end):
            raise ValueError("fine and coarse propagators integrate different problems")
        if self.variant == "original" and ci.signal != fi.signal:
            raise ValueError("variant 'original' requires identical inputs for fine and coarse")
        object.__setattr__(self, "_times", _sync_times(fi.t_end, self.n_intervals))

    @property
    def times(self) -> np.ndarray:
        """The sync grid ``T_n = n*T/N``, with ``T_N = T`` exactly: ``N*T/N`` can
        round an ulp past ``T``, outside the input's domain.  A fresh array of
        the floats set up once, at construction."""
        return np.array(self._times)


def _sync_times(t_end: float, n_intervals: int) -> tuple[float, ...]:
    """The floats of ``PararealConfig.times``."""
    return (*(np.arange(n_intervals) * t_end / n_intervals).tolist(), t_end)


def jump_norm(u: float, v: float, atol: float, rtol: float) -> float:
    """Mixed-tolerance distance of two scalar states: ``x = |u-v| / (atol+rtol*|v|)``,
    the root mean square ``sqrt(x*x)`` of one element, which is ``x`` itself;
    taken as ``x``, it neither overflows nor underflows where ``x*x`` would.

    A state may also be a one-element array (``scalar_state``).
    """
    if not (0 < atol < math.inf and 0 <= rtol < math.inf):
        _check_tolerances(atol, rtol)
    u = u if type(u) is float else scalar_state(u)
    v = v if type(v) is float else scalar_state(v)
    return abs(u - v) / (atol + rtol * abs(v))


@dataclass
class PararealRun:
    """Full iterate history of one run.

    ``iterates[k][n]`` is the value at sync point ``T_n`` after k update
    sweeps (k=0 is the coarse-sweep initial guess).  ``fine_arrivals[k][n]``
    is the fine propagation of iterate k across interval n, the quantity whose
    mismatch with ``iterates[k][n]`` defines ``jumps[k][n]``.
    """

    times: np.ndarray
    iterates: list[np.ndarray]
    fine_arrivals: list[np.ndarray]
    jumps: list[np.ndarray]
    errors_vs_reference: list[np.ndarray]
    iterations_used: int
    converged: bool

    def max_jump(self, k: int) -> float:
        return float(np.max(self.jumps[k]))

    def error(self, k: int, metric: str = "max") -> float:
        """Error of iterate k vs the reference: 'max', 'final' or 'first_active'."""
        errs = self.errors_vs_reference[k]
        if metric == "max":
            return float(np.max(errs))
        if metric == "final":
            return float(errs[-1])
        if metric == "first_active":
            return float(errs[min(k + 1, len(errs) - 1)])
        raise ValueError(f"unknown metric {metric!r}")


def initial_guess(cfg: PararealConfig) -> np.ndarray:
    """Sequential coarse sweep from u0: ``U[0][n] = G(T_n, T_{n-1}, U[0][n-1])``."""
    times = cfg._times
    propagate = cfg.coarse.propagate
    u = float(cfg.fine.ivp.u0)
    guess = [u]
    for n, t0, t1 in zip(range(1, cfg.n_intervals + 1), times, times[1:]):
        try:
            u = propagate(t0, t1, u)
        except Exception as exc:
            try:
                relabelled = type(exc)(f"coarse guess failed on interval {n}: {exc}")
            except Exception:  # noqa: BLE001 - a type not built from one message: raise the original as it is
                relabelled = None
            if relabelled is None:
                raise
            if isinstance(exc, NonFiniteStateError):
                relabelled.k, relabelled.n = 0, n
            raise relabelled from exc
        if not math.isfinite(u):
            raise NonFiniteStateError(f"non-finite initial guess at interval {n}", k=0, n=n)
        guess.append(u)
    return np.array(guess)[:, None]


def reference_trajectory(cfg: PararealConfig) -> np.ndarray:
    """The fine problem's exact solution at the sync points, the reference of a run's errors.

    Whatever the fine propagator, it is the closed form of the fine IVP
    (``models._trajectory``) on the run's sync grid, which only the IVP
    and N determine.  So it is computed once per pair and process and kept in
    a bounded table (``_reference``); each call returns a fresh ``(N+1, 1)``
    array.  A problem has a positive decay rate (``SplitIvp``); one with an
    input segment that is neither constant nor sinusoidal, which no parsed
    model has, has no closed form and raises here, on every call.
    """
    ivp = cfg.fine.ivp
    return _reference(ivp, cfg.n_intervals, math.copysign(1.0, ivp.u0)).copy()


@_per_process
def _reference(ivp: SplitIvp, n_intervals: int, u0_sign: float) -> np.ndarray:
    # ``u0_sign`` tells the keys of u0 = 0.0 and -0.0 apart, which compare equal
    ref = _trajectory(ivp.decay, ivp.gain, ivp.signal, _sync_times(ivp.t_end, n_intervals), ivp.u0)[:, None]
    ref.flags.writeable = False
    return ref


def _fine_sweep(cfg: PararealConfig, k: int, times: list[float], state: list[float]) -> list[float]:
    """The N fine propagations of sweep ``k``, as floats in index order; entry 0 is u0.

    They run in the calling thread, in index order, and each arrival is
    checked as it is computed, so the first failure raised, a propagator's
    ``NonFiniteStateError`` or a non-finite arrival, is the lowest failing
    interval's, with ``k`` and ``n`` set.  Threads would not make them
    faster: under the interpreter lock, threads of pure-Python ``propagate``
    calls only take turns holding it.
    """
    propagate = cfg.fine.propagate
    out = [state[0]]
    for n, t0, t1, u in zip(range(1, cfg.n_intervals + 1), times, times[1:], state):
        try:
            f = propagate(t0, t1, u)
        except NonFiniteStateError as exc:
            exc.k, exc.n = k, n
            raise
        if not math.isfinite(f):
            raise NonFiniteStateError(f"non-finite fine arrival at iteration {k}, interval {n}", k=k, n=n)
        out.append(f)
    return out


def _below(jumps: list[float]) -> bool:
    """Whether every jump is below 1, as ``np.max(jumps) < 1`` reads it: a NaN
    jump (an infinite distance over an infinite tolerance) fails, which
    ``max`` alone would skip past."""
    return max(jumps) < 1.0 and not math.isnan(sum(jumps))


def iterate(cfg: PararealConfig, executor: Executor | None = None) -> PararealRun:
    """Run the update sweeps ``cfg.termination`` asks for: exactly ``k``, or
    until every jump is below 1 or ``k_max``.  Either way the run has
    converged if every jump of its last sweep is below 1.

    Raises ``NonFiniteStateError`` if a state stops being finite, with ``k``
    and ``n`` set, also where a propagator raised it (fine sweep, correction).

    ``executor`` is accepted and given no work: the fine sweep runs in the
    calling thread (``_fine_sweep``), bit for bit the run without one.
    """
    ts = cfg._times
    N = cfg.n_intervals
    propagate = cfg.coarse.propagate
    term = cfg.termination
    atol = term.atol
    rtol = term.rtol
    fixed = isinstance(term, FixedIterations)
    k_cap = term.k if fixed else term.k_max

    with planned((cfg.coarse, cfg.fine), ts):
        current = initial_guess(cfg)[:, 0].tolist()
        u0 = current[0]
        iterates = [current]
        arrivals_hist: list[list[float]] = []
        jumps_hist: list[list[float]] = []
        for k in range(k_cap):
            arrivals = _fine_sweep(cfg, k, ts, current)
            jumps = [0.0] + [jump_norm(f, u, atol, rtol) for f, u in zip(arrivals[1:], current[1:])]
            arrivals_hist.append(arrivals)
            jumps_hist.append(jumps)

            new = [u0]
            u = u0
            try:
                for n, t0, t1, f, prev in zip(range(1, N + 1), ts, ts[1:], arrivals[1:], current):
                    g_old = propagate(t0, t1, prev)
                    g_new = propagate(t0, t1, u)
                    u = f + g_new - g_old
                    if not math.isfinite(u):
                        raise NonFiniteStateError(f"non-finite state at iteration {k + 1}, interval {n}")
                    new.append(u)
            except NonFiniteStateError as exc:
                exc.k, exc.n = k + 1, n
                raise
            iterates.append(new)
            current = new
            converged = _below(jumps)
            if converged and not fixed:
                break

        # the history as arrays, each built once: row k of ``its`` is iterate k
        its = np.array(iterates)
        errors = np.abs(its - reference_trajectory(cfg).T)

    return PararealRun(
        times=cfg.times,
        iterates=list(its[:, :, None]),
        fine_arrivals=list(np.array(arrivals_hist)[:, :, None]),
        jumps=list(np.array(jumps_hist)),
        errors_vs_reference=list(errors),
        iterations_used=len(jumps_hist),
        converged=converged,
    )


def make_config(
    model: LinearScalarModel,
    n_intervals: int,
    *,
    coarse: str = "be",
    fine: str = "exact",
    reduced_input: Signal | None = None,
    termination: Termination | FixedIterations | None = None,
) -> PararealConfig:
    """The run of ``model`` on ``n_intervals`` sync intervals.

    ``fine`` and ``coarse`` are ``parse_propagator`` specs ("be", "cn",
    "exact", "cn:substeps=500,aligned=1").  The fine propagator solves the
    model's problem; the coarse one solves it with its input replaced by
    ``reduced_input`` when that is given (variant "reduced"), else the same
    problem (variant "original").  The default termination is ``Termination()``.
    """
    ivp = model.ivp()
    coarse_ivp = ivp if reduced_input is None else replace(ivp, signal=reduced_input)
    return PararealConfig(
        n_intervals=n_intervals,
        fine=parse_propagator(fine, ivp, model),
        coarse=parse_propagator(coarse, coarse_ivp, model),
        termination=termination or Termination(),
        variant="original" if reduced_input is None else "reduced",
    )
