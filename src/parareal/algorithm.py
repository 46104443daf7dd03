"""The parallel-in-time iteration, in its classic form and the variant whose
coarse propagator solves a smoothed-input problem.

The update at iteration k+1 on the uniform grid ``T_n = n*T/N`` (``T_N = T``) is

    U[0]   = u0
    U[n]   = F(T_n, T_{n-1}, U_prev[n-1])
             + G(T_n, T_{n-1}, U[n-1]) - G(T_n, T_{n-1}, U_prev[n-1])

where F is the fine and G the coarse propagator; in the reduced variant G
integrates the smoothed-input problem while F keeps the original input.  The
N fine propagations of an iteration are independent and may run concurrently;
the corrected coarse sweep is sequential.

A run stops after exactly k sweeps (``FixedIterations``) or once the largest
jump falls below a threshold, after at most ``k_max`` (``Termination``).  Its
errors are always measured against the exact solution (``reference_trajectory``).

A run keeps its states as Python floats.  It plans the intervals of the
propagators that evaluate each interval more than once (the coarse one, and an
exact fine one, whose plans the reference reuses) and drops the plans when it
returns; a theta fine propagator stays cold.  ``models`` describes the set-up
kept per process, per study and per run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Executor
from dataclasses import dataclass, field, replace

import numpy as np

from .models import LinearScalarModel, closed_form_trajectory, exact_trajectory, reduced_ivp
from .propagators import (
    ExactLinearPropagator,
    NonFiniteStateError,
    Propagator,
    ThetaPropagator,
    parse_propagator,
    planned,
    scalar_state,
)
from .signals import Signal


def _check_tolerances(atol: float, rtol: float) -> None:
    # negated comparisons, so that NaN fails too: ``nan < 0`` is False
    if not (atol > 0 and rtol >= 0):
        raise ValueError(f"need atol > 0 and rtol >= 0, got atol={atol!r}, rtol={rtol!r}")


@dataclass(frozen=True)
class Termination:
    """Stop when the largest mixed-tolerance jump norm drops below the threshold, or after ``k_max`` sweeps."""

    atol: float = 1.5e-5
    rtol: float = 1.5e-5
    jump_threshold: float = 1.0
    k_max: int = 20

    def __post_init__(self):
        _check_tolerances(self.atol, self.rtol)
        if not 0 < self.jump_threshold < math.inf:
            raise ValueError(f"jump_threshold must be a positive finite number, got {self.jump_threshold!r}")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


@dataclass(frozen=True)
class FixedIterations:
    """Run exactly k update sweeps, no early stopping."""

    k: int
    atol: float = 1.5e-5
    rtol: float = 1.5e-5

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
    signal replaced; "original" also requires the same input signal.
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
        if replace(ci, signal=fi.signal) != fi:
            raise ValueError("fine and coarse propagators integrate different problems")
        if self.variant == "original" and ci != fi:
            raise ValueError("variant 'original' requires identical inputs for fine and coarse")

    @property
    def times(self) -> np.ndarray:
        """The sync grid ``T_n = n*T/N``, with ``T_N = T`` exactly: ``N*T/N`` can
        round an ulp past ``T``, outside the input's domain."""
        t_end = self.fine.ivp.t_end
        return np.array([n * t_end / self.n_intervals for n in range(self.n_intervals)] + [t_end])


def jump_norm(u: float, v: float, atol: float, rtol: float) -> float:
    """Mixed-tolerance distance of two scalar states: ``sqrt(x*x)`` with
    ``x = |u-v| / (atol+rtol*|v|)``, the root mean square of one element.

    A state may also be a one-element array (``scalar_state``).
    """
    _check_tolerances(atol, rtol)
    u, v = scalar_state(u), scalar_state(v)
    scaled = abs(u - v) / (atol + rtol * abs(v))
    return math.sqrt(scaled * scaled)


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
    times = cfg.times.tolist()
    u = float(cfg.fine.ivp.u0)
    guess = [u]
    for n in range(1, cfg.n_intervals + 1):
        try:
            u = cfg.coarse.propagate(times[n - 1], times[n], u)
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

    Every problem with decay rate ``a > 0``, whatever its fine propagator, is
    solved in closed form: an exact fine propagator's own model by
    ``exact_trajectory``, which chains the interval plans the run has built,
    any other by ``closed_form_trajectory``.  Where no closed form exists
    (``a <= 0``, an input segment that is neither constant nor sinusoidal)
    the fine propagator with 10x the substeps stands in; an exact fine
    propagator has no stand-in and raises ``UnsupportedSignalError``.
    """
    times = cfg.times
    fine = cfg.fine
    if isinstance(fine, ExactLinearPropagator):
        return exact_trajectory(fine.model, times)[:, None]
    ivp = fine.ivp
    exact = closed_form_trajectory(ivp, times)
    if exact is not None:
        return exact[:, None]
    refined = replace(fine, substeps=10 * fine.substeps) if isinstance(fine, ThetaPropagator) else fine
    out = [float(ivp.u0)]
    for n in range(1, len(times)):
        out.append(refined.propagate(times[n - 1], times[n], out[-1]))
    return np.array(out)[:, None]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fine_sweep(cfg: PararealConfig, times: list[float], state: list[float], executor: Executor | None) -> list[float]:
    """All N fine propagations of one iteration, as floats in index order; entry 0 is u0.

    On an executor the intervals go out as one contiguous block per CPU
    (``_cpus``, at most N), each a serial run of the same ``propagate``
    calls: a call costs a few microseconds, less than handing it to a
    worker.  The blocks are joined in index order, so the first failure
    raised is the lowest failing interval's, as in a serial sweep.
    """
    fine = cfg.fine

    def block(lo: int, hi: int) -> list[float]:
        out = []
        for n in range(lo, hi):
            try:
                out.append(fine.propagate(times[n - 1], times[n], state[n - 1]))
            except NonFiniteStateError as exc:
                exc.n = n
                raise
        return out

    N = cfg.n_intervals
    if executor is None:
        return [state[0]] + block(1, N + 1)
    blocks = min(_cpus(), N)
    bounds = [1 + N * b // blocks for b in range(blocks + 1)]
    futures = [executor.submit(block, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    arrivals = [state[0]]
    try:
        for future in futures:
            arrivals += future.result()
    finally:
        for future in futures:  # after a failure, the blocks not yet started
            future.cancel()
    return arrivals


def _planned_propagators(cfg: PararealConfig) -> list[Propagator]:
    """The propagators worth planning: the coarse one, run 2k+1 times per
    interval, and an exact fine one, run k times plus once in the reference.

    A theta fine one stays cold: it is the costly kind, which converges after
    a sweep or two, so a plan would be built for one use.
    """
    return [cfg.coarse, cfg.fine] if isinstance(cfg.fine, ExactLinearPropagator) else [cfg.coarse]


def iterate(cfg: PararealConfig, executor: Executor | None = None) -> PararealRun:
    """Run the update sweeps ``cfg.termination`` asks for: exactly ``k``, or
    until the jump criterion or ``k_max``.

    Raises ``NonFiniteStateError`` if a state stops being finite, with ``k``
    and ``n`` set, also where a propagator raised it (fine sweep, correction).
    """
    times = cfg.times
    ts = times.tolist()
    N = cfg.n_intervals
    coarse = cfg.coarse
    term = cfg.termination
    atol = term.atol
    rtol = term.rtol
    fixed = isinstance(term, FixedIterations)
    threshold = 1.0 if fixed else term.jump_threshold
    k_cap = term.k if fixed else term.k_max

    with planned(_planned_propagators(cfg), ts):
        guess = initial_guess(cfg)
        iterates = [guess]
        arrivals_hist: list[np.ndarray] = []
        jumps_hist: list[np.ndarray] = []

        current = guess[:, 0].tolist()
        u0 = current[0]
        converged = False
        k = 0
        while k < k_cap:
            try:
                arrivals = _fine_sweep(cfg, ts, current, executor)
            except NonFiniteStateError as exc:
                exc.k = k
                raise
            for n in range(1, N + 1):
                if not math.isfinite(arrivals[n]):
                    raise NonFiniteStateError(f"non-finite fine arrival at iteration {k}, interval {n}", k=k, n=n)
            jumps = np.array([0.0] + [jump_norm(arrivals[n], current[n], atol, rtol) for n in range(1, N + 1)])
            arrivals_hist.append(np.array(arrivals)[:, None])
            jumps_hist.append(jumps)

            new = [u0]
            try:
                for n in range(1, N + 1):
                    g_old = coarse.propagate(ts[n - 1], ts[n], current[n - 1])
                    g_new = coarse.propagate(ts[n - 1], ts[n], new[n - 1])
                    u = arrivals[n] + g_new - g_old
                    if not math.isfinite(u):
                        raise NonFiniteStateError(f"non-finite state at iteration {k + 1}, interval {n}")
                    new.append(u)
            except NonFiniteStateError as exc:
                exc.k, exc.n = k + 1, n
                raise
            iterates.append(np.array(new)[:, None])
            current = new
            k += 1
            if not fixed and float(np.max(jumps)) < threshold:
                converged = True
                break

        if fixed:
            converged = float(np.max(jumps_hist[-1])) < threshold

        ref = reference_trajectory(cfg)
        errors = [np.max(np.abs(it - ref), axis=1) for it in iterates]

    return PararealRun(
        times=times,
        iterates=iterates,
        fine_arrivals=arrivals_hist,
        jumps=jumps_hist,
        errors_vs_reference=errors,
        iterations_used=k,
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
    coarse_ivp = ivp if reduced_input is None else reduced_ivp(ivp, reduced_input)
    return PararealConfig(
        n_intervals=n_intervals,
        fine=parse_propagator(fine, ivp, model),
        coarse=parse_propagator(coarse, coarse_ivp, model),
        termination=termination or Termination(),
        variant="original" if reduced_input is None else "reduced",
    )
