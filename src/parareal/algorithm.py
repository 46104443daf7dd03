"""The parallel-in-time iteration, in its classic form and the variant whose
coarse propagator solves a smoothed-input problem.

The update at iteration k+1 on the uniform grid ``T_n = n*T/N`` is

    U[0]   = u0
    U[n]   = F(T_n, T_{n-1}, U_prev[n-1])
             + G(T_n, T_{n-1}, U[n-1]) - G(T_n, T_{n-1}, U_prev[n-1])

where F is the fine and G the coarse propagator; in the reduced variant G
integrates the smoothed-input problem while F keeps the original input.  The
N fine propagations of an iteration are independent and may run concurrently;
the corrected coarse sweep is sequential.

A run keeps its states as Python floats.  It plans the intervals of the
propagators that evaluate each interval more than once (the coarse one, and an
exact fine one, whose plans the reference reuses) and drops the plans when it
returns; a theta fine propagator stays cold.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Termination:
    """Stop when the largest mixed-tolerance jump norm drops below the threshold."""

    atol: float = 1.5e-5
    rtol: float = 1.5e-5
    jump_threshold: float = 1.0

    def __post_init__(self):
        if not self.atol > 0 or self.rtol < 0:
            raise ValueError("need atol > 0 and rtol >= 0")


@dataclass(frozen=True)
class FixedIterations:
    """Run exactly k update sweeps, no early stopping."""

    k: int
    atol: float = 1.5e-5
    rtol: float = 1.5e-5

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True, eq=False)
class PararealConfig:
    """Everything needed for one run: the (fine, coarse) propagator pair,
    the sync grid and when to stop.  ``make_config`` builds one from spec
    strings.

    ``variant`` is "original" (coarse solves the same problem as fine) or
    "reduced" (coarse solves the smoothed-input problem).  Either way the
    coarse propagator's IVP must be the fine IVP with at most its input
    signal replaced, which ``validate`` checks; "original" also requires the
    same input signal.

    ``reference`` is "exact" (errors are measured against the fine problem's
    exact solution, see ``reference_trajectory``) or "none" (no errors).
    """

    n_intervals: int
    fine: Propagator
    coarse: Propagator
    termination: Termination | FixedIterations = field(default_factory=Termination)
    k_max: int = 20
    variant: str = "original"
    reference: str = "exact"  # "exact" | "none"

    def __post_init__(self):
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.variant not in ("original", "reduced"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.reference not in ("exact", "none"):
            raise ValueError(f"unknown reference {self.reference!r}")
        self.validate()

    def validate(self) -> None:
        fi, ci = self.fine.ivp, self.coarse.ivp
        if replace(ci, signal=fi.signal) != fi:
            raise ValueError("fine and coarse propagators integrate different problems")
        if self.variant == "original" and ci != fi:
            raise ValueError("variant 'original' requires identical inputs for fine and coarse")

    @property
    def times(self) -> np.ndarray:
        t_end = self.fine.ivp.t_end
        return np.array([n * t_end / self.n_intervals for n in range(self.n_intervals + 1)])

    @property
    def max_iterations(self) -> int:
        if isinstance(self.termination, FixedIterations):
            return self.termination.k
        return self.k_max


def jump_norm(u: np.ndarray, v: np.ndarray, atol: float, rtol: float) -> float:
    """Mixed-tolerance distance: ``sqrt(mean_i (|u_i-v_i| / (atol+rtol*|v_i|))^2)``.

    Two floats take a float path, bitwise equal to the mean of one element.
    """
    if atol <= 0 or rtol < 0:
        raise ValueError("need atol > 0 and rtol >= 0")
    if isinstance(u, float) and isinstance(v, float):
        scaled = abs(u - v) / (atol + rtol * abs(v))
        return math.sqrt(scaled * scaled)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    scaled = np.abs(u - v) / (atol + rtol * np.abs(v))
    return float(math.sqrt(np.mean(scaled**2)))


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
    errors_vs_reference: list[np.ndarray] | None
    iterations_used: int
    converged: bool

    def max_jump(self, k: int) -> float:
        return float(np.max(self.jumps[k]))

    def error(self, k: int, metric: str = "max") -> float:
        """Error of iterate k vs the reference: 'max', 'final' or 'first_active'."""
        if self.errors_vs_reference is None:
            raise ValueError("run has no reference trajectory")
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
            u = scalar_state(cfg.coarse.propagate(times[n - 1], times[n], u))
        except Exception as exc:
            relabelled = type(exc)(f"coarse guess failed on interval {n}: {exc}")
            if isinstance(exc, NonFiniteStateError):
                relabelled.k, relabelled.n = 0, n
            raise relabelled from exc
        if not math.isfinite(u):
            raise NonFiniteStateError(f"non-finite initial guess at interval {n}", k=0, n=n)
        guess.append(u)
    return np.array(guess)[:, None]


def reference_trajectory(cfg: PararealConfig) -> np.ndarray | None:
    """The fine problem's exact solution at the sync points, or None without a reference.

    Every problem with decay rate ``a > 0``, whatever its fine propagator, is
    solved in closed form: an exact fine propagator's own model by
    ``exact_trajectory``, which chains the interval plans the run has built,
    any other by ``closed_form_trajectory``.  Where no closed form exists
    (``a <= 0``, an input segment that is neither constant nor sinusoidal)
    the fine propagator with 10x the substeps stands in; an exact fine
    propagator has no stand-in and raises ``UnsupportedSignalError``.
    """
    if cfg.reference == "none":
        return None
    times = cfg.times
    fine = cfg.fine
    if isinstance(fine, ExactLinearPropagator):
        return exact_trajectory(fine.model, times)[:, None]
    ivp = fine.ivp
    exact = closed_form_trajectory(ivp, times)
    if exact is not None:
        return exact[:, None]
    if isinstance(fine, ThetaPropagator):
        refined = ThetaPropagator(
            ivp,
            theta=fine.theta,
            substeps=10 * fine.substeps,
            discontinuity_aligned=fine.discontinuity_aligned,
        )
    else:
        refined = fine
    out = np.empty((len(times), 1))
    out[0] = ivp.u0
    for n in range(1, len(times)):
        out[n] = refined.propagate(times[n - 1], times[n], out[n - 1])
    return out


def _fine_sweep(cfg: PararealConfig, times: list[float], state: list[float], executor: Executor | None) -> list[float]:
    """All N fine propagations of one iteration, as floats in index order; entry 0 is u0."""
    fine = cfg.fine

    def one(n: int) -> float:
        return scalar_state(fine.propagate(times[n - 1], times[n], state[n - 1]))

    indices = range(1, cfg.n_intervals + 1)
    results = [one(n) for n in indices] if executor is None else list(executor.map(one, indices))
    return [state[0]] + results


def _planned_propagators(cfg: PararealConfig) -> list[Propagator]:
    """The propagators worth planning: the coarse one, run 2k+1 times per
    interval, and an exact fine one, run k times plus once in the reference.

    A theta fine one stays cold: it is the costly kind, which converges after
    a sweep or two, so a plan would be built for one use.
    """
    props = [cfg.coarse]
    if isinstance(cfg.fine, ExactLinearPropagator):
        props.append(cfg.fine)
    return props


def iterate(cfg: PararealConfig, executor: Executor | None = None) -> PararealRun:
    """Run the iteration until the jump criterion or the iteration cap.

    Raises ``NonFiniteStateError`` (annotated with the offending iteration and
    interval, also as its ``k`` and ``n``) if a state stops being finite.

    The states are Python floats throughout; the state-independent work of
    each interval is done once per run (``propagators.planned``) and dropped
    on return.
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

    with planned(_planned_propagators(cfg), ts):
        guess = initial_guess(cfg)
        iterates = [guess]
        arrivals_hist: list[np.ndarray] = []
        jumps_hist: list[np.ndarray] = []

        current = guess[:, 0].tolist()
        u0 = current[0]
        converged = False
        k = 0
        while k < cfg.max_iterations:
            arrivals = _fine_sweep(cfg, ts, current, executor)
            for n in range(1, N + 1):
                if not math.isfinite(arrivals[n]):
                    raise NonFiniteStateError(f"non-finite fine arrival at iteration {k}, interval {n}", k=k, n=n)
            jumps = np.array([0.0] + [jump_norm(arrivals[n], current[n], atol, rtol) for n in range(1, N + 1)])
            arrivals_hist.append(np.array(arrivals)[:, None])
            jumps_hist.append(jumps)

            new = [u0]
            for n in range(1, N + 1):
                g_old = scalar_state(coarse.propagate(ts[n - 1], ts[n], current[n - 1]))
                g_new = scalar_state(coarse.propagate(ts[n - 1], ts[n], new[n - 1]))
                u = arrivals[n] + g_new - g_old
                if not math.isfinite(u):
                    raise NonFiniteStateError(f"non-finite state at iteration {k + 1}, interval {n}", k=k + 1, n=n)
                new.append(u)
            iterates.append(np.array(new)[:, None])
            current = new
            k += 1
            if not fixed and float(np.max(jumps)) < threshold:
                converged = True
                break

        if fixed:
            converged = float(np.max(jumps_hist[-1])) < threshold

        errors = None
        ref = reference_trajectory(cfg)
        if ref is not None:
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
    k_max: int = 20,
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
        k_max=k_max,
        variant="original" if reduced_input is None else "reduced",
    )
