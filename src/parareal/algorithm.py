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
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass, field, replace

import numpy as np

from .models import LinearScalarModel, closed_form_trajectory, reduced_ivp
from .propagators import NonFiniteStateError, Propagator, ThetaPropagator, parse_propagator
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
    """Mixed-tolerance distance: ``sqrt(mean_i (|u_i-v_i| / (atol+rtol*|v_i|))^2)``."""
    if atol <= 0 or rtol < 0:
        raise ValueError("need atol > 0 and rtol >= 0")
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
    times = cfg.times
    ivp = cfg.fine.ivp
    guess = np.empty((cfg.n_intervals + 1, 1))
    guess[0] = ivp.u0
    for n in range(1, cfg.n_intervals + 1):
        try:
            guess[n] = cfg.coarse.propagate(times[n - 1], times[n], guess[n - 1])
        except Exception as exc:
            raise type(exc)(f"coarse guess failed on interval {n}: {exc}") from exc
        if not np.all(np.isfinite(guess[n])):
            raise NonFiniteStateError(f"non-finite initial guess at interval {n}")
    return guess


def reference_trajectory(cfg: PararealConfig) -> np.ndarray | None:
    """The fine problem's exact solution at the sync points, or None without a reference.

    Every problem with decay rate ``a > 0``, whatever its fine propagator, is
    solved in closed form (``closed_form_trajectory``).  Where no closed form
    exists (``a <= 0``, an input segment that is neither constant nor
    sinusoidal) the fine propagator with 10x the substeps stands in.
    """
    if cfg.reference == "none":
        return None
    times = cfg.times
    fine = cfg.fine
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


def _fine_sweep(cfg: PararealConfig, iterate: np.ndarray, executor: Executor | None) -> np.ndarray:
    """All N fine propagations of one iteration; results gathered in index order."""
    times = cfg.times
    N = cfg.n_intervals

    def one(n: int) -> np.ndarray:
        return cfg.fine.propagate(times[n - 1], times[n], iterate[n - 1])

    arrivals = np.empty_like(iterate)
    arrivals[0] = cfg.fine.ivp.u0
    if executor is None:
        results = [one(n) for n in range(1, N + 1)]
    else:
        results = list(executor.map(one, range(1, N + 1)))
    for n, value in enumerate(results, start=1):
        arrivals[n] = value
    return arrivals


def iterate(cfg: PararealConfig, executor: Executor | None = None) -> PararealRun:
    """Run the iteration until the jump criterion or the iteration cap.

    Raises ``NonFiniteStateError`` (annotated with the offending iteration and
    interval) if a state stops being finite.
    """
    times = cfg.times
    N = cfg.n_intervals
    term = cfg.termination
    atol = term.atol
    rtol = term.rtol
    fixed = isinstance(term, FixedIterations)
    threshold = 1.0 if fixed else term.jump_threshold

    guess = initial_guess(cfg)
    iterates = [guess]
    arrivals_hist: list[np.ndarray] = []
    jumps_hist: list[np.ndarray] = []

    converged = False
    k = 0
    while k < cfg.max_iterations:
        current = iterates[k]
        arrivals = _fine_sweep(cfg, current, executor)
        for n in range(1, N + 1):
            if not np.all(np.isfinite(arrivals[n])):
                raise NonFiniteStateError(f"non-finite fine arrival at iteration {k}, interval {n}")
        jumps = np.zeros(N + 1)
        for n in range(1, N + 1):
            jumps[n] = jump_norm(arrivals[n], current[n], atol, rtol)
        arrivals_hist.append(arrivals)
        jumps_hist.append(jumps)

        new = np.empty_like(current)
        new[0] = cfg.fine.ivp.u0
        for n in range(1, N + 1):
            g_old = cfg.coarse.propagate(times[n - 1], times[n], current[n - 1])
            g_new = cfg.coarse.propagate(times[n - 1], times[n], new[n - 1])
            new[n] = arrivals[n] + g_new - g_old
            if not np.all(np.isfinite(new[n])):
                raise NonFiniteStateError(f"non-finite state at iteration {k + 1}, interval {n}")
        iterates.append(new)
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
