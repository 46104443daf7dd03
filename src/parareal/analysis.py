"""Convergence-order studies, log-log fitting and theoretical bound evaluation.

A study sweeps the interval count N at a fixed iteration count k, records the
error of the k-th iterate against the exact reference under several metrics
and fits the observed order as the negative log-log slope versus N.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .algorithm import FixedIterations, PararealConfig, iterate, make_config
from .models import LinearScalarModel, exact_linear_propagate
from .propagators import Propagator
from .signals import Difference, Signal, StepWave

ERROR_FLOOR = 1e-13

DEFAULT_N_LIST = (5, 10, 20, 40, 80, 160, 320)


class InsufficientPointsError(ValueError):
    """Fewer than the required number of points above the error floor."""


@dataclass
class OrderFit:
    order: float
    window: list[int]  # indices of the points used
    residual: float


def fit_order(points: list[tuple[float, float]], floor: float = ERROR_FLOOR, min_points: int = 3) -> OrderFit:
    """Least-squares order from (N, error) pairs: ``error ~ C * N**(-order)``.

    Points at or below ``floor`` are excluded; fewer than ``min_points``
    usable points raise ``InsufficientPointsError``.
    """
    window = [i for i, (_, e) in enumerate(points) if e > floor]
    if len(window) < min_points:
        raise InsufficientPointsError(
            f"need >= {min_points} points above floor {floor:g}, have {len(window)}"
        )
    xs = np.log([points[i][0] for i in window])
    ys = np.log([points[i][1] for i in window])
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.max(np.abs(ys - (slope * xs + intercept))))
    return OrderFit(order=float(-slope), window=window, residual=residual)


def best_fit_constant(points: list[tuple[float, float]], exponent: float, floor: float = ERROR_FLOOR) -> float:
    """Best multiplier C for a FIXED power law ``error ~ C * N**(-exponent)``.

    Useful for overlaying a theoretical slope on measured data.
    """
    usable = [(n, e) for n, e in points if e > floor]
    if not usable:
        return math.nan
    logs = [math.log(e) + exponent * math.log(n) for n, e in usable]
    return math.exp(sum(logs) / len(logs))


# ---------------------------------------------------------------------------
# convergence studies


@dataclass
class StudySpec:
    """One convergence sweep: model, algorithm variant and the N grid.

    Every point is the run ``make_config`` builds: exact fine propagator,
    coarse propagator ``coarse_scheme`` ("be", "cn" or "exact"), on the
    smoothed-input problem ``reduced_input`` in the "reduced" variant, and
    exactly ``k`` update sweeps.  ``error_metric`` is one of
    "max" (largest error over all sync points, the default), "final" (error
    at t_end) or "first_active" (error at the first sync point not rendered
    exact by finite termination, n = k+1).  With a step-function reduced
    input and Crank-Nicolson the N list keeps only even entries so the jump
    sits on an interval boundary.
    """

    model: LinearScalarModel
    variant: str = "original"  # "original" | "reduced"
    coarse_scheme: str = "be"
    reduced_input: Signal | None = None
    k: int = 1
    n_list: tuple[int, ...] = DEFAULT_N_LIST
    error_metric: str = "max"
    fit_floor: float = ERROR_FLOOR
    fit_min_n: int | None = None  # fit only points with N >= this

    def __post_init__(self):
        if self.variant not in ("original", "reduced"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "reduced" and self.reduced_input is None:
            raise ValueError("reduced variant needs a reduced_input signal")
        if self.coarse_scheme not in ("be", "cn", "exact"):
            raise ValueError(f"unknown coarse scheme {self.coarse_scheme!r}")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError("n_list must be strictly increasing")
        if (
            self.variant == "reduced"
            and self.coarse_scheme == "cn"
            and isinstance(self.reduced_input, StepWave)
        ):
            self.n_list = tuple(n for n in self.n_list if n % 2 == 0)

    def config(self, n: int) -> PararealConfig:
        return make_config(
            self.model,
            n,
            coarse=self.coarse_scheme,
            reduced_input=self.reduced_input if self.variant == "reduced" else None,
            termination=FixedIterations(self.k),
        )


@dataclass
class StudyPoint:
    n: int
    dt: float
    err_max: float
    err_final: float
    err_first_active: float
    failure: str | None = None

    def metric(self, name: str) -> float:
        return {"max": self.err_max, "final": self.err_final, "first_active": self.err_first_active}[name]


@dataclass
class ConvergenceStudy:
    spec: StudySpec
    results: list[StudyPoint]
    fitted_order: float
    fit_window: list[int]  # the N values that entered the fit
    fit_residual: float
    floor_hit: bool

    def pairwise_orders(self) -> list[float]:
        """Consecutive-point observed orders (running slope)."""
        out = []
        for a, b in zip(self.results, self.results[1:]):
            ea, eb = a.metric(self.spec.error_metric), b.metric(self.spec.error_metric)
            if ea > 0 and eb > 0:
                out.append(math.log(ea / eb) / math.log(b.n / a.n))
            else:
                out.append(math.nan)
        return out


def run_study(spec: StudySpec, executor: Executor | None = None) -> ConvergenceStudy:
    """Run the sweep; the per-N runs are independent and may run concurrently.

    Each run performs exactly k update sweeps (no early stopping).  Propagator
    failures are recorded on the affected point as ``"ExceptionType: message"``
    and the study continues.
    """

    def one(n: int) -> StudyPoint:
        t_end = spec.model.t_end
        try:
            run = iterate(spec.config(n))
            return StudyPoint(
                n=n,
                dt=t_end / n,
                err_max=run.error(spec.k, "max"),
                err_final=run.error(spec.k, "final"),
                err_first_active=run.error(spec.k, "first_active"),
            )
        except Exception as exc:  # noqa: BLE001 - per-point failures are data
            return StudyPoint(n=n, dt=t_end / n, err_max=math.nan, err_final=math.nan,
                              err_first_active=math.nan, failure=f"{type(exc).__name__}: {exc}")

    if executor is None:
        results = [one(n) for n in spec.n_list]
    else:
        results = list(executor.map(one, spec.n_list))

    pts = [
        (p.n, p.metric(spec.error_metric))
        for p in results
        if p.failure is None and (spec.fit_min_n is None or p.n >= spec.fit_min_n)
    ]
    floor_hit = any(e <= spec.fit_floor for _, e in pts)
    try:
        fit = fit_order(pts, floor=spec.fit_floor)
        order, residual = fit.order, fit.residual
        window = [pts[i][0] for i in fit.window]
    except InsufficientPointsError:
        order, window, residual = math.nan, [], math.nan
    return ConvergenceStudy(
        spec=spec,
        results=results,
        fitted_order=order,
        fit_window=window,
        fit_residual=residual,
        floor_hit=floor_hit,
    )


# ---------------------------------------------------------------------------
# theoretical error bounds


@dataclass(frozen=True)
class BoundParams:
    """Constants of the convergence bounds; c1/c3 double as their reduced
    counterparts depending on which bound is evaluated."""

    c1: float = 1.0
    c2: float = 0.0
    c3: float = 1.0
    c4: float = 1.0
    c_p: float = 1.0
    l: int = 1
    p: float = math.inf
    dt: float = 1e-3
    n: int = 2
    k: int = 1

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4", "c_p"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def _holder_conjugate(p: float) -> float:
    """q with 1/p + 1/q = 1; p=1 gives q=inf (dt-decay of the defect vanishes)."""
    if p == 1:
        warnings.warn("p=1 gives q=inf: the defect bound loses its dt-decay", stacklevel=3)
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _growth(params: BoundParams) -> float:
    """Shared factor ``(1+c2*dt)^(n-k-1) / (k+1)! * prod_{j=0..k} (n-j)``."""
    n, k = params.n, params.k
    if n < k + 1:
        raise ValueError(f"bound requires n >= k+1, got n={n}, k={k}")
    prod = 1.0
    for j in range(k + 1):
        prod *= n - j
    return (1.0 + params.c2 * params.dt) ** (n - k - 1) / math.factorial(k + 1) * prod


def eval_bound(params: BoundParams, which: str) -> float:
    """Literal right-hand side of one of the convergence estimates.

    which:
      * "smooth"       -- classic bound for smooth right-hand sides,
      * "reduced-lp"   -- reduced-input bound with an L^p perturbation,
      * "reduced-linf" -- the same with p=inf (q=1),
      * "lemma"        -- the one-interval defect bound ``c4*c_p*dt^(1/q)``.
    """
    dt, l, k = params.dt, params.l, params.k
    if which == "smooth":
        if params.c1 <= 0:
            raise ValueError("smooth bound needs c1 > 0")
        return (
            params.c3 / params.c1
            * (params.c1 * dt ** (l + 1)) ** (k + 1)
            * _growth(params)
        )
    if which == "reduced-lp":
        q = _holder_conjugate(params.p)
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        first = params.c4 * params.c_p * dt ** ((l + 1) * k + inv_q)
        second = params.c3 * dt ** ((l + 1) * (k + 1))
        return params.c1**k * (first + second) * _growth(params)
    if which == "reduced-linf":
        first = params.c4 * params.c_p * dt ** ((l + 1) * k + 1)
        second = params.c3 * dt ** ((l + 1) * (k + 1))
        return params.c1**k * (first + second) * _growth(params)
    if which == "lemma":
        q = _holder_conjugate(params.p)
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        return params.c4 * params.c_p * dt**inv_q
    raise ValueError(f"unknown bound {which!r}")


# ---------------------------------------------------------------------------
# one-interval defect between the full and the reduced problem


@dataclass
class DefectStudy:
    dts: list[float]
    defects: list[float]
    slope: float
    floor_hit: bool


def defect_scaling_study(
    model: LinearScalarModel,
    reduced_input: Signal,
    dt_ladder: list[float] | None = None,
    t_start: float = 0.0,
    u_start: float | None = None,
    floor: float = 1e-16,
) -> DefectStudy:
    """Decay of the one-interval defect between full and reduced dynamics.

    Both problems are solved exactly from a common state at ``t_start`` over
    each window length in the ladder; the log-log slope of the defect is
    fitted.  For bounded inputs the defect is bounded by a constant times the
    window length, i.e. a slope of at most one is guaranteed, and the slope
    observed for generic surrogates is close to one.
    """
    if dt_ladder is None:
        dt_ladder = [model.t_end / 2**j for j in range(6, 13)]
    reduced_model = model.with_signal(reduced_input)
    u0 = model.u0 if u_start is None else u_start
    defects = []
    for dt in dt_ladder:
        full = exact_linear_propagate(model, t_start, t_start + dt, u0)
        red = exact_linear_propagate(reduced_model, t_start, t_start + dt, u0)
        defects.append(abs(full - red))
    try:
        fit = fit_order(list(zip(dt_ladder, defects)), floor=floor, min_points=2)
    except InsufficientPointsError:
        return DefectStudy(list(dt_ladder), defects, math.nan, True)
    return DefectStudy(list(dt_ladder), defects, -fit.order, len(fit.window) < len(dt_ladder))


def defect_ode_solution(model: LinearScalarModel, reduced_input: Signal, t0: float, t1: float) -> float:
    """Exact solution at t1 of the defect equation.

    For the linear scalar model the state-averaged Jacobian is the constant
    ``-R/L``, so the defect obeys ``d' = -(R/L) d + R * (w - w_red)(t)`` with
    ``d(t0) = 0``; by linearity this equals the exact propagation of the model
    driven by the difference signal from a zero state.
    """
    diff_model = model.with_signal(Difference(model.signal, reduced_input))
    return exact_linear_propagate(diff_model, t0, t1, 0.0)


# ---------------------------------------------------------------------------
# local truncation order of a propagator


@dataclass
class OrderProbe:
    """Result of a local-truncation-order measurement."""

    slope: float
    dts: list[float]
    errors: list[float]
    floor_hit: bool


def local_order_probe(
    prop: Propagator,
    reference: Propagator,
    t_start: float = 0.0,
    u_start: np.ndarray | None = None,
    n_points: int = 7,
    dt_max: float | None = None,
    floor: float = 1e-15,
) -> OrderProbe:
    """Fit the decay of the one-step defect against an exact reference.

    Measures ``||reference(t0+dt) - prop(t0+dt)||`` from a common state over a
    geometric dt ladder; the log-log slope estimates the local truncation
    order (scheme order + 1) on smooth inputs.  Points at or below ``floor``
    are flagged and excluded; if fewer than two points remain the slope is NaN.
    """
    ivp = prop.ivp
    u0 = ivp.u0 if u_start is None else np.atleast_1d(np.asarray(u_start, dtype=float))
    span = dt_max if dt_max is not None else (ivp.t_end - t_start) / 16.0
    dts, errs = [], []
    for j in range(n_points):
        dt = span / 2.0**j
        ue = reference.propagate(t_start, t_start + dt, u0)
        ua = prop.propagate(t_start, t_start + dt, u0)
        dts.append(dt)
        errs.append(float(np.max(np.abs(ue - ua))))
    try:
        fit = fit_order(list(zip(dts, errs)), floor=floor, min_points=2)
    except InsufficientPointsError:
        return OrderProbe(math.nan, dts, errs, True)
    return OrderProbe(-fit.order, dts, errs, len(fit.window) < len(dts))
