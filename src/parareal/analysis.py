"""Convergence-order studies, log-log fitting and theoretical bound evaluation.

A study sweeps the interval count N at a fixed iteration count k, records the
error of the k-th iterate against the exact reference under several metrics
and fits the observed order as the negative log-log slope versus N, over the
points above ``ERROR_FLOOR``, the double-precision floor.  A study keeps no
set-up of its own: its runs draw on the set-up kept per process, and each run
sets up its own plans (``models`` describes the two set-up lifetimes).

The one error bound (``eval_bound``, the classic one at ``c_p = 0``) reads its
constants off a run's propagators (``_bound_constants``), so it can be checked
against the errors the run measures.  The dt-ladder measurements, the defect
between the full and reduced problems (``defect_scaling_study``: two exact
solves) and a propagator's local truncation order (``local_order_probe``),
share one loop and one record (``OrderProbe``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algorithm import FixedIterations, PararealConfig, iterate, make_config, reference_trajectory
from .models import LinearScalarModel
from .propagators import ExactLinearPropagator, Propagator, ThetaPropagator, parse_propagator, planned
from .signals import Signal, StepWave

ERROR_FLOOR = 1e-13

DEFAULT_N_LIST = (5, 10, 20, 40, 80, 160, 320)


class InsufficientPointsError(ValueError):
    """Fewer than the required number of points above the error floor."""


@dataclass
class OrderFit:
    order: float
    window: list[int]  # indices of the points used


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
    slope, _ = np.polyfit(xs, ys, 1)
    return OrderFit(order=float(-slope), window=window)


# ---------------------------------------------------------------------------
# convergence studies


@dataclass
class StudySpec:
    """One convergence sweep: model, algorithm variant and the N grid.

    Every point is the run ``make_config`` builds: exact fine propagator,
    coarse propagator ``coarse_scheme`` (a ``parse_propagator`` spec: "be",
    "cn", "exact", "be:substeps=4", ...), on the smoothed-input problem
    ``reduced_input`` in the "reduced" variant (the "original" variant takes
    none), and exactly ``k`` update sweeps.  ``error_metric`` is one of "max" (largest error over all sync
    points, the default), "final" (error at t_end) or "first_active" (error
    at the first sync point not rendered exact by finite termination, n =
    k+1).  With a step-function reduced input and a Crank-Nicolson scheme
    the N list keeps only even entries so the jump sits on an interval
    boundary.
    """

    model: LinearScalarModel
    variant: str = "original"  # "original" | "reduced"
    coarse_scheme: str = "be"
    reduced_input: Signal | None = None
    k: int = 1
    n_list: tuple[int, ...] = DEFAULT_N_LIST
    error_metric: str = "max"
    fit_min_n: int | None = None  # fit only points with N >= this

    def __post_init__(self):
        if self.variant not in ("original", "reduced"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.k < 1 or any(n < 1 for n in self.n_list):
            raise ValueError(f"need k >= 1 and every N >= 1, got k={self.k!r}, n_list={self.n_list!r}")
        if self.error_metric not in ("max", "final", "first_active"):
            raise ValueError(f"unknown error metric {self.error_metric!r}; known: max, final, first_active")
        if self.variant == "reduced" and self.reduced_input is None:
            raise ValueError("reduced variant needs a reduced_input signal")
        if self.variant == "original" and self.reduced_input is not None:
            raise ValueError("original variant takes no reduced_input signal: its coarse input is the model's")
        coarse = parse_propagator(self.coarse_scheme, self.model.ivp(), self.model)  # a bad spec raises ValueError
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError("n_list must be strictly increasing")
        if isinstance(coarse, ThetaPropagator) and coarse.theta == 0.5 and isinstance(self.reduced_input, StepWave):
            self.n_list = tuple(n for n in self.n_list if n % 2 == 0)

    def config(self, n: int) -> PararealConfig:
        return make_config(
            self.model,
            n,
            coarse=self.coarse_scheme,
            reduced_input=self.reduced_input,
            termination=FixedIterations(self.k),
        )


@dataclass
class StudyPoint:
    n: int
    dt: float
    err_max: float
    err_final: float
    err_first_active: float
    failure: str | None = None  # "ExceptionType: message"
    failure_type: type[Exception] | None = None

    def metric(self, name: str) -> float:
        return {"max": self.err_max, "final": self.err_final, "first_active": self.err_first_active}[name]


@dataclass
class ConvergenceStudy:
    spec: StudySpec
    results: list[StudyPoint]
    fitted_order: float
    fit_window: list[int]  # the N values that entered the fit
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


def run_study(spec: StudySpec) -> ConvergenceStudy:
    """Run the sweep: one run per N, in ``n_list`` order, in the calling thread.

    Each run performs exactly k update sweeps (no early stopping).  Propagator
    failures are recorded on the affected point as ``"ExceptionType: message"``
    with the exception's class as ``failure_type``, and the study continues.
    Each point has the bits of the same run made alone: a study shares no set-up
    among its runs beyond the per-process tables (``models``), whose references
    a repeated study, or another series on the same circuit, finds again.
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
                              err_first_active=math.nan, failure=f"{type(exc).__name__}: {exc}",
                              failure_type=type(exc))

    results = [one(n) for n in spec.n_list]

    pts = [
        (p.n, p.metric(spec.error_metric))
        for p in results
        if p.failure is None and (spec.fit_min_n is None or p.n >= spec.fit_min_n)
    ]
    floor_hit = any(e <= ERROR_FLOOR for _, e in pts)
    try:
        fit = fit_order(pts)
        order = fit.order
        window = [pts[i][0] for i in fit.window]
    except InsufficientPointsError:
        order, window = math.nan, []
    return ConvergenceStudy(
        spec=spec,
        results=results,
        fitted_order=order,
        fit_window=window,
        floor_hit=floor_hit,
    )


# ---------------------------------------------------------------------------
# theoretical error bounds


@dataclass(frozen=True)
class BoundParams:
    """Constants of the bounds of ``eval_bound``; ``c_p = 0`` gives the classic bound."""

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


def _inv_q(p: float) -> float:
    """``1/q`` with ``1/p + 1/q = 1``; p=1 gives q=inf, so 0 (dt-decay of the defect vanishes)."""
    if p == 1:
        warnings.warn("p=1 gives q=inf: the defect bound loses its dt-decay", stacklevel=3)
        return 0.0
    if math.isinf(p):
        return 1.0
    return 1.0 / (p / (p - 1.0))


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
      * "reduced-lp" -- reduced-input bound with an L^p perturbation; with
        ``c_p = 0``, the classic bound of Gander & Vandewalle (SISC 2007);
      * "lemma"      -- the one-interval defect bound ``c4*c_p*dt^(1/q)``.
    """
    dt, l, k = params.dt, params.l, params.k
    if which == "reduced-lp":
        first = params.c4 * params.c_p * dt ** ((l + 1) * k + _inv_q(params.p))
        second = params.c3 * dt ** ((l + 1) * (k + 1))
        return params.c1**k * (first + second) * _growth(params)
    if which == "lemma":
        return params.c4 * params.c_p * dt ** _inv_q(params.p)
    raise ValueError(f"unknown bound {which!r}")


def _slopes(prop: Propagator, times: list[float]) -> list[float]:
    """``A_n = P_n(1) - P_n(0)`` on each interval of ``times``: the slope of the affine map
    ``P_n(u) = A_n*u + B_n`` of the linear problem's propagator over interval ``n``."""
    return [prop.propagate(t0, t1, 1.0) - prop.propagate(t0, t1, 0.0) for t0, t1 in zip(times, times[1:])]


def _sup_distance(w: Signal, v: Signal, t_end: float) -> float:
    """``sup |w - v|`` over ``[0, t_end]``, exactly, from the two inputs' switches and segment forms.

    Between two switches of either input, each is a constant plus a sinusoid
    (``segment_form``), of the one frequency that inputs on one horizon share, so
    their difference is ``c + B sin(omega t + psi)``: its sup on the piece is at
    one of the piece's ends or at an interior extremum, ``c + B`` or ``c - B``.
    """
    fences = sorted({0.0, t_end, *w.switching_times(0.0, t_end).tolist(), *v.switching_times(0.0, t_end).tolist()})
    sup = 0.0
    for s, e in zip(fences, fences[1:]):
        f, g = w.segment_form(s, e), v.segment_form(s, e)
        c = f.const - g.const
        x = f.amp * math.cos(f.phase) - g.amp * math.cos(g.phase)
        y = f.amp * math.sin(f.phase) - g.amp * math.sin(g.phase)
        b, psi, omega = math.hypot(x, y), math.atan2(y, x), f.omega if f.amp else g.omega
        values = [c + b * math.sin(omega * t + psi) for t in (s, e)]
        if b:  # the extrema at omega t + psi = pi/2 + j pi inside the piece
            j = math.ceil((omega * s + psi) / math.pi - 0.5)
            values += [c + b * (-1) ** i for i in (j, j + 1) if (i + 0.5) * math.pi < omega * e + psi]
        sup = max(sup, *map(abs, values))
    return sup


def _bound_constants(model: LinearScalarModel, cfg: PararealConfig) -> BoundParams:
    """The constants of the bound on the run ``cfg`` of ``model``, read off its propagators.

    ``cfg`` makes exactly ``k`` sweeps (``FixedIterations``) with a be or cn
    coarse propagator, of order ``l`` 1 or 2.  With ``A_n`` the slopes of the
    fine and coarse propagators (``_slopes``), ``dt = T/N`` and ``u`` the run's
    reference at the sync points:

    * ``c1 = max_n |A^F_n - A^G_n| / dt^(l+1)``;
    * ``c2 = max(0, (max_n |A^G_n| - 1) / dt)``;
    * ``c3 = max_n |E_n(u(T_{n-1})) - G_n(u(T_{n-1}))| / dt^(l+1)``, where ``E``
      solves the coarse propagator's own problem exactly;
    * ``c4 = R`` and ``c_p = sup |w - w_red|`` (``p = inf``), 0 in the original variant.

    The returned record has ``n = k + 1``; ``eval_bound(replace(params, n=n),
    "reduced-lp")`` bounds the error at sync point ``n``, in either variant
    (with ``c_p = 0`` it is the classic bound).
    """
    theta = getattr(cfg.coarse, "theta", None)
    if theta not in (1.0, 0.5):
        kind = "an exact" if theta is None else f"a theta={theta}"
        raise ValueError(f"the bound needs a be or cn coarse propagator, of order l = 1 or 2; {kind} one has none")
    l = 1 if theta == 1.0 else 2
    times, dt, k = cfg._times, model.t_end / cfg.n_intervals, cfg.termination.k
    coarse_signal = cfg.coarse.ivp.signal
    exact = ExactLinearPropagator(model.with_signal(coarse_signal))
    u = reference_trajectory(cfg)[:, 0].tolist()
    with planned([cfg.fine, cfg.coarse, exact], times):
        a_fine, a_coarse = _slopes(cfg.fine, times), _slopes(cfg.coarse, times)
        defects = [abs(exact.propagate(t0, t1, v) - cfg.coarse.propagate(t0, t1, v))
                   for t0, t1, v in zip(times, times[1:], u)]
    return BoundParams(
        c1=max(abs(f - g) for f, g in zip(a_fine, a_coarse)) / dt ** (l + 1),
        c2=max(0.0, (max(map(abs, a_coarse)) - 1.0) / dt),
        c3=max(defects) / dt ** (l + 1),
        c4=model.R_res,
        c_p=_sup_distance(model.signal, coarse_signal, model.t_end),
        l=l, p=math.inf, dt=dt, n=k + 1, k=k,
    )


# ---------------------------------------------------------------------------
# dt ladders: one-interval differences between two propagators


@dataclass
class OrderProbe:
    """A dt ladder's one-interval differences and their fitted log-log slope."""

    slope: float
    dts: list[float]
    errors: list[float]
    floor_hit: bool


def _ladder(reference: Propagator, approx: Propagator, t_start: float, u_start, dts: list, floor: float) -> OrderProbe:
    """``|reference - approx|`` over ``(t_start, t_start + dt)`` for each ``dt`` of ``dts``, from ``u_start``
    (default ``approx``'s initial value), and its slope fitted above ``floor``, NaN under two points."""
    u0 = approx.ivp.u0 if u_start is None else u_start
    errs = [abs(reference.propagate(t_start, t_start + dt, u0) - approx.propagate(t_start, t_start + dt, u0))
            for dt in dts]
    try:
        fit = fit_order(list(zip(dts, errs)), floor=floor, min_points=2)
    except InsufficientPointsError:
        return OrderProbe(math.nan, list(dts), errs, True)
    return OrderProbe(-fit.order, list(dts), errs, len(fit.window) < len(dts))


def defect_scaling_study(
    model: LinearScalarModel,
    reduced_input: Signal,
    dt_ladder: list[float] | None = None,
    t_start: float = 0.0,
    u_start: float | None = None,
) -> OrderProbe:
    """Decay of the one-interval defect between full and reduced dynamics.

    Both problems are solved exactly from a common state at ``t_start`` over
    each window length in the ladder (default ``T/2**6 ... T/2**12``); the
    log-log slope of the defect (``errors``) is fitted above 1e-16.  For
    bounded inputs the defect is bounded by a constant times the window
    length, so a slope of one is guaranteed as the window shrinks.  A window
    inside one tooth of a PWM input shows a slope of one where the two inputs
    differ at ``t_start``, and of two where their difference starts at 0 (the
    sine surrogate at t = 0); a ladder across switches need show no power law.
    """
    if dt_ladder is None:
        dt_ladder = [model.t_end / 2**j for j in range(6, 13)]
    full, reduced = ExactLinearPropagator(model), ExactLinearPropagator(model.with_signal(reduced_input))
    return _ladder(full, reduced, t_start, u_start, dt_ladder, 1e-16)


def local_order_probe(
    prop: Propagator,
    reference: Propagator,
    t_start: float = 0.0,
    u_start: float | None = None,
    dt_max: float | None = None,
) -> OrderProbe:
    """Fit the decay of the one-step defect against an exact reference.

    Measures ``|reference(t0+dt) - prop(t0+dt)|`` from a common state over the
    seven-point halving ladder from ``dt_max`` (default a sixteenth of the
    span to the horizon); the log-log slope estimates the local truncation
    order (scheme order + 1) on smooth inputs.  Points at or below 1e-15 are
    flagged and excluded; if fewer than two points remain the slope is NaN.
    """
    span = dt_max if dt_max is not None else (prop.ivp.t_end - t_start) / 16.0
    return _ladder(reference, prop, t_start, u_start, [span / 2.0**j for j in range(7)], 1e-15)
