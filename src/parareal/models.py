"""Initial value problems with a smooth state part plus a pure-time input.

The right-hand side is split as ``u' = f_smooth(t, u) + B @ input(t)`` where
the input may be discontinuous.  The scalar linear model (an RL circuit driven
by a current source) admits an exact per-segment solution which serves as the
fine propagator and as the reference in every convergence experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .signals import Difference, SegmentForm, Side, Signal, parse_kv, parse_signal


class UnsupportedSignalError(ValueError):
    """Raised when the exact solver meets a segment with no closed form."""


@dataclass(frozen=True, eq=False)
class SplitIvp:
    """IVP ``u' = f_smooth(t, u) + B @ w(t)``, ``u(0) = u0`` on ``(0, t_end]``.

    Parameters
    ----------
    dim : int
        State dimension.
    smooth_rhs : callable ``(t, u) -> array``
        The smooth part, Lipschitz in ``u`` with constant ``lipschitz`` and
        bounded by ``smooth_bound`` on the admissible state box.
    input_signals : tuple of Signal
        One signal per input channel.
    injection : array, shape (dim, channels)
        Constant matrix mapping input channels into the state equation.
    u0 : array, shape (dim,)
    t_end : float
    smooth_matrix : array or None
        When the smooth part is ``A @ u``, the matrix ``A``; enables the
        closed-form implicit solve in the theta stepper.
    smooth_jac : callable or None
        Jacobian of the smooth part for Newton on nonlinear problems.
    """

    dim: int
    smooth_rhs: Callable[[float, np.ndarray], np.ndarray]
    input_signals: tuple[Signal, ...]
    injection: np.ndarray
    u0: np.ndarray
    t_end: float
    lipschitz: float = 0.0
    smooth_bound: float = 0.0
    smooth_matrix: np.ndarray | None = None
    smooth_jac: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.lipschitz < 0 or self.smooth_bound < 0:
            raise ValueError("lipschitz and smooth_bound must be nonnegative")
        object.__setattr__(self, "u0", np.atleast_1d(np.asarray(self.u0, dtype=float)))
        object.__setattr__(self, "injection", np.atleast_2d(np.asarray(self.injection, dtype=float)))
        if self.injection.shape != (self.dim, len(self.input_signals)):
            raise ValueError(
                f"injection shape {self.injection.shape} does not match "
                f"(dim={self.dim}, channels={len(self.input_signals)})"
            )

    @property
    def channels(self) -> int:
        return len(self.input_signals)

    def input_vector(self, t: float, side: Side = Side.POINTWISE) -> np.ndarray:
        return np.array([sig.value(t, side) for sig in self.input_signals])

    def rhs(self, t: float, u: np.ndarray, side: Side = Side.POINTWISE) -> np.ndarray:
        return self.smooth_rhs(t, u) + self.injection @ self.input_vector(t, side)

    def input_switching_times(self, t0: float, t1: float) -> np.ndarray:
        """Union of the channels' switching instants in ``(t0, t1)``."""
        times = np.concatenate([sig.switching_times(t0, t1) for sig in self.input_signals])
        if times.size == 0:
            return times
        times = np.sort(times)
        keep = np.concatenate([[True], np.diff(times) > 1e-13 * max(t1 - t0, 1e-300)])
        return times[keep]

    def input_bound(self) -> float:
        """Sup-norm bound of ``B @ w(t)`` over the horizon."""
        sig_bounds = np.array([sig.bound() for sig in self.input_signals])
        return float(np.max(np.abs(self.injection) @ sig_bounds))


def reduced_ivp(ivp: SplitIvp, reduced_input: Signal | tuple[Signal, ...]) -> SplitIvp:
    """Copy of the IVP with the input replaced by a smooth surrogate.

    The smooth part, initial value and horizon are unchanged; the implied
    perturbation is the channel-wise difference of original and surrogate.
    """
    signals = (reduced_input,) if isinstance(reduced_input, Signal) else tuple(reduced_input)
    if len(signals) != ivp.channels:
        raise ValueError(f"expected {ivp.channels} reduced channels, got {len(signals)}")
    return replace(ivp, input_signals=signals)


def perturbation_signals(ivp: SplitIvp, reduced: SplitIvp) -> tuple[Difference, ...]:
    """Channel-wise difference between the full and the reduced input."""
    if ivp.channels != reduced.channels:
        raise ValueError("channel count mismatch")
    return tuple(Difference(a, b) for a, b in zip(ivp.input_signals, reduced.input_signals))


# ---------------------------------------------------------------------------
# RL circuit


@dataclass(frozen=True)
class LinearScalarModel:
    """Scalar linear circuit ``phi' = -(R/L) phi + R * w(t)``, ``phi(0) = 0``.

    This is the state-space form of ``(1/R) phi' + (1/L) phi = w(t)`` with
    resistance ``R`` (ohm) and inductance ``L`` (henry).
    """

    R_res: float
    L_ind: float
    signal: Signal
    u0: float = 0.0
    state_halfwidth: float = 1.0

    def __post_init__(self):
        if not (self.R_res > 0 and self.L_ind > 0):
            raise ValueError("R_res and L_ind must be positive")

    @property
    def decay_rate(self) -> float:
        return self.R_res / self.L_ind

    @property
    def t_end(self) -> float:
        return self.signal.period

    def ivp(self) -> SplitIvp:
        a = self.decay_rate

        def smooth(t, u):
            return -a * u

        def jac(t, u):
            return np.array([[-a]])

        return SplitIvp(
            dim=1,
            smooth_rhs=smooth,
            input_signals=(self.signal,),
            injection=np.array([[self.R_res]]),
            u0=np.array([self.u0]),
            t_end=self.t_end,
            lipschitz=a,
            smooth_bound=a * self.state_halfwidth,
            smooth_matrix=np.array([[-a]]),
            smooth_jac=jac,
        )

    def with_signal(self, signal: Signal) -> "LinearScalarModel":
        return replace(self, signal=signal)


def _segment_step(a: float, gain: float, form: SegmentForm, t0: float, t1: float, phi: float) -> float:
    """Advance ``phi' = -a phi + gain * (c + A sin(w t + p))`` across one segment."""
    dt = t1 - t0
    decay = math.exp(-a * dt)
    steady = gain * form.const / a
    if form.amp == 0.0:
        return (phi - steady) * decay + steady
    den = a * a + form.omega * form.omega

    def particular(t: float) -> float:
        arg = form.omega * t + form.phase
        return gain * form.amp * (a * math.sin(arg) - form.omega * math.cos(arg)) / den

    return (phi - steady - particular(t0)) * decay + steady + particular(t1)


def _closed_form_propagate(a: float, gain: float, sig: Signal, t0: float, t1: float, phi0: float) -> float:
    """``phi' = -a phi + gain * sig(t)`` from ``phi0`` at ``t0`` to ``t1``, segment by segment."""
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
    pts = [t0] + [float(s) for s in sig.switching_times(t0, t1)] + [t1]
    phi = phi0
    for s, e in zip(pts, pts[1:]):
        form = sig.segment_form(s, e)
        if form is None:
            raise UnsupportedSignalError(
                f"signal {sig!r} has no constant-plus-sinusoid form on ({s}, {e})"
            )
        phi = _segment_step(a, gain, form, s, e, phi)
    return phi


def _closed_form_trajectory(a: float, gain: float, sig: Signal, times: np.ndarray, phi: float) -> np.ndarray:
    out = np.empty(len(times))
    out[0] = phi
    for i in range(1, len(times)):
        phi = _closed_form_propagate(a, gain, sig, times[i - 1], times[i], phi)
        out[i] = phi
    return out


def exact_linear_propagate(model: LinearScalarModel, t0: float, t1: float, phi0: float) -> float:
    """Exact solution of the scalar linear model at ``t1`` starting from ``phi0``.

    The input must be piecewise constant or sinusoidal on its continuity
    segments (all shipped signal kinds qualify); the trajectory is composed
    segment by segment in closed form, accurate to roundoff.
    """
    return _closed_form_propagate(model.decay_rate, model.R_res, model.signal, t0, t1, phi0)


def exact_trajectory(model: LinearScalarModel, times: np.ndarray, phi0: float | None = None) -> np.ndarray:
    """Exact solution sampled at an increasing time grid starting at times[0]."""
    phi = model.u0 if phi0 is None else phi0
    return _closed_form_trajectory(model.decay_rate, model.R_res, model.signal, times, phi)


def closed_form_trajectory(ivp: SplitIvp, times: np.ndarray) -> np.ndarray | None:
    """Exact solution of a scalar linear IVP at ``times`` (from ``times[0]``), or None.

    The closed form exists for ``u' = -a u + gain * w(t)`` with one input
    channel and decay rate ``a = -smooth_matrix[0, 0] > 0``, the domain of
    ``LinearScalarModel``; for its ``ivp()`` this equals ``exact_trajectory``
    bitwise.  Other problems, and inputs with a segment that is neither
    constant nor sinusoidal, return None.
    """
    if ivp.dim != 1 or ivp.channels != 1 or ivp.smooth_matrix is None:
        return None
    a = -float(ivp.smooth_matrix[0, 0])
    if not a > 0.0:
        return None
    gain = float(ivp.injection[0, 0])
    try:
        return _closed_form_trajectory(a, gain, ivp.input_signals[0], times, float(ivp.u0[0]))
    except UnsupportedSignalError:
        return None


# ---------------------------------------------------------------------------
# admissibility probe


@dataclass
class CaratheodoryReport:
    """Numerical probe of the solvability conditions for a split IVP."""

    continuity_in_u: bool
    measurable_in_t: bool
    dominated: bool
    lipschitz_estimate: float
    lipschitz_ok: bool
    domination_bound: float

    @property
    def passed(self) -> bool:
        return self.continuity_in_u and self.measurable_in_t and self.dominated and self.lipschitz_ok


def caratheodory_check(ivp: SplitIvp, sample_count: int = 1000, seed: int = 0) -> CaratheodoryReport:
    """Probe continuity in u, finiteness in t, domination and the Lipschitz bound.

    The sampled Lipschitz quotient must not exceed ``1.05 * ivp.lipschitz``;
    exceeding it is reported as a failure, not raised.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be >= 100")
    rng = np.random.default_rng(seed)
    box = max(1e-30, np.max(np.abs(ivp.u0)) + 1.0)
    horizon = ivp.t_end if math.isfinite(ivp.t_end) else 1.0

    ts = rng.uniform(0.0, horizon, sample_count)
    us = rng.uniform(-box, box, (sample_count, ivp.dim))
    vs = rng.uniform(-box, box, (sample_count, ivp.dim))

    # measurability probe: the rhs evaluates finitely along random times
    measurable = all(np.all(np.isfinite(ivp.rhs(t, u))) for t, u in zip(ts[:200], us[:200]))

    # domination: max sampled ||f(t, u)|| against declared smooth + input bounds
    max_norm = 0.0
    for t, u in zip(ts, us):
        max_norm = max(max_norm, float(np.max(np.abs(ivp.rhs(t, u)))))
    declared = ivp.smooth_bound * box + ivp.input_bound()
    dominated = math.isfinite(max_norm) and max_norm <= declared * 1.05 + 1e-12

    # continuity in u: shrinking perturbations yield shrinking increments
    continuity = True
    for t, u in zip(ts[:50], us[:50]):
        base = ivp.smooth_rhs(t, u)
        prev = math.inf
        for delta in (1e-2, 1e-4, 1e-6):
            d = rng.uniform(-1.0, 1.0, ivp.dim)
            d *= delta / max(np.max(np.abs(d)), 1e-300)
            inc = float(np.max(np.abs(ivp.smooth_rhs(t, u + d) - base)))
            if inc > prev * 1.5 + 1e-12:
                continuity = False
            prev = inc
        if prev > 1e-4 * (1.0 + float(np.max(np.abs(base)))):
            continuity = False

    # Lipschitz estimate from difference quotients of the smooth part
    lip = 0.0
    for t, u, v in zip(ts, us, vs):
        du = float(np.max(np.abs(u - v)))
        if du < 1e-12:
            continue
        df = float(np.max(np.abs(ivp.smooth_rhs(t, u) - ivp.smooth_rhs(t, v))))
        lip = max(lip, df / du)

    return CaratheodoryReport(
        continuity_in_u=continuity,
        measurable_in_t=measurable,
        dominated=dominated,
        lipschitz_estimate=lip,
        lipschitz_ok=lip <= 1.05 * ivp.lipschitz + 1e-300,
        domination_bound=max_norm,
    )


def parse_model(spec: str, default_period: float = 0.02) -> LinearScalarModel:
    """Build a model from its CLI name, e.g. ``rl:R=0.01,L=0.001,input=pwm:m=400``.

    The keys are ``R``, ``L``, ``T`` (the period) and ``input`` (a signal
    spec), in the ``parse_kv`` grammar; commas after ``input=`` stay in the
    signal spec, so ``input=pwm3:m=400,phase=2`` parses as one value.
    """
    head, _, body = spec.strip().partition(":")
    if head != "rl":
        raise ValueError(f"unknown model kind {head!r} in {spec!r}")
    defaults = {"R": "0.01", "L": "0.001", "T": repr(default_period), "input": "pwm:m=400"}
    kv = parse_kv(body, defaults, nested="input")
    return LinearScalarModel(
        R_res=float(kv["R"]),
        L_ind=float(kv["L"]),
        signal=parse_signal(kv["input"], period=float(kv["T"])),
    )
