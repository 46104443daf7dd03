"""The scalar linear initial value problem ``u' = -decay * u + gain * w(t)``.

The input ``w`` is a pure-time signal that may be discontinuous (PWM).  The
model, an RL circuit driven by a current source, admits an exact per-segment
solution which serves as the fine propagator and as the reference in every
convergence experiment.  The closed form is split into the segment data of an
interval (``_segments``, which depends only on the input and the times) and
its application to a state (``_advance``), so a run can keep the former per
interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .signals import SegmentForm, Signal, parse_kv, parse_signal


class UnsupportedSignalError(ValueError):
    """Raised when the exact solver meets a segment with no closed form."""


@dataclass(frozen=True)
class SplitIvp:
    """IVP ``u' = -decay * u + gain * signal(t)``, ``u(0) = u0`` on ``(0, t_end]``.

    A record of floats and one input signal: the linear state part is split
    from the pure-time input, which may be discontinuous.  It compares, hashes
    and pickles by value.
    """

    decay: float
    gain: float
    signal: Signal
    u0: float
    t_end: float


def reduced_ivp(ivp: SplitIvp, reduced_input: Signal) -> SplitIvp:
    """Copy of the IVP with the input replaced by a smooth surrogate.

    The decay rate, gain, initial value and horizon are unchanged; the implied
    perturbation is ``Difference(ivp.signal, reduced_input)``.
    """
    if not isinstance(reduced_input, Signal):
        raise ValueError(f"expected one reduced input signal, got {reduced_input!r}")
    return replace(ivp, signal=reduced_input)


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

    # interval plans of the exact propagator that owns this instance, set only
    # while a run is in progress (``propagators.planned``); not a field
    _plans = None

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
        return SplitIvp(decay=self.decay_rate, gain=self.R_res, signal=self.signal, u0=self.u0, t_end=self.t_end)

    def with_signal(self, signal: Signal) -> "LinearScalarModel":
        return replace(self, signal=signal)


def _segment_step(a: float, gain: float, form: SegmentForm, t0: float, t1: float) -> tuple:
    """State-independent data of ``phi' = -a phi + gain * (c + A sin(w t + p))`` on one segment.

    ``(decay, steady, p0, p1)``; ``p0`` is None for a constant segment.
    ``_advance`` applies it to a state.
    """
    dt = t1 - t0
    decay = math.exp(-a * dt)
    steady = gain * form.const / a
    if form.amp == 0.0:
        return decay, steady, None, None
    den = a * a + form.omega * form.omega

    def particular(t: float) -> float:
        arg = form.omega * t + form.phase
        return gain * form.amp * (a * math.sin(arg) - form.omega * math.cos(arg)) / den

    return decay, steady, particular(t0), particular(t1)


def _segments(a: float, gain: float, sig: Signal, t0: float, t1: float):
    """The segment data of ``(t0, t1)``, one ``_segment_step`` per continuity segment, lazily."""
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
    pts = [t0] + [float(s) for s in sig.switching_times(t0, t1)] + [t1]
    for s, e in zip(pts, pts[1:]):
        form = sig.segment_form(s, e)
        if form is None:
            raise UnsupportedSignalError(
                f"signal {sig!r} has no constant-plus-sinusoid form on ({s}, {e})"
            )
        yield _segment_step(a, gain, form, s, e)


def _advance(segments, phi: float) -> float:
    """Apply segment data to the state; the one place the closed-form recurrence lives."""
    for decay, steady, p0, p1 in segments:
        if p0 is None:
            phi = (phi - steady) * decay + steady
        else:
            phi = (phi - steady - p0) * decay + steady + p1
    return phi


def _interval(plans, a: float, gain: float, sig: Signal, t0: float, t1: float):
    """The segment data of ``(t0, t1)``: its plan if ``plans`` holds one, else set up now."""
    segments = plans.get((t0, t1)) if plans else None
    return _segments(a, gain, sig, t0, t1) if segments is None else segments


def _closed_form_trajectory(a: float, gain: float, sig: Signal, times, phi: float, plans=None) -> np.ndarray:
    ts = np.asarray(times, dtype=float).tolist()
    out = np.empty(len(ts))
    out[0] = phi
    for i in range(1, len(ts)):
        phi = _advance(_interval(plans, a, gain, sig, ts[i - 1], ts[i]), phi)
        out[i] = phi
    return out


def exact_linear_propagate(model: LinearScalarModel, t0: float, t1: float, phi0: float) -> float:
    """Exact solution of the scalar linear model at ``t1`` starting from ``phi0``.

    The input must be piecewise constant or sinusoidal on its continuity
    segments (all shipped signal kinds qualify); the trajectory is composed
    segment by segment in closed form, accurate to roundoff.  While a run has
    planned the model's intervals (``propagators.planned``), a planned
    interval reuses its segment data; the result is the same bits.
    """
    return _advance(_interval(model._plans, model.decay_rate, model.R_res, model.signal, t0, t1), phi0)


def exact_trajectory(model: LinearScalarModel, times: np.ndarray, phi0: float | None = None) -> np.ndarray:
    """Exact solution sampled at an increasing time grid starting at times[0].

    Like ``exact_linear_propagate``, it chains the model's interval plans
    where a run has built them; the result is the same bits.
    """
    phi = model.u0 if phi0 is None else phi0
    return _closed_form_trajectory(model.decay_rate, model.R_res, model.signal, times, phi, model._plans)


def closed_form_trajectory(ivp: SplitIvp, times: np.ndarray) -> np.ndarray | None:
    """Exact solution of the IVP at ``times`` (from ``times[0]``), or None.

    The closed form needs a decay rate ``ivp.decay > 0``; for a model's
    ``ivp()`` this equals ``exact_trajectory`` bitwise.  A zero or negative
    decay rate, or an input with a segment that is neither constant nor
    sinusoidal, returns None.
    """
    a = ivp.decay
    if not a > 0.0:
        return None
    try:
        return _closed_form_trajectory(a, ivp.gain, ivp.signal, times, float(ivp.u0))
    except UnsupportedSignalError:
        return None


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
