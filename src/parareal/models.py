"""The scalar linear initial value problem ``u' = -decay * u + gain * w(t)``.

The input ``w`` is a pure-time signal that may be discontinuous (PWM).  The
model, an RL circuit driven by a current source, admits an exact per-segment
solution which serves as the fine propagator and as the reference of every
run: every parseable input is constant or sinusoidal between two switches
(``Signal.segment_form``), and every ``SplitIvp`` decays.  The closed form is
split into the segment data of an interval (``_segments`` cold,
``_grid_plans`` for a grid), which depends only on the input and the times,
and its application to a state (``_advance``).

The set-up that changes no result is kept for one of two lifetimes:

* per process, in the one table policy of ``signals._per_process`` (up to
  64 entries each, the least recently used dropped first): each signal's
  switch table with its segment constants; per decay rate, gain and input,
  the form of each segment between two fences of the table (0 and T the
  outer ones) and the segment data between two switches (``_step_table``),
  which no sync grid changes; and per fine problem and N, a run's reference
  (``algorithm.reference_trajectory``), so up to 64 arrays of N + 1 floats;
* per run: the plans of a run's propagators (``propagators.planned``): a
  theta propagator's substeps, or each interval's segment data, sliced from
  the per-process table between two switches and set up from its forms at
  the interval's ends, which a sync point bounds (``_grid_plans``): by table
  index where the interval holds a switch, else the form of the table
  segment that holds the interval's midpoint.  Only ``propagate`` reads
  them.

The closed-form trajectory (``_trajectory``: ``exact_trajectory``, and a run's
reference) sets its grid up the way a run plans it, on its own.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .signals import SegmentForm, Signal, _per_process, parse_signal, parse_spec


class UnsupportedSignalError(ValueError):
    """Raised when the exact solver meets a segment with no closed form."""


@dataclass(frozen=True)
class SplitIvp:
    """IVP ``u' = -decay * u + gain * signal(t)``, ``u(0) = u0`` on ``(0, t_end]``.

    A record of floats and one input signal, whose period is the horizon
    ``t_end``.  Construction, also by ``dataclasses.replace``, raises
    ``ValueError`` for any other input and for a decay rate that is not finite
    and > 0: it holds only a problem a run can solve.  It compares, hashes and
    pickles by value.
    """

    decay: float
    gain: float
    signal: Signal
    u0: float

    def __post_init__(self):
        if not isinstance(self.signal, Signal):
            raise ValueError(f"expected one input signal, got {self.signal!r}")
        if not 0 < self.decay < math.inf:  # negated, so that NaN fails too
            raise ValueError(f"the closed form needs a finite decay rate > 0, got {self.decay!r}")

    @property
    def t_end(self) -> float:
        return self.signal.period


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
        if not (0 < self.R_res < math.inf and 0 < self.L_ind < math.inf):
            raise ValueError(f"R_res and L_ind must be positive and finite, got R={self.R_res}, L={self.L_ind}")
        if not 0.0 < self.decay_rate < math.inf:
            limit = "underflows to 0" if self.decay_rate == 0.0 else "overflows to inf"
            raise ValueError(f"decay rate R/L = {self.R_res}/{self.L_ind} {limit}")

    @property
    def decay_rate(self) -> float:
        return self.R_res / self.L_ind

    @property
    def t_end(self) -> float:
        return self.signal.period

    def ivp(self) -> SplitIvp:
        return SplitIvp(decay=self.decay_rate, gain=self.R_res, signal=self.signal, u0=self.u0)

    def with_signal(self, signal: Signal) -> "LinearScalarModel":
        return replace(self, signal=signal)


def _segment_step(a: float, gain: float, form: SegmentForm, t0: float, t1: float) -> tuple:
    """State-independent data of ``phi' = -a phi + gain * (c + A sin(w t + p))`` on one segment.

    ``(em1, steady, p0, dp)``: ``em1 = exp(-a dt) - 1``, the steady state
    ``gain c / a``, and the particular solution's value at ``t0`` and its
    change over the segment; ``p0`` is None for a constant segment.
    ``_advance`` applies it to a state.
    """
    em1 = math.expm1(-a * (t1 - t0))
    steady = gain * form.const / a
    if form.amp == 0.0:
        return em1, steady, None, None
    den = a * a + form.omega * form.omega

    def particular(t: float) -> float:
        arg = form.omega * t + form.phase
        return gain * form.amp * (a * math.sin(arg) - form.omega * math.cos(arg)) / den

    p0 = particular(t0)
    return em1, steady, p0, particular(t1) - p0


def _form(sig: Signal, s: float, e: float) -> SegmentForm:
    """``sig.segment_form(s, e)`` of the continuity segment ``(s, e)`` of the input;
    ``UnsupportedSignalError`` where it has no closed form there."""
    form = sig.segment_form(s, e)
    if form is None:
        raise UnsupportedSignalError(f"signal {sig!r} has no constant-plus-sinusoid form on ({s}, {e})")
    return form


def _segments(a: float, gain: float, sig: Signal, t0: float, t1: float):
    """The segment data of ``(t0, t1)``, one ``_segment_step`` per continuity segment, lazily."""
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
    pts = [t0] + [float(s) for s in sig.switching_times(t0, t1)] + [t1]
    for s, e in zip(pts, pts[1:]):
        yield _segment_step(a, gain, _form(sig, s, e), s, e)


@_per_process
def _step_table(a: float, gain: float, sig: Signal) -> tuple[tuple[float, ...], tuple, tuple]:
    """``(switches, steps, forms)``: the input's switch table; at ``steps[j]``,
    the ``_segment_step`` of ``(switches[j], switches[j + 1])``; and at
    ``forms[j]``, the ``SegmentForm`` of the segment that ends at
    ``switches[j]`` (``forms[-1]``: the one that ends at T).

    Built once per ``(a, gain, sig)`` and process; a build that fails
    (``UnsupportedSignalError``: a segment with no closed form) is not kept.
    """
    table = sig._switch_table().floats
    fences = (0.0, *table, sig.period)
    forms = tuple(_form(sig, s, e) for s, e in zip(fences, fences[1:]))
    steps = tuple(_segment_step(a, gain, *args) for args in zip(forms[1:-1], table, table[1:]))
    return table, steps, forms


def _grid_plans(a: float, gain: float, sig: Signal, times: list[float]) -> list[tuple]:
    """``tuple(_segments(a, gain, sig, t0, t1))`` of each interval of the sync grid ``times``.

    The grid is split against the switch table in one pass
    (``Signal.grid_switches``); an interval's switches are a run of that
    table, so its segments between two switches are a slice of
    ``_step_table``.  Only its end segments, bounded by a sync point, are
    set up here.  Where the interval holds the switches ``i:j`` of the
    table, its first end segment ends at switch ``i`` and its last starts
    at switch ``j - 1``, so they take ``forms[i]`` and ``forms[j]``.  A
    switch-free interval (``i >= j``: a switch may lie within the tolerance
    of either end) takes the form of the table segment that holds its
    midpoint, as ``Signal.segment_form`` does.
    """
    switches, steps, forms = _step_table(a, gain, sig)
    plans = []
    for t0, t1, i, j in zip(times, times[1:], *sig.grid_switches(times)):
        if i < j:
            plans.append((_segment_step(a, gain, forms[i], t0, switches[i]), *steps[i : j - 1],
                          _segment_step(a, gain, forms[j], switches[j - 1], t1)))
        else:
            plans.append((_segment_step(a, gain, forms[bisect_right(switches, 0.5 * (t0 + t1))], t0, t1),))
    return plans


def _advance(segments, phi: float) -> float:
    """Apply segment data to the state; the one place the closed-form recurrence lives.

    It adds the state's change, ``(phi - steady - p0) * (exp(-a dt) - 1) + dp``, to the state, so its
    roundoff scales with the state, not with the steady state, which may be far larger."""
    for em1, steady, p0, dp in segments:
        if p0 is None:
            phi = phi + (phi - steady) * em1
        else:
            phi = phi + (phi - steady - p0) * em1 + dp
    return phi


def exact_linear_propagate(model: LinearScalarModel, t0: float, t1: float, phi0: float) -> float:
    """Exact solution of the scalar linear model at ``t1`` starting from ``phi0``.

    The input must be piecewise constant or sinusoidal on its continuity
    segments (all shipped signal kinds qualify); the trajectory is composed
    segment by segment in closed form, accurate to roundoff.  While a run has
    planned the model's intervals (``propagators.planned``), a planned
    interval reuses its segment data; the result is the same bits.
    """
    plans = model._plans
    plan = plans.get(t0) if plans else None
    if plan is not None and plan[0] == t1:
        return _advance(plan[1], phi0)
    return _advance(_segments(model.decay_rate, model.R_res, model.signal, t0, t1), phi0)


def _trajectory(a: float, gain: float, sig: Signal, times, phi: float) -> np.ndarray:
    """The closed-form chain from ``phi`` at ``times[0]`` over the increasing grid ``times``.

    A grid of two or more points is set up as a run plans it (``_grid_plans``),
    with the bits of the cold path.  A faulty grid raises as its cold calls
    would, an input with no closed form (``UnsupportedSignalError``) from the
    first table segment that has none.
    """
    ts = np.asarray(times, dtype=float).tolist()
    if not ts:
        raise ValueError("need a grid of at least one time")
    out = [float(phi)]
    for segments in _grid_plans(a, gain, sig, ts) if len(ts) > 1 else ():
        out.append(_advance(segments, out[-1]))
    return np.array(out)


def exact_trajectory(model: LinearScalarModel, times: np.ndarray) -> np.ndarray:
    """Exact solution from ``model.u0`` at ``times[0]``, sampled at the increasing grid ``times``."""
    return _trajectory(model.decay_rate, model.R_res, model.signal, times, model.u0)


def _rl(kv: dict) -> LinearScalarModel:
    return LinearScalarModel(float(kv["R"]), float(kv["L"]), parse_signal(kv["input"], period=float(kv["T"])))


# the model kind's keys with their defaults (T: the period), its constructor, and the key of its nested signal spec
_MODEL_KINDS = {
    "rl": ({"R": "0.01", "L": "0.001", "T": "0.02", "input": "pwm:m=400"}, _rl, "input"),
}


def parse_model(spec: str) -> LinearScalarModel:
    """Build a model from its CLI name (``parse_spec``), e.g. ``rl:R=0.01,L=0.001,input=pwm:m=400``; commas
    after ``input=`` stay in the signal spec, so ``input=pwm3:m=400,phase=2`` parses as one value."""
    return parse_spec(spec, "model", _MODEL_KINDS)
