"""Coarse and fine propagators: implicit theta methods and the exact solver.

A propagator maps ``(t0, t1, u0)`` to the state at ``t1`` of its scalar
linear IVP; the state is a float or a one-element array, and the result a
one-element array.  The theta family covers Backward Euler (theta=1, order 1)
and Crank-Nicolson (theta=1/2, order 2), stepped in plain floats; the exact
adapter wraps the closed-form linear solver.

Each call splits into a state-independent set-up of the interval (the theta
substeps' step sizes, input values and denominators; the exact solver's
segments) and the state recurrence over it.  ``planned`` does the set-up of
every sync interval once for the duration of a run, so the run's repeated
calls on an interval run only the recurrence, with the same bits.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .models import LinearScalarModel, SplitIvp, _segments, exact_linear_propagate
from .signals import Side, parse_kv


class NonFiniteStateError(RuntimeError):
    """A propagated state stopped being finite.

    ``k`` and ``n`` locate it in a run (iteration, interval) where ``iterate``
    knows them, else they are None.
    """

    def __init__(self, message: str, *, k: int | None = None, n: int | None = None):
        super().__init__(message)
        self.k = k
        self.n = n


def scalar_state(u) -> float:
    """The state as a float: a float, or an array with exactly one element."""
    if type(u) is float:
        return u
    u = np.asarray(u, dtype=float)
    if u.size != 1:
        raise ValueError(f"expected a scalar state, got {u.size} elements")
    return u.item()


class Propagator:
    """Common protocol: pure and concurrency-safe.  A run may attach interval
    plans (``planned``) for its duration; they change no result."""

    ivp: SplitIvp

    def propagate(self, t0: float, t1: float, u0: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class ExactLinearPropagator(Propagator):
    """Exact segment-composed solution of a scalar linear model.

    Its plans live on its own model instance, where ``exact_linear_propagate``
    finds them.
    """

    model: LinearScalarModel

    @property
    def ivp(self) -> SplitIvp:  # type: ignore[override]
        return self.model.ivp()

    def propagate(self, t0, t1, u0):
        return np.array([exact_linear_propagate(self.model, t0, t1, scalar_state(u0))])


@dataclass(frozen=True, eq=False)
class ThetaPropagator(Propagator):
    """One-step theta method with a fixed number of equal substeps.

    Each substep solves

        u1 = u0 + h * (theta * f(t1, u1) + (1 - theta) * f(t0, u0))

    for ``f(t, u) = -decay * u + gain * w(t)``, with the discontinuous input evaluated one-sidedly when a substep
    boundary coincides with a switching instant: the value governing the
    substep's interior is used (right limit at the left endpoint, left limit
    at the right endpoint), so single-step methods restart cleanly at jumps
    that lie on the grid.

    With ``discontinuity_aligned`` the substep grid is additionally split at
    every switching instant of the input.
    """

    ivp: SplitIvp
    theta: float = 1.0
    substeps: int = 1
    discontinuity_aligned: bool = False

    # interval plans, set only while a run is in progress (``planned``); not a field
    _plans = None

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")

    def _grid(self, t0: float, t1: float) -> list[float]:
        if self.substeps == 1 and not self.discontinuity_aligned:
            return [float(t0), float(t1)]  # what np.linspace(t0, t1, 2) holds
        grid = np.linspace(t0, t1, self.substeps + 1)
        if self.discontinuity_aligned:
            switches = self.ivp.signal.switching_times(t0, t1)
            if switches.size:
                merged = np.union1d(grid, switches)
                # drop near-duplicates created by roundoff-level coincidences
                keep = np.concatenate([[True], np.diff(merged) > 1e-13 * (t1 - t0)])
                grid = merged[keep]
        return grid.tolist()

    def propagate(self, t0, t1, u0):
        u = scalar_state(u0)
        plans = self._plans
        steps = plans.get((t0, t1)) if plans else None
        return np.array([self._sweep(self._steps(t0, t1) if steps is None else steps, u)])

    def _steps(self, t0: float, t1: float):
        """The substeps of ``(t0, t1)``: an iterator of ``(h, p_s, theta*p_e, den, end)``.

        This is the state-independent part of the sweep: ``p = 0.0 + gain *
        input``, one-sided at the substep's ends, and ``den = 1 - h*theta*a``
        with ``a = -decay``.  The sum starting at +0.0 turns a -0.0 product
        into +0.0, as the 1x1 product ``[[gain]] @ [input]`` does.
        """
        if not t0 < t1:
            raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
        ivp = self.ivp
        a = -ivp.decay
        th = self.theta
        gain, value = ivp.gain, ivp.signal.value
        right, left = Side.RIGHT_LIMIT, Side.LEFT_LIMIT
        grid = self._grid(t0, t1)
        ends = grid[1:]
        hs = [e - s for s, e in zip(grid, ends)]
        return zip(
            hs,
            [0.0 + gain * value(s, right) for s in grid[:-1]],
            [th * (0.0 + gain * value(e, left)) for e in ends],
            [1.0 - h * th * a for h in hs],
            ends,
        )

    def _sweep(self, steps, u: float) -> float:
        """Apply substeps to the state in plain floats: ``num = u +
        h*((1-theta)*(a*u + p_s) + theta*p_e)``, then ``u = num / den``."""
        a = -self.ivp.decay
        c = 1.0 - self.theta
        for h, p_s, th_p_e, den, e in steps:
            if h <= 0.0:
                raise ValueError("degenerate substep")
            num = u + h * (c * (a * u + p_s) + th_p_e)
            u = num / den if den != 0.0 else math.inf  # den == 0: the implicit solve's pole
            if not math.isfinite(u):
                raise NonFiniteStateError(f"non-finite state after step ending at t={e}")
        return u


def _interval_plans(setup, times: list[float]) -> dict:
    """``{(t0, t1): tuple(setup(t0, t1))}`` over the intervals of ``times``.

    An interval whose set-up fails is left out: its call then runs cold and
    raises the same error at the same point of the run.
    """
    plans = {}
    for t0, t1 in zip(times, times[1:]):
        try:
            plans[(t0, t1)] = tuple(setup(t0, t1))
        except Exception:  # noqa: BLE001 - not swallowed: the cold call raises it again, in its place in the run
            pass
    return plans


@contextmanager
def planned(props, times: list[float]):
    """Plan every interval of the sync grid ``times`` for ``props`` while the block runs.

    A plan holds an interval's state-independent data: a theta propagator's
    substeps (``_steps``), or the exact solver's segments
    (``models._segments``).  A planned ``propagate`` call runs only the state
    recurrence, the same code and bits as a cold call.  Propagators of other
    types are skipped, and so is a holder that already has plans.  Plans are
    dropped when the block ends, also on an error.
    """
    holders = []
    for prop in props:
        if isinstance(prop, ThetaPropagator):
            holder, setup = prop, prop._steps
        elif isinstance(prop, ExactLinearPropagator):
            holder = prop.model
            setup = functools.partial(_segments, holder.decay_rate, holder.R_res, holder.signal)
        else:
            continue
        if holder._plans is None:
            object.__setattr__(holder, "_plans", _interval_plans(setup, times))
            holders.append(holder)
    try:
        yield
    finally:
        for holder in holders:
            object.__setattr__(holder, "_plans", None)


def parse_propagator(spec: str, ivp: SplitIvp, model: LinearScalarModel | None = None) -> Propagator:
    """Build a propagator from its CLI name: ``be``, ``cn`` or ``exact``.

    The theta schemes take ``substeps=<int>`` (default 1) and ``aligned=0|1``
    (default 0), in the ``parse_kv`` grammar: ``cn:substeps=500,aligned=1``.
    """
    head, _, body = spec.strip().partition(":")
    if head == "exact":
        parse_kv(body, {})
        if model is None:
            raise ValueError("exact propagator needs a scalar linear model")
        return ExactLinearPropagator(model.with_signal(ivp.signal))
    theta = {"be": 1.0, "cn": 0.5}.get(head)
    if theta is None:
        raise ValueError(f"unknown propagator {spec!r}")
    kv = parse_kv(body, {"substeps": "1", "aligned": "0"})
    if kv["aligned"] not in ("0", "1"):
        raise ValueError(f"aligned must be 0 or 1, got {kv['aligned']!r}")
    return ThetaPropagator(
        ivp, theta=theta, substeps=int(kv["substeps"]), discontinuity_aligned=kv["aligned"] == "1"
    )
