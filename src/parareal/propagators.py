"""Coarse and fine propagators: implicit theta methods and the exact solver.

A propagator maps ``(t0, t1, u)`` to the state at ``t1`` of its scalar
linear IVP: a float in, a float out.  A one-element array is accepted as the
state too (``scalar_state``), a longer one raises ``ValueError``.  The theta
family covers Backward Euler (theta=1, order 1) and Crank-Nicolson
(theta=1/2, order 2), stepped in plain floats; the exact adapter wraps the
closed-form linear solver.

Each call splits into a state-independent set-up of the interval (the theta
substeps' step sizes, input values and denominators; the exact solver's
segments) and the state recurrence over it.  ``planned`` sets up the whole
sync grid once for the duration of a run, in one pass, so the run's repeated
calls on an interval run only the recurrence, with the same bits; a cold call
runs the same set-up on its own two-point grid.  A plan is found by the start
of its interval and used only by a call that ends where the plan does.

A theta plan is one step: only a theta propagator that takes one step per
interval (one substep, not aligned) is planned, and its grid's nodes are the
sync grid itself.  A multi-step one always runs cold, one interval per
set-up: ``np.linspace`` over the interval, merged with the input's switches
where the substeps are aligned with them (``_grid``).  A theta set-up looks
up the input at the two ends of its grid with ``Signal.value``; the rest of
it is whole-array work.  The nodes between the ends (each the end of one
substep and the start of the next) take both one-sided input values in one
array lookup (``Signal._limits_array``), and the four float columns of the
set-up (step size, start input term, theta times the end input term,
denominator) are array expressions with the IEEE operations of the
per-substep formulas in their order.  An array reduction proves the set-up
clean: every step size positive; a ``SplitIvp`` decays, so no denominator is
zero.  The recurrence over a clean set-up runs without per-step checks and
tests the final state once.  A failure, an unclean set-up or a final state
that is not finite, is located by running the interval again through the
checked loop, which raises at the same step and with the same message as a
check at every step.  The exact solver's plans draw on set-up kept per
process; ``models`` describes the two lifetimes.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .models import LinearScalarModel, SplitIvp, _grid_plans, exact_linear_propagate
from .signals import MERGE_TOL, Side, parse_spec


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
    """The state as a float, from an array with exactly one element (callers pass a float on as it is)."""
    u = np.asarray(u, dtype=float)
    if u.size != 1:
        raise ValueError(f"expected a scalar state, got {u.size} elements")
    return u.item()


class Propagator:
    """Common protocol: ``propagate(t0, t1, u)`` maps the scalar state ``u`` at
    ``t0`` to the float state at ``t1``, pure and concurrency-safe.  A run may
    attach interval plans (``planned``) for its duration; they change no result."""

    ivp: SplitIvp

    def propagate(self, t0: float, t1: float, u: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class ExactLinearPropagator(Propagator):
    """Exact segment-composed solution of a scalar linear model.

    Its ``ivp`` is the model's, built once.  Its plans live on its own model
    instance, where ``exact_linear_propagate`` finds them.
    """

    model: LinearScalarModel

    def __post_init__(self):
        object.__setattr__(self, "ivp", self.model.ivp())

    def propagate(self, t0, t1, u):
        return exact_linear_propagate(self.model, t0, t1, u if type(u) is float else scalar_state(u))


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
        if not isinstance(self.substeps, (int, np.integer)) or isinstance(self.substeps, bool):
            raise ValueError(f"substeps must be an integer, got {self.substeps!r}")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        object.__setattr__(self, "_a", -self.ivp.decay)
        object.__setattr__(self, "_c", 1.0 - self.theta)

    def _grid(self, times: Sequence[float]) -> np.ndarray:
        """The substep nodes of the increasing grid ``times``, as one array.

        A one-step propagator's nodes are ``times`` itself, a whole sync grid
        or one interval.  A multi-step one's grid is one interval ``(t0, t1)``:
        its ``substeps + 1`` equally spaced nodes (``np.linspace``), merged
        with the input's switches inside it when aligned.
        """
        if not all(map(operator.lt, times, times[1:])):
            t0, t1 = next((t0, t1) for t0, t1 in zip(times, times[1:]) if not t0 < t1)
            raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
        if self.substeps == 1 and not self.discontinuity_aligned:
            return np.array(times, dtype=float)
        t0, t1 = times
        grid = np.linspace(t0, t1, self.substeps + 1)
        switches = self.ivp.signal.switching_times(t0, t1) if self.discontinuity_aligned else grid[:0]
        if not switches.size:
            return grid
        # the union of two sorted arrays: an exact duplicate has a zero
        # difference, so the drop of near-duplicates created by roundoff-level
        # coincidences removes it too
        merged = np.concatenate((grid, switches))
        merged.sort()
        return merged[np.concatenate(([True], merged[1:] - merged[:-1] > MERGE_TOL * (t1 - t0)))]

    def propagate(self, t0, t1, u):
        """The substeps of ``(t0, t1)``, planned or set up now, applied to the state in plain
        floats: ``u = (u + h*((1-theta)*(a*u + p_s) + theta*p_e)) / den``.

        Over a clean set-up the recurrence runs without per-step checks.
        That is sound because a non-finite state never becomes finite again:
        a sum with an infinite or NaN operand is not finite, so the numerator
        is not, and neither is its quotient by a nonzero denominator (inf/inf
        and NaN/x are NaN), whatever ``a``, theta and the input terms are.  So
        a finite final state means every step's state was finite, and a
        non-finite one is located by ``_checked``.

        A planned interval, a run's call, runs its plan and returns before
        any cold set-up is looked at.  The plan is found by ``t0`` and used
        only if it ends at ``t1``; any other call runs cold.
        """
        if type(u) is not float:
            u = scalar_state(u)
        plans = self._plans
        plan = plans.get(t0) if plans else None
        a, c = self._a, self._c
        if plan is not None and plan[0] == t1:
            h, p_s, th_p_e, den = step = plan[1]
            v = (u + h * (c * (a * u + p_s) + th_p_e)) / den
            return v if math.isfinite(v) else self._checked(t0, t1, u, (step,))
        columns, clean = self._substeps((t0, t1))
        if not clean:
            return self._checked(t0, t1, u, zip(*columns))
        v = u
        for h, p_s, th_p_e, den in zip(*columns):
            v = (v + h * (c * (a * v + p_s) + th_p_e)) / den
        return v if math.isfinite(v) else self._checked(t0, t1, u, zip(*columns))

    def _checked(self, t0: float, t1: float, u: float, steps: Iterable[tuple]) -> float:
        """The recurrence of ``propagate`` from ``u`` with a check at every step: raise at the
        first substep that is degenerate or leaves a non-finite state, naming its end time
        from the interval's ``_grid``."""
        a, c = self._a, self._c
        for (h, p_s, th_p_e, den), e in zip(steps, self._grid((t0, t1))[1:].tolist()):
            if h <= 0.0:
                raise ValueError("degenerate substep")
            num = u + h * (c * (a * u + p_s) + th_p_e)
            u = num / den
            if not math.isfinite(u):
                raise NonFiniteStateError(f"non-finite state after step ending at t={e}")
        return u

    def _substeps(self, times: Sequence[float]) -> tuple[tuple[list[float], ...], bool]:
        """The substeps of the grid ``times`` (``_grid``), set up in one pass:
        four float columns ``(h, p_s, theta*p_e, den)`` over all of them, in
        order, and whether the set-up is clean (every ``h > 0``), the
        condition of ``propagate``'s check-free recurrence.

        This is the state-independent part of the sweep: ``p = 0.0 + gain *
        input``, one-sided at the substep's ends, and ``den = 1 - h*theta*a``
        with ``a = -decay``, each an array expression over all substeps.  The
        sum starting at +0.0 turns a -0.0 product into +0.0, as the 1x1
        product ``[[gain]] @ [input]`` does.
        """
        x = self._grid(times)
        ivp = self.ivp
        th = self.theta
        gain, signal = ivp.gain, ivp.signal
        # a node between the two ends starts one substep and ends the one
        # before it: both of its limits come from one array lookup
        first = signal.value(x.item(0), Side.RIGHT_LIMIT)
        lefts, rights = signal._limits_array(x[1:-1])
        last = signal.value(x.item(-1), Side.LEFT_LIMIT)
        hs = x[1:] - x[:-1]
        den = 1.0 - hs * th * self._a
        # with every h > 0, a decaying mode (a < 0) has den >= 1 or NaN: no pole
        clean = bool(hs.min() > 0.0)
        # the input terms at the substeps' starts, then at their ends
        p = 0.0 + gain * np.concatenate(([first], rights, lefts, [last]))
        n = len(hs)
        columns = hs.tolist(), p[:n].tolist(), (th * p[n:]).tolist(), den.tolist()
        return columns, clean


def _theta_plans(prop: ThetaPropagator, times: list[float]) -> list[tuple]:
    """A one-step theta propagator's plans over ``times``: its one-pass
    set-up, one ``(h, p_s, theta*p_e, den)`` step per interval.

    Its nodes are the increasing sync grid, so every ``h`` is the difference
    of two distinct floats, which is positive: the set-up is clean."""
    return list(zip(*prop._substeps(times)[0]))


def _exact_plans(model: LinearScalarModel, times: list[float]) -> list[tuple]:
    """The exact solver's plans over ``times`` (``models._grid_plans``)."""
    return _grid_plans(model.decay_rate, model.R_res, model.signal, times)


@contextmanager
def planned(props, times: list[float]):
    """Plan every interval of the sync grid ``times`` for ``props`` while the block runs.

    A plan holds an interval's state-independent data: a one-step theta
    propagator's one step (``_theta_plans``), or the exact solver's segments
    (``models._grid_plans``), set up for the whole grid in one pass.  The
    holder keeps them as ``{t0: (t1, plan)}``, one entry per interval, so a
    call finds its plan by one float key and checks its end.  A planned
    ``propagate`` call runs only the state recurrence, the same code and bits
    as a cold call; a call whose ``t1`` is not its plan's end runs cold.  If
    the set-up fails anywhere with a ``ValueError`` (an input with no closed
    form, a point outside its domain), the propagator is left unplanned: its
    cold calls raise the error in their place in the run.
    A theta propagator with more than one substep per interval, or aligned
    substeps, is skipped: it runs cold.  So are propagators of other types,
    and a holder that already has plans.  Plans are dropped when the block
    ends, also on an error.
    """
    holders = []
    for prop in props:
        if isinstance(prop, ThetaPropagator) and prop.substeps == 1 and not prop.discontinuity_aligned:
            holder, setup = prop, _theta_plans
        elif isinstance(prop, ExactLinearPropagator):
            holder, setup = prop.model, _exact_plans
        else:
            continue
        if holder._plans is None:
            try:
                plans = dict(zip(times, zip(times[1:], setup(holder, times))))
            except ValueError:  # not swallowed: the cold calls raise it again, in their place in the run
                plans = {}
            object.__setattr__(holder, "_plans", plans)
            holders.append(holder)
    try:
        yield
    finally:
        for holder in holders:
            object.__setattr__(holder, "_plans", None)


def _exact(kv: dict, ivp: SplitIvp, model: LinearScalarModel | None) -> ExactLinearPropagator:
    if model is None:
        raise ValueError("exact propagator needs a scalar linear model")
    return ExactLinearPropagator(model.with_signal(ivp.signal))


def _theta(theta: float, kv: dict, ivp: SplitIvp, model: LinearScalarModel | None) -> ThetaPropagator:
    if kv["aligned"] not in ("0", "1"):
        raise ValueError(f"aligned must be 0 or 1, got {kv['aligned']!r}")
    try:
        substeps = int(kv["substeps"])
    except ValueError:
        raise ValueError(f"substeps must be an integer, got {kv['substeps']!r}") from None
    return ThetaPropagator(ivp, theta=theta, substeps=substeps, discontinuity_aligned=kv["aligned"] == "1")


# each propagator kind's keys with their defaults, and its constructor from them, the IVP and the model
_THETA_KEYS = {"substeps": "1", "aligned": "0"}
_PROPAGATOR_KINDS = {
    "be": (_THETA_KEYS, partial(_theta, 1.0)),
    "cn": (_THETA_KEYS, partial(_theta, 0.5)),
    "exact": ({}, _exact),
}


def parse_propagator(spec: str, ivp: SplitIvp, model: LinearScalarModel | None = None) -> Propagator:
    """Build a propagator from its CLI name (``parse_spec``): ``be``, ``cn`` or ``exact``.  The theta schemes
    take ``substeps=<int>`` (default 1) and ``aligned=0|1`` (default 0): ``cn:substeps=500,aligned=1``."""
    return parse_spec(spec, "propagator", _PROPAGATOR_KINDS, ivp, model)
