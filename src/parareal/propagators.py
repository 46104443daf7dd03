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
runs the same set-up on its own two-point grid.  A theta set-up looks up the
input at the two ends of its grid with ``Signal.value`` and at every node
between them, each the end of one substep and the start of the next (a sync
point too), once per node with ``Signal.node_limits``.  The exact solver's
plans draw on set-up kept per process and per study; ``models`` describes
the three lifetimes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .models import LinearScalarModel, SplitIvp, _grid_plans, exact_linear_propagate
from .signals import MERGE_TOL, Side, parse_kv


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
    """Common protocol: ``propagate(t0, t1, u)`` maps the scalar state ``u`` at
    ``t0`` to the float state at ``t1``, pure and concurrency-safe.  A run may
    attach interval plans (``planned``) for its duration; they change no result."""

    ivp: SplitIvp

    def propagate(self, t0: float, t1: float, u: float) -> float:
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

    def propagate(self, t0, t1, u):
        return exact_linear_propagate(self.model, t0, t1, scalar_state(u))


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
                keep = np.concatenate([[True], np.diff(merged) > MERGE_TOL * (t1 - t0)])
                grid = merged[keep]
        return grid.tolist()

    def propagate(self, t0, t1, u):
        u = scalar_state(u)
        plans = self._plans
        steps = plans.get((t0, t1)) if plans else None
        return self._sweep(self._substeps((t0, t1))[0] if steps is None else steps, u)

    def _substeps(self, times: Sequence[float]) -> tuple[Iterator[tuple], list[int]]:
        """The substeps of the grid ``times``, set up in one pass: an iterator
        of ``(h, p_s, theta*p_e, den, end)`` over all of them, in order, and
        the number of substeps of each interval.

        This is the state-independent part of the sweep: ``p = 0.0 + gain *
        input``, one-sided at the substep's ends, and ``den = 1 - h*theta*a``
        with ``a = -decay``.  The sum starting at +0.0 turns a -0.0 product
        into +0.0, as the 1x1 product ``[[gain]] @ [input]`` does.
        """
        nodes, counts = [], []
        for t0, t1 in zip(times, times[1:]):
            if not t0 < t1:
                raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
            grid = self._grid(t0, t1)
            nodes += grid[1:] if nodes else grid
            counts.append(len(grid) - 1)
        ivp = self.ivp
        a = -ivp.decay
        th = self.theta
        gain, value = ivp.gain, ivp.signal.value
        # a node between the two ends starts one substep and ends the one
        # before it: both of its limits come from one ``node_limits`` pass
        first = value(nodes[0], Side.RIGHT_LIMIT)
        lefts, rights = ivp.signal.node_limits(nodes[1:-1])
        last = value(nodes[-1], Side.LEFT_LIMIT)
        p_s = [0.0 + gain * v for v in [first] + rights]
        th_p_e = [th * (0.0 + gain * v) for v in lefts + [last]]
        ends = nodes[1:]
        hs = [e - s for s, e in zip(nodes, ends)]
        return zip(hs, p_s, th_p_e, [1.0 - h * th * a for h in hs], ends), counts

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


def _theta_plans(prop: ThetaPropagator, times: list[float]) -> list[tuple]:
    """A theta propagator's plans over ``times``: its one-pass set-up, split per interval."""
    steps, counts = prop._substeps(times)
    return [tuple(islice(steps, n)) for n in counts]


def _exact_plans(model: LinearScalarModel, times: list[float]) -> list[tuple]:
    """The exact solver's plans over ``times`` (``models._grid_plans``)."""
    return _grid_plans(model.decay_rate, model.R_res, model.signal, times)


@contextmanager
def planned(props, times: list[float]):
    """Plan every interval of the sync grid ``times`` for ``props`` while the block runs.

    A plan holds an interval's state-independent data: a theta propagator's
    substeps (``_substeps``), or the exact solver's segments
    (``models._grid_plans``), set up for the whole grid in one pass.  A
    planned ``propagate`` call runs only the state recurrence, the same code
    and bits as a cold call.  If the set-up fails anywhere with a
    ``ValueError`` (an input with no closed form, a point outside its
    domain), the propagator is left unplanned: its cold calls raise the same error in their place in the
    run.  Propagators of other types are skipped, and so is a holder that
    already has plans.  Plans are dropped when the block ends, also on an
    error.
    """
    holders = []
    for prop in props:
        if isinstance(prop, ThetaPropagator):
            holder, setup = prop, _theta_plans
        elif isinstance(prop, ExactLinearPropagator):
            holder, setup = prop.model, _exact_plans
        else:
            continue
        if holder._plans is None:
            try:
                plans = dict(zip(zip(times, times[1:]), setup(holder, times)))
            except ValueError:  # not swallowed: the cold calls raise it again, in their place in the run
                plans = {}
            object.__setattr__(holder, "_plans", plans)
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
    try:
        substeps = int(kv["substeps"])
    except ValueError:
        raise ValueError(f"substeps must be an integer, got {kv['substeps']!r}") from None
    return ThetaPropagator(ivp, theta=theta, substeps=substeps, discontinuity_aligned=kv["aligned"] == "1")
