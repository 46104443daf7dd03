"""Coarse and fine propagators: implicit theta methods and the exact solver.

A propagator maps ``(t0, t1, u0)`` to the state at ``t1`` of its scalar
linear IVP.  The theta family covers Backward Euler (theta=1, order 1) and
Crank-Nicolson (theta=1/2, order 2), stepped in plain floats; the exact
adapter wraps the closed-form linear solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import LinearScalarModel, SplitIvp, exact_linear_propagate
from .signals import Side, parse_kv


class NonFiniteStateError(RuntimeError):
    """A propagated state stopped being finite."""


class Propagator:
    """Common protocol: immutable, pure, concurrency-safe."""

    ivp: SplitIvp

    def propagate(self, t0: float, t1: float, u0: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class ExactLinearPropagator(Propagator):
    """Exact segment-composed solution of a scalar linear model."""

    model: LinearScalarModel

    @property
    def ivp(self) -> SplitIvp:  # type: ignore[override]
        return self.model.ivp()

    def propagate(self, t0, t1, u0):
        u0 = np.atleast_1d(np.asarray(u0, dtype=float))
        return np.array([exact_linear_propagate(self.model, t0, t1, float(u0[0]))])


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
        if not t0 < t1:
            raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
        u = float(np.atleast_1d(np.asarray(u0, dtype=float))[0])
        return np.array([self._scalar_sweep(self._grid(t0, t1), u)])

    def _scalar_sweep(self, grid: list[float], u: float) -> float:
        """All substeps, in plain floats.

        Per substep this is ``num = u + h*((1-theta)*(a*u + p_s) + theta*p_e)``
        and ``u = num / (1 - h*theta*a)`` with ``a = -decay`` and
        ``p = 0.0 + gain * input``: the sum starting at +0.0 turns a -0.0
        product into +0.0, as the 1x1 product ``[[gain]] @ [input]`` does.
        """
        ivp = self.ivp
        a = -ivp.decay
        th = self.theta
        gain, value = ivp.gain, ivp.signal.value
        right, left = Side.RIGHT_LIMIT, Side.LEFT_LIMIT
        for s, e in zip(grid, grid[1:]):
            h = e - s
            if h <= 0.0:
                raise ValueError("degenerate substep")
            p_s = 0.0 + gain * value(s, right)
            p_e = 0.0 + gain * value(e, left)
            num = u + h * ((1.0 - th) * (a * u + p_s) + th * p_e)
            den = 1.0 - h * th * a
            u = num / den if den != 0.0 else math.inf  # den == 0: the implicit solve's pole
            if not math.isfinite(u):
                raise NonFiniteStateError(f"non-finite state after step ending at t={e}")
        return u


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
