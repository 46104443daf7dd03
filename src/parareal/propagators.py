"""Coarse and fine propagators: implicit theta methods and the exact solver.

A propagator maps ``(t0, t1, u0)`` to the state at ``t1``.  The theta family
covers Backward Euler (theta=1, order 1) and Crank-Nicolson (theta=1/2,
order 2); the exact adapter wraps the closed-form linear solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import LinearScalarModel, SplitIvp, exact_linear_propagate
from .signals import Side, parse_kv


class NewtonError(RuntimeError):
    """Implicit stage solve failed to converge."""


class NonFiniteStateError(RuntimeError):
    """A propagated state stopped being finite."""


NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 30


class Propagator:
    """Common protocol: immutable, pure, concurrency-safe."""

    ivp: SplitIvp

    def propagate(self, t0: float, t1: float, u0: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def order(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class ExactLinearPropagator(Propagator):
    """Exact segment-composed solution of a scalar linear model."""

    model: LinearScalarModel

    @property
    def ivp(self) -> SplitIvp:  # type: ignore[override]
        return self.model.ivp()

    @property
    def order(self) -> int:
        return 0  # exact: no truncation order

    def propagate(self, t0, t1, u0):
        u0 = np.atleast_1d(np.asarray(u0, dtype=float))
        return np.array([exact_linear_propagate(self.model, t0, t1, float(u0[0]))])


@dataclass(frozen=True, eq=False)
class ThetaPropagator(Propagator):
    """One-step theta method with a fixed number of equal substeps.

    Each substep solves

        u1 = u0 + h * (theta * f(t1, u1) + (1 - theta) * f(t0, u0))

    with the discontinuous input evaluated one-sidedly when a substep
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

    @property
    def order(self) -> int:
        return 2 if self.theta == 0.5 else 1

    def _grid(self, t0: float, t1: float) -> list[float]:
        if self.substeps == 1 and not self.discontinuity_aligned:
            return [float(t0), float(t1)]  # what np.linspace(t0, t1, 2) holds
        grid = np.linspace(t0, t1, self.substeps + 1)
        if self.discontinuity_aligned:
            switches = self.ivp.input_switching_times(t0, t1)
            if switches.size:
                merged = np.union1d(grid, switches)
                # drop near-duplicates created by roundoff-level coincidences
                keep = np.concatenate([[True], np.diff(merged) > 1e-13 * (t1 - t0)])
                grid = merged[keep]
        return grid.tolist()

    def propagate(self, t0, t1, u0):
        if not t0 < t1:
            raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
        u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
        grid = self._grid(t0, t1)
        if self.ivp.dim == 1 and self.ivp.smooth_matrix is not None:
            return np.array([self._scalar_sweep(grid, float(u[0]))])
        for s, e in zip(grid, grid[1:]):
            u = self._step(s, e, u)
            if not np.all(np.isfinite(u)):
                raise NonFiniteStateError(f"non-finite state after step ending at t={e}")
        return u

    def _scalar_sweep(self, grid: list[float], u: float) -> float:
        """All substeps of a linear scalar problem, in plain floats.

        Per substep this is ``num = u + h*((1-theta)*(a*u + p_s) + theta*p_e)``
        and ``u = num / (1 - h*theta*a)``, the 1x1 case of the matrix path's
        implicit solve, with ``p = 0.0 + gain * input``: the sum of the 1x1
        product ``injection @ input`` starts at +0.0, which turns a -0.0
        product into +0.0.
        """
        ivp = self.ivp
        a = float(ivp.smooth_matrix[0, 0])
        th = self.theta
        if ivp.channels == 1:
            gain, value = float(ivp.injection[0, 0]), ivp.input_signals[0].value
        else:  # mix the channels as the matrix path does
            gain = 1.0

            def value(t, side):
                return float((ivp.injection @ ivp.input_vector(t, side))[0])

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

    def _step(self, s: float, e: float, u: np.ndarray) -> np.ndarray:
        """One substep of a vector-valued or nonlinear problem."""
        h = e - s
        if h <= 0.0:
            raise ValueError("degenerate substep")
        ivp = self.ivp
        th = self.theta
        p_s = ivp.injection @ ivp.input_vector(s, Side.RIGHT_LIMIT)
        p_e = ivp.injection @ ivp.input_vector(e, Side.LEFT_LIMIT)

        if ivp.smooth_matrix is not None:
            A = ivp.smooth_matrix
            rhs = u + h * ((1.0 - th) * (A @ u + p_s) + th * p_e)
            return np.linalg.solve(np.eye(ivp.dim) - h * th * A, rhs)

        # nonlinear smooth part: damped Newton on the implicit relation
        g = u + h * ((1.0 - th) * (ivp.smooth_rhs(s, u) + p_s) + th * p_e)
        if th == 0.0:
            return g

        def residual(x):
            return x - g - h * th * ivp.smooth_rhs(e, x)

        x = u.copy()
        r = residual(x)
        for _ in range(NEWTON_MAX_ITER):
            rnorm = float(np.max(np.abs(r)))
            if rnorm <= NEWTON_TOL:
                return x
            if ivp.smooth_jac is not None:
                J = ivp.smooth_jac(e, x)
            else:
                J = _fd_jacobian(lambda y: ivp.smooth_rhs(e, y), x)
            step = np.linalg.solve(np.eye(ivp.dim) - h * th * J, -r)
            lam = 1.0
            for _ in range(NEWTON_MAX_HALVINGS):
                x_new = x + lam * step
                r_new = residual(x_new)
                if float(np.max(np.abs(r_new))) < rnorm:
                    break
                lam *= 0.5
            else:
                raise NewtonError(f"damping exhausted at t={e}")
            x, r = x_new, r_new
        if float(np.max(np.abs(r))) <= NEWTON_TOL:
            return x
        raise NewtonError(f"no convergence after {NEWTON_MAX_ITER} iterations at t={e}")


def _fd_jacobian(f, x: np.ndarray) -> np.ndarray:
    n = x.size
    fx = f(x)
    J = np.empty((n, n))
    for j in range(n):
        dx = 1e-8 * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += dx
        J[:, j] = (f(xp) - fx) / dx
    return J


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
        return ExactLinearPropagator(model.with_signal(ivp.input_signals[0]))
    theta = {"be": 1.0, "cn": 0.5}.get(head)
    if theta is None:
        raise ValueError(f"unknown propagator {spec!r}")
    kv = parse_kv(body, {"substeps": "1", "aligned": "0"})
    if kv["aligned"] not in ("0", "1"):
        raise ValueError(f"aligned must be 0 or 1, got {kv['aligned']!r}")
    return ThetaPropagator(
        ivp, theta=theta, substeps=int(kv["substeps"]), discontinuity_aligned=kv["aligned"] == "1"
    )
