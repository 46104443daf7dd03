"""Excitation waveforms with exactly known switching structure.

Every signal is defined on one period ``[0, T]`` and knows where it is
discontinuous.  Integrators and the exact linear solver rely on
``switching_times`` to segment the time axis and on ``Side`` hints to take
one-sided values at segment boundaries.  ``node_limits`` takes both one-sided
values at each node of an increasing grid in one merge pass over the switch
table: a node with no switch at it costs one formula evaluation for both
sides, the same bits as two ``value`` calls.

Switch tolerances, each with its scale (T is the period, or 1 for an
unbounded signal) and purpose:

* ``SWITCH_TOL`` = 1e-15, times T: the bracket width at which a PWM
  comparator root search (``_build_table``) stops bisecting.
* ``MERGE_TOL`` = 1e-13, times T: root candidates closer than this merge
  into one switch (``_filter_jumps``), and a switch this close to an end of
  ``(t0, t1)`` lies outside the open interval (``switching_times``,
  ``grid_switches``).  Times (t1 - t0): where a theta substep grid is merged
  with the switches of ``(t0, t1)``, a time this close to the one before it
  is dropped (``ThetaPropagator._grid``).
* ``SNAP_TOL`` = 1e-9, times T: a time this close to a switch counts as at
  the switch for one-sided values (``_switch_at``, behind ``value`` and
  ``node_limits``).
* ``JUMP_TOL`` = 1e-9, absolute: a root candidate is a switch only if the
  value changes by more than this across it (``_filter_jumps``).
* ``PwmSingle._SIN_TIE`` = 3e-15, absolute: a sine value below this is the
  comparator tie ``sin = 0``, resolved to the 0 branch.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# phase offsets of the three-phase sources, index 1..3
PHASE_SHIFTS = {1: 0.0, 2: -2.0 * math.pi / 3.0, 3: -4.0 * math.pi / 3.0}

# the switch tolerances; see the module docstring
SWITCH_TOL = 1e-15
MERGE_TOL = 1e-13
SNAP_TOL = 1e-9
JUMP_TOL = 1e-9


class Side(Enum):
    """Which value to take when evaluating at a discontinuity."""

    LEFT_LIMIT = "left"
    RIGHT_LIMIT = "right"
    POINTWISE = "point"


@dataclass(frozen=True)
class SegmentForm:
    """Value on a continuity segment: ``const + amp * sin(omega * t + phase)``."""

    const: float
    amp: float = 0.0
    omega: float = 0.0
    phase: float = 0.0


class _SwitchTable(NamedTuple):
    """A signal's switching instants in (0, period), strictly increasing.

    ``times`` serves the range queries of ``switching_times``; ``floats`` holds
    the same values as a tuple for ``bisect`` in one-sided evaluation.
    """

    times: np.ndarray
    floats: tuple[float, ...]


_NO_SWITCHES = _SwitchTable(np.empty(0), ())

# serializes cache lookups so that concurrent first lookups build a table once;
# reentrant because a Difference builds its table from its operands' tables
_TABLE_LOCK = threading.RLock()


@lru_cache(maxsize=64)
def _table_cache(sig: Signal) -> _SwitchTable:
    times = sig._build_table()  # type: ignore[attr-defined]
    return _SwitchTable(times, tuple(times.tolist()))


def _cached_table(sig: Signal) -> _SwitchTable:
    """The switch table shared by all signals equal to ``sig``.

    The first lookup on an instance goes through the cache under the lock and
    keeps the entry on the instance, so later lookups skip hashing the signal
    and taking the lock.
    """
    table = sig.__dict__.get("_table")
    if table is None:
        with _TABLE_LOCK:
            table = _table_cache(sig)
        object.__setattr__(sig, "_table", table)
    return table


def _switch_at(table: tuple[float, ...], i: int, t: float, scale: float) -> int | None:
    """Index of the switch at ``t``, given ``i = bisect_left(table, t)``: ``table[i]``,
    or else ``table[i - 1]``, if within ``SNAP_TOL * scale`` of ``t``; or None."""
    tol = SNAP_TOL * scale
    if i < len(table) and abs(table[i] - t) <= tol:
        return i
    if i > 0 and abs(table[i - 1] - t) <= tol:
        return i - 1
    return None


class Signal:
    """Base class; concrete signals are small frozen dataclasses."""

    period: float

    # -- pointwise formula -------------------------------------------------

    def _formula(self, t: float) -> float:
        raise NotImplementedError

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Pointwise values on an array of times (no side resolution)."""
        return np.array([self._formula(float(t)) for t in np.asarray(ts).ravel()])

    # -- switching structure ------------------------------------------------

    def _switch_table(self) -> _SwitchTable:
        """All discontinuities in the open interval (0, period)."""
        return _NO_SWITCHES

    def switching_times(self, t0: float, t1: float) -> np.ndarray:
        """Discontinuity instants in the open interval ``(t0, t1)``."""
        self._check_domain(t0)
        self._check_domain(t1)
        if not t0 < t1:
            raise ValueError(f"need t0 < t1, got ({t0}, {t1})")
        table = self._switch_table().times
        i0 = np.searchsorted(table, t0, side="right")
        i1 = np.searchsorted(table, t1, side="left")
        out = table[i0:i1]
        # guard the open-interval contract against tolerance-level hits
        tol = MERGE_TOL * self._tol_scale()
        return out[(out > t0 + tol) & (out < t1 - tol)]

    def grid_switches(self, times: list[float]) -> list[list[float]]:
        """``switching_times(t0, t1)`` of each interval of the strictly increasing grid ``times``,
        in one pass: the switches ``s`` with ``t0 + tol < s < t1 - tol``."""
        grid = np.array(times)
        if not np.all(grid[1:] > grid[:-1]):
            raise ValueError("need a strictly increasing grid")
        tol = MERGE_TOL * self._tol_scale()
        switches = self.switching_times(times[0], times[-1])
        lo = np.searchsorted(switches, grid[:-1] + tol, side="right").tolist()
        hi = np.searchsorted(switches, grid[1:] - tol, side="left").tolist()
        switches = switches.tolist()
        return [switches[i:j] for i, j in zip(lo, hi)]

    # -- evaluation ----------------------------------------------------------

    def value(self, t: float, side: Side = Side.POINTWISE) -> float:
        """Signal value at ``t``; ``side`` resolves jumps one-sidedly."""
        if not 0.0 <= t <= self.period:  # the check's call only where it may raise
            self._check_domain(t)
        if side is not Side.POINTWISE:
            near = self._nearest_switch(t)
            if near is not None:
                lo, sw, hi = near
                return self._formula(0.5 * (lo + sw) if side is Side.LEFT_LIMIT else 0.5 * (sw + hi))
        return self._formula(t)

    def node_limits(self, ts: list[float]) -> tuple[list[float], list[float]]:
        """``([value(t, LEFT_LIMIT) ...], [value(t, RIGHT_LIMIT) ...])`` over the increasing times ``ts``.

        One merge pass over the switch table: a node with no switch at it
        (``_nearest_switch``) takes one ``_formula(t)`` for both sides, a node
        with one goes through ``value`` per side.
        """
        self._check_nodes(ts)
        table = self._switch_table().floats
        scale = self._tol_scale()
        formula, value = self._formula, self.value
        left, right = Side.LEFT_LIMIT, Side.RIGHT_LIMIT
        lefts, rights = [], []
        n = len(table)
        i = bisect_left(table, ts[0]) if ts else 0
        for t in ts:
            while i < n and table[i] < t:
                i += 1
            if _switch_at(table, i, t, scale) is None:
                v = formula(t)
                lefts.append(v)
                rights.append(v)
            else:
                lefts.append(value(t, left))
                rights.append(value(t, right))
        return lefts, rights

    def segment_form(self, tl: float, tr: float) -> SegmentForm | None:
        """Closed form on a switch-free interval, or None if unsupported."""
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------

    def _tol_scale(self) -> float:
        return self.period if math.isfinite(self.period) else 1.0

    def _check_domain(self, t: float) -> None:
        if t < 0.0 or t > self.period:
            raise ValueError(f"t={t} outside signal domain [0, {self.period}]")

    def _check_nodes(self, ts: list[float]) -> None:
        """``_check_domain`` of each of the increasing times ``ts``: the first one outside raises."""
        if ts and (ts[0] < 0.0 or ts[-1] > self.period):
            for t in ts:
                self._check_domain(t)

    def _nearest_switch(self, t: float) -> tuple[float, float, float] | None:
        """(previous switch or 0, the switch at t, next switch or T), or None.

        A switch within ``SNAP_TOL * T`` of ``t`` counts as the switch at ``t``; the one
        at or after ``t`` wins a tie with the one before it (``_switch_at``).
        """
        table = self._switch_table().floats
        if not table:
            return None
        j = _switch_at(table, bisect_left(table, t), t, self._tol_scale())
        if j is None:
            return None
        lo = table[j - 1] if j > 0 else 0.0
        hi = table[j + 1] if j + 1 < len(table) else float(self.period)
        return lo, table[j], hi


# ---------------------------------------------------------------------------
# root bracketing for comparator-style signals


def _bisect(g, lo: float, hi: float, tol: float) -> float:
    glo = g(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scan_roots(g, lo: float, hi: float, tol: float, samples: int = 33) -> list[float]:
    """Roots of ``g`` on ``[lo, hi]``, bisected between neighbouring samples of
    strictly opposite sign, in plain floats.

    The samples are ``i*step + lo`` with ``step = (hi - lo)/(samples - 1)`` and
    the last one ``hi``: the bits of ``np.linspace(lo, hi, samples)``.  A zero
    or NaN sample brackets nothing, as ``np.sign(a)*np.sign(b) < 0``.
    """
    step = (hi - lo) / (samples - 1)
    ts = [i * step + lo for i in range(samples - 1)] + [hi]
    gs = [g(t) for t in ts]
    roots = []
    for i in range(samples - 1):
        a, b = gs[i], gs[i + 1]
        if (a < 0.0 < b) or (b < 0.0 < a):
            roots.append(_bisect(g, ts[i], ts[i + 1], tol))
    return roots


def _quarter_points(period: float, lo: float, hi: float) -> list[float]:
    """Multiples of T/4 strictly inside (lo, hi); |sin| kinks and extrema."""
    qp = period / 4.0
    out = []
    k = int(math.ceil(lo / qp))
    while k * qp < hi:
        if lo < k * qp:
            out.append(k * qp)
        k += 1
    return out


def _scan_teeth(sig: Signal, tooth) -> np.ndarray:
    """The switch table of a comparator PWM with ``sig.m`` carrier teeth per period.

    ``tooth(ta, h)`` gives the comparator on the tooth ``[ta, ta + h]``.  Its
    roots are bracketed between the tooth's ends and the quarter points inside
    it; the tooth ends themselves are candidates too.
    """
    h = sig.period / sig.m
    tol = SWITCH_TOL * sig.period
    cands: list[float] = [j * h for j in range(1, sig.m)]
    for j in range(sig.m):
        ta, tb = j * h, (j + 1) * h
        g = tooth(ta, h)
        pts = [ta] + _quarter_points(sig.period, ta, tb) + [tb]
        for lo, hi in zip(pts, pts[1:]):
            cands.extend(_scan_roots(g, lo, hi, tol))
    return _filter_jumps(sig, cands)


def _filter_jumps(sig: Signal, candidates: list[float]) -> np.ndarray:
    """Keep candidates where the pointwise value actually changes."""
    if not candidates:
        return np.empty(0)
    cand = sorted(candidates)
    merged = [cand[0]]
    tol = MERGE_TOL * sig._tol_scale()
    for c in cand[1:]:
        if c - merged[-1] > tol:
            merged.append(c)
    fences = [0.0] + merged + [sig.period]
    kept = []
    for i, c in enumerate(merged):
        left_mid = 0.5 * (fences[i] + c)
        right_mid = 0.5 * (c + fences[i + 2])
        if abs(sig._formula(left_mid) - sig._formula(right_mid)) > JUMP_TOL:
            kept.append(c)
    return np.array(kept)


# ---------------------------------------------------------------------------
# concrete signals


@dataclass(frozen=True)
class SineWave(Signal):
    """``sin(2*pi*t/T)``."""

    period: float

    def _formula(self, t: float) -> float:
        return math.sin(TWO_PI * t / self.period)

    def segment_form(self, tl, tr):
        return SegmentForm(0.0, 1.0, TWO_PI / self.period, 0.0)


@dataclass(frozen=True)
class ThreePhaseSine(Signal):
    """One phase of the three-phase unit sine, phase index 1..3."""

    period: float
    phase_index: int = 1

    def __post_init__(self):
        if self.phase_index not in PHASE_SHIFTS:
            raise ValueError(f"phase_index must be 1..3, got {self.phase_index}")

    def _formula(self, t: float) -> float:
        return math.sin(TWO_PI * t / self.period + PHASE_SHIFTS[self.phase_index])

    def segment_form(self, tl, tr):
        return SegmentForm(0.0, 1.0, TWO_PI / self.period, PHASE_SHIFTS[self.phase_index])


@dataclass(frozen=True)
class StepWave(Signal):
    """+1 on [0, T/2), -1 on [T/2, T]."""

    period: float

    def _formula(self, t: float) -> float:
        return 1.0 if t < 0.5 * self.period else -1.0

    def _switch_table(self):
        return _cached_table(self)

    def _build_table(self) -> np.ndarray:
        return np.array([0.5 * self.period])

    def segment_form(self, tl, tr):
        return SegmentForm(self._formula(0.5 * (tl + tr)))


@dataclass(frozen=True)
class Constant(Signal):
    """Constant value; unbounded domain by default."""

    value_: float
    period: float = math.inf

    def _formula(self, t: float) -> float:
        return self.value_

    def segment_form(self, tl, tr):
        return SegmentForm(self.value_)


@dataclass(frozen=True)
class Zero(Signal):
    """Identically zero."""

    period: float = math.inf

    def _formula(self, t: float) -> float:
        return 0.0

    def segment_form(self, tl, tr):
        return SegmentForm(0.0)


@dataclass(frozen=True)
class PwmSingle(Signal):
    """Natural-sampled single-phase PWM with m pulses per period.

    Value is ``sign(sin(2*pi*t/T))`` while the sawtooth ``s_m(t)`` lies below
    ``|sin(2*pi*t/T)|`` and 0 otherwise, so the signal takes values in
    {-1, 0, +1}.  The comparator tie resolves to the 0 branch.
    """

    m: int
    period: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"pulse count m must be >= 1, got {self.m}")
        if not self.period > 0:
            raise ValueError("period must be positive")

    # comparator ties resolve to the zero branch; a sine value at roundoff
    # scale is the tie "sin = 0" evaluated in floating point
    _SIN_TIE = 3e-15

    def _sawtooth(self, t: float) -> float:
        x = (self.m / self.period) * t
        return x - math.floor(x)

    def _formula(self, t: float) -> float:
        sv = math.sin(TWO_PI * t / self.period)
        if abs(sv) < self._SIN_TIE:
            sv = 0.0
        if self._sawtooth(t) - abs(sv) < 0.0:
            return math.copysign(1.0, sv) if sv != 0.0 else 0.0
        return 0.0

    def _switch_table(self):
        return _cached_table(self)

    def _build_table(self) -> np.ndarray:
        period = self.period

        def tooth(ta: float, h: float):
            return lambda t: (t - ta) / h - abs(math.sin(TWO_PI * t / period))

        return _scan_teeth(self, tooth)

    def segment_form(self, tl, tr):
        return SegmentForm(self._formula(0.5 * (tl + tr)))


@dataclass(frozen=True)
class ThreePhasePwm(Signal):
    """Bipolar trailing-edge PWM against a sawtooth carrier, values {-1, +1}.

    Comparator is ``sin(2*pi*t/T + phi_s) - b_m(t)`` with carrier
    ``b_m(t) = 2*s_m(t) - 1``; the sign-zero tie resolves to +1.
    """

    m: int
    period: float
    phase_index: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"pulse count m must be >= 1, got {self.m}")
        if self.phase_index not in PHASE_SHIFTS:
            raise ValueError(f"phase_index must be 1..3, got {self.phase_index}")

    def _comparator(self, t: float) -> float:
        x = (self.m / self.period) * t
        carrier = 2.0 * (x - math.floor(x)) - 1.0
        return math.sin(TWO_PI * t / self.period + PHASE_SHIFTS[self.phase_index]) - carrier

    def _formula(self, t: float) -> float:
        return 1.0 if self._comparator(t) >= 0.0 else -1.0

    def _switch_table(self):
        return _cached_table(self)

    def _build_table(self) -> np.ndarray:
        period, shift = self.period, PHASE_SHIFTS[self.phase_index]

        # carrier parameterized within the tooth so it does not wrap at its end
        def tooth(ta: float, h: float):
            return lambda t: math.sin(TWO_PI * t / period + shift) - (2.0 * (t - ta) / h - 1.0)

        return _scan_teeth(self, tooth)

    def segment_form(self, tl, tr):
        return SegmentForm(self._formula(0.5 * (tl + tr)))


@dataclass(frozen=True)
class Difference(Signal):
    """Pointwise difference ``a(t) - b(t)``."""

    a: Signal
    b: Signal

    @property
    def period(self) -> float:  # type: ignore[override]
        return min(self.a.period, self.b.period)

    def _formula(self, t: float) -> float:
        return self.a._formula(t) - self.b._formula(t)

    def value(self, t, side=Side.POINTWISE):
        self._check_domain(t)
        return self.a.value(t, side) - self.b.value(t, side)

    def node_limits(self, ts):
        # per operand, as ``value``: a switch that cancels here is missing from this table
        self._check_nodes(ts)
        la, ra = self.a.node_limits(ts)
        lb, rb = self.b.node_limits(ts)
        return [x - y for x, y in zip(la, lb)], [x - y for x, y in zip(ra, rb)]

    def _switch_table(self):
        return _cached_table(self)

    def _build_table(self) -> np.ndarray:
        cands = list(self.a._switch_table().floats) + list(self.b._switch_table().floats)
        return _filter_jumps(self, cands)

    def segment_form(self, tl, tr):
        fa = self.a.segment_form(tl, tr)
        fb = self.b.segment_form(tl, tr)
        if fa is None or fb is None:
            return None
        if fa.amp == 0.0 and fb.amp == 0.0:
            return SegmentForm(fa.const - fb.const)
        if fb.amp == 0.0:
            return SegmentForm(fa.const - fb.const, fa.amp, fa.omega, fa.phase)
        if fa.amp == 0.0:
            return SegmentForm(fa.const - fb.const, -fb.amp, fb.omega, fb.phase)
        if fa.omega == fb.omega and fa.phase == fb.phase:
            return SegmentForm(fa.const - fb.const, fa.amp - fb.amp, fa.omega, fa.phase)
        return None


# ---------------------------------------------------------------------------
# CLI-facing textual signal specs, e.g. "pwm:m=400", "diff:pwm:m=400-sine"


def parse_kv(body: str, keys: dict[str, str | None], nested: str | None = None) -> dict[str, str]:
    """Parse the ``key=value,...`` body of a spec, strictly.

    ``keys`` maps every allowed key to its default; a default of None marks a
    required key.  Unknown, repeated or missing keys and tokens without ``=``
    raise ``ValueError``.  Tokens after ``nested=`` whose key is not allowed
    belong to the nested value, so ``input=pwm3:m=400,phase=2`` stays whole.
    """
    out: dict[str, str] = {}
    last = None
    for tok in body.split(",") if body else ():
        key, eq, value = tok.partition("=")
        key = key.strip()
        if nested is not None and last == nested and key not in keys:
            out[nested] += "," + tok
            continue
        if not eq:
            raise ValueError(f"expected key=value, got {tok!r}")
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {body!r}; allowed: {', '.join(sorted(keys)) or 'none'}")
        if key in out:
            raise ValueError(f"key {key!r} given twice in {body!r}")
        out[key] = value.strip()
        last = key
    for key, default in keys.items():
        if key not in out:
            if default is None:
                raise ValueError(f"missing required key {key!r}")
            out[key] = default
    return out


def parse_signal(spec: str, period: float = 0.02) -> Signal:
    """Build a signal from its CLI name.

    Supported: ``pwm:m=400``, ``step``, ``sine``, ``pwm3:m=400,phase=1``,
    ``sine3:phase=1``, ``const:v=1``, ``zero`` and ``diff:<a>-<b>``; the
    ``key=value`` body follows ``parse_kv``.
    """
    spec = spec.strip()
    head, _, body = spec.partition(":")
    if head == "diff":
        # try every split of the payload into two parseable sub-specs
        for i in range(1, len(body)):
            if body[i] != "-":
                continue
            try:
                return Difference(parse_signal(body[:i], period), parse_signal(body[i + 1 :], period))
            except ValueError:
                continue
        raise ValueError(f"cannot parse difference signal {spec!r}")
    # each kind's keys with their defaults (None: required), and its constructor
    kinds = {
        "pwm": ({"m": None}, lambda kv: PwmSingle(m=int(kv["m"]), period=period)),
        "step": ({}, lambda kv: StepWave(period=period)),
        "sine": ({}, lambda kv: SineWave(period=period)),
        "pwm3": ({"m": None, "phase": "1"},
                 lambda kv: ThreePhasePwm(m=int(kv["m"]), period=period, phase_index=int(kv["phase"]))),
        "sine3": ({"phase": "1"}, lambda kv: ThreePhaseSine(period=period, phase_index=int(kv["phase"]))),
        "const": ({"v": "1.0"}, lambda kv: Constant(value_=float(kv["v"]), period=period)),
        "zero": ({}, lambda kv: Zero(period=period)),
    }
    if head not in kinds:
        raise ValueError(f"unknown signal kind {head!r} in {spec!r}")
    keys, build = kinds[head]
    return build(parse_kv(body, keys))
