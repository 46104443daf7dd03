"""Excitation waveforms with exactly known switching structure.

There is one class per waveform, and each checks its parameters on
construction (``Signal.__post_init__``).

Every signal is defined on one period ``[0, T]`` and knows where it is
discontinuous.  Integrators and the exact linear solver rely on
``switching_times`` to segment the time axis and on ``Side`` hints to take
one-sided values at segment boundaries.  A signal with switches is constant
between them: its one-sided values and its closed forms are the constants
of its switch-to-switch segments, each ``_formula`` at the segment's
midpoint, kept with the switches in one table per signal (``_SwitchTable``).
They have two readers, one per call shape: ``value`` takes one side of one
node with one ``bisect`` on the switch table, and ``_limits_array`` both
sides of an array of nodes in whole-array operations (a theta step's set-up
uses it for the nodes inside its grid).  ``segment_form`` reads the constant
of the table segment that holds its interval's midpoint.

Switch tolerances, each with its scale (T is the period, finite for every
signal) and purpose:

* ``SWITCH_TOL`` = 1e-15, times T: the bracket width at which a PWM
  comparator root search (``_build_table``) stops bisecting.
* ``MERGE_TOL`` = 1e-13, times T: root candidates closer than this merge
  into one switch (``_filter_jumps``), and a switch this close to an end of
  ``(t0, t1)`` lies outside the open interval (``switching_times``,
  ``grid_switches``).  Times (t1 - t0): where a theta substep grid is merged
  with the switches of ``(t0, t1)``, a time this close to the one before it
  is dropped (``ThetaPropagator._grid``).
* ``SNAP_TOL`` = 1e-9, times T: a time this close to a switch counts as at
  the switch for one-sided values (``value`` and ``_limits_array``).
* ``JUMP_TOL`` = 1e-9, absolute: a root candidate is a switch only if the
  value changes by more than this across it (``_filter_jumps``).
* ``PwmSingle._SIN_TIE`` = 3e-15, absolute: a sine value below this is the
  comparator tie ``sin = 0``, resolved to the 0 branch.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, wraps
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
    """A signal's switching instants in (0, period), strictly increasing, and its segment constants.

    ``times`` serves the range queries of ``switching_times``; ``floats`` holds
    the same values as a tuple for the scalar lookups of a segment constant
    (``value``, ``segment_form``), and ``fenced`` as an array between -inf and
    +inf for the array form of it (``_limits_array``).  ``consts`` (a tuple)
    and ``const_array`` hold the constant of each segment between two fences,
    0 and T the outer ones: ``_formula`` at the segment's midpoint.
    """

    times: np.ndarray
    floats: tuple[float, ...]
    fenced: np.ndarray
    consts: tuple[float, ...]
    const_array: np.ndarray


_NO_SWITCHES = _SwitchTable(np.empty(0), (), np.array([-math.inf, math.inf]), (), np.empty(0))

# serializes the lookups of every per-process table so that concurrent first
# lookups build an entry once; reentrant because one table is built from
# others (a Difference's switch table from its operands', a model's segment
# steps from its input's table, a run's reference from both)
_TABLE_LOCK = threading.RLock()


def _per_process(build):
    """``build`` kept per process: an ``lru_cache`` of up to 64 entries whose lookups hold
    ``_TABLE_LOCK``, with its ``cache_clear`` and ``cache_info``; a build that raises is not kept."""
    cached = lru_cache(maxsize=64)(build)

    @wraps(build)
    def lookup(*key):
        with _TABLE_LOCK:
            return cached(*key)

    lookup.cache_clear, lookup.cache_info = cached.cache_clear, cached.cache_info
    return lookup


@_per_process
def _table_cache(sig: Signal) -> _SwitchTable:
    times = sig._build_table()  # type: ignore[attr-defined]
    floats = tuple(times.tolist())
    fences = [0.0, *floats, sig.period]
    consts = tuple(sig._formula(0.5 * (lo + hi)) for lo, hi in zip(fences, fences[1:]))
    return _SwitchTable(times, floats, np.concatenate(([-math.inf], times, [math.inf])), consts, np.array(consts))


def _cached_table(sig: Signal) -> _SwitchTable:
    """The switch table of ``sig`` (``_build_table``), shared by all signals equal to it.  The first
    lookup on an instance goes through the cache and keeps the table on the instance, so later
    lookups skip hashing the signal and taking the lock."""
    table = sig.__dict__.get("_table")
    if table is None:
        table = _table_cache(sig)
        object.__setattr__(sig, "_table", table)
    return table


class Signal:
    """Base class; concrete signals are small frozen dataclasses."""

    period: float

    def __post_init__(self):
        # the one parameter check: m and phase_index where a signal has them, then the period
        if getattr(self, "m", 1) < 1:
            raise ValueError(f"pulse count m must be >= 1, got {self.m}")
        if getattr(self, "phase_index", 1) not in PHASE_SHIFTS:
            raise ValueError(f"phase_index must be 1..3, got {self.phase_index}")
        if not 0 < self.period < math.inf:
            raise ValueError(f"period must be positive and finite, got {self.period}")

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
        tol = MERGE_TOL * self.period
        return out[(out > t0 + tol) & (out < t1 - tol)]

    def grid_switches(self, times: list[float]) -> tuple[list[int], list[int]]:
        """``(lo, hi)``: ``switching_times(t0, t1)`` of interval ``n`` of the strictly
        increasing grid ``times`` is the slice ``lo[n]:hi[n]`` of the switch table,
        in one pass: the switches ``s`` with ``t0 + tol < s < t1 - tol``.  Any other
        grid raises for its first faulty interval: ``need t0 < t1, got (t0, t1)``
        where it does not increase, else the domain error of its first node outside."""
        grid = np.array(times)
        up = grid[1:] > grid[:-1]
        n = len(times) - 1 if up.all() else int(up.argmin())  # the first pair not increasing, else the last node
        if n:
            self._check_nodes(grid[: n + 1].tolist())
        if n < len(times) - 1:
            raise ValueError(f"need t0 < t1, got ({times[n]}, {times[n + 1]})")
        self.switching_times(times[0], times[-1])
        table = self._switch_table().times
        tol = MERGE_TOL * self.period
        lo = np.searchsorted(table, grid[:-1] + tol, side="right").tolist()
        return lo, np.searchsorted(table, grid[1:] - tol, side="left").tolist()

    # -- evaluation ----------------------------------------------------------

    def value(self, t: float, side: Side = Side.POINTWISE) -> float:
        """Signal value at ``t``: ``_formula(t)``, or with a ``side`` the one-sided value.

        A signal with no switches takes ``_formula(t)`` for both sides.  One
        with switches is constant between them (``Difference``, whose segments
        need not be, overrides this), and a side reads its segment constants
        (``_SwitchTable.consts``): within ``SNAP_TOL * T`` of a switch, the
        constant on that side of it (the switch at or after ``t`` wins a tie
        with the one before it), and otherwise ``t``'s own segment's constant.
        So at a point off the switches, such as a comparator tie or an end of
        the domain, both sides are the limits, not ``_formula``'s point value
        there.  The values are only as right as the table: a switch missing
        from it merges two segments into one constant, for a theta step as
        for ``segment_form``.
        """
        if not 0.0 <= t <= self.period:  # the check's call only where it may raise
            self._check_domain(t)
        if side is Side.POINTWISE or not (table := self._switch_table()).floats:
            return self._formula(t)
        switches, tol = table.floats, SNAP_TOL * self.period
        # t's segment is i: t lies after switches[i - 1] and at or before switches[i]
        i = bisect_left(switches, t)
        if i < len(switches) and switches[i] - t <= tol:
            i += side is Side.RIGHT_LIMIT
        elif i and t - switches[i - 1] <= tol:
            i -= side is Side.LEFT_LIMIT
        return table.consts[i]

    def _limits_array(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``([value(t, LEFT_LIMIT) ...], [value(t, RIGHT_LIMIT) ...])`` over the
        increasing times ``ts``, as two arrays: the nodes' segments are one
        ``searchsorted`` against the switch table, and their two neighbours
        come from the table with its infinite fences."""
        if not len(ts):
            return ts, ts
        if ts[0] < 0.0 or ts[-1] > self.period:
            self._check_nodes(ts.tolist())
        table = self._switch_table()
        if not table.floats:
            lefts = np.fromiter(map(self._formula, ts.tolist()), float, len(ts))
            return lefts, lefts
        consts = table.const_array
        tol = SNAP_TOL * self.period
        i = table.times.searchsorted(ts)
        at_next = table.fenced[i + 1] - ts <= tol
        at_prev = ~at_next & (ts - table.fenced[i] <= tol)
        return consts[i - at_prev], consts[i + at_next]

    def segment_form(self, tl: float, tr: float) -> SegmentForm | None:
        """Closed form on a switch-free interval; None only for sinusoids of two frequencies (``Difference``)."""
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------

    def _check_domain(self, t: float) -> None:
        if t < 0.0 or t > self.period:
            raise ValueError(f"t={t} outside signal domain [0, {self.period}]")

    def _check_nodes(self, ts: list[float]) -> None:
        """``_check_domain`` of each of the increasing times ``ts``: the first one outside raises."""
        if ts and (ts[0] < 0.0 or ts[-1] > self.period):
            for t in ts:
                self._check_domain(t)


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
    """Root candidates of ``g`` on ``[lo, hi]``, in plain floats: every zero
    sample, and a root bisected between each two neighbouring samples of
    strictly opposite sign.

    The samples are ``i*step + lo`` with ``step = (hi - lo)/(samples - 1)`` and
    the last one ``hi``: the bits of ``np.linspace(lo, hi, samples)``.  A NaN
    sample brackets nothing.
    """
    step = (hi - lo) / (samples - 1)
    ts = [i * step + lo for i in range(samples - 1)] + [hi]
    gs = [g(t) for t in ts]
    roots = [t for t, v in zip(ts, gs) if v == 0.0] if 0.0 in gs else []
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
    it (``_scan_roots``, whose zero samples include these bracket ends); the
    tooth ends themselves are candidates too.
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
    """The candidates inside ``(0, T)`` where the pointwise value actually changes."""
    cand = sorted(candidates)
    cand = cand[bisect_right(cand, 0.0) : bisect_left(cand, sig.period)]
    if not cand:
        return np.empty(0)
    merged = [cand[0]]
    tol = MERGE_TOL * sig.period
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
# concrete signals, one class per waveform


class _Switched(Signal):
    """A signal with switches (``_build_table``), constant between two: an interval's form is
    the constant of the table segment that holds its midpoint (``Difference`` has its own)."""

    def _switch_table(self):
        return _cached_table(self)

    def segment_form(self, tl, tr):
        table = _cached_table(self)
        return SegmentForm(table.consts[bisect_right(table.floats, 0.5 * (tl + tr))])


@dataclass(frozen=True)
class SineWave(Signal):
    """``sin(2*pi*t/T + PHASE_SHIFTS[phase_index])``; phase 1, the default, is ``sin(2*pi*t/T)``."""

    period: float
    phase_index: int = 1

    def _formula(self, t: float) -> float:
        return math.sin(TWO_PI * t / self.period + PHASE_SHIFTS[self.phase_index])

    def segment_form(self, tl, tr):
        return SegmentForm(0.0, 1.0, TWO_PI / self.period, PHASE_SHIFTS[self.phase_index])


@dataclass(frozen=True)
class StepWave(_Switched):
    """+1 on [0, T/2), -1 on [T/2, T]."""

    period: float

    def _formula(self, t: float) -> float:
        return 1.0 if t < 0.5 * self.period else -1.0

    def _build_table(self) -> np.ndarray:
        return np.array([0.5 * self.period])


@dataclass(frozen=True)
class Constant(Signal):
    """Constant value on ``[0, period]``.  ``zero`` parses to ``Constant(0.0, period)``."""

    value_: float
    period: float

    def _formula(self, t: float) -> float:
        return self.value_

    def segment_form(self, tl, tr):
        return SegmentForm(self.value_)


@dataclass(frozen=True)
class PwmSingle(_Switched):
    """Natural-sampled single-phase PWM with m pulses per period.

    Value is ``sign(sin(2*pi*t/T))`` while the sawtooth ``s_m(t)`` lies below
    ``|sin(2*pi*t/T)|`` and 0 otherwise, so the signal takes values in
    {-1, 0, +1}.  The comparator tie resolves to the 0 branch.
    """

    m: int
    period: float

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

    def _build_table(self) -> np.ndarray:
        period = self.period

        def tooth(ta: float, h: float):
            return lambda t: (t - ta) / h - abs(math.sin(TWO_PI * t / period))

        return _scan_teeth(self, tooth)


@dataclass(frozen=True)
class ThreePhasePwm(_Switched):
    """Bipolar trailing-edge PWM against a sawtooth carrier, values {-1, +1}.

    Comparator is ``sin(2*pi*t/T + phi_s) - b_m(t)`` with carrier
    ``b_m(t) = 2*s_m(t) - 1``; the sign-zero tie resolves to +1.
    """

    m: int
    period: float
    phase_index: int = 1

    def _comparator(self, t: float) -> float:
        x = (self.m / self.period) * t
        carrier = 2.0 * (x - math.floor(x)) - 1.0
        return math.sin(TWO_PI * t / self.period + PHASE_SHIFTS[self.phase_index]) - carrier

    def _formula(self, t: float) -> float:
        return 1.0 if self._comparator(t) >= 0.0 else -1.0

    def _build_table(self) -> np.ndarray:
        period, shift = self.period, PHASE_SHIFTS[self.phase_index]

        # carrier parameterized within the tooth so it does not wrap at its end
        def tooth(ta: float, h: float):
            return lambda t: math.sin(TWO_PI * t / period + shift) - (2.0 * (t - ta) / h - 1.0)

        return _scan_teeth(self, tooth)


@dataclass(frozen=True)
class Difference(_Switched):
    """Pointwise difference ``a(t) - b(t)``, built from Python: no spec names it."""

    a: Signal
    b: Signal

    @property
    def period(self) -> float:  # type: ignore[override]
        return min(self.a.period, self.b.period)

    def _formula(self, t: float) -> float:
        return self.a._formula(t) - self.b._formula(t)

    def value(self, t, side=Side.POINTWISE):
        # per operand: a switch that cancels here is missing from this table
        self._check_domain(t)
        return self.a.value(t, side) - self.b.value(t, side)

    def _limits_array(self, ts):
        if len(ts) and (ts[0] < 0.0 or ts[-1] > self.period):
            self._check_nodes(ts.tolist())
        la, ra = self.a._limits_array(ts)
        lb, rb = self.b._limits_array(ts)
        return la - lb, ra - rb

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
        if fa.omega != fb.omega:
            return None
        # one frequency, two phases: the difference of the phasors is one sinusoid
        c = fa.amp * math.cos(fa.phase) - fb.amp * math.cos(fb.phase)
        s = fa.amp * math.sin(fa.phase) - fb.amp * math.sin(fb.phase)
        return SegmentForm(fa.const - fb.const, math.hypot(c, s), fa.omega, math.atan2(s, c))


# ---------------------------------------------------------------------------
# CLI-facing textual specs ``kind[:key=value,...]``, e.g. "pwm:m=400", "rl:input=sine", "cn:substeps=4"


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


def parse_spec(spec: str, what: str, kinds: dict, *context):
    """Build what ``kind[:body]`` names: ``kinds[kind]`` is ``(keys, build[, nested])``, and ``build`` gets
    ``parse_kv(body, keys, nested)`` and the caller's ``context``.  An unknown kind raises ``ValueError``."""
    spec = spec.strip()
    kind, _, body = spec.partition(":")
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r} in {spec!r}")
    keys, build, *nested = kinds[kind]
    return build(parse_kv(body, keys, *nested), *context)


# each signal kind's keys with their defaults (None: required), and its constructor from them and the period
_SIGNAL_KINDS = {
    "pwm": ({"m": None}, lambda kv, period: PwmSingle(m=int(kv["m"]), period=period)),
    "step": ({}, lambda kv, period: StepWave(period=period)),
    "sine": ({}, lambda kv, period: SineWave(period=period)),
    "pwm3": ({"m": None, "phase": "1"},
             lambda kv, period: ThreePhasePwm(m=int(kv["m"]), period=period, phase_index=int(kv["phase"]))),
    "sine3": ({"phase": "1"}, lambda kv, period: SineWave(period=period, phase_index=int(kv["phase"]))),
    "const": ({"v": "1.0"}, lambda kv, period: Constant(value_=float(kv["v"]), period=period)),
    "zero": ({}, lambda kv, period: Constant(value_=0.0, period=period)),
}


def parse_signal(spec: str, period: float = 0.02) -> Signal:
    """Build a signal from its CLI name (``parse_spec``): ``pwm:m=400``, ``step``, ``sine``, ``pwm3:m=400,phase=1``,
    ``sine3:phase=1``, ``const:v=1`` or ``zero``.  A ``Difference`` has no spec: it is built from Python."""
    return parse_spec(spec, "signal", _SIGNAL_KINDS, period)
