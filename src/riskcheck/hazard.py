"""Piecewise hazard trajectories for maintained systems.

A trajectory is a sequence of parametric segments covering [0, inf), each
non-decreasing, with declared maintenance epochs at the (only) points where
the hazard is allowed to drop.  Five structural rules are enforced by
:func:`validate_trajectory`:

1. the hazard is positive and finite everywhere;
2. the hazard is right-continuous (declared post-maintenance values must
   match the following segment);
3. the hazard is non-decreasing except at maintenance epochs (every form
   is monotone, so a segment decreases iff its limit is below its start);
4. every strict decrease happens at a declared maintenance epoch, and a
   declared epoch must strictly decrease the hazard;
5. the time-zero hazard is the global infimum (restoration never improves
   the system beyond good-as-new).

Cumulative hazard, reliability R(t) = exp(-int_0^t h) and the failure CDF
are evaluated from exact per-segment antiderivatives.  The one integral
without a closed form, the mean time to failure, is a fixed Gauss-Legendre
rule on panels that end at segment starts and at fixed levels of the
cumulative hazard (:func:`mean_time_to_failure`).

Cost model: every O(segments) pass reads a trajectory's row table, its
segment starts and forms and its epoch times and post-hazards as tuples of
Python floats and form objects.  A trajectory loaded from JSON or
compiled from a scenario starts as that table and builds its ``segments``
and ``maintenance_epochs`` tuples only when something first reads them;
one built from its fields compiles the table from them once, on first use.
The structure check and the validator walk the table's rows.  Both stay
pure Python, since numpy's first calls in a fresh process cost more than
the whole check on a small trajectory.  The validator's report is
memoized on the trajectory object.

The first calculus call on a trajectory object compiles its segment
profile (start times and the cumulative hazard at each start) from the
table in O(segments) and memoizes it on that object; every later
``hazard_at`` or ``cumulative_hazard`` call is one bisect plus one form
call, O(log segments).  Inversion is array-native: the first inversion
compiles the profile's array columns (starts, prefix, lengths, and each
form class's parameters) once more in O(segments), and then a batch of up
to 65,536 targets costs one ``searchsorted`` plus one kernel call per form
class present, however many segments there are; a larger batch runs in
blocks of that size.  That array inverse is the only one: a single target
is a batch of one, and each form's one inverse is its array kernel
``invert_integral``.  There is no process-wide cache: the table, the
profile, its columns and the report live and die with their trajectory,
and equal but distinct objects each compile their own.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across threads; every memo is derived
from immutable fields, so two threads racing on the first read at most
compute the same value twice.  The four forms, ``HazardSegment`` and
``MaintenanceEpoch`` are frozen, slotted dataclasses: a long trajectory
holds one per row, each with its fields in slots and no ``__dict__``.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import attrgetter, sub
from typing import ClassVar, Union

import numpy as np

__all__ = [
    "Constant",
    "Linear",
    "Power",
    "ExponentialGrowth",
    "SEGMENT_FORMS",
    "HazardSegment",
    "MaintenanceEpoch",
    "HazardTrajectory",
    "Violation",
    "ValidationReport",
    "TrajectoryStructureError",
    "PrincipleViolationError",
    "validate_trajectory",
    "ensure_valid",
    "hazard_at",
    "cumulative_hazard",
    "reliability",
    "failure_cdf",
    "failure_probability",
    "survival_probability",
    "mean_time_to_failure",
    "invert_cumulative_hazard_array",
    "MTTF_CUTOFF_CUMULATIVE_HAZARD",
]

# Levels of H where the panels of mean_time_to_failure end (besides segment
# starts): the multiples of 2, so R falls by at most a factor exp(-2) across
# a panel, and below H = 2 powers of 8 down to 2**-41, so a hazard that
# starts tiny and grows fast is resolved too (below 2**-41, R is 1 to 12
# digits).  The integral stops at the first level from the cutoff H = 40 on
# (R = exp(-40) ~ 4e-18) where the dropped tail is below _MTTF_TAIL relative
# to the integral so far, and at the latest at H = 746, where R underflows.
_MTTF_LEVELS = tuple(2.0 * 8.0**-k for k in range(14, 0, -1)) + tuple(2.0 * k for k in range(1, 374))
MTTF_CUTOFF_CUMULATIVE_HAZARD = 40.0
_MTTF_TAIL = 1e-16
# The 20-point Gauss-Legendre rule on [0, 1], as (node, weight) pairs: the
# nodes x and weights w that numpy's Legendre module computes for 20 points
# on [-1, 1] (by an eigen-solve), mapped to (1 + x) / 2 and w / 2 and written
# out as the reprs of those doubles.  As constants the rule costs no eigen-solve at import, and MTTF
# does not depend on the machine's LAPACK.
_GAUSS_LEGENDRE = (
    (0.003435700407452502, 0.008807003569575447),
    (0.018014036361043095, 0.020300714900193223),
    (0.04388278587433703, 0.031336024167054395),
    (0.08044151408889061, 0.04163837078835236),
    (0.1268340467699246, 0.05096505990862035),
    (0.1819731596367425, 0.0590972659807593),
    (0.24456649902458644, 0.06584431922458844),
    (0.3131469556422902, 0.0710480546591912),
    (0.38610707442917747, 0.07458649323630212),
    (0.46173673943325133, 0.07637669356536314),
    (0.5382632605667487, 0.07637669356536314),
    (0.6138929255708225, 0.07458649323630212),
    (0.6868530443577098, 0.0710480546591912),
    (0.7554335009754136, 0.06584431922458844),
    (0.8180268403632576, 0.0590972659807593),
    (0.8731659532300754, 0.05096505990862035),
    (0.9195584859111094, 0.04163837078835236),
    (0.956117214125663, 0.031336024167054395),
    (0.981985963638957, 0.020300714900193223),
    (0.9965642995925474, 0.008807003569575447),
)
# Below this a float is subnormal and carries fewer than 53 significant bits.
_SMALLEST_NORMAL = sys.float_info.min


class TrajectoryStructureError(ValueError):
    """Candidate trajectory is malformed (ordering, coverage, non-finite
    fields) — distinct from a principle violation, which is reported in a
    :class:`ValidationReport` instead of raised."""


class PrincipleViolationError(ValueError):
    """An operation required a valid trajectory but got one that fails
    validation; carries the offending report."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        lines = "; ".join(
            f"principle {v.principle} at t={v.location:g}: {v.message}"
            for v in report.violations
        )
        super().__init__(f"trajectory violates the hazard principles: {lines}")


# ---------------------------------------------------------------------------
# Segment forms.  Every form class carries the whole form protocol, in
# elapsed time u = t - segment start:
#
# * ``name``: its JSON name; its JSON params are its dataclass fields;
# * ``value(u)`` and ``integral(u)``, the exact antiderivative from 0;
# * ``invert_integral(area, *params)``, a staticmethod and the form's only
#   inverse: the first u with integral(u) == area, lane by lane, for arrays
#   of areas >= 0 and of the form's parameters in ``_PARAMS`` order;
#   relative to u whatever the time unit; nan or inf where a hazard that is
#   not positive has no root.  It runs under ``np.errstate(all="ignore")``
#   and masks every edge case; a single area is a batch of one;
# * ``limit_at_infinity()``: the limit of the value as u grows;
# * ``time_to_reach(level)``: the first u >= 0 with value(u) == level, or
#   None if the form never gets there.
#
# A form's value must be monotone in u: principle 3 reads a limit below
# value(0) as a decrease, and nothing else.
#
# Where the value or the area overflows, value and integral saturate to the
# signed infinity instead of raising OverflowError; an exp or ** that
# overflows or underflows inside a finite product is rescaled (exp in log
# space, ** by a power of two), so the product keeps its digits.  Adding a
# form means writing one class and listing it in SEGMENT_FORMS.
# ---------------------------------------------------------------------------


def _times_overflow(scale: float) -> float:
    """``scale * x`` for an x that overflowed past the largest float."""
    return math.copysign(math.inf, scale) if scale != 0.0 else 0.0


def _exp_times(scale: float, x: float) -> float:
    """``scale * exp(x)``, taken in log space where exp(x) alone overflows
    or underflows, so it saturates only where the product does."""
    try:
        factor = math.exp(x)
        if _SMALLEST_NORMAL <= factor < math.inf:
            return scale * factor
    except OverflowError:
        pass
    if scale == 0.0:
        return scale  # not 0 * inf = nan where x itself is inf
    try:
        return math.copysign(math.exp(x + math.log(abs(scale))), scale)
    except OverflowError:
        return _times_overflow(scale)


def _power_times(scale: float, u: float, exponent: float, divisor: float = 1.0) -> float:
    """``scale * u**exponent / divisor`` for u > 0 where u**exponent alone
    overflows or underflows but the result may not."""
    # With u = m * 2**e and scale = s * 2**f, u**exponent is m**exponent
    # times 2**(e * exponent), whose exponent splits exactly into an integer
    # k and a fraction; the product then needs one ldexp, so it stays
    # accurate to a few ulp.  Only a mantissa power out of range (an
    # exponent past about 1000) falls back to log space.
    (m, e), (s, f) = math.frexp(u), math.frexp(scale)
    num, den = exponent.as_integer_ratio()
    k, rest = divmod(e * num, den)
    try:
        factor = m**exponent * 2.0 ** (rest / den)
        if _SMALLEST_NORMAL <= factor < math.inf:
            return math.ldexp(s * factor / divisor, f + k)
    except OverflowError:
        pass
    return _exp_times(scale, exponent * math.log(u) - math.log(divisor))


def _patch(out: np.ndarray, where: np.ndarray, kernel, *columns: np.ndarray) -> np.ndarray:
    """``out`` with the lanes ``where`` holds replaced by ``kernel`` of those
    lanes of ``columns``: a branch only the lanes that take it pay for."""
    count = np.count_nonzero(where)
    if count == out.size:  # every lane: no gather
        return kernel(*columns)
    if count:
        lanes = where.nonzero()[0]
        out[lanes] = kernel(*(c[lanes] for c in columns))
    return out


def _saturate(area: np.ndarray) -> np.ndarray:
    """What a zero rate accumulates: the signed infinity, or 0 for a zero area."""
    return np.where(area != 0.0, np.copysign(np.inf, area), 0.0)


def _divide(area: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """``area / rate`` lane by lane; a zero rate never accumulates a nonzero
    area, and saturates a nonzero one."""
    return _patch(area / rate, rate == 0.0, _saturate, area)


def _elapsed(u: float) -> float | None:
    """``u`` if it is a reachable elapsed time (finite, nonnegative), else None."""
    return u if 0.0 <= u < math.inf else None


def _as_floats(obj, *names: str) -> None:
    """Store the fields ``names`` of a frozen dataclass as exact floats.
    Its callers check first, so a float from JSON is never written twice."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not float:
            object.__setattr__(obj, name, float(value))


@dataclass(frozen=True, slots=True)
class Constant:
    """Flat hazard ``level``."""

    level: float
    name: ClassVar[str] = "constant"

    def __post_init__(self):
        if type(self.level) is not float:
            _as_floats(self, "level")

    def value(self, u: float) -> float:
        return self.level

    def integral(self, u: float) -> float:
        return self.level * u

    @staticmethod
    def invert_integral(area: np.ndarray, level: np.ndarray) -> np.ndarray:
        return _divide(area, level)

    def limit_at_infinity(self) -> float:
        return self.level

    def time_to_reach(self, level: float) -> float | None:
        return 0.0 if level == self.level else None


@dataclass(frozen=True, slots=True)
class Linear:
    """Hazard ``intercept + slope * u``."""

    intercept: float
    slope: float
    name: ClassVar[str] = "linear"

    def __post_init__(self):
        if not type(self.intercept) is type(self.slope) is float:
            _as_floats(self, "intercept", "slope")

    def value(self, u: float) -> float:
        return self.intercept + self.slope * u

    def integral(self, u: float) -> float:
        return u * (self.intercept + 0.5 * self.slope * u)

    @staticmethod
    def invert_integral(area: np.ndarray, intercept: np.ndarray, slope: np.ndarray) -> np.ndarray:
        # Stable root of slope/2 u^2 + intercept u - area = 0; a falling
        # hazard whose area never reaches `area` has a negative radicand.
        radicand = intercept * intercept + 2.0 * slope * area
        root = np.sqrt(np.where(radicand > 0.0, radicand, 0.0))
        # Where the radicand overflowed, hypot never forms it.
        spilled = (root == np.inf) & (slope > 0.0)
        root = _patch(
            root, spilled, lambda i, s, a: np.hypot(i, np.sqrt(s) * np.sqrt(2.0 * a)), intercept, slope, area
        )
        return _patch(_divide(2.0 * area, intercept + root), slope == 0.0, _divide, area, intercept)

    def limit_at_infinity(self) -> float:
        if self.slope == 0.0:
            return self.intercept
        return math.inf if self.slope > 0.0 else -math.inf

    def time_to_reach(self, level: float) -> float | None:
        if self.slope == 0.0:
            return 0.0 if level == self.intercept else None
        return _elapsed((level - self.intercept) / self.slope)


@dataclass(frozen=True, slots=True)
class Power:
    """Hazard ``base + coefficient * u**exponent``."""

    base: float
    coefficient: float
    exponent: float
    name: ClassVar[str] = "power"

    def __post_init__(self):
        if not type(self.base) is type(self.coefficient) is type(self.exponent) is float:
            _as_floats(self, "base", "coefficient", "exponent")

    def value(self, u: float) -> float:
        if u == 0.0:
            # Right limit at the segment start; u**e is singular for e <= 0.
            if self.exponent > 0.0 or self.coefficient == 0.0:
                return self.base
            if self.exponent == 0.0:
                return self.base + self.coefficient
            return math.inf if self.coefficient > 0.0 else -math.inf
        try:
            power = u**self.exponent
            if power >= _SMALLEST_NORMAL:
                return self.base + self.coefficient * power
        except OverflowError:
            pass
        return self.base + _power_times(self.coefficient, u, self.exponent)

    def integral(self, u: float) -> float:
        if self.coefficient == 0.0:
            return self.base * u
        if self.exponent <= -1.0:
            # u**exponent is not integrable at 0: the area from 0 diverges.
            return 0.0 if u == 0.0 else self.base * u + _times_overflow(self.coefficient)
        power = self.exponent + 1.0
        try:
            scaled = u**power
            if scaled >= _SMALLEST_NORMAL or u == 0.0:
                return self.base * u + self.coefficient * scaled / power
        except OverflowError:
            pass
        return self.base * u + _power_times(self.coefficient, u, power, power)

    @staticmethod
    def invert_integral(
        area: np.ndarray, base: np.ndarray, coefficient: np.ndarray, exponent: np.ndarray
    ) -> np.ndarray:
        # A power term that is not a growing area has no root to report.
        grows = (coefficient > 0.0) & (exponent + 1.0 > 0.0)
        u = _power_start(area, base, coefficient, exponent + 1.0)
        # Newton polishes a finite start; at an infinite one the area is not
        # reached at a float time.
        newton = grows & (base > 0.0) & (u < np.inf)
        u = np.where(grows, _patch(u, newton, _power_newton, area, base, coefficient, exponent, u), np.nan)
        return _patch(u, coefficient == 0.0, _divide, area, base)

    def limit_at_infinity(self) -> float:
        if self.coefficient == 0.0 or self.exponent < 0.0:
            return self.base
        if self.exponent == 0.0:
            return self.base + self.coefficient
        return math.inf if self.coefficient > 0.0 else -math.inf

    def time_to_reach(self, level: float) -> float | None:
        if self.coefficient == 0.0:
            return 0.0 if level == self.base else None
        if self.exponent == 0.0:
            return 0.0 if level == self.base + self.coefficient else None
        ratio = (level - self.base) / self.coefficient
        if not ratio > 0.0:
            # base is the start value for exponent > 0 and only the limit for
            # exponent < 0; a negative ratio is never reached (and its
            # fractional power would be complex).
            return 0.0 if ratio == 0.0 and self.exponent > 0.0 else None
        try:
            u = ratio ** (1.0 / self.exponent)
        except OverflowError:
            return None
        # u == 0 means u underflowed; for exponent < 0 the value there is
        # infinite, not the level.
        return _elapsed(u) if u > 0.0 or self.exponent > 0.0 else None


@dataclass(frozen=True, slots=True)
class ExponentialGrowth:
    """Hazard ``base * exp(growth * u)``."""

    base: float
    growth: float
    name: ClassVar[str] = "exponential_growth"

    def __post_init__(self):
        if not type(self.base) is type(self.growth) is float:
            _as_floats(self, "base", "growth")

    def value(self, u: float) -> float:
        return _exp_times(self.base, self.growth * u)

    def integral(self, u: float) -> float:
        x = self.growth * u
        if abs(x) < _SMALLEST_NORMAL:  # expm1(x) / x is 1 for x 0 or subnormal
            return self.base * u
        try:
            return self.base * math.expm1(x) / self.growth
        except OverflowError:  # x is large, so growth > 0 and expm1 is exp
            return _exp_times(self.base, x - math.log(self.growth))

    @staticmethod
    def invert_integral(area: np.ndarray, base: np.ndarray, growth: np.ndarray) -> np.ndarray:
        ratio = growth * area / base
        # A decaying hazard whose whole area is at most `area` never reaches it.
        u = np.where(ratio > -1.0, np.log1p(ratio) / growth, np.inf)
        # log1p(r) = log(r) for r past the float range
        u = _patch(
            u, ratio == np.inf, lambda g, a, b: (np.log(g) + np.log(a) - np.log(b)) / g, growth, area, base
        )
        # log1p(r) / r is 1 for r 0 or subnormal
        u = _patch(u, np.abs(ratio) < _SMALLEST_NORMAL, np.divide, area, base)
        # A hazard that is never positive never gathers area.
        return _patch(u, ~(base > 0.0), _saturate, area)

    def limit_at_infinity(self) -> float:
        if self.growth == 0.0 or self.base == 0.0:
            return self.base
        return math.copysign(math.inf, self.base) if self.growth > 0.0 else 0.0

    def time_to_reach(self, level: float) -> float | None:
        if self.growth == 0.0 or self.base == 0.0:
            return 0.0 if level == self.base else None
        ratio = level / self.base
        if not ratio > 0.0:
            return None
        return _elapsed(math.log(ratio) / self.growth)


def _power_start(area, base, coefficient, power) -> np.ndarray:
    """Where ``Power``'s Newton starts, min(u1, u2), for a growing power term.

    I(u) = base u + coefficient u**power / power is the sum of two growing
    terms, and each alone reaches the area at a closed-form time,
    u1 = area / base and u2, the root of the power term; where the ratio
    alone overflowed or underflowed, its root may not.  u2 is the root for
    base 0; a negative base breaks principle 1.
    """
    ratio = power * area / coefficient
    normal = ((_SMALLEST_NORMAL <= ratio) & (ratio < np.inf)) | (area == 0.0)
    u2 = _patch(np.power(ratio, 1.0 / power), ~normal, _log_root, power, area, coefficient)
    return np.where(base > 0.0, np.minimum(area / base, u2), u2)


def _log_root(power: np.ndarray, area: np.ndarray, coefficient: np.ndarray) -> np.ndarray:
    """(power * area / coefficient) ** (1 / power) in log space, for a ratio
    that alone overflowed or underflowed while its root may not."""
    return np.exp((np.log(power) + np.log(area) - np.log(coefficient)) / power)


def _power_newton(
    area: np.ndarray, base: np.ndarray, coefficient: np.ndarray, exponent: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """The roots of base u + coefficient u**(exponent + 1) / (exponent + 1)
    = area, lane by lane, for base, coefficient and exponent + 1 positive,
    from a finite start u = min(u1, u2) (see :func:`_power_start`).

    For exponent >= 0 the root lies in [u/2, u]: at u one term alone reaches
    the area, at u/2 neither passes half of it.  Newton runs from u
    (downhill on a convex I) inside the bracket of signs seen so far,
    bisecting where a step leaves it or does not halve, and a lane stops at
    a step of 4 ulp.  Nothing depends on the time unit, and a start rounded
    below the root costs a step or two: while no iterate lies above the
    root, a step that does not halve is rounding noise and the lane stops
    after it.  Each lane's iterates depend on that lane alone, and a
    lane leaves the arrays once it stops.
    """
    out, lanes = np.empty_like(u), np.arange(u.size)
    lo, hi, last = np.zeros_like(u), np.full_like(u, np.inf), np.full_like(u, np.inf)
    while lanes.size:
        u, lo, hi, last, done = _newton_step(area, base, coefficient, exponent, u, lo, hi, last)
        finished = done.nonzero()[0]
        if finished.size:
            out[lanes[finished]] = u[finished]
            keep = ~done
            lanes, u, lo, hi, last = lanes[keep], u[keep], lo[keep], hi[keep], last[keep]
            area, base, coefficient, exponent = area[keep], base[keep], coefficient[keep], exponent[keep]
    return out


def _newton_step(area, base, coefficient, exponent, u, lo, hi, last) -> tuple[np.ndarray, ...]:
    """One safeguarded Newton step on every lane of ``_power_newton``: the
    next u, the new bracket [lo, hi], the step length, and which lanes stop
    (at a step of 4 ulp, past the largest float, or at rounding noise)."""
    params, power = (u, base, coefficient, exponent), exponent + 1.0
    term = np.power(u, power)
    excess = _or_scalar(Power.integral, base * u + coefficient * term / power, term, *params) - area
    above = excess > 0.0
    lo, hi = np.where(above, lo, u), np.where(above, u, hi)
    term = np.power(u, exponent)
    step = excess / _or_scalar(Power.value, base + coefficient * term, term, *params)
    new = u - step
    # With no iterate above the root yet, u is the start rounded below the
    # root, and a step up that does not halve is rounding noise: the lane
    # takes it and stops.
    halves, below = np.abs(step) <= 0.5 * last, hi == np.inf
    bisect = ~((halves | below) & (lo <= new) & (new <= hi))
    if np.count_nonzero(bisect):  # most steps are Newton steps in every lane
        step = np.where(bisect, u - (lo + 0.5 * (hi - lo)), step)
        new = u - step
    last = np.abs(step)
    return new, lo, hi, last, (last <= 4.0 * 2.0**-52 * u) | ~(new < np.inf) | (below & ~halves & ~bisect)


def _or_scalar(kernel, result, term, u, base, coefficient, exponent) -> np.ndarray:
    """``result`` where the power of u in it, ``term``, is normal, else
    ``Power``'s scalar ``kernel`` at u: that one handles u = 0 and rescales
    a power that left the normal range."""
    for j in (~((term >= _SMALLEST_NORMAL) & (term < np.inf))).nonzero()[0].tolist():
        form = Power(float(base[j]), float(coefficient[j]), float(exponent[j]))
        result[j] = kernel(form, float(u[j]))
    return result


SEGMENT_FORMS = (Constant, Linear, Power, ExponentialGrowth)
SegmentForm = Union[SEGMENT_FORMS]

# Parameter names of each form, read with getattr: a form is slotted and has
# no __dict__.
_PARAMS = {cls: tuple(f.name for f in fields(cls)) for cls in SEGMENT_FORMS}


# ---------------------------------------------------------------------------
# Trajectory types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HazardSegment:
    """One piece of the trajectory, valid from ``start_time`` until the next
    segment begins (the last segment extends to infinity)."""

    start_time: float
    form: SegmentForm

    def __post_init__(self):
        if type(self.start_time) is not float:
            _as_floats(self, "start_time")


@dataclass(frozen=True, slots=True)
class MaintenanceEpoch:
    """Declared restorative action: the hazard drops to ``post_hazard`` at
    ``time``, which must coincide with a segment boundary."""

    time: float
    post_hazard: float

    def __post_init__(self):
        if not type(self.time) is type(self.post_hazard) is float:
            _as_floats(self, "time", "post_hazard")


@dataclass(frozen=True)
class HazardTrajectory:
    """Piecewise hazard h(t) on [0, inf) with declared maintenance epochs.

    Construction is deliberately permissive — candidates that break the
    hazard principles can be built so that
    :func:`validate_trajectory` has something to report.  Builders that
    promise validity (the scenario compiler, the JSON round trip in the CLI)
    call :func:`ensure_valid` after construction.

    Every O(segments) pass reads the trajectory's row table (``_table``):
    four tuples in trajectory order, (segment starts, segment forms, epoch
    times, epoch post-hazards).  A trajectory built from its fields compiles
    the table on first use; one loaded from JSON or compiled from a scenario
    starts from the table (:meth:`_from_table`) and builds its ``segments``
    and ``maintenance_epochs`` tuples only when something first reads them.
    Equality, hashing, ``repr`` and pickling read the fields, so the two
    cannot be told apart.
    """

    segments: tuple[HazardSegment, ...]
    # A factory, not a class attribute, so that a trajectory made by
    # _from_table finds no maintenance_epochs on its class and reaches
    # __getattr__ instead.
    maintenance_epochs: tuple[MaintenanceEpoch, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "maintenance_epochs", tuple(self.maintenance_epochs))

    @classmethod
    def _from_table(cls, table: tuple) -> HazardTrajectory:
        """The trajectory ``table`` describes, with its fields left unbuilt."""
        traj = object.__new__(cls)
        traj.__dict__["_table"] = table
        return traj

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: the fields of a
        # trajectory made by _from_table, until their first read builds them.
        table = self.__dict__.get("_table") if name in ("segments", "maintenance_epochs") else None
        if table is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        starts, forms, times, post_hazards = table
        object.__setattr__(self, "segments", tuple(map(HazardSegment, starts, forms)))
        object.__setattr__(self, "maintenance_epochs", tuple(map(MaintenanceEpoch, times, post_hazards)))
        return self.__dict__[name]

    def __reduce__(self):
        # A pickle holds the fields alone, not the table or what is memoized.
        return type(self), (self.segments, self.maintenance_epochs)

    @cached_property
    def _table(self) -> tuple:
        """The row table, compiled from the fields on first use.  Not a
        dataclass field, so equality, hashing and ``repr`` ignore it."""
        segments, epochs = self.segments, self.maintenance_epochs
        return (
            tuple(map(attrgetter("start_time"), segments)),
            tuple(map(attrgetter("form"), segments)),
            tuple(map(attrgetter("time"), epochs)),
            tuple(map(attrgetter("post_hazard"), epochs)),
        )

    @cached_property
    def _profile(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Segment start times and cumulative hazard at each start.

        Compiled on first use, not at construction, because candidates that
        fail validation must still be constructible.
        """
        starts, forms = self._table[:2]
        prefix = [0.0]
        for form, start, end in zip(forms, starts, starts[1:]):
            prefix.append(prefix[-1] + form.integral(end - start))
        return starts, tuple(prefix)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]:
        """The profile as arrays, for batch inversion: segment starts, the
        cumulative hazard at each start, segment lengths (inf for the last),
        each segment's form class as an index into ``SEGMENT_FORMS``, and per
        class present ``(index, class, parameter columns)``.  A class's
        columns run over all segments, in ``_PARAMS`` order; only the rows of
        its own segments are read."""
        starts, prefix = (np.array(x) for x in self._profile)
        forms = self._table[1]
        kinds = np.array([SEGMENT_FORMS.index(type(form)) for form in forms], dtype=np.int8)
        classes = []
        for k in sorted(set(kinds.tolist())):
            cls = SEGMENT_FORMS[k]
            columns = tuple(np.array([getattr(f, p, 0.0) for f in forms]) for p in _PARAMS[cls])
            classes.append((k, cls, columns))
        lengths = np.concatenate((starts[1:] - starts[:-1], [np.inf]))
        return starts, prefix, lengths, kinds, tuple(classes)


@dataclass(frozen=True)
class Violation:
    principle: int
    location: float
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking the five principles; ``valid`` iff no violations.

    ``notes`` carries informational flags that are not violations — currently
    only upward hazard jumps (shocks), which the principles permit.
    """

    valid: bool
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Structure and validation
# ---------------------------------------------------------------------------


def _check_structure(traj: HazardTrajectory) -> None:
    if not isinstance(traj, HazardTrajectory):
        raise TrajectoryStructureError(f"expected HazardTrajectory, got {type(traj).__name__}")
    starts, forms, times, post_hazards = traj._table
    if not starts:
        raise TrajectoryStructureError("trajectory needs at least one segment")
    for start, form in zip(starts, forms):
        if not math.isfinite(start):
            raise TrajectoryStructureError("segment start times must be finite")
        for p in _PARAMS[type(form)]:
            if not math.isfinite(getattr(form, p)):
                raise TrajectoryStructureError("segment parameters must be finite")
    if starts[0] != 0.0:
        raise TrajectoryStructureError(f"first segment must start at 0, got {starts[0]!r}")
    for a, b in zip(starts, starts[1:]):
        if not b > a:
            raise TrajectoryStructureError(
                f"segment start times must be strictly increasing ({a!r} then {b!r})"
            )
    boundary_set = set(starts[1:])
    prev_time = 0.0
    for time, post_hazard in zip(times, post_hazards):
        if not (math.isfinite(time) and math.isfinite(post_hazard)):
            raise TrajectoryStructureError("maintenance epoch fields must be finite")
        if time <= prev_time:
            raise TrajectoryStructureError(
                "maintenance epochs must be strictly increasing and positive"
            )
        if time not in boundary_set:
            raise TrajectoryStructureError(
                f"maintenance epoch at t={time!r} does not coincide with a segment boundary"
            )
        prev_time = time


def validate_trajectory(traj: HazardTrajectory) -> ValidationReport:
    """Check a candidate trajectory against the five hazard principles.

    Returns a report listing every detected violation, ordered by location;
    ``valid`` is true iff the list is empty.  Upward jumps at boundaries are
    permitted (they model shocks) and show up in ``notes`` only.  The report
    is memoized on the trajectory object, so :func:`ensure_valid` and a later
    call share one pass.

    Raises :class:`TrajectoryStructureError` for structurally malformed
    candidates (unordered or overlapping segments, epochs off-boundary,
    duplicate epochs, non-finite fields) — those are not principle
    violations, the candidate simply does not describe a trajectory.  Such a
    candidate has no report to memoize, so every call raises.
    """
    report = traj.__dict__.get("_report") if isinstance(traj, HazardTrajectory) else None
    if report is None:
        _check_structure(traj)
        report = traj.__dict__["_report"] = _principle_report(traj._table)
    return report


def _principle_report(table: tuple) -> ValidationReport:
    """The :func:`validate_trajectory` report of a well-formed ``table``."""
    starts, forms, times, post_hazards = table
    violations: list[Violation] = []
    notes: list[str] = []

    # Each segment's start value and end value (its left limit at the next
    # boundary, or its limit at infinity), computed once: the boundary checks
    # below read them again.  Starts are finite, so every length but the
    # last is.
    lengths = [*map(sub, starts[1:], starts), math.inf]
    firsts = [form.value(0.0) for form in forms]
    limits = [form.limit_at_infinity() for form in forms]
    ends = [form.value(length) for form, length in zip(forms[:-1], lengths)]
    ends.append(limits[-1])
    h0 = firsts[0]
    epoch_at = dict(zip(times, post_hazards))

    for form, start, length, v0, limit, end_value in zip(forms, starts, lengths, firsts, limits, ends):
        # Principle 1: positive and finite on the whole span.
        if not (v0 > 0.0 and math.isfinite(v0)):
            violations.append(
                Violation(1, start, f"hazard at segment start is {v0!r}, must be positive and finite")
            )
        elif end_value < 0.0:
            # A decaying exponential only approaches zero and stays legal;
            # anything whose (limit) value goes negative crosses zero first.
            # No crossing time means it lies beyond the largest float.
            crossing = form.time_to_reach(0.0)
            where = start + crossing if crossing is not None else math.inf
            violations.append(
                Violation(1, where, "hazard reaches zero inside the segment")
            )
        elif math.isfinite(length) and not math.isfinite(end_value):
            violations.append(
                Violation(1, start + length, "hazard overflows to a non-finite value inside the segment")
            )

        # Principle 3: a monotone form decreases iff its limit is below its start.
        if limit < v0:
            violations.append(Violation(3, start, f"segment decreases within its span ({v0:g} -> {limit:g})"))

        # Principle 5: no segment may dip below the time-zero hazard.
        # For the first segment v0 == h(0), so this reduces to its end value.
        if min(v0, end_value) < h0:
            violations.append(
                Violation(5, start, f"segment hazard falls below h(0)={h0:g}")
            )

    for boundary, prev_left, next_v0 in zip(starts[1:], ends, firsts[1:]):
        post_hazard = epoch_at.get(boundary)
        if post_hazard is None:
            if next_v0 < prev_left:
                violations.append(
                    Violation(
                        4,
                        boundary,
                        f"hazard drops {prev_left:g} -> {next_v0:g} without a declared maintenance epoch",
                    )
                )
            elif next_v0 > prev_left:
                notes.append(
                    f"upward jump {prev_left:g} -> {next_v0:g} at t={boundary:g} (shock; permitted)"
                )
        else:
            if post_hazard != next_v0:
                violations.append(
                    Violation(
                        2,
                        boundary,
                        f"declared post-maintenance hazard {post_hazard:g} does not match "
                        f"the right-limit {next_v0:g} of the following segment",
                    )
                )
            if not post_hazard < prev_left:
                violations.append(
                    Violation(
                        4,
                        boundary,
                        f"declared maintenance does not strictly decrease the hazard "
                        f"({prev_left:g} -> {post_hazard:g})",
                    )
                )
            if post_hazard < h0:
                violations.append(
                    Violation(
                        5,
                        boundary,
                        f"post-maintenance hazard {post_hazard:g} below h(0)={h0:g}",
                    )
                )

    violations.sort(key=lambda v: (v.location, v.principle))
    return ValidationReport(valid=not violations, violations=tuple(violations), notes=tuple(notes))


def ensure_valid(traj: HazardTrajectory) -> HazardTrajectory:
    """Return ``traj`` unchanged, raising :class:`PrincipleViolationError`
    if it fails :func:`validate_trajectory`."""
    report = validate_trajectory(traj)
    if not report.valid:
        raise PrincipleViolationError(report)
    return traj


# ---------------------------------------------------------------------------
# Hazard calculus.  Preconditions: trajectory valid (not rechecked here).
# ---------------------------------------------------------------------------


def _require_nonnegative_time(t: float) -> float:
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")
    return t


def hazard_at(traj: HazardTrajectory, t: float) -> float:
    """Right-continuous hazard value h(t); at a boundary this is the value
    of the incoming segment."""
    t = _require_nonnegative_time(t)
    starts, _ = traj._profile
    i = bisect_right(starts, t) - 1
    return traj._table[1][i].value(t - starts[i])


def cumulative_hazard(traj: HazardTrajectory, t: float) -> float:
    """Integral of the hazard over [0, t], from exact per-segment
    antiderivatives."""
    t = _require_nonnegative_time(t)
    starts, prefix = traj._profile
    i = bisect_right(starts, t) - 1
    return prefix[i] + traj._table[1][i].integral(t - starts[i])


def reliability(traj: HazardTrajectory, t: float) -> float:
    """Survival probability R(t) = exp(-cumulative_hazard(t))."""
    return survival_probability(cumulative_hazard(traj, t))


def survival_probability(cumulative: float) -> float:
    """exp(-cumulative), the survival probability over a cumulative hazard;
    +inf where exp overflows, which only a negative hazard (principle 1)
    can cause."""
    try:
        return math.exp(-cumulative)
    except OverflowError:
        return math.inf


def failure_probability(cumulative: float) -> float:
    """1 - exp(-cumulative), the failure probability over a cumulative
    hazard; -inf where exp overflows (cumulative below about -709)."""
    try:
        return -math.expm1(-cumulative)
    except OverflowError:
        return -math.inf


def failure_cdf(traj: HazardTrajectory, t: float) -> float:
    """Probability of failure by time t, 1 - R(t)."""
    return failure_probability(cumulative_hazard(traj, t))


def invert_cumulative_hazard_array(traj: HazardTrajectory, targets) -> np.ndarray:
    """First times t with cumulative hazard equal to each of ``targets``.

    One ``searchsorted`` on the compiled prefix finds each target's segment,
    then each form class present inverts its lanes in one kernel call, to a
    relative accuracy that does not depend on the time unit; a batch past
    ``_BLOCK`` targets runs block by block.  Each answer depends on its own
    target alone, whatever the batch around it.  Positivity of the hazard
    guarantees a finite root for every target >= 0 that H reaches at a float
    time; past the largest float the answer is inf.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    bad = (~((targets >= 0.0) & (targets < np.inf))).nonzero()[0]
    if bad.size:
        first = float(targets[bad[0]])
        raise ValueError(f"target cumulative hazard must be finite and nonnegative, got {first!r}")
    out = np.empty_like(targets)
    for lo in range(0, targets.size, _BLOCK):
        out[lo : lo + _BLOCK] = _invert_block(traj._columns, targets[lo : lo + _BLOCK])
    return out


# Most targets one kernel call inverts.  A Power batch holds about 30 arrays
# of its length at once, so this bounds a batch's working memory to about
# 16 MB without adding numpy calls to a batch of fewer targets.
_BLOCK = 1 << 16


def _invert_block(columns: tuple, targets: np.ndarray) -> np.ndarray:
    starts, prefix, lengths, kinds, classes = columns
    i = prefix.searchsorted(targets, side="right") - 1
    area, kind = targets - prefix[i], kinds[i]
    u = np.empty_like(area)
    with np.errstate(all="ignore"):
        for k, cls, params in classes:
            u = _patch(u, kind == k, cls.invert_integral, area, *(c[i] for c in params))
    # minimum guards rounding past the boundary
    return starts[i] + np.minimum(u, lengths[i])


def _gauss_legendre(integral, offset: float, u0: float, width: float) -> float:
    """The 20-point rule for int exp(-(offset + integral(u))) du on [u0, u0 + width]."""
    return width * sum(w * math.exp(-(offset + integral(u0 + width * x))) for x, w in _GAUSS_LEGENDRE)


def mean_time_to_failure(traj: HazardTrajectory) -> float:
    """Mean of the failure time, int_0^inf R(t) dt.

    Integrates R with a 20-point Gauss-Legendre rule on each panel between
    consecutive knots: the segment starts and the times where H crosses
    2 * 8**-k (k = 14, ..., 1) and 2, 4, 6, ...  Within a panel R falls by
    at most a factor exp(-2) and H at most grows eightfold or by 2.  R need
    not be smooth at a segment start (h ~ sqrt(u) for a concave power), so a
    panel from one is halved toward it until the rule on the halves agrees
    with the rule on the whole to 1e-13; a smooth panel keeps its value.
    The tail past the time t_c where H reaches a level L is dropped; since
    h >= h(0) everywhere (principle 5), it is at most R(t_c)/h(0) =
    exp(-L)/h(0).  L is the first level from
    ``MTTF_CUTOFF_CUMULATIVE_HAZARD`` = 40 on where that bound is at most
    1e-16 of the integral so far, or 746, where R underflows: 40 unless h(0)
    is small against 1/E[T], as when maintenance returns the hazard to a
    tiny h(0) after H has passed 40.

    If H stays below a level at every float time (h(0) below about 4e-306),
    the last panel ends at the largest float and the tail bound there,
    R/h(0), is added instead of dropped: that is the exact tail where the
    hazard is back at h(0), and inf where the mean overflows.
    """
    starts, prefix = traj._profile
    forms = traj._table[1]
    h0 = forms[0].value(0.0)
    total, a = 0.0, 0.0
    times = invert_cumulative_hazard_array(traj, _MTTF_LEVELS).tolist()
    for level, t in zip(_MTTF_LEVELS, times):
        b = min(max(a, t), sys.float_info.max)
        knots = (a, *starts[bisect_right(starts, a) : bisect_left(starts, b)], b)
        for lo, hi in zip(knots, knots[1:]):
            i = bisect_right(starts, lo) - 1
            integral, u0, width = forms[i].integral, lo - starts[i], hi - lo
            part = _gauss_legendre(integral, prefix[i], u0, width)
            # u**exponent may have singular derivatives at u = 0, where the
            # rule loses digits: halve a panel from a segment start toward it.
            while u0 == 0.0:
                width *= 0.5
                left, right = (_gauss_legendre(integral, prefix[i], u, width) for u in (0.0, width))
                if not abs(left + right - part) > 1e-13 * part:
                    break
                total, part = total + right, left
            total += part
        if t == math.inf:
            return total + reliability(traj, b) / h0
        a = b
        if level >= MTTF_CUTOFF_CUMULATIVE_HAZARD and math.exp(-level) <= _MTTF_TAIL * h0 * total:
            break
    return total
