"""Piecewise hazard trajectories for maintained systems.

A trajectory is a sequence of parametric segments covering [0, inf), each
non-decreasing, with declared maintenance epochs at the (only) points where
the hazard is allowed to drop.  Five structural rules are enforced by
:func:`validate_trajectory`:

1. the hazard is positive and finite everywhere;
2. the hazard is right-continuous (declared post-maintenance values must
   match the following segment);
3. the hazard is non-decreasing except at maintenance epochs;
4. every strict decrease happens at a declared maintenance epoch, and a
   declared epoch must strictly decrease the hazard;
5. the time-zero hazard is the global infimum (restoration never improves
   the system beyond good-as-new).

Cumulative hazard, reliability R(t) = exp(-int_0^t h) and the failure CDF
are evaluated from exact per-segment antiderivatives.  The one integral
without a closed form, the mean time to failure, is a fixed Gauss-Legendre
rule on panels that end at segment starts and at fixed levels of the
cumulative hazard (:func:`mean_time_to_failure`).

Cost model: the first calculus call on a trajectory object compiles its
segment profile (start times and the cumulative hazard at each start) in
O(segments) and memoizes it on that object; every later ``hazard_at``,
``cumulative_hazard`` or ``invert_cumulative_hazard`` call is one bisect
plus one form call, O(log segments).  There is no process-wide cache: the
profile lives and dies with its trajectory, and equal but distinct objects
each compile their own.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across threads; the profile memo is
derived from immutable fields, so two threads racing on the first call at
most compute the same profile twice.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from functools import cached_property
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
    "mean_time_to_failure",
    "invert_cumulative_hazard",
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
# 20-point Gauss-Legendre nodes and weights, mapped from [-1, 1] to [0, 1].
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
_GAUSS_LEGENDRE = tuple(zip((0.5 * (1.0 + _NODES)).tolist(), (0.5 * _WEIGHTS).tolist()))
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
# * ``invert_integral(area)``: the first u with integral(u) == area, for an
#   area >= 0, relative to u whatever the time unit; always a float, which
#   for a form whose hazard is not positive may be nan or inf;
# * ``limit_at_infinity()``: the limit of the value as u grows;
# * ``time_to_reach(level)``: the first u >= 0 with value(u) == level, or
#   None if the form never gets there;
# * ``decrease_reason()``: None if the form never decreases (principle 3),
#   else a short description of the parameter that makes it decrease.
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


def _divide(area: float, rate: float) -> float:
    """``area / rate``; a zero rate never accumulates a nonzero area."""
    return area / rate if rate != 0.0 else _times_overflow(area)


def _elapsed(u: float) -> float | None:
    """``u`` if it is a reachable elapsed time (finite, nonnegative), else None."""
    return u if 0.0 <= u < math.inf else None


@dataclass(frozen=True)
class Constant:
    """Flat hazard ``level``."""

    level: float
    name: ClassVar[str] = "constant"

    def __post_init__(self):
        object.__setattr__(self, "level", float(self.level))

    def value(self, u: float) -> float:
        return self.level

    def integral(self, u: float) -> float:
        return self.level * u

    def invert_integral(self, area: float) -> float:
        return _divide(area, self.level)

    def limit_at_infinity(self) -> float:
        return self.level

    def time_to_reach(self, level: float) -> float | None:
        return 0.0 if level == self.level else None

    def decrease_reason(self) -> str | None:
        return None


@dataclass(frozen=True)
class Linear:
    """Hazard ``intercept + slope * u``."""

    intercept: float
    slope: float
    name: ClassVar[str] = "linear"

    def __post_init__(self):
        object.__setattr__(self, "intercept", float(self.intercept))
        object.__setattr__(self, "slope", float(self.slope))

    def value(self, u: float) -> float:
        return self.intercept + self.slope * u

    def integral(self, u: float) -> float:
        return u * (self.intercept + 0.5 * self.slope * u)

    def invert_integral(self, area: float) -> float:
        if self.slope == 0.0:
            return _divide(area, self.intercept)
        # Stable root of slope/2 u^2 + intercept u - area = 0; a falling
        # hazard whose area never reaches `area` has a negative radicand.
        root = math.sqrt(max(0.0, self.intercept * self.intercept + 2.0 * self.slope * area))
        if root == math.inf and self.slope > 0.0:  # the radicand overflowed; hypot never forms it
            root = math.hypot(self.intercept, math.sqrt(self.slope) * math.sqrt(2.0 * area))
        return _divide(2.0 * area, self.intercept + root)

    def limit_at_infinity(self) -> float:
        if self.slope == 0.0:
            return self.intercept
        return math.inf if self.slope > 0.0 else -math.inf

    def time_to_reach(self, level: float) -> float | None:
        if self.slope == 0.0:
            return 0.0 if level == self.intercept else None
        return _elapsed((level - self.intercept) / self.slope)

    def decrease_reason(self) -> str | None:
        return f"negative slope {self.slope:g}" if self.slope < 0.0 else None


@dataclass(frozen=True)
class Power:
    """Hazard ``base + coefficient * u**exponent``."""

    base: float
    coefficient: float
    exponent: float
    name: ClassVar[str] = "power"

    def __post_init__(self):
        object.__setattr__(self, "base", float(self.base))
        object.__setattr__(self, "coefficient", float(self.coefficient))
        object.__setattr__(self, "exponent", float(self.exponent))

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

    def invert_integral(self, area: float) -> float:
        if self.coefficient == 0.0:
            return _divide(area, self.base)
        power = self.exponent + 1.0
        if not (self.coefficient > 0.0 and power > 0.0):
            return math.nan  # the power term is not a growing area: no root to report
        # I(u) = base u + coefficient u**power / power is the sum of two
        # growing terms, and each alone reaches the area at a closed-form time,
        # u1 = area / base and u2, the root of the power term.
        ratio = power * area / self.coefficient
        if _SMALLEST_NORMAL <= ratio < math.inf or area == 0.0:
            try:
                u2 = ratio ** (1.0 / power)
            except OverflowError:  # the root itself overflows (exponent < 0)
                u2 = math.inf
        else:  # the ratio alone overflowed or underflowed; its root may not
            u2 = _exp_times(1.0, (math.log(power) + math.log(area) - math.log(self.coefficient)) / power)
        if not self.base > 0.0:
            return u2  # the root for base 0; a negative base breaks principle 1
        # For exponent >= 0 the root lies in [u/2, u] with u = min(u1, u2): at
        # u one term alone reaches the area, at u/2 neither passes half of it.
        # Newton runs from u (downhill on a convex I) inside the bracket of
        # signs seen so far, bisecting where a step leaves it or does not
        # halve, and stops at a step of 4 ulp.  Nothing depends on the time
        # unit, and a rounded u below the root only costs a step.
        u = min(area / self.base, u2)
        lo, hi, last = 0.0, math.inf, math.inf
        while u < math.inf:  # else the area is not reached at a float time
            excess = self.integral(u) - area
            lo, hi = (lo, u) if excess > 0.0 else (u, hi)
            step = excess / self.value(u)
            if not (abs(step) <= 0.5 * last and lo <= u - step <= hi):
                step = u - (lo + 0.5 * (hi - lo))
            last = abs(step)
            if last <= 4.0 * 2.0**-52 * u:
                return u - step
            u -= step
        return u

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

    def decrease_reason(self) -> str | None:
        if self.coefficient < 0.0:
            return f"negative coefficient {self.coefficient:g}"
        if self.coefficient > 0.0 and self.exponent < 1.0:
            return f"exponent {self.exponent:g} below 1"
        return None


@dataclass(frozen=True)
class ExponentialGrowth:
    """Hazard ``base * exp(growth * u)``."""

    base: float
    growth: float
    name: ClassVar[str] = "exponential_growth"

    def __post_init__(self):
        object.__setattr__(self, "base", float(self.base))
        object.__setattr__(self, "growth", float(self.growth))

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

    def invert_integral(self, area: float) -> float:
        if not self.base > 0.0:  # a hazard that is never positive never gathers area
            return _times_overflow(area)
        ratio = self.growth * area / self.base
        if abs(ratio) < _SMALLEST_NORMAL:  # log1p(r) / r is 1 for r 0 or subnormal
            return area / self.base
        if ratio == math.inf:  # log1p(r) = log(r) for r past the float range
            return (math.log(self.growth) + math.log(area) - math.log(self.base)) / self.growth
        if not ratio > -1.0:  # a decaying hazard whose whole area is at most `area`
            return math.inf
        return math.log1p(ratio) / self.growth

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

    def decrease_reason(self) -> str | None:
        # The value moves away from zero for growth > 0 and toward it for
        # growth < 0, so it decreases iff base and growth have opposite signs.
        if self.growth < 0.0 and self.base >= 0.0:
            return f"negative growth {self.growth:g}"
        if self.growth > 0.0 and self.base < 0.0:
            return f"negative base {self.base:g} with positive growth {self.growth:g}"
        return None


SEGMENT_FORMS = (Constant, Linear, Power, ExponentialGrowth)
SegmentForm = Union[SEGMENT_FORMS]

# Parameter names of each form.  Read with getattr, not vars(): asking for an
# instance's __dict__ makes every later attribute read on it slower.
_PARAMS = {cls: tuple(f.name for f in fields(cls)) for cls in SEGMENT_FORMS}


# ---------------------------------------------------------------------------
# Trajectory types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HazardSegment:
    """One piece of the trajectory, valid from ``start_time`` until the next
    segment begins (the last segment extends to infinity)."""

    start_time: float
    form: SegmentForm

    def __post_init__(self):
        object.__setattr__(self, "start_time", float(self.start_time))


@dataclass(frozen=True)
class MaintenanceEpoch:
    """Declared restorative action: the hazard drops to ``post_hazard`` at
    ``time``, which must coincide with a segment boundary."""

    time: float
    post_hazard: float

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "post_hazard", float(self.post_hazard))


@dataclass(frozen=True)
class HazardTrajectory:
    """Piecewise hazard h(t) on [0, inf) with declared maintenance epochs.

    Construction is deliberately permissive — candidates that break the
    hazard principles can be built so that
    :func:`validate_trajectory` has something to report.  Builders that
    promise validity (the scenario compiler, the JSON round trip in the CLI)
    call :func:`ensure_valid` after construction.
    """

    segments: tuple[HazardSegment, ...]
    maintenance_epochs: tuple[MaintenanceEpoch, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "maintenance_epochs", tuple(self.maintenance_epochs))

    @cached_property
    def _profile(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Segment start times and cumulative hazard at each start.

        Compiled on first use, not at construction, because candidates that
        fail validation must still be constructible.  Not a dataclass field,
        so equality, hashing and ``repr`` ignore it.
        """
        starts = tuple(seg.start_time for seg in self.segments)
        prefix = [0.0]
        for seg, nxt in zip(self.segments, starts[1:]):
            prefix.append(prefix[-1] + seg.form.integral(nxt - seg.start_time))
        return starts, tuple(prefix)


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
    if len(traj.segments) < 1:
        raise TrajectoryStructureError("trajectory needs at least one segment")
    starts = [seg.start_time for seg in traj.segments]
    for seg in traj.segments:
        if not math.isfinite(seg.start_time):
            raise TrajectoryStructureError("segment start times must be finite")
        if not all(math.isfinite(getattr(seg.form, p)) for p in _PARAMS[type(seg.form)]):
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
    for epoch in traj.maintenance_epochs:
        if not (math.isfinite(epoch.time) and math.isfinite(epoch.post_hazard)):
            raise TrajectoryStructureError("maintenance epoch fields must be finite")
        if epoch.time <= prev_time:
            raise TrajectoryStructureError(
                "maintenance epochs must be strictly increasing and positive"
            )
        if epoch.time not in boundary_set:
            raise TrajectoryStructureError(
                f"maintenance epoch at t={epoch.time!r} does not coincide with a segment boundary"
            )
        prev_time = epoch.time


def validate_trajectory(traj: HazardTrajectory) -> ValidationReport:
    """Check a candidate trajectory against the five hazard principles.

    Returns a report listing every detected violation, ordered by location;
    ``valid`` is true iff the list is empty.  Upward jumps at boundaries are
    permitted (they model shocks) and show up in ``notes`` only.

    Raises :class:`TrajectoryStructureError` for structurally malformed
    candidates (unordered or overlapping segments, epochs off-boundary,
    duplicate epochs, non-finite fields) — those are not principle
    violations, the candidate simply does not describe a trajectory.
    """
    _check_structure(traj)
    segments = traj.segments
    n = len(segments)
    starts = [seg.start_time for seg in segments]
    violations: list[Violation] = []
    notes: list[str] = []

    h0 = segments[0].form.value(0.0)
    epoch_at = {epoch.time: epoch for epoch in traj.maintenance_epochs}

    for i, seg in enumerate(segments):
        start = starts[i]
        length = (starts[i + 1] - start) if i + 1 < n else math.inf
        v0 = seg.form.value(0.0)
        end_value = (
            seg.form.value(length) if math.isfinite(length) else seg.form.limit_at_infinity()
        )

        # Principle 1: positive and finite on the whole span.
        if not (v0 > 0.0 and math.isfinite(v0)):
            violations.append(
                Violation(1, start, f"hazard at segment start is {v0!r}, must be positive and finite")
            )
        elif end_value < 0.0:
            # A decaying exponential only approaches zero and stays legal;
            # anything whose (limit) value goes negative crosses zero first.
            # No crossing time means it lies beyond the largest float.
            crossing = seg.form.time_to_reach(0.0)
            where = start + crossing if crossing is not None else math.inf
            violations.append(
                Violation(1, where, "hazard reaches zero inside the segment")
            )
        elif math.isfinite(length) and not math.isfinite(end_value):
            violations.append(
                Violation(1, start + length, "hazard overflows to a non-finite value inside the segment")
            )

        # Principle 3: per-form sufficient conditions for non-decrease.
        reason = seg.form.decrease_reason()
        if reason is not None:
            violations.append(Violation(3, start, f"segment decreases within its span ({reason})"))

        # Principle 5: no segment may dip below the time-zero hazard.
        # For the first segment v0 == h(0), so this reduces to its end value.
        if min(v0, end_value) < h0:
            violations.append(
                Violation(5, start, f"segment hazard falls below h(0)={h0:g}")
            )

    for i in range(1, n):
        boundary = starts[i]
        prev = segments[i - 1]
        prev_left = prev.form.value(boundary - prev.start_time)
        next_v0 = segments[i].form.value(0.0)
        epoch = epoch_at.get(boundary)
        if epoch is None:
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
            if epoch.post_hazard != next_v0:
                violations.append(
                    Violation(
                        2,
                        boundary,
                        f"declared post-maintenance hazard {epoch.post_hazard:g} does not match "
                        f"the right-limit {next_v0:g} of the following segment",
                    )
                )
            if not epoch.post_hazard < prev_left:
                violations.append(
                    Violation(
                        4,
                        boundary,
                        f"declared maintenance does not strictly decrease the hazard "
                        f"({prev_left:g} -> {epoch.post_hazard:g})",
                    )
                )
            if epoch.post_hazard < h0:
                violations.append(
                    Violation(
                        5,
                        boundary,
                        f"post-maintenance hazard {epoch.post_hazard:g} below h(0)={h0:g}",
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
    seg = traj.segments[i]
    return seg.form.value(t - seg.start_time)


def cumulative_hazard(traj: HazardTrajectory, t: float) -> float:
    """Integral of the hazard over [0, t], from exact per-segment
    antiderivatives."""
    t = _require_nonnegative_time(t)
    starts, prefix = traj._profile
    i = bisect_right(starts, t) - 1
    seg = traj.segments[i]
    return prefix[i] + seg.form.integral(t - seg.start_time)


def reliability(traj: HazardTrajectory, t: float) -> float:
    """Survival probability R(t) = exp(-cumulative_hazard(t)); +inf where
    exp overflows, which only a negative hazard (principle 1) can cause."""
    try:
        return math.exp(-cumulative_hazard(traj, t))
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


def invert_cumulative_hazard(traj: HazardTrajectory, target: float) -> float:
    """First time t with cumulative hazard equal to ``target``.

    Solved per segment by the form's ``invert_integral``, to a relative
    accuracy that does not depend on the time unit.  Positivity of the
    hazard guarantees a finite root for every target >= 0 that H reaches
    at a float time; past the largest float the answer is inf.
    """
    target = float(target)
    if not (target >= 0.0 and math.isfinite(target)):
        raise ValueError(f"target cumulative hazard must be finite and nonnegative, got {target!r}")
    starts, prefix = traj._profile
    i = bisect_right(prefix, target) - 1
    seg = traj.segments[i]
    remainder = target - prefix[i]
    length = (starts[i + 1] - starts[i]) if i + 1 < len(starts) else math.inf
    # min guards rounding past the boundary
    return seg.start_time + min(seg.form.invert_integral(remainder), length)


def mean_time_to_failure(traj: HazardTrajectory) -> float:
    """Mean of the failure time, int_0^inf R(t) dt.

    Integrates R with a 20-point Gauss-Legendre rule on each panel between
    consecutive knots: the segment starts and the times where H crosses
    2 * 8**-k (k = 14, ..., 1) and 2, 4, 6, ...  Within a panel R is smooth,
    falls by at most a factor exp(-2) and H at most grows eightfold or by 2.
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
    h0 = traj.segments[0].form.value(0.0)
    total, a = 0.0, 0.0
    for level in _MTTF_LEVELS:
        b = max(a, invert_cumulative_hazard(traj, level))
        unreached = b == math.inf
        if unreached:
            b = sys.float_info.max
        knots = (a, *starts[bisect_right(starts, a) : bisect_left(starts, b)], b)
        for lo, hi in zip(knots, knots[1:]):
            i = bisect_right(starts, lo) - 1
            integral, u0, width = traj.segments[i].form.integral, lo - starts[i], hi - lo
            nodes = (w * math.exp(-(prefix[i] + integral(u0 + width * x))) for x, w in _GAUSS_LEGENDRE)
            total += width * sum(nodes)
        if unreached:
            return total + reliability(traj, b) / h0
        a = b
        if level >= MTTF_CUTOFF_CUMULATIVE_HAZARD and math.exp(-level) <= _MTTF_TAIL * h0 * total:
            break
    return total
