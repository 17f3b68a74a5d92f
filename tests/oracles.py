"""Independent numerical oracles for cross-checking the library.

Everything here deliberately avoids the code paths under test: cumulative
hazard comes from quadrature over pointwise hazard values (never the
closed-form antiderivatives), the hazard back from finite differences of
the survival curve, failure times from thinning against pointwise hazard
values (never the inverted antiderivative), the Poisson-binomial pmf from
explicit outcome enumeration (never the convolution), the exact Poisson
total-variation distance from scipy's Poisson pmf and survival function
(never the positive-part recurrence), and KS statistics from first
principles.  The exceptions are references kept from the library's own
earlier code: the scalar inverse, one area at a time in ``math``, that its
array kernels are checked against; the single-replicate draw (word ``i``
of the seed's Philox stream reached on its own, then a batch of one of the
array inverse) that every lane of a batch must equal; the principle
validator that called ``value`` at every boundary (but decides principle 3
by parameter signs, not by the library's rule); the canonical
trajectory JSON built as a dict tree and dumped by ``json``; and the
default time grid, ``np.geomspace``'s steps written out in scalar ``math``.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right

import numpy as np
from scipy import integrate, stats

from riskcheck.hazard import (
    _PARAMS,
    _SMALLEST_NORMAL,
    Constant,
    ExponentialGrowth,
    HazardTrajectory,
    Linear,
    Power,
    TrajectoryStructureError,
    ValidationReport,
    Violation,
    _exp_times,
    _times_overflow,
    hazard_at,
    invert_cumulative_hazard_array,
    reliability,
)
from riskcheck.poisson import DiscretizedFailureProcess, poisson_binomial_pmf
from riskcheck.sampling import _exponentials
from riskcheck.serialize import trajectory_to_dict

QUAD_REL_TOL = 1e-10


def _quad_hazard(traj: HazardTrajectory, a: float, b: float) -> float:
    """Adaptive quadrature of hazard_at over [a, b], inside one segment."""
    part, _ = integrate.quad(
        lambda u: hazard_at(traj, u), a, b, epsabs=1e-14, epsrel=QUAD_REL_TOL, limit=200
    )
    return part


def quad_cumulative_hazard(traj: HazardTrajectory, t: float) -> float:
    """Adaptive quadrature of hazard_at over [0, t], split at boundaries."""
    starts = [seg.start_time for seg in traj.segments]
    knots = [s for s in starts if s < t] + [t]
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        total += _quad_hazard(traj, a, b)
    return total


def quad_mttf(traj: HazardTrajectory) -> float:
    """E[T] by quadrature of exp(-quad_cumulative_hazard); truncation error
    is below exp(-30)/h and negligible at the 1e-8 comparisons we make.
    The whole segments below t are integrated once, not at every t, and
    summed in the same order, so R(t) is exactly as quad_cumulative_hazard
    gives it."""
    upper = 1.0
    while quad_cumulative_hazard(traj, upper) < 30.0:
        upper *= 2.0

    starts = [seg.start_time for seg in traj.segments]
    knots = [s for s in starts if s < upper] + [upper]
    prefix = [0.0]  # quad_cumulative_hazard at each knot
    for a, b in zip(knots, knots[1:]):
        prefix.append(prefix[-1] + _quad_hazard(traj, a, b))
    total = 0.0
    for a, b, before in zip(knots, knots[1:], prefix):

        def survival(t: float, a=a, before=before) -> float:
            return math.exp(-(before + _quad_hazard(traj, a, t)))

        part, _ = integrate.quad(survival, a, b, epsabs=1e-12, epsrel=1e-10, limit=300)
        total += part
    return total


def periodic_linear_mttf(h0: float, slope: float, period: float, cycles: int) -> float:
    """E[T] for a linear hazard h0 + slope*u renewed to h0 every ``period``
    for ``cycles`` cycles, then left unmaintained.

    Every cycle has the same survival shape, so E[T] is one cycle's
    integral C times the geometric sum of q = R(period), plus q**cycles
    times the MTTF of the unmaintained linear tail.  Uses only quadrature
    of the closed-form survival, never the library.
    """

    def survival(u: float) -> float:
        return math.exp(-(h0 * u + 0.5 * slope * u * u))

    cycle, _ = integrate.quad(survival, 0.0, period, epsabs=1e-14, epsrel=1e-12)
    tail, _ = integrate.quad(survival, 0.0, math.inf, epsabs=1e-14, epsrel=1e-12)
    h_period = h0 * period + 0.5 * slope * period * period
    geometric = math.expm1(-cycles * h_period) / math.expm1(-h_period)
    return cycle * geometric + math.exp(-cycles * h_period) * tail


def recovered_hazard(traj: HazardTrajectory, t: float, dt: float = 1e-4) -> float:
    """Hazard recovered from the survival curve as -R'(t)/R(t) by central
    finite differences.

    A numerical consistency check against ``hazard_at``; away from segment
    boundaries the two agree to O(dt^2).  Requests within ``dt`` of a
    segment boundary (where R is not smooth) or closer than ``dt`` to time
    zero are refused.
    """
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")
    dt = float(dt)
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if t < dt:
        raise ValueError(f"t={t:g} is within dt={dt:g} of time zero; cannot center the difference")
    for seg in traj.segments[1:]:
        if abs(t - seg.start_time) <= dt:
            raise ValueError(
                f"t={t:g} is within dt={dt:g} of the segment boundary at {seg.start_time:g}; "
                f"the finite-difference check is not meaningful across a discontinuity"
            )
    r_minus = reliability(traj, t - dt)
    r_center = reliability(traj, t)
    r_plus = reliability(traj, t + dt)
    if r_center <= 0.0:
        raise ValueError(f"reliability underflowed to zero at t={t:g}")
    return (r_minus - r_plus) / (2.0 * dt * r_center)


def _divide(area: float, rate: float) -> float:
    """``area / rate``; a zero rate never accumulates a nonzero area."""
    return area / rate if rate != 0.0 else _times_overflow(area)


def _invert_power(form: Power, area: float) -> float:
    if form.coefficient == 0.0:
        return _divide(area, form.base)
    power = form.exponent + 1.0
    if not (form.coefficient > 0.0 and power > 0.0):
        return math.nan
    ratio = power * area / form.coefficient
    if _SMALLEST_NORMAL <= ratio < math.inf or area == 0.0:
        try:
            u2 = ratio ** (1.0 / power)
        except OverflowError:
            u2 = math.inf
    else:
        u2 = _exp_times(1.0, (math.log(power) + math.log(area) - math.log(form.coefficient)) / power)
    if not form.base > 0.0:
        return u2
    u = min(area / form.base, u2)
    lo, hi, last = 0.0, math.inf, math.inf
    while u < math.inf:
        excess = form.integral(u) - area
        lo, hi = (lo, u) if excess > 0.0 else (u, hi)
        step = excess / form.value(u)
        halves, below = abs(step) <= 0.5 * last, hi == math.inf
        if not ((halves or below) and lo <= u - step <= hi):
            step = u - (lo + 0.5 * (hi - lo))  # bisect
        elif below and not halves:
            return u - step  # a step up from below that does not halve: noise
        last = abs(step)
        if last <= 4.0 * 2.0**-52 * u:
            return u - step
        u -= step
    return u


def scalar_invert_integral(form, area: float) -> float:
    """The first u with ``form.integral(u) == area``, one area at a time in
    ``math``: the per-form scalar inverses the library had before its array
    kernels, branch for branch."""
    if isinstance(form, Constant):
        return _divide(area, form.level)
    if isinstance(form, Linear):
        if form.slope == 0.0:
            return _divide(area, form.intercept)
        root = math.sqrt(max(0.0, form.intercept * form.intercept + 2.0 * form.slope * area))
        if root == math.inf and form.slope > 0.0:
            root = math.hypot(form.intercept, math.sqrt(form.slope) * math.sqrt(2.0 * area))
        return _divide(2.0 * area, form.intercept + root)
    if isinstance(form, Power):
        return _invert_power(form, area)
    assert isinstance(form, ExponentialGrowth)
    if not form.base > 0.0:
        return _times_overflow(area)
    ratio = form.growth * area / form.base
    if abs(ratio) < _SMALLEST_NORMAL:
        return area / form.base
    if ratio == math.inf:
        return (math.log(form.growth) + math.log(area) - math.log(form.base)) / form.growth
    if not ratio > -1.0:
        return math.inf
    return math.log1p(ratio) / form.growth


def invert_one(form, area: float) -> float:
    """``form``'s array inverse at one area: a batch of one, whose lane is
    checked to be one float64 and read back as a Python float."""
    params = [np.array([getattr(form, p)]) for p in _PARAMS[type(form)]]
    with np.errstate(all="ignore"):
        lane = type(form).invert_integral(np.array([float(area)]), *params)
    assert lane.dtype == np.float64 and lane.shape == (1,)
    return float(lane[0])


def scalar_invert_cumulative_hazard(traj: HazardTrajectory, target: float) -> float:
    """The first time H reaches ``target``: a bisect on the compiled prefix,
    then :func:`scalar_invert_integral` on that segment."""
    starts, prefix = traj._profile
    i = bisect_right(prefix, target) - 1
    seg = traj.segments[i]
    length = (starts[i + 1] - starts[i]) if i + 1 < len(starts) else math.inf
    return seg.start_time + min(scalar_invert_integral(seg.form, target - prefix[i]), length)


def reference_check_structure(traj: HazardTrajectory) -> None:
    """The structure check the library had before it read each segment's
    numbers once, statement for statement."""
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


def reference_decrease_limit(form) -> float | None:
    """Where a decreasing segment form falls to as u grows, or None if the
    form never decreases, read off the signs of its parameters alone."""
    if isinstance(form, Linear) and form.slope < 0.0:
        return -math.inf
    if isinstance(form, Power):
        if form.coefficient < 0.0 < form.exponent:
            return -math.inf
        if form.exponent < 0.0 < form.coefficient:
            return form.base  # from +inf at the start down to the base
    if isinstance(form, ExponentialGrowth):
        # away from zero for growth > 0, toward it for growth < 0
        if form.base < 0.0 < form.growth:
            return -math.inf
        if form.growth < 0.0 < form.base:
            return 0.0
    return None


def reference_validate_trajectory(traj: HazardTrajectory) -> ValidationReport:
    """The principle validator the library had before it computed each
    segment's start and end values once, statement for statement: it calls
    ``value`` again at every boundary.  Principle 3 it decides on its own,
    by parameter signs (:func:`reference_decrease_limit`), not by the
    library's comparison of a form's limit with its start value.
    """
    reference_check_structure(traj)
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

        # Principle 3, by the signs of the form's parameters.
        limit = reference_decrease_limit(seg.form)
        if limit is not None:
            violations.append(Violation(3, start, f"segment decreases within its span ({v0:g} -> {limit:g})"))

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


def reference_canonical_json(traj: HazardTrajectory) -> str:
    """The canonical trajectory JSON as the library first built it: the
    whole ``trajectory_to_dict`` tree, dumped with sorted keys."""
    return json.dumps(trajectory_to_dict(traj), sort_keys=True, separators=(",", ":"))


def reference_time_grid(t_max: float, count: int) -> tuple[float, ...]:
    """t = 0 and ``np.geomspace(t_max / 500, t_max, count)``, transcribed
    step by step into scalar libm calls: geomspace takes ``log10`` of both
    ends and hands them to logspace, which spaces them with linspace
    (``arange(count) * step + start``, ``step = delta / (count - 1)``, the
    last exponent set to the stop) and raises 10 to each; geomspace then
    puts both ends back exactly."""
    start, stop = t_max / 500.0, t_max
    log_start, log_stop = math.log10(start), math.log10(stop)
    delta = log_stop - log_start
    step = delta / (count - 1)
    exponents = [float(i) * step + log_start for i in range(count)]
    exponents[-1] = log_stop
    points = [math.pow(10.0, y) for y in exponents]
    points[0], points[-1] = start, stop
    return (0.0, *points)


_MASK64 = (1 << 64) - 1


def philox_words(seed: int, n: int) -> np.ndarray:
    """The first n 64-bit words of numpy's Philox (4x64) keyed by ``seed``
    mod 2**64: the words riskcheck's sampler must reproduce."""
    return np.random.Philox(key=seed & _MASK64).random_raw(n)


def single_exponential(seed: int, i: int) -> float:
    """Replicate ``i``'s unit exponential under ``seed``, drawn alone: word
    ``i`` of the Philox stream keyed by ``seed``, reached by advancing the
    counter ``i // 4`` blocks and taking lane ``i % 4``."""
    bits = np.random.Philox(key=seed & _MASK64)
    bits.advance(i // 4)
    return float(_exponentials(bits.random_raw(i % 4 + 1)[-1:])[0])


def single_draw(traj: HazardTrajectory, seed: int, i: int) -> float:
    """Replicate ``i`` of ``seed`` drawn alone: :func:`single_exponential`
    inverted as a batch of one.  (The scalar reference inverse is not used:
    its Power and ExponentialGrowth lanes agree with the kernels only to a
    few ulp, and replicate ``i`` must equal this bit for bit.)"""
    return float(invert_cumulative_hazard_array(traj, [single_exponential(seed, i)])[0])


def stream_generator(seed: int, stream_id: int) -> np.random.Generator:
    """An independent multi-draw stream keyed by (seed, stream_id), for
    samplers that need more than one draw per replicate."""
    key = ((stream_id & _MASK64) << 64) | (seed & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_failure_time_thinning(
    traj: HazardTrajectory, horizon: float, seed: int, stream_id: int
) -> float | None:
    """Rejection-sample the first failure on [0, horizon]; None if the
    system survives the horizon.

    The proposal envelope is piecewise constant at each segment's supremum
    over the piece (its left limit, since segments are non-decreasing).
    This is an independent oracle for ``sample_replicates``: it never
    touches the antiderivatives.
    """
    horizon = float(horizon)
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    segments = traj.segments
    pieces = []
    for i, seg in enumerate(segments):
        if seg.start_time >= horizon:
            break
        end = min(segments[i + 1].start_time, horizon) if i + 1 < len(segments) else horizon
        bound = seg.form.value(end - seg.start_time)
        pieces.append((seg.start_time, end, bound, seg))

    rng = stream_generator(seed, stream_id)
    for start, end, bound, seg in pieces:
        t = start
        while True:
            t += float(rng.standard_exponential()) / bound
            if t >= end:
                break
            if float(rng.random()) * bound <= seg.form.value(t - seg.start_time):
                return t
    return None


def one_sample_ks(sorted_times, cdf) -> float:
    """sup |F_hat - F| against a continuous CDF, exact over the steps."""
    n = len(sorted_times)
    d = 0.0
    for i, t in enumerate(sorted_times):
        f = cdf(t)
        d = max(d, abs((i + 1) / n - f), abs(i / n - f))
    return d


def two_sample_ks(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    support = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, support, side="right") / len(a)
    cdf_b = np.searchsorted(b, support, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def dkw_epsilon(n: int, delta: float = 1e-3) -> float:
    """One-sample DKW band: sup |F_hat - F| < eps with prob >= 1 - delta."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def two_sample_epsilon(n: int, m: int, delta: float = 1e-3) -> float:
    """Two-sample analogue of the DKW band."""
    return math.sqrt(math.log(2.0 / delta) * (n + m) / (2.0 * n * m))


def enumerated_poisson_binomial_pmf(probabilities) -> np.ndarray:
    """pmf of an indicator sum by summing over all 2^n outcomes (n <= 12)."""
    probabilities = list(probabilities)
    n = len(probabilities)
    assert n <= 12, "enumeration oracle is for small n only"
    pmf = np.zeros(n + 1)
    for outcome in itertools.product((0, 1), repeat=n):
        prob = 1.0
        for x, p in zip(outcome, probabilities):
            prob *= p if x else 1.0 - p
        pmf[sum(outcome)] += prob
    return pmf


def capped_exact_tv(proc: DiscretizedFailureProcess, support_cap: int | None = None) -> float:
    """Total-variation distance between the indicator sum and Poisson(lambda)
    as half the L1 distance of the pmfs.

    The Poisson pmf is enumerated up to ``support_cap`` (default
    lambda + 40*sqrt(lambda) + 40, far past any mass at double precision)
    and the tail above the cap is folded in exactly via the survival
    function.
    """
    n = len(proc.probabilities)
    lam = sum(proc.probabilities)
    if support_cap is None:
        support_cap = math.ceil(lam + 40.0 * math.sqrt(lam) + 40.0)
    support_cap = max(int(support_cap), n)
    sum_pmf = np.zeros(support_cap + 1)
    sum_pmf[: n + 1] = poisson_binomial_pmf(proc.probabilities)
    ks = np.arange(support_cap + 1)
    poisson_pmf = stats.poisson.pmf(ks, lam)
    tail = float(stats.poisson.sf(support_cap, lam))
    return 0.5 * (float(np.abs(sum_pmf - poisson_pmf).sum()) + tail)
