"""Randomized valid trajectories and principle-violating mutants.

``random_valid_trajectory`` mixes all three boundary kinds (maintenance
drop, upward shock, continuous form change) and all four segment forms;
``random_long_trajectory`` does the same over a thousand segments, and
``scatter_violations`` breaks such a long one in a few places.
``random_growing_trajectory`` is the mutation substrate: every segment
strictly grows and every boundary is a declared epoch, which leaves room
to inject one targeted violation without disturbing its neighbours.
``break_structure`` makes a candidate that is not a trajectory at all, one
``TrajectoryStructureError`` per break class.  ``interleaved_trajectory``
has any number of segments, of the four forms in turn, and of epochs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from riskcheck.hazard import (
    Constant,
    ExponentialGrowth,
    HazardSegment,
    HazardTrajectory,
    Linear,
    MaintenanceEpoch,
    Power,
    validate_trajectory,
)

MUTATION_CLASSES = (
    "zero_or_negative_level",
    "decrease_inside_segment",
    "undeclared_downward_jump",
    "post_maintenance_below_h0",
    "declared_boundary_mismatch",
)

# mutation class -> principle its injection violates
TARGET_PRINCIPLE = {
    "zero_or_negative_level": 1,
    "decrease_inside_segment": 3,
    "undeclared_downward_jump": 4,
    "post_maintenance_below_h0": 5,
    "declared_boundary_mismatch": 2,
}


def _random_form(rng: np.random.Generator, v0: float, grow: bool = False):
    kind = int(rng.integers(0, 4))
    if kind == 0 and not grow:
        return Constant(v0)
    if kind <= 1:
        low = 0.02 if grow else 0.0
        return Linear(v0, float(rng.uniform(low, 0.6)))
    if kind == 2:
        low = 0.02 if grow else 0.0
        return Power(v0, float(rng.uniform(low, 0.4)), float(rng.uniform(1.0, 3.0)))
    low = 0.02 if grow else 0.0
    return ExponentialGrowth(v0, float(rng.uniform(low, 0.4)))


def _rebased(form, new_v0: float):
    """Same growth shape, started at a different hazard value."""
    if isinstance(form, Constant):
        return Constant(new_v0)
    if isinstance(form, Linear):
        return Linear(new_v0, form.slope)
    if isinstance(form, Power):
        return Power(new_v0, form.coefficient, form.exponent)
    return ExponentialGrowth(new_v0, form.growth)


def _checked(segments, epochs) -> HazardTrajectory:
    traj = HazardTrajectory(tuple(segments), tuple(epochs))
    report = validate_trajectory(traj)
    assert report.valid, report.violations
    return traj


def random_valid_trajectory(rng: np.random.Generator, max_segments: int = 5) -> HazardTrajectory:
    h0 = float(rng.uniform(0.05, 2.0))
    n_seg = int(rng.integers(1, max_segments + 1))
    return _random_trajectory(rng, h0, n_seg)


def random_long_trajectory(rng: np.random.Generator, n_segments: int = 1000) -> HazardTrajectory:
    """A valid trajectory of exactly ``n_segments`` segments, drawn like
    :func:`random_valid_trajectory`, whose hazard stays below about 100 h(0)
    at maintenance however long it runs: past that, maintenance is forced and
    restores at most that far."""
    h0 = float(rng.uniform(0.05, 2.0))
    return _random_trajectory(rng, h0, n_segments, cap=100.0 * h0)


def _random_trajectory(rng: np.random.Generator, h0: float, n_seg: int, cap: float = math.inf):
    segments, epochs = [], []
    start = 0.0
    form = _random_form(rng, h0)
    for _ in range(n_seg - 1):
        boundary = start + float(rng.uniform(0.3, 5.0))
        left = form.value(boundary - start)  # exactly the validator's expression
        segments.append(HazardSegment(start, form))
        roll = rng.random()
        if (roll < 0.4 or left > cap) and left > h0 * (1.0 + 1e-9):
            post = float(rng.uniform(h0, min(left, cap)))
            if not h0 <= post < left:
                post = 0.5 * (h0 + left)
            epochs.append(MaintenanceEpoch(boundary, post))
            value = post
        elif roll < 0.6:
            value = left * float(rng.uniform(1.05, 1.8))  # upward shock
        else:
            value = left  # continuous change of form
        start = boundary
        form = _random_form(rng, value)
    segments.append(HazardSegment(start, form))
    return _checked(segments, epochs)


def random_growing_trajectory(rng: np.random.Generator) -> HazardTrajectory:
    h0 = float(rng.uniform(0.1, 1.0))
    n_seg = int(rng.integers(3, 6))
    segments, epochs = [], []
    start = 0.0
    form = _random_form(rng, h0, grow=True)
    for _ in range(n_seg - 1):
        boundary = start + float(rng.uniform(1.0, 5.0))
        left = form.value(boundary - start)
        segments.append(HazardSegment(start, form))
        post = h0 + float(rng.uniform(0.3, 0.9)) * (left - h0)
        epochs.append(MaintenanceEpoch(boundary, post))
        start = boundary
        form = _random_form(rng, post, grow=True)
    segments.append(HazardSegment(start, form))
    return _checked(segments, epochs)


def _decreasing_wedge(rng: np.random.Generator, top: float, bottom: float):
    """A form starting at ``top`` and decreasing to ``bottom`` over one time
    unit; rotates through the three parametric ways of sloping down."""
    delta = top - bottom
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return Linear(top, -delta)
    if kind == 1:
        return Power(top, -delta, float(rng.uniform(1.0, 3.0)))
    return ExponentialGrowth(top, float(np.log(bottom / top)))


def mutate(traj: HazardTrajectory, mutation: str, rng: np.random.Generator) -> HazardTrajectory:
    """Inject one principle violation into a trajectory from
    :func:`random_growing_trajectory`."""
    segments = list(traj.segments)
    epochs = list(traj.maintenance_epochs)
    h0 = segments[0].form.value(0.0)

    if mutation == "zero_or_negative_level":
        bad = 0.0 if rng.random() < 0.5 else -float(rng.uniform(0.05, 0.5))
        segments[0] = HazardSegment(0.0, _rebased(segments[0].form, bad))
        return HazardTrajectory(tuple(segments), tuple(epochs))

    if mutation == "decrease_inside_segment":
        # Split the last segment and insert a downward wedge that lands back
        # on the original curve, so only the within-segment monotonicity
        # breaks (the jump up onto the wedge is a permitted shock).
        last = segments.pop()
        split = last.start_time + float(rng.uniform(0.5, 2.0))
        rejoin = last.form.value(split - last.start_time)
        top = rejoin + float(rng.uniform(0.1, 0.5))
        wedge = _decreasing_wedge(rng, top, rejoin)
        wedge_end = split + 1.0
        segments.append(last)
        segments.append(HazardSegment(split, wedge))
        # continue from the wedge's exact end value so the rejoin boundary
        # is bit-for-bit continuous (a 1-ulp mismatch would read as a jump)
        segments.append(
            HazardSegment(wedge_end, _rebased(last.form, wedge.value(wedge_end - split)))
        )
        return HazardTrajectory(tuple(segments), tuple(epochs))

    if mutation == "undeclared_downward_jump":
        last = segments.pop()
        split = last.start_time + float(rng.uniform(0.5, 2.0))
        left = last.form.value(split - last.start_time)
        drop = h0 + float(rng.uniform(0.1, 0.9)) * (left - h0)
        segments.append(last)
        segments.append(HazardSegment(split, _rebased(last.form, drop)))
        return HazardTrajectory(tuple(segments), tuple(epochs))

    if mutation == "post_maintenance_below_h0":
        epoch = epochs[-1]
        bad = float(rng.uniform(0.2, 0.8)) * h0
        epochs[-1] = MaintenanceEpoch(epoch.time, bad)
        segments[-1] = HazardSegment(epoch.time, _rebased(segments[-1].form, bad))
        return HazardTrajectory(tuple(segments), tuple(epochs))

    if mutation == "declared_boundary_mismatch":
        index = int(rng.integers(0, len(epochs)))
        epoch = epochs[index]
        prev = segments[index]
        left = prev.form.value(epoch.time - prev.start_time)
        epochs[index] = MaintenanceEpoch(epoch.time, 0.5 * (epoch.post_hazard + left))
        return HazardTrajectory(tuple(segments), tuple(epochs))

    raise ValueError(f"unknown mutation class {mutation!r}")


def scatter_violations(traj: HazardTrajectory, rng: np.random.Generator, count: int = 6) -> HazardTrajectory:
    """``traj`` with ``count`` segments or epochs, at random places, broken
    by a non-positive start value, a decreasing form, or a post-maintenance
    hazard moved off its segment (below h(0) or above the left limit), so
    that the report names each principle somewhere along a long trajectory."""
    segments = list(traj.segments)
    epochs = list(traj.maintenance_epochs)
    h0 = segments[0].form.value(0.0)
    for _ in range(count):
        kind = int(rng.integers(0, 4 if epochs else 2))
        if kind < 2:
            i = int(rng.integers(0, len(segments)))
            start, form = segments[i].start_time, segments[i].form
            top = form.value(0.0)
            if kind == 0:
                new = _rebased(form, 0.0 if rng.random() < 0.5 else -top)
            else:
                new = _decreasing_wedge(rng, top, 0.5 * top)
            segments[i] = HazardSegment(start, new)
        else:
            j = int(rng.integers(0, len(epochs)))
            scale = float(rng.uniform(0.2, 0.8)) if kind == 2 else float(rng.uniform(1.5, 3.0))
            epochs[j] = MaintenanceEpoch(epochs[j].time, scale * (h0 if kind == 2 else epochs[j].post_hazard))
    return HazardTrajectory(tuple(segments), tuple(epochs))


STRUCTURE_BREAKS = (
    "no_segments",
    "nonfinite_start",
    "nonfinite_parameter",
    "first_start_not_zero",
    "unordered_starts",
    "nonfinite_epoch",
    "epoch_not_increasing",
    "epoch_off_boundary",
)

_NON_FINITE = (np.inf, -np.inf, np.nan)


def break_structure(traj: HazardTrajectory, kind: str, rng: np.random.Generator) -> HazardTrajectory:
    """``traj`` with one structural fault of class ``kind`` at a random place."""
    segments = list(traj.segments)
    epochs = list(traj.maintenance_epochs)
    i = int(rng.integers(0, len(segments)))
    bad = float(rng.choice(_NON_FINITE))
    if kind == "no_segments":
        segments = []
    elif kind == "nonfinite_start":
        segments[i] = HazardSegment(bad, segments[i].form)
    elif kind == "nonfinite_parameter":
        form = segments[i].form
        field = dataclasses.fields(form)[int(rng.integers(0, len(dataclasses.fields(form))))]
        segments[i] = HazardSegment(segments[i].start_time, dataclasses.replace(form, **{field.name: bad}))
    elif kind == "first_start_not_zero":
        segments[0] = HazardSegment(float(rng.uniform(-1.0, 1.0)), segments[0].form)
    elif kind == "unordered_starts":
        segments.insert(i, segments[i])  # a repeated start
    elif kind == "nonfinite_epoch":
        epochs.insert(0, MaintenanceEpoch(*rng.permutation([segments[-1].start_time, bad])))
    elif kind == "epoch_not_increasing":
        epochs.append(MaintenanceEpoch(segments[i].start_time, 0.5))
    elif kind == "epoch_off_boundary":
        epochs.append(MaintenanceEpoch(segments[-1].start_time + float(rng.uniform(0.1, 1.0)), 0.5))
    else:
        raise ValueError(f"unknown structure break {kind!r}")
    return HazardTrajectory(tuple(segments), tuple(epochs))


_IN_TURN = (
    Constant,
    lambda x: Linear(x, x / 8),
    lambda x: Power(x, x / 4, 1.5),
    lambda x: ExponentialGrowth(x, x / 16),
)


def interleaved_trajectory(n_segments: int, n_epochs: int) -> HazardTrajectory:
    """``n_segments`` segments whose forms take the four classes in turn, so
    that each class's rows lie between the others', and ``n_epochs`` epochs.
    Numbers change from row to row and recur between segments and epochs.
    Loadable, but in general not a valid trajectory."""
    segments = tuple(HazardSegment(i / 2, _IN_TURN[i % 4](0.1 + i / 1000)) for i in range(n_segments))
    epochs = tuple(MaintenanceEpoch((i + 1) / 2, 0.1 + i / 1000) for i in range(n_epochs))
    return HazardTrajectory(segments, epochs)
