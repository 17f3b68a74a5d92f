"""Compile degradation models and maintenance policies into trajectories.

A scenario pairs a degradation model (how fast the hazard grows since the
last restoration) with a maintenance policy (when restoration happens and
how complete it is) over a planning horizon.  The model is the segment form
of the first cycle: a ``Linear``, ``Power`` or ``ExponentialGrowth`` whose
first field is the time-zero hazard h0, as in
``Scenario("s", Linear(0.1, 0.05), PeriodicPerfect(10.0), 30.0)``.  Each
later cycle is the same form class with the same growth parameters, rebuilt
on the hazard that maintenance restored; a growth scale (the second field)
of zero makes every cycle a flat ``Constant``.  A model must start at h0
and have a limit not below it, so concave power growth (exponent in (0, 1))
is allowed, and a power exponent <= 0 with a nonzero coefficient refused.

The compiler emits sawtooth-shaped trajectories: hazard growth between
epochs, a drop at each epoch, and the final cycle's form extending to
infinity.  Perfect maintenance restores the hazard to h0.  Imperfect
maintenance removes a fraction ``improvement`` of the excess over h0:
post = h0 + (1 - improvement) * (pre - h0), which keeps every restoration
strictly below the pre-repair hazard and at or above h0 for any
improvement in (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Union

from .hazard import (
    _PARAMS,
    Constant,
    ExponentialGrowth,
    HazardTrajectory,
    Linear,
    Power,
    SegmentForm,
    ensure_valid,
)

__all__ = [
    "GROWTH_FORMS",
    "PeriodicPerfect",
    "PeriodicImperfect",
    "ThresholdPerfect",
    "MAINTENANCE_POLICIES",
    "MaintenancePolicy",
    "MAX_EPOCHS",
    "Scenario",
    "build_trajectory",
    "scenario_catalog",
]

# The segment forms a scenario may grow by.
GROWTH_FORMS = (Linear, Power, ExponentialGrowth)


# A maintenance policy owns its schedule.  Each policy class has:
#
# * ``check(h0)``: raise ValueError on out-of-range parameters;
# * ``step(cycle)``: the time between epochs for a cycle that starts with
#   the segment form ``cycle``, or None if the system is never maintained;
# * ``epoch_time(k, previous, step)``: the time of epoch candidate k >= 1,
#   given the previous candidate's time (0 for the first);
# * ``improvement``: the share of the excess over h0 that maintenance
#   removes (1 restores h0);
# * ``step_name``: what the step is called in error messages;
# * ``no_op_refused``: whether an epoch candidate where nothing degraded
#   means the step missed the hazard it was derived from, so the scenario is
#   refused, rather than a scheduled time with nothing to repair, skipped.


class _Periodic:
    """Maintenance at every multiple of ``period``."""

    step_name: ClassVar[str] = "maintenance period"
    no_op_refused: ClassVar[bool] = False

    def check(self, h0: float) -> None:
        if not (self.period > 0.0 and math.isfinite(self.period)):
            raise ValueError(f"maintenance period must be positive, got {self.period!r}")

    def step(self, cycle: SegmentForm) -> float:
        return self.period

    @staticmethod
    def epoch_time(k: int, previous: float, step: float) -> float:
        return k * step


@dataclass(frozen=True)
class PeriodicPerfect(_Periodic):
    period: float
    name: ClassVar[str] = "periodic_perfect"
    improvement: ClassVar[float] = 1.0


@dataclass(frozen=True)
class PeriodicImperfect(_Periodic):
    period: float
    improvement: float
    name: ClassVar[str] = "periodic_imperfect"

    def check(self, h0: float) -> None:
        super().check(h0)
        if not (0.0 < self.improvement <= 1.0):
            raise ValueError(f"improvement must lie in (0, 1], got {self.improvement!r}")


@dataclass(frozen=True)
class ThresholdPerfect:
    """Perfect maintenance whenever the hazard reaches ``trigger_hazard``."""

    trigger_hazard: float
    name: ClassVar[str] = "threshold_perfect"
    improvement: ClassVar[float] = 1.0
    step_name: ClassVar[str] = "threshold step"
    no_op_refused: ClassVar[bool] = True

    def check(self, h0: float) -> None:
        if not (self.trigger_hazard > h0 and math.isfinite(self.trigger_hazard)):
            raise ValueError(
                f"trigger hazard {self.trigger_hazard!r} must exceed the initial hazard {h0!r}"
            )

    def step(self, cycle: SegmentForm) -> float | None:
        return cycle.time_to_reach(self.trigger_hazard)

    @staticmethod
    def epoch_time(k: int, previous: float, step: float) -> float:
        # Repeated addition: k * step differs in the last bits, which would
        # move epoch times and change trajectory hashes.
        return previous + step


MAINTENANCE_POLICIES = (PeriodicPerfect, PeriodicImperfect, ThresholdPerfect)
MaintenancePolicy = Union[MAINTENANCE_POLICIES]


@dataclass(frozen=True)
class Scenario:
    label: str
    model: SegmentForm  # the first cycle's form, one of GROWTH_FORMS
    policy: MaintenancePolicy
    horizon: float


# Most maintenance epochs a scenario may declare within its horizon, counted
# as floor(horizon / period) or floor(horizon / threshold step).  Ten times
# the largest stress fixture (period 0.01 over horizon 1000); a step far
# below the horizon would otherwise compile an unbounded trajectory, or never
# finish once the step falls below one float spacing of the cycle start.
MAX_EPOCHS = 10**6


def _check_scenario(
    scenario: Scenario,
) -> tuple[float, Callable[[float], SegmentForm], float | None]:
    """Raise ValueError on an out-of-range scenario; else return its h0, the
    form of a cycle as a function of the hazard it starts at, and its epoch
    step."""
    model, policy = scenario.model, scenario.policy
    cls = type(model)
    if cls not in GROWTH_FORMS:
        raise ValueError(f"unknown growth form {cls.__name__}")
    h0, scale, *rest = (getattr(model, p) for p in _PARAMS[cls])
    if not (h0 > 0.0 and math.isfinite(h0)):
        raise ValueError(f"initial hazard must be positive and finite, got {h0!r}")
    # A model is legal when it starts at h0 and never decreases.
    if not (
        all(map(math.isfinite, (scale, *rest)))
        and model.value(0.0) == h0
        and not model.limit_at_infinity() < h0
    ):
        raise ValueError(f"growth parameters out of range: {model!r}")
    if not isinstance(policy, MAINTENANCE_POLICIES):
        raise ValueError(f"unknown maintenance policy {type(policy).__name__}")
    policy.check(h0)
    horizon = scenario.horizon
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    cycle = Constant if scale == 0.0 else lambda base: cls(base, scale, *rest)
    step = policy.step(cycle(h0))
    if step is not None and horizon >= (MAX_EPOCHS + 1) * step:
        raise ValueError(
            f"{policy.step_name} {step!r} gives more than MAX_EPOCHS = {MAX_EPOCHS} epochs "
            f"over horizon {horizon!r}"
        )
    return h0, cycle, step


def build_trajectory(scenario: Scenario) -> HazardTrajectory:
    """Compile a scenario into a validated trajectory.

    Maintenance is instantaneous.  Epochs land at policy-determined times up
    to and including the horizon; an epoch that would not strictly decrease
    the hazard (no degradation happened) is skipped rather than declared.
    A scenario whose hazard overflows before an epoch is refused: there is no
    finite hazard for maintenance to reduce.  So is a threshold scenario
    with a skipped epoch: its step rounded to a time where the hazard has not
    left h0, and the epochs it should have placed are missing.  Past the
    last epoch the last cycle's form extends to infinity.
    """
    h0, cycle, step = _check_scenario(scenario)
    policy, horizon = scenario.policy, scenario.horizon

    # The trajectory's row table, appended to a cycle at a time: starts and
    # forms of the segments, times and post-hazards of the epochs.
    starts: list[float] = []
    forms: list[SegmentForm] = []
    times: list[float] = []
    posts: list[float] = []
    cycle_start, skipped = 0.0, None
    form = cycle(h0)
    if step is not None:
        k, candidate = 1, policy.epoch_time(1, 0.0, step)
        while candidate <= horizon:
            left = form.value(candidate - cycle_start)
            if not left < math.inf:
                raise ValueError(
                    f"hazard overflows to {left!r} before the maintenance epoch at t={candidate!r}"
                )
            # An integer or numpy policy parameter gives integer or numpy
            # times and hazards; the table holds Python floats.
            post = float(h0 + (1.0 - policy.improvement) * (left - h0))
            if post < left:  # else nothing degraded; a no-op is not a maintenance
                starts.append(cycle_start)
                forms.append(form)
                times.append(float(candidate))
                posts.append(post)
                cycle_start = times[-1]
                form = cycle(post)
            elif skipped is None:
                skipped = candidate
            k += 1
            candidate = policy.epoch_time(k, candidate, step)
    if skipped is not None and policy.no_op_refused:
        raise ValueError(
            f"{policy.step_name} {step!r} leaves the hazard at {h0!r} at the maintenance epoch "
            f"at t={skipped!r}"
        )

    starts.append(cycle_start)
    forms.append(form)
    table = (tuple(starts), tuple(forms), tuple(times), tuple(posts))
    return ensure_valid(HazardTrajectory._from_table(table))


def scenario_catalog() -> tuple[Scenario, ...]:
    """Built-in demonstration scenarios.

    The first four are the canonical quartet (constant-hazard control,
    unmaintained degradation, periodic sawtooth, imperfect-maintenance
    drift); the fifth exercises threshold-triggered maintenance on a
    power-law degradation.
    """
    return (
        Scenario(
            label="constant-control",
            model=Linear(0.5, 0.0),
            policy=PeriodicPerfect(10.0),
            horizon=30.0,
        ),
        Scenario(
            label="unmaintained-linear",
            model=Linear(0.1, 0.05),
            policy=PeriodicPerfect(60.0),  # scheduled beyond the horizon
            horizon=30.0,
        ),
        Scenario(
            label="figure1-sawtooth",
            model=Linear(0.1, 0.05),
            policy=PeriodicPerfect(10.0),
            horizon=30.0,
        ),
        Scenario(
            label="imperfect-drift",
            model=Linear(0.1, 0.05),
            policy=PeriodicImperfect(10.0, 0.5),
            horizon=40.0,
        ),
        Scenario(
            label="threshold-power",
            model=Power(0.2, 0.02, 2.0),
            policy=ThresholdPerfect(0.7),
            horizon=20.0,
        ),
    )
