"""Compile degradation models and maintenance policies into trajectories.

A scenario pairs a within-cycle degradation law (how fast the hazard grows
since the last restoration) with a maintenance policy (when restoration
happens and how complete it is) over a planning horizon.  The compiler
emits sawtooth-shaped trajectories: hazard growth between epochs, a drop at
each epoch, and the final cycle's growth law extending to infinity.

Perfect maintenance restores the hazard to its time-zero value h0.
Imperfect maintenance removes a fraction ``improvement`` of the excess over
h0: post = h0 + (1 - improvement) * (pre - h0), which keeps every
restoration strictly below the pre-repair hazard and at or above h0 for any
improvement in (0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

from .hazard import (
    Constant,
    ExponentialGrowth,
    HazardSegment,
    HazardTrajectory,
    Linear,
    MaintenanceEpoch,
    Power,
    SegmentForm,
    ensure_valid,
)

__all__ = [
    "LinearGrowth",
    "PowerGrowth",
    "ExponentialRateGrowth",
    "GROWTH_FORMS",
    "DegradationModel",
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


# A growth law is a segment form with the base left out: its fields are the
# form's remaining parameters, in order, and the first is the growth scale
# (zero means no growth, and the cycle is flat).


@dataclass(frozen=True)
class LinearGrowth:
    """Hazard increases by ``slope`` per unit time within a cycle."""

    slope: float
    form: ClassVar[type] = Linear


@dataclass(frozen=True)
class PowerGrowth:
    """Hazard increase ``coefficient * u**exponent`` within a cycle."""

    coefficient: float
    exponent: float
    form: ClassVar[type] = Power


@dataclass(frozen=True)
class ExponentialRateGrowth:
    """Hazard grows by factor exp(rate * u) within a cycle."""

    rate: float
    form: ClassVar[type] = ExponentialGrowth


GROWTH_FORMS = (LinearGrowth, PowerGrowth, ExponentialRateGrowth)
GrowthForm = Union[GROWTH_FORMS]


@dataclass(frozen=True)
class DegradationModel:
    initial_hazard: float
    growth: GrowthForm


# A maintenance policy owns its schedule.  Each policy class has:
#
# * ``check(h0)``: raise ValueError on out-of-range parameters;
# * ``step(cycle)``: the time between epochs for a cycle that starts with
#   the segment form ``cycle``, or None if the system is never maintained;
# * ``epoch_time(k, previous, step)``: the time of epoch candidate k >= 1,
#   given the previous candidate's time (0 for the first);
# * ``improvement``: the share of the excess over h0 that maintenance
#   removes (1 restores h0);
# * ``step_name``: what the step is called in error messages.


class _Periodic:
    """Maintenance at every multiple of ``period``."""

    step_name: ClassVar[str] = "maintenance period"

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
    model: DegradationModel
    policy: MaintenancePolicy
    horizon: float


# Most maintenance epochs a scenario may declare within its horizon, counted
# as floor(horizon / period) or floor(horizon / threshold step).  Ten times
# the largest stress fixture (period 0.01 over horizon 1000); a step far
# below the horizon would otherwise compile an unbounded trajectory, or never
# finish once the step falls below one float spacing of the cycle start.
MAX_EPOCHS = 10**6


def _check_scenario(scenario: Scenario) -> float | None:
    """Raise ValueError on an out-of-range scenario; else return its epoch step."""
    model, policy = scenario.model, scenario.policy
    if not (model.initial_hazard > 0.0 and math.isfinite(model.initial_hazard)):
        raise ValueError(f"initial hazard must be positive and finite, got {model.initial_hazard!r}")
    growth = model.growth
    if not isinstance(growth, GROWTH_FORMS):
        raise ValueError(f"unknown growth form {type(growth).__name__}")
    params = vars(growth).values()
    # A growth law is legal when its cycle form never decreases.  Power
    # exponents below 1 are refused even at a zero coefficient, where the
    # cycle would be flat.
    if not (
        all(map(math.isfinite, params))
        and growth.form(model.initial_hazard, *params).decrease_reason() is None
        and not (isinstance(growth, PowerGrowth) and growth.exponent < 1.0)
    ):
        raise ValueError(f"growth parameters out of range: {growth!r}")
    if not isinstance(policy, MAINTENANCE_POLICIES):
        raise ValueError(f"unknown maintenance policy {type(policy).__name__}")
    policy.check(model.initial_hazard)
    horizon = scenario.horizon
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    step = policy.step(_cycle_form(growth, model.initial_hazard))
    if step is not None and horizon >= (MAX_EPOCHS + 1) * step:
        raise ValueError(
            f"{policy.step_name} {step!r} gives more than MAX_EPOCHS = {MAX_EPOCHS} epochs "
            f"over horizon {horizon!r}"
        )
    return step


def _cycle_form(growth: GrowthForm, base: float) -> SegmentForm:
    """Segment form for one cycle starting at hazard ``base``."""
    scale, *rest = vars(growth).values()
    return Constant(base) if scale == 0.0 else growth.form(base, scale, *rest)


def build_trajectory(scenario: Scenario) -> HazardTrajectory:
    """Compile a scenario into a validated trajectory.

    Maintenance is instantaneous.  Epochs land at policy-determined times up
    to and including the horizon; an epoch that would not strictly decrease
    the hazard (no degradation happened) is skipped rather than declared.
    Past the last epoch the cycle's growth law extends to infinity.
    """
    step = _check_scenario(scenario)
    model, policy, horizon = scenario.model, scenario.policy, scenario.horizon
    h0 = model.initial_hazard

    segments: list[HazardSegment] = []
    epochs: list[MaintenanceEpoch] = []
    cycle_start = 0.0
    form = _cycle_form(model.growth, h0)
    if step is not None:
        k, candidate = 1, policy.epoch_time(1, 0.0, step)
        while candidate <= horizon:
            left = form.value(candidate - cycle_start)
            post = h0 + (1.0 - policy.improvement) * (left - h0)
            if post < left:  # else nothing degraded; a no-op is not a maintenance
                segments.append(HazardSegment(cycle_start, form))
                epochs.append(MaintenanceEpoch(candidate, post))
                cycle_start = candidate
                form = _cycle_form(model.growth, post)
            k += 1
            candidate = policy.epoch_time(k, candidate, step)

    segments.append(HazardSegment(cycle_start, form))
    return ensure_valid(HazardTrajectory(tuple(segments), tuple(epochs)))


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
            model=DegradationModel(0.5, LinearGrowth(0.0)),
            policy=PeriodicPerfect(10.0),
            horizon=30.0,
        ),
        Scenario(
            label="unmaintained-linear",
            model=DegradationModel(0.1, LinearGrowth(0.05)),
            policy=PeriodicPerfect(60.0),  # scheduled beyond the horizon
            horizon=30.0,
        ),
        Scenario(
            label="figure1-sawtooth",
            model=DegradationModel(0.1, LinearGrowth(0.05)),
            policy=PeriodicPerfect(10.0),
            horizon=30.0,
        ),
        Scenario(
            label="imperfect-drift",
            model=DegradationModel(0.1, LinearGrowth(0.05)),
            policy=PeriodicImperfect(10.0, 0.5),
            horizon=40.0,
        ),
        Scenario(
            label="threshold-power",
            model=DegradationModel(0.2, PowerGrowth(0.02, 2.0)),
            policy=ThresholdPerfect(0.7),
            horizon=20.0,
        ),
    )
