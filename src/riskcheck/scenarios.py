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


@dataclass(frozen=True)
class PeriodicPerfect:
    period: float
    name: ClassVar[str] = "periodic_perfect"


@dataclass(frozen=True)
class PeriodicImperfect:
    period: float
    improvement: float
    name: ClassVar[str] = "periodic_imperfect"


@dataclass(frozen=True)
class ThresholdPerfect:
    trigger_hazard: float
    name: ClassVar[str] = "threshold_perfect"


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


def _check_scenario(scenario: Scenario) -> None:
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
    if isinstance(policy, (PeriodicPerfect, PeriodicImperfect)):
        if not (policy.period > 0.0 and math.isfinite(policy.period)):
            raise ValueError(f"maintenance period must be positive, got {policy.period!r}")
        if isinstance(policy, PeriodicImperfect) and not (0.0 < policy.improvement <= 1.0):
            raise ValueError(
                f"improvement must lie in (0, 1], got {policy.improvement!r}"
            )
        step, what = policy.period, "maintenance period"
    elif isinstance(policy, ThresholdPerfect):
        if not (policy.trigger_hazard > model.initial_hazard and math.isfinite(policy.trigger_hazard)):
            raise ValueError(
                f"trigger hazard {policy.trigger_hazard!r} must exceed the initial hazard "
                f"{model.initial_hazard!r}"
            )
        step = _cycle_form(growth, model.initial_hazard).time_to_reach(policy.trigger_hazard)
        what = "threshold step"
    else:
        raise ValueError(f"unknown maintenance policy {type(policy).__name__}")
    horizon = scenario.horizon
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if step is not None and horizon >= (MAX_EPOCHS + 1) * step:
        raise ValueError(
            f"{what} {step!r} gives more than MAX_EPOCHS = {MAX_EPOCHS} epochs "
            f"over horizon {horizon!r}"
        )


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
    _check_scenario(scenario)
    model, policy, horizon = scenario.model, scenario.policy, scenario.horizon
    h0 = model.initial_hazard

    segments: list[HazardSegment] = []
    epochs: list[MaintenanceEpoch] = []
    cycle_start = 0.0
    form = _cycle_form(model.growth, h0)

    if isinstance(policy, (PeriodicPerfect, PeriodicImperfect)):
        period = policy.period
        improvement = policy.improvement if isinstance(policy, PeriodicImperfect) else 1.0
        k = 1
        while k * period <= horizon:
            candidate = k * period
            k += 1
            left = form.value(candidate - cycle_start)
            post = h0 + (1.0 - improvement) * (left - h0)
            if not post < left:
                continue  # nothing degraded; a no-op is not a maintenance
            segments.append(HazardSegment(cycle_start, form))
            epochs.append(MaintenanceEpoch(candidate, post))
            cycle_start = candidate
            form = _cycle_form(model.growth, post)
    else:
        step = form.time_to_reach(policy.trigger_hazard)
        if step is not None:
            candidate = step
            while candidate <= horizon:
                segments.append(HazardSegment(cycle_start, form))
                epochs.append(MaintenanceEpoch(candidate, h0))
                cycle_start = candidate
                form = _cycle_form(model.growth, h0)
                candidate = cycle_start + step

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
