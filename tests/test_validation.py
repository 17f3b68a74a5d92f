"""Principle validation: verdicts, locations, structure errors, mutations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_validate_trajectory
from riskcheck.hazard import (
    Constant,
    ExponentialGrowth,
    HazardSegment,
    HazardTrajectory,
    Linear,
    MaintenanceEpoch,
    Power,
    PrincipleViolationError,
    TrajectoryStructureError,
    ensure_valid,
    validate_trajectory,
)
from trajgen import (
    MUTATION_CLASSES,
    STRUCTURE_BREAKS,
    TARGET_PRINCIPLE,
    break_structure,
    mutate,
    random_growing_trajectory,
    random_valid_trajectory,
)


def principles(report):
    return {v.principle for v in report.violations}


class TestValidVerdicts:
    def test_single_constant_segment(self):
        report = validate_trajectory(HazardTrajectory((HazardSegment(0.0, Constant(0.5)),)))
        assert report.valid and report.violations == ()

    def test_declared_sawtooth(self):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Linear(0.1, 0.05)), HazardSegment(10.0, Constant(0.3))),
            (MaintenanceEpoch(10.0, 0.3),),
        )
        report = validate_trajectory(traj)
        assert report.valid

    def test_valid_iff_no_violations(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            report = validate_trajectory(random_valid_trajectory(rng))
            assert report.valid == (len(report.violations) == 0)

    def test_upward_jump_is_noted_not_violated(self):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Constant(0.3)), HazardSegment(5.0, Constant(0.8)))
        )
        report = validate_trajectory(traj)
        assert report.valid
        assert any("upward jump" in note for note in report.notes)

    def test_tiny_base_grows_past_where_exp_alone_overflows(self):
        # exp(800) overflows, 1e-300 * exp(800) ~ 2.7e47 does not
        traj = HazardTrajectory(
            (
                HazardSegment(0.0, ExponentialGrowth(1e-300, 1.0)),
                HazardSegment(800.0, Constant(1e48)),
            )
        )
        report = validate_trajectory(traj)
        assert report.valid, report.violations


class TestPrincipleViolations:
    def test_undeclared_downward_step(self):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Constant(0.8)), HazardSegment(5.0, Constant(0.3)))
        )
        report = validate_trajectory(traj)
        assert not report.valid
        assert (4, 5.0) in [(v.principle, v.location) for v in report.violations]
        # 0.3 also sits below h(0) = 0.8, so the infimum rule fires as well
        assert principles(report) == {4, 5}

    def test_zero_level(self):
        report = validate_trajectory(HazardTrajectory((HazardSegment(0.0, Constant(0.0)),)))
        assert principles(report) == {1}

    def test_negative_level(self):
        report = validate_trajectory(HazardTrajectory((HazardSegment(0.0, Constant(-0.2)),)))
        assert principles(report) == {1}

    def test_hazard_crossing_zero_inside_segment(self):
        report = validate_trajectory(HazardTrajectory((HazardSegment(0.0, Linear(1.0, -0.5)),)))
        assert {1, 3} <= principles(report)
        p1 = [v for v in report.violations if v.principle == 1][0]
        assert p1.location == pytest.approx(2.0)

    def test_negative_slope(self):
        traj = HazardTrajectory(
            (
                HazardSegment(0.0, Constant(0.5)),
                HazardSegment(2.0, Linear(1.0, -0.05)),
                HazardSegment(4.0, Constant(0.9)),
            )
        )
        assert 3 in principles(validate_trajectory(traj))

    def test_concave_power_segment_is_valid(self):
        # 0.5 + 0.2 sqrt(u) rises, though more slowly as u grows
        traj = HazardTrajectory((HazardSegment(0.0, Power(0.5, 0.2, 0.5)),))
        assert validate_trajectory(traj).valid

    def test_negative_growth(self):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Constant(0.5)), HazardSegment(1.0, ExponentialGrowth(2.0, -0.3)))
        )
        report = validate_trajectory(traj)
        # decaying exponential never reaches zero: principle 1 must NOT fire
        assert 3 in principles(report)
        assert 1 not in principles(report)

    def test_decaying_last_segment_breaks_infimum(self):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Constant(0.5)), HazardSegment(1.0, ExponentialGrowth(2.0, -0.3)))
        )
        assert 5 in principles(validate_trajectory(traj))

    def test_maintenance_must_strictly_decrease(self):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Constant(0.5)), HazardSegment(3.0, Constant(0.5))),
            (MaintenanceEpoch(3.0, 0.5),),
        )
        report = validate_trajectory(traj)
        assert [(v.principle, v.location) for v in report.violations] == [(4, 3.0)]

    def test_declared_post_mismatching_segment(self):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Linear(0.1, 0.05)), HazardSegment(10.0, Constant(0.3))),
            (MaintenanceEpoch(10.0, 0.4),),
        )
        assert 2 in principles(validate_trajectory(traj))

    def test_post_maintenance_below_initial_hazard(self):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Linear(0.2, 0.05)), HazardSegment(10.0, Constant(0.1))),
            (MaintenanceEpoch(10.0, 0.1),),
        )
        assert principles(validate_trajectory(traj)) == {5}

    def test_violations_sorted_by_location(self):
        traj = HazardTrajectory(
            (
                HazardSegment(0.0, Constant(0.8)),
                HazardSegment(2.0, Constant(0.5)),
                HazardSegment(4.0, Constant(0.2)),
            )
        )
        report = validate_trajectory(traj)
        locations = [v.location for v in report.violations]
        assert locations == sorted(locations)


class TestStructureErrors:
    def test_no_segments(self):
        with pytest.raises(TrajectoryStructureError):
            validate_trajectory(HazardTrajectory(()))

    def test_first_segment_not_at_zero(self):
        with pytest.raises(TrajectoryStructureError):
            validate_trajectory(HazardTrajectory((HazardSegment(1.0, Constant(0.5)),)))

    def test_unordered_segments(self):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Constant(0.5)), HazardSegment(5.0, Constant(0.6)),
             HazardSegment(2.0, Constant(0.7)))
        )
        with pytest.raises(TrajectoryStructureError):
            validate_trajectory(traj)

    def test_nonfinite_parameter(self):
        with pytest.raises(TrajectoryStructureError):
            validate_trajectory(HazardTrajectory((HazardSegment(0.0, Constant(math.nan)),)))

    def test_epoch_off_boundary(self):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Constant(0.5)), HazardSegment(4.0, Constant(0.4))),
            (MaintenanceEpoch(3.0, 0.4),),
        )
        with pytest.raises(TrajectoryStructureError):
            validate_trajectory(traj)

    def test_duplicate_epochs(self):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Linear(0.5, 0.1)), HazardSegment(4.0, Constant(0.5))),
            (MaintenanceEpoch(4.0, 0.5), MaintenanceEpoch(4.0, 0.5)),
        )
        with pytest.raises(TrajectoryStructureError):
            validate_trajectory(traj)


class TestEnsureValid:
    def test_passes_through_valid(self):
        traj = HazardTrajectory((HazardSegment(0.0, Constant(0.5)),))
        assert ensure_valid(traj) is traj

    def test_raises_with_report(self):
        traj = HazardTrajectory((HazardSegment(0.0, Constant(0.0)),))
        with pytest.raises(PrincipleViolationError) as excinfo:
            ensure_valid(traj)
        assert excinfo.value.report.violations[0].principle == 1


class TestMutationDetection:
    @pytest.mark.parametrize("mutation", MUTATION_CLASSES)
    def test_every_mutation_detected(self, mutation):
        rng = np.random.default_rng(hash(mutation) % (2**32))
        for _ in range(50):
            base = random_growing_trajectory(rng)
            report = validate_trajectory(mutate(base, mutation, rng))
            assert not report.valid
            assert TARGET_PRINCIPLE[mutation] in principles(report)


def outcome(validate, traj) -> str:
    """The report, or the structure error, as text: repr keeps every field,
    the order of the violations and notes, and the spelling of each float."""
    try:
        return repr(validate(traj))
    except TrajectoryStructureError as exc:
        return f"TrajectoryStructureError: {exc}"


class TestSameAsTheReference:
    """The validator reports exactly what its earlier form did, which called
    ``value`` again at every boundary (``oracles.reference_validate_trajectory``)."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from((None, *MUTATION_CLASSES)),
        st.none() | st.sampled_from(STRUCTURE_BREAKS),  # half the candidates keep their structure
    )
    @settings(max_examples=400, deadline=None)
    def test_same_report_or_error(self, seed, mutation, breakage):
        rng = np.random.default_rng(seed)
        if mutation is None:
            traj = random_valid_trajectory(rng, max_segments=8)
        else:
            traj = mutate(random_growing_trajectory(rng), mutation, rng)
        if breakage is not None:
            traj = break_structure(traj, breakage, rng)
        assert outcome(validate_trajectory, traj) == outcome(reference_validate_trajectory, traj)

    @pytest.mark.parametrize("candidate", [[], None, HazardTrajectory(())], ids=repr)
    def test_same_error_on_a_candidate_that_is_no_trajectory(self, candidate):
        assert outcome(validate_trajectory, candidate) == outcome(reference_validate_trajectory, candidate)

    def test_at_most_two_value_calls_per_segment(self, monkeypatch):
        rng = np.random.default_rng(7)
        traj = random_valid_trajectory(rng, max_segments=40)
        while len(traj.segments) < 20:
            traj = random_valid_trajectory(rng, max_segments=40)
        calls = []
        for cls in (Constant, Linear, Power, ExponentialGrowth):
            original = cls.value

            def wrapper(self, u, original=original):
                calls.append(u)
                return original(self, u)

            monkeypatch.setattr(cls, "value", wrapper)
        assert validate_trajectory(traj).valid
        assert len(calls) <= 2 * len(traj.segments)
