"""Exponential comparators: bound verification, gaps, report plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dkw_epsilon, quad_cumulative_hazard, quad_mttf, reference_time_grid
from riskcheck.compare import (
    ORDERING_TOLERANCE,
    PraModel,
    check_stochastic_order,
    comparison_summary,
    default_time_grid,
    pra_rate_from_mttf,
    underestimation_report,
    write_comparison_csv,
)
from riskcheck.hazard import (
    Constant,
    HazardSegment,
    HazardTrajectory,
    Linear,
    failure_probability,
    hazard_at,
    mean_time_to_failure,
    reliability,
)
from riskcheck.sampling import sample_replicates
from riskcheck.scenarios import build_trajectory, scenario_catalog
from riskcheck.serialize import trajectory_hash
from trajgen import random_valid_trajectory

CONSTANT_HALF = HazardTrajectory((HazardSegment(0.0, Constant(0.5)),))
LINEAR_1_2 = HazardTrajectory((HazardSegment(0.0, Linear(1.0, 2.0)),))
WEIBULL_SHAPE = HazardTrajectory((HazardSegment(0.0, Linear(0.0, 2.0)),))


def figure1_trajectory():
    scenario = next(s for s in scenario_catalog() if s.label == "figure1-sawtooth")
    return build_trajectory(scenario)


class TestPraModel:
    def test_rate_from_mttf(self):
        assert pra_rate_from_mttf(2.0).rate == 0.5
        assert pra_rate_from_mttf(1.0).rate == 1.0
        assert pra_rate_from_mttf(2.0).provenance == "derived_from_mttf"

    def test_rate_from_weibull_mttf(self):
        # reciprocal of the quadrature-oracle mean sqrt(pi)/2
        oracle = quad_mttf(WEIBULL_SHAPE)
        model = pra_rate_from_mttf(mean_time_to_failure(WEIBULL_SHAPE))
        assert model.rate == pytest.approx(1.0 / oracle, rel=1e-8)
        assert model.rate == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-6)

    def test_nonpositive_mttf_rejected(self):
        with pytest.raises(ValueError):
            pra_rate_from_mttf(0.0)
        with pytest.raises(ValueError):
            pra_rate_from_mttf(-2.0)

    def test_bad_provenance_rejected(self):
        with pytest.raises(ValueError):
            PraModel(1.0, "guessed")


def pra_survival(rate: float, t: float) -> float:
    """exp(-rate t) read off the f_pra column of a one-point report."""
    report = underestimation_report(LINEAR_1_2, PraModel(rate, "given"), (t,))
    assert report.f_pra == (failure_probability(rate * t),)
    return 1.0 - report.f_pra[0]


def h0_survival(traj: HazardTrajectory, t: float) -> float:
    """exp(-h(0) t) read off the f_h0_bound column of a one-point report."""
    report = check_stochastic_order(traj, (t,))
    assert report.f_h0_bound == (failure_probability(hazard_at(traj, 0.0) * t),)
    return 1.0 - report.f_h0_bound[0]


class TestPraReliability:
    def test_values(self):
        assert pra_survival(0.5, 2.0) == pytest.approx(math.exp(-1.0))
        assert pra_survival(3.0, 0.0) == 1.0
        assert pra_survival(1.0, math.log(2.0)) == pytest.approx(0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            underestimation_report(LINEAR_1_2, PraModel(1.0, "given"), (-1.0,))


class TestExponentialBound:
    def test_equals_reliability_at_zero(self):
        assert h0_survival(LINEAR_1_2, 0.0) == 1.0 == reliability(LINEAR_1_2, 0.0)

    def test_constant_hazard_attains_bound(self):
        report = check_stochastic_order(CONSTANT_HALF, (0.0, 0.5, 2.0, 11.0))
        assert report.f_h0_bound == report.f_true
        assert report.pointwise_gaps == (0.0, 0.0, 0.0, 0.0)

    def test_dominates_reliability(self):
        traj = HazardTrajectory((HazardSegment(0.0, Linear(1.0, 1.0)),))
        # oracle: H(2) = 4, so R(2) = e^-4 while the bound is e^-2
        assert quad_cumulative_hazard(traj, 2.0) == pytest.approx(4.0, rel=1e-10)
        assert h0_survival(traj, 2.0) == pytest.approx(math.exp(-2.0))
        assert h0_survival(traj, 2.0) > reliability(traj, 2.0) == pytest.approx(math.exp(-4.0))


class TestDefaultGrid:
    def test_shape(self):
        grid = default_time_grid(CONSTANT_HALF)
        assert len(grid) == 65
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(5.0 / 0.5)
        assert grid[1] == pytest.approx(0.01 / 0.5)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_explicit_t_max(self):
        grid = default_time_grid(CONSTANT_HALF, count=32, t_max=30.0)
        assert len(grid) == 33
        assert grid[-1] == pytest.approx(30.0)

    @pytest.mark.parametrize("level", [0.0, -1.0, math.inf])
    def test_default_window_needs_positive_finite_h0(self, level):
        traj = HazardTrajectory((HazardSegment(0.0, Constant(level)),))
        with pytest.raises(ValueError, match=r"h\(0\).*--t-max"):
            default_time_grid(traj)
        assert default_time_grid(traj, count=4, t_max=5.0)[-1] == pytest.approx(5.0)


GRID_T_MAX = st.floats(1e-300, 1e300)
GRID_COUNT = st.integers(2, 2000)


class TestDefaultGridArithmetic:
    """The grid is ``np.geomspace``'s arithmetic on ``math``: bit for bit
    the scalar transcription in the oracles, and within rounding of numpy's
    own (whose SIMD ``log10`` and ``power`` differ from libm by a few ulp)."""

    @settings(max_examples=300, deadline=None)
    @given(t_max=GRID_T_MAX, count=GRID_COUNT)
    def test_matches_the_reference_bit_for_bit(self, t_max, count):
        grid = default_time_grid(CONSTANT_HALF, count, t_max)
        assert [t.hex() for t in grid] == [t.hex() for t in reference_time_grid(t_max, count)]

    @settings(max_examples=300, deadline=None)
    @given(t_max=GRID_T_MAX, count=GRID_COUNT)
    def test_close_to_geomspace_increasing_with_exact_ends(self, t_max, count):
        grid = default_time_grid(CONSTANT_HALF, count, t_max)
        assert (grid[0], grid[1], grid[-1]) == (0.0, t_max / 500.0, t_max)
        assert all(b > a for a, b in zip(grid, grid[1:]))
        geomspace = np.geomspace(t_max / 500.0, t_max, count)
        np.testing.assert_allclose(grid[1:], geomspace, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("t_max", [1e-320, 1e-321, 5e-324])
    def test_subnormal_t_max_refused(self, t_max):
        # 1e-320 gives 64 points with repeats; 1e-321 / 500 underflows to 0
        with pytest.raises(ValueError, match=r"too small: the 64 grid times .* not strictly increasing"):
            default_time_grid(CONSTANT_HALF, 64, t_max)

    def test_subnormal_t_max_kept_while_increasing(self):
        assert default_time_grid(CONSTANT_HALF, 2, 1e-320) == (0.0, 1e-320 / 500.0, 1e-320)

    @pytest.mark.parametrize("count", [10**14, 10**20])
    def test_count_too_large_to_allocate(self, count):
        with pytest.raises(MemoryError, match=f"^Unable to allocate a grid of {count} time points$"):
            default_time_grid(CONSTANT_HALF, count)


class TestStochasticOrder:
    def test_constant_gaps_identically_zero(self):
        report = check_stochastic_order(CONSTANT_HALF, default_time_grid(CONSTANT_HALF))
        assert report.ordering_holds
        assert all(abs(g) < 1e-12 for g in report.pointwise_gaps)
        assert report.sup_gap_h0 == 0.0

    def test_linear_single_point_gap(self):
        report = check_stochastic_order(LINEAR_1_2, (1.0,))
        # oracle: H(1) = 2, h(0) = 1 -> gap = e^-1 - e^-2
        assert quad_cumulative_hazard(LINEAR_1_2, 1.0) == pytest.approx(2.0, rel=1e-10)
        assert report.f_true[0] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-14)
        assert report.f_h0_bound[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)
        assert report.pointwise_gaps[0] == pytest.approx(0.23254415793483963, abs=1e-14)
        assert report.ordering_holds

    def test_figure1_sawtooth_on_grid(self):
        traj = figure1_trajectory()
        grid = default_time_grid(traj, count=64, t_max=30.0)
        report = check_stochastic_order(traj, grid)
        assert report.ordering_holds
        assert report.sup_gap_h0 > 0.0

    def test_gap_zero_at_time_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            traj = random_valid_trajectory(rng)
            report = check_stochastic_order(traj, default_time_grid(traj))
            assert report.pointwise_gaps[0] == 0.0

    def test_randomized_ordering(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            traj = random_valid_trajectory(rng)
            report = check_stochastic_order(traj, default_time_grid(traj))
            assert report.ordering_holds
            assert min(report.pointwise_gaps) >= -ORDERING_TOLERANCE

    @pytest.mark.parametrize("grid", [(800.0,), (1.0, 800.0), (1.0, 800.0, 2.0e3)])
    def test_a_nan_gap_breaks_the_ordering(self, grid):
        # h = -1 breaks the rules: past t = 709.8 both CDFs are -inf and
        # their gap NaN, wherever it falls in the grid
        report = check_stochastic_order(HazardTrajectory((HazardSegment(0.0, Constant(-1.0)),)), grid)
        assert math.isnan(report.pointwise_gaps[grid.index(800.0)])
        assert not report.ordering_holds
        assert math.isnan(report.min_gap)
        assert math.isnan(report.sup_gap_h0) and math.isnan(report.sup_gap_pra)

    @pytest.mark.parametrize("grid", [(), (2.0, 1.0), (-1.0, 2.0), (1.0, 1.0)])
    def test_malformed_grid_rejected(self, grid):
        with pytest.raises(ValueError):
            check_stochastic_order(CONSTANT_HALF, grid)


class TestUnderestimationReport:
    def test_h0_model_coincides_with_order_check(self):
        traj = figure1_trajectory()
        grid = default_time_grid(traj)
        model = PraModel(hazard_at(traj, 0.0), "given")
        assert underestimation_report(traj, model, grid) == check_stochastic_order(traj, grid)

    def test_constant_self_consistency(self):
        # exponential data, exponential model with the matching rate: no gaps
        model = pra_rate_from_mttf(mean_time_to_failure(CONSTANT_HALF))
        report = underestimation_report(CONSTANT_HALF, model, default_time_grid(CONSTANT_HALF))
        assert model.rate == pytest.approx(0.5, abs=1e-10)
        assert all(abs(a - b) < 1e-9 for a, b in zip(report.f_true, report.f_pra))

    def test_mean_matched_comparator_crosses(self):
        # the rate-1/E[T] exponential has no pointwise guarantee: it must
        # cross the true CDF somewhere on a wide grid
        model = pra_rate_from_mttf(mean_time_to_failure(LINEAR_1_2))
        grid = default_time_grid(LINEAR_1_2)
        report = underestimation_report(LINEAR_1_2, model, grid)
        signed = [a - b for a, b in zip(report.f_true, report.f_pra)]
        assert report.sup_gap_pra > 0.0
        assert min(signed) < 0.0
        assert report.ordering_holds  # the h(0) bound still holds throughout

    def test_empirical_cdf_respects_bound(self):
        # sampled version of the ordering: ECDF >= bound - DKW band
        traj = figure1_trajectory()
        n = 100_000
        draws = np.sort(sample_replicates(traj, n, seed=424))
        h0 = hazard_at(traj, 0.0)
        eps = dkw_epsilon(n)
        for t in default_time_grid(traj, count=64, t_max=30.0):
            ecdf = np.searchsorted(draws, t, side="right") / n
            assert ecdf >= -math.expm1(-h0 * t) - eps


class TestComparatorMonotonicity:
    @given(
        st.floats(0.01, 5.0),
        st.floats(0.01, 5.0),
        st.floats(0.0, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_lower_rate_weakly_lowers_cdf(self, r1, r2, t):
        low, high = sorted((r1, r2))
        assert -math.expm1(-low * t) <= -math.expm1(-high * t) + 1e-15


class TestReportOutput:
    def test_csv_round_trips_values(self, tmp_path):
        traj = figure1_trajectory()
        report = check_stochastic_order(traj, default_time_grid(traj, count=16))
        path = write_comparison_csv(tmp_path / "comparison.csv", report)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,f_true,f_h0_bound,f_pra,gap_h0,gap_pra"
        row = lines[3].split(",")
        index = 2
        assert float(row[0]) == report.grid[index]
        assert float(row[1]) == report.f_true[index]
        assert float(row[4]) == report.pointwise_gaps[index]

    def test_summary_fields(self):
        traj = figure1_trajectory()
        model = pra_rate_from_mttf(mean_time_to_failure(traj))
        report = underestimation_report(traj, model, default_time_grid(traj))
        summary = comparison_summary(report, trajectory_hash(traj), model)
        assert summary["ordering_holds"] is True
        assert summary["guaranteed_bound"] == "h0"
        assert summary["pra"]["provenance"] == "derived_from_mttf"
        assert summary["trajectory_hash"] == trajectory_hash(traj)
        assert summary["sup_gap_h0"] == report.sup_gap_h0
