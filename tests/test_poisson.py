"""Poisson-approximation distances: discretization, bound, exact TV, KS."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    capped_exact_tv,
    dkw_epsilon,
    enumerated_poisson_binomial_pmf,
    one_sample_ks,
    quad_cumulative_hazard,
)
from riskcheck.compare import PraModel
from riskcheck.hazard import (
    Constant,
    HazardSegment,
    HazardTrajectory,
    Linear,
    cumulative_hazard,
    failure_cdf,
)
from riskcheck.poisson import (
    DiscretizedFailureProcess,
    discretize,
    exact_tv_small,
    ks_distance,
    poisson_binomial_pmf,
    stein_chen_tv_bound,
)
from riskcheck.sampling import sample_replicates

CONSTANT_HALF = HazardTrajectory((HazardSegment(0.0, Constant(0.5)),))
LINEAR_1_2 = HazardTrajectory((HazardSegment(0.0, Linear(1.0, 2.0)),))


class TestDiscretize:
    def test_constant_uniform_grid(self):
        grid = [0.5 * k for k in range(1, 9)]
        proc = discretize(CONSTANT_HALF, grid)
        expected = -math.expm1(-0.5 * 0.5)
        assert all(p == pytest.approx(expected, abs=1e-15) for p in proc.probabilities)

    def test_single_interval_is_failure_cdf(self):
        proc = discretize(LINEAR_1_2, [2.5])
        assert proc.probabilities[0] == pytest.approx(failure_cdf(LINEAR_1_2, 2.5), abs=1e-15)

    def test_linear_increments_match_quadrature_oracle(self):
        # oracle: H(0.5) = 0.75 and H(1.0) = 2.0 for h(t) = 1 + 2t
        h_half = quad_cumulative_hazard(LINEAR_1_2, 0.5)
        h_one = quad_cumulative_hazard(LINEAR_1_2, 1.0)
        assert h_half == pytest.approx(0.75, rel=1e-10)
        assert h_one == pytest.approx(2.0, rel=1e-10)
        proc = discretize(LINEAR_1_2, [0.5, 1.0])
        assert proc.probabilities[0] == pytest.approx(-math.expm1(-h_half), abs=1e-12)
        assert proc.probabilities[1] == pytest.approx(-math.expm1(-(h_one - h_half)), abs=1e-12)

    def test_log_survivals_sum_to_total_cumulative_hazard(self):
        coarse = discretize(LINEAR_1_2, [1.0, 2.0, 3.0])
        fine = discretize(LINEAR_1_2, [0.25 * k for k in range(1, 13)])
        total = cumulative_hazard(LINEAR_1_2, 3.0)
        for proc in (coarse, fine):
            recovered = -sum(math.log1p(-p) for p in proc.probabilities)
            assert recovered == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize("grid", [(), (0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (1.0, 1.0)])
    def test_malformed_grid_rejected(self, grid):
        with pytest.raises(ValueError):
            discretize(CONSTANT_HALF, grid)

    def test_probabilities_in_closed_unit_interval(self):
        # p == 1 is an interval of certain failure (hazard increment past ~37),
        # p == 0 one whose increment underflows
        assert DiscretizedFailureProcess((0.0, 0.5, 1.0)).probabilities == (0.0, 0.5, 1.0)
        for bad in (-1e-300, -0.5, math.nextafter(1.0, 2.0), math.nan):
            with pytest.raises(ValueError):
                DiscretizedFailureProcess((bad, 0.5))

    def test_zero_probability_interval_adds_nothing(self):
        with_zero = DiscretizedFailureProcess((0.0, 0.3, 0.0))
        without = DiscretizedFailureProcess((0.3,))
        assert stein_chen_tv_bound(with_zero) == stein_chen_tv_bound(without)
        assert exact_tv_small(with_zero) == exact_tv_small(without)
        assert poisson_binomial_pmf(with_zero.probabilities).tolist() == [0.7, 0.3, 0.0, 0.0]

    def test_certain_failure_interval_keeps_bound_in_range(self):
        proc = discretize(HazardTrajectory((HazardSegment(0.0, Constant(50.0)),)), [1.0, 2.0])
        assert proc.probabilities == (1.0, 1.0)
        assert stein_chen_tv_bound(proc) == 1.0
        assert 0.0 <= exact_tv_small(proc) <= 1.0


class TestSteinChenBound:
    def test_empty_process(self):
        assert stein_chen_tv_bound(DiscretizedFailureProcess(())) == 0.0
        assert exact_tv_small(DiscretizedFailureProcess(())) == 0.0

    def test_single_indicator(self):
        proc = DiscretizedFailureProcess((0.3,))
        assert stein_chen_tv_bound(proc) == pytest.approx(0.09, abs=1e-15)
        assert exact_tv_small(proc) <= 0.09

    def test_ten_identical_indicators(self):
        proc = DiscretizedFailureProcess((0.1,) * 10)
        assert stein_chen_tv_bound(proc) == pytest.approx(0.1, abs=1e-12)
        # exact TV of Binomial(10, 0.1) vs Poisson(1)
        exact = exact_tv_small(proc)
        assert exact <= 0.1
        assert exact > 0.0

    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=12), st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_sum_of_squares_grows_when_appending(self, probs, extra):
        base = stein_chen_tv_bound(DiscretizedFailureProcess(tuple(probs)))
        lam = sum(probs)
        grown_sq = sum(p * p for p in probs) + extra * extra
        grown = min(1.0, 1.0 / (lam + extra)) * grown_sq
        # appending an indicator never decreases the sum of squares
        assert grown_sq > sum(p * p for p in probs)
        assert grown >= 0.0 and base >= 0.0


def mixed_probabilities(n, seed):
    """n indicator probabilities, each drawn from (0, 1], [1e-13, 1e-11] or
    {1}, in proportions that vary with the seed."""
    rng = np.random.default_rng(seed)
    kinds = rng.choice(3, size=n, p=rng.dirichlet(np.ones(3)))
    choices = [1.0 - rng.random(n), rng.uniform(1e-13, 1e-11, n), np.ones(n)]
    return [float(p) for p in np.choose(kinds, choices)]


class TestExactTv:
    def test_single_half_by_direct_arithmetic(self):
        proc = DiscretizedFailureProcess((0.5,))
        s = math.exp(-0.5)
        expected = 0.5 * (abs(0.5 - s) + abs(0.5 - 0.5 * s) + (1.0 - 1.5 * s))
        assert exact_tv_small(proc) == pytest.approx(expected, abs=1e-14)

    def test_pmf_matches_enumeration_oracle(self):
        rng = np.random.default_rng(606)
        for _ in range(25):
            n = int(rng.integers(1, 11))
            probs = tuple(float(p) for p in rng.uniform(0.02, 0.98, size=n))
            dp = poisson_binomial_pmf(probs)
            brute = enumerated_poisson_binomial_pmf(probs)
            assert np.allclose(dp, brute, atol=1e-12)

    def test_bound_dominates_exact_on_random_instances(self):
        rng = np.random.default_rng(808)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            proc = DiscretizedFailureProcess(tuple(float(p) for p in rng.uniform(0.01, 0.99, n)))
            assert exact_tv_small(proc) <= stein_chen_tv_bound(proc) + 1e-12

    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1.0, exclude_min=True),
                st.floats(1e-13, 1e-11),
                st.just(1.0),
            ),
            max_size=20,
        )
    )
    @example([1.0] * 20)
    @example([1e-12] * 20)
    @example([1.0, 1e-12, 0.5])
    @settings(max_examples=300, deadline=None)
    def test_matches_capped_reference(self, probs):
        # the positive part over {0..n} against half the L1 distance out to
        # a far cap plus the Poisson tail beyond it
        proc = DiscretizedFailureProcess(tuple(probs))
        assert exact_tv_small(proc) == pytest.approx(capped_exact_tv(proc), rel=0.0, abs=1e-14)

    @given(st.builds(mixed_probabilities, st.integers(21, 1000), st.integers(0, 2**32 - 1)))
    @example([0.9] * 1000)  # lambda = 900: exp(-lambda) alone underflows to 0
    @settings(max_examples=60, deadline=None)
    def test_matches_capped_reference_on_large_grids(self, probs):
        proc = DiscretizedFailureProcess(tuple(probs))
        exact = exact_tv_small(proc)
        assert exact == pytest.approx(capped_exact_tv(proc), rel=0.0, abs=1e-12)
        assert exact <= stein_chen_tv_bound(proc) + 1e-12
        assert float(poisson_binomial_pmf(probs).sum()) == pytest.approx(1.0, rel=0.0, abs=1e-12)

    def test_tv_from_trajectory_discretization(self):
        grid = [0.25 * k for k in range(1, 13)]
        proc = discretize(CONSTANT_HALF, grid)
        assert exact_tv_small(proc) <= stein_chen_tv_bound(proc)


class TestKsDistance:
    def test_single_sample_at_median(self):
        h = 0.7
        ks = ks_distance((math.log(2.0) / h,), PraModel(h, "given"))
        assert ks == pytest.approx(0.5, abs=1e-12)

    def test_single_sample_at_one(self):
        expected = max(math.exp(-1.0), 1.0 - math.exp(-1.0))
        assert ks_distance((1.0,), PraModel(1.0, "given")) == pytest.approx(expected, abs=1e-14)

    def test_sorted_construction_is_permutation_invariant(self):
        # the draws come in replicate order; ks_distance sorts a copy itself
        rng = np.random.default_rng(11)
        values = rng.uniform(0.1, 5.0, size=50)
        model = PraModel(0.8, "given")
        reference = ks_distance(np.sort(values), model)
        for _ in range(5):
            shuffled = rng.permutation(values)
            before = shuffled.copy()
            assert ks_distance(shuffled, model) == reference
            assert ks_distance(shuffled.tolist(), model) == reference
            assert np.array_equal(shuffled, before)

    @given(
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=200),
        st.floats(1e-2, 1e2),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_one_sample_oracle(self, times, rate):
        expected = one_sample_ks(sorted(times), lambda t: -math.expm1(-rate * t))
        ks = ks_distance(times, PraModel(rate, "given"))
        assert ks == pytest.approx(expected, rel=0.0, abs=1e-15)

    def test_matching_exponential_within_dkw(self):
        n = 20_000
        draws = sample_replicates(CONSTANT_HALF, n, seed=999)
        assert ks_distance(draws, PraModel(0.5, "given")) < dkw_epsilon(n)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^empirical distribution is empty$"):
            ks_distance((), PraModel(1.0, "given"))
        with pytest.raises(ValueError, match="^empirical distribution is empty$"):
            ks_distance(np.array([]), PraModel(1.0, "given"))

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_non_positive_or_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="^all failure times must be finite and positive$"):
            ks_distance((1.0, bad, 2.0), PraModel(1.0, "given"))
