"""Hazard calculus: evaluation, integration, inversion, recovery, MTTF."""

import dataclasses
import gc
import inspect
import math
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from oracles import (
    invert_one,
    periodic_linear_mttf,
    quad_cumulative_hazard,
    quad_mttf,
    recovered_hazard,
    scalar_invert_cumulative_hazard,
    scalar_invert_integral,
)
from riskcheck import hazard
from riskcheck.compare import default_time_grid
from riskcheck.hazard import (
    SEGMENT_FORMS,
    Constant,
    ExponentialGrowth,
    HazardSegment,
    HazardTrajectory,
    Linear,
    MaintenanceEpoch,
    Power,
    cumulative_hazard,
    failure_cdf,
    hazard_at,
    invert_cumulative_hazard_array,
    mean_time_to_failure,
    reliability,
    validate_trajectory,
)
from riskcheck.sampling import _exponentials, sample_replicates
from riskcheck.scenarios import (
    PeriodicPerfect,
    Scenario,
    build_trajectory,
    scenario_catalog,
)
from riskcheck.serialize import trajectory_hash
from trajgen import random_valid_trajectory

CONSTANT_HALF = HazardTrajectory((HazardSegment(0.0, Constant(0.5)),))
LINEAR_1_2 = HazardTrajectory((HazardSegment(0.0, Linear(1.0, 2.0)),))
WEIBULL_SHAPE = HazardTrajectory((HazardSegment(0.0, Linear(0.0, 2.0)),))  # h(t) = 2t

# Linear rise 0.1 + 0.05 t on [0, 10), maintenance at t=10 down to a flat 0.3.
SAWTOOTH_STEP = HazardTrajectory(
    (
        HazardSegment(0.0, Linear(0.1, 0.05)),
        HazardSegment(10.0, Constant(0.3)),
    ),
    (MaintenanceEpoch(10.0, 0.3),),
)


def periodic_sawtooth(period: float, horizon: float) -> HazardTrajectory:
    """Linear rise 0.1 + 0.05 u, renewed every ``period`` up to ``horizon``."""
    model = Linear(0.1, 0.05)
    return build_trajectory(Scenario("sawtooth", model, PeriodicPerfect(period), horizon))


class TestHazardAt:
    def test_constant(self):
        assert hazard_at(CONSTANT_HALF, 7.0) == 0.5

    def test_linear(self):
        assert hazard_at(LINEAR_1_2, 1.5) == 4.0

    def test_right_continuous_at_maintenance(self):
        assert hazard_at(SAWTOOTH_STEP, 10.0) == 0.3
        assert hazard_at(SAWTOOTH_STEP, 9.999) == pytest.approx(0.1 + 0.05 * 9.999, abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            hazard_at(CONSTANT_HALF, -0.1)


class TestCumulativeHazard:
    def test_constant(self):
        assert cumulative_hazard(CONSTANT_HALF, 2.0) == 1.0

    def test_zero_at_origin(self):
        assert cumulative_hazard(SAWTOOTH_STEP, 0.0) == 0.0
        assert cumulative_hazard(LINEAR_1_2, 0.0) == 0.0

    def test_linear_against_quadrature(self):
        # independent oracle gives 3.75 for intercept 1, slope 2 at t=1.5
        oracle = quad_cumulative_hazard(LINEAR_1_2, 1.5)
        assert oracle == pytest.approx(3.75, rel=1e-10)
        assert cumulative_hazard(LINEAR_1_2, 1.5) == pytest.approx(oracle, rel=1e-10)

    def test_across_maintenance_against_quadrature(self):
        value = cumulative_hazard(SAWTOOTH_STEP, 17.0)
        assert value == pytest.approx(quad_cumulative_hazard(SAWTOOTH_STEP, 17.0), rel=1e-10)

    def test_randomized_against_quadrature(self):
        rng = np.random.default_rng(20231)
        for _ in range(100):
            traj = random_valid_trajectory(rng)
            t = float(rng.uniform(0.0, traj.segments[-1].start_time + 8.0))
            closed = cumulative_hazard(traj, t)
            oracle = quad_cumulative_hazard(traj, t)
            assert closed == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    @given(st.integers(0, 10_000), st.floats(0.0, 40.0), st.floats(0.0, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_time(self, seed, a, b):
        traj = random_valid_trajectory(np.random.default_rng(seed))
        t1, t2 = sorted((a, b))
        assert cumulative_hazard(traj, t1) <= cumulative_hazard(traj, t2) + 1e-12

    @given(st.integers(0, 10_000), st.floats(0.0, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_dominates_initial_rate(self, seed, t):
        # h(0) * t <= integral of h over [0, t]
        traj = random_valid_trajectory(np.random.default_rng(seed))
        h0 = hazard_at(traj, 0.0)
        assert h0 * t <= cumulative_hazard(traj, t) * (1.0 + 1e-12) + 1e-12


class TestReliabilityAndCdf:
    def test_constant_matches_exponential(self):
        assert reliability(CONSTANT_HALF, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_one_at_origin(self):
        assert reliability(CONSTANT_HALF, 0.0) == 1.0
        assert failure_cdf(CONSTANT_HALF, 0.0) == 0.0

    def test_weibull_shape(self):
        # quadrature oracle: H(1) = 1 for h(t) = 2t
        assert quad_cumulative_hazard(WEIBULL_SHAPE, 1.0) == pytest.approx(1.0, rel=1e-10)
        assert reliability(WEIBULL_SHAPE, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_cdf_linear(self):
        # oracle H(1) = 2 -> F = 1 - exp(-2)
        assert failure_cdf(LINEAR_1_2, 1.0) == pytest.approx(0.8646647167633873, abs=1e-15)

    def test_cdf_is_one_minus_reliability(self):
        rng = np.random.default_rng(5)
        traj = random_valid_trajectory(rng)
        for t in (0.0, 0.3, 1.7, 9.2):
            assert failure_cdf(traj, t) == pytest.approx(1.0 - reliability(traj, t), abs=1e-15)

    def test_reliability_strictly_decreasing(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            traj = random_valid_trajectory(rng)
            grid = np.linspace(0.0, traj.segments[-1].start_time + 5.0, 40)
            values = [reliability(traj, t) for t in grid]
            assert all(b < a for a, b in zip(values, values[1:]) if a > 1e-300)


class TestInversion:
    @given(st.integers(0, 10_000), st.floats(1e-6, 25.0))
    @settings(max_examples=80, deadline=None)
    def test_inverts_cumulative_hazard(self, seed, target):
        traj = random_valid_trajectory(np.random.default_rng(seed))
        t = float(invert_cumulative_hazard_array(traj, [target])[0])
        assert cumulative_hazard(traj, t) == pytest.approx(target, abs=1e-9)

    def test_power_segment_with_a_nonzero_base(self):
        traj = HazardTrajectory((HazardSegment(0.0, Power(0.2, 0.3, 2.5)),))
        targets = (0.01, 1.0, 8.0, 30.0)
        for target, t in zip(targets, invert_cumulative_hazard_array(traj, targets).tolist()):
            assert cumulative_hazard(traj, t) == pytest.approx(target, rel=1e-14)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            invert_cumulative_hazard_array(CONSTANT_HALF, [-1.0])


class TestRecoveredHazard:
    def test_constant(self):
        assert recovered_hazard(CONSTANT_HALF, 3.0, 1e-4) == pytest.approx(0.5, abs=1e-6)

    def test_linear(self):
        assert recovered_hazard(LINEAR_1_2, 1.0, 1e-4) == pytest.approx(3.0, abs=1e-5)

    def test_refuses_at_maintenance_epoch(self):
        with pytest.raises(ValueError, match="boundary"):
            recovered_hazard(SAWTOOTH_STEP, 10.0, 1e-4)

    def test_refuses_adjacent_to_boundary(self):
        with pytest.raises(ValueError, match="boundary"):
            recovered_hazard(SAWTOOTH_STEP, 10.00005, 1e-4)

    def test_refuses_too_close_to_origin(self):
        with pytest.raises(ValueError, match="time zero"):
            recovered_hazard(CONSTANT_HALF, 1e-6, 1e-4)

    def test_agrees_with_hazard_at_random_points(self):
        # consistency check: 100 non-boundary points per trajectory, 1e-5 band
        rng = np.random.default_rng(314)
        dt = 1e-4
        for _ in range(10):
            traj = random_valid_trajectory(rng)
            starts = [seg.start_time for seg in traj.segments]
            top = starts[-1] + 4.0
            checked = 0
            while checked < 100:
                t = float(rng.uniform(2 * dt, top))
                if any(abs(t - b) <= 2 * dt for b in starts[1:]):
                    continue
                if cumulative_hazard(traj, t) > 600.0:  # survival underflows
                    continue
                assert recovered_hazard(traj, t, dt) == pytest.approx(
                    hazard_at(traj, t), abs=1e-5, rel=1e-5
                )
                checked += 1


class TestMeanTimeToFailure:
    def test_constant_is_reciprocal_rate(self):
        assert mean_time_to_failure(CONSTANT_HALF) == pytest.approx(2.0, abs=1e-9)

    def test_weibull_shape_matches_gaussian_integral(self):
        # int_0^inf exp(-t^2) dt = sqrt(pi)/2
        assert mean_time_to_failure(WEIBULL_SHAPE) == pytest.approx(
            math.sqrt(math.pi) / 2.0, abs=1e-6
        )

    def test_sawtooth_matches_quadrature_oracle(self):
        assert mean_time_to_failure(SAWTOOTH_STEP) == pytest.approx(
            quad_mttf(SAWTOOTH_STEP), abs=1e-8
        )

    def test_nonconstant_tail(self):
        traj = HazardTrajectory((HazardSegment(0.0, ExponentialGrowth(0.4, 0.3)),))
        assert mean_time_to_failure(traj) == pytest.approx(quad_mttf(traj), abs=1e-8)

    def test_thousand_cycle_sawtooth_matches_closed_form_oracle(self):
        traj = periodic_sawtooth(0.1, 100.0)
        cycles = len(traj.maintenance_epochs)
        assert cycles == len(traj.segments) - 1 >= 999
        assert mean_time_to_failure(traj) == pytest.approx(
            periodic_linear_mttf(0.1, 0.05, 0.1, cycles), abs=1e-8
        )

    def test_ten_thousand_cycle_sawtooth_matches_closed_form_oracle(self):
        traj = periodic_sawtooth(0.01, 100.0)
        cycles = len(traj.maintenance_epochs)
        assert cycles == len(traj.segments) - 1 >= 9_999
        assert mean_time_to_failure(traj) == pytest.approx(
            periodic_linear_mttf(0.1, 0.05, 0.01, cycles), abs=1e-8
        )

    @pytest.mark.parametrize("rate", [1.0, 1e300])
    @pytest.mark.parametrize("boundary", [1e5, 1e6])
    def test_boundary_far_past_the_decay(self, rate, boundary):
        # R(boundary) underflows long before the second (identical) segment
        traj = HazardTrajectory(
            (HazardSegment(0.0, Constant(rate)), HazardSegment(boundary, Constant(rate)))
        )
        assert mean_time_to_failure(traj) * rate == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("base", [1e-10, 1e-100, 1e-300])
    def test_tiny_start_then_fast_growth(self, base):
        # H rises through hundreds of orders of magnitude before it reaches
        # 1, all within what would otherwise be the first panel.  Closed
        # form: E[T] = exp(b) E1(b) for h = b exp(u).
        traj = HazardTrajectory((HazardSegment(0.0, ExponentialGrowth(base, 1.0)),))
        assert mean_time_to_failure(traj) == pytest.approx(
            math.exp(base) * special.exp1(base), rel=1e-12
        )

    @pytest.mark.parametrize("h0", [1e-20, 1e-300])
    def test_maintenance_restores_a_tiny_initial_hazard_past_the_cutoff(self, h0):
        # H reaches 50 by t = 1, past the cutoff 40; maintenance then
        # restores h(0), so the tail past H = 40 is about exp(-50)/h0 and
        # dominates.  E[T] = int_0^1 exp(-50 t^2) dt + exp(-50)/h0 up to
        # terms of relative order h0.
        traj = HazardTrajectory(
            (HazardSegment(0.0, Linear(h0, 100.0)), HazardSegment(1.0, Constant(h0))),
            (MaintenanceEpoch(1.0, h0),),
        )
        assert validate_trajectory(traj).valid
        expected = 0.5 * math.sqrt(math.pi / 50.0) * math.erf(math.sqrt(50.0))
        expected += math.exp(-50.0) / h0
        assert mean_time_to_failure(traj) == pytest.approx(expected, rel=1e-12)

    def test_inverts_every_level_in_one_call(self, monkeypatch):
        # a tiny h(0) under fast growth meets the tail bound only past
        # H = 40, yet every level time comes from the one batch
        sizes = []

        def spy(traj, targets):
            sizes.append(len(targets))
            return invert_cumulative_hazard_array(traj, targets)

        monkeypatch.setattr(hazard, "invert_cumulative_hazard_array", spy)
        traj = HazardTrajectory((HazardSegment(0.0, Linear(1e-6, 1.0)),))
        assert mean_time_to_failure(traj) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-5)
        assert sizes == [len(hazard._MTTF_LEVELS)] == [387]

    def test_overflowing_linear_inverse(self):
        traj = HazardTrajectory((HazardSegment(0.0, Linear(1e300, 1e300)),))
        assert mean_time_to_failure(traj) * 1e300 == pytest.approx(1.0, abs=1e-12)

    def test_mean_past_the_largest_float_is_inf(self):
        # H(t) = 1e-310 t stays below 0.25 at every float time; the mean,
        # 1e310, overflows
        traj = HazardTrajectory((HazardSegment(0.0, Constant(1e-310)),))
        assert mean_time_to_failure(traj) == math.inf

    @pytest.mark.parametrize("level", [1e-308, 1e-307])
    def test_level_time_past_the_largest_float(self, level):
        # a level of H is first reached past the largest float; the mean
        # 1/level is finite
        traj = HazardTrajectory((HazardSegment(0.0, Constant(level)),))
        assert mean_time_to_failure(traj) * level == pytest.approx(1.0, rel=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_quadrature_oracle(self, seed):
        traj = random_valid_trajectory(np.random.default_rng(seed))
        assert mean_time_to_failure(traj) == pytest.approx(quad_mttf(traj), rel=1e-9)


class TestGaussLegendreRule:
    """The 20-point Gauss-Legendre rule on [0, 1] that MTTF applies to each
    panel, held as constants."""

    NODES = tuple(x for x, _ in hazard._GAUSS_LEGENDRE)
    WEIGHTS = tuple(w for _, w in hazard._GAUSS_LEGENDRE)

    def test_weights_are_positive_and_sum_to_one(self):
        assert len(self.WEIGHTS) == 20 and min(self.WEIGHTS) > 0.0
        assert abs(math.fsum(self.WEIGHTS) - 1.0) <= 2 * math.ulp(1.0)

    def test_nodes_are_increasing_and_symmetric(self):
        assert 0.0 < self.NODES[0] and self.NODES[-1] < 1.0
        assert all(a < b for a, b in zip(self.NODES, self.NODES[1:]))
        for x, y in zip(self.NODES, reversed(self.NODES)):
            assert abs(x + y - 1.0) <= math.ulp(1.0)

    @pytest.mark.parametrize("k", range(40))
    def test_integrates_polynomials_to_degree_39(self, k):
        moment = math.fsum(w * x**k for x, w in hazard._GAUSS_LEGENDRE)
        assert abs(moment - 1.0 / (k + 1)) <= 1e-15

    def test_matches_numpy_legendre_rule(self):
        nodes, weights = np.polynomial.legendre.leggauss(20)
        reference = zip((0.5 * (1.0 + nodes)).tolist(), (0.5 * weights).tolist())
        for (x, w), (x_ref, w_ref) in zip(hazard._GAUSS_LEGENDRE, reference, strict=True):
            assert abs(x - x_ref) <= 4 * math.ulp(x_ref)
            assert abs(w - w_ref) <= 4 * math.ulp(w_ref)


class TestFormOverflow:
    """Kernels saturate to the signed infinity where exp or ** overflows, and
    keep their digits where it underflows inside a normal result."""

    @pytest.mark.parametrize(
        "form, u, value, integral",
        [
            (ExponentialGrowth(0.1, 1.0), 2000.0, math.inf, math.inf),
            (ExponentialGrowth(-0.1, 1.0), 2000.0, -math.inf, -math.inf),
            (Power(0.5, 2.0, 400.0), 10.0, math.inf, math.inf),
            (Power(0.5, -2.0, 400.0), 10.0, -math.inf, -math.inf),
            (Power(0.5, 0.0, 400.0), 10.0, 0.5, 5.0),
            # u**exponent is not integrable at 0 for exponent <= -1
            (Power(0.5, 1.0, -2.0), 1.0, 1.5, math.inf),
            (Power(0.5, -1.0, -1.0), 2.0, 0.0, -math.inf),
            (Power(0.5, 1.0, -1.0), 0.0, math.inf, 0.0),
        ],
    )
    def test_saturates(self, form, u, value, integral):
        assert form.value(u) == value
        assert form.integral(u) == integral

    @pytest.mark.parametrize(
        "form, u",
        [(ExponentialGrowth(1e-300, 1.0), 750.0), (ExponentialGrowth(1e-300, 1e300), 7.5e-298)],
    )
    def test_saturates_only_where_the_product_overflows(self, form, u):
        # exp(growth * u) = exp(750) overflows; the hazard and its area do not
        value = 1e-300 * math.exp(375.0) * math.exp(375.0)
        assert form.value(u) == pytest.approx(value, rel=1e-12)
        assert form.integral(u) == pytest.approx(value / form.growth, rel=1e-12)

    def test_power_saturates_only_where_the_product_overflows(self):
        # u**3 overflows past u = 5.6e102; with coefficient 1e-300 the
        # hazard and its area stay finite
        form = Power(1.0, 1e-300, 3.0)
        assert form.value(1e103) == pytest.approx(1e9 + 1.0, rel=1e-12)
        assert form.integral(2e100) == pytest.approx(6e100, rel=1e-12)

    def test_power_inverse_survives_an_overflowing_ratio(self):
        # (exponent + 1) * area / coefficient = 4e600 overflows; its fourth
        # root does not
        form = Power(0.0, 1e-300, 3.0)
        u = invert_one(form, 1e300)
        assert u == pytest.approx(math.sqrt(2.0) * 1e150, rel=1e-12)
        assert form.integral(u) == pytest.approx(1e300, rel=1e-12)
        # exponent -0.5: the root is the square of 5e199 and overflows itself
        assert invert_one(Power(0.0, 1.0, -0.5), 1e200) == math.inf

    def test_power_keeps_its_digits_where_the_power_of_u_underflows(self):
        # u**3.13 is about 1e-326, past the smallest float, while the area
        # term coefficient * u**3.13 / 3.13 is 3.6e-30, 1e11 times base * u
        form = Power(3.6633886071016536e63, 9.712677532473918e296, 2.133994121982634)
        assert form.integral(1e-104) == pytest.approx(3.5962684777795535e-30, rel=1e-15)
        # u**3 = 1e-330 underflows; the hazard, 1e-30, does not
        assert Power(0.0, 1e300, 3.0).value(1e-110) == pytest.approx(1.0000000000000002e-30, rel=1e-15)

    def test_exponential_is_its_constant_limit_where_growth_times_u_underflows(self):
        form = ExponentialGrowth(1e300, 1e-300)
        for u in (1e-302, 1e-20, 1e-9):
            assert form.integral(u) == Constant(1e300).integral(u)
            assert invert_one(form, form.integral(u)) == pytest.approx(u, rel=1e-15)
        assert form.integral(1e-302) == pytest.approx(0.01, rel=1e-15)

    @pytest.mark.parametrize(
        "form, area",
        [
            (Linear(1e300, 1e300), 40.0),  # intercept**2 overflows
            (Linear(1.0, 1e308), 40.0),  # slope * area overflows
            (ExponentialGrowth(1e-300, 1e10), 40.0),  # growth * area / base overflows
            (ExponentialGrowth(1e-300, 1e300), 2.0),
            (ExponentialGrowth(1.0, 1e300), 1e10),
        ],
    )
    def test_closed_form_inverse_survives_overflow(self, form, area):
        u = invert_one(form, area)
        assert 0.0 < u < math.inf
        assert form.integral(u) == pytest.approx(area, rel=1e-12)


# Parameters from 1e-3 to 1e300 in magnitude, and zero: wide enough to
# overflow every kernel, while intermediate ratios such as
# (level - base) / coefficient stay out of the subnormal range, where they
# would carry fewer than 16 significant digits.
MAGNITUDE = st.one_of(st.just(0.0), st.floats(1e-3, 1e300), st.floats(-1e300, -1e-3))
EXPONENT = st.one_of(
    st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(-3.0, 3.0)
)
ELAPSED = st.one_of(st.just(0.0), st.floats(1e-3, 1e300))
AREA = st.floats(0.0, sys.float_info.max)
FORMS = st.one_of(
    st.builds(Constant, MAGNITUDE),
    st.builds(Linear, MAGNITUDE, MAGNITUDE),
    st.builds(Power, MAGNITUDE, MAGNITUDE, EXPONENT),
    st.builds(ExponentialGrowth, MAGNITUDE, MAGNITUDE),
)


class TestFormProtocol:
    """Every segment form answers the whole protocol for any finite
    parameters, without raising."""

    @pytest.mark.parametrize("cls", SEGMENT_FORMS, ids=lambda cls: cls.__name__)
    def test_every_form_carries_the_protocol_under_its_names(self, cls):
        # Tools outside the library find form classes, and count their
        # kernels, by these names: a rename must fail here, not zero a count.
        for method in ("value", "integral", "invert_integral", "limit_at_infinity",
                       "time_to_reach", "decrease_reason"):
            assert callable(getattr(cls, method, None)), method
        assert isinstance(inspect.getattr_static(cls, "invert_integral"), staticmethod)
        assert [name for name in dir(cls) if name.startswith("invert")] == ["invert_integral"]
        assert isinstance(cls.name, str) and cls.name

    @given(FORMS, ELAPSED, st.one_of(MAGNITUDE, ELAPSED), st.data())
    @settings(max_examples=400, deadline=None)
    def test_kernels_never_raise_and_time_to_reach_inverts_value(self, form, u, level, data):
        form.value(u)
        form.integral(u)
        form.limit_at_infinity()
        form.decrease_reason()
        reached = form.value(data.draw(ELAPSED))
        for target in (level, reached):
            found = form.time_to_reach(target)
            assert found is None or type(found) is float
            if found is None or not math.isfinite(target):
                continue
            assert 0.0 <= found < math.inf and math.isfinite(form.value(found))
            # Relative to the larger of the level and the form's base; widened
            # by how much the value moves over one float step of the answer.
            scale = max(abs(target), abs(dataclasses.astuple(form)[0]))
            step = abs(form.value(math.nextafter(found, math.inf)) - form.value(found))
            assert abs(form.value(found) - target) <= 1e-9 * scale + step

    @given(FORMS, AREA)
    @example(Constant(0.0), 1.0)
    @example(Linear(-1.0, 1.0), 0.0)  # intercept + root is 0
    @example(Linear(1.0, -1.0), 1.0)  # the area peaks at 0.5
    @example(Power(1.0, -1.0, 2.0), 1.0)  # a negative (exponent + 1) * area / coefficient
    @example(Power(0.0, 1.8e297, 0.5), 5.7e-233)  # the root underflows to 0
    @example(Power(0.0, 1.0, -0.5), 1e200)  # the root overflows
    @example(ExponentialGrowth(0.0, 1.0), 1.0)
    @example(ExponentialGrowth(1.0, -1.0), 2.0)  # past the whole area, 1
    @settings(max_examples=300, deadline=None)
    def test_invert_integral_always_answers_a_float(self, form, area):
        # nan or inf where a hazard that is not positive has no root
        assert type(invert_one(form, area)) is float

    @given(
        st.floats(1e-3, 1e300),
        st.one_of(st.just(0.0), st.floats(1e-3, 1e300)),
        st.one_of(EXPONENT.filter(lambda e: e >= 1.0), st.floats(1.0, 100.0)),
        st.floats(1e-16, 1e300),
    )
    @example(1000.0, 1e300, 2.0, 0.28)  # the root is 9e-101
    @example(3.6633886071016536e63, 9.712677532473918e296, 2.133994121982634, 3.6e-30)
    @example(0.2, 0.02, 2.0, 1.4356332420208728)
    @settings(max_examples=300, deadline=None)
    def test_power_inverse_round_trip(self, base, coefficient, exponent, area):
        form = Power(base, coefficient, exponent)
        u = invert_one(form, area)
        assert 0.0 < u < math.inf
        # Relative to the area, widened by how much the area moves over one
        # float step of the answer.
        step = form.integral(math.nextafter(u, math.inf)) - form.integral(u)
        assert abs(form.integral(u) - area) <= 1e-14 * area + step

    @given(FORMS, MAGNITUDE)
    @settings(max_examples=400, deadline=None)
    def test_level_behind_the_start_is_never_reached(self, form, level):
        # Every form is monotone, so a level past its start value, on the
        # side it moves away from, is unreachable.
        start, later = form.value(0.0), form.value(1.0)
        if not math.isfinite(start) or later == start:
            return
        if (later > start and level < start) or (later < start and level > start):
            assert form.time_to_reach(level) is None

    @given(FORMS, ELAPSED)
    @example(ExponentialGrowth(-0.1, 1.0), 1.0)
    @example(ExponentialGrowth(0.0, 1e16), 1e300)  # growth * u overflows to inf
    @settings(max_examples=400, deadline=None)
    def test_no_decrease_reason_means_never_below_the_start(self, form, u):
        if form.decrease_reason() is not None:
            return
        start = form.value(0.0)
        assert form.value(u) >= start
        assert form.limit_at_infinity() >= start

    @pytest.mark.parametrize(
        "form, expected",
        [
            (ExponentialGrowth(0.1, 1.0), math.inf),
            (ExponentialGrowth(-0.1, 1.0), -math.inf),
            (ExponentialGrowth(0.1, -1.0), 0.0),
            (ExponentialGrowth(-0.1, -1.0), 0.0),
            (ExponentialGrowth(-0.1, 0.0), -0.1),
            (ExponentialGrowth(0.0, 1.0), 0.0),
        ],
        ids=["grows", "falls", "decays", "rises", "flat", "zero"],
    )
    def test_exponential_limit_follows_the_sign_of_base(self, form, expected):
        assert form.limit_at_infinity() == expected

    @pytest.mark.parametrize(
        "form, level, expected",
        [
            (Constant(2.0), 2.0, 0.0),
            (Linear(1.0, -0.1), 0.0, 10.0),
            (Power(1.0, -0.5, 2.0), 0.0, math.sqrt(2.0)),
            (Power(0.2, 0.02, 2.0), 0.7, 5.0),
            (ExponentialGrowth(0.1, 0.5), 0.3, math.log(3.0) / 0.5),
            # a negative ratio, whose fractional power would be complex
            (Power(0.5, 1.0, 0.5), 0.25, None),
            # only approached in the limit
            (Power(0.5, 1.0, -1.0), 0.5, None),
            (ExponentialGrowth(1.0, -1.0), 0.0, None),
            # beyond the largest float
            (Linear(1e300, -1e-300), 0.0, None),
        ],
    )
    def test_time_to_reach_examples(self, form, level, expected):
        assert form.time_to_reach(level) == pytest.approx(expected, rel=1e-15)


def rescaled(traj: HazardTrajectory, c: float) -> HazardTrajectory:
    """The trajectory of hazard h(t / c) / c: the same system with time in a
    unit 1/c times as long, so its failure time is c T."""

    def form(f):
        if isinstance(f, Constant):
            return Constant(f.level / c)
        if isinstance(f, Linear):
            return Linear(f.intercept / c, f.slope / c / c)
        if isinstance(f, Power):
            # The antiderivative's exponent, not exponent + 1 in reals: q has
            # rounded, and c**q moves by |log c| ulp with it.
            q = f.exponent + 1.0
            return Power(f.base / c, f.coefficient / c ** (q / 2.0) / c ** (q / 2.0), f.exponent)
        return ExponentialGrowth(f.base / c, f.growth / c)

    return HazardTrajectory(
        tuple(HazardSegment(c * seg.start_time, form(seg.form)) for seg in traj.segments),
        tuple(MaintenanceEpoch(c * e.time, e.post_hazard / c) for e in traj.maintenance_epochs),
    )


TIME_SCALES = (1e-90, 1e-30, 1e30, 1e90)


def rescalings(traj: HazardTrajectory):
    """(c, h(t / c) / c) for each c in TIME_SCALES where that hazard has a
    float form: none of its coefficients left the normal range."""
    for c in TIME_SCALES:
        scaled = rescaled(traj, c)
        pairs = [
            pair
            for seg, new in zip(traj.segments, scaled.segments)
            for pair in zip(dataclasses.astuple(seg.form), dataclasses.astuple(new.form))
        ]
        if all(p == 0.0 or sys.float_info.min <= abs(q) < math.inf for p, q in pairs):
            yield c, scaled


class TestTimeScaleInvariance:
    """Draws, the mean and the CDF do not depend on the time unit: h(t / c) / c
    gives c T, c E[T] and F(c t), to rounding."""

    @staticmethod
    def check(traj, n, seed):
        draws, mean = sample_replicates(traj, n, seed), mean_time_to_failure(traj)
        grid = default_time_grid(traj)
        for c, scaled in rescalings(traj):
            np.testing.assert_allclose(sample_replicates(scaled, n, seed), c * draws, rtol=1e-14, atol=0.0)
            assert mean_time_to_failure(scaled) == pytest.approx(c * mean, rel=1e-14, abs=0.0)
            for t in grid:
                assert failure_cdf(scaled, c * t) == pytest.approx(failure_cdf(traj, t), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("scenario", scenario_catalog(), ids=lambda s: s.label)
    def test_catalog(self, scenario):
        self.check(build_trajectory(scenario), 500, 17)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_generated(self, seed):
        self.check(random_valid_trajectory(np.random.default_rng(seed)), 100, seed)


# Four ulp relative: the stop of Power's Newton, and room for the ulp by
# which numpy's power, exp, log and log1p may differ from math's.
FOUR_ULP = 4.0 * 2.0**-52

# Forms whose inverse overflows, underflows or leaves the normal range
# somewhere between the areas below (from TestFormOverflow).
EXTREME_FORMS = [
    Linear(1e300, 1e300),
    Linear(1.0, 1e308),
    Linear(1e-300, 1e-300),
    Power(0.0, 1e-300, 3.0),
    Power(0.0, 1.0, -0.5),
    Power(1.0, 1e-300, 3.0),
    Power(1000.0, 1e300, 2.0),
    Power(3.6633886071016536e63, 9.712677532473918e296, 2.133994121982634),
    Power(0.5, 2.0, 400.0),
    ExponentialGrowth(1e-300, 1e10),
    ExponentialGrowth(1e-300, 1e300),
    ExponentialGrowth(1.0, 1e300),
    ExponentialGrowth(1e300, 1e-300),
    ExponentialGrowth(0.1, 1.0),
]
AREAS = [0.0, 5e-324, 1e-300, 1e-30, 1e-3, 0.28, 1.0, 40.0, 1e10, 1e300, sys.float_info.max]


def inverse_without_warnings(form, areas) -> np.ndarray:
    """``form``'s inverse at each area as a batch of one, with numpy
    warnings raised as errors; the same areas as one batch on a one-segment
    trajectory must give the same bits (plus its start, 0)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = invert_cumulative_hazard_array(HazardTrajectory((HazardSegment(0.0, form),)), areas)
        single = np.array([invert_one(form, a) for a in areas])
    assert np.array_equal(batch, 0.0 + single, equal_nan=True)
    return single


class TestArrayInverse:
    """The array inverse matches the scalar per-form reference (the library's
    earlier inverse, in ``math``) lane for lane, and inverts H."""

    @staticmethod
    def check(traj, n, seed):
        targets = _exponentials(np.random.Philox(key=seed).random_raw(n)).tolist()
        draws = sample_replicates(traj, n, seed)
        reference = [scalar_invert_cumulative_hazard(traj, e) for e in targets]
        np.testing.assert_allclose(draws, reference, rtol=FOUR_ULP, atol=0.0)
        for t, e in zip(draws.tolist(), targets):
            # relative to E, widened by how much H moves over one float step of T
            step = cumulative_hazard(traj, math.nextafter(t, math.inf)) - cumulative_hazard(traj, t)
            assert abs(cumulative_hazard(traj, t) - e) <= 1e-14 * e + step

    @pytest.mark.parametrize("scenario", scenario_catalog(), ids=lambda s: s.label)
    def test_catalog_at_every_time_scale(self, scenario):
        traj = build_trajectory(scenario)
        self.check(traj, 500, 17)
        for _, scaled in rescalings(traj):
            self.check(scaled, 500, 17)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_generated_at_every_time_scale(self, seed):
        traj = random_valid_trajectory(np.random.default_rng(seed))
        self.check(traj, 100, seed)
        for _, scaled in rescalings(traj):
            self.check(scaled, 100, seed)

    @pytest.mark.parametrize("form", EXTREME_FORMS, ids=repr)
    def test_extreme_forms(self, form):
        reference = [scalar_invert_integral(form, a) for a in AREAS]
        u = inverse_without_warnings(form, AREAS)
        np.testing.assert_allclose(u, reference, rtol=FOUR_ULP, atol=0.0)

    @given(FORMS, st.lists(AREA, min_size=1, max_size=8))
    @example(Constant(0.0), [0.0, 1.0])
    @example(Linear(-1.0, 1.0), [0.0])  # intercept + root is 0
    @example(Linear(1.0, -1.0), [0.25, 1.0])  # the area peaks at 0.5
    @example(Linear(1e200, -1e300), [1e300])  # a nan radicand
    @example(Power(1.0, -1.0, 2.0), [1.0])  # a negative (exponent + 1) * area / coefficient
    @example(Power(1.0, 1.0, -2.0), [1.0])  # the area from 0 diverges
    @example(Power(0.0, 1.8e297, 0.5), [5.7e-233])  # the root underflows to 0
    @example(Power(0.0, 1.0, -0.5), [1e200])  # the root overflows
    @example(Power(0.0, 1e300, 2.0), [5e-324, 1e-300])  # the ratio underflows
    @example(Power(1.0, 1e300, 2.0), [5e-324, 1e-300])
    @example(Power(1.0, 1e-300, 2.0), [1e300])  # the ratio overflows
    # A negative exponent with a nonzero base: a step that does not halve
    # while no iterate lies above the root must not bisect toward inf.
    @example(Power(1.0, 1.0277740865694584e16, -0.9890703042199349), [1.0277740865694602e16])
    @example(Power(1.0, 1.0, 0.53125), [1.7976931348622758e308])  # a finite root near overflow
    @example(ExponentialGrowth(0.0, 1.0), [1.0])
    @example(ExponentialGrowth(1.0, -1.0), [0.5, 1.0, 2.0])  # past the whole area, 1
    @example(ExponentialGrowth(1.0, -1e300), [1e10])  # the ratio is -inf
    @settings(max_examples=300, deadline=None)
    def test_every_edge_takes_the_reference_branch(self, form, areas):
        # The same branch as the reference: nan, inf, 0 and sign where it has
        # them.  Finite answers are compared loosely here, since a log form
        # amplifies an ulp of log(area) into many ulp of the root; the
        # 4-ulp match is checked on the trajectories and forms above.
        u = inverse_without_warnings(form, areas)
        reference = np.array([scalar_invert_integral(form, a) for a in areas])
        np.testing.assert_allclose(u, reference, rtol=1e-9, atol=0.0)
        assert np.array_equal(np.signbit(u), np.signbit(reference))

    @pytest.mark.parametrize(
        "form, area",
        [
            # The start lies 140 ulp below the root, where the computed area
            # is flat until it overflows.
            (Power(1.0, 1.0, 0.53125), 1.7976931348622758e308),
            (Power(1.0, 1.0277740865694584e16, -0.9890703042199349), 1.0277740865694602e16),
            (Power(0.2, 0.02, 2.0), 1.4356332420208728),  # a long-inverse draw
        ],
        ids=repr,
    )
    def test_newton_takes_at_most_eight_steps(self, form, area, monkeypatch):
        steps = []
        original = hazard._newton_step

        def spy(*args):
            steps.append(args[4].size)
            return original(*args)

        monkeypatch.setattr(hazard, "_newton_step", spy)
        u = invert_one(form, area)
        assert len(steps) <= 8
        assert u == pytest.approx(scalar_invert_integral(form, area), rel=1e-12, abs=0.0)


class FloatSubclass(float):
    def __repr__(self):
        return "FloatSubclass()"


# Each class with its float fields, built from a tuple of their values.
FLOAT_FIELDS = {
    Constant: lambda v: Constant(*v),
    Linear: lambda v: Linear(*v),
    Power: lambda v: Power(*v),
    ExponentialGrowth: lambda v: ExponentialGrowth(*v),
    HazardSegment: lambda v: HazardSegment(*v, Linear(0.5, 0.25)),
    MaintenanceEpoch: lambda v: MaintenanceEpoch(*v),
}
# The values each argument type is tried with, and the floats they stand for.
ARGUMENTS = {
    "int": ((2, 3, 1), (2.0, 3.0, 1.0)),
    "bool": ((True, False, True), (1.0, 0.0, 1.0)),
    "np.float64": ((np.float64(0.1), np.float64(-0.0), np.float64(2.5)), (0.1, -0.0, 2.5)),
    "float subclass": ((FloatSubclass(0.3), FloatSubclass(1e-5), FloatSubclass(1e16)), (0.3, 1e-5, 1e16)),
    "mixed": ((0.5, 3, np.float64(2.0)), (0.5, 3.0, 2.0)),
}


class TestConstructors:
    """Every float field holds an exact float, whatever number type built it."""

    @pytest.mark.parametrize("cls", FLOAT_FIELDS, ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("kind", ARGUMENTS)
    def test_fields_are_exact_floats(self, cls, kind):
        given_values, floats = ARGUMENTS[kind]
        names = [f.name for f in dataclasses.fields(cls) if f.name != "form"]
        built, plain = (FLOAT_FIELDS[cls](v[: len(names)]) for v in (given_values, floats))
        for name in names:
            assert type(getattr(built, name)) is float
        assert dataclasses.astuple(built) == dataclasses.astuple(plain)
        assert built == plain and hash(built) == hash(plain) and repr(built) == repr(plain)

    @pytest.mark.parametrize("kind", ARGUMENTS)
    def test_same_trajectory_hash(self, kind):
        def trajectory(v):
            a, b, c = v
            forms = (Constant(a), Linear(a, b), Power(a, b, c), ExponentialGrowth(a, c))
            return HazardTrajectory(
                tuple(HazardSegment(k * c, form) for k, form in enumerate(forms)),
                (MaintenanceEpoch(c, b), MaintenanceEpoch(2 * c, a)),
            )

        given_values, floats = ARGUMENTS[kind]
        assert trajectory_hash(trajectory(given_values)) == trajectory_hash(trajectory(floats))


class TestCompiledProfile:
    """The segment profile is compiled once per trajectory object, lives
    only as long as that object, and makes each lookup O(log segments)."""

    def test_does_not_pin_the_trajectory(self):
        traj = periodic_sawtooth(1.0, 30.0)
        cumulative_hazard(traj, 12.5)
        ref = weakref.ref(traj)
        del traj
        gc.collect()
        assert ref() is None

    def test_equal_objects_evaluate_identically_and_stay_equal(self):
        a = periodic_sawtooth(1.0, 30.0)
        b = periodic_sawtooth(1.0, 30.0)
        assert a is not b
        before = (a == b, hash(a), hash(b), repr(a), dataclasses.fields(a), trajectory_hash(a))
        times = np.linspace(0.0, 40.0, 97)
        for t in times:
            assert hazard_at(a, t) == hazard_at(b, t)
            assert cumulative_hazard(a, t) == cumulative_hazard(b, t)
        inverse = invert_cumulative_hazard_array
        assert np.array_equal(inverse(a, times), inverse(b, times))
        after = (a == b, hash(a), hash(b), repr(a), dataclasses.fields(a), trajectory_hash(a))
        assert before == after
        assert after[0] and after[1] == after[2]
        assert trajectory_hash(b) == after[5]

    def test_one_form_call_per_lookup(self, monkeypatch):
        traj = periodic_sawtooth(0.1, 1000.0)
        assert len(traj.segments) >= 10_000
        cumulative_hazard(traj, 0.0)  # compiles the profile
        calls = dict.fromkeys(["value", "integral", "__hash__", "__eq__"], 0)

        def count(cls, name):
            original = getattr(cls, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(cls, name, wrapper)

        count(Linear, "value")
        count(Linear, "integral")
        # A lookup keyed on the whole trajectory would hash or compare
        # every segment.
        count(HazardSegment, "__hash__")
        count(HazardSegment, "__eq__")
        cumulative_hazard(traj, 777.77)
        assert calls == {"value": 0, "integral": 1, "__hash__": 0, "__eq__": 0}
        hazard_at(traj, 777.77)
        assert calls == {"value": 1, "integral": 1, "__hash__": 0, "__eq__": 0}

    def test_one_kernel_call_per_batch(self, monkeypatch):
        # A batch does not loop over the segments its draws hit.
        traj = periodic_sawtooth(0.1, 1000.0)
        assert len(traj.segments) >= 10_000
        invert_cumulative_hazard_array(traj, [1.0])  # compiles the profile and its columns
        calls = dict.fromkeys(["invert_integral", "value", "integral"], 0)
        for name in calls:
            original = getattr(Linear, name)

            def wrapper(*args, original=original, name=name):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(Linear, name, wrapper)
        draws = sample_replicates(traj, 10_000, 9)
        assert calls == {"invert_integral": 1, "value": 0, "integral": 0}
        starts = [seg.start_time for seg in traj.segments]
        assert np.unique(np.searchsorted(starts, draws, side="right")).size > 500
