"""Scenario compilation: policies, epochs, catalog."""

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import dkw_epsilon, one_sample_ks, quad_mttf
from riskcheck import scenarios
from riskcheck.hazard import (
    Constant,
    ExponentialGrowth,
    Linear,
    Power,
    failure_cdf,
    hazard_at,
    mean_time_to_failure,
    validate_trajectory,
)
from riskcheck.sampling import sample_replicates
from riskcheck.scenarios import (
    PeriodicImperfect,
    PeriodicPerfect,
    Scenario,
    ThresholdPerfect,
    build_trajectory,
    scenario_catalog,
)
from riskcheck.serialize import trajectory_hash


def _scenario(model, policy, horizon=30.0, label="test"):
    return Scenario(label=label, model=model, policy=policy, horizon=horizon)


# name -> (scenario whose hazard overflows before a scheduled epoch, that epoch)
OVERFLOW_BEFORE_EPOCH = {
    "power-perfect": (_scenario(Power(0.1, 1.0, 400.0), PeriodicPerfect(10.0)), 10.0),
    "exponential-imperfect": (
        _scenario(ExponentialGrowth(0.1, 100.0), PeriodicImperfect(10.0, 0.5)),
        10.0,
    ),
    "linear-perfect": (_scenario(Linear(0.1, 1e300), PeriodicPerfect(1e10), horizon=3e10), 1e10),
    # the first threshold step, 1.0, leaves the value at the base, so the
    # first epoch is a skipped no-op and the second finds the overflow
    "power-threshold": (
        _scenario(Power(1e20, 0.0537, 1.7e308), ThresholdPerfect(3.6e20), horizon=8.4),
        2.0,
    ),
}

# Concave growth between threshold repairs: 0.1 + 0.5 sqrt(u) reaches the
# trigger 0.6 at u = 1, so the 30 epochs fall at t = 1, 2, ..., 30.
CONCAVE_THRESHOLD = _scenario(Power(0.1, 0.5, 0.5), ThresholdPerfect(0.6), label="concave-threshold")

# The threshold step rounds to 1.0, where h0 + 0.0537 * u**1.7e308 is still
# h0, so the epoch there would be a no-op; past it the hazard is inf from
# about t = 1.000000000000001 on.  The message names the skipped epoch.
SKIPPED_THRESHOLD_EPOCH = (
    _scenario(Power(1e20, 0.0537, 1.7e308), ThresholdPerfect(3.6e20), horizon=1.5),
    "threshold step 1.0 leaves the hazard at 1e+20 at the maintenance epoch at t=1.0",
)


class TestPeriodicPerfect:
    def test_epochs_and_resets(self):
        traj = build_trajectory(
            _scenario(Linear(0.1, 0.05), PeriodicPerfect(10.0))
        )
        assert [e.time for e in traj.maintenance_epochs] == [10.0, 20.0, 30.0]
        assert all(e.post_hazard == 0.1 for e in traj.maintenance_epochs)
        # left limits just before each epoch reach 0.1 + 0.05 * 10 = 0.6
        for e in traj.maintenance_epochs:
            assert hazard_at(traj, e.time - 1e-9) == pytest.approx(0.6, abs=1e-9)
            assert hazard_at(traj, e.time) == 0.1

    def test_epoch_at_exact_horizon_included(self):
        traj = build_trajectory(
            _scenario(Linear(0.1, 0.05), PeriodicPerfect(15.0))
        )
        assert [e.time for e in traj.maintenance_epochs] == [15.0, 30.0]

    def test_zero_growth_emits_no_epochs(self):
        traj = build_trajectory(
            _scenario(Linear(0.5, 0.0), PeriodicPerfect(10.0))
        )
        assert traj.maintenance_epochs == ()
        assert len(traj.segments) == 1
        for t in (0.0, 7.0, 25.0, 300.0):
            assert hazard_at(traj, t) == 0.5

    def test_last_cycle_extends_past_horizon(self):
        traj = build_trajectory(
            _scenario(Linear(0.1, 0.05), PeriodicPerfect(10.0))
        )
        # beyond the horizon the final cycle keeps degrading, no more epochs
        assert hazard_at(traj, 45.0) == pytest.approx(0.1 + 0.05 * 15.0)


class TestPeriodicImperfect:
    def test_first_post_value(self):
        traj = build_trajectory(
            _scenario(Linear(0.1, 0.05), PeriodicImperfect(10.0, 0.5))
        )
        # pre-epoch hazard 0.6, improvement 0.5: post = 0.1 + 0.5 * 0.5 = 0.35
        assert traj.maintenance_epochs[0].post_hazard == pytest.approx(0.35, abs=1e-15)

    def test_posts_increase_and_stay_above_h0(self):
        traj = build_trajectory(
            _scenario(
                Linear(0.1, 0.05), PeriodicImperfect(10.0, 0.5), horizon=80.0
            )
        )
        posts = [e.post_hazard for e in traj.maintenance_epochs]
        assert len(posts) >= 4
        assert all(b > a for a, b in zip(posts, posts[1:]))
        assert all(p > 0.1 for p in posts)
        # direct evaluation of the recursion d_k = (1 - rho)(d_{k-1} + slope * tau)
        d = 0.0
        for post in posts:
            d = 0.5 * (d + 0.05 * 10.0)
            assert post == pytest.approx(0.1 + d, abs=1e-12)

    def test_full_improvement_reduces_to_perfect(self):
        imperfect = build_trajectory(
            _scenario(Linear(0.1, 0.05), PeriodicImperfect(10.0, 1.0))
        )
        perfect = build_trajectory(
            _scenario(Linear(0.1, 0.05), PeriodicPerfect(10.0))
        )
        assert imperfect == perfect

    def test_integer_parameters_compile_as_their_floats(self):
        # An integer period gives integer epoch times; the trajectory holds floats.
        given = build_trajectory(_scenario(Linear(1, 1), PeriodicImperfect(3, 0.5), horizon=40))
        floats = build_trajectory(_scenario(Linear(1.0, 1.0), PeriodicImperfect(3.0, 0.5), horizon=40.0))
        assert trajectory_hash(given) == trajectory_hash(floats)
        assert given == floats and repr(given) == repr(floats)

    @pytest.mark.parametrize(
        "policy, float_policy",
        [
            (PeriodicImperfect(np.float64(3.0), np.float64(0.5)), PeriodicImperfect(3.0, 0.5)),
            (ThresholdPerfect(np.float64(4.0)), ThresholdPerfect(4.0)),
        ],
        ids=["periodic-imperfect", "threshold-perfect"],
    )
    def test_numpy_parameters_compile_as_their_floats(self, policy, float_policy):
        # A numpy scalar in the policy must not reach the trajectory: the
        # canonical JSON spells a float by its repr.
        given = build_trajectory(_scenario(Linear(1.0, 1.0), policy, horizon=40.0))
        floats = build_trajectory(_scenario(Linear(1.0, 1.0), float_policy, horizon=40.0))
        assert trajectory_hash(given) == trajectory_hash(floats)
        assert given == floats and repr(given) == repr(floats) and hash(given) == hash(floats)
        assert {type(e.post_hazard) for e in given.maintenance_epochs} == {float}


class TestThresholdPerfect:
    def test_first_epoch_from_root_oracle(self):
        traj = build_trajectory(
            _scenario(Linear(0.1, 0.05), ThresholdPerfect(0.3))
        )
        oracle = brentq(lambda t: 0.1 + 0.05 * t - 0.3, 0.0, 50.0)
        assert traj.maintenance_epochs[0].time == pytest.approx(oracle, abs=1e-10)
        assert traj.maintenance_epochs[0].time == pytest.approx(4.0, abs=1e-12)

    def test_hazard_capped_at_trigger(self):
        trigger = 0.7
        traj = build_trajectory(
            _scenario(Power(0.2, 0.02, 2.0), ThresholdPerfect(trigger), horizon=20.0)
        )
        assert len(traj.maintenance_epochs) >= 2
        for t in np.linspace(0.0, 20.0, 801):
            assert hazard_at(traj, float(t)) <= trigger + 1e-9

    def test_unreachable_threshold_gives_no_epochs(self):
        traj = build_trajectory(
            _scenario(Linear(0.2, 0.0), ThresholdPerfect(0.9))
        )
        assert traj.maintenance_epochs == ()

    def test_exponential_growth_crossing(self):
        traj = build_trajectory(
            _scenario(ExponentialGrowth(0.2, 0.1), ThresholdPerfect(0.5), horizon=40.0)
        )
        oracle = brentq(lambda t: 0.2 * np.exp(0.1 * t) - 0.5, 0.0, 40.0)
        assert traj.maintenance_epochs[0].time == pytest.approx(oracle, abs=1e-9)


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "model,policy",
        [
            (Linear(0.0, 0.1), PeriodicPerfect(10.0)),
            (Linear(-0.1, 0.1), PeriodicPerfect(10.0)),
            (Linear(0.1, -0.1), PeriodicPerfect(10.0)),
            (Power(0.1, 0.1, 0.0), PeriodicPerfect(10.0)),  # starts at 0.2, not h0
            (Power(0.1, 0.1, -0.5), PeriodicPerfect(10.0)),  # starts at inf, not h0
            (Linear(0.1, 0.1), PeriodicPerfect(0.0)),
            (Linear(0.1, 0.1), PeriodicImperfect(10.0, 0.0)),
            (Linear(0.1, 0.1), PeriodicImperfect(10.0, 1.5)),
            (Linear(0.1, 0.1), ThresholdPerfect(0.1)),
        ],
    )
    def test_bad_parameters_rejected(self, model, policy):
        with pytest.raises(ValueError):
            build_trajectory(_scenario(model, policy))

    @pytest.mark.parametrize("model", [Power(0.1, 0.1, 0.5), Power(0.1, 0.0, 0.5)], ids=["concave", "flat"])
    def test_power_models_below_exponent_one_compile(self, model):
        assert validate_trajectory(build_trajectory(_scenario(model, PeriodicPerfect(10.0)))).valid

    def test_epoch_count_capped(self, monkeypatch):
        monkeypatch.setattr(scenarios, "MAX_EPOCHS", 10)
        model = Linear(0.1, 0.1)
        # the threshold step is 1.0 here, like the period: h0 0.1 reaches 0.2
        for policy in (PeriodicPerfect(1.0), ThresholdPerfect(0.2)):
            traj = build_trajectory(_scenario(model, policy, horizon=10.5))
            assert len(traj.maintenance_epochs) == 10
            with pytest.raises(ValueError, match="MAX_EPOCHS"):
                build_trajectory(_scenario(model, policy, horizon=11.0))

    @pytest.mark.parametrize(
        "model,policy",
        [
            (Linear(0.1, 1e300), ThresholdPerfect(0.3)),
            (Linear(1e-300, 1e300), ThresholdPerfect(2e-300)),
            (Linear(0.1, 0.0), PeriodicPerfect(1e-300)),
            (Linear(0.1, 0.05), PeriodicImperfect(1e-300, 0.5)),
        ],
        ids=["threshold", "threshold-step-underflows", "periodic-flat", "periodic-imperfect"],
    )
    def test_tiny_steps_rejected(self, model, policy):
        with pytest.raises(ValueError, match="MAX_EPOCHS"):
            build_trajectory(_scenario(model, policy, horizon=10.0))

    @pytest.mark.parametrize(
        "scenario, epoch", OVERFLOW_BEFORE_EPOCH.values(), ids=OVERFLOW_BEFORE_EPOCH.keys()
    )
    def test_overflow_before_an_epoch_rejected(self, scenario, epoch):
        # the epoch was skipped as if nothing had degraded
        message = f"hazard overflows to inf before the maintenance epoch at t={epoch!r}"
        with pytest.raises(ValueError) as info:
            build_trajectory(scenario)
        assert str(info.value) == message

    def test_skipped_threshold_epoch_rejected(self):
        scenario, message = SKIPPED_THRESHOLD_EPOCH
        with pytest.raises(ValueError) as info:
            build_trajectory(scenario)
        assert str(info.value) == message

    def test_overflow_past_the_horizon_allowed(self):
        scenario, _ = OVERFLOW_BEFORE_EPOCH["power-perfect"]
        traj = build_trajectory(_scenario(scenario.model, PeriodicPerfect(10.0), horizon=9.0))
        assert traj.maintenance_epochs == ()
        assert hazard_at(traj, 15.0) == float("inf")

    def test_constant_model_is_not_a_growth_form(self):
        with pytest.raises(ValueError, match="^unknown growth form Constant$"):
            build_trajectory(_scenario(Constant(0.1), PeriodicPerfect(10.0)))

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            build_trajectory(
                _scenario(Linear(0.1, 0.1), PeriodicPerfect(5.0), horizon=0.0)
            )

    def test_randomized_scenarios_build_valid(self):
        rng = np.random.default_rng(505)
        growths = (
            lambda h0: Linear(h0, float(rng.uniform(0.0, 0.3))),
            lambda h0: Power(h0, float(rng.uniform(0.0, 0.2)), float(rng.uniform(1.0, 3.0))),
            lambda h0: ExponentialGrowth(h0, float(rng.uniform(0.0, 0.3))),
        )
        for k in range(60):
            h0 = float(rng.uniform(0.05, 1.0))
            model = growths[k % 3](h0)
            policy_kind = k % 4
            if policy_kind == 0:
                policy = PeriodicPerfect(float(rng.uniform(1.0, 15.0)))
            elif policy_kind == 1:
                policy = PeriodicImperfect(float(rng.uniform(1.0, 15.0)), float(rng.uniform(0.1, 1.0)))
            elif policy_kind == 2:
                policy = ThresholdPerfect(h0 + float(rng.uniform(0.1, 2.0)))
            else:
                policy = PeriodicPerfect(float(rng.uniform(20.0, 100.0)))
            traj = build_trajectory(
                _scenario(model, policy, horizon=float(rng.uniform(5.0, 60.0)))
            )
            assert validate_trajectory(traj).valid

    def test_perfect_resets_make_h0_the_infimum(self):
        traj = build_trajectory(
            _scenario(Linear(0.1, 0.05), PeriodicPerfect(10.0))
        )
        assert all(e.post_hazard == 0.1 for e in traj.maintenance_epochs)
        grid = np.linspace(0.0, 35.0, 1401)
        assert min(hazard_at(traj, float(t)) for t in grid) >= 0.1


class TestConcavePowerScenario:
    """A concave power model compiles to a valid trajectory whose MTTF and
    draws match independent oracles."""

    @pytest.fixture(scope="class")
    def traj(self):
        return build_trajectory(CONCAVE_THRESHOLD)

    def test_compiles_valid(self, traj):
        assert validate_trajectory(traj).valid
        assert [e.time for e in traj.maintenance_epochs] == [float(k) for k in range(1, 31)]

    def test_mttf_matches_quadrature(self, traj):
        # h rises like sqrt(u) from each segment start, where the MTTF rule
        # needs panels halved toward the start to keep its digits.
        assert mean_time_to_failure(traj) == pytest.approx(quad_mttf(traj), rel=1e-9)

    def test_draws_within_dkw_band(self, traj):
        n = 10_000
        draws = np.sort(sample_replicates(traj, n, seed=1729))
        assert one_sample_ks(draws, lambda t: failure_cdf(traj, float(t))) < dkw_epsilon(n)


class TestCatalog:
    def test_size_and_labels(self):
        catalog = scenario_catalog()
        labels = [s.label for s in catalog]
        assert len(catalog) >= 4
        for expected in ("constant-control", "unmaintained-linear", "figure1-sawtooth", "imperfect-drift"):
            assert expected in labels

    def test_all_catalog_scenarios_build_valid(self):
        for scenario in scenario_catalog():
            assert validate_trajectory(build_trajectory(scenario)).valid

    def test_constant_control_is_flat(self):
        scenario = next(s for s in scenario_catalog() if s.label == "constant-control")
        traj = build_trajectory(scenario)
        assert isinstance(traj.segments[0].form, Constant)
        assert traj.maintenance_epochs == ()

    def test_figure1_sawtooth_shape(self):
        scenario = next(s for s in scenario_catalog() if s.label == "figure1-sawtooth")
        traj = build_trajectory(scenario)
        assert len(traj.maintenance_epochs) >= 2
        # rises within cycles, resets at epochs: the defining sawtooth shape
        first_epoch = traj.maintenance_epochs[0].time
        assert hazard_at(traj, first_epoch - 1e-9) > hazard_at(traj, first_epoch)

    def test_imperfect_drift_posts_strictly_increase(self):
        scenario = next(s for s in scenario_catalog() if s.label == "imperfect-drift")
        posts = [e.post_hazard for e in build_trajectory(scenario).maintenance_epochs]
        assert len(posts) >= 2
        assert all(b > a for a, b in zip(posts, posts[1:]))
