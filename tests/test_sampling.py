"""Sampler law, stream discipline, thinning oracle, export format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dkw_epsilon,
    one_sample_ks,
    sample_failure_time_thinning,
    single_draw,
    single_exponential,
    stream_generator,
    two_sample_epsilon,
    two_sample_ks,
)
from riskcheck.compare import PraModel
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
    invert_cumulative_hazard_array,
    validate_trajectory,
)
from riskcheck.poisson import ks_distance
from riskcheck.sampling import _exponentials, sample_replicates, write_samples_csv
from trajgen import random_valid_trajectory

CONSTANT_HALF = HazardTrajectory((HazardSegment(0.0, Constant(0.5)),))
CONSTANT_ONE = HazardTrajectory((HazardSegment(0.0, Constant(1.0)),))
WEIBULL_SHAPE = HazardTrajectory((HazardSegment(0.0, Linear(0.0, 2.0)),))
# One segment of each form, each gathering a share of the unit-exponential
# draws: maintenance at t=2 and t=4, a shock up to 0.3 at t=6.
EVERY_FORM = HazardTrajectory(
    (
        HazardSegment(0.0, Linear(0.1, 0.05)),
        HazardSegment(2.0, Power(0.1, 0.02, 2.0)),
        HazardSegment(4.0, ExponentialGrowth(0.1, 0.3)),
        HazardSegment(6.0, Constant(0.3)),
    ),
    (MaintenanceEpoch(2.0, 0.1), MaintenanceEpoch(4.0, 0.1)),
)


class TestSeededStream:
    """The thinning oracle's (seed, stream_id) streams."""

    def test_reproducible(self):
        a = stream_generator(123, 4).standard_exponential()
        b = stream_generator(123, 4).standard_exponential()
        assert a == b

    def test_streams_differ(self):
        a = stream_generator(123, 0).standard_exponential()
        b = stream_generator(123, 1).standard_exponential()
        assert a != b


class TestDrawContract:
    """Replicate i reads word i of the Philox stream keyed by the seed."""

    SAWTOOTH = HazardTrajectory(
        (HazardSegment(0.0, Linear(0.1, 0.05)), HazardSegment(10.0, Power(0.1, 0.02, 2.0))),
        (MaintenanceEpoch(10.0, 0.1),),
    )

    @given(st.data(), st.integers(0, 2**64 - 1), st.integers(1, 2000))
    @settings(max_examples=60, deadline=None)
    def test_replicate_is_its_single_stream_draw(self, data, seed, n):
        i = data.draw(st.integers(0, n - 1))
        draws = sample_replicates(self.SAWTOOTH, n, seed)
        assert draws[i] == single_draw(self.SAWTOOTH, seed, i)

    @given(st.data(), st.integers(0, 2**64 - 1), st.integers(2, 2000))
    @settings(max_examples=60, deadline=None)
    def test_shorter_run_is_a_prefix(self, data, seed, n):
        m = data.draw(st.integers(1, n - 1))
        longer = sample_replicates(self.SAWTOOTH, n, seed)
        assert np.array_equal(sample_replicates(self.SAWTOOTH, m, seed), longer[:m])

    def test_prefixes_and_single_lanes_are_the_batch(self):
        assert validate_trajectory(EVERY_FORM).valid
        full = sample_replicates(EVERY_FORM, 70, 12)
        for n in range(1, 71):
            assert np.array_equal(sample_replicates(EVERY_FORM, n, 12), full[:n])
        for i in range(70):
            assert single_draw(EVERY_FORM, 12, i) == full[i]

    def test_reversed_and_shuffled_chunks_are_the_batch(self):
        n = 2000
        targets = _exponentials(np.random.Philox(key=34).random_raw(n))
        full = sample_replicates(EVERY_FORM, n, 34)
        # every form class inverts a share of the lanes
        segment = np.searchsorted([0.0, 2.0, 4.0, 6.0], full, side="right")
        assert np.bincount(segment)[1:].min() > 100
        rng = np.random.default_rng(56)
        chunks = np.array_split(np.arange(n), 13)
        reversed_chunks = [chunk[::-1] for chunk in chunks[::-1]]
        shuffled_chunks = [rng.permutation(chunks[k]) for k in rng.permutation(len(chunks))]
        for order in (reversed_chunks, shuffled_chunks):
            out = np.full(n, np.nan)
            for lanes in order:
                out[lanes] = invert_cumulative_hazard_array(EVERY_FORM, targets[lanes])
            assert np.array_equal(out, full)

    def test_a_batch_past_one_block_is_its_chunks(self):
        n = 70_000  # more than one block of 65,536 lanes
        targets = _exponentials(np.random.Philox(key=90).random_raw(n))
        full = invert_cumulative_hazard_array(EVERY_FORM, targets)
        chunks = [invert_cumulative_hazard_array(EVERY_FORM, c) for c in np.array_split(targets[::-1], 7)]
        assert np.array_equal(np.concatenate(chunks)[::-1], full)

    def test_one_kernel_call_per_form_class(self, monkeypatch):
        sample_replicates(EVERY_FORM, 1, 0)  # compiles the columns
        calls = dict.fromkeys([cls.name for cls in SEGMENT_FORMS] + ["invert_integral"], 0)
        for cls in SEGMENT_FORMS:
            original = cls.invert_integral_array

            def kernel(*args, original=original, name=cls.name):
                calls[name] += 1
                return original(*args)

            def scalar(*args):
                calls["invert_integral"] += 1

            monkeypatch.setattr(cls, "invert_integral_array", kernel)
            monkeypatch.setattr(cls, "invert_integral", scalar)
        sample_replicates(EVERY_FORM, 2000, 78)
        assert calls == {
            "constant": 1, "linear": 1, "power": 1, "exponential_growth": 1, "invert_integral": 0
        }

    def test_edge_words_give_finite_positive_draws(self):
        e = _exponentials(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert np.all(np.isfinite(e)) and np.all(e > 0.0)
        assert e[0] == pytest.approx(53 * math.log(2.0), rel=1e-15)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_every_word_gives_finite_positive_draw(self, words):
        e = _exponentials(np.array(words, dtype=np.uint64))
        assert np.all(np.isfinite(e)) and np.all(e > 0.0)

    def test_words_are_counter_lanes(self):
        # word i is lane i % 4 of counter block i // 4 of Philox keyed by seed
        words = np.random.Philox(key=99).random_raw(12)
        expected = _exponentials(words)
        for i in range(12):
            assert single_exponential(99, i) == expected[i]
            assert single_draw(CONSTANT_ONE, 99, i) == expected[i]

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValueError):
            sample_replicates(CONSTANT_ONE, 3, seed=1.5)


class TestInversionSampler:
    def test_constant_is_scaled_exponential(self):
        e = single_exponential(7, 0)
        assert sample_replicates(CONSTANT_HALF, 1, 7)[0] == pytest.approx(e / 0.5, rel=1e-14)

    @given(st.integers(0, 100_000), st.integers(0, 64))
    @settings(max_examples=80, deadline=None)
    def test_inversion_identity(self, seed, stream_id):
        # |H(T) - E| <= 1e-9 where E is the generating exponential draw
        traj = random_valid_trajectory(np.random.default_rng(seed))
        e = single_exponential(seed, stream_id)
        t = single_draw(traj, seed, stream_id)
        assert abs(cumulative_hazard(traj, t) - e) <= 1e-9

    def test_weibull_shape_is_sqrt_of_exponential(self):
        # distributional oracle: T = sqrt(E) for h(t) = 2t
        n = 20_000
        draws = sample_replicates(WEIBULL_SHAPE, n, seed=11)
        oracle_rng = np.random.default_rng(2024)
        oracle = np.sqrt(oracle_rng.standard_exponential(n))
        assert two_sample_ks(draws, oracle) < two_sample_epsilon(n, n)

    def test_probability_integral_transform(self):
        rng = np.random.default_rng(88)
        traj = random_valid_trajectory(rng)
        n = 20_000
        pit = np.sort([failure_cdf(traj, t) for t in sample_replicates(traj, n, seed=5)])
        assert one_sample_ks(pit, lambda u: u) < dkw_epsilon(n)

    def test_power_form_ks_under_dkw(self):
        # the power antiderivative with a nonzero base has no closed inverse,
        # so this drives Power's Newton inversion through a distributional check
        traj = HazardTrajectory((HazardSegment(0.0, Power(0.2, 0.3, 2.5)),))
        n = 20_000
        draws = np.sort(sample_replicates(traj, n, seed=246))
        assert one_sample_ks(draws, lambda t: failure_cdf(traj, float(t))) < dkw_epsilon(n)


class TestThinningSampler:
    def test_degenerate_horizon_rejected(self):
        with pytest.raises(ValueError):
            sample_failure_time_thinning(CONSTANT_HALF, 0.0, 1, 0)

    def test_matches_inversion_on_horizon(self):
        horizon, n = 100.0, 20_000
        inv = sample_replicates(CONSTANT_HALF, n, seed=21)
        inv = inv[inv <= horizon]
        thin = [
            sample_failure_time_thinning(CONSTANT_HALF, horizon, 22, i)
            for i in range(n)
        ]
        thin = np.array([t for t in thin if t is not None])
        assert two_sample_ks(inv, thin) < two_sample_epsilon(len(inv), len(thin))

    def test_quadratic_hazard_always_accepts_before_horizon(self):
        # survival past t=10 has probability exp(-100); none of 2000 draws survive
        results = [
            sample_failure_time_thinning(WEIBULL_SHAPE, 10.0, 3, i)
            for i in range(2000)
        ]
        assert all(r is not None and r < 10.0 for r in results)

    def test_survivors_reported_as_none(self):
        results = [
            sample_failure_time_thinning(CONSTANT_HALF, 0.05, 9, i)
            for i in range(200)
        ]
        assert any(r is None for r in results)


class TestSampleMany:
    """Whole batches of ``sample_replicates``, the one sampler."""

    def test_singleton_matches_stream_zero(self):
        draws = sample_replicates(CONSTANT_ONE, 1, seed=42)
        assert draws.tolist() == [single_draw(CONSTANT_ONE, 42, 0)]

    def test_zero_replicates_rejected(self):
        with pytest.raises(ValueError):
            sample_replicates(CONSTANT_ONE, 0, seed=1)

    def test_mean_within_clt_band(self):
        n = 100_000
        draws = sample_replicates(CONSTANT_ONE, n, seed=31)
        assert abs(np.mean(draws) - 1.0) < 3.0 / math.sqrt(n)

    def test_deterministic_across_runs(self):
        a = sample_replicates(WEIBULL_SHAPE, 1000, seed=13)
        b = sample_replicates(WEIBULL_SHAPE, 1000, seed=13)
        assert np.array_equal(a, b)


class TestEmpiricalDistribution:
    """The empirical law of sampled times, as ``ks_distance`` reads it."""

    def test_cdf_steps(self):
        times = np.array([1.0, 2.0, 4.0])

        def cdf(t):
            return np.searchsorted(times, t, side="right") / len(times)

        assert cdf(0.5) == 0.0
        assert cdf(1.0) == pytest.approx(1 / 3)
        assert cdf(2.0) == pytest.approx(2 / 3)
        assert cdf(3.0) == pytest.approx(2 / 3)
        assert cdf(4.0) == 1.0
        assert cdf(9.0) == 1.0

    def test_nonpositive_times_rejected(self):
        with pytest.raises(ValueError, match="finite and positive"):
            ks_distance((0.0, 1.0), PraModel(1.0, "given"))


class TestCsvExport:
    def test_format_and_determinism(self, tmp_path):
        draws = sample_replicates(CONSTANT_HALF, 50, seed=6)
        csv_a, meta_a = write_samples_csv(tmp_path / "a", draws, 6, "deadbeef")
        csv_b, meta_b = write_samples_csv(tmp_path / "b", draws, 6, "deadbeef")
        assert csv_a.read_bytes() == csv_b.read_bytes()
        assert meta_a.read_bytes() == meta_b.read_bytes()
        lines = csv_a.read_text().splitlines()
        assert lines[0] == "replicate,failure_time"
        assert len(lines) == 51
        replicate, value = lines[1].split(",")
        assert replicate == "0"
        assert float(value) == draws[0]  # 17 significant digits round-trip
