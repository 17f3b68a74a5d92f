"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines inline).
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    dkw_epsilon,
    one_sample_ks,
    quad_cumulative_hazard,
    sample_failure_time_thinning,
    single_draw,
    two_sample_epsilon,
    two_sample_ks,
)
from riskcheck.cli import (
    EXIT_OK,
    EXIT_ORDERING,
    EXIT_PRINCIPLE,
    EXIT_SCHEMA,
    RunConfig,
    run,
)
from riskcheck.compare import check_stochastic_order, default_time_grid
from riskcheck.hazard import (
    Constant,
    HazardSegment,
    HazardTrajectory,
    Linear,
    cumulative_hazard,
    failure_cdf,
    hazard_at,
    mean_time_to_failure,
    reliability,
    validate_trajectory,
)
from riskcheck.poisson import DiscretizedFailureProcess, exact_tv_small, stein_chen_tv_bound
from riskcheck.sampling import sample_replicates
from riskcheck.scenarios import build_trajectory, scenario_catalog
from riskcheck.serialize import trajectory_hash, trajectory_to_dict
from trajgen import (
    MUTATION_CLASSES,
    TARGET_PRINCIPLE,
    mutate,
    random_growing_trajectory,
    random_valid_trajectory,
)

ONE_SAMPLE_N = 100_000
# horizons deep enough that surviving the horizon has probability < 1e-10
THINNING_HORIZONS = {
    "constant-control": 60.0,
    "unmaintained-linear": 40.0,
    "figure1-sawtooth": 60.0,
    "imperfect-drift": 40.0,
}


def _report(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number} [{name}]: PASS ({time.monotonic() - started:.2f}s)")


def test_criterion_01_constant_hazard_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        h = float(rng.uniform(0.01, 5.0))
        t = float(rng.uniform(0.0, 20.0))
        traj = HazardTrajectory((HazardSegment(0.0, Constant(h)),))
        assert abs(reliability(traj, t) - math.exp(-h * t)) < 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, "constant-hazard reliability exactness", started)


def test_criterion_02_stochastic_ordering_randomized():
    started = time.monotonic()
    rng = np.random.default_rng(2002)
    violations = 0
    for _ in range(1000):
        traj = random_valid_trajectory(rng)
        h0 = hazard_at(traj, 0.0)
        for t in default_time_grid(traj, count=64):
            if failure_cdf(traj, t) < -math.expm1(-h0 * t) - 1e-9:
                violations += 1
    assert violations == 0
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(2, "stochastic ordering on 1000 random trajectories", started)


def test_criterion_03_tightness():
    started = time.monotonic()
    rng = np.random.default_rng(3003)
    # equality case: constant trajectories have identically zero gap
    for _ in range(50):
        h = float(rng.uniform(0.02, 4.0))
        traj = HazardTrajectory((HazardSegment(0.0, Constant(h)),))
        report = check_stochastic_order(traj, default_time_grid(traj, count=64))
        assert all(abs(g) < 1e-12 for g in report.pointwise_gaps)
    # and every trajectory has exactly zero gap at t = 0
    for _ in range(200):
        traj = random_valid_trajectory(rng)
        report = check_stochastic_order(traj, default_time_grid(traj, count=8))
        assert report.pointwise_gaps[0] == 0.0
    _report(3, "bound tightness (constant case and t=0)", started)


def test_criterion_04_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(4004)
    for _ in range(1000):
        traj = random_valid_trajectory(rng)
        t = float(rng.uniform(0.0, traj.segments[-1].start_time + 8.0))
        closed = cumulative_hazard(traj, t)
        oracle = quad_cumulative_hazard(traj, t)
        assert abs(closed - oracle) <= 1e-9 * max(1.0, abs(oracle))
    weibull = HazardTrajectory((HazardSegment(0.0, Linear(0.0, 2.0)),))
    assert abs(mean_time_to_failure(weibull) - math.sqrt(math.pi) / 2.0) < 1e-6
    _report(4, "closed form vs quadrature oracle", started)


def test_criterion_05_sampler_law():
    started = time.monotonic()
    catalog = {s.label: s for s in scenario_catalog()}
    for label in ("constant-control", "unmaintained-linear", "figure1-sawtooth", "imperfect-drift"):
        traj = build_trajectory(catalog[label])

        draws = sample_replicates(traj, ONE_SAMPLE_N, seed=5005)
        ks = one_sample_ks(np.sort(draws), lambda t: failure_cdf(traj, float(t)))
        assert ks < dkw_epsilon(ONE_SAMPLE_N), (label, ks)

        horizon = THINNING_HORIZONS[label]
        thinned = [
            sample_failure_time_thinning(traj, horizon, 6006, i)
            for i in range(ONE_SAMPLE_N)
        ]
        thinned = np.array([t for t in thinned if t is not None])
        inversion = draws[draws <= horizon]
        two_ks = two_sample_ks(inversion, thinned)
        assert two_ks < two_sample_epsilon(len(inversion), len(thinned)), (label, two_ks)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(5, "sampler law (KS under DKW, inversion vs thinning)", started)


def test_criterion_06_validator_completeness():
    started = time.monotonic()
    detected = 0
    total = 0
    for mutation in MUTATION_CLASSES:
        rng = np.random.default_rng(hash(mutation) % (2**32))
        for _ in range(50):
            base = random_growing_trajectory(rng)
            report = validate_trajectory(mutate(base, mutation, rng))
            total += 1
            principles = {v.principle for v in report.violations}
            if not report.valid and TARGET_PRINCIPLE[mutation] in principles:
                detected += 1
    assert detected == total == 250
    _report(6, "validator mutation detection 250/250", started)


def test_criterion_07_pra_underestimation_demo():
    started = time.monotonic()
    traj = HazardTrajectory((HazardSegment(0.0, Linear(1.0, 2.0)),))
    report = check_stochastic_order(traj, (1.0,))
    # quadrature oracle: H(1) = 2; gap = (1 - e^-2) - (1 - e^-1)
    assert quad_cumulative_hazard(traj, 1.0) == pytest.approx(2.0, rel=1e-10)
    assert abs(report.pointwise_gaps[0] - 0.23254415793483963) < 1e-3
    _report(7, "PRA underestimation gap at t=1", started)


def test_criterion_08_stein_chen_soundness():
    started = time.monotonic()
    rng = np.random.default_rng(8008)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        proc = DiscretizedFailureProcess(tuple(float(p) for p in rng.uniform(0.01, 0.99, n)))
        assert exact_tv_small(proc) <= stein_chen_tv_bound(proc) + 1e-12
    ten = DiscretizedFailureProcess((0.1,) * 10)
    assert stein_chen_tv_bound(ten) == pytest.approx(0.1, abs=1e-12)
    assert exact_tv_small(ten) < 0.1
    _report(8, "Stein-Chen bound dominates exact TV", started)


def test_criterion_09_worker_determinism(tmp_path):
    # Draws split across eight workers, each replicate drawn on its own
    # stream and the chunks evaluated last to first, give the batch's bytes.
    started = time.monotonic()
    from riskcheck.sampling import write_samples_csv

    traj = build_trajectory(next(s for s in scenario_catalog() if s.label == "figure1-sawtooth"))
    h = trajectory_hash(traj)
    n, chunks = 20_000, 8
    batch = sample_replicates(traj, n, seed=9009)
    chunked = np.empty(n)
    for c in reversed(range(chunks)):
        for i in range(c * n // chunks, (c + 1) * n // chunks):
            chunked[i] = single_draw(traj, 9009, i)
    csv_a, _ = write_samples_csv(tmp_path / "batch", batch, 9009, h)
    csv_b, _ = write_samples_csv(tmp_path / "chunked", chunked, 9009, h)
    assert csv_a.read_bytes() == csv_b.read_bytes()
    _report(9, "byte-identical samples in eight chunks, in reverse order", started)


def test_criterion_10_cli_contract(tmp_path):
    started = time.monotonic()
    import json

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    ok_file = write(
        "ok.json",
        trajectory_to_dict(HazardTrajectory((HazardSegment(0.0, Linear(0.1, 0.05)),))),
    )
    schema_file = tmp_path / "broken.json"
    schema_file.write_text("{nope")
    invalid_file = write(
        "invalid.json",
        trajectory_to_dict(
            HazardTrajectory(
                (HazardSegment(0.0, Constant(0.8)), HazardSegment(5.0, Constant(0.3)))
            )
        ),
    )
    ordering_file = write(
        "ordering.json",
        trajectory_to_dict(HazardTrajectory((HazardSegment(0.0, Linear(1.0, -0.2)),))),
    )

    assert run(RunConfig("validate", input=ok_file, out=tmp_path)) == EXIT_OK
    assert run(RunConfig("validate", input=schema_file, out=tmp_path)) == EXIT_SCHEMA
    assert run(RunConfig("validate", input=invalid_file, out=tmp_path)) == EXIT_PRINCIPLE
    assert run(RunConfig("bound-check", input=ordering_file, out=tmp_path)) == EXIT_ORDERING

    # round trip: scenario -> build -> serialize -> rebuild, hash preserved
    from riskcheck.serialize import trajectory_from_dict

    for scenario in scenario_catalog():
        traj = build_trajectory(scenario)
        rebuilt = trajectory_from_dict(trajectory_to_dict(traj))
        assert trajectory_hash(rebuilt) == trajectory_hash(traj)
    _report(10, "CLI exit codes and round-trip hash", started)
