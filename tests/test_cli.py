"""CLI contract: exit codes, artifacts, determinism, schemas."""

import argparse
import ast
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import riskcheck.cli
import riskcheck.hazard
from riskcheck.cli import (
    _OPTIONS,
    _SUBCOMMANDS,
    DEFAULT_SEED,
    EXIT_OK,
    EXIT_ORDERING,
    EXIT_PRINCIPLE,
    EXIT_SCHEMA,
    RunConfig,
    build_parser,
    main,
    run,
)
from riskcheck.compare import check_stochastic_order, default_time_grid
from riskcheck.hazard import (
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
    reliability,
    validate_trajectory,
)
from riskcheck.poisson import discretize
from riskcheck.scenarios import (
    PeriodicPerfect,
    Scenario,
    ThresholdPerfect,
    build_trajectory,
    scenario_catalog,
)
from riskcheck.serialize import (
    load_input,
    scenario_to_dict,
    trajectory_hash,
    trajectory_to_dict,
)
from oracles import capped_exact_tv
from test_scenarios import CONCAVE_THRESHOLD, OVERFLOW_BEFORE_EPOCH, SKIPPED_THRESHOLD_EPOCH
from test_serialize import strict_loads

# Rule-breaking segments whose CDF columns overflow exp (bound-check does
# not validate its input).
NEGATIVE_CUBIC_AREA = HazardSegment(0.0, Power(0.1, -0.1, 2.0))
NEGATIVE_START_STEEP = HazardSegment(0.0, Linear(-1.0, 1e300))
# Valid, but H saturates to inf well inside a --t-max 2000 grid.
EXP_GROWTH = HazardSegment(0.0, ExponentialGrowth(0.1, 1.0))
# Valid extremes: intercept**2 overflows when the linear area is inverted;
# the hazard increment over a --t-max 1e-300 grid interval underflows to 0;
# a second segment starts long after the survival curve has decayed.
HUGE_LINEAR = HazardTrajectory((HazardSegment(0.0, Linear(1e300, 1e300)),))
TINY_CONSTANT = HazardTrajectory((HazardSegment(0.0, Constant(1e-300)),))
FAR_BOUNDARY = HazardTrajectory(
    (HazardSegment(0.0, Constant(1e300)), HazardSegment(1e6, Constant(1e300)))
)
# Valid, but u**3 overflows long before the tiny coefficient lets the hazard
# itself overflow.
TINY_CUBIC = HazardTrajectory((HazardSegment(0.0, Power(1.0, 1e-300, 3.0)),))
# Valid, but H stays below 0.25 at every float time: the mean, 1e310, overflows.
SUBNORMAL_CONSTANT = HazardTrajectory((HazardSegment(0.0, Constant(1e-310)),))
# Valid, but H = 1000 t + 1e300 t**3 / 3 reaches the unit-exponential draws
# near t = 1e-100, far below any absolute time tolerance.
TINY_ROOT_POWER = HazardTrajectory((HazardSegment(0.0, Power(1000.0, 1e300, 2.0)),))
# Valid, but growth * t underflows for t below about 2e-8, where H is still
# base * t, 0.01 at t = 1e-302.
NEAR_CONSTANT_EXP = HazardTrajectory((HazardSegment(0.0, ExponentialGrowth(1e300, 1e-300)),))


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_module(path: Path, out: Path, *args, timeout=None):
    """``python -m riskcheck <args> --input path --out out`` in a child."""
    return subprocess.run(
        [sys.executable, "-m", "riskcheck", *args, "--input", str(path), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture
def valid_file(tmp_path):
    traj = HazardTrajectory((HazardSegment(0.0, Linear(0.1, 0.05)),))
    return write_json(tmp_path / "valid.json", trajectory_to_dict(traj))


@pytest.fixture
def invalid_file(tmp_path):
    # undeclared decrease at t=5
    traj = HazardTrajectory(
        (HazardSegment(0.0, Constant(0.8)), HazardSegment(5.0, Constant(0.3)))
    )
    return write_json(tmp_path / "invalid.json", trajectory_to_dict(traj))


@pytest.fixture
def decreasing_file(tmp_path):
    # breaks the ordering: hazard sinks below h(0), so F(t) < 1 - e^{-h(0)t}
    traj = HazardTrajectory((HazardSegment(0.0, Linear(1.0, -0.2)),))
    return write_json(tmp_path / "decreasing.json", trajectory_to_dict(traj))


@pytest.fixture
def scenario_file(tmp_path):
    from riskcheck.serialize import scenario_to_dict

    scenario = next(s for s in scenario_catalog() if s.label == "figure1-sawtooth")
    return write_json(tmp_path / "scenario.json", scenario_to_dict(scenario))


class TestExitCodes:
    def test_validate_valid_exits_zero(self, valid_file, tmp_path, capsys):
        code = run(RunConfig("validate", input=valid_file, out=tmp_path))
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_validate_invalid_exits_three(self, invalid_file, tmp_path, capsys):
        code = run(RunConfig("validate", input=invalid_file, out=tmp_path))
        assert code == EXIT_PRINCIPLE
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is False
        assert any(v["principle"] == 4 for v in payload["violations"])

    def test_schema_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert run(RunConfig("validate", input=bad, out=tmp_path)) == EXIT_SCHEMA

    def test_structural_error_exits_two(self, tmp_path):
        traj = HazardTrajectory(
            (HazardSegment(0.0, Constant(0.5)), HazardSegment(0.0, Constant(0.6)))
        )
        path = write_json(tmp_path / "structural.json", trajectory_to_dict(traj))
        assert run(RunConfig("validate", input=path, out=tmp_path)) == EXIT_SCHEMA

    def test_missing_file_exits_two(self, tmp_path):
        assert run(RunConfig("validate", input=tmp_path / "nope.json", out=tmp_path)) == EXIT_SCHEMA

    def test_bound_check_ordering_violation_exits_four(self, decreasing_file, tmp_path):
        assert run(RunConfig("bound-check", input=decreasing_file, out=tmp_path)) == EXIT_ORDERING

    def test_bound_check_valid_exits_zero(self, scenario_file, tmp_path):
        assert run(RunConfig("bound-check", input=scenario_file, out=tmp_path)) == EXIT_OK

    def test_sample_on_invalid_trajectory_exits_three(self, invalid_file, tmp_path):
        assert run(RunConfig("sample", input=invalid_file, out=tmp_path, n=10)) == EXIT_PRINCIPLE

    @pytest.mark.parametrize("command", ["eval", "compare", "distance"])
    def test_a_checking_command_refuses_an_invalid_trajectory_file(
        self, command, invalid_file, tmp_path, capsys
    ):
        assert run(RunConfig(command, input=invalid_file, out=tmp_path, n=10)) == EXIT_PRINCIPLE
        assert capsys.readouterr().err.startswith("error: trajectory violates the hazard principles")
        assert list(tmp_path.iterdir()) == [invalid_file]

    def test_unknown_command_exits_two(self, tmp_path):
        assert run(RunConfig("frobnicate", out=tmp_path)) == EXIT_SCHEMA


class TestEval:
    def test_tabulates_library_values(self, scenario_file, tmp_path, capsys):
        assert run(RunConfig("eval", input=scenario_file, out=tmp_path, grid_points=16)) == EXIT_OK
        traj = build_trajectory(load_input(scenario_file)[1])
        lines = (tmp_path / "eval.csv").read_text().splitlines()
        assert lines[0] == "t,h,H,R,F"
        assert len(lines) == 18  # header + t=0 + 16 grid points
        for line in lines[1:]:
            t, h, hh, r, f = map(float, line.split(","))
            assert h == hazard_at(traj, t)
            assert hh == cumulative_hazard(traj, t)
            assert r == reliability(traj, t)
            assert f == failure_cdf(traj, t)


class TestOverflow:
    """exp growth past the largest float saturates; the CLI keeps its exit
    code contract instead of dying with a traceback (exit 1)."""

    GROWTH = EXP_GROWTH

    def run_module(self, traj, tmp_path, *args):
        path = write_json(tmp_path / "overflow.json", trajectory_to_dict(traj))
        return run_module(path, tmp_path, *args)

    def test_eval_saturates_to_certain_failure(self, tmp_path):
        traj = HazardTrajectory((self.GROWTH,))
        result = self.run_module(traj, tmp_path, "eval", "--t-max", "2000")
        assert result.returncode == EXIT_OK
        assert "Traceback" not in result.stderr
        rows = [line.split(",") for line in (tmp_path / "eval.csv").read_text().splitlines()[1:]]
        overflowed = [row for row in rows if row[2] == "inf"]
        assert overflowed and overflowed[-1][0] == "2000"
        for _t, h, _hh, r, f in overflowed:
            assert (h, r, f) == ("inf", "0", "1")

    def test_validate_reports_overflow_before_a_drop(self, tmp_path):
        traj = HazardTrajectory((self.GROWTH, HazardSegment(800.0, Constant(1.0))))
        result = self.run_module(traj, tmp_path, "validate")
        assert result.returncode == EXIT_PRINCIPLE
        assert "Traceback" not in result.stderr
        violations = json.loads(result.stdout)["violations"]
        assert {"principle": 1, "location": 800.0} in [
            {"principle": v["principle"], "location": v["location"]} for v in violations
        ]

    @pytest.mark.parametrize("exponent", ["-2", "-1"])
    def test_bound_check_on_divergent_power_area(self, tmp_path, exponent):
        # u**exponent is not integrable at 0, so H is infinite past t = 0;
        # the h(0) = inf bound is then violated (exit 4) instead of crashing.
        traj = HazardTrajectory((HazardSegment(0.0, Power(0.5, 1.0, float(exponent))),))
        result = self.run_module(traj, tmp_path, "bound-check", "--t-max", "5")
        assert result.returncode in (EXIT_OK, EXIT_SCHEMA, EXIT_PRINCIPLE, EXIT_ORDERING)
        assert "Traceback" not in result.stderr

    def test_bound_check_on_very_negative_cumulative_hazard(self, tmp_path):
        # H(50) is about -4161, so 1 - exp(-H) saturates to -inf: the true
        # CDF falls below the bound and the ordering is violated.
        traj = HazardTrajectory((NEGATIVE_CUBIC_AREA,))
        result = self.run_module(traj, tmp_path, "bound-check")
        assert result.returncode == EXIT_ORDERING
        assert "Traceback" not in result.stderr

    def test_bound_check_on_negative_initial_hazard(self, tmp_path):
        # h(0) = -1, so the comparator 1 - exp(-h(0) t) saturates to -inf
        traj = HazardTrajectory((NEGATIVE_START_STEEP,))
        result = self.run_module(traj, tmp_path, "bound-check", "--t-max", "2000")
        assert result.returncode in (EXIT_OK, EXIT_SCHEMA, EXIT_PRINCIPLE, EXIT_ORDERING)
        assert "Traceback" not in result.stderr


class TestNonFiniteOutput:
    """A number past the float range is written as null, so every JSON the
    CLI writes is strict JSON, and is left out of the SVG."""

    def test_validate_writes_a_crossing_past_the_largest_float_as_null(self, tmp_path, capsys):
        # The hazard crosses zero at u = 1e300 / 1e-300, past the largest float.
        segment = {"start": 0, "form": "linear", "params": {"intercept": 1e300, "slope": -1e-300}}
        path = write_json(tmp_path / "far.json", {"schema_version": 1, "segments": [segment]})
        assert run(RunConfig("validate", input=path)) == EXIT_PRINCIPLE
        violations = strict_loads(capsys.readouterr().out)["violations"]
        crossing = {"location": None, "message": "hazard reaches zero inside the segment", "principle": 1}
        assert crossing in violations

    def test_bound_check_writes_an_infinite_gap_as_null_and_plots_no_nan(self, tmp_path):
        # h(0) = -1: the bound 1 - exp(t) saturates to -inf past t = 709.8,
        # and the gap to +inf.
        traj = HazardTrajectory((HazardSegment(0.0, Constant(-1.0)), HazardSegment(1.0, Constant(1.0))))
        path = write_json(tmp_path / "negative.json", trajectory_to_dict(traj))
        config = RunConfig("bound-check", input=path, out=tmp_path, t_max=1000.0, emit_plot=True)
        assert run(config) in (EXIT_OK, EXIT_ORDERING)
        summary = strict_loads((tmp_path / "comparison_summary.json").read_text())
        assert summary["sup_gap_h0"] is None and summary["sup_gap_pra"] is None
        svg = (tmp_path / "comparison.svg").read_text()
        assert "nan" not in svg and "inf" not in svg

    def test_bound_check_refuses_a_nan_gap(self, tmp_path, capsys):
        # h = -1: past t = 709.8 the true CDF and the bound are both -inf,
        # so the gaps there are NaN, and a NaN gap is no ordering
        path = write_json(
            tmp_path / "negative.json",
            {"schema_version": 1, "segments": [{"start": 0, "form": "constant", "params": {"level": -1}}]},
        )
        config = RunConfig("bound-check", input=path, out=tmp_path, t_max=1000.0)
        assert run(config) == EXIT_ORDERING
        assert "ordering violated: min gap nan" in capsys.readouterr().err
        with open(tmp_path / "comparison.csv", newline="") as fh:
            gaps = [float(row["gap_h0"]) for row in csv.DictReader(fh)]
        assert math.isnan(gaps[-1]) and not math.isnan(gaps[0])
        summary = strict_loads((tmp_path / "comparison_summary.json").read_text())
        assert summary["ordering_holds"] is False
        assert summary["sup_gap_h0"] is None and summary["sup_gap_pra"] is None


class TestEdgeInputs:
    """Valid but extreme inputs keep the exit-code contract: no traceback,
    no exit 1, no hang."""

    def test_distance_on_certain_failure_within_grid(self, tmp_path):
        # H passes 37 inside the default grid, so late intervals have p == 1
        traj = HazardTrajectory((HazardSegment(0.0, ExponentialGrowth(0.1, 1.0)),))
        path = write_json(tmp_path / "growth.json", trajectory_to_dict(traj))
        result = run_module(path, tmp_path, "distance", "--n", "200")
        assert result.returncode == EXIT_OK, result.stderr
        report = json.loads((tmp_path / "distance.json").read_text())
        assert 0.0 <= report["bound"] <= 1.0
        assert 0.0 <= report["ks"] <= 1.0

    def test_distance_past_cumulative_hazard_overflow(self, tmp_path):
        # H is inf at the last grid points, so late intervals are certain
        # failures (p = 1) rather than inf - inf = nan
        traj = HazardTrajectory((EXP_GROWTH,))
        path = write_json(tmp_path / "growth.json", trajectory_to_dict(traj))
        result = run_module(path, tmp_path, "distance", "--t-max", "2000", "--n", "200")
        assert result.returncode == EXIT_OK, result.stderr
        report = json.loads((tmp_path / "distance.json").read_text())
        assert 0.0 <= report["bound"] <= 1.0
        assert 0.0 <= report["ks"] <= 1.0

    def test_sample_and_distance_when_the_linear_inverse_squares_overflow(self, tmp_path):
        path = write_json(tmp_path / "linear.json", trajectory_to_dict(HUGE_LINEAR))
        for command in ("sample", "distance"):
            result = run_module(path, tmp_path, command, "--n", "200")
            assert result.returncode == EXIT_OK, result.stderr
        rows = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        times = [float(row.split(",")[1]) for row in rows]
        assert len(times) == 200 and all(0.0 < t < 1e-297 for t in times)

    def test_distance_with_zero_probability_intervals(self, tmp_path):
        path = write_json(tmp_path / "tiny.json", trajectory_to_dict(TINY_CONSTANT))
        result = run_module(path, tmp_path, "distance", "--t-max", "1e-300", "--n", "200")
        assert result.returncode == EXIT_OK, result.stderr
        report = json.loads((tmp_path / "distance.json").read_text())
        assert report["lambda"] == report["bound"] == 0.0

    def test_compare_with_a_segment_long_after_the_decay(self, tmp_path):
        path = write_json(tmp_path / "far.json", trajectory_to_dict(FAR_BOUNDARY))
        result = run_module(path, tmp_path, "compare")
        assert result.returncode == EXIT_OK, result.stderr
        assert "rate-1e+300 exponential" in result.stdout

    def test_eval_where_only_the_power_of_u_overflows(self, tmp_path):
        path = write_json(tmp_path / "cubic.json", trajectory_to_dict(TINY_CUBIC))
        argv = ["eval", "--input", str(path), "--out", str(tmp_path), "--t-max", "1e103"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--grid-points", "2"]) == EXIT_OK
        with open(tmp_path / "eval.csv") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert float(last["t"]) == 1e103
        assert float(last["h"]) == pytest.approx(1e9 + 1.0, rel=1e-12)
        assert float(last["H"]) == pytest.approx(1e103 + 2.5e111, rel=1e-12)

    def test_failure_times_far_below_the_time_unit(self, tmp_path):
        path = write_json(tmp_path / "power.json", trajectory_to_dict(TINY_ROOT_POWER))
        for args in (["sample", "--n", "200"], ["compare"], ["distance", "--n", "200"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*args, "--input", str(path), "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        times = [float(row.split(",")[1]) for row in rows]
        assert len(set(times)) == 200 and all(1e-102 < t < 1e-98 for t in times)
        # the 1000 t term moves the mean by about 1e-97 relative
        mean = math.gamma(4.0 / 3.0) * 3.0 ** (1.0 / 3.0) * 1e-100
        summary = json.loads((tmp_path / "comparison_summary.json").read_text())
        assert summary["pra"]["rate"] == pytest.approx(1.0 / mean, rel=1e-12)

    def test_eval_where_growth_times_t_underflows(self, tmp_path):
        path = write_json(tmp_path / "exp.json", trajectory_to_dict(NEAR_CONSTANT_EXP))
        for args in (["eval", "--t-max", "1e-302"], ["bound-check"], ["compare"], ["sample"], ["distance"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*args, "--input", str(path), "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "eval.csv") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert float(last["t"]) == pytest.approx(1e-302, rel=1e-15)
        assert float(last["H"]) == pytest.approx(0.01, rel=1e-15)
        # the mean of an Exp(1e300) failure time: growth changes it by 1e-600
        summary = json.loads((tmp_path / "comparison_summary.json").read_text())
        assert summary["pra"]["rate"] == pytest.approx(1e300, rel=1e-12)

    def test_near_constant_exp_growth_matches_constant(self, tmp_path):
        # growth * t_max is subnormal, so every column is Constant(base)'s
        outs = []
        for name, form in (("exp", ExponentialGrowth(0.5, 1e-320)), ("const", Constant(0.5))):
            traj = HazardTrajectory((HazardSegment(0.0, form),))
            path = write_json(tmp_path / f"{name}.json", trajectory_to_dict(traj))
            out = tmp_path / f"out-{name}"
            for command in ("eval", "compare"):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main([command, "--input", str(path), "--out", str(out)]) == EXIT_OK
            outs.append(out)
        for artifact in ("eval.csv", "comparison.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_compare_when_the_mean_overflows(self, tmp_path, capsys):
        path = write_json(tmp_path / "subnormal.json", trajectory_to_dict(SUBNORMAL_CONSTANT))
        assert main(["compare", "--input", str(path), "--out", str(tmp_path)]) == EXIT_SCHEMA
        assert "mean time to failure must be positive and finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "bound-check", "distance"])
    def test_default_grid_when_5_over_h0_overflows(self, tmp_path, command):
        # h(0) = 1e-309 is valid, but the default grid's end 5/h(0) is inf
        traj = HazardTrajectory((HazardSegment(0.0, Constant(1e-309)),))
        path = write_json(tmp_path / "subnormal.json", trajectory_to_dict(traj))
        result = run_module(path, tmp_path, command)
        assert result.returncode == EXIT_SCHEMA
        assert "Traceback" not in result.stderr
        assert "pass --t-max" in result.stderr

    @pytest.mark.parametrize(
        "form", [Constant(0.0), ExponentialGrowth(0.0, 1.0)], ids=["constant", "exp-growth"]
    )
    def test_bound_check_with_zero_initial_hazard(self, tmp_path, form):
        # the default grid ends at 5/h(0), which does not exist here
        traj = HazardTrajectory((HazardSegment(0.0, form),))
        path = write_json(tmp_path / "zero.json", trajectory_to_dict(traj))
        result = run_module(path, tmp_path, "bound-check")
        assert result.returncode == EXIT_SCHEMA
        assert "Traceback" not in result.stderr
        assert "h(0)" in result.stderr and "--t-max" in result.stderr

    @pytest.mark.parametrize(
        "model, policy",
        [
            (Linear(0.1, 1e300), ThresholdPerfect(0.3)),  # step 2e-301
            (Power(0.1, 1e300, 1.0), ThresholdPerfect(0.3)),
            (ExponentialGrowth(0.1, 1e300), ThresholdPerfect(0.3)),
            (Linear(0.1, 0.05), PeriodicPerfect(1e-300)),
        ],
        ids=["threshold-linear", "threshold-power", "threshold-exp", "periodic"],
    )
    def test_scenario_with_too_many_epochs_is_refused(self, tmp_path, model, policy):
        scenario = Scenario("tiny-step", model, policy, horizon=10.0)
        path = write_json(tmp_path / "scenario.json", scenario_to_dict(scenario))
        result = run_module(path, tmp_path, "validate", timeout=5)
        assert result.returncode == EXIT_SCHEMA
        assert "Traceback" not in result.stderr
        assert "MAX_EPOCHS" in result.stderr


class TestOverflowBeforeMaintenance:
    """A scenario whose hazard overflows before a scheduled epoch exits 2."""

    @pytest.mark.parametrize("command", ["validate", "eval", "sample", "compare", "distance"])
    @pytest.mark.parametrize(
        "scenario, epoch", OVERFLOW_BEFORE_EPOCH.values(), ids=OVERFLOW_BEFORE_EPOCH.keys()
    )
    def test_refused(self, tmp_path, capsys, scenario, epoch, command):
        path = write_json(tmp_path / "scenario.json", scenario_to_dict(scenario))
        assert main([command, "--input", str(path), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: hazard overflows to inf before the maintenance epoch at t={epoch!r}\n"
        )

    def test_refused_without_a_traceback(self, tmp_path):
        scenario, _ = OVERFLOW_BEFORE_EPOCH["power-perfect"]
        path = write_json(tmp_path / "scenario.json", scenario_to_dict(scenario))
        result = run_module(path, tmp_path, "compare")
        assert result.returncode == EXIT_SCHEMA
        assert result.stderr == "error: hazard overflows to inf before the maintenance epoch at t=10.0\n"

    @pytest.mark.parametrize("command", ["validate", "eval", "sample", "compare", "distance"])
    def test_skipped_threshold_epoch_refused_without_a_traceback(self, tmp_path, command):
        scenario, message = SKIPPED_THRESHOLD_EPOCH
        path = write_json(tmp_path / "scenario.json", scenario_to_dict(scenario))
        result = run_module(path, tmp_path / "out", command)
        assert result.returncode == EXIT_SCHEMA
        assert (result.stdout, result.stderr) == ("", f"error: {message}\n")


FUZZ_PARAMS = [0.0, 1e-300, -1e-300, 1e-3, -1e-3, 0.1, -0.1, 1.0, -1.0, 1e3, -1e3, 1e300, -1e300]
FUZZ_EXPONENTS = [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
FUZZ_LATER_STARTS = [0.5, 1.0, 10.0, 800.0, 1e6, 1e200]


def fuzz_forms(params):
    return st.one_of(
        st.builds(Constant, params),
        st.builds(Linear, params, params),
        st.builds(Power, params, params, st.sampled_from(FUZZ_EXPONENTS)),
        st.builds(ExponentialGrowth, params, params),
    )


FUZZ_FORMS = fuzz_forms(st.sampled_from(FUZZ_PARAMS))


@st.composite
def fuzz_trajectories(draw, forms=FUZZ_FORMS):
    """1-3 segments starting at 0, valid or not."""
    forms = draw(st.lists(forms, min_size=1, max_size=3))
    later = draw(
        st.lists(
            st.sampled_from(FUZZ_LATER_STARTS),
            min_size=len(forms) - 1,
            max_size=len(forms) - 1,
            unique=True,
        )
    )
    starts = [0.0] + sorted(later)
    return HazardTrajectory(tuple(HazardSegment(t, f) for t, f in zip(starts, forms)))


class TestUnwritableOutput:
    """An --out that cannot be created or written exits 2 with one line."""

    def test_out_is_an_existing_file(self, valid_file, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        result = run_module(valid_file, taken, "eval", "--t-max", "5")
        assert result.returncode == EXIT_SCHEMA
        assert result.stderr == f"error: cannot write {taken}: File exists\n"

    def test_out_is_below_a_file(self, tmp_path):
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "sub"
        result = subprocess.run(
            [sys.executable, "-m", "riskcheck", "catalog", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_SCHEMA
        assert result.stderr == f"error: cannot write {out}: Not a directory\n"


# 10**14 words or grid points are 728 TiB, past the 128 TiB a 64-bit
# process can map, so numpy refuses them at once under any overcommit policy.
TOO_LARGE = str(10**14)


class TestSizesTooLargeToAllocate:
    """A --n or --grid-points too large to allocate exits 2 with one line."""

    @pytest.mark.parametrize(
        "command, option",
        [
            ("sample", "--n"),
            ("distance", "--n"),
            ("eval", "--grid-points"),
            ("bound-check", "--grid-points"),
            ("compare", "--grid-points"),
            ("distance", "--grid-points"),
        ],
    )
    def test_refused(self, valid_file, tmp_path, capsys, command, option):
        argv = [command, "--input", str(valid_file), "--out", str(tmp_path), option, TOO_LARGE]
        assert main(argv) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate ")
        assert captured.err.count("\n") == 1

    def test_refused_without_a_traceback(self, valid_file, tmp_path):
        result = run_module(valid_file, tmp_path, "sample", "--n", TOO_LARGE)
        assert result.returncode == EXIT_SCHEMA
        assert result.stdout == ""
        assert result.stderr.startswith("error: Unable to allocate ")
        assert result.stderr.count("\n") == 1

    def test_a_memory_error_without_a_message(self, valid_file, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(riskcheck.cli, "sample_replicates", exhausted)
        argv = ["sample", "--input", str(valid_file), "--out", str(tmp_path)]
        assert main(argv) == EXIT_SCHEMA
        assert capsys.readouterr().err == "error: out of memory\n"


class TestSubnormalTMax:
    """A --t-max whose grid is not strictly increasing (1e-320) or whose
    t_max/500 underflows to 0 (1e-321) exits 2 with the same line from
    every grid command, before any output is made."""

    @pytest.mark.parametrize("t_max", ["1e-320", "1e-321"])
    @pytest.mark.parametrize("command", ["eval", "bound-check", "compare", "distance"])
    def test_refused(self, valid_file, tmp_path, capsys, command, t_max):
        out = tmp_path / "out"
        argv = [command, "--input", str(valid_file), "--out", str(out), "--t-max", t_max]
        assert main(argv) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: t_max = {t_max} is too small: the 64 grid times from t_max/500 "
            "to t_max are not strictly increasing\n"
        )
        assert not out.exists()


class TestMalformedInput:
    """Off-schema files exit 2 with a message, never with a traceback."""

    @pytest.mark.parametrize(
        "document, message",
        [
            (
                {"schema_version": 1, "segments": [{"start": 0.0, "form": ["linear"], "params": {}}]},
                "trajectory.segments[0].form must be one of",
            ),
            (
                {
                    "schema_version": 1,
                    "label": "x",
                    "model": {"h0": 0.1, "growth": {"form": {"a": 1}, "params": {}}},
                    "policy": {"kind": "none", "params": {}},
                    "horizon": 10.0,
                },
                "scenario.model.growth.form must be one of",
            ),
        ],
        ids=["trajectory-form-list", "growth-form-object"],
    )
    def test_unhashable_tag(self, tmp_path, document, message):
        path = write_json(tmp_path / "bad.json", document)
        result = run_module(path, tmp_path, "validate")
        assert result.returncode == EXIT_SCHEMA
        assert "Traceback" not in result.stderr
        assert message in result.stderr

    def test_integer_past_the_float_range(self, tmp_path):
        path = tmp_path / "huge.json"
        level = "1" + "0" * 340
        path.write_text(
            '{"schema_version": 1, "segments": [{"start": 0.0, "form": "constant", '
            f'"params": {{"level": {level}}}}}]}}'
        )
        result = run_module(path, tmp_path, "validate")
        assert result.returncode == EXIT_SCHEMA
        assert result.stderr == "error: trajectory.segments[0].params.level must be finite\n"

    INPUT_COMMANDS = [name for name, (_, options, _) in _SUBCOMMANDS.items() if "--input" in options]
    # Files that json.load refuses with something other than a JSONDecodeError.
    UNPARSABLE = {
        # RecursionError; 1,000 levels is 2 kB
        "nested-1000": b'{"model": ' + b"[" * 1000 + b"]" * 1000 + b"}",
        "nested-100000": b'{"model": ' + b"[" * 100000 + b"]" * 100000 + b"}",
        # ValueError: past the int-to-string digit limit
        "digits-5000": b'{"schema_version": 1, "segments": [{"start": 1' + b"0" * 4999 + b"}]}",
        # UnicodeDecodeError
        "latin-1": b'{"schema_version": 1, "label": "caf\xe9"}',
        # JSONDecodeError: a BOM is not JSON, and input is read as plain UTF-8
        "utf-8-bom": b'\xef\xbb\xbf{"schema_version": 1, "label": "x"}',
    }

    @pytest.mark.parametrize("name", sorted(UNPARSABLE))
    def test_unparsable_file_in_a_child(self, tmp_path, name):
        path = tmp_path / "bad.json"
        path.write_bytes(self.UNPARSABLE[name])
        result = run_module(path, tmp_path, "validate")
        assert result.returncode == EXIT_SCHEMA
        assert result.stderr.startswith(f"error: {path} is not valid JSON: ")
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")

    @pytest.mark.parametrize("command", INPUT_COMMANDS)
    @pytest.mark.parametrize("name", sorted(UNPARSABLE))
    def test_unparsable_file_on_every_command(self, tmp_path, capsys, command, name):
        path = tmp_path / "bad.json"
        path.write_bytes(self.UNPARSABLE[name])
        assert main([command, "--input", str(path), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path} is not valid JSON: ")
        assert err.count("\n") == 1 and err.endswith("\n")


def _unknown_key(*path, key="note"):
    """An edit that adds ``key`` to the object at ``path`` of a document."""

    def edit(d):
        for step in path:
            d = d[step]
        d[key] = 0.0

    return edit


def _misspell_epochs(d):
    d["maintenance_epoch"] = d.pop("maintenance_epochs")


SAWTOOTH = next(s for s in scenario_catalog() if s.label == "figure1-sawtooth")
# case -> (document kind, edit, the object's path and the key in the message)
UNKNOWN_KEYS = {
    # loaded before with no epochs, so validate exited 3 on three undeclared drops
    "maintenance-epochs-misspelt": ("trajectory", _misspell_epochs, "trajectory", "maintenance_epoch"),
    "trajectory": ("trajectory", _unknown_key(), "trajectory", "note"),
    "segment": ("trajectory", _unknown_key("segments", 2), "trajectory.segments[2]", "note"),
    "epoch": ("trajectory", _unknown_key("maintenance_epochs", 1), "trajectory.maintenance_epochs[1]", "note"),
    "scenario": ("scenario", _unknown_key(), "scenario", "note"),
    "model": ("scenario", _unknown_key("model"), "scenario.model", "note"),
    "growth": ("scenario", _unknown_key("model", "growth"), "scenario.model.growth", "note"),
    "policy": ("scenario", _unknown_key("policy"), "scenario.policy", "note"),
}


class TestUnknownKeys:
    """A key the schema does not name exits 2 on every command, with one
    line that names the key and the object holding it, and no artifact."""

    @pytest.mark.parametrize("command", TestMalformedInput.INPUT_COMMANDS)
    @pytest.mark.parametrize("name", sorted(UNKNOWN_KEYS))
    def test_exits_two_and_writes_nothing(self, tmp_path, capsys, command, name):
        kind, edit, where, key = UNKNOWN_KEYS[name]
        if kind == "scenario":
            document = scenario_to_dict(SAWTOOTH)
        else:
            document = trajectory_to_dict(build_trajectory(SAWTOOTH))
        edit(document)
        path = write_json(tmp_path / "input.json", document)
        out = tmp_path / "out"
        assert main([command, "--input", str(path), "--out", str(out)]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {where} has unknown key {key!r}; its keys are [")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert not out.exists()

    def test_misspelt_epochs_in_a_child(self, tmp_path):
        document = trajectory_to_dict(build_trajectory(SAWTOOTH))
        _misspell_epochs(document)
        result = run_module(write_json(tmp_path / "input.json", document), tmp_path, "validate")
        assert (result.returncode, result.stdout) == (EXIT_SCHEMA, "")
        assert result.stderr == (
            "error: trajectory has unknown key 'maintenance_epoch'; "
            "its keys are ['maintenance_epochs', 'schema_version', 'segments']\n"
        )


@pytest.fixture
def large_report_file(tmp_path):
    # 300 undeclared drops: a validate report of about 90 kB, past a pipe's 64 kB
    segments = (HazardSegment(float(i), Constant(0.3 if i % 2 else 0.5)) for i in range(600))
    traj = HazardTrajectory(tuple(segments))
    return write_json(tmp_path / "drops.json", trajectory_to_dict(traj))


class TestUnwritableStdout:
    """A stdout that cannot be written exits 2 with one line that names
    stdout, whether Python buffers it or not, and the interpreter adds no
    second error at exit."""

    @staticmethod
    def validate(path, stdout, buffering):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "riskcheck", "validate", "--input", str(path)],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("report", ["small", "large"])
    def test_a_full_device(self, valid_file, large_report_file, report, buffering):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        with open("/dev/full", "w") as full:
            result = self.validate(valid_file if report == "small" else large_report_file, full, buffering)
        message = "error: cannot write stdout: No space left on device\n"
        assert (result.returncode, result.stderr) == (EXIT_SCHEMA, message)

    @pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
    @pytest.mark.parametrize("report", ["small", "large"])
    def test_a_closed_pipe(self, valid_file, large_report_file, report, buffering):
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts: its first write fails
        try:
            result = self.validate(valid_file if report == "small" else large_report_file, write_end, buffering)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (EXIT_SCHEMA, "error: cannot write stdout: Broken pipe\n")


class TestInputEncodingAndVersion:
    def test_utf8_input_under_an_ascii_locale(self, tmp_path):
        # The locale's encoding is ASCII here; the file is still read as UTF-8.
        document = scenario_to_dict(scenario_catalog()[2])
        document["label"] = "café"
        path = tmp_path / "café.json"
        path.write_bytes(json.dumps(document, ensure_ascii=False).encode("utf-8"))
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONUTF8"))}
        result = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "riskcheck", "validate", "--input", str(path)],
            capture_output=True,
            env={**env, "LC_ALL": "POSIX"},
        )
        assert (result.returncode, result.stderr) == (EXIT_OK, b"")
        assert json.loads(result.stdout)["valid"] is True

    @pytest.mark.parametrize("version", [True, 1.0, "1"], ids=repr)
    @pytest.mark.parametrize("kind", ["trajectory", "scenario"])
    def test_schema_version_is_the_integer_one(self, tmp_path, capsys, kind, version):
        if kind == "trajectory":
            document = trajectory_to_dict(HazardTrajectory((HazardSegment(0.0, Constant(0.5)),)))
        else:
            document = scenario_to_dict(scenario_catalog()[0])
        path = write_json(tmp_path / "input.json", {**document, "schema_version": version})
        assert main(["validate", "--input", str(path)]) == EXIT_SCHEMA
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {kind}.schema_version must be 1\n")


class TestValidateOnce:
    def test_one_validator_pass_per_validate_of_a_scenario(self, scenario_file, monkeypatch, capsys):
        # build_trajectory validates what it compiles; the report is reused.
        passes = []
        original = riskcheck.hazard._principle_report

        def spy(table):
            passes.append(table)
            return original(table)

        monkeypatch.setattr(riskcheck.hazard, "_principle_report", spy)
        assert main(["validate", "--input", str(scenario_file)]) == EXIT_OK
        assert len(passes) == 1
        scenario = next(s for s in scenario_catalog() if s.label == "figure1-sawtooth")
        report = validate_trajectory(build_trajectory(scenario))
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(dataclasses.asdict(report)))


def _outcome(call):
    """(result or None, SystemExit code or None, stdout, stderr) of ``call()``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result, code = call(), None
        except SystemExit as exc:
            result, code = None, exc.code
    return result, code, out.getvalue(), err.getvalue()


# Command lines on both sides of the plain path's boundary: plain lines,
# and lines for the full parser (help, version, errors, abbreviations, "--",
# repeats, negative numbers and unknown commands).
PARSER_CASES = [
    [],
    ["--help"],
    ["-h"],
    ["--version"],
    ["--version", "validate"],
    ["explode"],
    ["explode", "--input", "in.json"],
    *([name, "--help"] for name in _SUBCOMMANDS),
    ["validate", "-h", "--bogus"],
    ["validate"],
    ["eval", "--input"],
    ["validate", "--input", "in.json"],
    ["eval", "--input", "in.json", "--grid-points", "ten"],
    ["validate", "--input", "in.json", "--bogus"],
    ["validate", "-x"],
    ["validate", "--input", "in.json", "extra"],
    ["validate", "--input", "in.json", "--version"],
    ["validate", "--input", "in.json", "--ver"],
    ["eval", "--inp", "in.json", "--grid", "5", "--t-m", "2"],
    ["validate", "--", "--input", "in.json"],
    ["validate", "--input", "in.json", "--"],
    ["sample", "--input", "a.json", "--input", "b.json", "--n", "5", "--n", "7"],
    ["compare", "--input=in.json", "--plot", "--pra-rate", "0.1", "--out", "o"],
    ["distance", "--input", "in.json", "--seed", "-3", "--t-max", "-1e3"],
    ["bound-check", "--input", "in.json", "--plot", "--workers", "2"],
    ["catalog"],
    ["catalog", "--input", "in.json"],
    ["catalog", "--out", "o"],
    ["validate", "--input", "in.json", "--out", ""],
    ["validate", "--input", "in.json", "--out", "-o"],
    ["bound-check", "--input", "in.json", "--plot", "--plot"],
    ["validate", "--input", "in.json", "--n", "5"],
    ["validate", "--out", "o", "--input"],
    ["eval", "--grid-points", "5"],
    ["sample", "--input", "in.json", "--n", "1_000"],
    ["eval", "--input", "in.json", "--t-max", "inf"],
    ["eval", "--input", "in.json", "--t-max", "nan"],
    ["eval", "--input", "in.json", "--grid-points", " 5 "],
    ["compare", "--pra-rate", "0.1", "--plot", "--t-max", "2.5", "--input", "in.json", "--out", "o"],
    ["distance", "--input", "in.json", "--seed", "3", "--n", "7", "--grid-points", "5"],
]

# Tokens that the parity property puts into command lines: names, values
# good and bad, "--opt=value" forms, "--" and help.
PARSER_TOKENS = st.sampled_from(
    [
        *_SUBCOMMANDS, *_OPTIONS, "--version", "-h", "--",
        "--input=in.json", "--n=5", "--plot=1", "--inp",
        "in.json", "o", "5", "0.5", "1e3", "1_000", "-3", "-1e3", "", " 5 ", "ten", "nan",
    ]
)


@st.composite
def parser_lines(draw):
    """A subcommand with some of its options in any order, each value option
    followed by a value (some not of its type), then up to two tokens
    inserted or replaced anywhere."""
    command = draw(st.sampled_from(list(_SUBCOMMANDS)))
    options = draw(st.permutations(_SUBCOMMANDS[command][1]))
    argv = [command]
    for option in options[: draw(st.integers(0, len(options)))]:
        argv.append(option)
        if "type" in _OPTIONS[option]:
            argv.append(draw(st.sampled_from(["5", " 5 ", "1_000", "0.5", "in.json"])))
    for _ in range(draw(st.integers(0, 2))):
        at, token = draw(st.integers(0, len(argv))), draw(PARSER_TOKENS)
        if at < len(argv) and draw(st.booleans()):
            argv[at] = token
        else:
            argv.insert(at, token)
    return argv


def assert_same_as_the_full_parser(argv):
    """``main(argv)``, with ``run`` stubbed, gives the result, exit code,
    stdout and stderr of ``build_parser().parse_args(argv)``."""
    configs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riskcheck.cli, "run", lambda config: configs.append(config) or EXIT_OK)
        code, exit_code, out, err = _outcome(lambda: main(list(argv)))
    options, *expected = _outcome(lambda: vars(build_parser().parse_args(list(argv))))
    assert [exit_code, out, err] == expected
    if options is None:
        assert code is None and configs == []
    else:
        assert code == EXIT_OK
        # repr, so that a nan --t-max compares equal to itself
        assert repr(configs) == repr([RunConfig(**{"seed": DEFAULT_SEED, **options})])


# Structure breaks that a trajectory file can express, each with the
# message every command prints for it.
MALFORMED = {
    "first-start-positive": (
        HazardTrajectory((HazardSegment(1.0, Constant(0.5)),)),
        "first segment must start at 0, got 1.0",
    ),
    "first-start-negative": (
        HazardTrajectory((HazardSegment(-1.0, Constant(0.5)),)),
        "first segment must start at 0, got -1.0",
    ),
    "starts-not-increasing": (
        HazardTrajectory(
            (
                HazardSegment(0.0, Constant(0.5)),
                HazardSegment(5.0, Constant(0.5)),
                HazardSegment(3.0, Constant(0.5)),
            )
        ),
        "segment start times must be strictly increasing (5.0 then 3.0)",
    ),
    "epoch-off-boundary": (
        HazardTrajectory(
            (HazardSegment(0.0, Linear(0.5, 0.1)), HazardSegment(5.0, Constant(0.5))),
            (MaintenanceEpoch(4.0, 0.5),),
        ),
        "maintenance epoch at t=4.0 does not coincide with a segment boundary",
    ),
    "epoch-repeated": (
        HazardTrajectory(
            (HazardSegment(0.0, Linear(0.5, 0.1)), HazardSegment(5.0, Constant(0.5))),
            (MaintenanceEpoch(5.0, 0.5), MaintenanceEpoch(5.0, 0.5)),
        ),
        "maintenance epochs must be strictly increasing and positive",
    ),
}


class TestMalformedStructure:
    """A structurally malformed trajectory file exits 2 on every command,
    ``bound-check`` included, with the message ``validate`` prints and no
    artifact written."""

    @pytest.mark.parametrize(
        "command", ["validate", "eval", "sample", "bound-check", "compare", "distance"]
    )
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exits_two_and_writes_nothing(self, name, command, tmp_path, capsys):
        traj, message = MALFORMED[name]
        path = write_json(tmp_path / "malformed.json", trajectory_to_dict(traj))
        out = tmp_path / "out"
        assert main([command, "--input", str(path), "--out", str(out)]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists() or not any(out.iterdir())


class TestArgumentParser:
    """main parses a plain command line from the option table, with the
    same result as the full parser, and leaves every other line to it."""

    @pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "<none>")
    def test_same_as_the_full_parser(self, argv):
        assert_same_as_the_full_parser(argv)

    @given(parser_lines())
    @settings(max_examples=400, deadline=None)
    def test_every_line_same_as_the_full_parser(self, argv):
        assert_same_as_the_full_parser(argv)

    def test_a_plain_line_builds_no_parser(self, valid_file, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        code, *_ = _outcome(lambda: main(["validate", "--input", str(valid_file), "--out", str(tmp_path)]))
        assert code == EXIT_OK
        assert built == []


class TestExitCodeContract:
    """Every command on every trajectory file exits 0, 2, 3 or 4 and never
    raises, whatever the parameters, window or grid size."""

    @given(
        fuzz_trajectories(),
        st.sampled_from(["validate", "eval", "sample", "bound-check", "compare", "distance"]),
        st.sampled_from([None, "1e-300", "0.5", "2000", "1e300"]),
        st.sampled_from([None, "2", "5", "20"]),
        st.booleans(),
    )
    @example(HazardTrajectory((NEGATIVE_CUBIC_AREA,)), "bound-check", None, None, False)
    @example(HazardTrajectory((NEGATIVE_START_STEEP,)), "bound-check", "2000", None, False)
    @example(HazardTrajectory((EXP_GROWTH,)), "distance", "2000", None, False)
    @example(HUGE_LINEAR, "sample", None, None, False)
    @example(HUGE_LINEAR, "distance", None, None, False)
    @example(TINY_CONSTANT, "distance", "1e-300", None, False)
    @example(FAR_BOUNDARY, "compare", None, None, False)
    @settings(max_examples=1200, deadline=None)
    def test_main_keeps_the_exit_code_contract(self, traj, command, t_max, grid_points, plot):
        with tempfile.TemporaryDirectory() as out:
            path = write_json(Path(out) / "trajectory.json", trajectory_to_dict(traj))
            argv = [command, "--input", str(path), "--out", out]
            accepted = _SUBCOMMANDS[command][1]
            for option, value in (("--t-max", t_max), ("--grid-points", grid_points), ("--n", "50")):
                if option in accepted and value is not None:
                    argv += [option, value]
            if "--plot" in accepted and plot:
                argv.append("--plot")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_PRINCIPLE, EXIT_ORDERING)

    @pytest.mark.parametrize("command", ["validate", "eval", "sample", "bound-check", "compare", "distance"])
    @pytest.mark.parametrize("kind", ["scenario", "trajectory"])
    def test_concave_power_scenario_exits_zero(self, kind, command, tmp_path):
        if kind == "scenario":
            document = scenario_to_dict(CONCAVE_THRESHOLD)
        else:
            document = trajectory_to_dict(build_trajectory(CONCAVE_THRESHOLD))
        path = write_json(tmp_path / "concave.json", document)
        argv = [command, "--input", str(path), "--out", str(tmp_path / "out")]
        if "--n" in _SUBCOMMANDS[command][1]:
            argv += ["--n", "50"]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            assert main(argv) == EXIT_OK, stderr.getvalue()

    @pytest.mark.parametrize("exponent", [0.0, -0.5])
    def test_power_model_without_a_positive_exponent_exits_two(self, exponent, tmp_path, capsys):
        # the model does not start at h0 = 0.1, so it is refused, not compiled
        model = Power(0.1, 0.1, exponent)
        scenario = Scenario("s", model, PeriodicPerfect(10.0), 30.0)
        path = write_json(tmp_path / "scenario.json", scenario_to_dict(scenario))
        assert main(["validate", "--input", str(path), "--out", str(tmp_path)]) == EXIT_SCHEMA
        assert capsys.readouterr().err == f"error: growth parameters out of range: {model!r}\n"


# Negative parameters never give a valid trajectory, so drawing only the
# others yields the same valid trajectories for less filtering.
VALID_FUZZ = fuzz_trajectories(fuzz_forms(st.sampled_from([p for p in FUZZ_PARAMS if p >= 0.0])))


class TestValidInput:
    """Every command that evaluates exits 0 on every valid trajectory: a
    valid input gets a number, not an error."""

    @given(
        VALID_FUZZ.filter(lambda traj: validate_trajectory(traj).valid),
        st.sampled_from(["eval", "sample", "bound-check", "compare", "distance"]),
        st.sampled_from([None, "0.5", "2000"]),
    )
    @example(TINY_ROOT_POWER, "compare", None)
    @example(TINY_ROOT_POWER, "distance", None)
    @example(NEAR_CONSTANT_EXP, "bound-check", None)
    @example(NEAR_CONSTANT_EXP, "compare", "0.5")
    @example(NEAR_CONSTANT_EXP, "distance", "2000")
    @settings(max_examples=150, deadline=None)
    def test_exits_zero(self, traj, command, t_max):
        with tempfile.TemporaryDirectory() as out:
            path = write_json(Path(out) / "trajectory.json", trajectory_to_dict(traj))
            argv = [command, "--input", str(path), "--out", out]
            accepted = _SUBCOMMANDS[command][1]
            for option, value in (("--t-max", t_max), ("--n", "50")):
                if option in accepted and value is not None:
                    argv += [option, value]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(argv)
        assert code == EXIT_OK, stderr.getvalue()


# numpy subpackages that riskcheck does without: it computes its Philox words
# itself and holds its Gauss-Legendre rule as constants.
UNUSED_NUMPY = ("numpy.random", "numpy.polynomial")


# What the standard hash module loads: riskcheck hashes with CPython's own
# SHA-256, so no command loads OpenSSL's libcrypto.
HASHLIB = ("hashlib", "_hashlib")


def loaded_after(code: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``
    (the last line of its stdout)."""
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint([m for m in {modules!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(result.stdout.splitlines()[-1])


class TestImportFootprint:
    def test_cli_does_not_import_scipy(self):
        # scipy is a test-only dependency; importing it costs more than half
        # a second of every CLI start
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, riskcheck.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.split() == ["[]"]
        # numpy 2 loads numpy.random and numpy.polynomial lazily, on first
        # use, and riskcheck uses neither, so no command pays for them;
        # numpy < 2 imports both itself, hence the plain ``import numpy``
        loaded = loaded_after("import riskcheck.cli", UNUSED_NUMPY)
        assert loaded == loaded_after("import numpy", UNUSED_NUMPY)
        if int(np.__version__.split(".")[0]) >= 2:
            assert loaded == []

    def test_sample_and_distance_load_no_unused_numpy(self, scenario_file, tmp_path):
        # neither command imports the subpackages lazily: the Philox words
        # and the MTTF quadrature use only numpy's core
        argv = ["--input", str(scenario_file), "--out", str(tmp_path), "--n", "50"]
        code = (
            "from riskcheck.cli import main\n"
            f"assert main(['sample', *{argv!r}]) == 0\n"
            f"assert main(['distance', *{argv!r}]) == 0"
        )
        assert loaded_after(code, UNUSED_NUMPY) == loaded_after("import numpy", UNUSED_NUMPY)
        assert (tmp_path / "samples.csv").exists() and (tmp_path / "distance.json").exists()

    def test_cli_does_not_import_hashlib(self):
        assert loaded_after("import riskcheck.cli", HASHLIB) == []

    def test_hashing_commands_load_no_hashlib(self, scenario_file, tmp_path):
        # each of these stamps its result with a trajectory hash, and distance
        # its grid with a grid hash
        common = ["--input", str(scenario_file), "--out", str(tmp_path)]
        commands = [["bound-check"], ["sample", "--n", "50"], ["compare"], ["distance", "--n", "50"]]
        code = "from riskcheck.cli import main\n" + "".join(
            f"assert main([*{command!r}, *{common!r}]) == 0\n" for command in commands
        )
        assert loaded_after(code, HASHLIB) == []
        assert json.loads((tmp_path / "distance.json").read_text())["grid_hash"]

    def test_a_plain_command_loads_no_argparse(self, scenario_file, tmp_path):
        # argparse and the gettext it uses for every message cost a few ms of
        # each CLI start; gettext's first translation lookup loads locale too
        loaded = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, riskcheck.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert loaded.stdout.split() == ["[]"]
        result = subprocess.run(
            [
                sys.executable, "-X", "importtime", "-m", "riskcheck",
                "validate", "--input", str(scenario_file), "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_OK
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
        assert "riskcheck.cli" in imported
        assert not {"argparse", "gettext", "locale"} & imported

    def test_help_still_works(self):
        result = subprocess.run(
            [sys.executable, "-m", "riskcheck", "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert result.stdout.startswith("usage: riskcheck")
        assert "validate" in result.stdout


NUMPY_DIR = os.path.join(os.path.dirname(np.__file__), "")


class TestNoNumpyCalls:
    """validate, eval and bound-check run no numpy code: its first calls in
    a fresh process cost more than such a command's whole calculus."""

    @pytest.mark.parametrize("argv", [["validate"], ["eval"], ["bound-check", "--plot"]])
    def test_command_enters_no_numpy_frame(self, argv, scenario_file, tmp_path, capsys):
        entered = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(NUMPY_DIR):
                entered.append(f"{frame.f_code.co_filename}:{frame.f_code.co_name}")
            elif event == "c_call" and str(getattr(arg, "__module__", "")).startswith("numpy"):
                entered.append(arg.__qualname__)

        sys.setprofile(profile)
        try:
            code = main([*argv, "--input", str(scenario_file), "--out", str(tmp_path)])
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        assert code == EXIT_OK
        assert entered == []


class TestSample:
    def test_artifacts_and_metadata(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert run(RunConfig("sample", input=scenario_file, out=out, n=200, seed=7)) == EXIT_OK
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "replicate,failure_time"
        assert len(lines) == 201
        meta = json.loads((out / "samples_meta.json").read_text())
        traj = build_trajectory(load_input(scenario_file)[1])
        assert meta["seed"] == 7
        assert meta["n"] == 200
        assert meta["generator"] == "numpy-philox4x64-counter-v2"
        assert meta["trajectory_hash"] == trajectory_hash(traj)

    def test_byte_identical_across_runs(self, scenario_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(RunConfig("sample", input=scenario_file, out=out, n=500, seed=3)) == EXIT_OK
        assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()
        assert (out_a / "samples_meta.json").read_bytes() == (out_b / "samples_meta.json").read_bytes()


class TestBoundCheckAndCompare:
    def test_summary_matches_library_bit_for_bit(self, scenario_file, tmp_path):
        assert run(RunConfig("bound-check", input=scenario_file, out=tmp_path)) == EXIT_OK
        traj = build_trajectory(load_input(scenario_file)[1])
        report = check_stochastic_order(traj, default_time_grid(traj))
        summary = json.loads((tmp_path / "comparison_summary.json").read_text())
        assert summary["sup_gap_h0"] == report.sup_gap_h0
        assert summary["ordering_holds"] is True
        csv_rows = (tmp_path / "comparison.csv").read_text().splitlines()[1:]
        parsed_gaps = [float(r.split(",")[4]) for r in csv_rows]
        assert max(parsed_gaps) == report.sup_gap_h0

    def test_compare_derives_rate_from_mttf(self, scenario_file, tmp_path):
        assert run(RunConfig("compare", input=scenario_file, out=tmp_path)) == EXIT_OK
        summary = json.loads((tmp_path / "comparison_summary.json").read_text())
        assert summary["pra"]["provenance"] == "derived_from_mttf"

    def test_compare_accepts_given_rate(self, scenario_file, tmp_path):
        assert run(
            RunConfig("compare", input=scenario_file, out=tmp_path, pra_rate=0.25)
        ) == EXIT_OK
        summary = json.loads((tmp_path / "comparison_summary.json").read_text())
        assert summary["pra"] == {"provenance": "given", "rate": 0.25}

    def test_plot_emitted(self, scenario_file, tmp_path):
        assert run(
            RunConfig("compare", input=scenario_file, out=tmp_path, emit_plot=True)
        ) == EXIT_OK
        svg = (tmp_path / "comparison.svg").read_text()
        assert svg.startswith("<svg")
        assert "true failure CDF" in svg

    def test_deterministic_outputs(self, scenario_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(
                RunConfig("bound-check", input=scenario_file, out=out, emit_plot=True)
            ) == EXIT_OK
        for name in ("comparison.csv", "comparison_summary.json", "comparison.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestDistance:
    def test_report_fields(self, scenario_file, tmp_path):
        assert run(
            RunConfig("distance", input=scenario_file, out=tmp_path, grid_points=12, n=500)
        ) == EXIT_OK
        report = json.loads((tmp_path / "distance.json").read_text())
        for key in ("lambda", "bound", "exact_tv", "ks", "n", "grid_hash"):
            assert key in report
        assert report["n"] == 12
        assert report["exact_tv"] is not None
        assert report["exact_tv"] <= report["bound"]

    def test_exact_tv_on_the_default_grid(self, scenario_file, tmp_path):
        assert run(
            RunConfig("distance", input=scenario_file, out=tmp_path, grid_points=64, n=200)
        ) == EXIT_OK
        report = json.loads((tmp_path / "distance.json").read_text())
        traj = build_trajectory(load_input(scenario_file)[1])
        proc = discretize(traj, default_time_grid(traj, 64)[1:])
        assert report["n"] == 64
        assert isinstance(report["exact_tv"], float)
        assert report["exact_tv"] <= report["bound"]
        assert report["exact_tv"] == pytest.approx(capped_exact_tv(proc), rel=0.0, abs=1e-12)


class TestCatalog:
    def test_materializes_loadable_scenarios(self, tmp_path):
        assert run(RunConfig("catalog", out=tmp_path)) == EXIT_OK
        files = sorted(tmp_path.glob("*.json"))
        assert len(files) == len(scenario_catalog())
        for path in files:
            kind, scenario = load_input(path)
            assert kind == "scenario"
            build_trajectory(scenario)

    def test_round_trip_hash_stable(self, tmp_path):
        assert run(RunConfig("catalog", out=tmp_path)) == EXIT_OK
        for scenario in scenario_catalog():
            original = trajectory_hash(build_trajectory(scenario))
            kind, reloaded = load_input(tmp_path / f"{scenario.label}.json")
            assert trajectory_hash(build_trajectory(reloaded)) == original


class TestArgumentParsing:
    def test_main_runs_validate(self, valid_file, tmp_path, capsys):
        assert main(["validate", "--input", str(valid_file), "--out", str(tmp_path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_env_seed_override(self, scenario_file, tmp_path, monkeypatch):
        """A set RISKCHECK_SEED no longer overrides the default seed."""
        monkeypatch.setenv("RISKCHECK_SEED", "4242")
        assert main(
            ["sample", "--input", str(scenario_file), "--out", str(tmp_path), "--n", "10"]
        ) == EXIT_OK
        assert json.loads((tmp_path / "samples_meta.json").read_text())["seed"] == DEFAULT_SEED

    def test_seed_flag_beats_env(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv("RISKCHECK_SEED", "4242")
        assert main(
            [
                "sample", "--input", str(scenario_file), "--out", str(tmp_path),
                "--n", "10", "--seed", "5",
            ]
        ) == EXIT_OK
        assert json.loads((tmp_path / "samples_meta.json").read_text())["seed"] == 5

    def test_seed_comes_only_from_the_command_line(self, scenario_file, tmp_path, monkeypatch):
        """RISKCHECK_SEED, set or malformed, changes no exit code, output or
        artifact byte: the seed is ``--seed`` or DEFAULT_SEED."""
        out = tmp_path / "out"
        common = ["--input", str(scenario_file), "--out", str(out)]
        lines = [
            ["validate", *common],
            ["eval", *common, "--grid-points", "8"],
            ["bound-check", *common, "--grid-points", "8", "--plot"],
            ["sample", *common, "--n", "10"],
            ["sample", *common, "--n", "10", "--seed", "5"],
            ["compare", *common, "--grid-points", "8", "--plot"],
            ["distance", *common, "--grid-points", "8", "--n", "10"],
            ["catalog", "--out", str(out)],
        ]

        def outcomes():
            results = []
            for argv in lines:
                shutil.rmtree(out, ignore_errors=True)
                outcome = _outcome(lambda: main(list(argv)))
                results.append((outcome, {p.name: p.read_bytes() for p in out.glob("*")}))
            return results

        monkeypatch.delenv("RISKCHECK_SEED", raising=False)
        unset = outcomes()
        assert [outcome[0] for outcome, _ in unset] == [EXIT_OK] * len(lines)
        seeds = [json.loads(files["samples_meta.json"])["seed"] for _, files in unset[3:5]]
        assert seeds == [DEFAULT_SEED, 5]
        assert json.loads(unset[6][1]["distance.json"])["seed"] == DEFAULT_SEED
        for value in ("not-a-number", "4242"):
            monkeypatch.setenv("RISKCHECK_SEED", value)
            assert outcomes() == unset, value

    def test_module_entry_point(self, valid_file, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "riskcheck",
                "validate", "--input", str(valid_file), "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["valid"] is True
