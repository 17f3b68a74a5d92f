"""Long trajectories through the row table.

A trajectory file loads into columns and builds its segment objects only
when something reads them.  At a thousand segments of all four forms, with
every boundary kind, a loaded trajectory must validate, hash, evaluate,
compare and pickle exactly as the trajectory built from objects does, and
a malformed row must be reported as the row-by-row loader reports it.
"""

import copy
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_canonical_json, reference_check_structure, reference_validate_trajectory
from riskcheck.cli import EXIT_OK, main
from riskcheck.hazard import (
    HazardSegment,
    Linear,
    MaintenanceEpoch,
    TrajectoryStructureError,
    _check_structure,
    validate_trajectory,
)
from riskcheck.scenarios import PeriodicImperfect, PeriodicPerfect, Scenario, build_trajectory
from riskcheck.serialize import (
    _CHUNK_ROWS,
    SchemaError,
    _canonical_trajectory_json,
    load_input,
    scenario_to_dict,
    trajectory_from_dict,
    trajectory_hash,
    trajectory_to_dict,
)
from trajgen import (
    STRUCTURE_BREAKS,
    break_structure,
    interleaved_trajectory,
    random_long_trajectory,
    scatter_violations,
)

# Every boundary of this one is a declared epoch, as in a compiled scenario.
SAWTOOTH_SCENARIO = Scenario("sawtooth", Linear(0.1, 0.05), PeriodicImperfect(0.5, 0.5), 500.0)
SAWTOOTH = build_trajectory(SAWTOOTH_SCENARIO)
SOURCES = {
    "random": random_long_trajectory,
    "sawtooth": lambda rng: SAWTOOTH,
}
# Perfect maintenance repeats every cycle's form and post-hazard, so most of
# its numbers recur across rows.
PERFECT = build_trajectory(Scenario("perfect", Linear(0.1, 0.05), PeriodicPerfect(0.5), 500.0))
# Segment and epoch counts on both sides of the seams between the pieces
# the hash is fed, with the four form classes in turn; a file has at least
# one segment.
SEAM_COUNTS = (1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1)
HASH_SOURCES = {
    **SOURCES,
    "perfect": lambda rng: PERFECT,
    "seams": lambda rng: interleaved_trajectory(int(rng.choice(SEAM_COUNTS)), int(rng.choice((0,) + SEAM_COUNTS))),
}


def loaded(traj):
    """``traj`` written as JSON text and loaded back."""
    return trajectory_from_dict(json.loads(json.dumps(trajectory_to_dict(traj))))


def outcome(validate, traj) -> str:
    """The report, or the structure error, as text: repr keeps every field,
    the order of the violations and notes, and the spelling of each float."""
    try:
        return repr(validate(traj))
    except TrajectoryStructureError as exc:
        return f"TrajectoryStructureError: {exc}"


def test_the_sources_are_long_and_mixed():
    traj = random_long_trajectory(np.random.default_rng(0))
    assert len(traj.segments) == 1000 and len(SAWTOOTH.segments) == 1001
    assert len({type(seg.form) for seg in traj.segments}) == 4
    assert len(SAWTOOTH.maintenance_epochs) == 1000
    report = validate_trajectory(traj)
    assert report.valid and report.notes  # upward shocks
    assert 0 < len(traj.maintenance_epochs) < 999  # drops and continuous changes


class TestLoadedAsBuilt:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(SOURCES)), st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_same_report(self, seed, source, broken):
        rng = np.random.default_rng(seed)
        built = SOURCES[source](rng)
        if broken:
            built = scatter_violations(built, rng)
        expected = outcome(reference_validate_trajectory, built)
        assert outcome(validate_trajectory, loaded(built)) == expected
        assert outcome(validate_trajectory, built) == expected
        assert ("valid=False" in expected) == broken

    @given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(HASH_SOURCES)))
    @example(0, "perfect")
    @example(0, "seams")
    @settings(max_examples=6, deadline=None)
    def test_same_hash_text(self, seed, source):
        built = HASH_SOURCES[source](np.random.default_rng(seed))
        text = reference_canonical_json(built)
        assert _canonical_trajectory_json(loaded(built)) == text == _canonical_trajectory_json(built)
        assert trajectory_hash(loaded(built)) == hashlib.sha256(text.encode()).hexdigest()

    @given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(SOURCES)))
    @settings(max_examples=6, deadline=None)
    def test_same_profile_bit_for_bit(self, seed, source):
        built = SOURCES[source](np.random.default_rng(seed))

        def bits(profile):
            return [[x.hex() for x in column] for column in profile]

        assert bits(loaded(built)._profile) == bits(built._profile)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(SOURCES)))
    @settings(max_examples=6, deadline=None)
    def test_indistinguishable(self, seed, source):
        built = SOURCES[source](np.random.default_rng(seed))
        traj = loaded(built)
        assert pickle.dumps(traj) == pickle.dumps(built)
        assert traj == built and hash(traj) == hash(built) and repr(traj) == repr(built)
        assert pickle.loads(pickle.dumps(traj)) == built
        assert traj.segments == built.segments
        assert traj.maintenance_epochs == built.maintenance_epochs

    def test_a_pickle_holds_no_memo(self):
        traj = loaded(SAWTOOTH)
        before = pickle.dumps(traj)
        validate_trajectory(traj)
        trajectory_hash(traj)
        assert pickle.dumps(traj) == before == pickle.dumps(SAWTOOTH)


class TestStructureAtScale:
    """The structure check reads the table and reports the first fault in
    the reference's order."""

    @pytest.mark.parametrize("kind", STRUCTURE_BREAKS)
    @pytest.mark.parametrize("seed", range(4))
    def test_same_error(self, kind, seed):
        rng = np.random.default_rng(seed)
        broken = break_structure(random_long_trajectory(rng), kind, rng)

        def error(traj):
            try:
                check = reference_check_structure if traj is None else _check_structure
                check(broken if traj is None else traj)
            except TrajectoryStructureError as exc:
                return str(exc)
            return None

        expected = error(None)
        assert expected is not None
        assert error(broken) == expected
        try:
            reloaded = loaded(broken)
        except SchemaError:  # a non-finite number: the loader refuses it first
            assert kind.startswith("nonfinite") or kind == "no_segments"
        else:
            assert error(reloaded) == expected

    def test_every_call_raises(self):
        rng = np.random.default_rng(5)
        broken = loaded(break_structure(random_long_trajectory(rng), "epoch_off_boundary", rng))
        for _ in range(2):
            with pytest.raises(TrajectoryStructureError, match="does not coincide"):
                validate_trajectory(broken)

    def test_a_report_is_computed_once(self):
        traj = loaded(SAWTOOTH)
        assert validate_trajectory(traj) is validate_trajectory(traj)


@pytest.fixture(scope="module", params=["trajectory", "scenario"])
def long_file(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("long") / "long.json"
    if request.param == "trajectory":
        document = trajectory_to_dict(random_long_trajectory(np.random.default_rng(11)))
    else:
        document = scenario_to_dict(SAWTOOTH_SCENARIO)
    path.write_text(json.dumps(document))
    return path


class TestNoSegmentObjects:
    """The commands that read a long trajectory file or compile a long
    scenario only through the table build no segment or epoch object."""

    @pytest.mark.parametrize(
        "args",
        [("validate",), ("eval", "--grid-points", "16"), ("bound-check",), ("compare", "--pra-rate", "0.5")],
        ids=lambda args: args[0],
    )
    def test_builds_none(self, long_file, tmp_path, monkeypatch, capsys, args):
        built = []
        for cls in (HazardSegment, MaintenanceEpoch):
            original = cls.__post_init__

            def spy(self, original=original):
                built.append(type(self).__name__)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", spy)
        command, *options = args
        argv = [command, "--input", str(long_file), "--out", str(tmp_path), *options]
        assert main(argv) == EXIT_OK, capsys.readouterr().err
        assert built == []
        # the spy sees what a read of the fields builds
        traj = load_input(long_file)[1]
        traj = build_trajectory(traj) if isinstance(traj, Scenario) else traj
        fields = len(traj.segments) + len(traj.maintenance_epochs)
        assert len(built) == fields >= 1000


FORM_NAMES = "['constant', 'exponential_growth', 'linear', 'power']"


def _row(d, i):
    return d["segments"][i]


def _first_param(d, i):
    return next(iter(_row(d, i)["params"]))


# case -> (edit of row i of a long file, the SchemaError message of row i);
# each message is the one the row-by-row loader gives.
MALFORMED = {
    "non-object": (lambda d, i: d["segments"].__setitem__(i, [0.0]), "trajectory.segments[{i}] must be an object"),
    "missing-start": (lambda d, i: _row(d, i).pop("start"), "trajectory.segments[{i}].start must be a number"),
    "missing-params": (
        lambda d, i: _row(d, i).pop("params"),
        "trajectory.segments[{i}].params must be an object",
    ),
    "bool-start": (lambda d, i: _row(d, i).update(start=True), "trajectory.segments[{i}].start must be a number"),
    "string-param": (
        lambda d, i: _row(d, i)["params"].update({_first_param(d, i): "0.1"}),
        "trajectory.segments[{i}].params.{param} must be a number",
    ),
    "1e999-param": (
        lambda d, i: _row(d, i)["params"].update({_first_param(d, i): json.loads("1e999")}),
        "trajectory.segments[{i}].params.{param} must be finite",
    ),
    "unknown-form": (
        lambda d, i: _row(d, i).update(form="sinusoid"),
        f"trajectory.segments[{{i}}].form must be one of {FORM_NAMES}, got 'sinusoid'",
    ),
    "params-of-another-form": (
        lambda d, i: _row(d, i).update(params={"growth": 0.1, "rate": 0.2}),
        "trajectory.segments[{i}].params for '{form}' must have exactly keys {keys}",
    ),
    "epoch-string-time": (
        lambda d, i: d["maintenance_epochs"][0].update(time="1.0"),
        "trajectory.maintenance_epochs[0].time must be a number",
    ),
    "unknown-key": (
        lambda d, i: _row(d, i).update(note=""),
        "trajectory.segments[{i}] has unknown key 'note'; its keys are ['form', 'params', 'start']",
    ),
    "epoch-unknown-key": (
        lambda d, i: d["maintenance_epochs"][-1].update(note=""),
        "trajectory.maintenance_epochs[{last}] has unknown key 'note'; its keys are ['post_hazard', 'time']",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_row_of_a_long_file(case):
    rng = np.random.default_rng(len(case))
    d = trajectory_to_dict(random_long_trajectory(rng))
    i = int(rng.integers(1, 1000))
    row = copy.deepcopy(_row(d, i))
    edit, message = MALFORMED[case]
    param = next(iter(row["params"]))
    keys = sorted(row["params"])
    edit(d, i)
    with pytest.raises(SchemaError) as info:
        trajectory_from_dict(d)
    last = len(d["maintenance_epochs"]) - 1
    assert str(info.value) == message.format(i=i, param=param, form=row["form"], keys=keys, last=last)


def test_integers_load_as_their_floats():
    # Integers load as their floats, through the columns as through the rows.
    built = random_long_trajectory(np.random.default_rng(3))
    d, twin = trajectory_to_dict(built), trajectory_to_dict(built)
    d["segments"][0]["start"] = 0
    d["segments"][500].update(form="constant", params={"level": 2})
    twin["segments"][500].update(form="constant", params={"level": 2.0})
    assert trajectory_from_dict(d) == trajectory_from_dict(twin)
    assert trajectory_hash(trajectory_from_dict(d)) == trajectory_hash(trajectory_from_dict(twin))
