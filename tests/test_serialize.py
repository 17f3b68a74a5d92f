"""JSON schemas: round trips, strictness, hashing, input sniffing."""

import copy
import gc
import hashlib
import json
import math
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskcheck.hazard import (
    Constant,
    ExponentialGrowth,
    HazardSegment,
    HazardTrajectory,
    Linear,
    MaintenanceEpoch,
    Power,
)
import riskcheck.serialize
from riskcheck.scenarios import PeriodicPerfect, Scenario, build_trajectory, scenario_catalog
from oracles import reference_canonical_json
from riskcheck.serialize import (
    _CHUNK_ROWS,
    SchemaError,
    _canonical_trajectory_json,
    grid_hash,
    json_text,
    load_input,
    scenario_from_dict,
    scenario_to_dict,
    trajectory_from_dict,
    trajectory_hash,
    trajectory_to_dict,
)
from test_golden import GROWTHS, POLICIES, THRESHOLD_SUMMED_EPOCHS, ZERO_GROWTHS, matrix_scenario
from trajgen import interleaved_trajectory, random_valid_trajectory

MIXED = HazardTrajectory(
    (
        HazardSegment(0.0, Linear(0.1, 0.05)),
        HazardSegment(10.0, Power(0.35, 0.02, 2.0)),
        HazardSegment(17.5, ExponentialGrowth(0.4, 0.1)),
        HazardSegment(25.0, Constant(0.9)),
    ),
    (MaintenanceEpoch(10.0, 0.35), MaintenanceEpoch(17.5, 0.4)),
)


def strict_loads(text: str):
    """``text`` parsed as strict JSON: ``Infinity``, ``-Infinity`` and
    ``NaN``, which ``json`` accepts by default, raise."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


# Documents of the kinds the artifacts hold: nested dicts, lists and tuples
# of strings, booleans, integers, None and floats, numpy's included.
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=5),
    FINITE_FLOATS, FINITE_FLOATS.map(np.float64),
)


def json_documents(leaves):
    children = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=5), inner, max_size=4),
        ),
        max_leaves=20,
    )
    return st.dictionaries(st.text(max_size=5), children, max_size=4)


class TestJsonText:
    """The one JSON layout writes strict JSON: null for a number that is not
    finite, and for finite documents what ``json.dumps`` always wrote."""

    @given(json_documents(JSON_LEAVES))
    @settings(max_examples=200, deadline=None)
    def test_a_finite_document_keeps_its_bytes(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @given(json_documents(st.one_of(JSON_LEAVES, st.sampled_from([math.inf, -math.inf, math.nan]))))
    @settings(max_examples=200, deadline=None)
    def test_every_document_is_strict_json(self, obj):
        strict_loads(json_text(obj))

    def test_non_finite_numbers_are_null(self):
        obj = {"a": math.inf, "b": [-math.inf, np.float64("nan"), 1.5], "c": (0.1, {"d": math.nan})}
        assert strict_loads(json_text(obj)) == {"a": None, "b": [None, None, 1.5], "c": [0.1, {"d": None}]}


class TestTrajectoryRoundTrip:
    def test_identity(self):
        assert trajectory_from_dict(trajectory_to_dict(MIXED)) == MIXED

    def test_hash_stable_across_round_trips(self):
        once = trajectory_from_dict(trajectory_to_dict(MIXED))
        twice = trajectory_from_dict(trajectory_to_dict(once))
        assert trajectory_hash(MIXED) == trajectory_hash(once) == trajectory_hash(twice)

    def test_json_serializable(self):
        text = json.dumps(trajectory_to_dict(MIXED))
        assert trajectory_from_dict(json.loads(text)) == MIXED

    def test_hash_sensitive_to_values(self):
        other = HazardTrajectory((HazardSegment(0.0, Constant(0.5)),))
        assert trajectory_hash(other) != trajectory_hash(MIXED)


def api_trajectories(numbers, max_segments=6, max_epochs=4):
    """Trajectories built through the API, which need not be valid, with
    every field of every form class drawn from ``numbers``."""
    forms = st.one_of(
        st.builds(Constant, numbers),
        st.builds(Linear, numbers, numbers),
        st.builds(Power, numbers, numbers, numbers),
        st.builds(ExponentialGrowth, numbers, numbers),
    )
    return st.builds(
        HazardTrajectory,
        st.lists(st.builds(HazardSegment, numbers, forms), min_size=1, max_size=max_segments),
        st.lists(st.builds(MaintenanceEpoch, numbers, numbers), max_size=max_epochs),
    )


# Any float, nan and the infinities included.
API_TRAJECTORIES = api_trajectories(st.floats())
# Every field from one small pool, so that numbers repeat across fields and
# rows, the two zeros meet, and non-finite values collide.
SHARED_POOL = [0.0, -0.0, 0.1, 1.0, 5e-324, 1e16, math.inf, -math.inf, math.nan]
POOLED_TRAJECTORIES = api_trajectories(st.sampled_from(SHARED_POOL), max_segments=8, max_epochs=8)
NAN, OTHER_NAN = math.nan, float("nan")


def one_segment(start, form, epochs=()):
    return HazardTrajectory((HazardSegment(start, form),), epochs)


# 10,001 segments: its canonical JSON is about a megabyte.
LONG_SAWTOOTH = Scenario("perfect", Linear(0.1, 0.05), PeriodicPerfect(0.1), 1000.0)

# Row counts on both sides of each seam between the pieces the hash is fed.
SEAM_COUNTS = (0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1)


class TestCanonicalJson:
    """The hash's text, joined from per-form pieces and one text per distinct
    number, is the JSON the dict tree dumps to
    (``oracles.reference_canonical_json``), byte for byte."""

    @staticmethod
    def check(traj):
        text = _canonical_trajectory_json(traj)
        assert text == reference_canonical_json(traj)
        assert trajectory_hash(traj) == hashlib.sha256(text.encode()).hexdigest()

    @given(API_TRAJECTORIES)
    @example(one_segment(-0.0, Linear(-0.0, 1.0), (MaintenanceEpoch(1.0, -0.0),)))
    @example(one_segment(0.0, Power(math.inf, -math.inf, math.nan)))
    @example(one_segment(0.0, ExponentialGrowth(-math.inf, 0.5), (MaintenanceEpoch(math.nan, math.inf),)))
    @example(one_segment(5e-324, Constant(5e-324), (MaintenanceEpoch(5e-324, -5e-324),)))
    @example(one_segment(1e16, Linear(1e-5, 9999999999999998.0), (MaintenanceEpoch(1e16, 0.0001),)))
    @example(one_segment(0.30000000000000004, Constant(0.30000000000000004)))
    @settings(max_examples=300, deadline=None)
    def test_api_built_trajectories(self, traj):
        self.check(traj)

    @given(POOLED_TRAJECTORIES)
    @example(one_segment(-0.0, Constant(1.0), (MaintenanceEpoch(0.0, 1.0),)))
    @example(
        HazardTrajectory(
            (HazardSegment(0.0, Linear(0.0, -0.0)), HazardSegment(1.0, Linear(-0.0, 0.0))),
            (MaintenanceEpoch(1.0, -0.0),),
        )
    )
    @example(one_segment(NAN, Linear(NAN, OTHER_NAN), (MaintenanceEpoch(OTHER_NAN, NAN),)))
    @example(one_segment(0.0, Constant(0.1), (MaintenanceEpoch(1e16, 0.1), MaintenanceEpoch(0.1, 1e16))))
    @settings(max_examples=300, deadline=None)
    def test_repeated_numbers(self, traj):
        """A number's text is formatted once and then reused: it must be
        reused only where the value, zero's sign included, is the same."""
        self.check(traj)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_generated_trajectories(self, seed):
        self.check(random_valid_trajectory(np.random.default_rng(seed), max_segments=12))

    def test_every_form_class(self):
        self.check(MIXED)

    @pytest.mark.parametrize("n_epochs", SEAM_COUNTS)
    @pytest.mark.parametrize("n_segments", SEAM_COUNTS)
    def test_chunk_seams_change_no_byte(self, n_segments, n_epochs):
        self.check(interleaved_trajectory(n_segments, n_epochs))

    def test_the_hash_is_fed_pieces(self, monkeypatch):
        """sha256 is fed the canonical JSON in pieces far smaller than the
        whole."""
        traj = build_trajectory(LONG_SAWTOOTH)
        assert len(traj._table[0]) == 10_001
        fed = []

        class Recorder:
            def update(self, data):
                fed.append(bytes(data))

            def hexdigest(self):
                return hashlib.sha256(b"".join(fed)).hexdigest()

        monkeypatch.setattr(riskcheck.serialize, "sha256", Recorder)
        digest = trajectory_hash(traj)
        monkeypatch.undo()
        text = _canonical_trajectory_json(traj).encode()
        assert b"".join(fed) == text
        assert digest == hashlib.sha256(text).hexdigest() == trajectory_hash(traj)
        assert max(map(len, fed)) <= len(text) / 10


# Hashes the pickled (trajectories, grids) on stdin with CPython's own
# SHA-256 modules hidden, as in a build without them.
HIDDEN_BUILTIN_HASHES = """
import hashlib, json, pickle, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import riskcheck.serialize as serialize
assert serialize.sha256 is hashlib.sha256, serialize.sha256
trajectories, grids = pickle.load(sys.stdin.buffer)
print(json.dumps({
    "trajectories": {name: serialize.trajectory_hash(traj) for name, traj in trajectories.items()},
    "grids": [serialize.grid_hash(grid) for grid in grids],
}))
"""


class TestHashFallback:
    """Without CPython's own SHA-256, riskcheck hashes with hashlib's; both
    give hashlib's digest of the canonical text."""

    def test_the_fallback_gives_the_same_digests(self):
        trajectories = {scenario.label: build_trajectory(scenario) for scenario in scenario_catalog()}
        trajectories["long-sawtooth"] = build_trajectory(LONG_SAWTOOTH)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            trajectories[f"generated-{seed}"] = random_valid_trajectory(rng, max_segments=12)
        trajectories["interleaved"] = interleaved_trajectory(2 * _CHUNK_ROWS + 1, _CHUNK_ROWS)
        grids = [[0.0], [0.0, 0.5, 1e-300, 7.25], np.linspace(0.0, 50.0, 64)]
        result = subprocess.run(
            [sys.executable, "-c", HIDDEN_BUILTIN_HASHES],
            input=pickle.dumps((trajectories, grids)),
            capture_output=True,
            check=True,
        )
        fallback = json.loads(result.stdout)
        for name, traj in trajectories.items():
            expected = hashlib.sha256(_canonical_trajectory_json(traj).encode()).hexdigest()
            assert trajectory_hash(traj) == fallback["trajectories"][name] == expected, name
        for grid, hidden in zip(grids, fallback["grids"]):
            payload = json.dumps({"grid": [float(t) for t in grid]}, sort_keys=True, separators=(",", ":"))
            assert grid_hash(grid) == hidden == hashlib.sha256(payload.encode()).hexdigest()


# The catalog, then every policy with every growth law of the golden matrix,
# growing and at zero scale.
ROUND_TRIP_SCENARIOS = {
    **{s.label: s for s in scenario_catalog()},
    **{f"{p}/{g}": matrix_scenario(p, g) for p in POLICIES for g in GROWTHS},
    **{
        f"{p}/zero-{g}": matrix_scenario(p, g, ZERO_GROWTHS)
        for p in POLICIES
        for g in ZERO_GROWTHS
    },
}


class TestScenarioRoundTrip:
    @pytest.mark.parametrize(
        "scenario", ROUND_TRIP_SCENARIOS.values(), ids=ROUND_TRIP_SCENARIOS.keys()
    )
    def test_identity_and_build_hash(self, scenario):
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        assert rebuilt == scenario
        assert trajectory_hash(build_trajectory(rebuilt)) == trajectory_hash(
            build_trajectory(scenario)
        )
        TestCanonicalJson.check(build_trajectory(scenario))

    def test_exponential_model_json(self):
        # h0 0.2 growing by exponential rate 0.1
        model = scenario_to_dict(THRESHOLD_SUMMED_EPOCHS[0])["model"]
        assert json.dumps(model, sort_keys=True) == (
            '{"growth": {"form": "exponential_growth", "params": {"rate": 0.1}}, "h0": 0.2}'
        )


class TestSchemaStrictness:
    def base(self):
        return trajectory_to_dict(MIXED)

    def test_wrong_schema_version(self):
        d = self.base()
        d["schema_version"] = 2
        with pytest.raises(SchemaError, match="schema_version"):
            trajectory_from_dict(d)

    def test_unknown_form(self):
        d = self.base()
        d["segments"][0]["form"] = "sinusoid"
        with pytest.raises(SchemaError, match="form"):
            trajectory_from_dict(d)

    def test_missing_param(self):
        d = self.base()
        del d["segments"][0]["params"]["slope"]
        with pytest.raises(SchemaError, match="params"):
            trajectory_from_dict(d)

    def test_extra_param(self):
        d = self.base()
        d["segments"][0]["params"]["bias"] = 1.0
        with pytest.raises(SchemaError, match="params"):
            trajectory_from_dict(d)

    def test_non_numeric_value(self):
        d = self.base()
        d["segments"][0]["start"] = "zero"
        with pytest.raises(SchemaError, match="number"):
            trajectory_from_dict(d)

    def test_boolean_is_not_a_number(self):
        d = self.base()
        d["maintenance_epochs"][0]["time"] = True
        with pytest.raises(SchemaError, match="number"):
            trajectory_from_dict(d)

    def test_empty_segments(self):
        d = self.base()
        d["segments"] = []
        with pytest.raises(SchemaError, match="segments"):
            trajectory_from_dict(d)

    def test_scenario_bad_policy(self):
        d = scenario_to_dict(scenario_catalog()[0])
        d["policy"]["kind"] = "heroic"
        with pytest.raises(SchemaError, match="kind"):
            scenario_from_dict(d)

    def test_scenario_missing_label(self):
        d = scenario_to_dict(scenario_catalog()[0])
        del d["label"]
        with pytest.raises(SchemaError, match="label"):
            scenario_from_dict(d)


# Two segments and an epoch; each case below breaks the version, the segment
# list, the second segment or the epoch, so the checks that run before it pass.
PLAIN = {
    "schema_version": 1,
    "segments": [
        {"start": 0.0, "form": "linear", "params": {"intercept": 0.1, "slope": 0.05}},
        {"start": 10.0, "form": "constant", "params": {"level": 0.1}},
    ],
    "maintenance_epochs": [{"time": 10.0, "post_hazard": 0.1}],
}
FORM_NAMES = "['constant', 'exponential_growth', 'linear', 'power']"


def _second(**fields):
    return lambda d: d["segments"][1].update(fields)


def _epoch(**fields):
    return lambda d: d["maintenance_epochs"][0].update(fields)


def _drop(key):
    return lambda d: d["segments"][1].pop(key)


# case -> (edit of PLAIN, the SchemaError message)
MESSAGES = {
    "schema-version-wrong": (
        lambda d: d.__setitem__("schema_version", 2),
        "trajectory.schema_version must be 1",
    ),
    "segments-empty-array": (
        lambda d: d.__setitem__("segments", []),
        "trajectory.segments must be a nonempty array",
    ),
    "segments-object": (
        lambda d: d.__setitem__("segments", {}),
        "trajectory.segments must be a nonempty array",
    ),
    "segment-not-object": (
        lambda d: d["segments"].__setitem__(1, 3.0),
        "trajectory.segments[1] must be an object",
    ),
    "start-missing": (_drop("start"), "trajectory.segments[1].start must be a number"),
    "start-bool": (_second(start=True), "trajectory.segments[1].start must be a number"),
    "start-string": (_second(start="ten"), "trajectory.segments[1].start must be a number"),
    "start-nan": (_second(start=math.nan), "trajectory.segments[1].start must be finite"),
    "form-unknown": (
        _second(form="sinusoid"),
        f"trajectory.segments[1].form must be one of {FORM_NAMES}, got 'sinusoid'",
    ),
    "form-missing": (
        _drop("form"),
        f"trajectory.segments[1].form must be one of {FORM_NAMES}, got None",
    ),
    "params-not-object": (_second(params=[0.1]), "trajectory.segments[1].params must be an object"),
    "params-extra-key": (
        _second(params={"level": 0.1, "bias": 0.0}),
        "trajectory.segments[1].params for 'constant' must have exactly keys ['level']",
    ),
    "params-empty": (
        _second(params={}),
        "trajectory.segments[1].params for 'constant' must have exactly keys ['level']",
    ),
    "param-string": (
        _second(params={"level": "high"}),
        "trajectory.segments[1].params.level must be a number",
    ),
    "param-infinite": (
        _second(params={"level": -math.inf}),
        "trajectory.segments[1].params.level must be finite",
    ),
    "epochs-not-array": (
        lambda d: d.__setitem__("maintenance_epochs", {"time": 10.0}),
        "trajectory.maintenance_epochs must be an array",
    ),
    "epoch-not-object": (
        lambda d: d.__setitem__("maintenance_epochs", [[10.0, 0.1]]),
        "trajectory.maintenance_epochs[0] must be an object",
    ),
    "epoch-time-missing": (
        lambda d: d["maintenance_epochs"][0].pop("time"),
        "trajectory.maintenance_epochs[0].time must be a number",
    ),
    "epoch-time-bool": (_epoch(time=False), "trajectory.maintenance_epochs[0].time must be a number"),
    "epoch-post-hazard-infinite": (
        _epoch(post_hazard=math.inf),
        "trajectory.maintenance_epochs[0].post_hazard must be finite",
    ),
    # the last two raised TypeError and OverflowError before
    "form-unhashable": (
        _second(form=["constant"]),
        f"trajectory.segments[1].form must be one of {FORM_NAMES}, got ['constant']",
    ),
    "param-integer-past-float-range": (
        _second(params={"level": 10**340}),
        "trajectory.segments[1].params.level must be finite",
    ),
    # unknown keys, which loaded before as if absent
    "top-level-unknown-key": (
        lambda d: d.__setitem__("maintenance_epoch", d.pop("maintenance_epochs")),
        "trajectory has unknown key 'maintenance_epoch'; "
        "its keys are ['maintenance_epochs', 'schema_version', 'segments']",
    ),
    "segment-unknown-key": (
        _second(note="repaired"),
        "trajectory.segments[1] has unknown key 'note'; its keys are ['form', 'params', 'start']",
    ),
    "segment-misspelt-key": (
        lambda d: d["segments"][1].__setitem__("strat", d["segments"][1].pop("start")),
        "trajectory.segments[1] has unknown key 'strat'; its keys are ['form', 'params', 'start']",
    ),
    "epoch-unknown-key": (
        _epoch(kind="perfect"),
        "trajectory.maintenance_epochs[0] has unknown key 'kind'; its keys are ['post_hazard', 'time']",
    ),
    "unknown-key-after-schema-version": (
        lambda d: d.update(schema_version=2, extra=1),
        "trajectory.schema_version must be 1",
    ),
}

# case -> (edit of a catalog scenario's dict, the SchemaError message)
SCENARIO_KEY_MESSAGES = {
    "top-level": (
        lambda d: d.update(seed=7),
        "scenario has unknown key 'seed'; its keys are ['horizon', 'label', 'model', 'policy', 'schema_version']",
    ),
    "model": (
        lambda d: d["model"].update(h1=0.2),
        "scenario.model has unknown key 'h1'; its keys are ['growth', 'h0']",
    ),
    "growth": (
        lambda d: d["model"]["growth"].update(kind="linear"),
        "scenario.model.growth has unknown key 'kind'; its keys are ['form', 'params']",
    ),
    "policy": (
        lambda d: d["policy"].update(form="periodic_perfect"),
        "scenario.policy has unknown key 'form'; its keys are ['kind', 'params']",
    ),
}


class TestSchemaErrorMessages:
    """The exact message of every check in trajectory_from_dict."""

    @pytest.mark.parametrize("edit, message", MESSAGES.values(), ids=MESSAGES.keys())
    def test_message(self, edit, message):
        d = copy.deepcopy(PLAIN)
        edit(d)
        with pytest.raises(SchemaError) as info:
            trajectory_from_dict(d)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "growth, message",
        [
            (
                {"form": "sinusoid", "params": {"rate": 0.1}},
                "scenario.model.growth.form must be one of "
                "['exponential_growth', 'linear', 'power'], got 'sinusoid'",
            ),
            (
                {"form": "constant", "params": {"level": 0.1}},
                "scenario.model.growth.form must be one of "
                "['exponential_growth', 'linear', 'power'], got 'constant'",
            ),
            (
                {"form": "exponential_growth", "params": {"growth": 0.1}},
                "scenario.model.growth.params for 'exponential_growth' must have exactly keys ['rate']",
            ),
            (
                {"form": "exponential_growth", "params": {"rate": 0.1, "base": 0.2}},
                "scenario.model.growth.params for 'exponential_growth' must have exactly keys ['rate']",
            ),
            (
                {"form": "exponential_growth", "params": {"rate": math.inf}},
                "scenario.model.growth.params.rate must be finite",
            ),
        ],
        ids=["unknown-form", "constant-form", "field-name", "base-param", "rate-infinite"],
    )
    def test_growth_message(self, growth, message):
        d = scenario_to_dict(scenario_catalog()[0])
        d["model"]["growth"] = growth
        with pytest.raises(SchemaError) as info:
            scenario_from_dict(d)
        assert str(info.value) == message

    @pytest.mark.parametrize("edit, message", SCENARIO_KEY_MESSAGES.values(), ids=SCENARIO_KEY_MESSAGES.keys())
    def test_scenario_unknown_key(self, edit, message):
        d = scenario_to_dict(scenario_catalog()[0])
        edit(d)
        with pytest.raises(SchemaError) as info:
            scenario_from_dict(d)
        assert str(info.value) == message

    def test_unhashable_growth_form(self):
        d = scenario_to_dict(scenario_catalog()[0])
        d["model"]["growth"]["form"] = {"a": 1}
        with pytest.raises(SchemaError, match=r"scenario\.model\.growth\.form must be one of .*got \{'a': 1\}"):
            scenario_from_dict(d)

    def test_integer_past_the_float_range(self):
        d = scenario_to_dict(scenario_catalog()[0])
        d["horizon"] = -(10**400)
        with pytest.raises(SchemaError, match=r"^scenario\.horizon must be finite$"):
            scenario_from_dict(d)

    def test_integer_valued_fields_load_as_floats(self):
        def load(start, level):
            d = copy.deepcopy(PLAIN)
            d["segments"][0]["start"] = start
            d["segments"][1]["params"]["level"] = level
            d["maintenance_epochs"][0]["post_hazard"] = level
            return trajectory_from_dict(d)

        as_ints, as_floats = load(0, 1), load(0.0, 1.0)
        assert trajectory_hash(as_ints) == trajectory_hash(as_floats)
        assert as_ints == as_floats
        assert type(as_ints.segments[0].start_time) is float


class TestLoadInput:
    def test_sniffs_trajectory(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(trajectory_to_dict(MIXED)))
        kind, obj = load_input(path)
        assert kind == "trajectory" and obj == MIXED

    def test_sniffs_scenario(self, tmp_path):
        scenario = scenario_catalog()[2]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        kind, obj = load_input(path)
        assert kind == "scenario" and obj == scenario

    def test_unrecognized_shape(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"something": 1}')
        with pytest.raises(SchemaError, match="neither"):
            load_input(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="JSON"):
            load_input(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            load_input(tmp_path / "absent.json")

    def test_holds_one_copy_of_the_file(self, tmp_path):
        # No more than a parse of the text alone: the bytes are dropped once
        # decoded and the text once parsed.  The slack, 1% of the file, is
        # for the few small objects of the call itself.
        path = tmp_path / "long.json"
        traj = build_trajectory(Scenario("perfect", Linear(0.1, 0.05), PeriodicPerfect(0.1), 400.0))
        path.write_text(json.dumps(trajectory_to_dict(traj)), encoding="utf-8")
        assert len(traj._table[0]) == 4001

        def traced_peak(load):
            load()  # once untraced, so that what a first call caches is not counted
            gc.collect()
            tracemalloc.start()
            try:
                load()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        parsed_text = traced_peak(lambda: trajectory_from_dict(json.loads(path.read_text(encoding="utf-8"))))
        assert traced_peak(lambda: load_input(path)) <= parsed_text + path.stat().st_size / 100
