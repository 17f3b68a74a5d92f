"""Golden outputs: exact bytes that refactors must leave unchanged.

Pins the catalog's trajectory hashes and scenario files, the trajectory
hashes of a matrix of scenarios (every maintenance policy with every growth
law), and the exact ``validate`` report for one rule-breaking trajectory
per segment form, covering every principle-3 message and the principle-1
zero crossing (reported at t=inf when it lies beyond the largest float).

It also pins the ``eval.csv``, comparison, ``samples.csv`` and
``distance.json`` files of the catalog scenarios built of Constant and
Linear segments, whose inverses use only + - * / and sqrt.  Their time grid
and report columns come from ``math`` and IEEE arithmetic, so the ``eval``
and comparison files do not move with numpy's CPU dispatch.  The draws do:
each starts as ``-log(U)`` from ``np.log``, so ``samples.csv`` and the KS
statistic in ``distance.json`` follow numpy's ufunc implementation, and
these pins hold for its AVX-512 code paths.  The ``repr`` of
``mean_time_to_failure`` on the same scenarios, and on two single segments
whose upper H levels are reached late or never, does not move with it.
"""

import hashlib
import json

import pytest

from riskcheck.cli import EXIT_OK, EXIT_PRINCIPLE, main
from riskcheck.hazard import (
    Constant,
    ExponentialGrowth,
    HazardSegment,
    HazardTrajectory,
    Linear,
    Power,
    mean_time_to_failure,
)
from riskcheck.scenarios import (
    PeriodicImperfect,
    PeriodicPerfect,
    Scenario,
    ThresholdPerfect,
    build_trajectory,
    scenario_catalog,
)
from riskcheck.serialize import trajectory_hash

CATALOG_TRAJECTORY_HASHES = {
    "constant-control": "63223b8d21c3172c323ba8c8cb9ad289cbcf348c02aa3cc0995790fd17ab86fd",
    "unmaintained-linear": "87f0da391c471200f3f40c0a98664111e3bfc6c648bc2f711d903c2cef98c602",
    "figure1-sawtooth": "09106e38ac928546edd8aa89c7ce4924319764de712c82514ee583bd6e0f429c",
    "imperfect-drift": "22ab929222403e0264accb7bd34ee56c99b7d7d7dc619dc33a621028d7b46ba3",
    "threshold-power": "7502b86b35940fdea2885354632f9722e26215aabe500d78bbc848db251f0204",
}

# sha256 of each file written by `riskcheck catalog`.
CATALOG_FILE_HASHES = {
    "constant-control": "304420d3f4f6a7dcf058cc32a4a8fe50f4f8ad9a5ca19fb5f0c2ff402d618dbd",
    "unmaintained-linear": "b0a6f9c4d841c4d99f2c59b9031cb199294ffc7ee8e72346272cfe1622ef7e28",
    "figure1-sawtooth": "4300d88c0dc1fd5562422d44a432e33dcec306a2c9e9ca0f54f1628e6d88bae5",
    "imperfect-drift": "ae02476afdede38dad4305ee8cb6b247665b1dcd24fa7c1accb8ca5e407eb089",
    "threshold-power": "9379b323ea161b581eeeb9ffbd677dcd5603a00ca34e2b7fef1acf7a19970ac4",
}

# sha256 of samples.csv from `riskcheck sample --n 4000 --seed 1` on the
# catalog scenarios built of Constant and Linear segments.
CATALOG_SAMPLES_HASHES = {
    "constant-control": "de2737646b40ff59ec10c4fcdec766d7967662c8071bd0e47a311263e87b07ef",
    "unmaintained-linear": "a89e6a56051e1df98248ea866cbe503f505778b53d3281795552c4a4b6395ee6",
    "figure1-sawtooth": "6502037f6745ea00830b10ade98d77d49f4cc74f20fc0af01ae5f4adc1a14296",
    "imperfect-drift": "42a7e99eb486aa26093fe05f05ef2e1db17e058ed56ab951c59c22f868b20c71",
}

# sha256 of distance.json from `riskcheck distance --n 4000 --seed 1` on the
# same scenarios.
CATALOG_DISTANCE_HASHES = {
    "constant-control": "0152152b4024f21ee0b2b495e557438824580e19412d73b1674d4950e0a64c75",
    "unmaintained-linear": "25da4898a8d5ebd482d6cb4a5f3af3e40821483dfe7888695b415826a710f321",
    "figure1-sawtooth": "50959416856afeb853a6491e889fd39df0d9d48f256247c660c2e8213505aef8",
    "imperfect-drift": "4accfa9d317d976520e6b955005e1538899ba528423064227e7ec58fa0e846fd",
}


# repr of mean_time_to_failure on the same scenarios: their level times and
# panel nodes come from IEEE + - * / and sqrt, and math.exp.
CATALOG_MTTF_REPRS = {
    "constant-control": "1.999999999999999",
    "unmaintained-linear": "4.0556507920419635",
    "figure1-sawtooth": "4.135365966414228",
    "imperfect-drift": "4.078257727234283",
}

# A tiny h(0) under fast growth, so the tail bound is met only past H = 40,
# and a level time past the largest float from H = 0.25 up.
SINGLE_SEGMENT_MTTF_REPRS = {
    "linear-1e-6-1": (Linear(1e-6, 1.0), "1.2533131373161273"),
    "constant-1e-307": (Constant(1e-307), "9.999999999999995e+306"),
}


# sha256 of each file that `riskcheck eval`, `bound-check --plot` and
# `compare --plot` write on the default grid, for the same scenarios.
CATALOG_REPORT_HASHES = {
    "constant-control": {
        "eval": {"eval.csv": "fc77a2db563acfb7f725e84a28b54543117705b1ffc62615531cf175fb46d031"},
        "bound-check": {
            "comparison.csv": "a3f5a053f9b9bd8f0c4f69bcda792c96912d4ade8d32a0fd55c3c762a210e0b7",
            "comparison.svg": "f1670dd3ccb5b741f1700b36696cee0d9603b9798ba9749cddffd3bc2a40187a",
            "comparison_summary.json": "4645719707628d9a9d34ea089570eea2d181bbaa5fbd8fd2ec440853a1077c49",
        },
        "compare": {
            "comparison.csv": "70d3e30e64070ac210a41dbc94b81ceb6a3294e16339f79bfc2e5e414a9d1ce9",
            "comparison.svg": "9089b21176770a87bf3a58cdb9f7e2d0f09040f0ba083a06095ca068b75f1aa4",
            "comparison_summary.json": "92bc87f84ffc14090dd68a0c2aa5a435007b14c0bd4c25dd693806aa2c1dfcd5",
        },
    },
    "unmaintained-linear": {
        "eval": {"eval.csv": "e56fba66c67f13558794982cea98448ce5863ee55e3653276c914d6bd1b469d7"},
        "bound-check": {
            "comparison.csv": "0c38bb9e4e464878de4ab0c138ef8f0a4f81cbef79b6ff5b64fc8039e7ef0b29",
            "comparison.svg": "3f121fec9171672e632688c135d06259792f12e42686d410f180b89145ef5c97",
            "comparison_summary.json": "e54bb32dd87f533be04a87d12a4fb5fa568a1ec888d534f093cff71a69cbeffd",
        },
        "compare": {
            "comparison.csv": "ca06ded3edb7f1646d7ba74a74d36fa095559fcad4c58cf89aff9a648da3d741",
            "comparison.svg": "88d7700efa687d848f88d714b69895a587f46d67063ef397eb1d7dd4e79fbbaf",
            "comparison_summary.json": "46607778cc022e16206c826f117bcb9e37a79513ab013639cbe90f81aefe4b56",
        },
    },
    "figure1-sawtooth": {
        "eval": {"eval.csv": "205b3ef6b01bec60178bb28be351ac80ef9c962ec697d0ecb44d94a584d0b978"},
        "bound-check": {
            "comparison.csv": "7985d7ca2ee076338d0e3cb084240064487825c7b0ce6f69095dc9273d8475e1",
            "comparison.svg": "3a3b76cbcb37b547d9a51bb2bca0bf361b8a79af82289d06a2ea94f4846676ce",
            "comparison_summary.json": "790d628464e849a5eb436744889ab2f463c6f8d0de136e60bb6601f38778abaa",
        },
        "compare": {
            "comparison.csv": "6c6659309dde322862dceac4198f670e80ac61faa04294498b7b3ecdf8945fee",
            "comparison.svg": "8693d181cf8863f3eb46eab36f51e23278ecb5d1e15cdb101ae7de4cf55b23e2",
            "comparison_summary.json": "e5671ef726b8b0b162bcf5d251cb39c4125478176c286f8f18669d4f28dbf2db",
        },
    },
    "imperfect-drift": {
        "eval": {"eval.csv": "49b285075d725fe842d11049fd34bf9b9a9c01afcf9a2f012888ed811b1d37c8"},
        "bound-check": {
            "comparison.csv": "54e79c0cba1fc593844e5604fd5cb57131fb06162a236597908dae88a79651a6",
            "comparison.svg": "38f25ef39d1e89be3b717edcb1760b569993e32013fa21ddda04f8a9b0cbb40f",
            "comparison_summary.json": "5c4693f0f39be85e100500097d1eedc8540938e388c874de6716a244c56793cd",
        },
        "compare": {
            "comparison.csv": "ec3ef7da974c28700a5040afb66d638190529f35b3eaa388bb838a4239bda192",
            "comparison.svg": "f80da0de27e6565057d68e8292de96763d01e10525aeb27c592a6b649ece624a",
            "comparison_summary.json": "a6c8311f65e7aeafc1204ce5f6bb95d367dc85339d310ee75631807c329e427d",
        },
    },
}


# Scenario models: the first cycle's form, at h0 0.2.
GROWTHS = {
    "linear": Linear(0.2, 0.05),
    "power": Power(0.2, 0.02, 2.0),
    "exponential": ExponentialGrowth(0.2, 0.1),
}
ZERO_GROWTHS = {
    "linear": Linear(0.2, 0.0),
    "power": Power(0.2, 0.0, 2.0),
    "exponential": ExponentialGrowth(0.2, 0.0),
}
POLICIES = {
    "periodic-perfect": PeriodicPerfect(4.0),
    "periodic-imperfect": PeriodicImperfect(4.0, 0.6),
    "threshold": ThresholdPerfect(0.45),
}


def matrix_scenario(policy: str, growth: str, growths=GROWTHS) -> Scenario:
    """``growths[growth]`` under ``POLICIES[policy]`` over horizon 30."""
    return Scenario("m", growths[growth], POLICIES[policy], 30.0)


# "policy/growth" -> (trajectory hash, epoch count), h0 0.2 over horizon 30.
MATRIX_TRAJECTORY_HASHES = {
    "periodic-perfect/linear": ("5be12cc0c7cfbde90f6b734281976cba498bfaa6408d79914eac6c4745f7b5c1", 7),
    "periodic-imperfect/linear": ("57ba9458b291bac5a597fc9d9f2e7d628d98df50ad60cdf01b9d4e4b763662ff", 7),
    "threshold/linear": ("e1ba55bd4ad4ae24b1914374238b6a5580296af37846ca488fe66c9b18cab890", 6),
    "periodic-perfect/power": ("b5e492f9754a3dbce170bcb2a84f5bb6d1090a6da5be6426240339604876afcc", 7),
    "periodic-imperfect/power": ("040f691fdecfe76eabd1ec83720d03abafee239fbf3336e1f7eebd377a0ba508", 7),
    "threshold/power": ("00829ce5d2195fd5c6b7ae02b9458b1669800ce4504f25df3e24fa62f804ed0d", 8),
    "periodic-perfect/exponential": ("4a5072211d68ce7ce616ac1cf161058d1eaf9c9f3ea2476b8f331bb1564fd0f0", 7),
    "periodic-imperfect/exponential": ("07830d385b5dedf75d89ea667ae1c995ab0775235a3af9f77505c17bd97d28e6", 7),
    "threshold/exponential": ("62c0fe80619ed786f3fbbda511d83d536a17c7bdb3512c60aeccca755c2b0636", 3),
}
# Zero growth under any policy: one flat segment at h0 0.2, no epochs.
ZERO_GROWTH_HASH = "e4d2768957e9dfe06efe0e53ff147c4995cf6588a5ff41d7941cd345c319968c"
# Threshold epochs are at step, step + step, ...; 10 of these 21 differ
# from k * step in the last bits.
THRESHOLD_SUMMED_EPOCHS = (
    Scenario("m", ExponentialGrowth(0.2, 0.1), ThresholdPerfect(0.5), 200.0),
    "bdf409db112b29da59ac6b1c9d9f59bfed6267b791b70b90eec869347c3cbb09",
    21,
)
IMPERFECT_28_EPOCHS = (
    Scenario("m", Linear(0.1, 0.05), PeriodicImperfect(0.7, 0.3), 20.0),
    "cd4803edaf31053cda650ce5055dc55299cc826a4a77862248a92a43873fbb6b",
    28,
)


def segment(start, form, **params):
    return {"start": start, "form": form, "params": params}


def trajectory(*segments, epochs=()):
    return {
        "schema_version": 1,
        "segments": list(segments),
        "maintenance_epochs": [{"time": t, "post_hazard": p} for t, p in epochs],
    }


# name -> (trajectory JSON, expected violations as (principle, location, message), notes)
VALIDATE_CASES = {
    "constant-zero": (
        trajectory(segment(0, "constant", level=0.0)),
        [(1, 0.0, "hazard at segment start is 0.0, must be positive and finite")],
        [],
    ),
    "linear-negative-slope": (
        trajectory(segment(0, "linear", intercept=1.0, slope=-0.1)),
        [
            (3, 0.0, "segment decreases within its span (negative slope -0.1)"),
            (5, 0.0, "segment hazard falls below h(0)=1"),
            (1, 10.0, "hazard reaches zero inside the segment"),
        ],
        [],
    ),
    "linear-crossing-beyond-float-range": (
        trajectory(segment(0, "linear", intercept=1e300, slope=-1e-300)),
        [
            (3, 0.0, "segment decreases within its span (negative slope -1e-300)"),
            (5, 0.0, "segment hazard falls below h(0)=1e+300"),
            # at t = inf, past the largest float, which JSON writes as null
            (1, None, "hazard reaches zero inside the segment"),
        ],
        [],
    ),
    "power-negative-coefficient": (
        trajectory(segment(0, "power", base=1.0, coefficient=-0.5, exponent=2.0)),
        [
            (3, 0.0, "segment decreases within its span (negative coefficient -0.5)"),
            (5, 0.0, "segment hazard falls below h(0)=1"),
            (1, 1.4142135623730951, "hazard reaches zero inside the segment"),
        ],
        [],
    ),
    "power-crossing-overflows": (
        # (base / -coefficient) ** (1 / exponent) overflows the largest float
        trajectory(segment(0, "power", base=1e200, coefficient=-1e-100, exponent=0.5)),
        [
            (3, 0.0, "segment decreases within its span (negative coefficient -1e-100)"),
            (5, 0.0, "segment hazard falls below h(0)=1e+200"),
            # at t = inf, past the largest float, which JSON writes as null
            (1, None, "hazard reaches zero inside the segment"),
        ],
        [],
    ),
    "power-concave": (
        trajectory(segment(0, "power", base=0.5, coefficient=1.0, exponent=0.5)),
        [(3, 0.0, "segment decreases within its span (exponent 0.5 below 1)")],
        [],
    ),
    "power-singular-start": (
        trajectory(segment(0, "power", base=0.5, coefficient=1.0, exponent=-0.5)),
        [
            (1, 0.0, "hazard at segment start is inf, must be positive and finite"),
            (3, 0.0, "segment decreases within its span (exponent -0.5 below 1)"),
            (5, 0.0, "segment hazard falls below h(0)=inf"),
        ],
        [],
    ),
    "exponential-negative-growth": (
        trajectory(segment(0, "exponential_growth", base=1.0, growth=-0.1)),
        [
            (3, 0.0, "segment decreases within its span (negative growth -0.1)"),
            (5, 0.0, "segment hazard falls below h(0)=1"),
        ],
        [],
    ),
    "exponential-negative-base": (
        # the value falls from -0.1 toward -inf
        trajectory(segment(0, "exponential_growth", base=-0.1, growth=1.0)),
        [
            (1, 0.0, "hazard at segment start is -0.1, must be positive and finite"),
            (
                3,
                0.0,
                "segment decreases within its span (negative base -0.1 with positive growth 1)",
            ),
            (5, 0.0, "segment hazard falls below h(0)=-0.1"),
        ],
        [],
    ),
    "exponential-overflow": (
        trajectory(
            segment(0, "exponential_growth", base=0.1, growth=1.0),
            segment(800, "constant", level=1.0),
        ),
        [
            (1, 800.0, "hazard overflows to a non-finite value inside the segment"),
            (4, 800.0, "hazard drops inf -> 1 without a declared maintenance epoch"),
        ],
        [],
    ),
    "epochs": (
        trajectory(
            segment(0, "linear", intercept=0.5, slope=0.05),
            segment(10, "constant", level=0.2),
            segment(20, "linear", intercept=0.9, slope=0.0),
            segment(30, "constant", level=0.3),
            segment(40, "constant", level=0.6),
            epochs=[(20, 0.8), (30, 0.3)],
        ),
        [
            (4, 10.0, "hazard drops 1 -> 0.2 without a declared maintenance epoch"),
            (5, 10.0, "segment hazard falls below h(0)=0.5"),
            (
                2,
                20.0,
                "declared post-maintenance hazard 0.8 does not match the right-limit 0.9 "
                "of the following segment",
            ),
            (4, 20.0, "declared maintenance does not strictly decrease the hazard (0.2 -> 0.8)"),
            (5, 30.0, "segment hazard falls below h(0)=0.5"),
            (5, 30.0, "post-maintenance hazard 0.3 below h(0)=0.5"),
        ],
        ["upward jump 0.3 -> 0.6 at t=40 (shock; permitted)"],
    ),
}


def test_catalog_trajectory_hashes():
    hashes = {s.label: trajectory_hash(build_trajectory(s)) for s in scenario_catalog()}
    assert hashes == CATALOG_TRAJECTORY_HASHES


@pytest.mark.parametrize("name", sorted(MATRIX_TRAJECTORY_HASHES))
def test_matrix_trajectory_hashes(name):
    policy, growth = name.split("/")
    traj = build_trajectory(matrix_scenario(policy, growth))
    assert (trajectory_hash(traj), len(traj.maintenance_epochs)) == MATRIX_TRAJECTORY_HASHES[name]


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("growth", sorted(ZERO_GROWTHS))
def test_zero_growth_trajectory_hash(policy, growth):
    scenario = matrix_scenario(policy, growth, ZERO_GROWTHS)
    assert trajectory_hash(build_trajectory(scenario)) == ZERO_GROWTH_HASH


@pytest.mark.parametrize(
    "case", [THRESHOLD_SUMMED_EPOCHS, IMPERFECT_28_EPOCHS], ids=["threshold-summed", "imperfect-28"]
)
def test_long_schedule_trajectory_hashes(case):
    scenario, expected_hash, epochs = case
    traj = build_trajectory(scenario)
    assert (trajectory_hash(traj), len(traj.maintenance_epochs)) == (expected_hash, epochs)


def test_catalog_scenario_files(tmp_path, capsys):
    assert main(["catalog", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    hashes = {
        label: hashlib.sha256((tmp_path / f"{label}.json").read_bytes()).hexdigest()
        for label in CATALOG_FILE_HASHES
    }
    assert hashes == CATALOG_FILE_HASHES


@pytest.mark.parametrize("label", sorted(CATALOG_SAMPLES_HASHES))
def test_catalog_samples_bytes(label, tmp_path, capsys):
    assert main(["catalog", "--out", str(tmp_path)]) == EXIT_OK
    scenario, out = tmp_path / f"{label}.json", tmp_path / "samples"
    argv = ["sample", "--input", str(scenario), "--out", str(out), "--n", "4000", "--seed", "1"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
    assert digest == CATALOG_SAMPLES_HASHES[label]


@pytest.mark.parametrize("label", sorted(CATALOG_DISTANCE_HASHES))
def test_catalog_distance_bytes(label, tmp_path, capsys):
    assert main(["catalog", "--out", str(tmp_path)]) == EXIT_OK
    scenario, out = tmp_path / f"{label}.json", tmp_path / "distance"
    argv = ["distance", "--input", str(scenario), "--out", str(out), "--n", "4000", "--seed", "1"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256((out / "distance.json").read_bytes()).hexdigest()
    assert digest == CATALOG_DISTANCE_HASHES[label]


REPORT_COMMANDS = {
    "eval": ["eval"],
    "bound-check": ["bound-check", "--plot"],
    "compare": ["compare", "--plot"],
}


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
@pytest.mark.parametrize("label", sorted(CATALOG_REPORT_HASHES))
def test_catalog_report_bytes(label, command, tmp_path, capsys):
    assert main(["catalog", "--out", str(tmp_path)]) == EXIT_OK
    scenario, out = tmp_path / f"{label}.json", tmp_path / command
    assert main([*REPORT_COMMANDS[command], "--input", str(scenario), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert hashes == CATALOG_REPORT_HASHES[label][command]


@pytest.mark.parametrize("name", sorted(VALIDATE_CASES))
def test_validate_report_bytes(name, tmp_path, capsys):
    document, violations, notes = VALIDATE_CASES[name]
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(document))
    assert main(["validate", "--input", str(path), "--out", str(tmp_path)]) == EXIT_PRINCIPLE
    expected = {
        "valid": False,
        "violations": [
            {"principle": p, "location": loc, "message": msg} for p, loc, msg in violations
        ],
        "notes": notes,
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_catalog_mttf_reprs():
    scenarios = [s for s in scenario_catalog() if s.label in CATALOG_MTTF_REPRS]
    reprs = {s.label: repr(mean_time_to_failure(build_trajectory(s))) for s in scenarios}
    assert reprs == CATALOG_MTTF_REPRS


@pytest.mark.parametrize("name", sorted(SINGLE_SEGMENT_MTTF_REPRS))
def test_single_segment_mttf_repr(name):
    form, expected = SINGLE_SEGMENT_MTTF_REPRS[name]
    traj = HazardTrajectory((HazardSegment(0.0, form),))
    assert repr(mean_time_to_failure(traj)) == expected
