"""Golden outputs: exact bytes that refactors must leave unchanged.

Pins the catalog's trajectory hashes and scenario files, and the exact
``validate`` report for one rule-breaking trajectory per segment form,
covering every principle-3 message and the principle-1 zero crossing
(reported at t=inf when it lies beyond the largest float).
"""

import hashlib
import json

import pytest

from riskcheck.cli import EXIT_OK, EXIT_PRINCIPLE, main
from riskcheck.scenarios import build_trajectory, scenario_catalog
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
            (1, float("inf"), "hazard reaches zero inside the segment"),
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
            (1, float("inf"), "hazard reaches zero inside the segment"),
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


def test_catalog_scenario_files(tmp_path, capsys):
    assert main(["catalog", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    hashes = {
        label: hashlib.sha256((tmp_path / f"{label}.json").read_bytes()).hexdigest()
        for label in CATALOG_FILE_HASHES
    }
    assert hashes == CATALOG_FILE_HASHES


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
