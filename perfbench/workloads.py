"""Workloads of the riskcheck benchmark: their inputs and command lists.

Each workload is a list of inputs and, per input, the CLI commands an
analyst runs on it, in order.  Inputs are written only through riskcheck's
public API (``scenario_from_dict`` / ``scenario_to_dict``,
``build_trajectory``, ``trajectory_to_dict``, ``dump_json``).  The workload
seed reaches the program only as the ``--seed`` of ``sample`` and
``distance``; the input files do not depend on it.

Two scales exist: ``full`` is what the benchmark measures, ``tiny`` is the
same command mix on small inputs for the harness self-check.
"""

from __future__ import annotations

from dataclasses import dataclass

# Why each workload exists (README.md has the full table):
# - catalog: the five built-in scenarios (1-7 segments) through every command,
#   as an analyst uses them.  Import and per-replicate Philox stream setup
#   dominate and segment lookup does almost nothing, so it is the bypass case
#   for hazard-lookup changes.
# - long-forward: a 4,001-segment sawtooth passed as a trajectory file.
#   Forward calculus H(t) on a grid plus parsing and hashing the file do the
#   work; it never samples and never computes MTTF, so it is the bypass case
#   for sampling and quadrature changes.
# - long-inverse: a 101-segment threshold-maintained power-law scenario.
#   Every draw is a Newton inversion (a power segment with a nonzero base has
#   no closed-form inverse) and MTTF quadrature sits on the critical path of
#   compare and distance.
NAMES = ("catalog", "long-forward", "long-inverse")

# Scenario JSON (schema v1) of the two stress inputs, per scale.
_LONG_FORWARD = {
    "schema_version": 1,
    "label": "long-forward",
    "model": {"h0": 0.1, "growth": {"form": "linear", "params": {"slope": 0.05}}},
    "policy": {"kind": "periodic_perfect", "params": {"period": 0.1}},
    "horizon": {"full": 400.0, "tiny": 20.0},
}
_LONG_INVERSE = {
    "schema_version": 1,
    "label": "long-inverse",
    "model": {
        "h0": 0.2,
        "growth": {"form": "power", "params": {"coefficient": 0.02, "exponent": 2.0}},
    },
    "policy": {"kind": "threshold_perfect", "params": {"trigger_hazard": 0.7}},
    "horizon": {"full": 500.0, "tiny": 30.0},
}

# The long-run failure rate of the long-forward sawtooth, h0 + slope * period / 2,
# given to compare as the practitioner's rate: computing the default 1/MTTF
# there is O(segments^2) today and would take minutes.
_LONG_FORWARD_PRA_RATE = 0.1025

# Sizes per workload and scale: grid points, grid end (None: the CLI default
# 5/h(0)) and draws per sample/distance command.
SIZES = {
    "catalog": {"full": (64, None, 4000), "tiny": (16, None, 200)},
    "long-forward": {"full": (32, 400.0, 0), "tiny": (16, 20.0, 0)},
    "long-inverse": {"full": (64, None, 2000), "tiny": (16, None, 200)},
}


@dataclass(frozen=True)
class Invocation:
    """One CLI command on one input; ``args`` follow ``--input``/``--out``."""

    label: str
    command: str
    args: tuple[str, ...]
    grid_points: int
    n: int
    seed: int | None
    pra_rate: float | None
    plot: bool


@dataclass(frozen=True)
class Workload:
    name: str
    labels: tuple[str, ...]
    invocations: tuple[Invocation, ...]
    sizes: dict


def _grid_args(grid_points: int, t_max: float | None) -> tuple[str, ...]:
    args = ("--grid-points", str(grid_points))
    return args + (("--t-max", repr(t_max)) if t_max is not None else ())


def workload(name: str, seed: int, scale: str = "full") -> Workload:
    """The command list of workload ``name``; ``seed`` goes to ``--seed``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    grid_points, t_max, n = SIZES[name][scale]
    grid = _grid_args(grid_points, t_max)
    draws = ("--n", str(n), "--seed", str(seed))

    def inv(label, command, args=(), seed_=None, pra_rate=None, plot=False, n_=0):
        return Invocation(label, command, tuple(args), grid_points, n_, seed_, pra_rate, plot)

    def full_mix(label: str) -> list[Invocation]:
        return [
            inv(label, "validate"),
            inv(label, "eval", grid),
            inv(label, "bound-check", grid),
            inv(label, "sample", draws, seed_=seed, n_=n),
            inv(label, "compare", grid + (("--plot",) if name == "catalog" else ()),
                plot=name == "catalog"),
            inv(label, "distance", grid + draws, seed_=seed, n_=n),
        ]

    if name == "catalog":
        labels = CATALOG_LABELS
        invocations = [i for label in labels for i in full_mix(label)]
    elif name == "long-forward":
        labels = ("long-forward",)
        pra = ("--pra-rate", repr(_LONG_FORWARD_PRA_RATE))
        invocations = [
            inv("long-forward", "validate"),
            inv("long-forward", "eval", grid),
            inv("long-forward", "bound-check", grid),
            inv("long-forward", "compare", grid + pra, pra_rate=_LONG_FORWARD_PRA_RATE),
        ]
    else:
        labels = ("long-inverse",)
        invocations = full_mix("long-inverse")
    sizes = {"grid_points": grid_points, "t_max": t_max, "draws": n}
    return Workload(name, labels, tuple(invocations), sizes)


# Labels of riskcheck.scenario_catalog(), in catalog order.  Checked against
# the program when the inputs are written.
CATALOG_LABELS = (
    "constant-control",
    "unmaintained-linear",
    "figure1-sawtooth",
    "imperfect-drift",
    "threshold-power",
)


def write_inputs(name: str, scale: str, directory) -> dict:
    """Write the inputs of workload ``name`` into ``directory``.

    Calls into riskcheck, so run it in a process whose caches do not
    matter.  Returns, per input label, its path, kind, segment count and
    ``trajectory_hash``.
    """
    from riskcheck import scenarios, serialize

    def scenario_input(scenario) -> tuple[str, dict, object]:
        return "scenario", serialize.scenario_to_dict(scenario), scenarios.build_trajectory(scenario)

    def from_wire(spec: dict):
        return serialize.scenario_from_dict({**spec, "horizon": spec["horizon"][scale]})

    if name == "catalog":
        items = [(s.label, *scenario_input(s)) for s in scenarios.scenario_catalog()]
        labels = tuple(label for label, *_ in items)
        if labels != CATALOG_LABELS:
            raise RuntimeError(f"scenario_catalog() labels changed: {labels}")
    elif name == "long-forward":
        traj = scenarios.build_trajectory(from_wire(_LONG_FORWARD))
        items = [("long-forward", "trajectory", serialize.trajectory_to_dict(traj), traj)]
    else:
        items = [("long-inverse", *scenario_input(from_wire(_LONG_INVERSE)))]

    out = {}
    for label, kind, document, traj in items:
        path = serialize.dump_json(directory / f"{label}.json", document)
        out[label] = {
            "path": str(path),
            "kind": kind,
            "segments": len(traj.segments),
            "trajectory_hash": serialize.trajectory_hash(traj),
        }
    return out
