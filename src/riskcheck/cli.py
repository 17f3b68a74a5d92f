"""Command-line front end.

Subcommands: validate, eval, sample, bound-check, compare, distance,
catalog.  Inputs are trajectory or scenario JSON files (scenarios are
compiled first).  Outputs are CSV/JSON artifacts, plus an SVG overlay of
the CDF comparators with ``--plot``.

Exit codes: 0 success, 2 schema/structure error, unwritable output or a
size too large to allocate, 3 principle violation, 4 ordering violation
(bound-check).  All outputs are deterministic for a fixed (input, config);
the sampling seed is ``--seed`` or, without it, DEFAULT_SEED.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .compare import (
    PraModel,
    check_stochastic_order,
    comparison_summary,
    default_time_grid,
    pra_rate_from_mttf,
    underestimation_report,
    write_comparison_csv,
)
from .hazard import (
    HazardTrajectory,
    PrincipleViolationError,
    _check_structure,
    cumulative_hazard,
    ensure_valid,
    failure_probability,
    hazard_at,
    mean_time_to_failure,
    survival_probability,
    validate_trajectory,
)
from .poisson import discretize, exact_tv_small, ks_distance, stein_chen_tv_bound
from .sampling import sample_replicates, write_samples_csv
from .scenarios import build_trajectory, scenario_catalog
from .serialize import (
    SchemaError,
    dump_json,
    grid_hash,
    json_text,
    load_input,
    scenario_to_dict,
    trajectory_hash,
    write_artifact,
)
from .svgplot import PALETTE, Series, line_chart_svg

__all__ = ["DEFAULT_SEED", "RunConfig", "run", "main"]

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_PRINCIPLE = 3
EXIT_ORDERING = 4


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: Path | None = None
    out: Path = Path(".")
    grid_points: int = 64
    t_max: float | None = None
    n: int = 10000
    seed: int = DEFAULT_SEED
    emit_plot: bool = False
    pra_rate: float | None = None


def _load_trajectory(config: RunConfig, *, check: bool) -> HazardTrajectory:
    """The input's trajectory; with ``check``, a trajectory file must pass
    :func:`ensure_valid`.  A scenario is always valid here, since
    ``build_trajectory`` checks what it compiles."""
    if config.input is None:
        raise SchemaError(f"command {config.command!r} requires --input")
    kind, obj = load_input(config.input)
    if kind == "scenario":
        return build_trajectory(obj)
    return ensure_valid(obj) if check else obj


def _out_dir(config: RunConfig) -> Path:
    config.out.mkdir(parents=True, exist_ok=True)
    return config.out


def _report_plot(config: RunConfig, grid, report, title: str) -> None:
    if not config.emit_plot:
        return
    series = [
        Series("true failure CDF", report.f_true, PALETTE[0]),
        Series("1 - exp(-h(0) t) bound", report.f_h0_bound, PALETTE[1], dasharray="6 3"),
        Series("exponential comparator", report.f_pra, PALETTE[2], dasharray="2 3"),
    ]
    svg = line_chart_svg(grid, series, title, "time", "probability")
    path = write_artifact(_out_dir(config) / "comparison.svg", svg)
    print(f"wrote {path}")


def _cmd_validate(config: RunConfig) -> int:
    report = validate_trajectory(_load_trajectory(config, check=False))
    print(json_text(dataclasses.asdict(report)), end="")
    return EXIT_OK if report.valid else EXIT_PRINCIPLE


def _eval_row(traj: HazardTrajectory, t: float) -> str:
    cumulative = cumulative_hazard(traj, t)
    return (
        f"{t:.17g},{hazard_at(traj, t):.17g},{cumulative:.17g},"
        f"{survival_probability(cumulative):.17g},{failure_probability(cumulative):.17g}\n"
    )


def _cmd_eval(config: RunConfig) -> int:
    traj = _load_trajectory(config, check=True)
    grid = default_time_grid(traj, config.grid_points, config.t_max)
    path = write_artifact(
        _out_dir(config) / "eval.csv", "t,h,H,R,F\n", (_eval_row(traj, t) for t in grid)
    )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_sample(config: RunConfig) -> int:
    traj = _load_trajectory(config, check=True)
    draws = sample_replicates(traj, config.n, config.seed)
    csv_path, meta_path = write_samples_csv(
        _out_dir(config), draws, config.seed, trajectory_hash(traj)
    )
    print(f"wrote {csv_path}")
    print(f"wrote {meta_path}")
    return EXIT_OK


def _write_comparison(config: RunConfig, traj, report, model: PraModel | None) -> None:
    out = _out_dir(config)
    csv_path = write_comparison_csv(out / "comparison.csv", report)
    summary_path = dump_json(
        out / "comparison_summary.json",
        comparison_summary(report, trajectory_hash(traj), model),
    )
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")


def _cmd_bound_check(config: RunConfig) -> int:
    # Deliberately no principle validation of a trajectory file: the point of
    # this command is the numeric ordering check itself, and a rule-breaking
    # trajectory is exactly what should be able to trip exit code 4.  Its
    # structure is still checked: a malformed file describes no trajectory.
    # A scenario is validated in full, by build_trajectory when it compiles.
    traj = _load_trajectory(config, check=False)
    _check_structure(traj)
    grid = default_time_grid(traj, config.grid_points, config.t_max)
    report = check_stochastic_order(traj, grid)
    _write_comparison(config, traj, report, model=None)
    _report_plot(config, grid, report, "Failure CDF vs exponential bound")
    if not report.ordering_holds:
        print(
            f"ordering violated: min gap {report.min_gap:.3e}",
            file=sys.stderr,
        )
        return EXIT_ORDERING
    print(f"ordering holds; sup gap vs h(0) bound: {report.sup_gap_h0:.17g}")
    return EXIT_OK


def _cmd_compare(config: RunConfig) -> int:
    traj = _load_trajectory(config, check=True)
    if config.pra_rate is not None:
        model = PraModel(rate=config.pra_rate, provenance="given")
    else:
        model = pra_rate_from_mttf(mean_time_to_failure(traj))
    grid = default_time_grid(traj, config.grid_points, config.t_max)
    report = underestimation_report(traj, model, grid)
    _write_comparison(config, traj, report, model)
    _report_plot(config, grid, report, "Failure CDF vs exponential comparators")
    print(
        f"sup gap vs h(0) bound: {report.sup_gap_h0:.17g}; "
        f"sup gap vs rate-{model.rate:.6g} exponential: {report.sup_gap_pra:.17g}"
    )
    return EXIT_OK


def _cmd_distance(config: RunConfig) -> int:
    traj = _load_trajectory(config, check=True)
    grid = default_time_grid(traj, config.grid_points, config.t_max)[1:]  # drop t=0
    proc = discretize(traj, grid)
    lam = sum(proc.probabilities)
    bound = stein_chen_tv_bound(proc)
    model = pra_rate_from_mttf(mean_time_to_failure(traj))
    report = {
        "schema_version": 2,
        "lambda": lam,
        "bound": bound,
        "exact_tv": exact_tv_small(proc),
        "ks": ks_distance(sample_replicates(traj, config.n, config.seed), model),
        "n": len(proc.probabilities),
        "grid_hash": grid_hash(grid),
        "ks_samples": config.n,
        "seed": config.seed,
        "pra_rate": model.rate,
        "trajectory_hash": trajectory_hash(traj),
    }
    path = dump_json(_out_dir(config) / "distance.json", report)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_catalog(config: RunConfig) -> int:
    out = _out_dir(config)
    for scenario in scenario_catalog():
        path = dump_json(out / f"{scenario.label}.json", scenario_to_dict(scenario))
        print(f"wrote {path}")
    return EXIT_OK


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    if config.command not in _SUBCOMMANDS:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        return _SUBCOMMANDS[config.command][2](config)
    except PrincipleViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRINCIPLE
    except ValueError as exc:  # SchemaError and TrajectoryStructureError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        # load_input reports an unreadable input as a SchemaError, so an
        # OSError here comes from creating or writing an output.
        where = exc.filename or config.out
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except MemoryError as exc:  # a --n or --grid-points too large to allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_SCHEMA


# Each option's add_argument keywords, whose `type` and `dest` the plain
# parser reads too; defaults live only in RunConfig.
_OPTIONS = {
    "--input": {"type": Path, "required": True, "help": "trajectory or scenario JSON"},
    "--out": {"type": Path, "help": "output directory (default: .)"},
    "--grid-points": {"type": int},
    "--t-max": {"type": float},
    "--n": {"type": int},
    "--seed": {"type": int},
    "--plot": {"action": "store_true", "dest": "emit_plot"},
    "--pra-rate": {
        "type": float,
        "help": "exponential rate to compare against (default: 1 / mean time to failure)",
    },
}

# Subcommand -> (help, its options in usage order, handler).
_SUBCOMMANDS = {
    "validate": ("check the five hazard principles", ("--input", "--out"), _cmd_validate),
    "eval": (
        "tabulate t, h, H, R, F on a grid",
        ("--input", "--out", "--grid-points", "--t-max"),
        _cmd_eval,
    ),
    "sample": ("draw failure times to CSV", ("--input", "--out", "--n", "--seed"), _cmd_sample),
    "bound-check": (
        "verify the 1 - exp(-h(0) t) lower bound on the failure CDF",
        ("--input", "--out", "--grid-points", "--t-max", "--plot"),
        _cmd_bound_check,
    ),
    "compare": (
        "add the practitioner's exponential comparator",
        ("--input", "--out", "--grid-points", "--t-max", "--plot", "--pra-rate"),
        _cmd_compare,
    ),
    "distance": (
        "Poisson-approximation distance report",
        ("--input", "--out", "--grid-points", "--t-max", "--n", "--seed"),
        _cmd_distance,
    ),
    "catalog": ("write the built-in demonstration scenarios", ("--out",), _cmd_catalog),
}


def build_parser():
    """The full ``argparse`` parser: the only source of usage, help and
    error text.  argparse is imported here, so a plain command line never
    loads it (nor gettext, which it uses for every message)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="riskcheck",
        description="Hazard-trajectory reliability calculus and exponential-approximation checks.",
    )
    parser.add_argument("--version", action="version", version=f"riskcheck {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in _SUBCOMMANDS.items():
        # Options left off the command line stay absent, so RunConfig's
        # defaults apply.
        subparser = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for option in options:
            subparser.add_argument(option, **_OPTIONS[option])
    return parser


def _parse_plain(argv: list[str]) -> dict | None:
    """The parsed options of a plain command line, or None for any other.

    A plain line is a subcommand followed only by its own options, each
    given once by its exact name, each value option's value the next token,
    not starting with "-" and converted by the option's ``type``, and
    ``--input`` wherever the subcommand takes it.  On such a line argparse
    would give the same dict.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    accepted = _SUBCOMMANDS[argv[0]][1]
    options = {"command": argv[0]}
    tokens = iter(argv[1:])
    for option in tokens:
        if option not in accepted:
            return None
        spec = _OPTIONS[option]
        dest = spec.get("dest", option[2:].replace("-", "_"))
        if dest in options:
            return None
        if "type" not in spec:  # --plot, a flag
            options[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            options[dest] = spec["type"](value)
        except (TypeError, ValueError):
            return None
    if "--input" in accepted and "input" not in options:
        return None
    return options


def _parse_options(argv: list[str]) -> dict:
    """The parsed options of ``argv``, as ``vars(build_parser().parse_args(argv))``
    gives them.

    A plain command line (see :func:`_parse_plain`) is parsed from the
    option table; argparse is imported and built only for the rest: help,
    ``--version``, errors, abbreviations, ``--opt=value``, ``--``, repeats,
    negative numbers and unknown commands.
    """
    options = _parse_plain(argv)
    return vars(build_parser().parse_args(argv)) if options is None else options


def main(argv: list[str] | None = None) -> int:
    return run(RunConfig(**_parse_options(sys.argv[1:] if argv is None else argv)))
