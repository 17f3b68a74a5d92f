"""Exponential comparators for the true failure law.

Two exponential stand-ins are kept strictly apart:

* the ``exp(-h(0) t)`` comparator, which is a guaranteed upper bound on the
  survival of any valid trajectory (equivalently, ``1 - exp(-h(0) t)``
  lower-bounds the failure CDF pointwise), and
* the practitioner's rate-``1/E[T]`` exponential, which matches the mean
  but carries no pointwise guarantee and may cross the true CDF.

Reports evaluate both on a time grid and record the gaps; ``ordering_holds``
always refers to the h(0) comparator, the only one the ordering theorem
covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hazard import HazardTrajectory, failure_cdf, failure_probability, hazard_at
from .serialize import write_artifact

__all__ = [
    "ORDERING_TOLERANCE",
    "PraModel",
    "ComparisonReport",
    "pra_rate_from_mttf",
    "default_time_grid",
    "check_stochastic_order",
    "underestimation_report",
    "write_comparison_csv",
    "comparison_summary",
]

# Slack on ordering checks; the arithmetic is closed-form, so this covers
# accumulated rounding only.
ORDERING_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PraModel:
    """Constant-rate exponential failure model (rate = core damage frequency)."""

    rate: float
    provenance: str  # "given" or "derived_from_mttf"

    def __post_init__(self):
        object.__setattr__(self, "rate", float(self.rate))
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be positive and finite, got {self.rate!r}")
        if self.provenance not in ("given", "derived_from_mttf"):
            raise ValueError(f"unknown provenance {self.provenance!r}")


@dataclass(frozen=True)
class ComparisonReport:
    """True failure CDF vs exponential comparators on a time grid.

    ``pointwise_gaps`` is f_true - f_h0_bound; ``ordering_holds`` is true
    when no gap dips below -ORDERING_TOLERANCE.
    """

    grid: tuple[float, ...]
    f_true: tuple[float, ...]
    f_h0_bound: tuple[float, ...]
    f_pra: tuple[float, ...]
    pointwise_gaps: tuple[float, ...]
    sup_gap_h0: float
    sup_gap_pra: float
    ordering_holds: bool


def pra_rate_from_mttf(mttf: float) -> PraModel:
    """Exponential model with rate 1/E[T], the usual frequency estimate."""
    mttf = float(mttf)
    if not (mttf > 0.0 and math.isfinite(mttf)):
        raise ValueError(f"mean time to failure must be positive and finite, got {mttf!r}")
    return PraModel(rate=1.0 / mttf, provenance="derived_from_mttf")


def default_time_grid(
    traj: HazardTrajectory, count: int = 64, t_max: float | None = None
) -> tuple[float, ...]:
    """t = 0 plus ``count`` geometrically spaced points.

    The default window is [0.01/h(0), 5/h(0)], covering both tails of the
    h(0) exponential comparator; an explicit ``t_max`` rescales the window
    keeping the 1:500 span ratio.
    """
    if count < 2:
        raise ValueError(f"need at least two grid points, got {count}")
    if t_max is None:
        h0 = hazard_at(traj, 0.0)
        # 5/h(0) overflows for a subnormal h(0)
        if not (h0 > 0.0 and math.isfinite(h0) and 5.0 / h0 < math.inf):
            raise ValueError(
                f"the default grid spans 5/h(0), which is not a positive finite time for "
                f"h(0) = {h0!r}; pass --t-max"
            )
        t_max = 5.0 / h0
    t_max = float(t_max)
    if not (t_max > 0.0 and math.isfinite(t_max)):
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    points = np.geomspace(t_max / 500.0, t_max, count)
    return (0.0,) + tuple(float(t) for t in points)


def _check_grid(grid) -> tuple[float, ...]:
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if any(not (t >= 0.0 and math.isfinite(t)) for t in grid):
        raise ValueError("grid times must be finite and nonnegative")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid times must be strictly increasing")
    return grid


def _build_report(traj: HazardTrajectory, grid, pra_rate: float) -> ComparisonReport:
    grid = _check_grid(grid)
    h0 = hazard_at(traj, 0.0)
    f_true = tuple(failure_cdf(traj, t) for t in grid)
    f_h0 = tuple(failure_probability(h0 * t) for t in grid)
    f_pra = tuple(failure_probability(pra_rate * t) for t in grid)
    gaps = tuple(a - b for a, b in zip(f_true, f_h0))
    return ComparisonReport(
        grid=grid,
        f_true=f_true,
        f_h0_bound=f_h0,
        f_pra=f_pra,
        pointwise_gaps=gaps,
        sup_gap_h0=max(gaps),
        sup_gap_pra=max(a - b for a, b in zip(f_true, f_pra)),
        ordering_holds=min(gaps) >= -ORDERING_TOLERANCE,
    )


def check_stochastic_order(traj: HazardTrajectory, grid) -> ComparisonReport:
    """Verify f_true(t) >= 1 - exp(-h(0) t) on the grid.

    The ordering is a theorem for every valid trajectory, so a report with
    ``ordering_holds`` false signals a numerical defect, not a property of
    the system.  Here the PRA column uses the same h(0) comparator.
    """
    return _build_report(traj, grid, pra_rate=hazard_at(traj, 0.0))


def underestimation_report(
    traj: HazardTrajectory, model: PraModel, grid
) -> ComparisonReport:
    """Compare the true CDF against both the h(0) bound and ``model``.

    Only the h(0) column carries the ordering guarantee; the exponential
    with the practitioner's rate (typically 1/E[T]) may cross f_true, and
    sup_gap_pra can be read for where and by how much it underestimates.
    """
    return _build_report(traj, grid, pra_rate=model.rate)


def write_comparison_csv(path: str | Path, report: ComparisonReport) -> Path:
    """CSV of the report grid, 17 significant digits per value."""
    columns = report.grid, report.f_true, report.f_h0_bound, report.f_pra, report.pointwise_gaps
    return write_artifact(
        path,
        "t,f_true,f_h0_bound,f_pra,gap_h0,gap_pra\n",
        (
            f"{t:.17g},{ft:.17g},{fh0:.17g},{fp:.17g},{gap:.17g},{ft - fp:.17g}\n"
            for t, ft, fh0, fp, gap in zip(*columns)
        ),
    )


def comparison_summary(
    report: ComparisonReport, trajectory_hash: str, model: PraModel | None = None
) -> dict:
    """JSON-ready summary; the h(0) comparator is the only guaranteed bound."""
    summary = {
        "schema_version": 1,
        "grid_points": len(report.grid),
        "sup_gap_h0": report.sup_gap_h0,
        "sup_gap_pra": report.sup_gap_pra,
        "ordering_holds": report.ordering_holds,
        "trajectory_hash": trajectory_hash,
        "guaranteed_bound": "h0",
    }
    if model is not None:
        summary["pra"] = {"rate": model.rate, "provenance": model.provenance}
    return summary
