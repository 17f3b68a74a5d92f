"""Output checks for each CLI command, by tolerance rather than by bytes.

A check returns a list of problems (empty when the output is right).  The
checks read the artifacts with the standard library only, never with
riskcheck, and hold when a change moves the last digit of a result or
bumps ``GENERATOR_NAME``; byte identity is the unit tests' job.  ``state``
carries what later commands on the same input are checked against: the
eval grid's failure CDF and the sample draws.
"""

from __future__ import annotations

import csv
import json
import math
import os
from bisect import bisect_right

CLOSURE_TOLERANCE = 1e-12  # R + F = 1 and R = exp(-H) in eval.csv
ORDERING_TOLERANCE = 1e-9  # f_true >= 1 - exp(-h(0) t), as riskcheck.compare uses
DKW_ALPHA = 1e-3  # KS of the draws against the eval CDF, 99.9% DKW bound
PRA_RATE_SIGMAS = 5.0  # 1/MTTF against 1/(sample mean)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_rows(path: str, header: list[str]) -> list[list[float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ValueError(f"{os.path.basename(path)} header is {found}, expected {header}")
        return [[float(v) for v in row] for row in reader]


def check(invocation, exit_code, out_dir: str, state: dict) -> list[str]:
    """Problems with one command's exit code and artifacts."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    try:
        return _CHECKS[invocation.command](invocation, out_dir, state)
    except (OSError, ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _validate(inv, out_dir, state) -> list[str]:
    with open(os.path.join(out_dir, "stdout.txt")) as fh:
        report = json.load(fh)
    problems = []
    if report.get("valid") is not True:
        problems.append("validate did not report valid")
    if report.get("violations"):
        problems.append(f"validate reported violations: {report['violations'][:3]}")
    return problems


def _eval(inv, out_dir, state) -> list[str]:
    rows = _read_rows(os.path.join(out_dir, "eval.csv"), ["t", "h", "H", "R", "F"])
    problems = []
    if len(rows) != inv.grid_points + 1:
        problems.append(f"eval.csv has {len(rows)} rows, expected {inv.grid_points + 1}")
    if rows and (rows[0][0] != 0.0 or rows[0][2] != 0.0):
        problems.append("eval.csv does not start at t = 0 with H = 0")
    prev_t, prev_H = -math.inf, -math.inf
    for t, h, H, R, F in rows:
        if not all(math.isfinite(v) for v in (t, h, H, R, F)):
            problems.append(f"non-finite value at t={t!r}")
        elif not h > 0.0:
            problems.append(f"hazard {h!r} not positive at t={t!r}")
        elif abs(R + F - 1.0) > CLOSURE_TOLERANCE:
            problems.append(f"R + F = {R + F!r} at t={t!r}")
        elif abs(R - math.exp(-H)) > CLOSURE_TOLERANCE:
            problems.append(f"R = {R!r} but exp(-H) = {math.exp(-H)!r} at t={t!r}")
        elif not (t > prev_t and H >= prev_H):
            problems.append(f"grid or H not increasing at t={t!r}")
        if problems:
            break
        prev_t, prev_H = t, H
    state["cdf"] = [(row[0], row[4]) for row in rows]
    return problems


def _summary(out_dir: str, grid_points: int) -> tuple[dict, list[str]]:
    summary = _read_json(os.path.join(out_dir, "comparison_summary.json"))
    rows = _read_rows(
        os.path.join(out_dir, "comparison.csv"),
        ["t", "f_true", "f_h0_bound", "f_pra", "gap_h0", "gap_pra"],
    )
    problems = []
    if summary.get("ordering_holds") is not True:
        problems.append("ordering_holds is not true")
    if len(rows) != grid_points + 1:
        problems.append(f"comparison.csv has {len(rows)} rows, expected {grid_points + 1}")
    if any(not f_true >= f_h0 - ORDERING_TOLERANCE for _, f_true, f_h0, *_ in rows):
        problems.append("comparison.csv has f_true below the h(0) bound")
    return summary, problems


def _bound_check(inv, out_dir, state) -> list[str]:
    return _summary(out_dir, inv.grid_points)[1]


def _sample(inv, out_dir, state) -> list[str]:
    rows = _read_rows(os.path.join(out_dir, "samples.csv"), ["replicate", "failure_time"])
    meta = _read_json(os.path.join(out_dir, "samples_meta.json"))
    problems = []
    if len(rows) != inv.n or meta.get("n") != inv.n:
        problems.append(f"{len(rows)} draws (meta n={meta.get('n')}), expected {inv.n}")
    if meta.get("seed") != inv.seed:
        problems.append(f"samples_meta seed {meta.get('seed')!r}, expected {inv.seed}")
    if [int(r) for r, _ in rows] != list(range(len(rows))):
        problems.append("replicates are not 0..n-1 in order")
    draws = [t for _, t in rows]
    if not all(t > 0.0 and math.isfinite(t) for t in draws):
        problems.append("a draw is not finite and positive")
        return problems
    problems += _ks_against_eval(draws, state.get("cdf"))
    mean = math.fsum(draws) / len(draws)
    var = math.fsum((t - mean) ** 2 for t in draws) / (len(draws) - 1)
    state["draws"] = (len(draws), mean, math.sqrt(var))
    return problems


def _ks_against_eval(draws: list[float], cdf) -> list[str]:
    """KS distance between the draws and the eval-grid CDF, on the grid."""
    if not cdf:
        return ["no eval.csv on this input to check the draws against"]
    ordered = sorted(draws)
    n = len(ordered)
    ks = max(abs(bisect_right(ordered, t) / n - f) for t, f in cdf)
    bound = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * n))
    if ks > bound:
        return [f"draws are {ks:.4g} from the eval CDF in KS distance (bound {bound:.4g})"]
    return []


def _compare(inv, out_dir, state) -> list[str]:
    summary, problems = _summary(out_dir, inv.grid_points)
    pra = summary.get("pra", {})
    rate = pra.get("rate")
    if not (isinstance(rate, float) and rate > 0.0 and math.isfinite(rate)):
        return problems + [f"pra.rate {rate!r} is not a positive finite number"]
    if inv.pra_rate is not None:
        if pra.get("provenance") != "given" or rate != inv.pra_rate:
            problems.append(f"pra {pra} does not carry the given rate {inv.pra_rate!r}")
    elif "draws" not in state:
        problems.append("no same-seed draws on this input to check pra.rate against")
    else:
        n, mean, sd = state["draws"]
        # delta method: sd(1/mean) = sd(mean) / mean^2
        tolerance = PRA_RATE_SIGMAS * sd / (math.sqrt(n) * mean * mean)
        if pra.get("provenance") != "derived_from_mttf" or abs(rate - 1.0 / mean) > tolerance:
            problems.append(
                f"pra.rate {rate!r} is more than {PRA_RATE_SIGMAS:g} standard errors "
                f"from 1/mean of the draws {1.0 / mean!r}"
            )
    if inv.plot:
        with open(os.path.join(out_dir, "comparison.svg")) as fh:
            svg = fh.read()
        if not (svg.lstrip().startswith("<svg") and svg.rstrip().endswith("</svg>")):
            problems.append("comparison.svg is not an SVG document")
    return problems


def _distance(inv, out_dir, state) -> list[str]:
    report = _read_json(os.path.join(out_dir, "distance.json"))
    problems = []
    for key in ("bound", "ks"):
        value = report.get(key)
        if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
            problems.append(f"{key} = {value!r} is not in [0, 1]")
    if report.get("ks_samples") != inv.n:
        problems.append(f"ks_samples {report.get('ks_samples')!r}, expected {inv.n}")
    if report.get("seed") != inv.seed:
        problems.append(f"seed {report.get('seed')!r}, expected {inv.seed}")
    if report.get("n") != inv.grid_points:
        problems.append(f"n {report.get('n')!r} intervals, expected {inv.grid_points}")
    if not report.get("lambda", 0.0) > 0.0:
        problems.append(f"lambda {report.get('lambda')!r} is not positive")
    return problems


_CHECKS = {
    "validate": _validate,
    "eval": _eval,
    "bound-check": _bound_check,
    "sample": _sample,
    "compare": _compare,
    "distance": _distance,
}
