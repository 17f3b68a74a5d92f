"""Self-check of the benchmark harness, at tiny sizes; runs in seconds.

    python3 perfbench/run.py --self-check

Checks three things: span self times on a hand-made span tree; that every
output check accepts a correct artifact and rejects a broken one; and that
each workload, at tiny scale, runs untraced and traced with every declared
metric present, no failed command, and call counts that repeat exactly
across two traced runs.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil

import checks
import run
import spans
import workloads


def check_self_times() -> None:
    # a [0, 100] holds b [10, 40] (which holds c [15, 25]) and b [50, 60]
    tree = [(0, 0, 100, -1), (1, 10, 40, 0), (2, 15, 25, 1), (1, 50, 60, 0)]
    got = spans.aggregate(["a", "b", "c"], tree)
    want = {"a": [1, 100, 60], "b": [2, 40, 30], "c": [1, 10, 10]}
    if got != want:
        raise AssertionError(f"span aggregate {got}, expected {want}")


def _write(directory: str, name: str, text: str) -> None:
    with open(os.path.join(directory, name), "w") as fh:
        fh.write(text)


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(f"{v!r}" for v in row) + "\n" for row in rows)


def check_output_checks(directory: str) -> None:
    """Each output check passes a correct artifact and flags a broken one."""
    rate, n, seed, points = 0.5, 2000, 7, 16
    inv = {
        command: workloads.Invocation("x", command, (), points, n, seed, None, False)
        for command in ("validate", "eval", "bound-check", "sample", "compare", "distance")
    }
    grid = [0.0] + [0.1 * 1.5**k for k in range(points)]
    rng = random.Random(seed)
    draws = [rng.expovariate(rate) for _ in range(n)]
    mean = math.fsum(draws) / n

    def eval_csv(shift=0.0):
        rows = [(t, rate, rate * t, math.exp(-rate * t) + shift, -math.expm1(-rate * t)) for t in grid]
        return _csv("t,h,H,R,F", rows)

    def comparison(pra_rate):
        rows = [(t, -math.expm1(-rate * t), -math.expm1(-rate * t), 0.0, 0.0, 0.0) for t in grid]
        _write(directory, "comparison.csv", _csv("t,f_true,f_h0_bound,f_pra,gap_h0,gap_pra", rows))
        summary = {"ordering_holds": True, "pra": {"rate": pra_rate, "provenance": "derived_from_mttf"}}
        _write(directory, "comparison_summary.json", json.dumps(summary))

    def samples(values):
        _write(directory, "samples.csv", _csv("replicate,failure_time", enumerate(values)))
        _write(directory, "samples_meta.json", json.dumps({"n": n, "seed": seed}))

    def distance(ks):
        report = {"bound": 0.1, "ks": ks, "ks_samples": n, "seed": seed, "n": points, "lambda": 2.0}
        _write(directory, "distance.json", json.dumps(report))

    cases = [  # (command, write a correct artifact, write a broken one)
        ("validate",
         lambda: _write(directory, "stdout.txt", '{"valid": true, "violations": []}'),
         lambda: _write(directory, "stdout.txt", '{"valid": false, "violations": []}')),
        ("eval", lambda: _write(directory, "eval.csv", eval_csv()),
         lambda: _write(directory, "eval.csv", eval_csv(shift=1e-9))),
        ("sample", lambda: samples(draws), lambda: samples([1.6 * t for t in draws])),
        ("compare", lambda: comparison(1.0 / mean), lambda: comparison(1.2 / mean)),
        ("distance", lambda: distance(0.05), lambda: distance(1.5)),
    ]
    state: dict = {}
    for command, good, bad in cases:
        good()
        problems = checks.check(inv[command], 0, directory, state)
        if problems:
            raise AssertionError(f"{command} check rejects a correct artifact: {problems}")
        bad()
        if not checks.check(inv[command], 0, directory, dict(state)):
            raise AssertionError(f"{command} check accepts a broken artifact")
    if not checks.check(inv["validate"], 3, directory, state):
        raise AssertionError("a non-zero exit code passes the checks")


def check_workloads() -> None:
    for name in workloads.NAMES:
        counts = []
        for trace in (False, True, True):
            record = run.run_workload(name, 1, 0, trace, scale="tiny", probes=1)
            if not record["correct"]:
                raise AssertionError(f"{name} trace={trace}: {record['failures'][:3]}")
            line = run.result_line(record, trace)  # raises if a declared metric is missing
            if not trace and not all(m["value"] > 0 for m in line["metrics"].values()):
                raise AssertionError(f"{name}: an end-to-end metric is not positive: {line}")
            if trace:
                counts.append({k: v for k, v in record["per_layer"].items()
                               if k.endswith(".calls") or k == "scenarios.segments"})
        if counts[0] != counts[1]:
            raise AssertionError(f"{name}: call counts differ between traced runs")
        print(f"self-check: {name} ok")


def main() -> int:
    check_self_times()
    directory = run.WORK / f"selfcheck-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        check_output_checks(str(directory))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print("self-check: span self times and output checks ok")
    check_workloads()
    print("self-check passed")
    return 0
