#!/usr/bin/env python3
"""The riskcheck benchmark: CLI commands end to end, and per layer when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --self-check

The load is closed-loop: one command at a time, each in a child forked
from a parent that has imported ``riskcheck.cli`` and called nothing (see
``isolate.py``).  A run first writes the workload's inputs, then repeats
full passes over the workload's command list until ``--seconds`` would be
exceeded by one more pass, checking every output (``checks.py``); set-up is
measured in fresh interpreters spread evenly over the same time.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics (``spans.py``).  The last line of stdout is
the JSON result; the full record, with provenance, goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import isolate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here (as opposed to a failed check)."""


def prepare():
    """Import riskcheck from this checkout's ``src``; returns the package."""
    if not (SRC / "riskcheck" / "__init__.py").is_file():
        raise HarnessError(f"no riskcheck sources under {SRC}")
    # Commands run in children forked from this process, which is only safe
    # while it has a single thread: keep the BLAS pools from starting theirs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("RISKCHECK_SEED", None)  # the workload seed is passed as --seed
    sys.path.insert(0, str(SRC))
    import riskcheck
    import riskcheck.cli  # noqa: F401

    if not Path(riskcheck.__file__).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"riskcheck imported from {riskcheck.__file__}, not from {SRC}")
    return riskcheck


def provenance(riskcheck, inputs: dict) -> dict:
    import numpy
    import scipy
    from riskcheck.sampling import GENERATOR_NAME

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "riskcheck": riskcheck.__version__,
        "generator": GENERATOR_NAME,
        "trajectory_hash": {label: info["trajectory_hash"] for label, info in inputs.items()},
    }


def measure_setup(paths: list[str]) -> dict:
    """Import and input-compile times of one fresh interpreter."""
    command = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *paths]
    done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise HarnessError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def tracer(keep_spans: bool):
    """Instrumentation for ``isolate.run_command`` that records spans."""

    def instrument(main):
        recorder = spans.Recorder()
        main = spans.install(recorder, main)

        def report() -> dict:
            out = {
                "aggregate": spans.aggregate(recorder.names, recorder.spans),
                "counts": dict(recorder.counts),
            }
            if keep_spans:
                out["names"], out["spans"] = recorder.names, recorder.spans
            return out

        return main, report

    return instrument


def run_pass(workload, inputs: dict, work: Path, traced: bool, keep_spans: bool) -> dict:
    """One pass over the workload's command list, each output checked."""
    state = {label: {} for label in workload.labels}
    records = []
    for inv in workload.invocations:
        out_dir = work / "out" / inv.label / inv.command
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv = [inv.command, "--input", inputs[inv.label]["path"], "--out", str(out_dir), *inv.args]
        result = isolate.run_command(argv, str(out_dir), tracer(keep_spans) if traced else None)
        problems = checks.check(inv, result.exit_code, str(out_dir), state[inv.label])
        records.append(
            {
                "label": inv.label,
                "command": inv.command,
                "seconds": result.seconds,
                "peak_rss_kib": result.peak_rss_kib,
                "problems": problems,
                "trace": result.trace,
            }
        )
    return {"traced": traced, "seconds": sum(r["seconds"] for r in records), "records": records}


def layer_metrics(aggregate: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced pass (spans summed over its commands)."""

    def entry(name):
        return aggregate.get(name, (0, 0, 0))

    metrics = {}
    for name in (
        "hazard.cumulative_hazard",
        "hazard.hazard_at",
        "hazard.invert_cumulative_hazard",
        "sampling.stream_setup",
    ):
        calls, total_ns, _ = entry(name)
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.us_per_call"] = total_ns / calls / 1e3 if calls else 0.0
    for name in (
        "hazard.mean_time_to_failure",
        "hazard.validate_trajectory",
        "scenarios.build_trajectory",
        "sampling.write_samples_csv",
        "compare.write_comparison_csv",
        "poisson.ks_distance",
        "poisson.stein_chen_tv_bound",
        "poisson.exact_tv_small",
        "serialize.load_input",
        "serialize.trajectory_hash",
        "serialize.dump_json",
        "svgplot.line_chart_svg",
    ):
        metrics[f"{name}.ms"] = entry(name)[1] / 1e6
    for name in ("sampling.sample_replicates", "sampling.sample_many", "poisson.discretize"):
        metrics[f"{name}.self_ms"] = entry(name)[2] / 1e6
    metrics["compare.report.self_ms"] = (
        entry("compare.check_stochastic_order")[2] + entry("compare.underestimation_report")[2]
    ) / 1e6
    metrics["cli.self_ms"] = entry(spans.ROOT)[2] / 1e6
    for counter in spans.FORM_COUNTERS.values():
        metrics[f"{counter}.calls"] = counts.get(counter, 0)
    return metrics


def command_times(passes: list[dict]) -> dict:
    """Times of each (input, command) over the given passes, in seconds."""
    times = defaultdict(list)
    for p in passes:
        for r in p["records"]:
            times[r["label"], r["command"]].append(r["seconds"])
    return times


def summarize(workload, inputs: dict, setup: list[dict], passes: list[dict]) -> dict:
    """End-to-end metrics, and per-layer ones when there are traced passes.

    Every timing is a median over the run: of the set-up probes, of the
    untraced pass times, and per command of its invocations on each input
    (averaged over the workload's inputs).  On a shared machine single
    invocations of the same code vary by tens of percent; README.md gives
    the measurements behind this choice.
    """
    untraced = [p for p in passes if not p["traced"]]
    times = command_times(untraced)
    setup_s = [probe["import_s"] + probe["compile_s"] for probe in setup]
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "pass_s": statistics.median(p["seconds"] for p in untraced),
        "peak_rss_mb": max(r["peak_rss_kib"] for p in untraced for r in p["records"]) / 1024,
    }
    commands = {}
    for command in dict.fromkeys(inv.command for inv in workload.invocations):
        key = command.replace("-", "_") + "_ms"
        per_input = [statistics.median(s) * 1e3 for (_, c), s in times.items() if c == command]
        samples = [s * 1e3 for (_, c), ss in times.items() if c == command for s in ss]
        end_to_end[key] = statistics.fmean(per_input)
        commands[key] = {"n": len(samples), "median": statistics.median(samples)}
        if len(samples) >= 100:  # at least ten samples beyond the 90th percentile
            commands[key]["p90"] = statistics.quantiles(samples, n=10)[-1]
        commands[key]["samples"] = samples

    traced = [p for p in passes if p["traced"]]
    per_layer, count_mismatch = {}, []
    if traced:
        per_pass = []
        for p in traced:
            aggregate, counts = defaultdict(lambda: [0, 0, 0]), defaultdict(int)
            for r in p["records"]:
                for name, values in r["trace"].get("aggregate", {}).items():
                    aggregate[name] = [a + b for a, b in zip(aggregate[name], values)]
                for name, value in r["trace"].get("counts", {}).items():
                    counts[name] += value
            per_pass.append(layer_metrics(aggregate, counts))
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if name.endswith(".calls"):
                if len(set(values)) != 1:
                    count_mismatch.append(f"{name} differs between identical passes: {values}")
                per_layer[name] = values[0]
            else:
                per_layer[name] = statistics.median(values)
        per_layer["scenarios.segments"] = sum(info["segments"] for info in inputs.values())
        per_layer["setup.import_ms"] = statistics.median(p["import_s"] for p in setup) * 1e3
        per_layer["setup.compile_ms"] = statistics.median(p["compile_s"] for p in setup) * 1e3
        traced_s = statistics.median(p["seconds"] for p in traced)
        per_layer["trace.overhead_pct"] = (traced_s / end_to_end["pass_s"] - 1.0) * 100.0
    return {
        "end_to_end": end_to_end,
        "commands": commands,
        "per_layer": per_layer,
        "count_mismatch": count_mismatch,
    }


def run_workload(name, seed, seconds, trace, scale="full", probes=SETUP_PROBES) -> dict:
    """Measure one workload; returns the full record of the run."""
    riskcheck = prepare()
    workload = workloads.workload(name, seed, scale)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        inputs, _ = isolate.fork_call(lambda: workloads.write_inputs(name, scale, work / "inputs"))
        if inputs is None:
            raise HarnessError(f"writing the {name} inputs failed")
        paths = [info["path"] for info in inputs.values()]

        setup, passes, kept_spans = [], [], None
        start = time.perf_counter()
        pass_wall = 0.0
        while True:
            # Set-up probes are spread evenly over the run, so that their
            # median, like the pass medians, sees the whole run.
            if len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
                setup.append(measure_setup(paths))
                continue
            traced = trace and len(passes) % 2 == 1
            keep = traced and kept_spans is None
            pass_start = time.perf_counter()
            passes.append(run_pass(workload, inputs, work, traced, keep))
            pass_wall += time.perf_counter() - pass_start
            if keep:
                kept_spans = [
                    {"label": r["label"], "command": r["command"], **r["trace"]}
                    for r in passes[-1]["records"]
                ]
            elapsed = time.perf_counter() - start
            enough = len(passes) >= (2 if trace else 1) and len(setup) == probes
            if enough and elapsed + pass_wall / len(passes) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    summary = summarize(workload, inputs, setup, passes)
    records = [r for p in passes for r in p["records"]]
    failures = [
        f"{r['label']} {r['command']}: {problem}" for r in records for problem in r["problems"]
    ]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "sizes": workload.sizes,
        "commands_per_pass": [f"{i.label} {i.command} {' '.join(i.args)}".strip()
                              for i in workload.invocations],
        "inputs": inputs,
        "provenance": provenance(riskcheck, inputs),
        "passes": {"untraced": sum(not p["traced"] for p in passes),
                   "traced": sum(p["traced"] for p in passes)},
        "pass_seconds": [[p["seconds"], p["traced"]] for p in passes],
        "attempted": len(records),
        "failed": sum(bool(r["problems"]) for r in records),
        "failures": failures[:50],
        "count_mismatch": summary["count_mismatch"],
        "setup_probes": setup,
        **{k: summary[k] for k in ("end_to_end", "commands", "per_layer")},
    }
    if trace:
        record["untraced_functions"] = spans.missing_targets()
    record["correct"] = record["failed"] == 0 and not record["count_mismatch"]
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-{scale}-seed{seed}"
    (OUT / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    if kept_spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(kept_spans) + "\n")
    return record


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared_metrics(trace: bool) -> list[dict]:
    return benchmark_spec()["per_layer" if trace else "end_to_end"]


def result_line(record: dict, trace: bool) -> dict:
    """The result line: the metrics BENCHMARK.json declares, each with its unit."""
    measured = record["per_layer"] if trace else record["end_to_end"]
    metrics = {}
    for metric in declared_metrics(trace):
        if metric["name"] not in measured:
            raise HarnessError(f"{record['workload']} does not measure {metric['name']}")
        metrics[metric["name"]] = {"value": measured[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def report(record: dict, trace: bool) -> None:
    """Human-readable lines: every metric by name with its unit."""
    units = {m["name"]: m["unit"] for m in declared_metrics(False) + declared_metrics(True)}
    print(
        f"workload {record['workload']} seed {record['seed']}: "
        f"{record['passes']['untraced']} untraced + {record['passes']['traced']} traced passes, "
        f"{record['attempted']} commands, {record['failed']} failed"
    )
    for name, value in record["end_to_end"].items():
        unit = units.get(name) or ("ms" if name.endswith("_ms") else "")
        extra = record["commands"].get(name)
        detail = ""
        if extra:
            p90 = f", p90 {extra['p90']:.4g}" if "p90" in extra else ""
            detail = f"  ({extra['n']} samples; median of all {extra['median']:.4g}{p90})"
        print(f"  {name:<34} {value:>14.6g} {unit}{detail}")
    print(f"  {'error_rate':<34} {record['failed'] / record['attempted']:>14.6g}")
    for name, value in record["per_layer"].items():
        print(f"  {name:<34} {value:>14.6g} {units.get(name, '')}")
    for line in record["failures"][:10] + record["count_mismatch"]:
        print(f"  FAILED {line}", file=sys.stderr)
    for name in record.get("untraced_functions", []):
        print(f"  warning: {name} no longer exists in riskcheck; its metrics read 0", file=sys.stderr)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="tiny-size check of the harness")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            import selfcheck

            return selfcheck.main()
        if args.workload is None:
            parser.error("--workload is required")
        trace = bool(args.trace)
        seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        lines = {}
        for name in names:
            record = run_workload(name, args.seed, seconds, trace)
            report(record, trace)
            lines[name] = result_line(record, trace)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(lines) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, line in lines.items() for metric, value in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
