"""Spans around riskcheck's public functions, installed from outside the library.

The traced run wraps the public functions of each riskcheck module (and
``SeededStream.generator``) in the forked child before the command runs.
Each call records a span ``(name, start_ns, end_ns, parent)`` in memory;
the segment-form methods (``value``, ``integral``, ``invert_integral``) are
only counted, since they run up to millions of times per pass.  Nothing in
the library source changes: a wrapper replaces every binding of the
original function in the ``riskcheck.*`` module namespaces, so both
``from .hazard import cumulative_hazard`` in another module and calls
inside ``riskcheck.hazard`` itself go through it.

A span's self time is its duration minus the durations of its direct
children (calls are nested and single-threaded, so children never overlap).
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import wraps

# Span name -> (module, attribute); "Class.method" wraps a method.
SPANNED = {
    "hazard.cumulative_hazard": ("riskcheck.hazard", "cumulative_hazard"),
    "hazard.hazard_at": ("riskcheck.hazard", "hazard_at"),
    "hazard.invert_cumulative_hazard": ("riskcheck.hazard", "invert_cumulative_hazard"),
    "hazard.mean_time_to_failure": ("riskcheck.hazard", "mean_time_to_failure"),
    "hazard.validate_trajectory": ("riskcheck.hazard", "validate_trajectory"),
    "scenarios.build_trajectory": ("riskcheck.scenarios", "build_trajectory"),
    "sampling.stream_setup": ("riskcheck.sampling", "SeededStream.generator"),
    "sampling.sample_replicates": ("riskcheck.sampling", "sample_replicates"),
    "sampling.sample_many": ("riskcheck.sampling", "sample_many"),
    "sampling.write_samples_csv": ("riskcheck.sampling", "write_samples_csv"),
    "compare.check_stochastic_order": ("riskcheck.compare", "check_stochastic_order"),
    "compare.underestimation_report": ("riskcheck.compare", "underestimation_report"),
    "compare.write_comparison_csv": ("riskcheck.compare", "write_comparison_csv"),
    "poisson.discretize": ("riskcheck.poisson", "discretize"),
    "poisson.ks_distance": ("riskcheck.poisson", "ks_distance"),
    "poisson.stein_chen_tv_bound": ("riskcheck.poisson", "stein_chen_tv_bound"),
    "poisson.exact_tv_small": ("riskcheck.poisson", "exact_tv_small"),
    "serialize.load_input": ("riskcheck.serialize", "load_input"),
    "serialize.trajectory_hash": ("riskcheck.serialize", "trajectory_hash"),
    "serialize.dump_json": ("riskcheck.serialize", "dump_json"),
    "svgplot.line_chart_svg": ("riskcheck.svgplot", "line_chart_svg"),
}
ROOT = "cli.main"

# Segment-form method -> counter name.  Form classes are found by shape
# (a class in riskcheck.hazard with all three methods), not by name.
FORM_COUNTERS = {
    "value": "hazard.form_value",
    "integral": "hazard.form_integral",
    "invert_integral": "hazard.form_invert",
}


class Recorder:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int] | None] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def aggregate(names, spans) -> dict[str, list[int]]:
    """Per span name: [calls, total_ns, self_ns], self = duration - children."""
    children_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for (name_id, start, end, _), child_ns in zip(spans, children_ns):
        entry = out.setdefault(names[name_id], [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns
    return out


def missing_targets() -> list[str]:
    """Spanned names whose function no longer exists in riskcheck."""
    missing = []
    for name, (module, attribute) in SPANNED.items():
        owner = sys.modules.get(module)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name)
    return missing


def install(recorder: Recorder, main):
    """Wrap riskcheck's public functions; returns the spanned ``main``."""
    modules = [m for n, m in sys.modules.items() if n == "riskcheck" or n.startswith("riskcheck.")]
    for name, (module, attribute) in SPANNED.items():
        owner = sys.modules[module]
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            continue  # reported by missing_targets()
        wrapped = recorder.span(name, original)
        if path:  # a method: rebinding the class attribute covers every caller
            setattr(owner, leaf, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    hazard = sys.modules["riskcheck.hazard"]
    for cls in vars(hazard).values():
        if isinstance(cls, type) and cls.__module__ == hazard.__name__ and all(
            callable(getattr(cls, method, None)) for method in FORM_COUNTERS
        ):
            for method, counter in FORM_COUNTERS.items():
                setattr(cls, method, recorder.counter(counter, getattr(cls, method)))
    return recorder.span(ROOT, main)
