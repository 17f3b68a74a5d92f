"""Failure-time sampling from hazard trajectories.

The sampler inverts the cumulative hazard at a unit-exponential draw,
which is exact.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream_id)``, one stream per replicate, so results are a pure
function of (trajectory, n, seed) regardless of evaluation order or
worker count.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hazard import HazardTrajectory, invert_cumulative_hazard

__all__ = [
    "GENERATOR_NAME",
    "SeededStream",
    "EmpiricalDistribution",
    "sample_failure_time",
    "sample_replicates",
    "sample_many",
    "empirical_cdf",
    "write_samples_csv",
]

# Pinned generator: numpy's Philox (4x64) keyed by (stream_id << 64) | seed.
# Counter-based, so distinct keys give independent, order-insensitive streams.
GENERATOR_NAME = "numpy-philox4x64"

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeededStream:
    """One replicate's private random stream, keyed by (seed, stream_id)."""

    seed: int
    stream_id: int

    def __post_init__(self):
        if not isinstance(self.seed, int) or not isinstance(self.stream_id, int):
            raise ValueError("seed and stream_id must be integers")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be nonnegative, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        key = ((self.stream_id & _MASK64) << 64) | (self.seed & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted failure-time samples with their seed provenance."""

    times: tuple[float, ...]
    n: int
    seed: int

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if self.n != len(times):
            raise ValueError(f"n={self.n} does not match {len(times)} samples")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("times must be sorted ascending")
        if any(not (t > 0.0 and math.isfinite(t)) for t in times):
            raise ValueError("all failure times must be finite and positive")


def sample_failure_time(traj: HazardTrajectory, stream: SeededStream) -> float:
    """Draw T with P(T > t) = reliability(traj, t) by inverting the
    cumulative hazard at a unit-exponential draw."""
    e = float(stream.generator().standard_exponential())
    return invert_cumulative_hazard(traj, e)


def sample_replicates(
    traj: HazardTrajectory, n: int, seed: int, workers: int = 1
) -> np.ndarray:
    """n inversion draws in replicate order (index i uses stream id i).

    The per-replicate streams make the result independent of ``workers``;
    threads only split the index range.
    """
    if n < 1:
        raise ValueError(f"need at least one replicate, got n={n}")
    out = np.empty(n, dtype=np.float64)

    def fill(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            out[i] = sample_failure_time(traj, SeededStream(seed, i))

    if workers <= 1:
        fill(0, n)
    else:
        chunk = -(-n // workers)
        bounds = [(k * chunk, min((k + 1) * chunk, n)) for k in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(fill, lo, hi) for lo, hi in bounds if lo < hi]:
                future.result()
    return out


def sample_many(
    traj: HazardTrajectory, n: int, seed: int, workers: int = 1
) -> EmpiricalDistribution:
    """n independent failure-time draws as a sorted empirical distribution."""
    draws = sample_replicates(traj, n, seed, workers=workers)
    return EmpiricalDistribution(times=tuple(np.sort(draws).tolist()), n=n, seed=seed)


def empirical_cdf(dist: EmpiricalDistribution, t: float) -> float:
    """Fraction of samples at or below t (right-continuous step function)."""
    if dist.n == 0:
        raise ValueError("empirical distribution is empty")
    return bisect_right(dist.times, t) / dist.n


def write_samples_csv(
    out_dir: str | Path,
    draws: np.ndarray,
    seed: int,
    trajectory_hash: str,
) -> tuple[Path, Path]:
    """Write draws (replicate order) as CSV plus a metadata side file.

    Returns (csv_path, metadata_path).  Numerics use 17 significant digits
    so the doubles round-trip losslessly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "samples.csv"
    meta_path = out_dir / "samples_meta.json"
    with open(csv_path, "w", newline="\n") as fh:
        fh.write("replicate,failure_time\n")
        for i, t in enumerate(draws):
            fh.write(f"{i},{float(t):.17g}\n")
    meta = {
        "schema_version": 1,
        "seed": seed,
        "generator": GENERATOR_NAME,
        "trajectory_hash": trajectory_hash,
        "n": int(len(draws)),
    }
    with open(meta_path, "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, meta_path
