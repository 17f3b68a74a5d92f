"""Failure-time sampling from hazard trajectories.

The sampler inverts the cumulative hazard at a unit-exponential draw,
which is exact.

Randomness comes from one counter-based Philox (4x64) stream keyed by the
seed: replicate ``i`` reads 64-bit word ``i`` of that stream, which is lane
``i % 4`` of counter block ``i // 4``.  ``n`` draws cost one vectorized
``random_raw`` call, one ``-log(U)`` over the words, and one batch
inversion (:func:`~riskcheck.hazard.invert_cumulative_hazard_array`): a
``searchsorted`` plus one kernel call per segment-form class present.  Each
lane of that batch depends on its own word alone, so draw ``i`` is a pure
function of (trajectory, seed, i), whatever ``n`` or the evaluation order.
:func:`sample_replicates` is the one sampler: ``sample`` writes its draws
and ``distance`` passes them to ``ks_distance`` as they come.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  loaded here, not lazily on first use inside a command

from .hazard import HazardTrajectory, invert_cumulative_hazard_array
from .serialize import dump_json, write_artifact

__all__ = ["GENERATOR_NAME", "sample_replicates", "write_samples_csv"]

# Pinned draw rule: replicate i of seed s is word i of numpy's Philox (4x64)
# keyed by s, turned into a unit exponential by ``_exponentials`` and into a
# failure time by the array inverse.  Changing the word assignment, the
# transform or the inverse's arithmetic changes the name.  "-v2": the Power
# and ExponentialGrowth inverses run on numpy's power, exp, log and log1p,
# which may round differently from ``math``'s.
GENERATOR_NAME = "numpy-philox4x64-counter-v2"

_MASK64 = (1 << 64) - 1


def _exponentials(words: np.ndarray) -> np.ndarray:
    """Unit-exponential draws -log(U) from raw 64-bit Philox words.

    U = (top 52 bits + 1/2) / 2**52 is exact in a double and lies in
    [2**-53, 1 - 2**-53], so every draw is finite and positive.  (With 53
    bits, k + 1/2 no longer fits a double and the top words round to U = 1.)
    """
    return -np.log(((words >> 12).astype(np.float64) + 0.5) * 2.0**-52)


def sample_replicates(traj: HazardTrajectory, n: int, seed: int) -> np.ndarray:
    """n inversion draws in replicate order.

    Replicate i depends on word i alone: it is the cumulative hazard's
    inverse at that word's unit exponential, whatever n.  So a shorter run
    is a prefix of a longer one, and draws taken in chunks, in any order,
    are the same draws.
    """
    if n < 1:
        raise ValueError(f"need at least one replicate, got n={n}")
    if not isinstance(seed, int):
        raise ValueError("seed must be an integer")
    draws = _exponentials(np.random.Philox(key=seed & _MASK64).random_raw(n))
    return invert_cumulative_hazard_array(traj, draws)


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
    csv_path = write_artifact(
        out_dir / "samples.csv",
        "replicate,failure_time\n",
        # a memoryview yields the draws as Python floats, with no numpy scalar
        # per row and no list of them all
        (f"{i},{t:.17g}\n" for i, t in enumerate(memoryview(draws))),
    )
    meta = {
        "schema_version": 1,
        "seed": seed,
        "generator": GENERATOR_NAME,
        "trajectory_hash": trajectory_hash,
        "n": int(len(draws)),
    }
    return csv_path, dump_json(out_dir / "samples_meta.json", meta)
