"""Failure-time sampling from hazard trajectories.

The sampler inverts the cumulative hazard at a unit-exponential draw,
which is exact.

Randomness comes from one counter-based Philox4x64-10 stream keyed by the
seed (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11): replicate ``i`` reads 64-bit word ``i`` of that stream, which is
lane ``i % 4`` of counter block ``i // 4``.  The words are computed here
(:func:`_philox_words`), in numpy ``uint64`` arithmetic over chunks of
counter blocks, and equal the words of numpy's ``Philox`` bit generator
keyed by the seed; riskcheck does not import numpy's random package.
``n`` draws cost those words, one ``-log(U)`` over them, and one batch
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

from .hazard import HazardTrajectory, invert_cumulative_hazard_array
from .serialize import dump_json, write_artifact

__all__ = ["GENERATOR_NAME", "sample_replicates", "write_samples_csv"]

# Pinned draw rule: replicate i of seed s is word i of the Philox4x64-10
# stream keyed by (s mod 2**64, 0), which is word i of numpy's Philox bit
# generator keyed by s (hence "numpy" in the name, though riskcheck computes
# the words itself), turned into a unit exponential by ``_exponentials`` and
# into a failure time by the array inverse.  Changing the word assignment, the
# transform or the inverse's arithmetic changes the name.  "-v2": the Power
# and ExponentialGrowth inverses run on numpy's power, exp, log and log1p,
# which may round differently from ``math``'s.
GENERATOR_NAME = "numpy-philox4x64-counter-v2"

_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox4x64 round multipliers, each with its low and high 32-bit halves,
# and the Weyl constants added to the two key words between rounds
# (Random123's PHILOX_M4x64_0/1 and PHILOX_W64_0/1).
_PHILOX_M = tuple(
    (np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
    for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Counter blocks per chunk: a chunk's lanes are 64 kB arrays, which stay in
# cache across the rounds.
_CHUNK_BLOCKS = 8192


def _mulhilo(m: tuple, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x.

    The high word is summed from 32-bit half products, none of which
    overflows 64 bits; the low word is the wrapped 64-bit product.
    """
    m_full, m_lo, m_hi = m
    x_lo = x & _LOW32
    x_hi = x >> _SHIFT32
    t = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
    w = (t & _LOW32) + x_lo * m_hi
    return x_hi * m_hi + (t >> _SHIFT32) + (w >> _SHIFT32), x * m_full


def _philox_words(seed: int, n: int) -> np.ndarray:
    """The first n 64-bit words of the Philox4x64-10 stream keyed by seed.

    The key is (seed mod 2**64, 0) and block b encrypts the counter
    (b + 1, 0, 0, 0); its four output words are words 4b to 4b + 3.  The
    key words stay masked Python ints, so no numpy scalar overflows; every
    array operand is ``np.uint64``, whose array arithmetic wraps mod 2**64.
    """
    blocks = -(-n // 4)
    out = np.empty((blocks, 4), dtype=np.uint64)
    for start in range(0, blocks, _CHUNK_BLOCKS):
        c0 = np.arange(start + 1, min(start + _CHUNK_BLOCKS, blocks) + 1, dtype=np.uint64)
        c1 = c2 = c3 = np.zeros_like(c0)
        k0, k1 = seed & _MASK64, 0
        for _ in range(_PHILOX_ROUNDS):
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        out[start : start + len(c0)] = np.stack((c0, c1, c2, c3), axis=1)
    return out.reshape(-1)[:n]


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
    draws = _exponentials(_philox_words(seed, n))
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
