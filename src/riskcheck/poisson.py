"""Distance between the failure process and Poisson/exponential stand-ins.

A trajectory discretized on a time grid yields independent per-interval
failure indicators with p_i = 1 - exp(-(H(t_i) - H(t_{i-1}))).  The sum of
those indicators is Poisson-binomial, and the Barbour-Hall form of the
Stein-Chen bound,

    d_TV(sum, Poisson(lambda)) <= min(1, 1/lambda) * sum(p_i^2),
    lambda = sum(p_i),

is computable at a desk.  The exact total-variation distance is also
available on any grid: the sum lives on {0, ..., n}, so

    d_TV(sum, Poisson(lambda)) = sum_{k <= n} (P(sum = k) - pi_k)^+

exactly, with the Poisson pmf pi_k needed only up to k = n; that is what
the bound is tested against.  A Kolmogorov-Smirnov distance between sampled
failure times and an exponential model rounds out the desk-scale metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compare import PraModel, _check_grid
from .hazard import HazardTrajectory, cumulative_hazard

__all__ = [
    "DiscretizedFailureProcess",
    "discretize",
    "poisson_binomial_pmf",
    "stein_chen_tv_bound",
    "exact_tv_small",
    "ks_distance",
]


@dataclass(frozen=True)
class DiscretizedFailureProcess:
    """Per-interval failure probabilities, each in [0, 1].

    p = 1 is an interval where failure is certain in double precision (its
    hazard increment is past about 37); nothing here divides by 1 - p.
    p = 0 is one whose increment underflows or rounds to 0; it adds nothing
    to lambda, the bound or the pmf.
    """

    probabilities: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise ValueError("interval failure probabilities must lie in [0, 1]")


def discretize(traj: HazardTrajectory, grid) -> DiscretizedFailureProcess:
    """Per-interval failure probabilities from cumulative-hazard increments.

    ``grid`` is strictly increasing with all times > 0; intervals are
    (0, t_1], (t_1, t_2], ...  By construction
    sum(-log(1 - p_i)) == H(t_n), so refining the grid preserves the total.
    An interval ending where H has saturated to inf gets p = 1 (failure is
    certain by then), not the nan of inf - inf.
    """
    grid = _check_grid(grid)
    if grid[0] == 0.0:
        raise ValueError("grid times must be positive")
    cum = [0.0] + [cumulative_hazard(traj, t) for t in grid]
    return DiscretizedFailureProcess(
        probabilities=tuple(
            1.0 if b == math.inf else -math.expm1(-(b - a)) for a, b in zip(cum, cum[1:])
        )
    )


def poisson_binomial_pmf(probabilities) -> np.ndarray:
    """Exact pmf of a sum of independent indicators, by convolution."""
    pmf = np.array([1.0])
    for p in probabilities:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


def stein_chen_tv_bound(proc: DiscretizedFailureProcess) -> float:
    """Barbour-Hall total-variation bound between the indicator sum and
    Poisson(lambda) with lambda = sum(p_i)."""
    lam = sum(proc.probabilities)
    if lam == 0.0:
        return 0.0
    return min(1.0, 1.0 / lam) * sum(p * p for p in proc.probabilities)


def exact_tv_small(proc: DiscretizedFailureProcess) -> float:
    """Exact total-variation distance to Poisson(lambda), O(n^2) in n.

    Half the L1 distance equals the positive part of the difference summed
    over the points where the indicator sum has mass, {0, ..., n}, because
    both pmfs sum to one.  The Poisson pmf is built in log space,
    pi_k = exp(k log(lambda) - lambda - lgamma(k + 1)), so it does not
    underflow to all zeros where exp(-lambda) alone would (lambda past about
    745).  lambda = 0 means every p_i is 0, so both laws sit at 0.
    """
    lam = sum(proc.probabilities)
    if lam == 0.0:
        return 0.0
    tv, log_lam = 0.0, math.log(lam)
    for k, mass in enumerate(poisson_binomial_pmf(proc.probabilities)):
        tv += max(float(mass) - math.exp(k * log_lam - lam - math.lgamma(k + 1)), 0.0)
    return tv


def ks_distance(times, model: PraModel) -> float:
    """sup_t |F_hat(t) - (1 - exp(-rate t))| for the empirical law of the
    failure times ``times``, in any order; exact over the step points."""
    times = np.array(times, dtype=np.float64, ndmin=1)
    n = times.size
    if n == 0:
        raise ValueError("empirical distribution is empty")
    if not np.all((times > 0.0) & (times < np.inf)):
        raise ValueError("all failure times must be finite and positive")
    times.sort()
    f = -np.expm1(-model.rate * times)
    below = np.arange(n) / n  # each i / n correctly rounded, as in Python
    return float(max(np.max(np.abs(below - f)), np.max(np.abs((np.arange(1, n + 1) / n) - f))))
