"""Variance lower bounds for the width estimate on index subranges.

For samples ``y[n] = f(n dx) + noise`` with known amplitude and location,
the Fisher information for sigma contributed by index range R is
``sum_{n in R} f[n]^2 (mu - dx n)^4 / sigma^6 / noise_power``, so the
bound is its reciprocal.  Ratios of bounds over complementary ranges give
the optimal weight for combining the two one-sided width estimates.

These functions take the true parameters; they exist for analysis and
testing, not for use inside fitting pipelines (which only see samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFisherError, InvalidGridError
from .signal import GaussianParams, eval_gaussian

__all__ = ["CrlbQuery", "crlb_sigma", "crlb_ratio", "optimal_rho_oracle"]


@dataclass(frozen=True)
class CrlbQuery:
    """Bound query: true parameters, grid spacing, half-open index range,
    and the additive noise power."""

    params: GaussianParams
    delta_x: float
    n_lo: int
    n_hi: int
    noise_power: float

    def __post_init__(self):
        if self.delta_x <= 0:
            raise InvalidGridError(f"delta_x must be > 0, got {self.delta_x!r}")
        if self.n_lo < 0 or self.n_hi <= self.n_lo:
            raise InvalidGridError(
                f"index range [{self.n_lo}, {self.n_hi}) must be non-empty"
            )
        if not (math.isfinite(self.noise_power) and self.noise_power > 0):
            raise InvalidGridError(f"noise_power must be > 0, got {self.noise_power!r}")


def _fisher_sum(params: GaussianParams, delta_x: float, n_lo: int, n_hi: int) -> float:
    """``sum f[n]^2 (mu - dx n)^4`` over ``n_lo <= n < n_hi``."""
    n = np.arange(n_lo, n_hi)
    x = delta_x * n
    f = eval_gaussian(params, x)
    s = float(np.sum(f * f * (params.mu - x) ** 4))
    if not math.isfinite(s):
        raise DegenerateFisherError(f"information sum is {s!r}")
    return s


def crlb_sigma(query: CrlbQuery) -> float:
    """Lower bound on the variance of an unbiased width estimate that uses
    only samples in the query's index range."""
    s = _fisher_sum(query.params, query.delta_x, query.n_lo, query.n_hi)
    if s <= 0:
        raise DegenerateFisherError(
            "no information about sigma in the requested range"
        )
    return query.noise_power * query.params.sigma**6 / s


def _split_sums(
    params: GaussianParams, delta_x: float, n_hat: int, n_total: int
) -> tuple[float, float]:
    """Information sums left (``n < n_hat``) and right of the split index;
    both sides must carry information."""
    if not 0 < n_hat < n_total:
        raise InvalidGridError(f"n_hat must be in (0, {n_total}), got {n_hat}")
    s_beta = _fisher_sum(params, delta_x, 0, n_hat)
    s_alpha = _fisher_sum(params, delta_x, n_hat, n_total)
    if s_beta <= 0 or s_alpha <= 0:
        raise DegenerateFisherError("one side carries no information about sigma")
    return s_beta, s_alpha


def crlb_ratio(
    params: GaussianParams, delta_x: float, n_hat: int, n_total: int
) -> float:
    """Bound ratio (left range over right range) at split index ``n_hat``.

    Noise power and the sigma^6 factor cancel, leaving the inverse ratio
    of the two information sums.
    """
    s_beta, s_alpha = _split_sums(params, delta_x, n_hat, n_total)
    return s_alpha / s_beta


def optimal_rho_oracle(
    params: GaussianParams, delta_x: float, n_hat: int, n_total: int
) -> float:
    """Variance-optimal convex weight for combining the one-sided width
    estimates, from the true (noiseless) Gaussian.

    Equals the right-side information sum over the full-range sum, which
    is the left-range bound divided by the sum of both bounds; always in
    (0, 1) when both sides carry information.
    """
    s_beta, s_alpha = _split_sums(params, delta_x, n_hat, n_total)
    return s_alpha / (s_alpha + s_beta)
