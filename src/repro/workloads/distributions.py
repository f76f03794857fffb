"""Sparse-index samplers for embedding lookups.

The paper's production traces are proprietary, so lookup indices are drawn
synthetically.  Uniform sampling stresses the memory system hardest (no
cache reuse); Zipfian sampling models the popularity skew real recommender
traffic exhibits and is what makes the CPU cache-hierarchy ablation
interesting (hot rows become cacheable).
"""

from dataclasses import dataclass

import numpy as np


def _check_rows(rows: int) -> None:
    if rows < 1:
        raise ValueError(f"rows must be at least 1, got {rows}")
    if rows > 2**31:  # samples are int32
        raise ValueError(f"rows must be at most 2**31, got {rows}")


@dataclass
class UniformSampler:
    """IID uniform indices over a table."""

    rows: int
    seed: int = 0

    def __post_init__(self):
        _check_rows(self.rows)
        self._rng = np.random.default_rng(self.seed)

    def sample(self, shape) -> np.ndarray:
        return self._rng.integers(0, self.rows, shape).astype(np.int32)


@dataclass
class ZipfianSampler:
    """Zipf-distributed indices (rank-frequency skew, s = ``alpha``).

    Uses the inverse-CDF method over a precomputed harmonic table so any
    ``alpha > 0`` works (NumPy's built-in ``zipf`` needs alpha > 1).
    """

    rows: int
    alpha: float = 0.9
    seed: int = 0

    def __post_init__(self):
        _check_rows(self.rows)
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        self._rng = np.random.default_rng(self.seed)
        # Random rank -> row permutation so "popular" rows are scattered
        # through the physical table, as in production.  Stored as int32
        # (the sample dtype), and built before the CDF so the transient
        # int64 permutation and the CDF are never alive together.
        self._perm = np.random.default_rng(self.seed + 1).permutation(self.rows).astype(np.int32)
        # The CDF of weights 1 / rank**alpha, built in place in one array.
        cdf = np.arange(1, self.rows + 1, dtype=np.float64)
        np.power(cdf, self.alpha, out=cdf)
        np.divide(1.0, cdf, out=cdf)
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        self._cdf = cdf

    def sample(self, shape) -> np.ndarray:
        u = self._rng.random(np.prod(shape, dtype=int))
        ranks = np.searchsorted(self._cdf, u)
        return self._perm[ranks].reshape(shape)


def make_sampler(kind: str, rows: int, seed: int = 0, alpha: float = 0.9):
    """Factory: ``uniform`` or ``zipfian``."""
    if kind == "uniform":
        return UniformSampler(rows, seed)
    if kind == "zipfian":
        return ZipfianSampler(rows, alpha, seed)
    raise ValueError(f"unknown sampler kind {kind!r}")
