"""Synthetic Criteo-like recommendation data (for DLRM).

The real Criteo Kaggle dataset [54] is proprietary-licensed and large;
DLRM's communication behaviour depends only on the batch size, the
number of embedding tables, their row counts, the embedding dimension,
and the pooling factor (lookups per table).  This generator produces a
categorical click log with Criteo's structure: 26 sparse (categorical)
features and 13 dense features, with power-law-ish index popularity so
row accesses are skewed like real category frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import AppError

CRITEO_SPARSE_FIELDS = 26
CRITEO_DENSE_FIELDS = 13


@dataclass(frozen=True)
class CriteoLikeDataset:
    """A synthetic batch of recommendation samples (read-only arrays).

    Attributes:
        indices: int64 array [batch, tables, hots] -- embedding rows
            each sample looks up per table (multi-hot pooling).
        dense: float32 array [batch, dense_fields].
        num_rows: Rows per embedding table.
    """

    indices: np.ndarray
    dense: np.ndarray
    num_rows: int


@lru_cache(maxsize=4)
def criteo_like(batch_size: int, num_tables: int = CRITEO_SPARSE_FIELDS,
                num_rows: int = 1 << 16, hots: int = 4,
                dense_fields: int = CRITEO_DENSE_FIELDS,
                seed: int = 0) -> CriteoLikeDataset:
    """Generate a synthetic Criteo-like batch.

    Index popularity follows a Zipf-like distribution (clipped), which
    matches the heavy skew of real categorical features.  Memoized on
    its arguments (the paper-scale experiments each ask for the same
    batch), so the returned arrays are read-only; copy before mutating.
    """
    if batch_size < 1 or num_tables < 1 or num_rows < 2 or hots < 1:
        raise AppError("criteo_like: all sizes must be positive "
                       "(num_rows >= 2)")
    rng = np.random.default_rng(seed)
    raw = rng.zipf(1.2, size=(batch_size, num_tables, hots))
    indices = ((raw - 1) % num_rows).astype(np.int64)
    dense = rng.standard_normal((batch_size, dense_fields)).astype(np.float32)
    indices.setflags(write=False)
    dense.setflags(write=False)
    return CriteoLikeDataset(indices=indices, dense=dense, num_rows=num_rows)


def embedding_tables(num_tables: int, num_rows: int, dim: int,
                     seed: int = 0, low: int = -8, high: int = 8
                     ) -> np.ndarray:
    """Random integer embedding tables [tables, rows, dim] (int64).

    Integer values keep the distributed pooling bit-exactly comparable
    against the golden model (no float summation-order issues).
    """
    rng = np.random.default_rng(seed)
    return rng.integers(low, high, size=(num_tables, num_rows, dim)).astype(
        np.int64)
