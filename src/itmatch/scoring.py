"""Scalar scoring, the one finiteness rule for scores, and the bidirectional
ranking loss, whose hardest negatives are chosen once, in numpy, from the
score grid's values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .errors import ConfigError, ContractError, DataError, DimensionError
from .tensor import Tensor


def check_finite(scores: np.ndarray) -> None:
    """Raise DataError naming the first (image, caption) entry that is not finite."""
    bad = np.argwhere(~np.isfinite(scores))
    if bad.size:
        i, j = (int(x) for x in bad[0])
        raise DataError(f"score of image {i} and caption {j} is not finite ({float(scores[i, j])!r})")


@dataclass(frozen=True)
class LossBatch:
    """(b, b) score grid whose diagonal holds the matched pairs, every entry
    finite: a hardest negative that is not finite would leave the loss finite
    and wrong."""

    scores: Tensor
    margin: float

    def __post_init__(self):
        if self.scores.ndim != 2 or self.scores.shape[0] != self.scores.shape[1]:
            raise ContractError(f"score grid must be square, got {self.scores.shape}")
        if self.scores.shape[0] < 2:
            raise ContractError("score grid needs at least two pairs for negatives")
        if not 0.0 <= self.margin < np.inf:  # NaN fails both comparisons
            raise ConfigError(f"margin must be finite and non-negative, got {self.margin}")
        check_finite(self.scores.data)


def score(fused: Tensor, w_head: Tensor) -> Tensor:
    """Scalar matching score fused . w of each fused vector of a (..., m) stack;
    no bias, which the loss would never move: every hinge term reads a difference of scores."""
    if fused.ndim < 2 or w_head.ndim != 1 or w_head.shape[0] != fused.shape[-1]:
        raise DimensionError(f"score needs matching vectors, got {fused.shape} and {w_head.shape}")
    return tt.matmul(fused, w_head)


def hardest_negatives(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column of each row's and row of each column's largest off-diagonal
    entry; ties take the lowest index.  The diagonal is set to -inf first, so
    on a finite grid it is never chosen."""
    off = np.array(scores, dtype=np.float64)
    np.fill_diagonal(off, -np.inf)
    return np.argmax(off, axis=1), np.argmax(off, axis=0)


def bidirectional_ranking_loss(batch: LossBatch) -> Tensor:
    """Sum of hinge terms against the hardest in-batch negatives.

    For each matched pair k the hardest negative caption is the largest
    off-diagonal entry of row k and the hardest negative image the
    largest off-diagonal entry of column k (``hardest_negatives``); the tape
    only gathers those entries by their (image, caption) coordinates, the
    (b,) matched ones against the (2, b) negatives.  All caption terms are
    summed, then all image terms, so the result is bitwise reproducible.
    """
    row_negs, col_negs = hardest_negatives(batch.scores.data)
    ks = np.arange(batch.scores.shape[0])
    matched = tt.take_rows(batch.scores, (ks, ks))
    negatives = tt.take_rows(batch.scores, (np.stack([ks, col_negs]), np.stack([row_negs, ks])))
    terms = tt.relu(tt.add(tt.sub(negatives, matched), batch.margin))
    return tt.sum(tt.sum(terms, axis=1))
