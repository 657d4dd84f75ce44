"""Stream fusion, scalar scoring, and the bidirectional ranking loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor

@dataclass(frozen=True)
class LossBatch:
    """(b, b) score grid whose diagonal holds the matched pairs."""

    scores: Tensor
    margin: float

    def __post_init__(self):
        if self.scores.ndim != 2 or self.scores.shape[0] != self.scores.shape[1]:
            raise ContractError(f"score grid must be square, got {self.scores.shape}")
        if self.scores.shape[0] < 2:
            raise ContractError("score grid needs at least two pairs for negatives")
        if not 0.0 <= self.margin < np.inf:  # NaN fails both comparisons
            raise ConfigError(f"margin must be finite and non-negative, got {self.margin}")


def fuse(s_i2t: Tensor | None, s_t2i: Tensor | None) -> Tensor:
    """Sum of the two stream vectors, or the one given when a stream is off."""
    if s_i2t is None and s_t2i is None:
        raise ContractError("fuse needs at least one stream vector")
    if s_i2t is None or s_t2i is None:
        return s_t2i if s_i2t is None else s_i2t
    if s_i2t.shape != s_t2i.shape:
        raise DimensionError(f"stream shapes differ: {s_i2t.shape} vs {s_t2i.shape}")
    return tt.add(s_i2t, s_t2i)


def score(fused: Tensor, w_head: Tensor, b_head: Tensor) -> Tensor:
    """Scalar matching score w . fused + b of each fused vector (..., m)."""
    if fused.ndim < 1 or w_head.ndim != 1 or w_head.shape[0] != fused.shape[-1]:
        raise DimensionError(f"score needs matching vectors, got {fused.shape} and {w_head.shape}")
    return tt.add(tt.matmul(fused, w_head), b_head)


def bidirectional_ranking_loss(batch: LossBatch) -> Tensor:
    """Sum of hinge terms against the hardest in-batch negatives.

    For each matched pair k the hardest negative caption is the largest
    off-diagonal entry of row k and the hardest negative image the
    largest off-diagonal entry of column k; ties take the lowest index
    (the rule of ``amax``).  All caption terms are summed, then all image
    terms, so the result is bitwise reproducible.
    """
    b = batch.scores.shape[0]
    eye = np.eye(b)
    matched = tt.sum(tt.mul(batch.scores, tt.constant(eye)), axis=1)
    off_diag = tt.add(batch.scores, tt.constant(np.where(eye == 1.0, -np.inf, 0.0)))
    caption_terms = tt.relu(tt.add(tt.sub(tt.amax(off_diag, axis=1), matched), batch.margin))
    image_terms = tt.relu(tt.add(tt.sub(tt.amax(off_diag, axis=0), matched), batch.margin))
    return tt.add(tt.sum(caption_terms), tt.sum(image_terms))
