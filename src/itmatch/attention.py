"""Cross-modal attention and local similarity vectors over a tile of pairs.

A tile pairs every image of an (I, k, d) region stack with every caption
of a (C, n, d) word stack.  Captions shorter than n are zero-padded, and a
(C, n) boolean word mask marks their real words.  Results carry the
(images, captions) axes in front: attention weights are (I, C, k, n).

Clamped cosine scores between regions and words are l2-normalised along
one modality and softmaxed (with a temperature) along the other, giving
region weights per word (image-to-text) or word weights per region
(text-to-image).  Attended features are compared to their query vectors
through a shared bilinear-free similarity map: the elementwise squared
difference projected to an m-vector and scaled by the inverse euclidean
distance.

Padding needs care in two places only.  A padded word is a zero vector,
so its cosines are zero and it drops out of every l2 norm by itself; but
it would still win weight in the text-to-image softmax over words (which
is masked) and would still get an image-to-text similarity row (which is
zeroed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .encoders import global_feature
from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor

# below this, two vectors count as coincident and the similarity vector is 0
DISTANCE_GUARD = 1e-12

I2T = "i2t"
T2I = "t2i"


@dataclass(frozen=True)
class AttentionWeights:
    """(I, C, k, n) weights tagged with their normalisation direction.

    direction == "i2t": softmax over regions, each column sums to 1.
    direction == "t2i": softmax over real words, each row sums to 1.
    """

    weights: Tensor
    direction: str


@dataclass(frozen=True)
class LocalSimilarities:
    """Similarity vectors feeding the reasoning stage, for every pair.

    s_glob: (I, C, m) global-to-global similarity, shared by both streams.
    s_i2t:  (I, C, n, m) per-word rows, zero on padded words; None when
            the stream is disabled.
    s_t2i:  (I, C, k, m) per-region rows, None when the stream is disabled.
    """

    s_glob: Tensor
    s_i2t: Tensor | None
    s_t2i: Tensor | None


def sim_vec_rows(x: Tensor, y: Tensor, weight: Tensor, row_mask=None) -> Tensor:
    """Similarity vectors weight @ (x-y)^2 / ||x-y|| over the last axis.

    x and y broadcast against each other (y has no more axes than x); a
    boolean `row_mask` over the result's leading axes zeroes rows.
    """
    if x.ndim < 1 or x.shape[-1] != y.shape[-1]:
        raise DimensionError(f"sim_vec_rows needs rows of equal width, got {x.shape} and {y.shape}")
    if weight.ndim != 2 or weight.shape[1] != x.shape[-1]:
        raise DimensionError(
            f"similarity weight must be (m, {x.shape[-1]}), got {weight.shape}"
        )
    diff = tt.sub(x, y)
    projected = tt.matmul(tt.square(diff), tt.transpose(weight))
    inv_dist = tt.safe_inv(tt.l2norm(diff, axis=-1), DISTANCE_GUARD)
    if row_mask is not None:
        inv_dist = tt.mul(inv_dist, tt.constant(row_mask))
    return tt.scale_rows(projected, inv_dist)


def _unit_rows(x: Tensor) -> Tensor:
    return tt.scale_rows(x, tt.safe_inv(tt.l2norm(x, axis=-1), DISTANCE_GUARD))


def _check_stacks(v: Tensor, t: Tensor) -> None:
    if v.ndim != 3 or t.ndim != 3 or v.shape[2] != t.shape[2]:
        raise DimensionError(
            "region and word stacks must be (I, k, d) and (C, n, d) with one joint"
            f" dimension, got {v.shape} and {t.shape}"
        )


def cross_attention(
    v: Tensor, t: Tensor, temperature: float, direction: str, word_mask=None
) -> AttentionWeights:
    """Attention weights (I, C, k, n) from clamped region-word cosines."""
    if direction not in (I2T, T2I):
        raise ContractError(f"direction must be 'i2t' or 't2i', got {direction!r}")
    if temperature <= 0.0:
        raise ConfigError(f"temperature must be positive, got {temperature}")
    _check_stacks(v, t)
    n_images, k, d = v.shape
    n_captions, n, _ = t.shape
    regions = tt.reshape(_unit_rows(v), (n_images, 1, k, d))
    cosines = tt.relu(tt.matmul(regions, tt.transpose(_unit_rows(t))))
    if direction == I2T:
        # normalise each region row over words, softmax over regions per word
        normed = tt.scale_rows(cosines, tt.safe_inv(tt.l2norm(cosines, axis=-1), DISTANCE_GUARD))
        logits = tt.mul(normed, float(temperature))
        weights = tt.transpose(tt.softmax_rows(tt.transpose(logits)))
    else:
        # normalise each word column over regions, softmax over real words per region
        inv = tt.safe_inv(tt.l2norm(cosines, axis=-2), DISTANCE_GUARD)
        normed = tt.mul(cosines, tt.reshape(inv, (n_images, n_captions, 1, n)))
        logits = tt.mul(normed, float(temperature))
        weights = tt.softmax_rows(logits, None if word_mask is None else word_mask[:, None, :])
    return AttentionWeights(weights=weights, direction=direction)


def attended_features(att: AttentionWeights, v: Tensor, t: Tensor) -> Tensor:
    """Weighted features: (I, C, n, d) of regions for i2t, (I, C, k, d) of words for t2i."""
    _check_stacks(v, t)
    if att.weights.shape != (v.shape[0], t.shape[0], v.shape[1], t.shape[1]):
        raise DimensionError(
            f"attention weights {att.weights.shape} do not match regions {v.shape}"
            f" and words {t.shape}"
        )
    if att.direction == I2T:
        regions = tt.reshape(v, (v.shape[0], 1) + v.shape[1:])
        return tt.matmul(tt.transpose(att.weights), regions)
    return tt.matmul(att.weights, t)


def local_similarities(
    v: Tensor,
    t: Tensor,
    temperature: float,
    w_glob: Tensor,
    w_i2t: Tensor | None = None,
    w_t2i: Tensor | None = None,
    v_glob: Tensor | None = None,
    t_glob: Tensor | None = None,
    word_mask=None,
) -> LocalSimilarities:
    """All similarity vectors of every (image, caption) pair in a tile.

    v: (I, k, d) regions; t: (C, n, d) words, zero-padded where the (C, n)
    boolean `word_mask` is False (no mask: every word is real).  Global
    features (I, d) and (C, d) are derived from v and t when not given;
    padded captions need theirs given, computed before padding.
    """
    _check_stacks(v, t)
    if word_mask is not None:
        word_mask = np.asarray(word_mask, dtype=bool)
        if word_mask.shape != t.shape[:2]:
            raise DimensionError(f"word mask {word_mask.shape} does not match words {t.shape}")
        if t_glob is None:
            raise ContractError("padded captions need their global features passed in")
    if v_glob is None:
        v_glob = global_feature(v)
    if t_glob is None:
        t_glob = global_feature(t)
    n_images, k, d = v.shape
    s_glob = sim_vec_rows(tt.reshape(v_glob, (n_images, 1, d)), t_glob, w_glob)
    s_i2t = None
    if w_i2t is not None:
        att = cross_attention(v, t, temperature, I2T, word_mask)
        s_i2t = sim_vec_rows(attended_features(att, v, t), t, w_i2t, row_mask=word_mask)
    s_t2i = None
    if w_t2i is not None:
        att = cross_attention(v, t, temperature, T2I, word_mask)
        # (attended - v)^2 equals (v - attended)^2 bitwise
        regions = tt.reshape(v, (n_images, 1, k, d))
        s_t2i = sim_vec_rows(attended_features(att, v, t), regions, w_t2i)
    return LocalSimilarities(s_glob=s_glob, s_i2t=s_i2t, s_t2i=s_t2i)
