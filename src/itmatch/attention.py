"""Cross-modal attention and local similarity vectors over a tile of pairs.

A tile pairs every image of an (I, k, d) region stack with every caption
of a (C, n, d) word stack.  Captions shorter than n are zero-padded, and a
(C, n) boolean word mask marks their real words.  Results carry the
(images, captions) axes in front.  Attention weights are laid out as their
consumer multiplies them: image-to-text weights word-major (I, C, n, k),
ready to attend over the (I, 1, k, d) regions, and text-to-image weights
region-major (I, C, k, n), ready to attend over the (C, n, d) words.

Both streams start from one matrix of clamped region-word cosines per
tile.  It is l2-normalised along one modality and softmaxed (with a
temperature) along the other, giving region weights per word
(image-to-text) or word weights per region (text-to-image).  Attended
features are compared to their query vectors through a shared
bilinear-free similarity map: the elementwise squared difference
projected to an m-vector and scaled by the inverse euclidean distance.

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
from .errors import DimensionError
from .tensor import Tensor


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
    """Similarity vectors weight @ (x-y)^2 / ||x-y|| over the last axis, 0
    where x and y are closer than ``tensor.INV_GUARD`` (coincident).

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
    inv_dist = tt.safe_inv(tt.l2norm(diff, axis=-1))
    if row_mask is not None:
        inv_dist = tt.mul(inv_dist, tt.constant(row_mask))
    return tt.scale_rows(projected, inv_dist)


def _unit_rows(x: Tensor) -> Tensor:
    return tt.scale_rows(x, tt.safe_inv(tt.l2norm(x, axis=-1)))


def _check_stacks(v: Tensor, t: Tensor) -> None:
    if v.ndim != 3 or t.ndim != 3 or v.shape[2] != t.shape[2]:
        raise DimensionError(
            "region and word stacks must be (I, k, d) and (C, n, d) with one joint"
            f" dimension, got {v.shape} and {t.shape}"
        )


def cosines(v: Tensor, t: Tensor) -> Tensor:
    """Clamped region-word cosines (I, C, k, n), the one matrix both streams share."""
    _check_stacks(v, t)
    n_images, k, d = v.shape
    regions = tt.reshape(_unit_rows(v), (n_images, 1, k, d))
    return tt.relu(tt.matmul(regions, tt.transpose(_unit_rows(t))))


def i2t_weights(cos: Tensor, temperature: float) -> Tensor:
    """Region weights per word, word-major (I, C, n, k), each row summing to
    1: each region row of the (I, C, k, n) cosines l2-normalised over words,
    then softmaxed over regions."""
    normed = tt.scale_rows(cos, tt.safe_inv(tt.l2norm(cos, axis=-1)))
    return tt.softmax_rows(tt.transpose(tt.mul(normed, temperature)))


def t2i_weights(cos: Tensor, temperature: float, word_mask) -> Tensor:
    """Word weights per region (I, C, k, n), each row summing to 1: each word
    column of the cosines l2-normalised over regions, softmaxed over the
    words the (C, n) `word_mask` marks real."""
    n_images, n_captions, _, n = cos.shape
    inv = tt.safe_inv(tt.l2norm(cos, axis=-2))
    normed = tt.mul(cos, tt.reshape(inv, (n_images, n_captions, 1, n)))
    return tt.softmax_rows(tt.mul(normed, temperature), word_mask[:, None, :])


def local_similarities(
    v: Tensor,
    t: Tensor,
    v_glob: Tensor,
    t_glob: Tensor,
    word_mask,
    temperature: float,
    w_glob: Tensor,
    w_i2t: Tensor | None = None,
    w_t2i: Tensor | None = None,
) -> LocalSimilarities:
    """All similarity vectors of every (image, caption) pair in a tile.

    v: (I, k, d) regions with their (I, d) globals; t: (C, n, d) words,
    zero-padded where the (C, n) boolean `word_mask` is False, with their
    (C, d) globals computed over the real words only.  A stream whose
    weight is None is skipped.
    """
    _check_stacks(v, t)
    word_mask = np.asarray(word_mask, dtype=bool)
    if word_mask.shape != t.shape[:2]:
        raise DimensionError(f"word mask {word_mask.shape} does not match words {t.shape}")
    n_images, k, d = v.shape
    regions = tt.reshape(v, (n_images, 1, k, d))
    s_glob = sim_vec_rows(tt.reshape(v_glob, (n_images, 1, d)), t_glob, w_glob)
    cos = cosines(v, t) if w_i2t is not None or w_t2i is not None else None
    s_i2t = None
    if w_i2t is not None:
        attended = tt.matmul(i2t_weights(cos, temperature), regions)
        s_i2t = sim_vec_rows(attended, t, w_i2t, row_mask=word_mask)
    s_t2i = None
    if w_t2i is not None:
        # (attended - v)^2 equals (v - attended)^2 bitwise
        attended = tt.matmul(t2i_weights(cos, temperature, word_mask), t)
        s_t2i = sim_vec_rows(attended, regions, w_t2i)
    return LocalSimilarities(s_glob=s_glob, s_i2t=s_i2t, s_t2i=s_t2i)
