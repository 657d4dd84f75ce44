"""Feature encoders for the two modalities.

Images arrive as precomputed region feature matrices (k, d_raw) and are
mapped into the joint space by a single linear layer.  Captions are token
id sequences, embedded and run through a bidirectional GRU whose two
hidden sequences are averaged position-wise.  The global feature of
either modality gates each local vector by the mean vector before
pooling.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .errors import DimensionError, InputError
from .tensor import Tensor


@dataclass(frozen=True)
class GruWeights:
    """One direction of the GRU: reset / update / candidate blocks."""

    w_reset: Tensor
    w_update: Tensor
    w_cand: Tensor
    u_reset: Tensor
    u_update: Tensor
    u_cand: Tensor
    b_reset: Tensor
    b_update: Tensor
    b_cand: Tensor


def project_image(regions, weight: Tensor, bias: Tensor) -> Tensor:
    """Map raw region features (k, d_raw) to the joint space (k, d)."""
    if not isinstance(regions, Tensor):
        regions = tt.constant(np.asarray(regions, dtype=np.float64))
    if regions.ndim != 2:
        raise DimensionError(f"region features must be (k, d_raw), got {regions.shape}")
    if regions.shape[1] != weight.shape[0]:
        raise DimensionError(
            f"raw dimension {regions.shape[1]} does not match projection rows {weight.shape[0]}"
        )
    return tt.add(tt.matmul(regions, weight), bias)


def gru_step(x: Tensor, h: Tensor, w: GruWeights) -> Tensor:
    """One GRU step. The update gate weights the candidate state:
    h' = h + z * (cand - h), so z -> 1 hands the state to the candidate."""
    reset = tt.sigmoid(tt.add(tt.add(tt.matmul(w.w_reset, x), tt.matmul(w.u_reset, h)), w.b_reset))
    update = tt.sigmoid(tt.add(tt.add(tt.matmul(w.w_update, x), tt.matmul(w.u_update, h)), w.b_update))
    cand = tt.tanh(
        tt.add(tt.add(tt.matmul(w.w_cand, x), tt.matmul(w.u_cand, tt.mul(reset, h))), w.b_cand)
    )
    return tt.add(h, tt.mul(update, tt.sub(cand, h)))


def _gru_run(embedded: Tensor, order: Sequence[int], w: GruWeights) -> list[Tensor]:
    hidden_dim = w.u_reset.shape[0]
    h = tt.zeros((hidden_dim,))
    states: dict[int, Tensor] = {}
    for t in order:
        h = gru_step(tt.take(embedded, t), h, w)
        states[t] = h
    return [states[t] for t in range(embedded.shape[0])]


def encode_text(
    tokens: Sequence[int],
    table: Tensor,
    fwd: GruWeights,
    bwd: GruWeights,
    max_len: int | None = None,
) -> Tensor:
    """Encode token ids to (l, d): mean of forward and backward GRU states."""
    ids = [int(t) for t in tokens]
    if len(ids) == 0:
        raise InputError("caption has no tokens")
    if max_len is not None and len(ids) > max_len:
        raise InputError(f"caption length {len(ids)} exceeds maximum {max_len}")
    vocab = table.shape[0]
    for t in ids:
        if t < 0 or t >= vocab:
            raise InputError(f"token id {t} outside vocabulary of size {vocab}")
    embedded = tt.take_rows(table, ids)
    length = len(ids)
    forward_states = _gru_run(embedded, range(length), fwd)
    backward_states = _gru_run(embedded, range(length - 1, -1, -1), bwd)
    merged = [
        tt.mul(tt.add(forward_states[j], backward_states[j]), 0.5)
        for j in range(length)
    ]
    return tt.stack(merged)


def global_feature(local: Tensor) -> Tensor:
    """Gate each local vector by the mean vector, then mean-pool:
    (..., n, d) -> (..., d)."""
    if local.ndim < 2 or local.shape[-2] < 1:
        raise DimensionError(f"global_feature needs (..., n, d) with n >= 1, got {local.shape}")
    mean_vec = tt.mean(local, axis=-2)
    if local.ndim > 2:
        mean_vec = tt.reshape(mean_vec, mean_vec.shape[:-1] + (1, local.shape[-1]))
    gated = tt.mul(local, mean_vec)
    return tt.mean(gated, axis=-2)
