"""Feature encoders for the two modalities.

Images arrive as precomputed region feature matrices (k, d_raw) and are
mapped into the joint space by a single linear layer, a whole stack of
them in one product.  Captions are token id sequences, zero-padded into
one batch, embedded and run through a bidirectional GRU (one tape node
for both directions) whose two hidden sequences are averaged position-wise.
The global feature of either modality gates each local vector by the
mean vector before pooling.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import tensor as tt
from .errors import DimensionError, InputError
from .tensor import Tensor


def project_image(regions, weight: Tensor, bias: Tensor) -> Tensor:
    """Map raw region features (..., k, d_raw) to the joint space (..., k, d),
    a whole stack in one product against the weight."""
    return tt.add(tt.matmul(tt.constant(regions), weight), bias)


def encode_texts(
    token_lists: Sequence[Sequence[int]],
    table: Tensor,
    fwd: Sequence[Tensor],
    bwd: Sequence[Tensor],
    max_len: int,
) -> tuple[Tensor, np.ndarray]:
    """Encode a batch of captions: (C, L + 1, d) word features and the C lengths.

    `fwd` and `bwd` are each direction's nine GRU tensors in the order
    ``tensor.gru_sequence`` takes them.  Row j of caption c is the mean of
    the forward and backward GRU states at word j; rows from lengths[c] on
    are zero, so every caption, the longest (length L) included, has at
    least one zero row after its last word.  Both directions run every
    caption at once, as one node.  A caption longer than `max_len` is refused.
    """
    if len(token_lists) == 0:
        raise InputError("no captions to encode")
    vocab = table.shape[0]
    lengths = np.array([len(tokens) for tokens in token_lists], dtype=np.intp)
    rows = int(lengths.max()) + 1
    ids = np.zeros((len(token_lists), rows), dtype=np.intp)
    for c, tokens in enumerate(token_lists):
        if len(tokens) == 0:
            raise InputError(f"caption {c} has no tokens")
        if len(tokens) > max_len:
            raise InputError(f"caption {c}: length {len(tokens)} exceeds maximum {max_len}")
        ids[c, :len(tokens)] = tokens
    bad = np.argwhere((ids < 0) | (ids >= vocab))
    if bad.size:
        c, j = bad[0]
        raise InputError(f"caption {c}: token id {ids[c, j]} outside vocabulary of size {vocab}")
    # padded positions embed token 0; the GRU never reads them
    embedded = tt.take_rows(table, ids)
    return tt.gru_sequence(embedded, lengths, fwd, bwd), lengths


def global_feature(local: Tensor, lengths=None) -> Tensor:
    """Gate each local vector by the mean vector, then mean-pool:
    (..., n, d) -> (..., d).

    The pool of the gated vectors, sum_i (l_i * m) / n, is m * m, so it is
    computed as the square of the mean.  With `lengths` (one per matrix of
    the stack) only the first lengths[i] rows of matrix i count, and the
    rows after them must be zero.
    """
    if local.ndim < 2 or local.shape[-2] < 1:
        raise DimensionError(f"global_feature needs (..., n, d) with n >= 1, got {local.shape}")
    counts = np.full(local.shape[:-2], float(local.shape[-2]))
    if lengths is not None:
        counts = np.asarray(lengths, dtype=np.float64)
        if counts.shape != local.shape[:-2]:
            raise DimensionError(f"lengths {counts.shape} do not match the stack {local.shape}")
    return tt.square(tt.mul(tt.sum(local, axis=-2), (1.0 / counts)[..., None]))
