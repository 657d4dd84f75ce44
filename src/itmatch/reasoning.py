"""Gated graph reasoning over similarity vectors.

The node set of a pair stacks its per-word similarity vectors with the
global one right after them.  A tile reasons over an (..., n, m) stack of
node sets at once: caption j's node set has its L_j word nodes in rows
0..L_j-1, its global node in row L_j, and zero rows after that.  The
zero rows act as the 3x3 gate's zero border, so every real entry sees
the same neighbourhood as in an unpadded (L_j + 1)-node set.

Each reasoning layer builds a dense pairwise relation matrix from two
learned projections, gates it by a sigmoid of a 3x3 convolution over the
matrix itself when the layer has a gate kernel (the "hierarchical" path,
which makes the update sensitive to neighbourhoods of relations rather
than single entries), and applies a residual per-node linear update.
Every weight is applied as ``x @ W``.  ``reason`` owns the node-set
layout: it places each global node, runs the layers and reads the global
nodes back after the last one, one gather by their (..., caption, row)
coordinates.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .errors import ConfigError, DimensionError
from .tensor import Tensor


@dataclass(frozen=True)
class ReasonLayerParams:
    """Independent parameters of one reasoning layer; an ungated one has no gate."""

    w_query: Tensor                # (m, m) projection of the receiving node
    w_key: Tensor                  # (m, m) projection of the contributing node
    w_out: Tensor                  # (m, m) per-node output map
    w_mix: Tensor                  # (m, m) feature mix inside the aggregation
    kernel: Tensor | None = None   # (3, 3) gate convolution kernel
    bias: Tensor | None = None     # ()     gate convolution bias


def relation_matrix(nodes: Tensor, w_query: Tensor, w_key: Tensor) -> Tensor:
    """Dense pairwise relations: R[p, q] = (s_p Wq) . (s_q Wk)."""
    queries = tt.matmul(nodes, w_query)
    keys = tt.matmul(nodes, w_key)
    return tt.matmul(queries, tt.transpose(keys))


def gate_relations(rel: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Modulate relations by a sigmoid conv gate over the matrix itself."""
    return tt.mul(rel, tt.sigmoid(tt.conv2d_3x3(rel, kernel, bias)))


def reason_step(
    nodes: Tensor,
    layer: ReasonLayerParams,
    node_mask,
    row_softmax: bool = False,
) -> Tensor:
    """One residual update of every node from its relation-weighted context.

    `node_mask` (boolean, over the last two axes but the feature one) marks
    real nodes.  A zero node already neither sends nor receives through
    the relation matrix; only the row softmax needs the mask, to keep
    padded columns out of each row and padded rows at zero.
    """
    mixing = relation_matrix(nodes, layer.w_query, layer.w_key)
    if layer.kernel is not None:
        mixing = gate_relations(mixing, layer.kernel, layer.bias)
    if row_softmax:
        mixing = tt.softmax_rows(mixing, node_mask[..., None, :])
        mixing = tt.mul(mixing, node_mask[..., :, None])
    context = tt.matmul(tt.matmul(mixing, nodes), layer.w_mix)
    update = tt.matmul(context, layer.w_out)
    return tt.add(update, nodes)


def reason(
    local: Tensor,
    glob: Tensor,
    lengths,
    layers: Sequence[ReasonLayerParams],
    row_softmax: bool = False,
) -> Tensor:
    """Reason over the image-to-text node sets; return their global nodes (..., m).

    local: (..., n, m) word nodes, zero from row lengths[c] on, where
    `lengths` has the last leading axes of local, (C,) of (..., C, n, m) or
    (P, 1) of (P, 1, n, m); glob: (..., m) global vectors.  Each global vector is
    placed in row lengths[c], the rows after it are padding, and after the
    last layer one gather reads row lengths[c] back by its coordinates.
    """
    if len(layers) < 1:
        raise ConfigError("reasoning needs at least one layer")
    lengths = np.asarray(lengths, dtype=np.intp)
    if local.ndim < 3 or glob.shape != local.shape[:-2] + local.shape[-1:]:
        raise DimensionError(f"local rows {local.shape} do not match the global vectors {glob.shape}")
    n = local.shape[-2]
    if local.shape[-2 - lengths.ndim:-2] != lengths.shape or np.any(lengths < 0) or np.any(lengths >= n):
        raise DimensionError(f"need {local.shape[-3]} caption lengths below {n}, got {lengths.tolist()}")
    # each global row times a one-hot column places it: 1 * g and 0 * g are exact
    one_hot = (np.arange(n) == lengths[..., None])[..., None].astype(np.float64)
    current = tt.add(local, tt.mul(tt.reshape(glob, glob.shape[:-1] + (1, glob.shape[-1])), one_hot))
    node_mask = np.arange(n) <= lengths[..., None]
    for layer in layers:
        current = reason_step(current, layer, node_mask, row_softmax=row_softmax)
    return tt.take_rows(current, np.indices(glob.shape[:-1], sparse=True) + (lengths,))
