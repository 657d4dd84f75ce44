"""Graph reasoning: relation matrices, the conv gate, residual updates."""

from dataclasses import replace

import numpy as np
import pytest

from itmatch import tensor as tt
from itmatch.errors import ConfigError, DimensionError
from itmatch.reasoning import (
    ReasonLayerParams,
    gate_relations,
    reason,
    reason_step,
    relation_matrix,
)
from scalar_reference import ref_reason_step


def _layer(rng, m, zero_out=False):
    def mat():
        return tt.parameter(rng.normal(size=(m, m)) * 0.5)

    return ReasonLayerParams(
        w_query=mat(),
        w_key=mat(),
        w_out=tt.parameter(np.zeros((m, m))) if zero_out else mat(),
        w_mix=mat(),
        kernel=tt.parameter(rng.normal(size=(3, 3)) * 0.5),
        bias=tt.parameter(np.asarray(0.1)),
    )


def _gated(layer, hierarchical):
    """The layer itself, or the layer without its gate."""
    return layer if hierarchical else replace(layer, kernel=None, bias=None)


def _layer_as_ref(layer):
    names = ["w_query", "w_key", "w_out", "w_mix"]
    if layer.kernel is not None:
        names += ["kernel", "bias"]
    return {name: getattr(layer, name).data.tolist() for name in names}


def _nodes(rng, n, m):
    """One unpadded node set: n - 1 local rows, then the global node."""
    return tt.constant(rng.normal(size=(n, m)))


def _node_set(nodes):
    """reason's (local, glob, lengths) for one unpadded (n, m) node set as a
    tile of one caption: its rows with the last one zeroed, the last row as
    the global node, and n - 1 words."""
    local = np.array(nodes.data)
    local[-1] = 0.0
    return tt.constant(local[None]), tt.constant(nodes.data[-1:]), [nodes.shape[-2] - 1]


def _all_real(nodes):
    """reason_step's node_mask for one unpadded node set: every row is real."""
    return np.ones(nodes.shape[-2], dtype=bool)


def test_reason_places_and_reads_out_each_global_node():
    # caption 0 has two words, caption 1 one word and a zero padding row;
    # residual-only layers leave every node as it was placed, so the
    # readout is the global node itself, read from its own row
    rng = np.random.default_rng(3)
    local = tt.constant(np.array([
        [[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]],
        [[5.0, 6.0], [0.0, 0.0], [0.0, 0.0]],
    ]))
    glob = tt.constant(np.array([[9.0, 8.0], [7.0, 6.0]]))
    out = reason(local, glob, [2, 1], [_layer(rng, 2, zero_out=True)])
    assert out.data.tolist() == [[9.0, 8.0], [7.0, 6.0]]


# a global vector of the wrong width, a length equal to n, a negative
# length, and fewer lengths than captions
@pytest.mark.parametrize(
    "glob_shape, rows",
    [((2, 3), [1, 1]), ((2, 2), [1, 3]), ((2, 2), [1, -1]), ((2, 2), [1])],
    ids=["glob_shape", "row_n", "negative", "unbroadcastable"],
)
def test_reason_rejects_global_rows_outside_the_node_sets(glob_shape, rows):
    rng = np.random.default_rng(8)
    local = tt.constant(np.zeros((2, 3, 2)))
    with pytest.raises(DimensionError):
        reason(local, tt.constant(np.ones(glob_shape)), rows, [_layer(rng, 2)])


def test_relation_matrix_hand_value():
    nodes = tt.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    w_query = tt.constant(np.eye(2))
    w_key = tt.constant(np.eye(2))
    rel = relation_matrix(nodes, w_query, w_key)
    # identity projections: R = S S^T
    assert rel.data.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_relation_matrix_loop_oracle():
    rng = np.random.default_rng(0)
    nodes = _nodes(rng, 4, 3)
    w_query = tt.constant(rng.normal(size=(3, 3)))
    w_key = tt.constant(rng.normal(size=(3, 3)))
    rel = relation_matrix(nodes, w_query, w_key).data
    s = nodes.data
    for p in range(4):
        for q in range(4):
            expected = np.dot(s[p] @ w_query.data, s[q] @ w_key.data)
            assert abs(rel[p, q] - expected) < 1e-10


def test_zero_kernel_gate_halves_relations():
    rng = np.random.default_rng(1)
    nodes = _nodes(rng, 5, 3)
    rel = relation_matrix(nodes, tt.constant(rng.normal(size=(3, 3))),
                          tt.constant(rng.normal(size=(3, 3))))
    gated = gate_relations(rel, tt.constant(np.zeros((3, 3))), tt.constant(np.zeros(())))
    # sigmoid(0) = 1/2 exactly, so the gate halves every entry
    np.testing.assert_array_equal(gated.data, 0.5 * rel.data)


def test_saturated_bias_gate_is_identity():
    rng = np.random.default_rng(2)
    nodes = _nodes(rng, 4, 3)
    rel = relation_matrix(nodes, tt.constant(rng.normal(size=(3, 3))),
                          tt.constant(rng.normal(size=(3, 3))))
    gated = gate_relations(rel, tt.constant(np.zeros((3, 3))), tt.constant(np.asarray(500.0)))
    np.testing.assert_allclose(gated.data, rel.data, atol=1e-12)


def test_zero_output_map_keeps_nodes_and_readout():
    rng = np.random.default_rng(4)
    nodes = _nodes(rng, 5, 4)
    layers = [_layer(rng, 4, zero_out=True) for _ in range(3)]
    out = reason(*_node_set(nodes), layers)
    # residual-only updates: the global node must come back untouched
    np.testing.assert_array_equal(out.data, nodes.data[-1:])


def test_hierarchical_off_is_the_ungated_update():
    rng = np.random.default_rng(5)
    nodes = _nodes(rng, 5, 3)
    layer = _layer(rng, 3)
    gated = reason_step(nodes, layer, _all_real(nodes))
    plain = reason_step(nodes, _gated(layer, False), _all_real(nodes))
    # recompute both mixing matrices: they differ exactly by the gate factor
    rel = relation_matrix(nodes, layer.w_query, layer.w_key).data
    gate = 1.0 / (1.0 + np.exp(-(
        _conv3x3(rel, layer.kernel.data, float(layer.bias.data))
    )))
    s = nodes.data
    diff_expected = ((rel * gate - rel) @ s) @ layer.w_mix.data @ layer.w_out.data
    np.testing.assert_allclose(
        gated.data - plain.data, diff_expected, atol=1e-10
    )


def _conv3x3(x, kernel, bias):
    n, m = x.shape
    out = np.full((n, m), bias)
    for p in range(n):
        for q in range(m):
            for u in range(3):
                for w in range(3):
                    pi, qi = p + u - 1, q + w - 1
                    if 0 <= pi < n and 0 <= qi < m:
                        out[p, q] += kernel[u, w] * x[pi, qi]
    return out


@pytest.mark.parametrize("hierarchical", [True, False])
@pytest.mark.parametrize("row_softmax", [True, False])
def test_reason_step_matches_scalar_reference(hierarchical, row_softmax):
    rng = np.random.default_rng(6)
    nodes = _nodes(rng, 5, 3)
    layer = _gated(_layer(rng, 3), hierarchical)
    out = reason_step(nodes, layer, _all_real(nodes), row_softmax=row_softmax)
    expected = ref_reason_step(
        nodes.data.tolist(), _layer_as_ref(layer), hierarchical, row_softmax
    )
    np.testing.assert_allclose(out.data, expected, atol=1e-8)


def test_multi_layer_reason_iterates_the_step():
    rng = np.random.default_rng(7)
    nodes = _nodes(rng, 4, 3)
    layers = [_layer(rng, 3) for _ in range(3)]
    out = reason(*_node_set(nodes), layers)
    state = nodes.data.tolist()
    for layer in layers:
        state = ref_reason_step(state, _layer_as_ref(layer), True, False)
    np.testing.assert_allclose(out.data, [state[-1]], atol=1e-8)


def test_reason_requires_layers():
    rng = np.random.default_rng(8)
    with pytest.raises(ConfigError):
        reason(*_node_set(_nodes(rng, 4, 3)), [])


def test_gated_update_is_permutation_sensitive():
    # the conv gate reads neighbourhoods, so reordering the local nodes
    # must change the (permuted-back) result; plain matrix reasoning
    # without the gate is equivariant instead
    rng = np.random.default_rng(9)
    local = rng.normal(size=(4, 3))
    glob = rng.normal(size=3)
    layer = _layer(rng, 3)
    perm = [2, 0, 3, 1]
    inverse = np.argsort(perm)

    real = np.ones(5, dtype=bool)

    base = reason_step(tt.constant(np.vstack([local, glob])), layer, real).data
    permuted = reason_step(tt.constant(np.vstack([local[perm], glob])), layer, real).data
    assert not np.allclose(permuted[:4][inverse], base[:4], atol=1e-10)

    plain = _gated(layer, False)
    base_plain = reason_step(tt.constant(np.vstack([local, glob])), plain, real).data
    permuted_plain = reason_step(tt.constant(np.vstack([local[perm], glob])), plain, real).data
    np.testing.assert_allclose(permuted_plain[:4][inverse], base_plain[:4], atol=1e-10)
    np.testing.assert_allclose(permuted_plain[4], base_plain[4], atol=1e-10)


def test_reasoning_stack_gradients():
    rng = np.random.default_rng(10)
    m = 3
    # one node set: three local nodes and a zero row, where the global one goes
    entries = {
        "local": tt.parameter(np.vstack([rng.normal(size=(3, m)), np.zeros((1, m))])[None]),
        "glob": tt.parameter(rng.normal(size=(1, m))),
    }
    for i in range(3):
        for field in ("w_query", "w_key", "w_out", "w_mix"):
            entries[f"{i}.{field}"] = tt.parameter(0.5 * rng.normal(size=(m, m)))
        entries[f"{i}.kernel"] = tt.parameter(0.5 * rng.normal(size=(3, 3)))
        entries[f"{i}.bias"] = tt.parameter(np.asarray(0.2))
    store = tt.ParamStore(entries)

    def run(p):
        layers = [
            ReasonLayerParams(
                w_query=p[f"{i}.w_query"], w_key=p[f"{i}.w_key"],
                w_out=p[f"{i}.w_out"], w_mix=p[f"{i}.w_mix"],
                kernel=p[f"{i}.kernel"], bias=p[f"{i}.bias"],
            )
            for i in range(3)
        ]
        return tt.sum(tt.square(reason(p["local"], p["glob"], [3], layers)))

    auto = tt.backward(run(store), store)
    fd = tt.finite_diff_grad(lambda p: run(p).item(), store)
    for name in store.names():
        a, b = auto[name].data, fd[name].data
        err = np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5))
        assert err < 1e-5, f"{name}: rel err {err}"


@pytest.mark.parametrize("hierarchical", [True, False])
@pytest.mark.parametrize("row_softmax", [True, False])
def test_padded_node_sets_reason_like_unpadded_ones(hierarchical, row_softmax):
    # node sets of 2, 4 and 1 local rows, padded to 5 rows with the global
    # node right after the last local row
    rng = np.random.default_rng(11)
    m = 3
    lengths = [2, 4, 1]
    layers = [_gated(_layer(rng, m), hierarchical) for _ in range(2)]
    local = np.zeros((2, 3, 5, m))
    glob = rng.normal(size=(2, 3, m))
    sets = {}
    for i in range(2):
        for j, n_local in enumerate(lengths):
            local[i, j, :n_local] = rng.normal(size=(n_local, m))
            sets[i, j] = np.vstack([local[i, j, :n_local], glob[i, j]])
    out = reason(tt.constant(local), tt.constant(glob), lengths, layers, row_softmax=row_softmax).data
    for (i, j), alone in sets.items():
        want = reason(*_node_set(tt.constant(alone)), layers, row_softmax=row_softmax)
        np.testing.assert_allclose(out[i, j], want.data[0], atol=1e-12)
