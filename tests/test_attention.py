"""Attention weight invariants and similarity vector properties."""

import numpy as np
import pytest

from itmatch import attention
from itmatch import tensor as tt
from itmatch.attention import (
    cosines,
    i2t_weights,
    local_similarities,
    sim_vec_rows,
    t2i_weights,
)
from itmatch.encoders import global_feature
from itmatch.errors import DimensionError
from scalar_reference import ref_attention, ref_sim_vec


def _units(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def sim_vec(x, y, w):
    """Similarity vector of two d-vectors: sim_vec_rows on one row."""
    rows = sim_vec_rows(tt.reshape(x, (1, x.shape[0])), tt.reshape(y, (1, y.shape[0])), w)
    return tt.reshape(rows, (w.shape[1],))


def _pair(v, t):
    """A 1 x 1 tile: (k, d) regions and (l, d) words as (1, 1, k, d) and (1, l, d) stacks."""
    return tt.constant(np.asarray(v)[None, None]), tt.constant(np.asarray(t)[None])


def _tile_weights(v, t, temperature, direction, word_mask=None):
    """(I, C, k, n) attention weights of a tile, in one direction."""
    cos = cosines(v, t)
    if direction == "i2t":  # i2t_weights is word-major, (I, C, n, k)
        return tt.transpose(i2t_weights(cos, temperature))
    if word_mask is None:  # every word is real
        word_mask = np.ones(t.shape[:2], dtype=bool)
    return t2i_weights(cos, temperature, word_mask)


def _weights(v, t, temperature, direction):
    """(k, l) attention weights of one image-caption pair."""
    return _tile_weights(*_pair(v, t), temperature, direction).data[0, 0]


def _similarities(v, t, w, word_mask=None, t_glob=None, **weights):
    """local_similarities of stacks v and t, with globals derived from them."""
    if word_mask is None:
        word_mask = np.ones(t.shape[:2], dtype=bool)
    if t_glob is None:
        t_glob = global_feature(t)
    return local_similarities(v, t, global_feature(v), t_glob, word_mask, 9.0, w, **weights)


# --- similarity vectors ---------------------------------------------------------


def test_sim_vec_hand_value():
    w = tt.constant(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
    x = tt.constant(np.array([3.0, 0.0]))
    y = tt.constant(np.array([0.0, 4.0]))
    # diff (3, -4), squares (9, 16), norm 5 -> (1.8, 3.2, 5.0)
    np.testing.assert_allclose(sim_vec(x, y, w).data, [1.8, 3.2, 5.0], atol=1e-12)


def test_sim_vec_symmetry_exact():
    rng = np.random.default_rng(0)
    w = tt.constant(rng.normal(size=(6, 4)))
    for _ in range(10):
        x = tt.constant(rng.normal(size=6))
        y = tt.constant(rng.normal(size=6))
        np.testing.assert_array_equal(
            sim_vec(x, y, w).data, sim_vec(y, x, w).data
        )


@pytest.mark.parametrize("alpha", [0.25, 1.0, 3.0, 117.0])
def test_sim_vec_positive_homogeneity(alpha):
    rng = np.random.default_rng(1)
    w = tt.constant(rng.normal(size=(6, 4)))
    x = rng.normal(size=6)
    y = rng.normal(size=6)
    scaled = sim_vec(tt.constant(alpha * x), tt.constant(alpha * y), w).data
    base = sim_vec(tt.constant(x), tt.constant(y), w).data
    np.testing.assert_allclose(scaled, alpha * base, rtol=1e-10, atol=1e-10)


def test_sim_vec_zero_distance_guard():
    w = tt.constant(np.ones((4, 3)))
    x = tt.constant(np.array([1.0, 2.0, 3.0, 4.0]))
    assert sim_vec(x, x, w).data.tolist() == [0.0, 0.0, 0.0]


def test_sim_vec_guard_has_finite_gradient():
    store = tt.ParamStore({"w": tt.parameter(np.ones((3, 2)))})
    x = tt.constant(np.array([1.0, 1.0, 1.0]))
    loss = tt.sum(sim_vec(x, x, store["w"]))
    g = tt.backward(loss, store)["w"].data
    assert np.all(np.isfinite(g))
    assert np.all(g == 0.0)


def test_sim_vec_rows_matches_scalar_reference():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(4, 5))
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 4))
    out = sim_vec_rows(tt.constant(x), tt.constant(y), tt.constant(w)).data
    for i in range(3):
        np.testing.assert_allclose(
            out[i], ref_sim_vec(x[i].tolist(), y[i].tolist(), w.tolist()), atol=1e-10
        )


def test_sim_vec_rejects_bad_shapes():
    w = tt.constant(np.ones((4, 3)))
    with pytest.raises(DimensionError):
        sim_vec_rows(tt.constant(np.ones((2, 4))), tt.constant(np.ones((3, 4))), w)
    with pytest.raises(DimensionError):
        sim_vec_rows(tt.constant(np.ones((2, 5))), tt.constant(np.ones((2, 5))), w)
    with pytest.raises(DimensionError):
        sim_vec_rows(tt.constant(np.ones((2, 4))), tt.constant(np.ones((2, 4))), tt.constant(np.ones(4)))


def test_sim_vec_rows_broadcast_and_row_mask():
    rng = np.random.default_rng(13)
    w = tt.constant(rng.normal(size=(4, 3)))
    x = rng.normal(size=(2, 1, 4))
    y = rng.normal(size=(5, 4))
    mask = np.array([True, False, True, True, False])
    out = sim_vec_rows(tt.constant(x), tt.constant(y), w, row_mask=mask).data
    assert out.shape == (2, 5, 3)
    for i in range(2):
        for j in range(5):
            if mask[j]:
                want = sim_vec(tt.constant(x[i, 0]), tt.constant(y[j]), w).data
                np.testing.assert_allclose(out[i, j], want, rtol=1e-14, atol=1e-14)
            else:
                np.testing.assert_array_equal(out[i, j], 0.0)


# --- attention weights ----------------------------------------------------------


def test_i2t_columns_sum_to_one():
    rng = np.random.default_rng(3)
    w = _weights(rng.normal(size=(5, 8)), rng.normal(size=(3, 8)), 9.0, "i2t")
    assert w.shape == (5, 3)
    np.testing.assert_allclose(w.sum(axis=0), np.ones(3), atol=1e-6)


def test_t2i_rows_sum_to_one():
    rng = np.random.default_rng(4)
    w = _weights(rng.normal(size=(5, 8)), rng.normal(size=(3, 8)), 9.0, "t2i")
    np.testing.assert_allclose(w.sum(axis=1), np.ones(5), atol=1e-6)


def test_single_region_gets_full_weight():
    rng = np.random.default_rng(5)
    w = _weights(rng.normal(size=(1, 8)), rng.normal(size=(4, 8)), 9.0, "i2t")
    np.testing.assert_array_equal(w, np.ones((1, 4)))


def test_orthogonal_features_give_uniform_weights():
    v = np.eye(4)[:3]   # three regions on distinct axes
    t = np.eye(4)[3:]   # one word on a fourth axis
    w = _weights(v, t, 9.0, "i2t")
    np.testing.assert_allclose(w, np.full((3, 1), 1 / 3), atol=1e-12)


@pytest.mark.parametrize("direction", ["i2t", "t2i"])
def test_weights_invariant_to_row_rescaling(direction):
    rng = np.random.default_rng(6)
    v = rng.normal(size=(4, 8))
    t = rng.normal(size=(3, 8))
    base = _weights(v, t, 9.0, direction)
    v2 = v.copy()
    v2[2] *= 37.5  # positive rescaling must not move any weight
    t2 = t.copy()
    t2[0] *= 0.003
    out = _weights(v2, t2, 9.0, direction)
    np.testing.assert_allclose(out, base, atol=1e-10)


def test_lambda_1000_selects_argmax_one_hot():
    # positive-orthant features: no cosine is clamped, so no row collapses
    # to a single survivor and ties cannot occur
    rng = np.random.default_rng(5)
    v = np.abs(rng.normal(size=(5, 8))) + 0.1
    t = np.abs(rng.normal(size=(3, 8))) + 0.1
    att = _weights(v, t, 1000.0, "i2t")
    assert np.all(np.isfinite(att))
    # reproduce the normalised cosine logits to find each column's winner
    vu = v / np.linalg.norm(v, axis=1, keepdims=True)
    tu = t / np.linalg.norm(t, axis=1, keepdims=True)
    c = np.maximum(vu @ tu.T, 0.0)
    normed = c / np.linalg.norm(c, axis=1, keepdims=True)
    for j in range(3):
        col = np.sort(normed[:, j])
        assert col[-1] - col[-2] > 0.02  # winner is clear of the runner-up
        one_hot = np.zeros(5)
        one_hot[np.argmax(normed[:, j])] = 1.0
        np.testing.assert_allclose(att[:, j], one_hot, atol=1e-6)


@pytest.mark.parametrize("direction", ["i2t", "t2i"])
def test_weights_match_scalar_reference(direction):
    rng = np.random.default_rng(8)
    v = rng.normal(size=(4, 6))
    t = rng.normal(size=(3, 6))
    out = _weights(v, t, 9.0, direction)
    expected = ref_attention(v.tolist(), t.tolist(), 9.0, direction)
    np.testing.assert_allclose(out, np.array(expected), atol=1e-10)


def test_i2t_weights_are_word_major():
    rng = np.random.default_rng(16)
    v, t = tt.constant(rng.normal(size=(3, 1, 4, 6))), tt.constant(rng.normal(size=(2, 5, 6)))
    w = i2t_weights(cosines(v, t), 9.0).data
    assert w.shape == (3, 2, 5, 4)
    np.testing.assert_allclose(w.sum(axis=-1), np.ones((3, 2, 5)), atol=1e-12)


def test_cross_attention_validates_arguments():
    v = tt.constant(np.ones((1, 1, 2, 4)))
    with pytest.raises(DimensionError):
        cosines(v, tt.constant(np.ones((1, 3, 5))))
    with pytest.raises(DimensionError):  # images without their caption axis
        cosines(tt.constant(np.ones((1, 2, 4))), tt.constant(np.ones((1, 3, 4))))
    with pytest.raises(DimensionError):
        cosines(tt.constant(np.ones((2, 4))), tt.constant(np.ones((3, 4))))


def test_zero_rows_hit_the_guard_not_nan():
    v = np.zeros((3, 4))
    v[0, 0] = 1.0
    t = np.zeros((2, 4))
    t[0, 1] = 1.0
    for direction in ("i2t", "t2i"):
        w = _weights(v, t, 9.0, direction)
        assert np.all(np.isfinite(w))


def test_padded_words_are_masked_out_of_the_t2i_softmax():
    rng = np.random.default_rng(14)
    v = rng.normal(size=(4, 6))
    t = rng.normal(size=(2, 6))
    padded = np.concatenate([t, np.zeros((3, 6))])
    mask = np.array([[True, True, False, False, False]])
    att = _tile_weights(*_pair(v, padded), 9.0, "t2i", word_mask=mask).data[0, 0]
    np.testing.assert_array_equal(att[:, 2:], 0.0)
    np.testing.assert_allclose(att[:, :2], _weights(v, t, 9.0, "t2i"), atol=1e-15)


def test_tile_weights_equal_per_pair_weights():
    rng = np.random.default_rng(15)
    v = rng.normal(size=(3, 4, 6))
    t = rng.normal(size=(2, 5, 6))
    for direction in ("i2t", "t2i"):
        tile = _tile_weights(tt.constant(v[:, None]), tt.constant(t), 9.0, direction).data
        assert tile.shape == (3, 2, 4, 5)
        for i in range(3):
            for j in range(2):
                np.testing.assert_allclose(tile[i, j], _weights(v[i], t[j], 9.0, direction), atol=1e-15)


# --- attended features ----------------------------------------------------------


def test_uniform_weights_average_the_regions():
    v = np.array([[2.0, 0.0], [0.0, 2.0]])
    att = _weights(v, [[1.0, 1.0]], 9.0, "i2t")  # equal cosines -> uniform column
    np.testing.assert_allclose(att, [[0.5], [0.5]], atol=1e-12)
    np.testing.assert_allclose(att.T @ v, [[1.0, 1.0]], atol=1e-12)


def test_both_streams_share_one_cosine_matrix(monkeypatch):
    calls = []

    def counted(v, t):
        calls.append(1)
        return cosines(v, t)

    monkeypatch.setattr(attention, "cosines", counted)
    rng = np.random.default_rng(11)
    v, t = _pair(rng.normal(size=(4, 6)), rng.normal(size=(3, 6)))
    w = tt.constant(rng.normal(size=(6, 5)))
    _similarities(v, t, w, w_i2t=w, w_t2i=w)
    assert len(calls) == 1


# --- bundle ---------------------------------------------------------------------


def test_local_similarities_streams_optional():
    rng = np.random.default_rng(11)
    v, t = _pair(rng.normal(size=(4, 6)), rng.normal(size=(3, 6)))
    w = tt.constant(rng.normal(size=(6, 5)))
    full = _similarities(v, t, w, w_i2t=w, w_t2i=w)
    assert full.s_glob.shape == (1, 1, 5)
    assert full.s_i2t.shape == (1, 1, 3, 5)
    assert full.s_t2i.shape == (1, 1, 5)
    # the t2i stream vector is the plain mean of the k per-region rows and the global row
    attended = tt.matmul(t2i_weights(cosines(v, t), 9.0, np.ones((1, 3), dtype=bool)), t)
    region_rows = sim_vec_rows(attended, v, w).data[0, 0]
    expected = np.mean(np.vstack([region_rows, full.s_glob.data[0, 0]]), axis=0)
    np.testing.assert_allclose(full.s_t2i.data[0, 0], expected, rtol=1e-12, atol=0)
    partial = _similarities(v, t, w, w_i2t=None, w_t2i=w)
    assert partial.s_i2t is None
    assert partial.s_t2i is not None


def test_local_similarities_accepts_precomputed_globals():
    rng = np.random.default_rng(12)
    v, t = _pair(rng.normal(size=(4, 6)), rng.normal(size=(3, 6)))
    w = tt.constant(rng.normal(size=(6, 5)))
    mask = np.ones((1, 3), dtype=bool)
    stacked = _similarities(v, t, w, w_i2t=w, w_t2i=w)
    per_pair = local_similarities(
        v, t,
        tt.reshape(global_feature(tt.constant(v.data[0, 0])), (1, 1, 6)),
        tt.reshape(global_feature(tt.constant(t.data[0])), (1, 6)),
        mask, 9.0, w, w_i2t=w, w_t2i=w,
    )
    np.testing.assert_array_equal(stacked.s_glob.data, per_pair.s_glob.data)
    with pytest.raises(DimensionError):
        _similarities(v, t, w, word_mask=np.ones((1, 2), dtype=bool))


def test_padded_word_rows_are_zero_and_real_rows_unchanged():
    rng = np.random.default_rng(16)
    v = rng.normal(size=(4, 6))
    t = rng.normal(size=(2, 6))
    w = tt.constant(rng.normal(size=(6, 5)))
    t_glob = tt.reshape(global_feature(tt.constant(t)), (1, 6))
    plain = _similarities(*_pair(v, t), w, w_i2t=w, w_t2i=w, t_glob=t_glob)
    padded = _similarities(
        *_pair(v, np.concatenate([t, np.zeros((2, 6))])), w, w_i2t=w, w_t2i=w,
        t_glob=t_glob, word_mask=np.array([[True, True, False, False]]),
    )
    np.testing.assert_array_equal(padded.s_i2t.data[0, 0, 2:], 0.0)
    np.testing.assert_allclose(padded.s_i2t.data[0, 0, :2], plain.s_i2t.data[0, 0], atol=1e-14)
    np.testing.assert_allclose(padded.s_t2i.data, plain.s_t2i.data, atol=1e-14)
    np.testing.assert_array_equal(padded.s_glob.data, plain.s_glob.data)
