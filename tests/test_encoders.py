"""Encoder behaviour: projection, batched BiGRU recurrence, global pooling."""

import numpy as np
import pytest

from itmatch import tensor as tt
from itmatch.encoders import encode_texts, global_feature, project_image
from itmatch.errors import DimensionError, InputError
from itmatch.model import ModelConfig, encode_caption, init_params
from itmatch.tensor import ParamStore, backward, finite_diff_grad
from scalar_reference import ref_encode_text, ref_gru_step

# the nine tensors of one GRU direction, in the order gru_sequence takes them
GATES = tuple(f"{kind}_{gate}" for kind in ("w", "u", "b") for gate in ("reset", "update", "cand"))


def _gru_weights(rng, d, e, scale=0.5):
    fields = {}
    for gate in ("reset", "update", "cand"):
        fields[f"w_{gate}"] = tt.parameter(scale * rng.normal(size=(d, e)))
        fields[f"u_{gate}"] = tt.parameter(scale * rng.normal(size=(d, d)))
        fields[f"b_{gate}"] = tt.parameter(scale * rng.normal(size=d))
    return tuple(fields[name] for name in GATES)


def _as_ref(w):
    return {name: t.data.tolist() for name, t in zip(GATES, w)}


def test_projection_identity_weight():
    w = tt.constant(np.eye(3))
    b = tt.constant(np.zeros(3))
    raw = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert project_image(raw, w, b).data.tolist() == raw.tolist()


def test_projection_bias_only():
    w = tt.constant(np.zeros((3, 2)))
    b = tt.constant(np.array([0.5, -0.5]))
    out = project_image(np.ones((4, 3)), w, b)
    assert out.data.tolist() == [[0.5, -0.5]] * 4


def test_projection_against_loop():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(3, 5))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=4)
    out = project_image(raw, tt.constant(w), tt.constant(b)).data
    expected = np.array(
        [[b[j] + sum(raw[i, c] * w[c, j] for c in range(5)) for j in range(4)] for i in range(3)]
    )
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_projection_rejects_bad_shapes():
    w = tt.constant(np.zeros((3, 2)))
    b = tt.constant(np.zeros(2))
    with pytest.raises(DimensionError):
        project_image(np.zeros(3), w, b)
    with pytest.raises(DimensionError):
        project_image(np.zeros((2, 4)), w, b)


def _run_gru(tokens, table, fwd, bwd):
    """The mean of both directions' states of one caption through the batch op."""
    x = tt.constant(table.data[tokens][None])
    return tt.gru_sequence(x, [len(tokens)], fwd, bwd).data[0]


def test_gru_step_matches_scalar_reference():
    rng = np.random.default_rng(1)
    fwd, bwd = _gru_weights(rng, d=4, e=3), _gru_weights(rng, d=4, e=3)
    table = tt.constant(rng.normal(size=(2, 3)))
    states = _run_gru([0, 1], table, fwd, bwd)
    # each direction's second step starts from a non-zero state
    x0, x1, zero = table.data[0].tolist(), table.data[1].tolist(), [0.0] * 4
    f0 = ref_gru_step(x0, zero, _as_ref(fwd))
    f1 = ref_gru_step(x1, f0, _as_ref(fwd))
    b1 = ref_gru_step(x1, zero, _as_ref(bwd))
    b0 = ref_gru_step(x0, b1, _as_ref(bwd))
    np.testing.assert_allclose(states, 0.5 * (np.array([f0, f1]) + np.array([b0, b1])), atol=1e-10)


def test_gru_saturated_update_gate_hands_over_to_candidate():
    rng = np.random.default_rng(2)

    def saturated():
        # push the update gate to 1: the new state must equal the candidate,
        # with no trace of the previous hidden state outside the reset path
        gates = dict(zip(GATES, _gru_weights(rng, d=3, e=2)))
        gates.update(
            w_update=tt.parameter(np.zeros((3, 2))),
            u_update=tt.parameter(np.zeros((3, 3))),
            b_update=tt.parameter(np.full(3, 60.0)),
        )
        return tuple(gates[name] for name in GATES)

    def candidate(w, x, h):
        g = {name: t.data for name, t in zip(GATES, w)}
        reset = 1.0 / (1.0 + np.exp(-(g["w_reset"] @ x + g["u_reset"] @ h + g["b_reset"])))
        return np.tanh(g["w_cand"] @ x + g["u_cand"] @ (reset * h) + g["b_cand"])

    fwd, bwd = saturated(), saturated()
    table = tt.constant(rng.normal(size=(2, 2)))
    states = _run_gru([0, 1], table, fwd, bwd)
    x0, x1, zero = table.data[0], table.data[1], np.zeros(3)
    f0 = candidate(fwd, x0, zero)
    b1 = candidate(bwd, x1, zero)
    expected = 0.5 * np.array([f0 + candidate(bwd, x0, b1), candidate(fwd, x1, f0) + b1])
    np.testing.assert_allclose(states, expected, atol=1e-12)
    ref = 0.5 * np.array([
        f0 + ref_gru_step(x0.tolist(), b1.tolist(), _as_ref(bwd)),
        ref_gru_step(x1.tolist(), f0.tolist(), _as_ref(fwd)) + b1,
    ])
    np.testing.assert_allclose(states, ref, atol=1e-12)


# lengths 1..5 and the maximum, out of order; token 5 repeats within and across captions
MIXED_CAPTIONS = [[1, 5, 5, 0, 9], [2], [7, 5, 3, 3, 8, 6, 5], [4, 4], [0, 9, 1, 2], [5, 5, 5]]
MAX_LEN = 7


def test_encode_text_matches_scalar_reference():
    rng = np.random.default_rng(3)
    table = tt.parameter(rng.normal(size=(10, 3)))
    fwd = _gru_weights(rng, d=4, e=3)
    bwd = _gru_weights(rng, d=4, e=3)
    local, lengths = encode_texts(MIXED_CAPTIONS, table, fwd, bwd, max_len=MAX_LEN)
    assert local.shape == (len(MIXED_CAPTIONS), MAX_LEN + 1, 4)
    assert lengths.tolist() == [len(c) for c in MIXED_CAPTIONS]
    for c, tokens in enumerate(MIXED_CAPTIONS):
        expected = ref_encode_text(tokens, table.data.tolist(), _as_ref(fwd), _as_ref(bwd))
        np.testing.assert_allclose(local.data[c, :len(tokens)], expected, rtol=0, atol=1e-8)
        assert not local.data[c, len(tokens):].any(), f"caption {c}: padded rows are not zero"


def test_encode_text_single_token():
    rng = np.random.default_rng(4)
    table = tt.parameter(rng.normal(size=(6, 3)))
    fwd = _gru_weights(rng, d=4, e=3)
    bwd = _gru_weights(rng, d=4, e=3)
    out = encode_texts([[2]], table, fwd, bwd, MAX_LEN)[0].data
    assert out.shape == (1, 2, 4)
    x = table.data[2]
    zero = np.zeros(4)
    f = ref_gru_step(x.tolist(), zero.tolist(), _as_ref(fwd))
    b = ref_gru_step(x.tolist(), zero.tolist(), _as_ref(bwd))
    np.testing.assert_allclose(out[0, 0], 0.5 * (np.array(f) + np.array(b)), atol=1e-12)
    assert out[0, 1].tolist() == [0.0] * 4


def test_encode_text_direction_symmetry():
    # reversing every caption and swapping the two directions' weights
    # must reverse each caption's rows within its own length
    rng = np.random.default_rng(5)
    table = tt.parameter(rng.normal(size=(10, 3)))
    fwd = _gru_weights(rng, d=4, e=3)
    bwd = _gru_weights(rng, d=4, e=3)
    out = encode_texts(MIXED_CAPTIONS, table, fwd, bwd, MAX_LEN)[0].data
    swapped = encode_texts([c[::-1] for c in MIXED_CAPTIONS], table, bwd, fwd, MAX_LEN)[0].data
    for c, tokens in enumerate(MIXED_CAPTIONS):
        n = len(tokens)
        np.testing.assert_allclose(out[c, :n], swapped[c, :n][::-1], rtol=0, atol=1e-14)


def test_a_caption_encodes_alike_alone_and_beside_longer_ones():
    # padding must neither leak into a caption's states (either direction)
    # nor come out as anything but zero rows
    rng = np.random.default_rng(8)
    table = tt.parameter(rng.normal(size=(10, 3)))
    fwd = _gru_weights(rng, d=4, e=3)
    bwd = _gru_weights(rng, d=4, e=3)
    batch = encode_texts(MIXED_CAPTIONS, table, fwd, bwd, MAX_LEN)[0].data
    for c, tokens in enumerate(MIXED_CAPTIONS):
        alone = encode_texts([tokens], table, fwd, bwd, MAX_LEN)[0].data[0]
        np.testing.assert_allclose(batch[c, :len(tokens) + 1], alone, rtol=0, atol=1e-14)
        assert not batch[c, len(tokens):].any()


def test_encode_text_input_errors():
    rng = np.random.default_rng(6)
    table = tt.parameter(rng.normal(size=(5, 2)))
    fwd = _gru_weights(rng, d=3, e=2)
    bwd = _gru_weights(rng, d=3, e=2)
    with pytest.raises(InputError):
        encode_texts([], table, fwd, bwd, MAX_LEN)
    with pytest.raises(InputError):
        encode_texts([[1], []], table, fwd, bwd, MAX_LEN)
    with pytest.raises(InputError):
        encode_texts([[5]], table, fwd, bwd, MAX_LEN)  # out of vocabulary
    with pytest.raises(InputError):
        encode_texts([[-1]], table, fwd, bwd, MAX_LEN)
    with pytest.raises(InputError):
        encode_texts([[0], [0, 1, 2]], table, fwd, bwd, max_len=2)


def test_gru_sequence_rejects_bad_shapes():
    rng = np.random.default_rng(9)
    gates = _gru_weights(rng, d=3, e=2)
    x = tt.constant(np.zeros((2, 4, 2)))
    with pytest.raises(DimensionError):
        tt.gru_sequence(tt.constant(np.zeros((4, 2))), [4], gates, gates)
    with pytest.raises(DimensionError):
        tt.gru_sequence(x, [4, 0], gates, gates)
    with pytest.raises(DimensionError):
        tt.gru_sequence(x, [4, 5], gates, gates)
    with pytest.raises(DimensionError):
        tt.gru_sequence(x, [4], gates, gates)
    with pytest.raises(DimensionError):
        tt.gru_sequence(tt.constant(np.zeros((2, 4, 3))), [4, 1], gates, gates)
    # the backward direction's gates are checked like the forward ones
    wider = _gru_weights(rng, d=4, e=2)
    for bwd in (gates[:8], wider, _gru_weights(rng, d=3, e=3)):
        with pytest.raises(DimensionError):
            tt.gru_sequence(x, [4, 1], gates, bwd)
        with pytest.raises(DimensionError):
            tt.gru_sequence(x, [4, 1], bwd, gates)


def test_global_feature_is_elementwise_square_of_mean():
    local = tt.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    # mean gate then mean pool collapses to mean^2 per column
    assert global_feature(local).data.tolist() == [4.0, 9.0]


def test_global_feature_single_row():
    local = tt.constant(np.array([[2.0, -3.0]]))
    assert global_feature(local).data.tolist() == [4.0, 9.0]


def test_global_feature_counts_only_real_rows():
    local = tt.constant(np.array([[[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]], [[2.0, -3.0], [0.0, 0.0], [0.0, 0.0]]]))
    assert global_feature(local, [2, 1]).data.tolist() == [[4.0, 9.0], [4.0, 9.0]]
    with pytest.raises(DimensionError):
        global_feature(local, [2, 1, 1])


def test_global_feature_rejects_vectors():
    with pytest.raises(DimensionError):
        global_feature(tt.constant(np.zeros(3)))


def test_encoder_stack_gradients():
    # central differences for every gate tensor of both directions and the
    # embedding table, through a mixed-length batch, its padded rows and
    # the length-masked global feature
    rng = np.random.default_rng(7)
    entries = {"table": tt.parameter(rng.normal(size=(8, 3)))}
    for direction in ("fwd", "bwd"):
        for gate in ("reset", "update", "cand"):
            entries[f"{direction}.w_{gate}"] = tt.parameter(0.5 * rng.normal(size=(4, 3)))
            entries[f"{direction}.u_{gate}"] = tt.parameter(0.5 * rng.normal(size=(4, 4)))
            entries[f"{direction}.b_{gate}"] = tt.parameter(0.5 * rng.normal(size=4))
    store = ParamStore(entries)
    captions = [[7, 3, 3, 5], [2], [4, 1, 3]]
    probe = tt.constant(0.1 * rng.normal(size=(3, 5, 4)))

    def run(p):
        def weights(direction):
            return tuple(p[f"{direction}.{name}"] for name in GATES)

        local, lengths = encode_texts(captions, p["table"], weights("fwd"), weights("bwd"), MAX_LEN)
        glob = global_feature(local, lengths)
        return tt.add(tt.sum(tt.square(glob)), tt.sum(tt.mul(local, probe)))

    auto = backward(run(store), store)
    fd = finite_diff_grad(lambda p: run(p).item(), store)
    for name in store.names():
        a, b = auto[name].data, fd[name].data
        err = np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-5))
        assert err < 1e-6, f"{name}: rel err {err}"
    # padded positions embed token 0: it and the unused token 6 get no gradient
    assert not auto["table"].data[[0, 6]].any()


def _reachable(root):
    seen = {id(root)}
    work = [root]
    while work:
        for parent in work.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                work.append(parent)
    return len(seen)


def test_text_encoding_tape_nodes_do_not_grow_with_the_batch():
    cfg = ModelConfig(vocab_size=10, d_raw=3, embed_dim=3, hidden_dim=4, sim_dim=2, n_layers=1)
    params = init_params(cfg, seed=0)
    counts = []
    for b in (2, 8):
        encoded = encode_caption(params, cfg, [MIXED_CAPTIONS[j % 6] for j in range(b)])
        counts.append(_reachable(tt.add(tt.sum(encoded.local), tt.sum(encoded.glob))))
    assert counts[0] == counts[1]
