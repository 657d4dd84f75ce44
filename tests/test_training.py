"""Adam behaviour, the training loop, and checkpoint files."""

import numpy as np
import pytest

from itmatch import tensor as tt
from itmatch.dataio import gen_synthetic
from itmatch.errors import ConfigError, ContractError, DataError
from itmatch.evaluation import evaluate, rsum
from itmatch.model import ModelConfig, init_params
from itmatch.tensor import ParamStore, backward
from itmatch.training import (
    ADAM_BLOCK,
    TrainConfig,
    adam_init,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_csv,
)


def _scalar_store(value=3.0):
    store = ParamStore()
    store.add("theta", tt.parameter(np.asarray(value)))
    return store


def _tiny_model():
    return ModelConfig(
        vocab_size=64, d_raw=16, embed_dim=16, hidden_dim=8, sim_dim=8,
        n_layers=1, temperature=9.0,
    )


def _tiny_data(n_pairs=4, seed=3):
    return gen_synthetic(
        n_pairs=n_pairs, k=2, d_raw=16, caption_len=2, vocab_size=64,
        seed=seed, signal_strength=1.0,
    )


# ---------------------------------------------------------------- adam

def test_adam_zero_grad_is_fixed_point():
    store = _scalar_store()
    state = adam_init(store)
    grads = {"theta": tt.constant(np.asarray(0.0))}
    new_store, new_state = adam_step(store, grads, state, lr=0.1)
    assert new_store["theta"].data == store["theta"].data
    assert new_state.step == 1


def test_adam_first_step_moves_by_lr():
    # m_hat = g, v_hat = g^2 on step one, so the move is lr * g / (|g| + eps)
    store = _scalar_store(3.0)
    state = adam_init(store)
    loss = tt.square(store["theta"])
    grads = backward(loss, store)
    new_store, _ = adam_step(store, grads, state, lr=0.1)
    assert abs(float(new_store["theta"].data) - (3.0 - 0.1)) < 0.1 * 1e-6


def test_adam_descends_quadratic():
    store = _scalar_store(3.0)
    state = adam_init(store)
    for _ in range(100):
        loss = tt.square(store["theta"])
        grads = backward(loss, store)
        store, state = adam_step(store, grads, state, lr=0.1)
    assert abs(float(store["theta"].data)) < 0.05


def test_adam_zero_lr_keeps_params():
    store = _scalar_store(3.0)
    state = adam_init(store)
    loss = tt.square(store["theta"])
    grads = backward(loss, store)
    new_store, new_state = adam_step(store, grads, state, lr=0.0)
    assert float(new_store["theta"].data) == 3.0
    assert new_state.step == 1


def test_adam_leaves_inputs_untouched():
    store = _scalar_store(3.0)
    state = adam_init(store)
    loss = tt.square(store["theta"])
    grads = backward(loss, store)
    adam_step(store, grads, state, lr=0.1)
    assert float(store["theta"].data) == 3.0
    assert float(state.m["theta"]) == 0.0
    assert state.step == 0


def test_adam_missing_grad_rejected():
    store = _scalar_store()
    with pytest.raises(ContractError):
        adam_step(store, {}, adam_init(store), lr=0.1)


def test_adam_grad_shape_mismatch_rejected():
    store = _scalar_store()
    grads = {"theta": tt.constant(np.zeros(3))}
    with pytest.raises(ContractError):
        adam_step(store, grads, adam_init(store), lr=0.1)


def _textbook_adam(theta, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    # Kingma & Ba, Algorithm 1, in plain numpy
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


# a parameter of more than three blocks whose size is not a multiple of the
# block, a (1,) one, a scalar, and one whose gradient is always zero
ADAM_SHAPES = {"big": (3, ADAM_BLOCK + 41), "one": (1,), "scalar": (), "still": (5, 7)}


def _adam_problem(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore.from_dict(
        {name: tt.parameter(rng.standard_normal(shape)) for name, shape in ADAM_SHAPES.items()}
    )

    def grads():
        return {
            name: tt.constant(np.zeros(shape) if name == "still" else rng.standard_normal(shape))
            for name, shape in ADAM_SHAPES.items()
        }
    return store, grads


@pytest.mark.parametrize("lr", [0.01, 0.0])
def test_adam_matches_the_textbook_update_over_five_steps(lr):
    store, draw = _adam_problem(5)
    state = adam_init(store)
    start = {name: t.data for name, t in store.items()}
    want = {name: (t.data, np.zeros(t.shape), np.zeros(t.shape)) for name, t in store.items()}
    for t in range(1, 6):
        grads = draw()
        store, state = adam_step(store, grads, state, lr=lr)
        assert state.step == t
        for name, shape in ADAM_SHAPES.items():
            before, m, v = want[name]
            theta, m, v = want[name] = _textbook_adam(before, grads[name].data, m, v, t, lr)
            got = (store[name].data, state.m[name], state.v[name])
            assert [a.shape for a in got] == [shape] * 3
            # theta relative to the size of its step, which is 0 when nothing moves
            scale = np.max(np.abs(theta - before), initial=0.0)
            assert np.max(np.abs(got[0] - theta), initial=0.0) <= 1e-12 * scale
            for a, ref in ((got[1], m), (got[2], v)):
                assert np.max(np.abs(a - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)
    # zero gradients, or a zero rate, leave a parameter exactly where it was
    for name in ADAM_SHAPES if lr == 0.0 else ["still"]:
        np.testing.assert_array_equal(store[name].data, start[name])


def test_adam_over_many_blocks_leaves_its_inputs_untouched():
    store, draw = _adam_problem(6)
    state = adam_init(store)
    store, state = adam_step(store, draw(), state, lr=0.01)
    grads = draw()
    kept = {
        name: (store[name].data.copy(), grads[name].data.copy(), state.m[name].copy(), state.v[name].copy())
        for name in ADAM_SHAPES
    }
    new_store, new_state = adam_step(store, grads, state, lr=0.01)
    assert state.step == 1 and new_state.step == 2
    for name, arrays in kept.items():
        inputs = (store[name].data, grads[name].data, state.m[name], state.v[name])
        for now, then in zip(inputs, arrays):
            np.testing.assert_array_equal(now, then)
        outputs = (new_store[name].data, new_state.m[name], new_state.v[name])
        for out in outputs:
            assert not out.flags.writeable
            assert not any(np.shares_memory(out, a) for a in inputs)
        assert new_store[name].requires_grad


def test_adam_is_bitwise_deterministic():
    runs = []
    for _ in range(2):
        store, draw = _adam_problem(7)
        state = adam_init(store)
        for _ in range(3):
            store, state = adam_step(store, draw(), state, lr=0.01)
        runs.append(store)
    for name in ADAM_SHAPES:
        assert runs[0][name].data.tobytes() == runs[1][name].data.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_stops_on_a_non_finite_gradient_before_returning(bad):
    store, draw = _adam_problem(8)
    state = adam_init(store)
    store, state = adam_step(store, draw(), state, lr=0.01)
    grads = draw()
    # "big" sorts first; plant the value in its third block, and one more
    # in a parameter that sorts after it
    big = grads["big"].data.copy()
    big.reshape(-1)[2 * ADAM_BLOCK + 5] = bad
    one = grads["one"].data.copy()
    one[0] = bad
    grads.update(big=tt.constant(big), one=tt.constant(one))
    kept = {name: store[name].data.copy() for name in ADAM_SHAPES}
    with pytest.raises(DataError, match=r"step 2: .*'big' is not finite"):
        adam_step(store, grads, state, lr=0.01)
    assert state.step == 1
    for name, values in kept.items():
        np.testing.assert_array_equal(store[name].data, values)


# ------------------------------------------------------------ training

@pytest.mark.parametrize(
    "kwargs",
    [
        {"epochs": 0},
        {"batch_size": 1},
        {"lr": -0.1},
        {"lr_decay_epoch": -1},
        {"lr_decay_epoch": 99},
        {"margin": -0.2},
        {"eval_every": 0},
    ],
)
def test_train_config_validation(kwargs):
    base = {"model": _tiny_model(), "epochs": 5, "lr_decay_epoch": 5}
    base.update(kwargs)
    with pytest.raises(ConfigError):
        TrainConfig(**base)


def test_train_rejects_empty_and_single_pair_data():
    cfg = TrainConfig(model=_tiny_model(), epochs=1, lr_decay_epoch=1, batch_size=2)
    with pytest.raises(ConfigError):
        train([], cfg)
    with pytest.raises(ConfigError):
        train(_tiny_data(n_pairs=1), cfg)


def test_train_is_deterministic():
    data = _tiny_data()
    tc = TrainConfig(
        model=_tiny_model(), epochs=3, lr=0.01, lr_decay_epoch=3,
        batch_size=4, seed=0, eval_every=3,
    )
    a = train(data, tc)
    b = train(data, tc)
    assert a.loss_curve == b.loss_curve
    for name in a.params.names():
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_train_loss_decreases_on_overfit_smoke():
    data = _tiny_data()
    tc = TrainConfig(
        model=_tiny_model(), epochs=60, lr=0.01, lr_decay_epoch=60,
        batch_size=4, seed=0, eval_every=60,
    )
    res = train(data, tc)
    first = res.loss_curve[0][1]
    final = res.loss_curve[-1][1]
    assert final < 0.5 * first


def test_train_zero_lr_from_start_never_moves():
    data = _tiny_data()
    tc = TrainConfig(
        model=_tiny_model(), epochs=2, lr=0.01, lr_decay_epoch=0,
        lr_decay_factor=0.0, batch_size=4, seed=7, eval_every=2,
    )
    res = train(data, tc)
    init = init_params(tc.model, seed=7)
    for name in init.names():
        assert np.array_equal(res.params[name].data, init[name].data)


def test_train_decay_at_final_epoch_never_fires():
    data = _tiny_data()
    base = dict(model=_tiny_model(), epochs=3, lr=0.01, batch_size=4, seed=0, eval_every=3)
    with_boundary = train(data, TrainConfig(lr_decay_epoch=3, lr_decay_factor=0.0, **base))
    without = train(data, TrainConfig(lr_decay_epoch=3, lr_decay_factor=1.0, **base))
    assert with_boundary.loss_curve == without.loss_curve


def test_train_stops_at_the_first_non_finite_loss():
    # features of 1e200 overflow the squared norms of the image encoder
    data = _tiny_data()
    for bundle in data:
        bundle.regions = bundle.regions * 1e200
    tc = TrainConfig(model=_tiny_model(), epochs=2, lr_decay_epoch=2, batch_size=4)
    with np.errstate(all="ignore"), pytest.raises(DataError, match=r"step 1: the loss is not finite"):
        train(data, tc)


def test_train_skips_single_leftover_pair():
    data = _tiny_data(n_pairs=3)
    tc = TrainConfig(
        model=_tiny_model(), epochs=2, lr_decay_epoch=2, batch_size=2,
        seed=0, eval_every=2,
    )
    res = train(data, tc)
    # 3 pairs with batch 2 leave a singleton each epoch; it cannot form a
    # negative so only one step per epoch lands in the curve
    assert len(res.loss_curve) == 2
    assert [s for s, _ in res.loss_curve] == [1, 2]


def test_train_best_snapshot_matches_val_history():
    data = _tiny_data()
    tc = TrainConfig(
        model=_tiny_model(), epochs=4, lr=0.01, lr_decay_epoch=4,
        batch_size=4, seed=0, eval_every=1,
    )
    res = train(data, tc)
    assert len(res.val_history) == 4
    assert res.best_rsum == max(score for _, score in res.val_history)
    assert res.best_epoch == min(e for e, s in res.val_history if s == res.best_rsum)
    sentence, image = evaluate(res.best_params, tc.model, data)
    assert rsum([sentence, image]) == res.best_rsum


# ---------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip(tmp_path):
    cfg = _tiny_model()
    params = init_params(cfg, seed=4)
    save_checkpoint(tmp_path / "ckpt", params, cfg)
    loaded, loaded_cfg = load_checkpoint(tmp_path / "ckpt")
    assert loaded_cfg == cfg
    assert loaded.names() == params.names()
    for name in params.names():
        assert np.array_equal(loaded[name].data, params[name].data)


def test_checkpoint_roundtrip_nondefault_config(tmp_path):
    cfg = ModelConfig(
        vocab_size=30, d_raw=7, embed_dim=5, hidden_dim=6, sim_dim=4,
        n_layers=0, temperature=4.0, stream="t2i_only", hierarchical=False,
        row_softmax=True, share_sim_w=True, max_caption_len=17,
    )
    params = init_params(cfg, seed=1)
    save_checkpoint(tmp_path / "ckpt", params, cfg)
    _, loaded_cfg = load_checkpoint(tmp_path / "ckpt")
    assert loaded_cfg == cfg


def test_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "nope")


def test_checkpoint_blob_corruption_detected(tmp_path):
    cfg = _tiny_model()
    save_checkpoint(tmp_path / "ckpt", init_params(cfg, seed=4), cfg)
    blob_path = tmp_path / "ckpt" / "params.bin"
    raw = bytearray(blob_path.read_bytes())
    raw[11] ^= 0xFF
    blob_path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="checksum"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_truncated_blob_detected(tmp_path):
    cfg = _tiny_model()
    save_checkpoint(tmp_path / "ckpt", init_params(cfg, seed=4), cfg)
    blob_path = tmp_path / "ckpt" / "params.bin"
    blob_path.write_bytes(blob_path.read_bytes()[:-8])
    with pytest.raises(DataError, match="bytes"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_bad_version_detected(tmp_path):
    cfg = _tiny_model()
    save_checkpoint(tmp_path / "ckpt", init_params(cfg, seed=4), cfg)
    manifest = tmp_path / "ckpt" / "manifest"
    text = manifest.read_text().replace("version: 1", "version: 999")
    manifest.write_text(text)
    with pytest.raises(DataError, match="version"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_bad_model_field_detected(tmp_path):
    cfg = _tiny_model()
    save_checkpoint(tmp_path / "ckpt", init_params(cfg, seed=4), cfg)
    manifest = tmp_path / "ckpt" / "manifest"
    text = manifest.read_text().replace("model.stream: both", "model.stream: sideways")
    manifest.write_text(text)
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_disagreeing_with_its_own_config_is_rejected(tmp_path):
    cfg = _tiny_model()
    save_checkpoint(tmp_path / "ckpt", init_params(cfg, seed=4), cfg)
    manifest = tmp_path / "ckpt" / "manifest"
    text = manifest.read_text()
    assert f"model.n_layers: {cfg.n_layers}\n" in text
    manifest.write_text(text.replace(f"model.n_layers: {cfg.n_layers}\n", f"model.n_layers: {cfg.n_layers + 1}\n"))
    with pytest.raises(DataError, match=f"lacks parameter 'reason.{cfg.n_layers}.bias'"):
        load_checkpoint(tmp_path / "ckpt")
    manifest.write_text(text.replace("param.head.w: ", "param.head.w: 1x"))
    with pytest.raises(DataError, match="'head.w' has shape"):
        load_checkpoint(tmp_path / "ckpt")


# ------------------------------------------------------------ loss csv

def test_write_loss_csv_roundtrips_exact_floats(tmp_path):
    curve = [(1, 3.0626954469277097), (2, 0.8), (3, 1.0 / 3.0)]
    path = tmp_path / "loss.csv"
    write_loss_csv(path, curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss"
    for (step, loss), line in zip(curve, lines[1:]):
        s, _, v = line.partition(",")
        assert int(s) == step
        assert float(v) == loss
