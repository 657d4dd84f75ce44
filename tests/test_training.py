"""Adam behaviour, the training loop, and checkpoint files."""

import dataclasses
import hashlib
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from itmatch import cli, training
from itmatch import tensor as tt
from itmatch.dataio import gen_synthetic
from itmatch.errors import ConfigError, ContractError, DataError
from itmatch.evaluation import evaluate, flatten_captions, rsum
from itmatch.gradcheck import run_gradcheck
from itmatch.model import STREAMS, ModelConfig, init_params
from itmatch.tensor import ParamStore, backward
from itmatch.training import (
    ADAM_BLOCK,
    CHECKPOINT_VERSION,
    LR_DECAY_FACTOR,
    TrainConfig,
    adam_init,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    train,
)


def _scalar_store(value=3.0):
    return ParamStore({"theta": tt.parameter(np.asarray(value))})


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


def test_adam_leaves_params_and_grads_untouched_and_advances_its_state():
    store = _scalar_store(3.0)
    state = adam_init(store)
    m, v = state.m["theta"], state.v["theta"]
    loss = tt.square(store["theta"])
    grads = backward(loss, store)
    new_store, new_state = adam_step(store, grads, state, lr=0.1)
    assert float(store["theta"].data) == 3.0
    assert float(grads["theta"].data) == 6.0
    assert not new_store["theta"].data.flags.writeable
    # the state passed in is the one returned, its own moments advanced
    assert new_state is state and state.step == 1
    assert state.m["theta"] is m and state.v["theta"] is v
    assert float(m) == (1.0 - 0.9) * 6.0
    assert float(v) == (1.0 - 0.999) * 36.0


def test_adam_missing_grad_rejected():
    store = _scalar_store()
    with pytest.raises(ContractError):
        adam_step(store, {}, adam_init(store), lr=0.1)
    # a gradient missing only for the parameter that sorts last still
    # leaves every moment as it was
    store, draw = _adam_problem(4)
    state = adam_init(store)
    store, state = adam_step(store, draw(), state, lr=0.01)
    grads = draw()
    del grads["still"]
    kept = {name: (state.m[name].tobytes(), state.v[name].tobytes()) for name in ADAM_SHAPES}
    with pytest.raises(ContractError, match="'still'"):
        adam_step(store, grads, state, lr=0.01)
    assert state.step == 1
    assert {name: (state.m[name].tobytes(), state.v[name].tobytes()) for name in ADAM_SHAPES} == kept


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


# a parameter of four flat runs, the last one short (its size is not a
# multiple of the run), a (1,) one, a scalar, and one whose gradient is
# always zero
ADAM_SHAPES = {"big": (3, ADAM_BLOCK + 41), "one": (1,), "scalar": (), "still": (5, 7)}


def _adam_problem(seed):
    rng = np.random.default_rng(seed)
    store = ParamStore(
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


def test_adam_over_many_blocks_leaves_params_and_grads_untouched_and_advances_its_state():
    store, draw = _adam_problem(6)
    state = adam_init(store)
    store, state = adam_step(store, draw(), state, lr=0.01)
    grads = draw()
    moments = {name: (state.m[name], state.v[name]) for name in ADAM_SHAPES}
    kept = {
        name: (store[name].data.copy(), grads[name].data.copy(), state.m[name].copy(), state.v[name].copy())
        for name in ADAM_SHAPES
    }
    new_store, new_state = adam_step(store, grads, state, lr=0.01)
    assert new_state is state and state.step == 2
    for name, (theta, g, m, v) in kept.items():
        np.testing.assert_array_equal(store[name].data, theta)
        np.testing.assert_array_equal(grads[name].data, g)
        # the same arrays, advanced as the textbook update advances them
        assert state.m[name] is moments[name][0] and state.v[name] is moments[name][1]
        np.testing.assert_array_equal(state.m[name], 0.9 * m + (1.0 - 0.9) * g)
        np.testing.assert_array_equal(state.v[name], 0.999 * v + (1.0 - 0.999) * (g * g))
        out = new_store[name].data
        assert not out.flags.writeable
        inputs = (store[name].data, grads[name].data, state.m[name], state.v[name])
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


def test_adam_updates_a_transposed_gradient_exactly():
    # backward hands every gradient over C-contiguous, but a caller may
    # pass a transposed view: Adam copies it once and updates exactly; the
    # parameter is three flat runs, the last one short
    shape = (40, 1000)
    rng = np.random.default_rng(9)
    store = ParamStore({"w": tt.parameter(rng.standard_normal(shape))})
    state = adam_init(store)
    theta, m, v = store["w"].data, np.zeros(shape), np.zeros(shape)
    for t in range(1, 4):
        g = rng.standard_normal(shape[::-1]).T
        assert not g.flags.c_contiguous
        store, state = adam_step(store, {"w": tt.Tensor(g)}, state, lr=0.01)
        before = theta
        theta, m, v = _textbook_adam(theta, g, m, v, t, 0.01)
        assert np.max(np.abs(store["w"].data - theta)) <= 1e-12 * np.max(np.abs(theta - before))
        for got, ref in ((state.m["w"], m), (state.v["w"], v)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_adam_allocates_one_parameter_and_no_copy():
    # 16 MB a parameter; fresh moments would take the peak from the one
    # fresh parameter (1x) to 3x, and a copy of the gradient to 2x.  The
    # gradient is C-contiguous, as every one backward makes is
    shape = (1024, 2048)
    rng = np.random.default_rng(10)
    store = ParamStore({"w": tt.parameter(rng.standard_normal(shape))})
    state = adam_init(store)
    grads = {"w": tt.Tensor(rng.standard_normal(shape))}
    tracemalloc.start()
    try:
        adam_step(store, grads, state, lr=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * store["w"].data.nbytes


def test_every_parameter_gradient_and_moment_is_c_contiguous(tmp_path):
    # Adam walks every array as a flat view: a gradient or parameter that
    # is not C-contiguous would be copied silently on every step, so this
    # fails if an op ever hands a transposed view back to a leaf
    data = gen_synthetic(n_pairs=4, k=3, d_raw=6, caption_len=4, vocab_size=32, seed=2, signal_strength=1.0)
    regions, tokens, _ = flatten_captions(data)
    tokens = [caption[:n] for caption, n in zip(tokens, (4, 1, 3, 2))]
    configs = [
        ModelConfig(vocab_size=32, d_raw=6, embed_dim=5, hidden_dim=4, sim_dim=3, n_layers=depth,
                    stream=stream, hierarchical=gated, row_softmax=softmax, share_sim_w=shared,
                    max_caption_len=4)
        for stream in STREAMS for gated in (False, True) for softmax in (False, True)
        for shared in (False, True) for depth in (0, 1, 2)
    ]
    assert len(configs) == 72
    for cfg in configs:
        params = init_params(cfg, seed=0)
        _, loss = training.batch_loss(params, cfg, 0.2, regions, tokens)
        grads = backward(loss, params)
        state = adam_init(params)
        stepped, _ = adam_step(params, grads, state, lr=0.01)
        save_checkpoint(tmp_path, stepped, cfg)
        loaded, _ = load_checkpoint(tmp_path)
        arrays = {"grad": grads, "init": params, "step": stepped, "load": loaded}
        for kind, store in arrays.items():
            for name in params.names():
                assert store[name].data.flags.c_contiguous, (cfg, kind, name)
        for name in params.names():
            assert state.m[name].flags.c_contiguous and state.v[name].flags.c_contiguous, (cfg, name)


# 1e200 is finite, but its square, and so v, would not be
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_adam_stops_on_a_non_finite_gradient_before_returning(bad):
    # "big" sorts first: plant the value in its third run, and in "one",
    # which sorts after it; planted in "one" alone, it comes after every
    # run of "big" has passed the check
    for planted in (("big", "one"), ("one",)):
        store, draw = _adam_problem(8)
        state = adam_init(store)
        store, state = adam_step(store, draw(), state, lr=0.01)
        grads = draw()
        big = grads["big"].data.copy()
        one = grads["one"].data.copy()
        if "big" in planted:
            big.reshape(-1)[2 * ADAM_BLOCK + 5] = bad
        one[0] = bad
        grads.update(big=tt.constant(big), one=tt.constant(one))
        kept = {
            name: tuple(a.tobytes() for a in (store[name].data, grads[name].data, state.m[name], state.v[name]))
            for name in ADAM_SHAPES
        }
        with pytest.raises(DataError, match=rf"step 2: .*'{planted[0]}' is not finite"):
            adam_step(store, grads, state, lr=0.01)
        assert state.step == 1
        for name, arrays in kept.items():
            now = (store[name].data, grads[name].data, state.m[name], state.v[name])
            assert tuple(a.tobytes() for a in now) == arrays, (planted, name)


# the second pass is two jobs of whole parameters in name order, the first
# ending at the parameter that takes it to half the elements: "big" alone,
# then "one", "scalar" and "still"
def test_adam_halves_give_the_same_bits_on_one_or_two_threads(monkeypatch):
    pool, submitted = tt._worker(), []
    counting = SimpleNamespace(submit=lambda job: submitted.append(job) or pool.submit(job))
    monkeypatch.setattr(tt, "_worker", lambda: counting)
    runs = []
    for on in (False, True):
        monkeypatch.setattr(tt, "_concurrent", lambda nbytes, on=on: on)
        store, draw = _adam_problem(12)
        state = adam_init(store)
        for _ in range(2):
            store, state = adam_step(store, draw(), state, lr=0.01)
        runs.append([a.tobytes() for name in ADAM_SHAPES for a in (store[name].data, state.m[name], state.v[name])])
    assert len(submitted) == 2  # one job a step, in the concurrent run
    assert runs[0] == runs[1]


def _full_adam(theta, g, m, v, t, lr, eps=1e-8):
    # the efficient-order update with both gradient terms on every entry,
    # one operation after another as adam_step applies them; m and v
    # advance in place
    alpha = lr * math.sqrt(1.0 - 0.999 ** t) / (1.0 - 0.9 ** t)
    eps_hat = eps * math.sqrt(1.0 - 0.999 ** t)
    s = g * g
    s *= 1.0 - 0.999
    v *= 0.999
    v += s
    s = g * (1.0 - 0.9)
    m *= 0.9
    m += s
    s = np.sqrt(v)
    s += eps_hat
    s = m / s
    s *= alpha
    return theta - s


# the gradient runs of adam_step's zero-run test: +0, -0, +-1e-170 (whose
# squares underflow to 0, so the run is not zero) and ordinary values
ZERO_RUN_KINDS = ("zero", "negative zero", "tiny", "ordinary")


def _zero_run_gradient(rng, kinds, size):
    g = rng.standard_normal(size)
    for r, kind in enumerate(kinds):
        run = g[r * ADAM_BLOCK:(r + 1) * ADAM_BLOCK]
        if kind == "zero":
            run[:] = 0.0
        elif kind == "negative zero":
            run[:] = -0.0
        elif kind == "tiny":
            run[:] = np.where(run < 0.0, -1e-170, 1e-170)
    return g


@pytest.mark.parametrize("on", [False, True], ids=["sequential", "concurrent"])
def test_adam_skips_the_gradient_terms_of_zero_runs_bit_for_bit(monkeypatch, on):
    # "w" is four runs and a short one, and each step shifts which run gets
    # which kind: zero runs meet nonzero moments, and a tiny run meets zero
    # moments, where its first moment term is all that moves it; "sure"
    # gets a gradient of all -0 on every step, "still" all +0
    monkeypatch.setattr(tt, "_concurrent", lambda nbytes: on)
    rng = np.random.default_rng(21)
    shapes = {"still": (3, 5), "sure": (7,), "w": (4 * ADAM_BLOCK + 9,)}
    store = ParamStore({name: tt.parameter(rng.standard_normal(shape)) for name, shape in shapes.items()})
    state = adam_init(store)
    want = {name: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape)) for name, t in store.items()}
    for t in range(1, 7):
        grads = {
            "still": np.zeros(shapes["still"]),
            "sure": np.full(shapes["sure"], -0.0),
            "w": _zero_run_gradient(rng, [ZERO_RUN_KINDS[(r + t) % 4] for r in range(5)], shapes["w"][0]),
        }
        store, state = adam_step(store, {name: tt.constant(g) for name, g in grads.items()}, state, lr=0.01)
        for name, (theta, m, v) in want.items():
            want[name] = (_full_adam(theta, grads[name], m, v, t, 0.01), m, v)
            got = (store[name].data, state.m[name], state.v[name])
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want[name]], (t, name)
        if t == 1:  # run 1 was tiny: v stays 0 and m moves off it
            tiny = slice(ADAM_BLOCK, 2 * ADAM_BLOCK)
            assert not np.any(state.v["w"][tiny]) and np.all(state.m["w"][tiny] != 0.0)


@pytest.mark.parametrize("on", [False, True], ids=["sequential", "concurrent"])
def test_adam_names_the_first_non_finite_gradient_of_either_half(monkeypatch, on):
    monkeypatch.setattr(tt, "_concurrent", lambda nbytes: on)
    store, draw = _adam_problem(13)
    state = adam_init(store)
    store, state = adam_step(store, draw(), state, lr=0.01)
    grads = draw()
    big, still = grads["big"].data.copy(), grads["still"].data.copy()
    big[2, 7] = np.inf
    still[4, 6] = np.nan
    grads.update(big=tt.constant(big), still=tt.constant(still))
    kept = [a.tobytes() for name in ADAM_SHAPES for a in (store[name].data, state.m[name], state.v[name])]
    with pytest.raises(DataError, match="step 2: .*'big' is not finite"):
        adam_step(store, grads, state, lr=0.01)
    assert state.step == 1
    assert [a.tobytes() for name in ADAM_SHAPES for a in (store[name].data, state.m[name], state.v[name])] == kept


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
        {"lr": np.nan},
        {"lr": np.inf},
        {"margin": np.nan},
        {"margin": np.inf},
        {"seed": -1},
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
    with pytest.raises(ConfigError, match="non-empty"):  # an empty validation set
        train(_tiny_data(), cfg, val_bundles=[])


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
        model=_tiny_model(), epochs=2, lr=0.0, lr_decay_epoch=0,
        batch_size=4, seed=7, eval_every=2,
    )
    res = train(data, tc)
    init = init_params(tc.model, seed=7)
    for name in init.names():
        assert np.array_equal(res.params[name].data, init[name].data)


def test_train_decay_from_the_first_epoch_scales_every_step():
    # 1.0 * LR_DECAY_FACTOR is exactly 0.1, so the runs match bitwise
    assert 1.0 * LR_DECAY_FACTOR == 0.1
    data = _tiny_data()
    base = dict(model=_tiny_model(), epochs=2, batch_size=4, seed=7, eval_every=2)
    decayed = train(data, TrainConfig(lr=1.0, lr_decay_epoch=0, **base))
    plain = train(data, TrainConfig(lr=0.1, lr_decay_epoch=2, **base))
    assert decayed.loss_curve == plain.loss_curve
    for name in plain.params.names():
        assert np.array_equal(decayed.params[name].data, plain.params[name].data), name


def test_train_decay_at_final_epoch_never_fires():
    # a decay epoch equal to the epoch count never takes effect, so the
    # first 3 epochs of a 4-epoch run that decays at epoch 4 are the run
    data = _tiny_data()
    base = dict(model=_tiny_model(), lr=0.01, batch_size=4, seed=0)
    with_boundary = train(data, TrainConfig(epochs=3, lr_decay_epoch=3, eval_every=3, **base))
    longer = train(data, TrainConfig(epochs=4, lr_decay_epoch=4, eval_every=4, **base))
    assert with_boundary.loss_curve == longer.loss_curve[:len(with_boundary.loss_curve)]


def test_train_stops_at_the_first_non_finite_loss():
    # features of 1e200 overflow the squared norms of the image encoder
    data = _tiny_data()
    for bundle in data:
        bundle.regions = bundle.regions * 1e200
    tc = TrainConfig(model=_tiny_model(), epochs=2, lr_decay_epoch=2, batch_size=4)
    with np.errstate(all="ignore"), pytest.raises(
        DataError, match=r"^step 1: score of image 0 and caption 0 is not finite \(nan\)$"
    ):
        train(data, tc)


def test_train_names_the_epoch_whose_validation_fails():
    # one step per epoch at a rate this large leaves parameters whose
    # validation scores are not finite, while the step itself succeeded
    tc = TrainConfig(model=_tiny_model(), epochs=2, lr=1e300, lr_decay_epoch=2, batch_size=4)
    with np.errstate(all="ignore"), pytest.raises(
        DataError, match=r"^epoch 0 validation: fold 0 .*: score of image 0 and caption 0 is not finite \(nan\)$"
    ):
        train(_tiny_data(), tc)


def _plant_in_grid(monkeypatch, plants, call):
    """Make training.score_grid add each {entry: value} to the grid it returns at this call."""
    real = training.score_grid
    calls = []

    def planted(params, cfg, regions, tokens):
        calls.append(None)
        grid = real(params, cfg, regions, tokens)
        if len(calls) != call:
            return grid
        plant = np.zeros(grid.shape)
        for entry, value in plants.items():
            plant[entry] = value
        return tt.add(grid, tt.constant(plant))

    monkeypatch.setattr(training, "score_grid", planted)
    return calls


# the loss refuses every non-finite grid entry, even one it would not read;
# the last case is a finite grid whose hinge term overflows
@pytest.mark.parametrize(
    "plants,message",
    [
        ({(0, 1): -np.inf}, r"score of image 0 and caption 1 is not finite \(-inf\)"),
        ({(1, 1): np.inf}, r"score of image 1 and caption 1 is not finite \(inf\)"),
        ({(2, 0): np.inf}, r"score of image 2 and caption 0 is not finite \(inf\)"),
        ({(3, 2): np.nan}, r"score of image 3 and caption 2 is not finite \(nan\)"),
        ({(0, 0): -1.5e308, (0, 1): 1.5e308}, r"the loss is not finite \(inf\)"),
    ],
    ids=["off_diagonal_-inf", "diagonal_inf", "off_diagonal_inf", "nan", "finite_grid_loss_overflows"],
)
def test_train_step_stops_on_a_non_finite_score(monkeypatch, plants, message):
    calls = _plant_in_grid(monkeypatch, plants, call=2)
    tc = TrainConfig(model=_tiny_model(), epochs=2, lr=0.01, lr_decay_epoch=2, batch_size=4)
    with np.errstate(over="ignore"), pytest.raises(DataError, match=rf"^step 2: {message}$"):
        train(_tiny_data(), tc)

    calls.clear()
    regions, tokens, owner = flatten_captions(_tiny_data())
    batch = ([regions[i] for i in owner], tokens)
    params = init_params(tc.model, seed=0)
    state = adam_init(params)
    params, _ = training._train_step(params, state, tc, *batch, lr=0.01)

    def snapshot():
        return [(t.data.tobytes(), state.m[name].tobytes(), state.v[name].tobytes()) for name, t in params.items()]

    kept = snapshot()
    with np.errstate(over="ignore"), pytest.raises(DataError, match=rf"^step 2: {message}$"):
        training._train_step(params, state, tc, *batch, lr=0.01)
    assert state.step == 1
    assert snapshot() == kept


def test_gradcheck_refuses_a_non_finite_grid(monkeypatch):
    # the first candidate seed's grid: gradcheck must not step on to the next seed
    _plant_in_grid(monkeypatch, {(1, 0): np.nan}, call=1)
    cfg = dataclasses.replace(_tiny_model(), d_raw=6, hidden_dim=4, sim_dim=4)
    with pytest.raises(DataError, match=r"^score of image 1 and caption 0 is not finite \(nan\)$"):
        run_gradcheck(cfg, k=3, caption_len=3)


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


def test_train_keeps_one_steps_tape_alive_at_a_time():
    # a step's score grid, loss and gradients must be gone before the next
    # step's forward pass and before validation, so that three steps peak
    # no higher than one; with them kept alive the peak holds two tapes
    data = _tiny_data(n_pairs=8)
    peaks = []
    for epochs in (1, 3):
        tc = TrainConfig(
            model=_tiny_model(), epochs=epochs, lr=0.01, lr_decay_epoch=epochs,
            batch_size=8, eval_every=epochs,
        )
        tracemalloc.start()
        try:
            train(data, tc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_train_best_snapshot_matches_val_history():
    data = _tiny_data()
    tc = TrainConfig(
        model=_tiny_model(), epochs=4, lr=0.01, lr_decay_epoch=4,
        batch_size=4, seed=0, eval_every=1,
    )
    res = train(data, tc)
    assert len(res.val_history) == 4
    scores = [(e, rsum([sentence, image])) for e, sentence, image in res.val_history]
    assert res.best_rsum == max(score for _, score in scores)
    assert res.best_epoch == min(e for e, s in scores if s == res.best_rsum)
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


@pytest.mark.parametrize("stream", ["both", "i2t_only", "t2i_only"])
@pytest.mark.parametrize("flag", [False, True])
def test_checkpoint_roundtrips_every_model_field(tmp_path, stream, flag):
    cfg = ModelConfig(
        vocab_size=31, d_raw=5, embed_dim=4, hidden_dim=3, sim_dim=2, n_layers=2,
        temperature=2.75, stream=stream, hierarchical=flag, row_softmax=not flag,
        share_sim_w=flag, max_caption_len=19,
    )
    params = init_params(cfg, seed=2)
    save_checkpoint(tmp_path / "ckpt", params, cfg)
    lines = (tmp_path / "ckpt" / "manifest").read_text().splitlines()
    assert [line for line in lines if line.startswith("model.")] == [
        f"model.{f.name}: {getattr(cfg, f.name)}" for f in dataclasses.fields(ModelConfig)
    ]
    loaded, loaded_cfg = load_checkpoint(tmp_path / "ckpt")
    assert loaded_cfg == cfg
    assert loaded.names() == params.names()
    for name in params.names():
        assert np.array_equal(loaded[name].data, params[name].data)


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("param.head.w: 8\n", "param.head.w: 2xq\n", "'head.w' has shape '2xq'"),
        ("param.head.w: 8\n", "", "lacks parameter 'head.w'"),
        ("param.head.w: 8\n", "param.head.w: 8\nparam.head.v: 8\n", "'head.v' is not part"),
    ],
    ids=["garbled", "removed", "extra"],
)
def test_checkpoint_parameter_list_must_match_its_config(tmp_path, old, new, message):
    cfg = _tiny_model()
    save_checkpoint(tmp_path / "ckpt", init_params(cfg, seed=4), cfg)
    manifest = tmp_path / "ckpt" / "manifest"
    text = manifest.read_text()
    assert old in text
    manifest.write_text(text.replace(old, new))
    with pytest.raises(DataError, match=message):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_checkpoint_refuses_a_non_finite_parameter(tmp_path, value):
    cfg = _tiny_model()
    params = init_params(cfg, seed=4)
    # two bad parameters: the first by name is named
    bad = params.copy_with({
        "head.w": tt.parameter(np.full(params["head.w"].shape, value)),
        "sim.w_glob": tt.parameter(np.full(params["sim.w_glob"].shape, np.nan)),
    })
    manifest = os.path.join(tmp_path / "ckpt", "manifest")
    with pytest.raises(DataError, match=f"^{manifest}: parameter 'head.w' is not finite$"):
        save_checkpoint(tmp_path / "ckpt", bad, cfg)
    assert not (tmp_path / "ckpt").exists()
    # the same value planted in a saved blob, with its checksum updated
    save_checkpoint(tmp_path / "ckpt", params, cfg)
    blob_path = tmp_path / "ckpt" / "params.bin"
    flat = np.frombuffer(blob_path.read_bytes(), dtype="<f8").copy()
    flat[sum(t.data.size for name, t in params.items() if name < "head.w")] = value
    blob_path.write_bytes(flat.tobytes())
    lines = [
        f"checksum_params: {hashlib.sha256(flat.tobytes()).hexdigest()}"
        if line.startswith("checksum_params:") else line
        for line in (tmp_path / "ckpt" / "manifest").read_text().splitlines()
    ]
    (tmp_path / "ckpt" / "manifest").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"^{manifest}: parameter 'head.w' is not finite$"):
        load_checkpoint(tmp_path / "ckpt")


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


@pytest.mark.parametrize("version", [1, 999])
def test_checkpoint_bad_version_detected(tmp_path, version):
    # version 1 stored every similarity, query, key and output weight
    # transposed; its square weights would pass every shape check
    cfg = _tiny_model()
    save_checkpoint(tmp_path / "ckpt", init_params(cfg, seed=4), cfg)
    manifest = tmp_path / "ckpt" / "manifest"
    text = manifest.read_text()
    assert f"\nversion: {CHECKPOINT_VERSION}\n" in text
    manifest.write_text(text.replace(f"\nversion: {CHECKPOINT_VERSION}\n", f"\nversion: {version}\n"))
    with pytest.raises(DataError, match=f"unsupported version {version}, expected {CHECKPOINT_VERSION}$"):
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

def _write_loss_csv(path, curve):
    # the CLI's one CSV writer, as `train` calls it for the loss curve
    cli._write_csv(path, ("step", "loss"), curve)


def test_write_loss_csv_roundtrips_exact_floats(tmp_path):
    curve = [(1, 3.0626954469277097), (2, 0.8), (3, 1.0 / 3.0)]
    path = tmp_path / "loss.csv"
    _write_loss_csv(path, curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss"
    for (step, loss), line in zip(curve, lines[1:]):
        s, _, v = line.partition(",")
        assert int(s) == step
        assert float(v) == loss


def test_write_loss_csv_of_an_empty_curve_writes_its_header(tmp_path):
    path = tmp_path / "loss.csv"
    _write_loss_csv(path, [])
    assert path.read_text() == "step,loss\n"


class _Unprintable:
    def __repr__(self):
        raise RuntimeError("planted failure")


def test_write_loss_csv_failure_leaves_the_old_file(tmp_path):
    path = tmp_path / "loss.csv"
    _write_loss_csv(path, [(1, 0.5)])
    old = path.read_bytes()
    # the header and the first row are written before the second row fails
    with pytest.raises(RuntimeError, match="planted failure"):
        _write_loss_csv(path, [(1, 0.25), (2, _Unprintable())])
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["loss.csv"]
