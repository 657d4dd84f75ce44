"""Engine ops against hand-computed values and finite differences."""

import math
import zlib

import numpy as np
import pytest

from itmatch import tensor as tt
from itmatch.errors import ConfigError, ContractError, DimensionError
from itmatch.tensor import ParamStore, Tensor, backward, finite_diff_grad


def _store(**arrays):
    return ParamStore.from_dict(
        {name: tt.parameter(np.asarray(value, dtype=np.float64)) for name, value in arrays.items()}
    )


def _check_against_fd(f, store, tol=1e-6, epsilon=1e-5):
    loss = f(store)
    auto = backward(loss, store)
    fd = finite_diff_grad(lambda p: f(p).item(), store, epsilon)
    # a central difference carries rounding of about 1e-16 * |loss| / epsilon;
    # entries below the size at which that rounding alone would reach tol
    # are compared absolutely, so a near-zero entry of a large loss passes
    floor = 1e-5 + 1e-16 * abs(loss.item()) / epsilon / tol
    for name in store.names():
        a, b = auto[name].data, fd[name].data
        err = np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))
        assert err < tol, f"{name}: rel err {err}"


# --- values -------------------------------------------------------------------


def test_add_mul_sub_values():
    a = tt.constant(np.array([[1.0, -2.0], [3.0, 0.5]]))
    b = tt.constant(np.array([10.0, 100.0]))
    assert tt.add(a, b).data.tolist() == [[11.0, 98.0], [13.0, 100.5]]
    assert tt.sub(a, b).data.tolist() == [[-9.0, -102.0], [-7.0, -99.5]]
    assert tt.mul(a, 2.0).data.tolist() == [[2.0, -4.0], [6.0, 1.0]]


def test_broadcast_rule_is_narrow():
    a = tt.constant(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        tt.add(a, tt.constant(np.zeros((3, 2))))
    with pytest.raises(DimensionError):
        tt.add(a, tt.constant(np.zeros(2)))  # must match the row width, not height
    with pytest.raises(DimensionError):
        tt.add(tt.constant(np.zeros(3)), tt.constant(np.zeros((2, 3))))  # one-sided only


def test_unary_values():
    x = tt.constant(np.array([-1.0, 0.0, 2.0]))
    assert tt.relu(x).data.tolist() == [0.0, 0.0, 2.0]
    assert tt.square(x).data.tolist() == [1.0, 0.0, 4.0]
    np.testing.assert_allclose(tt.sigmoid(x).data, 1.0 / (1.0 + np.exp([1.0, 0.0, -2.0])))


def test_sigmoid_extreme_inputs_stay_finite():
    x = tt.constant(np.array([-1e4, 1e4]))
    out = tt.sigmoid(x).data
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 or out[0] < 1e-300
    assert out[1] == 1.0


def test_reductions_values():
    a = tt.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert tt.sum(a).item() == 10.0
    assert tt.sum(a, axis=0).data.tolist() == [4.0, 6.0]
    assert tt.sum(a, axis=1).data.tolist() == [3.0, 7.0]
    assert tt.mean(a, axis=1).data.tolist() == [1.5, 3.5]
    assert tt.amax(a, axis=0).data.tolist() == [3.0, 4.0]
    assert tt.l2norm(tt.constant(np.array([3.0, 4.0]))).item() == 5.0


def test_matmul_shapes_and_values():
    a = tt.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = tt.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    v = tt.constant(np.array([1.0, -1.0]))
    assert tt.matmul(a, b).data.tolist() == a.data.tolist()
    assert tt.matmul(a, v).data.tolist() == [-1.0, -1.0]
    assert tt.matmul(v, a).data.tolist() == [-2.0, -2.0]
    assert tt.matmul(v, v).item() == 2.0
    with pytest.raises(DimensionError):
        tt.matmul(a, tt.constant(np.zeros((3, 2))))


def test_take_and_stack_values():
    a = tt.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert tt.take_rows(a, [1]).data.tolist() == [[3.0, 4.0]]
    with pytest.raises(DimensionError):
        tt.take_rows(a, [2])
    v = tt.vstack([a, tt.constant(np.array([5.0, 6.0]))])
    assert v.data.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_take_rows_repeats():
    table = tt.parameter(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
    out = tt.take_rows(table, [2, 0, 2])
    assert out.data.tolist() == [[2.0, 2.0], [1.0, 0.0], [2.0, 2.0]]
    store = ParamStore.from_dict({"t": table})
    g = backward(tt.sum(out), store)["t"].data
    assert g.tolist() == [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]]  # repeated row accumulates


def test_scale_rows_values():
    a = tt.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    s = tt.constant(np.array([2.0, -1.0]))
    assert tt.scale_rows(a, s).data.tolist() == [[2.0, 4.0], [-3.0, -4.0]]


def test_safe_inv_guards_small_values():
    x = tt.constant(np.array([2.0, 0.0, 1e-13, -4.0]))
    out = tt.safe_inv(x)
    assert out.data.tolist() == [0.5, 0.0, 0.0, -0.25]


def test_safe_inv_guarded_entries_get_zero_grad():
    store = _store(x=[2.0, 0.0])
    g = backward(tt.sum(tt.safe_inv(store["x"])), store)["x"].data
    assert g[0] == pytest.approx(-0.25)
    assert g[1] == 0.0


def test_softmax_rows_properties():
    x = tt.constant(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    out = tt.softmax_rows(x).data
    np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0])
    np.testing.assert_allclose(out[1], [1 / 3, 1 / 3, 1 / 3])
    assert out[0].argmax() == 2


def test_softmax_rows_large_logits_do_not_overflow():
    x = tt.constant(np.array([[1000.0, 0.0], [0.0, 2000.0]]))
    out = tt.softmax_rows(x).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 1.0]], atol=1e-300)


def test_amax_breaks_ties_toward_first_index():
    store = _store(x=[[2.0, 2.0, 1.0]])
    g = backward(tt.sum(tt.amax(store["x"], axis=1)), store)["x"].data
    assert g.tolist() == [[1.0, 0.0, 0.0]]


def test_conv3x3_identity_kernel():
    x = tt.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    kernel = np.zeros((3, 3))
    kernel[1, 1] = 1.0
    out = tt.conv2d_3x3(x, tt.constant(kernel), tt.constant(np.zeros(())))
    assert out.data.tolist() == x.data.tolist()


def test_conv3x3_zero_kernel_returns_bias():
    x = tt.constant(np.arange(6.0).reshape(2, 3))
    out = tt.conv2d_3x3(x, tt.constant(np.zeros((3, 3))), tt.constant(np.asarray(0.7)))
    assert out.data.tolist() == [[0.7] * 3] * 2


def test_conv3x3_against_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 5))
    kernel = rng.normal(size=(3, 3))
    bias = 0.3
    out = tt.conv2d_3x3(
        tt.constant(x), tt.constant(kernel), tt.constant(np.asarray(bias))
    ).data
    expected = np.zeros_like(x)
    for p in range(4):
        for q in range(5):
            acc = bias
            for u in range(3):
                for w in range(3):
                    pi, qi = p + u - 1, q + w - 1
                    if 0 <= pi < 4 and 0 <= qi < 5:
                        acc += kernel[u, w] * x[pi, qi]
            expected[p, q] = acc
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_conv3x3_stack_convolves_each_matrix_alone():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 4, 5))
    kernel = tt.constant(rng.normal(size=(3, 3)))
    bias = tt.constant(np.asarray(-0.4))
    out = tt.conv2d_3x3(tt.constant(x), kernel, bias).data
    for i in range(2):
        for j in range(3):
            alone = tt.conv2d_3x3(tt.constant(x[i, j]), kernel, bias).data
            np.testing.assert_array_equal(out[i, j], alone)


def test_masked_softmax_gives_masked_entries_zero_weight():
    x = tt.constant(np.array([[1.0, 50.0, 2.0], [3.0, 1.0, -2.0]]))
    mask = np.array([True, False, True])
    out = tt.softmax_rows(x, mask).data
    np.testing.assert_allclose(out[:, 1], 0.0)
    np.testing.assert_allclose(out[:, [0, 2]], tt.softmax_rows(tt.constant(x.data[:, [0, 2]])).data)
    with pytest.raises(DimensionError):
        tt.softmax_rows(x, np.ones((3, 3), dtype=bool))


def test_batched_matmul_broadcasts_leading_axes():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 1, 3, 4))
    b = rng.normal(size=(5, 4, 2))
    out = tt.matmul(tt.constant(a), tt.constant(b)).data
    assert out.shape == (2, 5, 3, 2)
    np.testing.assert_allclose(out[1, 3], a[1, 0] @ b[3], atol=1e-12)
    with pytest.raises(DimensionError):
        tt.matmul(tt.constant(np.zeros((2, 3, 4))), tt.constant(np.zeros((3, 4, 2))))
    with pytest.raises(DimensionError):
        tt.matmul(tt.constant(np.zeros(4)), tt.constant(np.zeros((2, 4, 2))))


def test_pick_rows_values():
    a = tt.constant(np.arange(12.0).reshape(2, 3, 2))
    assert tt.pick_rows(a, [2, 0]).data.tolist() == [[4.0, 5.0], [6.0, 7.0]]
    assert tt.pick_rows(a, 1).data.tolist() == [[2.0, 3.0], [8.0, 9.0]]
    with pytest.raises(DimensionError):
        tt.pick_rows(a, [3, 0])


def test_l2norm_zero_vector_has_finite_grad():
    store = _store(x=[0.0, 0.0])
    g = backward(tt.l2norm(store["x"]), store)["x"].data
    assert np.all(np.isfinite(g))
    assert g.tolist() == [0.0, 0.0]


# --- gradients ----------------------------------------------------------------


def test_backward_of_sum_is_ones():
    store = _store(x=[[1.0, 2.0], [3.0, 4.0]])
    g = backward(tt.sum(store["x"]), store)["x"].data
    assert g.tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_backward_of_sum_of_squares():
    store = _store(w=[1.0, -2.0, 0.5])
    g = backward(tt.sum(tt.square(store["w"])), store)["w"].data
    assert g.tolist() == [2.0, -4.0, 1.0]


def test_backward_requires_scalar_loss():
    store = _store(x=[1.0, 2.0])
    with pytest.raises(ContractError):
        backward(store["x"], store)


def test_backward_reused_node_accumulates():
    store = _store(x=[3.0])
    x = store["x"]
    loss = tt.sum(tt.add(tt.mul(x, x), x))  # x^2 + x -> 2x + 1 = 7
    assert backward(loss, store)["x"].data.tolist() == [7.0]


def test_backward_accumulates_three_uses_without_mutating_upstream_gradients():
    store = _store(x=[1.5, -2.0])
    x = store["x"]
    # add hands one gradient array to both parents, so x's first and
    # second contributions arrive as the very array y's backward sees
    y = tt.add(x, x)
    seen = []
    loss = tt.sum(tt.mul(tt.add(y, x), 2.0))  # 2 * (x + x + x) -> 6 per entry
    inner = loss._parents[0]._parents[0]
    original = inner._backward

    def spy(g):
        parts = original(g)
        seen.extend((p, p.copy()) for p in parts)
        return parts

    inner._backward = spy
    assert backward(loss, store)["x"].data.tolist() == [6.0, 6.0]
    assert seen
    for array, snapshot in seen:
        np.testing.assert_array_equal(array, snapshot)


def test_backward_hands_over_read_only_gradients_with_the_copied_values():
    # exact dyadic values: matmul's transposed product, a broadcast bias,
    # add's shared gradient accumulated in place, and an unused parameter;
    # the expected lists are what backward returned when it copied each
    # gradient into a new constant
    store = _store(
        b=[0.5, -1.0, 0.25], u=[[2.0, 3.0]],
        w=[[1.0, -0.5, 2.0], [0.0, 1.5, -1.0]], x=[1.5, -2.0],
    )
    a = tt.constant([[1.0, 2.0], [-1.0, 0.5]])
    x = store["x"]
    h = tt.add(tt.matmul(a, store["w"]), store["b"])
    loss = tt.add(tt.sum(tt.square(h)), tt.sum(tt.mul(tt.add(x, x), x)))
    grads = backward(loss, store)
    expected = {
        "b": [2.0, 3.5, -4.0],
        "u": [[0.0, 0.0]],
        "w": [[4.0, 2.5, 5.0], [5.5, 6.25, -1.25]],
        "x": [6.0, -8.0],
    }
    assert sorted(grads) == sorted(expected)
    for name, values in expected.items():
        g = grads[name]
        assert not g.requires_grad
        assert g.data.dtype == np.float64
        np.testing.assert_array_equal(g.data, np.asarray(values))
        assert not g.data.flags.writeable
        with pytest.raises(ValueError):
            g.data[...] = 0.0
        assert not np.shares_memory(g.data, store[name].data)


def test_adopt_freezes_without_copying():
    values = np.arange(3.0)
    t = tt.adopt(values, requires_grad=True)
    assert t.data is values and t.requires_grad
    assert not values.flags.writeable
    assert t._parents == () and t._backward is None


def test_backward_unused_param_gets_zeros():
    store = _store(x=[1.0], y=[[1.0, 2.0]])
    g = backward(tt.sum(store["x"]), store)
    assert g["y"].data.tolist() == [[0.0, 0.0]]


def test_finite_diff_on_square():
    store = _store(theta=[3.0])
    fd = finite_diff_grad(lambda p: tt.sum(tt.square(p["theta"])).item(), store)
    assert fd["theta"].data[0] == pytest.approx(6.0, abs=1e-8)


def test_finite_diff_on_constant_function():
    store = _store(theta=[1.0, 2.0])
    fd = finite_diff_grad(lambda p: 5.0, store)
    assert fd["theta"].data.tolist() == [0.0, 0.0]


def test_finite_diff_rejects_bad_epsilon():
    store = _store(theta=[1.0])
    with pytest.raises(ConfigError):
        finite_diff_grad(lambda p: 0.0, store, epsilon=0.0)


OP_CASES = [
    ("add_bcast", lambda p: tt.sum(tt.square(tt.add(p["a"], p["v"])))),
    ("sub_bcast", lambda p: tt.sum(tt.square(tt.sub(p["a"], p["v"])))),
    ("mul_bcast", lambda p: tt.sum(tt.square(tt.mul(p["a"], p["v"])))),
    ("sigmoid", lambda p: tt.sum(tt.sigmoid(p["a"]))),
    ("relu_shifted", lambda p: tt.sum(tt.relu(tt.add(p["a"], 0.05)))),
    ("mean_axis0", lambda p: tt.sum(tt.square(tt.mean(p["a"], axis=0)))),
    ("mean_axis1", lambda p: tt.sum(tt.square(tt.mean(p["a"], axis=1)))),
    ("amax_axis1", lambda p: tt.sum(tt.amax(p["a"], axis=1))),
    ("l2norm_rows", lambda p: tt.sum(tt.l2norm(p["a"], axis=1))),
    ("l2norm_cols", lambda p: tt.sum(tt.l2norm(p["a"], axis=0))),
    ("matmul", lambda p: tt.sum(tt.square(tt.matmul(p["a"], p["b"])))),
    ("matvec", lambda p: tt.sum(tt.square(tt.matmul(p["a"], p["v"])))),
    ("vecmat", lambda p: tt.sum(tt.square(tt.matmul(p["u"], p["a"])))),
    ("dot", lambda p: tt.square(tt.matmul(p["v"], p["v"]))),
    ("transpose", lambda p: tt.sum(tt.square(tt.matmul(tt.transpose(p["a"]), p["a"])))),
    ("vstack", lambda p: tt.sum(tt.square(tt.vstack([p["a"], p["v"]])))),
    ("scale_rows", lambda p: tt.sum(tt.square(tt.scale_rows(p["a"], p["u"])))),
    ("safe_inv", lambda p: tt.sum(tt.safe_inv(tt.add(p["a"], 3.0)))),
    ("softmax", lambda p: tt.sum(tt.square(tt.softmax_rows(p["a"])))),
    ("conv", lambda p: tt.sum(tt.square(tt.conv2d_3x3(p["a"], p["k"], p["s"])))),
]


@pytest.mark.parametrize("magnitude", [0.1, 2.0])
@pytest.mark.parametrize("name,f", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_match_finite_differences(name, f, magnitude):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    store = _store(
        a=magnitude * rng.normal(size=(3, 4)),
        b=magnitude * rng.normal(size=(4, 2)),
        v=magnitude * rng.normal(size=4),
        u=magnitude * rng.normal(size=3),
        k=magnitude * rng.normal(size=(3, 3)),
        s=np.asarray(0.2),
    )
    _check_against_fd(f, store)


# the batched forms of the ops; t is a (2, 3, 4) stack of matrices
BATCHED_OP_CASES = [
    ("add_two_sided", lambda p: tt.sum(tt.square(tt.add(tt.reshape(p["u"], (3, 1)), p["v"])))),
    ("mul_stack_row", lambda p: tt.sum(tt.square(tt.mul(p["t"], tt.reshape(p["v"], (1, 4)))))),
    ("matmul_stack", lambda p: tt.sum(tt.square(tt.matmul(p["t"], p["b"])))),
    ("matmul_broadcast", lambda p: tt.sum(tt.square(
        tt.matmul(tt.reshape(p["t"], (2, 1, 3, 4)), tt.transpose(p["a"]))))),
    ("matvec_stack", lambda p: tt.sum(tt.square(tt.matmul(p["t"], p["v"])))),
    ("transpose_stack", lambda p: tt.sum(tt.square(tt.matmul(tt.transpose(p["t"]), p["a"])))),
    ("l2norm_stack", lambda p: tt.sum(tt.l2norm(p["t"], axis=-2))),
    ("scale_rows_stack", lambda p: tt.sum(tt.square(
        tt.scale_rows(p["t"], tt.vstack([p["u"], tt.mul(p["u"], -0.5)]))))),
    ("softmax_masked", lambda p: tt.sum(tt.square(tt.softmax_rows(
        p["t"], np.array([[True, False, True, True], [False, True, True, False], [True] * 4]))))),
    ("conv_stack", lambda p: tt.sum(tt.square(tt.conv2d_3x3(p["t"], p["k"], p["s"])))),
    ("pick_rows", lambda p: tt.sum(tt.square(tt.pick_rows(p["t"], [2, 0])))),
    ("vstack_stack", lambda p: tt.sum(tt.square(tt.vstack([p["t"], tt.pick_rows(p["t"], 1)])))),
]


# small inputs keep the losses small, so the rounding floor stays near 1e-5
@pytest.mark.parametrize("magnitude", [0.1, 0.3])
@pytest.mark.parametrize("index", range(len(BATCHED_OP_CASES)), ids=[c[0] for c in BATCHED_OP_CASES])
def test_batched_op_gradients_match_finite_differences(index, magnitude):
    _, f = BATCHED_OP_CASES[index]
    rng = np.random.default_rng(index)
    store = _store(
        a=magnitude * rng.normal(size=(3, 4)),
        b=magnitude * rng.normal(size=(4, 2)),
        v=magnitude * rng.normal(size=4),
        u=magnitude * rng.normal(size=3),
        k=magnitude * rng.normal(size=(3, 3)),
        s=np.asarray(0.2),
        t=magnitude * rng.normal(size=(2, 3, 4)),
    )
    _check_against_fd(f, store)


def test_deep_composition_gradient():
    rng = np.random.default_rng(5)
    store = _store(a=rng.normal(size=(3, 4)), b=rng.normal(size=(4, 4)))

    def f(p):
        h = tt.sigmoid(tt.matmul(p["a"], p["b"]))
        h = tt.softmax_rows(h)
        return tt.sum(tt.square(tt.l2norm(h, axis=1)))

    _check_against_fd(f, store)


def test_no_grad_blocks_graph_construction():
    x = tt.parameter(np.array([1.0]))
    with tt.no_grad():
        y = tt.square(x)
    assert y.requires_grad is False
    assert y._parents == ()


def test_constant_and_parameter_flags():
    assert tt.constant(np.array([1.0])).requires_grad is False
    assert tt.parameter(np.array([1.0])).requires_grad is True


def test_tensor_data_is_frozen():
    x = tt.constant(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        x.data[0] = 5.0


def test_param_store_rejects_duplicates_and_non_params():
    store = ParamStore()
    store.add("w", tt.parameter(np.ones(2)))
    with pytest.raises(ContractError):
        store.add("w", tt.parameter(np.ones(2)))
    with pytest.raises(ContractError):
        store.add("c", tt.constant(np.ones(2)))


def test_param_store_copy_with_keeps_shapes():
    store = ParamStore.from_dict({"w": tt.parameter(np.ones((2, 2)))})
    with pytest.raises(ContractError):
        store.copy_with({"w": tt.parameter(np.ones(3))})
    out = store.copy_with({"w": tt.parameter(np.zeros((2, 2)))})
    assert out["w"].data.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert store["w"].data.tolist() == [[1.0, 1.0], [1.0, 1.0]]  # original untouched


def test_param_store_iterates_sorted():
    store = ParamStore.from_dict(
        {"b": tt.parameter(np.ones(1)), "a": tt.parameter(np.ones(1)), "c": tt.parameter(np.ones(1))}
    )
    assert store.names() == ["a", "b", "c"]
    assert [name for name, _ in store.items()] == ["a", "b", "c"]
