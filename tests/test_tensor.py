"""Engine ops against hand-computed values and finite differences."""

import os
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from itmatch import tensor as tt
from itmatch.errors import ConfigError, ContractError, DimensionError
from itmatch.tensor import ParamStore, backward, finite_diff_grad


def _store(**arrays):
    return ParamStore(
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


def test_sigmoid_is_bitwise_the_two_branch_form():
    # one division of a selected numerator by 1 + t, t = exp(-|x|), gives
    # the bits of computing 1 / (1 + t) and t / (1 + t) in full and selecting
    rng = np.random.default_rng(30)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 710.0, -710.0, 745.0, -745.0])
    for x in [rng.normal(scale=scale, size=(4, 7, 9)) for scale in (1.0, 30.0, 800.0)] + [special]:
        t = np.exp(-np.abs(x))
        two_branch = np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))
        assert tt.sigmoid(tt.constant(x)).data.tobytes() == two_branch.tobytes()


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


def test_matmul_shapes_and_values():
    a = tt.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = tt.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    v = tt.constant(np.array([1.0, -1.0]))
    assert tt.matmul(a, b).data.tolist() == a.data.tolist()
    assert tt.matmul(a, v).data.tolist() == [-1.0, -1.0]
    with pytest.raises(DimensionError):
        tt.matmul(a, tt.constant(np.zeros((3, 2))))
    with pytest.raises(DimensionError, match=r"cannot multiply \(2,\) by \(2, 2\)"):
        tt.matmul(v, a)  # a left operand is at least 2-D


def test_take_and_stack_values():
    a = tt.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert tt.take_rows(a, [1]).data.tolist() == [[3.0, 4.0]]
    with pytest.raises(DimensionError):
        tt.take_rows(a, [2])
    assert tt.take_rows(a, [1, 0, 1]).data.tolist() == [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]]


def test_take_rows_repeats():
    table = tt.parameter(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
    out = tt.take_rows(table, [2, 0, 2])
    assert out.data.tolist() == [[2.0, 2.0], [1.0, 0.0], [2.0, 2.0]]
    store = ParamStore({"t": table})
    g = backward(tt.sum(out), store)["t"].data
    assert g.tolist() == [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]]  # repeated row accumulates


def test_take_rows_takes_an_index_array_as_it_is():
    table = tt.parameter(np.arange(6.0).reshape(3, 2))
    index = np.array([2, 0, 2], dtype=np.int64)
    out = tt.take_rows(table, index)
    assert out.data.tolist() == [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]]
    g = backward(tt.sum(out), ParamStore({"t": table}))["t"].data
    assert g.tolist() == [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]]
    # the result has the index array's shape plus the row axis
    assert tt.take_rows(table, np.array([[0, 1]])).data.tolist() == [[[0.0, 1.0], [2.0, 3.0]]]
    grid = tt.take_rows(table, np.array([[1, 2], [1, 0]]))
    assert grid.data.tolist() == [[[2.0, 3.0], [4.0, 5.0]], [[2.0, 3.0], [0.0, 1.0]]]
    g = backward(tt.sum(tt.square(grid)), ParamStore({"t": table}))["t"].data
    assert g.tolist() == [[0.0, 2.0], [8.0, 12.0], [8.0, 10.0]]  # row 1 twice
    # a 0-d index gives one row
    row = tt.take_rows(table, np.array(1))
    assert row.data.tolist() == [2.0, 3.0]
    g = backward(tt.sum(row), ParamStore({"t": table}))["t"].data
    assert g.tolist() == [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]
    for bad in (np.array([], dtype=np.intp), np.zeros((2, 0), dtype=np.intp), np.array([3]),
                np.array([[0], [-1]])):
        with pytest.raises(DimensionError):
            tt.take_rows(table, bad)
    # one index array gathers along the first axis of any rank
    cube = tt.parameter(np.arange(8.0).reshape(2, 2, 2))
    assert tt.take_rows(cube, [1, 1]).data.tolist() == [[[4.0, 5.0], [6.0, 7.0]]] * 2


def _coordinates():
    """Sparse (2, 3) coordinates into the first three axes of a 4-D array,
    with a repeated one: entries (0, 1, 2) and (1, 1, 2) twice."""
    return np.array([[0], [1]]), np.array([1, 1, 0]), np.array([2, 2, 0])


def test_take_rows_gathers_by_coordinates_like_numpy():
    a = np.arange(120.0).reshape(2, 3, 4, 5)
    index = _coordinates()
    out = tt.take_rows(tt.constant(a), index)
    assert out.shape == (2, 3, 5)
    np.testing.assert_array_equal(out.data, a[index])
    # fewer arrays than axes leave the rest whole; as many index single entries
    np.testing.assert_array_equal(tt.take_rows(tt.constant(a), index[:2]).data, a[index[:2]])
    full = (np.array([1, 0]), np.array([2, 2]), np.array([3, 0]), np.array([4, 1]))
    assert tt.take_rows(tt.constant(a), full).data.tolist() == [a[1, 2, 3, 4], a[0, 2, 0, 1]]


def test_take_rows_repeated_coordinates_add_their_gradient():
    a = tt.parameter(np.zeros((2, 3, 4, 5)))
    g = backward(tt.sum(tt.take_rows(a, _coordinates())), ParamStore({"a": a}))["a"].data
    # the six coordinates, counted by hand
    counts = np.zeros((2, 3, 4, 1))
    counts[0, 1, 2] = counts[1, 1, 2] = 2.0
    counts[0, 0, 0] = counts[1, 0, 0] = 1.0
    np.testing.assert_array_equal(g, np.broadcast_to(counts, g.shape))


def test_take_rows_coordinate_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    weights = rng.normal(size=(2, 3, 5))
    _check_against_fd(
        lambda p: tt.sum(tt.mul(tt.square(tt.take_rows(p["a"], _coordinates())), weights)),
        _store(a=rng.normal(size=(2, 3, 4, 5))),
    )


@pytest.mark.parametrize("index", [
    (np.array([0, 2]), np.array([0, 0])),
    (np.array([0, 1]), np.array([0, 3])),
    (np.array([0, -1]), np.array([0, 0])),
    (np.array([0, 1]), np.array([0, 1, 2])),
    (np.array([0]),) * 5,
    (),
    (np.array([0]), np.zeros(0, dtype=np.intp)),
], ids=["axis_0_range", "axis_1_range", "negative", "unbroadcastable", "too_many", "no_array", "empty"])
def test_take_rows_rejects_bad_coordinates(index):
    with pytest.raises(DimensionError):
        tt.take_rows(tt.constant(np.zeros((2, 3, 4, 5))), index)


def test_scale_rows_values():
    # a kept (2, 1) axis scales each row
    a = tt.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    s = tt.constant(np.array([[2.0], [-1.0]]))
    assert tt.mul(a, s).data.tolist() == [[2.0, 4.0], [-3.0, -4.0]]


# rows of norm 5, 0, 1e-13, INV_GUARD and 4
GUARD_ROWS = [[3.0, 4.0], [0.0, 0.0], [1e-13, 0.0], [tt.INV_GUARD, 0.0], [0.0, -4.0]]


def test_inv_norm_guards_short_slices():
    x = np.array(GUARD_ROWS)
    # the reduced axis is kept with length 1
    rows = tt.inv_norm(tt.constant(x), axis=1).data
    assert rows.shape == (5, 1) and rows.ravel().tolist() == [0.2, 0.0, 0.0, 0.0, 0.25]
    cols = tt.inv_norm(tt.constant(x.T), axis=0).data
    assert cols.shape == (1, 5) and cols.ravel().tolist() == [0.2, 0.0, 0.0, 0.0, 0.25]
    # bitwise the reciprocal of numpy's sum-of-squares norm wherever unguarded
    rng = np.random.default_rng(4)
    t = rng.normal(size=(2, 3, 4))
    for axis in (-1, -2, 0):
        norm = np.sqrt(np.sum(t * t, axis=axis, keepdims=True))
        assert np.array_equal(tt.inv_norm(tt.constant(t), axis=axis).data, 1.0 / norm)


def test_inv_norm_guarded_slices_get_zero_grad():
    store = _store(x=GUARD_ROWS)
    g = backward(tt.sum(tt.inv_norm(store["x"], axis=1)), store)["x"].data
    assert np.all(np.isfinite(g))
    # d(1/||x||)/dx = -x / ||x||^3
    np.testing.assert_allclose(g[0], [-3.0 / 125.0, -4.0 / 125.0], rtol=1e-15)
    np.testing.assert_allclose(g[4], [0.0, 4.0 / 64.0], rtol=1e-15)
    assert g[1:4].tolist() == [[0.0, 0.0]] * 3


def test_safe_inv_guarded_entries_get_zero_grad():
    # one-wide rows: inv_norm is the guarded reciprocal of |x|
    store = _store(x=[[2.0], [0.0]])
    g = backward(tt.sum(tt.inv_norm(store["x"], axis=1)), store)["x"].data
    assert g[0, 0] == pytest.approx(-0.25)
    assert g[1, 0] == 0.0


def test_l2norm_zero_vector_has_finite_grad():
    store = _store(x=[0.0, 0.0])
    g = backward(tt.sum(tt.inv_norm(store["x"], axis=0)), store)["x"].data
    assert np.all(np.isfinite(g))
    assert g.tolist() == [0.0, 0.0]


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


# the band's borders: one row, one column, the smallest squares and a stack
CONV_SHAPES = [(4, 5), (1, 1), (1, 6), (6, 1), (2, 2), (7, 7), (2, 31, 31)]


def _conv_loop(x, kernel, bias):
    """The 3x3 zero-padded cross-correlation of each matrix of x, entry by entry."""
    h, w = x.shape[-2:]
    expected = np.zeros_like(x)
    for *lead, p, q in np.ndindex(*x.shape):
        acc = bias
        for u in range(3):
            for v in range(3):
                pi, qi = p + u - 1, q + v - 1
                if 0 <= pi < h and 0 <= qi < w:
                    acc += kernel[u, v] * x[(*lead, pi, qi)]
        expected[(*lead, p, q)] = acc
    return expected


@pytest.mark.parametrize("shape", CONV_SHAPES, ids=["x".join(map(str, s)) for s in CONV_SHAPES])
def test_conv3x3_against_loop_oracle(shape):
    rng = np.random.default_rng(0)
    x = rng.normal(size=shape)
    kernel = rng.normal(size=(3, 3))
    bias = 0.3
    out = tt.conv2d_3x3(
        tt.constant(x), tt.constant(kernel), tt.constant(np.asarray(bias))
    ).data
    np.testing.assert_allclose(out, _conv_loop(x, kernel, bias), rtol=0, atol=1e-12)


def test_conv3x3_forward_is_bitwise_the_loop_on_exact_values():
    # small integers keep every product and sum exact, so every order of
    # the arithmetic gives the same bits: this pins which row and column
    # each kernel entry reads, at the borders of every matrix of a stack,
    # narrower and wider than 16 columns
    rng = np.random.default_rng(33)
    for shape in CONV_SHAPES + [(3, 2, 9, 9), (4, 20, 20), (2, 3, 17)]:
        x = rng.integers(-8, 9, size=shape).astype(np.float64)
        kernel = rng.integers(-4, 5, size=(3, 3)).astype(np.float64)
        out = tt.conv2d_3x3(tt.constant(x), tt.constant(kernel), tt.constant(np.asarray(0.5))).data
        assert out.tobytes() == _conv_loop(x, kernel, 0.5).tobytes(), shape


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


@pytest.mark.parametrize(
    "left,right",
    [
        (lambda x: x, lambda w: w),
        (lambda x: x, lambda w: tt.transpose(tt.parameter(np.ascontiguousarray(w.data.T)))),
        (lambda x: tt.transpose(tt.constant(np.swapaxes(x.data, -1, -2).copy())), lambda w: w),
    ],
    ids=["shared", "transposed_view_matrix", "transposed_stack"],
)
def test_a_stack_folded_against_a_shared_matrix_matches_numpy(left, right):
    rng = np.random.default_rng(16)
    x = left(tt.constant(rng.normal(size=(3, 5, 7, 16))))
    w = right(tt.parameter(rng.normal(size=(16, 9))))
    out = tt.matmul(x, w).data
    ref = np.matmul(x.data, w.data)
    assert out.shape == ref.shape == (3, 5, 7, 9)
    assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))


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


def test_tensor_freezes_without_copying_and_constant_and_parameter_copy():
    values = np.arange(3.0)
    t = tt.Tensor(values, requires_grad=True)
    assert t.data is values and t.requires_grad
    assert not values.flags.writeable
    assert t._parents == () and t._backward is None
    for make in (tt.constant, tt.parameter):
        source = np.arange(3.0)
        made = make(source)
        assert not np.shares_memory(made.data, source)
        assert source.flags.writeable and not made.data.flags.writeable
        np.testing.assert_array_equal(made.data, source)


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
    ("inv_norm_rows", lambda p: tt.sum(tt.inv_norm(p["a"], axis=1))),
    ("inv_norm_cols", lambda p: tt.sum(tt.inv_norm(p["a"], axis=0))),
    ("matmul", lambda p: tt.sum(tt.square(tt.matmul(p["a"], p["b"])))),
    ("matvec", lambda p: tt.sum(tt.square(tt.matmul(p["a"], p["v"])))),
    ("transpose", lambda p: tt.sum(tt.square(tt.matmul(tt.transpose(p["a"]), p["a"])))),
    ("mul_kept_axis", lambda p: tt.sum(tt.square(tt.mul(p["a"], tt.reshape(p["u"], (3, 1)))))),
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


# the batched forms of the ops; t is a (2, 3, 4) stack of matrices, r a
# (2, 1, 5) one
BATCHED_OP_CASES = [
    ("add_two_sided", lambda p: tt.sum(tt.square(tt.add(tt.reshape(p["u"], (3, 1)), p["v"])))),
    ("mul_stack_row", lambda p: tt.sum(tt.square(tt.mul(p["t"], tt.reshape(p["v"], (1, 4)))))),
    ("matmul_stack", lambda p: tt.sum(tt.square(tt.matmul(p["t"], p["b"])))),
    ("matmul_broadcast", lambda p: tt.sum(tt.square(
        tt.matmul(tt.reshape(p["t"], (2, 1, 3, 4)), tt.transpose(p["a"]))))),
    ("matvec_stack", lambda p: tt.sum(tt.square(tt.matmul(p["t"], p["v"])))),
    ("transpose_stack", lambda p: tt.sum(tt.square(tt.matmul(tt.transpose(p["t"]), p["a"])))),
    ("inv_norm_stack", lambda p: tt.sum(tt.inv_norm(p["t"], axis=-2))),
    ("mul_kept_axis_stack", lambda p: tt.sum(tt.square(tt.mul(p["t"], tt.mul(
        tt.reshape(p["u"], (1, 3, 1)), tt.constant(np.array([[[1.0]], [[-0.5]]]))))))),
    ("softmax_masked", lambda p: tt.sum(tt.square(tt.softmax_rows(
        p["t"], np.array([[True, False, True, True], [False, True, True, False], [True] * 4]))))),
    ("conv_stack", lambda p: tt.sum(tt.square(tt.conv2d_3x3(p["t"], p["k"], p["s"])))),
    # a stack against a transposed-view matrix, and a transposed stack against one
    ("matmul_fold_transposed_matrix", lambda p: tt.sum(tt.square(tt.matmul(p["t"], tt.transpose(p["a"]))))),
    ("matmul_fold_transposed_stack", lambda p: tt.sum(tt.square(
        tt.matmul(tt.transpose(tt.reshape(p["t"], (3, 2, 4))), tt.transpose(p["b"]))))),
    # matrices of one row and of one column: the row shifts, or the band's
    # off-diagonals, read nothing
    ("conv_stack_one_row", lambda p: tt.sum(tt.square(tt.conv2d_3x3(p["r"], p["k"], p["s"])))),
    ("conv_stack_one_column", lambda p: tt.sum(tt.square(
        tt.conv2d_3x3(tt.reshape(p["r"], (2, 5, 1)), p["k"], p["s"])))),
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
        r=magnitude * rng.normal(size=(2, 1, 5)),
    )
    _check_against_fd(f, store)


def test_deep_composition_gradient():
    rng = np.random.default_rng(5)
    store = _store(a=rng.normal(size=(3, 4)), b=rng.normal(size=(4, 4)))

    def f(p):
        h = tt.sigmoid(tt.matmul(p["a"], p["b"]))
        h = tt.softmax_rows(h)
        return tt.sum(tt.square(tt.inv_norm(h, axis=1)))

    _check_against_fd(f, store)


def test_no_grad_blocks_graph_construction():
    x = tt.parameter(np.array([1.0]))
    with tt.no_grad():
        y = tt.square(x)
    assert y.requires_grad is False
    assert y._parents == ()


@pytest.mark.parametrize("cases", [OP_CASES, BATCHED_OP_CASES], ids=["plain", "batched"])
def test_no_grad_makes_every_op_a_leaf(cases):
    rng = np.random.default_rng(13)
    store = _store(
        a=rng.normal(size=(3, 4)), b=rng.normal(size=(4, 2)), v=rng.normal(size=4),
        u=rng.normal(size=3), k=rng.normal(size=(3, 3)), s=np.asarray(0.2), t=rng.normal(size=(2, 3, 4)),
        r=rng.normal(size=(2, 1, 5)),
    )
    with tt.no_grad():
        for name, f in cases:
            out = f(store)
            assert (out.requires_grad, out._parents, out._backward) == (False, (), None), name


@pytest.mark.parametrize("op", [tt.add, tt.sub, tt.mul], ids=["add", "sub", "mul"])
@pytest.mark.parametrize(
    "operand",
    [0.75, np.array(-3.0), np.array([1.5, -2.0, 0.25]), np.array([[True], [False]])],
    ids=["number", "0d", "row", "bool_column"],
)
def test_a_number_or_array_operand_is_a_constant_and_never_a_parent(op, operand):
    store = _store(a=np.random.default_rng(14).normal(size=(2, 3)))

    def run(b):
        out = op(store["a"], b)
        return out, backward(tt.sum(tt.square(out)), store)["a"].data

    (out, grad), (ref, ref_grad) = run(operand), run(tt.constant(operand))
    assert out._parents == ref._parents == (store["a"],)
    assert out.data.tobytes() == ref.data.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("op", [tt.add, tt.sub, tt.mul], ids=["add", "sub", "mul"])
def test_a_binary_operand_of_another_type_or_with_more_axes_is_refused(op):
    a = tt.parameter(np.ones((2, 3)))
    for bad in ([1.0, 2.0, 3.0], "1.0", None):
        with pytest.raises(ContractError):
            op(a, bad)
    for wide in (np.ones((1, 2, 3)), tt.constant(np.ones((1, 2, 3))), np.ones(2)):
        with pytest.raises(DimensionError):
            op(a, wide)


@pytest.mark.parametrize(
    "left,right",
    [((3, 4), (4,)), ((2, 3, 4), (4, 2)), ((2, 3, 4), (2, 4, 5)), ((2, 1, 3, 4), (2, 4, 2))],
    ids=["vector", "matrix", "batched", "broadcast"],
)
@pytest.mark.parametrize("tracked", [0, 1], ids=["parameter_left", "parameter_right"])
def test_matmul_computes_no_gradient_for_a_constant_operand(left, right, tracked):
    rng = np.random.default_rng(15)
    values = [rng.normal(size=left), rng.normal(size=right)]
    operands = [tt.constant(v) for v in values]
    operands[tracked] = tt.parameter(values[tracked])
    out = tt.matmul(*operands)
    g = rng.normal(size=out.shape)
    grads = out._backward(g)
    # with both operands tracked each slot runs the same formula as before
    # the constant slot was skipped
    both = tt.matmul(tt.parameter(values[0]), tt.parameter(values[1]))._backward(g)
    assert grads[1 - tracked] is None
    assert grads[tracked].shape == values[tracked].shape
    assert grads[tracked].tobytes() == both[tracked].tobytes()


def test_constant_and_parameter_flags():
    assert tt.constant(np.array([1.0])).requires_grad is False
    assert tt.parameter(np.array([1.0])).requires_grad is True


def test_tensor_data_is_frozen():
    x = tt.constant(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        x.data[0] = 5.0


def test_param_store_rejects_non_params():
    with pytest.raises(ContractError):
        ParamStore({"w": tt.parameter(np.ones(2)), "c": tt.constant(np.ones(2))})
    with pytest.raises(ContractError):
        ParamStore({"w": np.ones(2)})
    store = ParamStore({"w": tt.parameter(np.ones(2))})
    with pytest.raises(ContractError):
        store.copy_with({"w": tt.constant(np.ones(2))})
    with pytest.raises(ContractError):
        store.copy_with({"v": tt.parameter(np.ones(2))})


def test_param_store_copy_with_keeps_shapes():
    store = ParamStore({"w": tt.parameter(np.ones((2, 2)))})
    with pytest.raises(ContractError):
        store.copy_with({"w": tt.parameter(np.ones(3))})
    out = store.copy_with({"w": tt.parameter(np.zeros((2, 2)))})
    assert out["w"].data.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert store["w"].data.tolist() == [[1.0, 1.0], [1.0, 1.0]]  # original untouched


def test_param_store_iterates_sorted():
    store = ParamStore(
        {"b": tt.parameter(np.ones(1)), "a": tt.parameter(np.ones(1)), "c": tt.parameter(np.ones(1))}
    )
    assert store.names() == ["a", "b", "c"]
    assert [name for name, _ in store.items()] == ["a", "b", "c"]


# --- recompute ------------------------------------------------------------------


def _outer_products(leaves, coords):
    """Every entry x[i] * y[j] of an outer product, or those at coords, each a
    sum of squares so the entries have nonlinear gradients."""
    x, y = leaves
    if coords is not None:
        x, y = tt.take_rows(x, coords[0]), tt.take_rows(y, coords[1])
        return tt.sum(tt.square(tt.mul(x, y)), axis=-1)
    return tt.sum(tt.square(tt.mul(tt.reshape(x, (x.shape[0], 1, x.shape[1])), y)), axis=-1)


def test_recompute_values_and_gradients_equal_one_full_tape():
    rng = np.random.default_rng(11)
    store = _store(x=rng.normal(size=(4, 3)), y=rng.normal(size=(5, 3)))
    weights = np.zeros((4, 5))
    weights[[0, 2, 3, 3], [1, 1, 0, 4]] = [1.0, -2.0, 0.5, 3.0]  # the loss reads four entries
    asked = []

    def entries(leaves, coords):
        asked.append(coords)
        return _outer_products(leaves, coords)

    inputs = [store["x"], store["y"]]
    node = tt.recompute(inputs, entries)
    full = _outer_products(inputs, None)
    assert np.array_equal(node.data, full.data)
    produced = backward(tt.sum(tt.sum(tt.mul(node, weights), axis=1)), store)
    expected = backward(tt.sum(tt.sum(tt.mul(full, weights), axis=1)), store)
    for name in ("x", "y"):
        np.testing.assert_allclose(produced[name].data, expected[name].data, rtol=1e-14, atol=0)
    assert asked[0] is None and [c.tolist() for c in asked[1]] == [[0, 2, 3, 3], [1, 1, 0, 4]]


def test_recompute_gives_an_input_its_entries_do_not_read_no_gradient():
    # both inputs come through a node of their own, and the entries read
    # the first alone: the second's node never runs its backward, and its
    # parameter gets exact zeros from backward
    store = _store(x=np.full((2, 3), 2.0), y=np.ones((2, 3)))
    inputs, ran = [tt.mul(store["x"], 3.0), tt.mul(store["y"], 3.0)], []
    for name, node in zip("xy", inputs):
        node._backward = lambda g, name=name, fn=node._backward: ran.append(name) or fn(g)

    def entries(leaves, coords):
        return tt.square(leaves[0] if coords is None else tt.take_rows(leaves[0], coords))

    grads = backward(tt.sum(tt.sum(tt.recompute(inputs, entries), axis=1)), store)
    assert ran == ["x"]
    assert grads["x"].data.tolist() == [[36.0] * 3] * 2  # d/dx of (3x)^2 at x = 2
    assert grads["y"].data.tobytes() == np.zeros((2, 3)).tobytes()
    assert grads["y"].data.flags.c_contiguous and not grads["y"].data.flags.writeable


def test_recompute_backward_tapes_its_entries_inside_no_grad():
    store = _store(x=np.ones((2, 3)), y=np.full((2, 3), 2.0))
    loss = tt.sum(tt.sum(tt.recompute([store["x"], store["y"]], _outer_products), axis=1))
    with tt.no_grad():
        grads = backward(loss, store)
    assert grads["x"].data.tolist() == [[16.0] * 3] * 2  # d/dx of sum_j (x y_j)^2 over two y rows


# --- two jobs at once -------------------------------------------------------------


@pytest.fixture(params=[False, True], ids=["sequential", "concurrent"])
def concurrent(request, monkeypatch):
    """The decision to run two jobs on two threads, forced one way."""
    monkeypatch.setattr(tt, "_concurrent", lambda nbytes: request.param)
    return request.param


def test_run_jobs_runs_the_second_job_on_the_worker_when_concurrent(concurrent):
    def name():
        return threading.current_thread().name

    here, there = tt.run_jobs(name, name, 0)
    assert here == name() and (there.startswith("itmatch-worker") if concurrent else there == here)


def test_run_jobs_raises_the_first_error_with_no_job_left_running(concurrent):
    # one after the other, a failed first job ends the call; concurrently,
    # the call waits for the worker's job before it raises
    finished = []

    def slow(tag):
        def job():
            time.sleep(0.05)
            finished.append(tag)
        return job

    def fail(tag):
        def job():
            raise ValueError(tag)
        return job

    with pytest.raises(ValueError, match="caller"):
        tt.run_jobs(fail("caller"), slow("worker"), 0)
    assert finished == (["worker"] if concurrent else [])
    with pytest.raises(ValueError, match="worker"):
        tt.run_jobs(slow("caller"), fail("worker"), 0)
    assert finished[-1] == "caller"
    with pytest.raises(ValueError, match="caller"):
        tt.run_jobs(fail("caller"), fail("worker"), 0)


def test_two_threads_only_for_large_jobs_on_two_cpus_with_one_blas_thread(monkeypatch):
    # the decision reads the BLAS thread variables as they were when the
    # module loaded, the values BLAS itself read; the environment of now
    # changes nothing
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "2")
    monkeypatch.setattr(tt, "_BLAS_THREADS", ("1", "1", "1"))
    monkeypatch.setattr(tt.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert tt._concurrent(tt.CONCURRENT_BYTES)
    assert not tt._concurrent(tt.CONCURRENT_BYTES - 1)
    for i in range(3):
        for value in (None, "2"):  # unset, or two threads
            monkeypatch.setattr(tt, "_BLAS_THREADS", ("1",) * i + (value,) + ("1",) * (2 - i))
            assert not tt._concurrent(tt.CONCURRENT_BYTES), (i, value)
    monkeypatch.setattr(tt, "_BLAS_THREADS", ("1", "1", "1"))
    monkeypatch.setattr(tt.os, "sched_getaffinity", lambda pid: {1})
    assert not tt._concurrent(tt.CONCURRENT_BYTES)


def test_the_blas_thread_variables_are_read_when_the_module_loads():
    # a fresh interpreter with the variables set before numpy loads, as
    # perfbench sets them; setting them after the import changes nothing
    code = (
        "import os\n"
        "for var in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):\n"
        "    os.environ[var] = '1'\n"
        "from itmatch import tensor\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '2'\n"
        "print(tensor._BLAS_THREADS)\n"
    )
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(tt.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "('1', '1', '1')"


def test_gru_directions_give_the_same_bits_on_one_or_two_threads(monkeypatch):
    # at h = 384 a hidden weight, 1.125 MiB, is past CONCURRENT_BYTES
    rng = np.random.default_rng(34)
    h, e, lengths = 384, 6, [3, 5]
    x = rng.normal(size=(2, 5, e))
    x[0, 3:] = 0.0
    shapes = [(h, e)] * 3 + [(h, h)] * 3 + [(h,)] * 3
    store = _store(x=x, **{
        f"{side}{k}": rng.normal(scale=h ** -0.5, size=shape) for side in "fb" for k, shape in enumerate(shapes)
    })
    fwd, bwd = ([store[f"{side}{k}"] for k in range(9)] for side in "fb")
    probe = rng.normal(size=(2, 5, h))
    pool, submitted = tt._worker(), []
    counting = SimpleNamespace(submit=lambda job: submitted.append(job) or pool.submit(job))
    monkeypatch.setattr(tt, "_worker", lambda: counting)
    runs = []
    for on in (False, True):
        monkeypatch.setattr(tt, "_concurrent", lambda nbytes, on=on: on and nbytes >= tt.CONCURRENT_BYTES)
        out = tt.gru_sequence(store["x"], lengths, fwd, bwd)
        grads = backward(tt.sum(tt.mul(out, probe)), store)
        runs.append([out.data.tobytes()] + [grads[name].data.tobytes() for name in store.names()])
    assert len(submitted) == 2  # the concurrent run's forward and backward pass
    assert runs[0] == runs[1]
    # the node is the mean of the two directions, computed as (f + b) * 0.5
    f, _ = tt._gru_direction(x, np.array(lengths), fwd, False, False)
    b, _ = tt._gru_direction(x, np.array(lengths), bwd, True, False)
    assert runs[0][0] == ((f + b) * 0.5).tobytes()
