"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation graph is kept as parent links plus one backward closure per
node and is rebuilt on every forward evaluation; nothing is retained
between evaluations.  ``backward`` replays the graph once in reverse
topological order and returns a gradient for every named parameter.
``finite_diff_grad`` is the independent central-difference oracle used to
verify the tape; it never touches the graph machinery.

Binary operations follow numpy broadcasting with one restriction: the
second operand never has more axes than the first, so the first operand
fixes the rank of the result.  A plain Python number is a constant.
Shapes that do not broadcast raise :class:`DimensionError`.  The batched
ops (``matmul``, ``transpose``, ``scale_rows``, ``softmax_rows``,
``conv2d_3x3``, ``pick_rows``) work on the last one or two axes and carry
any leading axes along, so a whole stack of matrices is one tape node.
``gru_sequence`` runs one GRU direction over a padded batch of sequences
as a single node with a hand-written backward pass.
All storage is 64-bit floats and result arrays are frozen (read-only) on
creation, so tensors behave as immutable values.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError

Array = np.ndarray

# safe_inv maps magnitudes at or below this to 0: two vectors this close
# count as coincident, and a vector this short has no direction
INV_GUARD = 1e-12

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """Immutable dense float64 array, optionally tracked for autodiff."""

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        data = np.array(values, dtype=np.float64)
        data.flags.writeable = False
        self.data = data
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.shape != ():
            raise ContractError(f"item() needs a scalar tensor, got shape {self.data.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


# --- graph plumbing ---------------------------------------------------------


def adopt(data, requires_grad: bool = False) -> Tensor:
    """Wrap a float64 array as a Tensor without copying it.

    The array is frozen in place, so the caller hands it over: no writable
    view of it may be used afterwards.
    """
    out = Tensor.__new__(Tensor)
    arr = np.asarray(data, dtype=np.float64)
    arr.flags.writeable = False
    out.data = arr
    out.requires_grad = requires_grad
    out._parents = ()
    out._backward = None
    return out


def _result(data, parents: tuple[Tensor, ...] = (), backward=None) -> Tensor:
    out = adopt(data, requires_grad=backward is not None)
    if backward is not None:
        out._parents = parents
        out._backward = backward
    return out


def _tracking(*operands) -> bool:
    if not _grad_enabled:
        return False
    for op in operands:
        if isinstance(op, Tensor) and op.requires_grad:
            return True
    return False


def _binary_operand(a: Tensor, b):
    """Validate the broadcast rule and return b's raw value."""
    if isinstance(b, (int, float)):
        return float(b)
    if not isinstance(b, Tensor):
        raise ContractError(f"expected Tensor or number, got {type(b).__name__}")
    if a.data.shape == b.data.shape:
        return b.data
    if b.data.ndim <= a.data.ndim:
        try:
            np.broadcast_shapes(a.data.shape, b.data.shape)
            return b.data
        except ValueError:
            pass
    raise DimensionError(
        f"shapes {a.data.shape} and {b.data.shape} do not broadcast with the "
        "second operand having no more axes than the first"
    )


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the axes that broadcasting added or stretched."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1
    )
    return np.sum(g, axis=axes).reshape(shape)


# --- elementwise binary ops -------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b_val = _binary_operand(a, b)
    out = a.data + b_val
    if not _tracking(a, b):
        return _result(out)
    if isinstance(b, Tensor):
        def backward_fn(g):
            return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))
        return _result(out, (a, b), backward_fn)

    def backward_fn(g):
        return (g,)
    return _result(out, (a,), backward_fn)


def sub(a: Tensor, b) -> Tensor:
    b_val = _binary_operand(a, b)
    out = a.data - b_val
    if not _tracking(a, b):
        return _result(out)
    if isinstance(b, Tensor):
        def backward_fn(g):
            return (_unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape))
        return _result(out, (a, b), backward_fn)

    def backward_fn(g):
        return (g,)
    return _result(out, (a,), backward_fn)


def mul(a: Tensor, b) -> Tensor:
    b_val = _binary_operand(a, b)
    out = a.data * b_val
    if not _tracking(a, b):
        return _result(out)
    if isinstance(b, Tensor):
        def backward_fn(g):
            return (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape))
        return _result(out, (a, b), backward_fn)

    def backward_fn(g):
        return (g * b_val,)
    return _result(out, (a,), backward_fn)


# --- elementwise unary ops --------------------------------------------------


def square(a: Tensor) -> Tensor:
    out = a.data * a.data
    if not _tracking(a):
        return _result(out)

    def backward_fn(g):
        return (2.0 * a.data * g,)
    return _result(out, (a,), backward_fn)


def _sigmoid_values(x: Array) -> Array:
    # exp(-|x|) never overflows; both branches share it
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_values(a.data)
    if not _tracking(a):
        return _result(out)

    def backward_fn(g):
        return (out * (1.0 - out) * g,)
    return _result(out, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    if not _tracking(a):
        return _result(out)

    def backward_fn(g):
        return (g * (a.data > 0.0),)
    return _result(out, (a,), backward_fn)


# --- reductions ---------------------------------------------------------------


def _check_axis(a: Tensor, axis) -> None:
    if axis is None:
        return
    if not isinstance(axis, int) or not -a.data.ndim <= axis < a.data.ndim:
        raise DimensionError(f"axis {axis!r} invalid for shape {a.data.shape}")


def _expand_reduced(g, shape: tuple[int, ...], axis) -> Array:
    g = np.asarray(g)
    if axis is None:
        return np.broadcast_to(g, shape)
    return np.broadcast_to(np.expand_dims(g, axis), shape)


def sum(a: Tensor, axis: int | None = None) -> Tensor:  # noqa: A001 - mirrors numpy naming
    _check_axis(a, axis)
    out = np.sum(a.data, axis=axis)
    if not _tracking(a):
        return _result(out)
    shape = a.data.shape

    def backward_fn(g):
        return (_expand_reduced(g, shape, axis),)
    return _result(out, (a,), backward_fn)


def mean(a: Tensor, axis: int) -> Tensor:
    _check_axis(a, axis)
    out = np.mean(a.data, axis=axis)
    if not _tracking(a):
        return _result(out)
    shape = a.data.shape
    count = shape[axis]

    def backward_fn(g):
        return (_expand_reduced(np.asarray(g) / count, shape, axis),)
    return _result(out, (a,), backward_fn)


def amax(a: Tensor, axis: int) -> Tensor:
    """Maximum over one axis; ties route the gradient to the lowest index."""
    _check_axis(a, axis)
    out = np.max(a.data, axis=axis)
    if not _tracking(a):
        return _result(out)
    shape = a.data.shape

    def backward_fn(g):
        grad = np.zeros(shape)
        idx = np.argmax(a.data, axis=axis)
        np.put_along_axis(
            grad,
            np.expand_dims(idx, axis),
            np.expand_dims(np.asarray(g), axis),
            axis,
        )
        return (grad,)
    return _result(out, (a,), backward_fn)


def l2norm(a: Tensor, axis: int | None = None) -> Tensor:
    _check_axis(a, axis)
    out = np.sqrt(np.sum(a.data * a.data, axis=axis))
    if not _tracking(a):
        return _result(out)
    shape = a.data.shape
    out_arr = np.asarray(out)

    def backward_fn(g):
        # a zero slice has zero gradient here (its entries are all zero);
        # the substituted denominator only avoids 0/0
        denom = np.where(out_arr == 0.0, 1.0, out_arr)
        return (a.data * _expand_reduced(np.asarray(g) / denom, shape, axis),)
    return _result(out, (a,), backward_fn)


# --- structural ops -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product under numpy's matmul rules: 1-D operands are vectors,
    and the leading axes of stacked operands broadcast against each other.
    A 1-D left operand takes a 1-D or 2-D right operand only."""
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0 or (ad.ndim == 1 and bd.ndim > 2):
        raise DimensionError(f"matmul cannot multiply {ad.shape} by {bd.shape}")
    inner = bd.shape[0] if bd.ndim == 1 else bd.shape[-2]
    if ad.shape[-1] != inner:
        raise DimensionError(f"matmul inner dimensions disagree: {ad.shape} x {bd.shape}")
    try:
        out = np.matmul(ad, bd)
    except ValueError:
        raise DimensionError(f"matmul leading axes do not broadcast: {ad.shape} x {bd.shape}") from None
    if not _tracking(a, b):
        return _result(out)

    def backward_fn(g):
        if bd.ndim == 1:
            if ad.ndim == 1:
                return (g * bd, g * ad)
            gb = ad.T @ g if ad.ndim == 2 else np.tensordot(g, ad, axes=g.ndim)
            return (g[..., None] * bd, gb)
        if ad.ndim == 1:
            return (bd @ g, np.outer(ad, g))
        if bd.ndim == 2:
            # a matrix shared by a whole stack: fold the stack into rows, so
            # its gradient is one product, not a per-matrix one summed after
            rows = ad.reshape(-1, ad.shape[-1])
            return (g @ bd.T, rows.T @ g.reshape(rows.shape[0], -1))
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        return (_unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape))
    return _result(out, (a, b), backward_fn)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise DimensionError(f"transpose needs a matrix, got shape {a.data.shape}")
    out = np.swapaxes(a.data, -1, -2)
    if not _tracking(a):
        return _result(out)

    def backward_fn(g):
        return (np.swapaxes(g, -1, -2),)
    return _result(out, (a,), backward_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Same entries in a new shape of equal size."""
    shape = tuple(shape)
    if int(np.prod(shape)) != a.data.size:
        raise DimensionError(f"cannot reshape {a.data.shape} to {shape}")
    out = a.data.reshape(shape)
    if not _tracking(a):
        return _result(out)
    original = a.data.shape

    def backward_fn(g):
        return (g.reshape(original),)
    return _result(out, (a,), backward_fn)


def take_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather matrix rows; repeated indices accumulate gradient."""
    if a.data.ndim != 2:
        raise DimensionError(f"take_rows needs a matrix, got shape {a.data.shape}")
    idx = np.asarray(list(indices), dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise DimensionError("take_rows needs a non-empty 1-D index list")
    n = a.data.shape[0]
    if np.any(idx < 0) or np.any(idx >= n):
        raise DimensionError(f"take_rows index out of range for {n} rows")
    out = a.data[idx]
    if not _tracking(a):
        return _result(out)
    shape = a.data.shape

    def backward_fn(g):
        grad = np.zeros(shape)
        np.add.at(grad, idx, g)
        return (grad,)
    return _result(out, (a,), backward_fn)


def vstack(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the second-to-last axis.

    A part with one axis fewer than the others counts as a single row, so
    vectors stack as rows of a matrix and (..., m) stacks join (..., r, m)
    ones.  Every other axis must agree.
    """
    parts = tuple(parts)
    if not parts:
        raise DimensionError("vstack needs at least one tensor")
    ndim = max(2, max(p.data.ndim for p in parts))
    blocks = []
    for p in parts:
        if p.data.ndim not in (ndim - 1, ndim):
            raise DimensionError(f"vstack parts must have {ndim - 1} or {ndim} axes, got {p.data.shape}")
        blocks.append(p.data if p.data.ndim == ndim else p.data[..., None, :])
        if blocks[-1].shape[:-2] + blocks[-1].shape[-1:] != blocks[0].shape[:-2] + blocks[0].shape[-1:]:
            raise DimensionError(f"vstack shape mismatch: {blocks[0].shape} vs {p.data.shape}")
    out = np.concatenate(blocks, axis=-2)
    if not _tracking(*parts):
        return _result(out)
    row_counts = [b.shape[-2] for b in blocks]

    def backward_fn(g):
        grads = []
        offset = 0
        for p, rows in zip(parts, row_counts):
            chunk = g[..., offset:offset + rows, :]
            grads.append(chunk if p.data.ndim == ndim else chunk[..., 0, :])
            offset += rows
        return tuple(grads)
    return _result(out, parts, backward_fn)


def pick_rows(a: Tensor, index) -> Tensor:
    """Row index[...] of each matrix in a stack: (..., n, m) -> (..., m).

    `index` is an integer array that broadcasts against the leading axes.
    """
    if a.data.ndim < 2:
        raise DimensionError(f"pick_rows needs a stack of matrices, got shape {a.data.shape}")
    try:
        idx = np.broadcast_to(np.asarray(index, dtype=np.intp), a.data.shape[:-2])
    except ValueError:
        raise DimensionError(f"row index does not broadcast over {a.data.shape[:-2]}") from None
    n = a.data.shape[-2]
    if np.any(idx < 0) or np.any(idx >= n):
        raise DimensionError(f"pick_rows index out of range for {n} rows")
    sel = idx[..., None, None]
    out = np.take_along_axis(a.data, sel, axis=-2)[..., 0, :]
    if not _tracking(a):
        return _result(out)
    shape = a.data.shape

    def backward_fn(g):
        grad = np.zeros(shape)
        np.put_along_axis(grad, sel, g[..., None, :], axis=-2)
        return (grad,)
    return _result(out, (a,), backward_fn)


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Multiply each row a[..., i, :] by the scalar s[..., i]."""
    if a.data.ndim < 2 or s.data.shape != a.data.shape[:-1]:
        raise DimensionError(
            f"scale_rows needs (..., n, d) and (..., n), got {a.data.shape} and {s.data.shape}"
        )
    out = a.data * s.data[..., None]
    if not _tracking(a, s):
        return _result(out)

    def backward_fn(g):
        return (g * s.data[..., None], np.sum(g * a.data, axis=-1))
    return _result(out, (a, s), backward_fn)


def safe_inv(a: Tensor) -> Tensor:
    """Elementwise reciprocal with entries of magnitude <= INV_GUARD mapped to 0.

    The guard makes downstream normalisations well defined on degenerate
    inputs (zero vectors); guarded entries also get zero gradient.
    """
    mask = np.abs(a.data) > INV_GUARD
    safe = np.where(mask, a.data, 1.0)
    out = np.where(mask, 1.0 / safe, 0.0)
    if not _tracking(a):
        return _result(out)

    def backward_fn(g):
        return (-g * out * out,)
    return _result(out, (a,), backward_fn)


def softmax_rows(a: Tensor, mask=None) -> Tensor:
    """Softmax over the last axis, stable under large magnitudes (max shift).

    `mask` (boolean, broadcasting to a's shape) keeps the True entries; the
    others get weight 0 and no gradient.  Every row needs one True entry.
    """
    if a.data.ndim < 1:
        raise DimensionError("softmax_rows needs at least one axis")
    x = a.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim > x.ndim or any(m not in (1, n) for m, n in zip(mask.shape[::-1], x.shape[::-1])):
            raise DimensionError(f"softmax mask {mask.shape} does not broadcast to {x.shape}")
        x = np.where(mask, x, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    if not _tracking(a):
        return _result(out)

    def backward_fn(g):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        return (out * (g - dot),)
    return _result(out, (a,), backward_fn)


def _shifted(h: int, w: int, u: int, v: int) -> tuple[tuple, tuple]:
    """Slices pairing output entry (p, q) with input entry (p + u - 1, q + v - 1),
    restricted to the entries where both lie inside an (h, w) matrix."""
    du, dv = u - 1, v - 1
    out = (..., slice(max(0, -du), h - max(0, du)), slice(max(0, -dv), w - max(0, dv)))
    inp = (..., slice(max(0, du), h + min(0, du)), slice(max(0, dv), w + min(0, dv)))
    return out, inp


_KERNEL_TAPS = [(u, v) for u in range(3) for v in range(3)]


def conv2d_3x3(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """3x3 cross-correlation of each matrix in a (..., h, w) stack, zero
    padded, so the output shape equals the input's.

    Each kernel tap adds a shifted slice of the input; a tap never reads
    past the border, so no padded copy is built.
    """
    if x.data.ndim < 2:
        raise DimensionError(f"conv2d_3x3 input must be a matrix, got {x.data.shape}")
    if kernel.data.shape != (3, 3):
        raise DimensionError(f"conv2d_3x3 kernel must be (3, 3), got {kernel.data.shape}")
    if bias.data.shape != ():
        raise DimensionError(f"conv2d_3x3 bias must be a scalar, got {bias.data.shape}")
    h, w = x.data.shape[-2:]
    taps = [(u, v, *_shifted(h, w, u, v)) for u, v in _KERNEL_TAPS]
    out = np.full(x.data.shape, float(bias.data))
    for u, v, o, i in taps:
        out[o] += kernel.data[u, v] * x.data[i]
    if not _tracking(x, kernel, bias):
        return _result(out)

    def backward_fn(g):
        gx = np.zeros(x.data.shape)
        gk = np.empty((3, 3))
        for u, v, o, i in taps:
            gx[i] += kernel.data[u, v] * g[o]
            gk[u, v] = np.sum(g[o] * x.data[i])
        return (gx, gk, np.asarray(np.sum(g)))
    return _result(out, (x, kernel, bias), backward_fn)


def gru_sequence(x: Tensor, lengths, gates: Sequence[Tensor], reverse: bool = False) -> Tensor:
    """One GRU direction over a zero-padded batch of sequences, as one node.

    x: (n, T, e) inputs, sequence i in positions 0..lengths[i]-1.  gates:
    w_reset, w_update, w_cand (h, e), u_reset, u_update, u_cand (h, h),
    b_reset, b_update, b_cand (h,).  From a zero state each position runs

        r = sigmoid(W_r x + U_r s + b_r),  z = sigmoid(W_z x + U_z s + b_z)
        s' = s + z * (tanh(W_c x + U_c (r * s) + b_c) - s)

    visiting positions 0..T-1, or T-1..0 with `reverse`.  A sequence's
    state is frozen at every position past its length, so a reverse pass
    starts from zero at each sequence's own last element.  Returns the
    (n, T, h) states, zero at padded positions.

    Each gate's input projections for every position are one product
    against that gate's own weight; the backward pass is hand-written
    BPTT, and each weight and bias gradient is one product or sum over all
    positions.
    """
    gates = tuple(gates)
    if x.data.ndim != 3 or len(gates) != 9:
        raise DimensionError(f"gru_sequence needs (n, T, e) inputs and nine gate tensors, got {x.data.shape}")
    n, steps, e = x.data.shape
    h = gates[3].data.shape[0]
    for gate, shape in zip(gates, [(h, e)] * 3 + [(h, h)] * 3 + [(h,)] * 3):
        if gate.data.shape != shape:
            raise DimensionError(f"gru_sequence gate shape {gate.data.shape}, expected {shape}")
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (n,) or np.any(lengths < 1) or np.any(lengths > steps):
        raise DimensionError(f"need {n} sequence lengths in 1..{steps}, got {lengths.tolist()}")
    w_gates, u_gates, b_gates = ([g.data for g in gates[i:i + 3]] for i in (0, 3, 6))
    u_reset, u_update, u_cand = u_gates

    # gate-major input projections of every position, proj[k] for gate k,
    # one product per gate against its own weight, so no weight is concatenated
    proj = np.empty((3, n * steps, h))
    for k in range(3):
        np.matmul(x.data.reshape(-1, e), w_gates[k].T, out=proj[k])
        proj[k] += b_gates[k]
    proj = proj.reshape(3, n, steps, h)
    active = (np.arange(steps) < lengths[:, None])[..., None]  # (n, T, 1)
    order = range(int(lengths.max()))
    if reverse:
        order = order[::-1]
    tracking = _tracking(x, *gates)
    if tracking:
        # per position: the incoming state, sigmoid(reset), sigmoid(update)
        # (gate-major), the candidate and reset * state; untouched
        # positions stay zero
        prev, cand_all, rs_all = (np.zeros((n, steps, h)) for _ in range(3))
        rz_all = np.zeros((2, n, steps, h))
    out = np.zeros((n, steps, h))
    state = np.zeros((n, h))
    pre = np.empty((2, n, h))  # reset and update pre-activations of one position
    for t in order:
        np.matmul(state, u_reset.T, out=pre[0])
        np.matmul(state, u_update.T, out=pre[1])
        pre += proj[:2, :, t]
        rz = _sigmoid_values(pre)
        rs = rz[0] * state
        cand = np.tanh(proj[2, :, t] + rs @ u_cand.T)
        new = state + rz[1] * (cand - state)
        if tracking:
            prev[:, t], rz_all[:, :, t], cand_all[:, t], rs_all[:, t] = state, rz, cand, rs
        out[:, t] = np.where(active[:, t], new, 0.0)
        state = np.where(active[:, t], new, state)
    if not tracking:
        return _result(out)

    def backward_fn(g):
        d_pre = np.zeros((3, n, steps, h))  # gradient of the three pre-activations
        d_state = np.zeros((n, h))
        d_rz, d_hidden, d_part = np.empty((2, n, h)), np.empty((n, h)), np.empty((n, h))
        for t in order[::-1]:
            # a frozen sequence passes d_state through; its output is a constant 0
            d_new = np.where(active[:, t], d_state + g[:, t], 0.0)
            rz, cand, state = rz_all[:, :, t], cand_all[:, t], prev[:, t]
            update = rz[1]
            d_cand = d_new * update * (1.0 - cand * cand)
            d_rs = d_cand @ u_cand
            np.multiply(d_rs, state, out=d_rz[0])
            np.multiply(d_new, cand - state, out=d_rz[1])
            d_rz *= rz * (1.0 - rz)
            d_pre[:2, :, t] = d_rz
            d_pre[2, :, t] = d_cand
            np.matmul(d_rz[0], u_reset, out=d_hidden)
            d_hidden += np.matmul(d_rz[1], u_update, out=d_part)
            d_prev = d_new * (1.0 - update) + d_rs * rz[0] + d_hidden
            d_state = np.where(active[:, t], d_prev, d_state)
        flat = d_pre.reshape(3, -1, h)
        d_x = flat[0] @ w_gates[0]
        for k in (1, 2):
            d_x += flat[k] @ w_gates[k]
        d_w = np.matmul(flat.transpose(0, 2, 1), x.data.reshape(-1, e))
        d_u = np.matmul(flat[:2].transpose(0, 2, 1), prev.reshape(-1, h))
        d_b = flat.sum(axis=1)
        return (
            d_x.reshape(n, steps, e),
            d_w[0], d_w[1], d_w[2],
            d_u[0], d_u[1], flat[2].T @ rs_all.reshape(-1, h),
            d_b[0], d_b[1], d_b[2],
        )
    return _result(out, (x, *gates), backward_fn)


# --- parameter store ----------------------------------------------------------


class ParamStore:
    """Named parameter tensors with deterministic lexicographic iteration."""

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> None:
        if name in self._entries:
            raise ContractError(f"parameter {name!r} already registered")
        if not isinstance(tensor, Tensor) or not tensor.requires_grad:
            raise ContractError(f"parameter {name!r} must be a Tensor with requires_grad")
        self._entries[name] = tensor

    def __getitem__(self, name: str) -> Tensor:
        if name not in self._entries:
            raise ContractError(f"unknown parameter {name!r}")
        return self._entries[name]

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(name, self._entries[name]) for name in self.names()]

    def copy_with(self, updates: dict[str, Tensor] | None = None) -> "ParamStore":
        updates = updates or {}
        for name in updates:
            if name not in self._entries:
                raise ContractError(f"unknown parameter {name!r} in update")
        out = ParamStore()
        for name, tensor in self._entries.items():
            replacement = updates.get(name, tensor)
            if not isinstance(replacement, Tensor) or not replacement.requires_grad:
                raise ContractError(f"replacement for {name!r} must require grad")
            if replacement.data.shape != tensor.data.shape:
                raise ContractError(
                    f"replacement for {name!r} changes shape "
                    f"{tensor.data.shape} -> {replacement.data.shape}"
                )
            out._entries[name] = replacement
        return out

    @classmethod
    def from_dict(cls, entries: dict[str, Tensor]) -> "ParamStore":
        store = cls()
        for name in sorted(entries):
            store.add(name, entries[name])
        return store


# --- reverse-mode differentiation ---------------------------------------------


def backward(loss: Tensor, params: ParamStore) -> dict[str, Tensor]:
    """Gradient of a scalar loss for every parameter in the store.

    Parameters that do not appear in the loss graph get zero gradients.
    Each gradient is a read-only constant.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")

    # iterative post-order DFS; creation order alone is not available here
    topo: list[Tensor] = []
    visited: set[int] = set()
    work: list[tuple[Tensor, bool]] = [(loss, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        work.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                work.append((parent, False))

    grads: dict[int, Array] = {id(loss): np.ones(())}
    # a first contribution is stored as handed over, and it may be another
    # node's gradient (add passes one array to both parents); the second
    # allocates a buffer this loop owns, and later ones add into it in place
    owned: set[int] = set()
    for node in reversed(topo):
        if node._backward is None:
            continue  # leaf: its entry must survive for collection below
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None:
                continue
            if not parent.requires_grad:
                continue
            key = id(parent)
            if key in owned:
                grads[key] += pg
            elif key in grads:
                grads[key] = grads[key] + pg
                owned.add(key)
            else:
                grads[key] = pg

    # nothing reads or writes the buffers after this loop, so each gradient
    # is frozen and handed over as it is, not copied
    out: dict[str, Tensor] = {}
    for name, tensor in params.items():
        g = grads.get(id(tensor))
        out[name] = adopt(np.zeros(tensor.data.shape) if g is None else g)
    return out


def finite_diff_grad(
    f: Callable[[ParamStore], float],
    params: ParamStore,
    epsilon: float = 1e-5,
) -> dict[str, Tensor]:
    """Central-difference gradient of f at params, tape-free.

    Runs two evaluations of f per parameter coordinate, so keep the
    configuration tiny.  This is the oracle `backward` is verified
    against; it must stay independent of the graph machinery.
    """
    if not 0.0 < epsilon < np.inf:  # NaN fails both comparisons
        raise ConfigError(f"finite_diff_grad epsilon must be finite and positive, got {epsilon}")
    out: dict[str, Tensor] = {}
    with no_grad():
        for name in params.names():
            base = params[name].data
            grad = np.zeros(base.shape)
            flat_grad = grad.ravel()
            flat_base = base.ravel()
            for i in range(base.size):
                plus = flat_base.copy()
                plus[i] += epsilon
                minus = flat_base.copy()
                minus[i] -= epsilon
                f_plus = float(f(params.copy_with({name: parameter(plus.reshape(base.shape))})))
                f_minus = float(f(params.copy_with({name: parameter(minus.reshape(base.shape))})))
                flat_grad[i] = (f_plus - f_minus) / (2.0 * epsilon)
            out[name] = constant(grad)
    return out
