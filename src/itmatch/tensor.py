"""Dense float64 tensors with reverse-mode automatic differentiation.

The operation graph is kept as parent links plus one backward closure per
node and is rebuilt on every forward evaluation; nothing is retained
between evaluations.  ``backward`` replays the graph once in reverse
topological order and returns a gradient for every named parameter.
``finite_diff_grad`` is the independent central-difference oracle used to
verify the tape; it never touches the graph machinery.

Binary operations follow numpy broadcasting with one restriction: the
second operand never has more axes than the first, so the first operand
fixes the rank of the result.  A second operand that is a number, a
numpy array or a Tensor without gradient is a constant: it never becomes
a node of the graph.  Shapes that do not broadcast raise
:class:`DimensionError`.  The binary ops and ``matmul`` compute no
gradient for an operand that carries none.  The batched
ops (``matmul``, ``transpose``, ``softmax_rows``, ``conv2d_3x3``) work on
the last one or two axes and carry any leading axes along, so a whole
stack of matrices is one tape node; ``conv2d_3x3`` and a ``matmul``
against one shared matrix fold the stack into rows, so each is one to
three BLAS products however many matrices it holds.  ``inv_norm`` keeps
the axis it reduces, so scaling by it is a broadcast ``mul``.
``take_rows``, the one gather, takes entries by their coordinates along
the leading axes.  ``gru_sequence`` runs a bidirectional GRU over a padded
batch of sequences as one node with a hand-written backward pass, its
directions the two jobs of ``run_jobs``, on one thread or two.
``recompute`` tapes again, in its backward pass, only the entries that
get a nonzero gradient.
All storage is 64-bit floats and result arrays are frozen (read-only) on
creation, so tensors behave as immutable values.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections.abc import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError

Array = np.ndarray

# inv_norm maps norms at or below this to 0: two vectors this close
# count as coincident, and a vector this short has no direction
INV_GUARD = 1e-12

_grad_enabled = True


@contextlib.contextmanager
def _grad_mode(enabled: bool):
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = enabled
    try:
        yield
    finally:
        _grad_enabled = previous


def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    return _grad_mode(False)


class Tensor:
    """Immutable dense float64 array, optionally tracked for autodiff.

    The constructor takes `data` over without copying it when it already is
    float64, and freezes it in place: no writable view of it may be used
    afterwards.  Only ``_record`` gives a tensor parents and a backward
    function, which makes it a tape node.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple[Tensor, ...] = (),
        backward: Callable[[Array], tuple] | None = None,
    ):
        data = np.asarray(data, dtype=np.float64)
        data.flags.writeable = False
        self.data = data
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

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
    return Tensor(np.array(values, dtype=np.float64))


def parameter(values) -> Tensor:
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True)


# --- graph plumbing ---------------------------------------------------------


def _tracking(parents: Sequence[Tensor]) -> bool:
    if not _grad_enabled:
        return False
    for parent in parents:
        if parent.requires_grad:
            return True
    return False


def _record(data, parents: tuple[Tensor, ...], backward: Callable[[Array], tuple]) -> Tensor:
    """An op's result: a tape node when grad mode is on and a parent carries
    gradient, otherwise a constant."""
    if _tracking(parents):
        return Tensor(data, True, parents, backward)
    return Tensor(data)


def _grads(parents: tuple[Tensor, ...], grad_a: Callable[[], Array], grad_b: Callable[[], Array]) -> tuple:
    """The gradients of a binary op's one or two parents, each computed only
    for a parent that carries gradient; the others get None, which
    ``backward`` skips."""
    ga = grad_a() if parents[0].requires_grad else None
    if len(parents) == 1:
        return (ga,)
    return ga, (grad_b() if parents[1].requires_grad else None)


def _binary_operand(a: Tensor, b) -> tuple[Array | float, tuple[Tensor, ...]]:
    """Validate the broadcast rule; return b's value and the op's parents.

    b joins the parents only as a Tensor that carries gradient; a number,
    an array or an untracked Tensor is a constant.
    """
    if isinstance(b, (int, float)):
        return float(b), (a,)
    if isinstance(b, Tensor):
        b_val, parents = b.data, ((a, b) if b.requires_grad else (a,))
    elif isinstance(b, np.ndarray):
        b_val, parents = np.asarray(b, dtype=np.float64), (a,)
    else:
        raise ContractError(f"expected Tensor, number or array, got {type(b).__name__}")
    if b_val.shape == a.data.shape:
        return b_val, parents
    if b_val.ndim <= a.data.ndim:
        try:
            np.broadcast_shapes(a.data.shape, b_val.shape)
            return b_val, parents
        except ValueError:
            pass
    raise DimensionError(
        f"shapes {a.data.shape} and {b_val.shape} do not broadcast with the "
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
    b_val, parents = _binary_operand(a, b)

    def backward_fn(g):
        return _grads(parents, lambda: _unbroadcast(g, a.data.shape), lambda: _unbroadcast(g, b.data.shape))
    return _record(a.data + b_val, parents, backward_fn)


def sub(a: Tensor, b) -> Tensor:
    b_val, parents = _binary_operand(a, b)

    def backward_fn(g):
        return _grads(parents, lambda: _unbroadcast(g, a.data.shape), lambda: -_unbroadcast(g, b.data.shape))
    return _record(a.data - b_val, parents, backward_fn)


def mul(a: Tensor, b) -> Tensor:
    b_val, parents = _binary_operand(a, b)

    def backward_fn(g):
        return _grads(
            parents,
            lambda: _unbroadcast(g * b_val, a.data.shape),
            lambda: _unbroadcast(g * a.data, b.data.shape),
        )
    return _record(a.data * b_val, parents, backward_fn)


# --- elementwise unary ops --------------------------------------------------


def square(a: Tensor) -> Tensor:
    out = a.data * a.data

    def backward_fn(g):
        return (2.0 * a.data * g,)
    return _record(out, (a,), backward_fn)


def _sigmoid_values(x: Array) -> Array:
    # exp(-|x|) never overflows: 1 / (1 + t) at x >= 0, t / (1 + t) below
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, t) / (1.0 + t)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_values(a.data)

    def backward_fn(g):
        return (out * (1.0 - out) * g,)
    return _record(out, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def backward_fn(g):
        return (g * (a.data > 0.0),)
    return _record(out, (a,), backward_fn)


# --- reductions ---------------------------------------------------------------


def _check_axis(a: Tensor, axis) -> None:
    if axis is None:
        return
    if not isinstance(axis, int) or not -a.data.ndim <= axis < a.data.ndim:
        raise DimensionError(f"axis {axis!r} invalid for shape {a.data.shape}")


def sum(a: Tensor, axis: int | None = None) -> Tensor:  # noqa: A001 - mirrors numpy naming
    _check_axis(a, axis)
    out = np.sum(a.data, axis=axis)

    def backward_fn(g):
        return (np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.data.shape),)
    return _record(out, (a,), backward_fn)


def inv_norm(a: Tensor, axis: int) -> Tensor:
    """1 / ||a|| over one axis, kept with length 1, and 0 where the norm is
    at or below INV_GUARD.

    The guard makes normalisations well defined on degenerate inputs (zero
    vectors); guarded slices also get zero gradient.
    """
    _check_axis(a, axis)
    norm = np.sqrt(np.sum(a.data * a.data, axis=axis, keepdims=True))
    kept = norm > INV_GUARD
    out = np.where(kept, 1.0 / np.where(kept, norm, 1.0), 0.0)

    def backward_fn(g):
        return (-a.data * (g * out * out * out),)
    return _record(out, (a,), backward_fn)


# --- structural ops -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product under numpy's matmul rules: a 1-D right operand is a
    vector, and the leading axes of stacked operands broadcast against each
    other.  The left operand is at least 2-D."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim == 0:
        raise DimensionError(f"matmul cannot multiply {ad.shape} by {bd.shape}")
    inner = bd.shape[0] if bd.ndim == 1 else bd.shape[-2]
    if ad.shape[-1] != inner:
        raise DimensionError(f"matmul inner dimensions disagree: {ad.shape} x {bd.shape}")
    if bd.ndim == 2:
        # a matrix shared by a whole stack: fold the stack into rows, so the
        # product and both gradients are one BLAS call each, not one per matrix
        out = (ad.reshape(-1, inner) @ bd).reshape(ad.shape[:-1] + bd.shape[-1:])
    else:
        try:
            out = np.matmul(ad, bd)
        except ValueError:
            raise DimensionError(f"matmul leading axes do not broadcast: {ad.shape} x {bd.shape}") from None
    parents = (a, b)

    def backward_fn(g):
        if bd.ndim == 1:
            return _grads(parents, lambda: g[..., None] * bd, lambda: np.tensordot(g, ad, axes=g.ndim))
        if bd.ndim == 2:
            rows, g_rows = ad.reshape(-1, inner), g.reshape(-1, g.shape[-1])
            return _grads(parents, lambda: (g_rows @ bd.T).reshape(ad.shape), lambda: rows.T @ g_rows)
        return _grads(
            parents,
            lambda: _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape),
            lambda: _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape),
        )
    return _record(out, parents, backward_fn)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise DimensionError(f"transpose needs a matrix, got shape {a.data.shape}")
    out = np.swapaxes(a.data, -1, -2)

    def backward_fn(g):
        return (np.swapaxes(g, -1, -2),)
    return _record(out, (a,), backward_fn)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Same entries in a new shape of equal size."""
    shape = tuple(shape)
    if int(np.prod(shape)) != a.data.size:
        raise DimensionError(f"cannot reshape {a.data.shape} to {shape}")
    out = a.data.reshape(shape)
    original = a.data.shape

    def backward_fn(g):
        return (g.reshape(original),)
    return _record(out, (a,), backward_fn)


def take_rows(a: Tensor, index) -> Tensor:
    """Gather ``a.data[index]``: one integer array indexing the first axis, or
    a tuple of integer arrays, one per leading axis, that broadcast against
    each other.  The result is their broadcast shape followed by a's
    remaining axes; repeated coordinates accumulate gradient."""
    idx = tuple(np.asarray(i, dtype=np.intp) for i in (index if isinstance(index, tuple) else (index,)))
    try:
        empty = not idx or 0 in np.broadcast_shapes(*(i.shape for i in idx))
    except ValueError:
        raise DimensionError(f"take_rows index arrays {[i.shape for i in idx]} do not broadcast") from None
    if empty or len(idx) > a.data.ndim:
        raise DimensionError(f"take_rows needs 1 to {a.data.ndim} non-empty index arrays for shape {a.data.shape}")
    if any(np.any(i < 0) or np.any(i >= n) for i, n in zip(idx, a.data.shape)):
        raise DimensionError(f"take_rows index out of range for shape {a.data.shape}")
    out = a.data[idx]

    def backward_fn(g):
        grad = np.zeros(a.data.shape)
        np.add.at(grad, idx, g)
        return (grad,)
    return _record(out, (a,), backward_fn)


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

    def backward_fn(g):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        return (out * (g - dot),)
    return _record(out, (a,), backward_fn)


def conv2d_3x3(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """3x3 cross-correlation of each matrix in a (..., h, w) stack, zero
    padded, so the output shape equals the input's.

    The stack is folded into rows and multiplied by each column block u of
    a (w, 3w) band, which applies kernel row u along each row.  Blocks 0
    and 2 are added one row down and one row up, with the row that would
    cross a matrix's border zeroed, so no padded copy is built and no two
    matrices mix.
    """
    if x.data.ndim < 2:
        raise DimensionError(f"conv2d_3x3 input must be a matrix, got {x.data.shape}")
    if kernel.data.shape != (3, 3):
        raise DimensionError(f"conv2d_3x3 kernel must be (3, 3), got {kernel.data.shape}")
    if bias.data.shape != ():
        raise DimensionError(f"conv2d_3x3 bias must be a scalar, got {bias.data.shape}")
    shape, w = x.data.shape, x.data.shape[-1]
    # band[i, u, j] = kernel[u, v] where input column i = j + v - 1
    diagonals = np.stack([np.eye(w, k=1 - v) for v in range(3)])
    band = np.einsum("uv,vij->iuj", kernel.data, diagonals).reshape(w, 3 * w)
    rows = x.data.reshape(-1, w)
    out = rows @ band[:, w:2 * w] + float(bias.data)
    # output row p adds block 0 of row p - 1 and block 2 of row p + 1
    above = (rows @ band[:, :w]).reshape(-1, shape[-2], w)
    above[:, -1] = 0.0
    out.reshape(-1)[w:] += above.reshape(-1)[:-w]
    below = (rows @ band[:, 2 * w:]).reshape(-1, shape[-2], w)
    below[:, 0] = 0.0
    out.reshape(-1)[:-w] += below.reshape(-1)[w:]

    def backward_fn(g):
        # block u of output row p read input row p + u - 1
        g_blocks = np.zeros(shape[:-1] + (3, w))
        g_blocks[..., :-1, 0, :] = g[..., 1:, :]
        g_blocks[..., 1, :] = g
        g_blocks[..., 1:, 2, :] = g[..., :-1, :]
        g_rows = g_blocks.reshape(-1, 3 * w)
        g_band = (rows.T @ g_rows).reshape(w, 3, w)
        return (
            (g_rows @ band.T).reshape(shape),
            np.tensordot(g_band, diagonals, axes=([0, 2], [1, 2])),
            np.asarray(np.sum(g)),
        )
    return _record(out.reshape(shape), (x, kernel, bias), backward_fn)


# --- two jobs at once ---------------------------------------------------------

# two jobs run on two threads only when they stream at least this many
# bytes: smaller ones are interpreter work, and two threads of that contend
# for the interpreter lock
CONCURRENT_BYTES = 1 << 20
# the BLAS thread variables, read once: BLAS read them once, as numpy loaded
_BLAS_THREADS = tuple(os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))


def _concurrent(nbytes: int) -> bool:
    """Whether two jobs of `nbytes` run on two threads: only with two CPUs
    allowed and BLAS pinned to one thread, as more BLAS threads already
    keep the other core busy."""
    return (
        nbytes >= CONCURRENT_BYTES
        and _BLAS_THREADS == ("1", "1", "1")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


@functools.cache
def _worker():
    """The one worker thread, started on first use; importing this module starts none."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="itmatch-worker")


# a forked child has no worker thread, so it starts its own
os.register_at_fork(after_in_child=_worker.cache_clear)


def run_jobs(first: Callable[[], object], second: Callable[[], object], nbytes: int) -> tuple:
    """Both jobs' results, `second` on the worker thread while this thread
    runs `first` when ``_concurrent(nbytes)``, else one after the other.
    No job is still running when this returns or raises, and an error of
    `first` wins over one of `second`.  Jobs must not share what they
    write, nor call ``run_jobs``: the one worker would wait on itself."""
    if not _concurrent(nbytes):
        return first(), second()
    later = _worker().submit(second)
    try:
        result = first()
    finally:
        later.exception()  # waits for the worker's job, whatever `first` did
    return result, later.result()


# OpenBLAS runs a product of m * n * k at most this on its small-matrix kernel, which
# reads the weight once; past it, it packs the whole weight first, at about half the speed
SMALL_PRODUCT = 100 ** 3


def _block_width(n: int, h: int) -> int:
    """The block width of n-row products against an (h, h) weight: the largest
    divisor of h of at least 64 with n * width * h within SMALL_PRODUCT, else h."""
    return max((w for w in range(64, h + 1) if h % w == 0 and n * w * h <= SMALL_PRODUCT), default=h)


def _hidden_stacks(n: int, us: Sequence[Array]) -> tuple[Callable[[Array], Array], list[Array], list[Array]]:
    """A function from an (..., n, h) array to its (..., blocks, n, width) view
    of column blocks, and per (h, h) weight two views of its row blocks: (blocks,
    h, width) transposed, so ``s @ u.T`` is one matmul call into a split output,
    and (blocks, width, h), whose partial products from a split ``d`` sum to ``d @ u``."""
    h = us[0].shape[0]
    width = _block_width(n, h)
    rows = [u.reshape(-1, width, h) for u in us]  # block j: u[j*width:(j+1)*width]
    return (lambda a: a.reshape(*a.shape[:-1], -1, width).swapaxes(-3, -2)), [r.swapaxes(1, 2) for r in rows], rows


def _gru_direction(x: Array, lengths: Array, gates: tuple[Tensor, ...], reverse: bool, tracking: bool):
    """One GRU direction's (n, T, h) states, and with `tracking` its backward
    function: their gradient -> (d_x, nine gate gradients).  Each hidden-state
    product is one matmul call over blocks of its weight (``_hidden_stacks``)."""
    n, steps, e = x.shape
    w_gates, u_gates, b_gates = ([g.data for g in gates[i:i + 3]] for i in (0, 3, 6))
    h = u_gates[0].shape[0]
    split, ahead, back = _hidden_stacks(n, u_gates)

    # gate-major input projections of every position, proj[k] for gate k,
    # one product per gate against its own weight, so no weight is concatenated
    proj = np.empty((3, n * steps, h))
    for k in range(3):
        np.matmul(x.reshape(-1, e), w_gates[k].T, out=proj[k])
        proj[k] += b_gates[k]
    proj = proj.reshape(3, n, steps, h)
    active = (np.arange(steps) < lengths[:, None])[..., None]  # (n, T, 1)
    order = range(int(lengths.max()))
    if reverse:
        order = order[::-1]
    if tracking:
        # per position: the incoming state, sigmoid(reset), sigmoid(update)
        # (gate-major), the candidate and reset * state; untouched
        # positions stay zero
        prev, cand_all, rs_all = (np.zeros((n, steps, h)) for _ in range(3))
        rz_all = np.zeros((2, n, steps, h))
    out = np.zeros((n, steps, h))
    state = np.zeros((n, h))
    pre = np.empty((3, n, h))  # the three gates' pre-activations of one position
    pre_blocks = split(pre)
    for t in order:
        np.matmul(state, ahead[0], out=pre_blocks[0])
        np.matmul(state, ahead[1], out=pre_blocks[1])
        pre[:2] += proj[:2, :, t]
        rz = _sigmoid_values(pre[:2])
        rs = rz[0] * state
        np.matmul(rs, ahead[2], out=pre_blocks[2])
        cand = np.tanh(pre[2] + proj[2, :, t])
        new = state + rz[1] * (cand - state)
        if tracking:
            prev[:, t], rz_all[:, :, t], cand_all[:, t], rs_all[:, t] = state, rz, cand, rs
        out[:, t] = np.where(active[:, t], new, 0.0)
        state = np.where(active[:, t], new, state)
    if not tracking:
        return out, None

    def backward_fn(g):
        d_pre = np.zeros((3, n, steps, h))  # gradient of the three pre-activations
        d_state = np.zeros((n, h))
        d_gates, d_rs, d_hidden = np.empty((3, n, h)), np.empty((n, h)), np.empty((n, h))
        d_rz, d_cand, d_blocks = d_gates[:2], d_gates[2], split(d_gates)
        parts = np.empty((2, len(back[0]), n, h))  # each block's partial product, then their sum
        for t in order[::-1]:
            # a frozen sequence passes d_state through; its output is a constant 0
            d_new = np.where(active[:, t], d_state + g[:, t], 0.0)
            rz, cand, state = rz_all[:, :, t], cand_all[:, t], prev[:, t]
            update = rz[1]
            np.multiply(d_new, update, out=d_cand)
            d_cand *= 1.0 - cand * cand
            np.add.reduce(np.matmul(d_blocks[2], back[2], out=parts[0]), axis=0, out=d_rs)
            np.multiply(d_rs, state, out=d_rz[0])
            np.multiply(d_new, cand - state, out=d_rz[1])
            d_rz *= rz * (1.0 - rz)
            d_pre[:, :, t] = d_gates
            np.matmul(d_blocks[0], back[0], out=parts[0])
            np.matmul(d_blocks[1], back[1], out=parts[1])
            np.add.reduce(parts.reshape(-1, n, h), axis=0, out=d_hidden)
            d_prev = d_new * (1.0 - update) + d_rs * rz[0] + d_hidden
            d_state = np.where(active[:, t], d_prev, d_state)
        flat = d_pre.reshape(3, -1, h)
        d_x = flat[0] @ w_gates[0]
        for k in (1, 2):
            d_x += flat[k] @ w_gates[k]
        d_w = np.matmul(flat.transpose(0, 2, 1), x.reshape(-1, e))
        d_u = np.matmul(flat[:2].transpose(0, 2, 1), prev.reshape(-1, h))
        d_b = flat.sum(axis=1)
        return (
            d_x.reshape(n, steps, e),
            d_w[0], d_w[1], d_w[2],
            d_u[0], d_u[1], flat[2].T @ rs_all.reshape(-1, h),
            d_b[0], d_b[1], d_b[2],
        )
    return out, backward_fn


def gru_sequence(x: Tensor, lengths, fwd: Sequence[Tensor], bwd: Sequence[Tensor]) -> Tensor:
    """A bidirectional GRU over a zero-padded batch of sequences, as one node.

    x: (n, T, e) inputs, sequence i in positions 0..lengths[i]-1.  fwd and
    bwd: each direction's w_reset, w_update, w_cand (h, e), u_reset,
    u_update, u_cand (h, h), b_reset, b_update, b_cand (h,).  From a zero
    state each position runs

        r = sigmoid(W_r x + U_r s + b_r),  z = sigmoid(W_z x + U_z s + b_z)
        s' = s + z * (tanh(W_c x + U_c (r * s) + b_c) - s)

    visiting positions 0..T-1 with `fwd` and T-1..0 with `bwd`.  A
    sequence's state is frozen at every position past its length, so the
    backward direction starts from zero at each sequence's own last
    element.  Returns the (n, T, h) mean (f + b) * 0.5 of the two
    directions' states, zero at padded positions.

    Each gate's input projections for every position are one product
    against that gate's own weight, and each hidden-state product one call
    over blocks of its weight; the backward pass is hand-written
    BPTT, and each weight and bias gradient is one product or sum over all
    positions.  The two directions are two jobs of ``run_jobs``, in both
    passes, sized by one hidden weight.
    """
    fwd, bwd = tuple(fwd), tuple(bwd)
    if x.data.ndim != 3 or len(fwd) != 9 or len(bwd) != 9:
        raise DimensionError(f"gru_sequence needs (n, T, e) inputs and nine gates a direction, got {x.data.shape}")
    n, steps, e = x.data.shape
    h = fwd[3].data.shape[0]
    for gate, shape in zip(fwd + bwd, ([(h, e)] * 3 + [(h, h)] * 3 + [(h,)] * 3) * 2):
        if gate.data.shape != shape:
            raise DimensionError(f"gru_sequence gate shape {gate.data.shape}, expected {shape}")
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (n,) or np.any(lengths < 1) or np.any(lengths > steps):
        raise DimensionError(f"need {n} sequence lengths in 1..{steps}, got {lengths.tolist()}")
    parents = (x, *fwd, *bwd)
    tracking = _tracking(parents)
    nbytes = fwd[3].data.nbytes
    (f, f_back), (b, b_back) = run_jobs(
        lambda: _gru_direction(x.data, lengths, fwd, False, tracking),
        lambda: _gru_direction(x.data, lengths, bwd, True, tracking), nbytes)

    def backward_fn(g):
        half = g * 0.5
        d_f, d_b = run_jobs(lambda: f_back(half), lambda: b_back(half), nbytes)
        return (d_f[0] + d_b[0], *d_f[1:], *d_b[1:])
    return _record((f + b) * 0.5, parents, backward_fn)


def recompute(inputs: Sequence[Tensor], entries: Callable[[list[Tensor], tuple | None], Tensor]) -> Tensor:
    """Every entry ``entries(inputs, None)`` gives, computed with no tape, as
    one node.  Its backward pass tapes ``entries(leaves, coords)``, which
    gives just the entries at the ``np.nonzero`` coordinates of the incoming
    gradient, in order, from fresh leaves of the inputs; with no such entry
    it builds no tape.  An input they do not read gets None, not zeros."""
    with no_grad():
        out = entries(list(inputs), None).data

    def backward_fn(g):
        coords = np.nonzero(g)
        leaves = [Tensor(x.data, True) if x.requires_grad else x for x in inputs]
        grads = {}
        if coords[0].size:
            with _grad_mode(True):
                picked = entries(leaves, coords)
            grads = _walk(picked, g[coords].reshape(picked.data.shape))
        return tuple(grads.get(id(x)) for x in leaves)
    return _record(out, tuple(inputs), backward_fn)


# --- parameter store ----------------------------------------------------------


class ParamStore:
    """Named parameter tensors with deterministic lexicographic iteration."""

    def __init__(self, entries: dict[str, Tensor]):
        for name, tensor in entries.items():
            if not isinstance(tensor, Tensor) or not tensor.requires_grad:
                raise ContractError(f"parameter {name!r} must be a Tensor with requires_grad")
        self._entries = dict(entries)

    def __getitem__(self, name: str) -> Tensor:
        if name not in self._entries:
            raise ContractError(f"unknown parameter {name!r}")
        return self._entries[name]

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(name, self._entries[name]) for name in self.names()]

    def copy_with(self, updates: dict[str, Tensor]) -> "ParamStore":
        for name in updates:
            if name not in self._entries:
                raise ContractError(f"unknown parameter {name!r} in update")
        out = ParamStore({**self._entries, **updates})
        for name in updates:
            old, new = self._entries[name].data.shape, out._entries[name].data.shape
            if new != old:
                raise ContractError(f"replacement for {name!r} changes shape {old} -> {new}")
        return out


# --- reverse-mode differentiation ---------------------------------------------


def _walk(root: Tensor, seed: Array) -> dict[int, Array]:
    """Gradients of ``sum(seed * root)`` by leaf id: the graph replayed in reverse topological
    order.  A None contribution is skipped, so a node that only None reaches never runs its backward."""
    # iterative post-order DFS; creation order alone is not available here
    topo: list[Tensor] = []
    visited: set[int] = set()
    work: list[tuple[Tensor, bool]] = [(root, False)]
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

    grads: dict[int, Array] = {id(root): seed}
    # a first contribution is stored as handed over, and it may be another
    # node's gradient (add passes one array to both parents); the second
    # allocates a buffer this loop owns, and later ones add into it in place
    owned: set[int] = set()
    for node in reversed(topo):
        if node._backward is None:
            continue  # leaf: its entry must survive for collection
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in owned:
                grads[key] += pg
            elif key in grads:
                grads[key] = grads[key] + pg
                owned.add(key)
            else:
                grads[key] = pg
    return grads


def backward(loss: Tensor, params: ParamStore) -> dict[str, Tensor]:
    """Gradient of a scalar loss for every parameter in the store.

    Parameters the walk does not reach get zero gradients, views of one
    shared zero buffer.  Each gradient is a read-only constant.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    grads = _walk(loss, np.ones(()))
    # nothing touches the walk's buffers again, so each is frozen and handed over,
    # not copied; the unreached share one zero buffer, so a step reaching few allocates little
    zeros = np.zeros(max((t.data.size for _, t in params.items() if id(t) not in grads), default=0))
    out: dict[str, Tensor] = {}
    for name, tensor in params.items():
        g = grads.get(id(tensor))
        out[name] = Tensor(zeros[:tensor.data.size].reshape(tensor.data.shape) if g is None else g)
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
