"""Dense float64 arrays, a reverse-mode differentiation tape, and the small
neural building blocks (MLP, gated normalization head) the rest of the
package composes.

Values live in :class:`Tensor`, a thin wrapper over a C-contiguous float64
numpy array. Operations are plain functions. While a :class:`Tape` is
active (``with Tape() as tape:``) every operation appends a node recording
its inputs, the closure that computed its output (``Tape.replay`` runs it
again), and a closure that maps an output gradient to input gradients.
Every operation builds its node through one helper, ``_record``, so its
forward expression is written once. ``backward(tape, loss)`` then runs
reverse accumulation and returns exact gradients for every leaf tensor
reachable from the loss, whether or not it was created with
``trainable=True`` (that flag only labels parameters in a tensor's repr).
``gather_rows`` and ``local_route`` scatter-add their gradients through
:meth:`RowIndex.scatter_add`, over occurrence rounds that a
:class:`RowIndex` builds once for an index that many passes reuse.

Five fused ops stand for op chains and keep only what their backward
needs. Three give the chain's output bytes and gradients: ``linear``
(matmul, bias add, optional ReLU; every MLP layer and the decoder),
``offset_head`` (the offset aggregator's gated residual) and
``mean_sq_dist`` (the training loss). Two walk blocks of rows in both
passes and recompute in backward instead of storing: ``local_route``
(the whole local route, from the displacement encoder through the
neighbour scores and their softmax to the weighted sum of neighbour
rows; it keeps its output, the N x k weights and its last block's layer
outputs, gives the chain's bytes on one block and sums parameter
gradients over blocks otherwise) and ``attention`` (softmax attention in
query-row blocks, with no N x N array: it keeps each row's softmax
statistics and no block, and backward recomputes every block in two
matmuls that fold in the scale, the row max and the softmax row term;
it agrees with its chain to rounding).
The chain ops stay public: the weight-MLP route and the tests use them,
and the benchmark's tracer (``flowbench/tracer.py``) patches them by
name, so a traced run fails with AttributeError if one is removed.
``sub``, ``mul``, ``relu``, ``sqrt``, ``add_const``, ``concat_cols`` and
``gather_rows`` have no other caller in the package.

Computation is float64 throughout: the verification tolerances in the test
suite need the headroom. Tensors are treated as immutable once created,
and every reduction runs in a fixed order, so repeated runs with identical
inputs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

NORM_EPS = 1e-5


class ShapeError(ValueError):
    """Raised when operand shapes do not satisfy an operation's contract."""


class TapeError(RuntimeError):
    """Raised on invalid use of the recording tape."""


class NumericalError(ArithmeticError):
    """Raised when an evaluation produces a non-finite value."""


class Tensor:
    """A float64 array participating in tape recording.

    ``data`` holds the values in row-major order. ``trainable`` labels
    parameters (it shows in the repr; ``backward`` reports every reachable
    leaf either way). Tensors hash and compare by identity. Do not mutate
    ``data`` in place; optimizers rebind it instead.
    """

    __slots__ = ("data", "trainable")

    def __init__(self, data: np.ndarray, trainable: bool = False):
        self.data = data
        self.trainable = trainable

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, trainable={self.trainable})"


def tensor(values, *, trainable: bool = False) -> Tensor:
    """Create a tensor from array-like values, rejecting NaN/Inf."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("tensor values must be finite")
    return Tensor(arr, trainable=trainable)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else tensor(x)


@dataclass
class TapeNode:
    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    forward_fn: Callable[[], np.ndarray]
    backward_fn: Callable[[np.ndarray], tuple]


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Nodes are appended in execution order, so every node's inputs precede
    it. ``replay`` re-executes each recorded forward closure and confirms
    the stored outputs are reproduced bit-exactly.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self.nodes)

    def record(self, op, inputs, output, forward_fn, backward_fn) -> None:
        self.nodes.append(TapeNode(op, tuple(inputs), output, forward_fn, backward_fn))

    def replay(self) -> bool:
        """Recompute every node from its recorded inputs; True iff all
        outputs match the recorded values bit for bit."""
        for node in self.nodes:
            fresh = np.asarray(node.forward_fn())
            if fresh.tobytes() != node.output.data.tobytes():
                return False
        return True


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _record(op: str, inputs: tuple[Tensor, ...], fwd: Callable[[], np.ndarray],
            bwd: Callable[[np.ndarray, np.ndarray], tuple]) -> Tensor:
    """Compute ``y = fwd()`` and wrap it in a Tensor. While a tape is
    active, append a node whose replay closure is `fwd` itself and whose
    backward maps an output gradient g to ``bwd(g, y)``."""
    y = fwd()
    out = Tensor(y)
    tape = _active_tape()
    if tape is not None:
        tape.record(op, inputs, out, fwd, lambda g: bwd(g, y))
    return out


def _elementwise(op, a: Tensor, b: Tensor, fn, da, db) -> Tensor:
    ad, bd = a.data, b.data
    return _record(op, (a, b), lambda: fn(ad, bd),
                   lambda g, y: (_unbroadcast(da(g, ad, bd), ad.shape),
                                 _unbroadcast(db(g, ad, bd), bd.shape)))


def add(a, b) -> Tensor:
    return _elementwise("add", _as_tensor(a), _as_tensor(b), np.add,
                        lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _elementwise("sub", _as_tensor(a), _as_tensor(b), np.subtract,
                        lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _elementwise("mul", _as_tensor(a), _as_tensor(b), np.multiply,
                        lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _elementwise("div", _as_tensor(a), _as_tensor(b), np.divide,
                        lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def scale(a, c: float) -> Tensor:
    """Multiply by a python-float constant (no gradient for the constant)."""
    a = _as_tensor(a)
    ad, c = a.data, float(c)
    return _record("scale", (a,), lambda: ad * c, lambda g, y: (g * c,))


def add_const(a, c: float) -> Tensor:
    a = _as_tensor(a)
    ad, c = a.data, float(c)
    return _record("add_const", (a,), lambda: ad + c, lambda g, y: (g,))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    return _record("relu", (a,), lambda: np.maximum(ad, 0.0),
                   lambda g, y: (g * (ad > 0.0),))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    return _record("sqrt", (a,), lambda: np.sqrt(ad), lambda g, y: (g * 0.5 / y,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def softplus(a) -> Tensor:
    """log(1 + exp(x)), overflow-safe; strictly positive output."""
    a = _as_tensor(a)
    ad = a.data
    return _record("softplus", (a,), lambda: np.logaddexp(0.0, ad),
                   lambda g, y: (g * _sigmoid(ad),))


def matmul(a, b) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")
    return _record("matmul", (a, b), lambda: ad @ bd, lambda g, y: (g @ bd.T, ad.T @ g))


def linear(x, w, b, relu: bool = False) -> Tensor:
    """x @ w + b, then ReLU when `relu` is set, as one tape node:
    ``relu(add(matmul(x, w), b))`` (or ``add(matmul(x, w), b)``) with the
    same output bytes and gradients. b is a vector of w's output width.

    The node keeps only its output y; backward reads the ReLU mask from
    ``y > 0``, which holds exactly where the pre-activation is > 0 (also
    for -0.0 and NaN). Its inputs are recorded as (b, x, w), the order in
    which the chain's backward reaches them, so a tensor passed twice sums
    its gradients in the chain's order.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xd, wd, bd = x.data, w.data, b.data
    if (xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]
            or bd.shape != (wd.shape[1],)):
        raise ShapeError(f"linear: incompatible shapes x {xd.shape}, w {wd.shape}, "
                         f"b {bd.shape}")

    return _record("linear", (b, x, w), lambda: _affine(xd, wd, bd, relu),
                   lambda g, y: _affine_grads(g, xd, y, wd, relu))


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """x @ w + b in one fresh buffer, then ReLU in place when `relu` is set:
    every affine layer of a fused node (:func:`linear`, the layers of
    :func:`local_route` but the score's first, the linear map of
    :func:`offset_head`)."""
    y = x @ w
    y += b
    if relu:
        np.maximum(y, 0.0, out=y)
    return y


def _affine_grads(g: np.ndarray, x: np.ndarray, y: np.ndarray, w: np.ndarray, relu: bool,
                  dx: bool = True) -> tuple:
    """(bias, x, w) gradients of ``y = _affine(x, w, b, relu)`` for the
    output gradient g, with the ReLU mask read from ``y > 0`` (y is read
    only when `relu` is set); the x gradient is None unless `dx` is set."""
    if relu:
        g = g * (y > 0.0)
    return g.sum(axis=0), g @ w.T if dx else None, x.T @ g


def transpose2(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    if ad.ndim != 2:
        raise ShapeError(f"transpose2 expects rank 2, got shape {ad.shape}")
    return _record("transpose2", (a,), lambda: np.ascontiguousarray(ad.T),
                   lambda g, y: (np.ascontiguousarray(g.T),))


def reshape(a, shape: Sequence[int]) -> Tensor:
    """The same values under a new shape of equal size.

    The output aliases its input: for a contiguous input (every tensor
    here) its data is a view of the input's data, not a copy. An in-place
    change to the input therefore shows in both, and ``Tape.replay``
    cannot see it through this node. It is left a view on purpose: the
    weight-MLP route reshapes an N x N array, which a copy would double.
    """
    a = _as_tensor(a)
    ad = a.data
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != ad.size:
        raise ShapeError(f"reshape: cannot view {ad.shape} as {shape}")
    return _record("reshape", (a,), lambda: np.ascontiguousarray(ad.reshape(shape)),
                   lambda g, y: (g.reshape(ad.shape),))


def reduce_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    ad = a.data

    def bwd(g, y):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, ad.shape).copy(),)
    return _record("reduce_sum", (a,), lambda: ad.sum(axis=axis, keepdims=keepdims), bwd)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate rank-2 tensors along columns."""
    parts = tuple(_as_tensor(p) for p in parts)
    datas = [p.data for p in parts]
    rows = {d.shape[0] for d in datas}
    if any(d.ndim != 2 for d in datas) or len(rows) != 1:
        raise ShapeError(f"concat_cols: incompatible shapes {[d.shape for d in datas]}")
    cuts = np.cumsum([d.shape[1] for d in datas])[:-1]
    return _record("concat_cols", parts, lambda: np.concatenate(datas, axis=1),
                   lambda g, y: tuple(np.ascontiguousarray(gp)
                                      for gp in np.split(g, cuts, axis=1)))


# Elements of one block: attention's weights (query rows x keys), a
# local_route block's widest array (neighbour rows x widest width) or a
# scatter chunk's gradient rows. While they set the block (M up to 2040
# for attention), every per-block array stays below 1 MiB, glibc malloc's
# mmap threshold when pinned there, so blocks reuse heap memory.
BLOCK_ELEMS = (1 << 17) - 512


class RowIndex:
    """A flat row index for :func:`gather_rows` and :func:`local_route`
    together with the occurrence rounds of its scatter-add, built once.

    ``flat`` is a read-only flattened copy of the index. Round r lists the
    r-th occurrence of every row that occurs more than r times: its
    positions in ``flat`` are ``positions[a:b]`` and their rows
    ``targets[a:b]``, with a and b consecutive entries of ``[0, *ends]``.
    Rows are unique within a round.
    """

    __slots__ = ("flat", "positions", "targets", "ends")

    def __init__(self, idx):
        flat = np.array(idx, dtype=np.int64).ravel()
        flat.flags.writeable = False
        # Stable sort by row, so each row's positions ascend; a position's
        # round is its rank among the positions of its row.
        order = np.argsort(flat, kind="stable")
        rows = flat[order]
        at = np.arange(rows.size)
        starts = np.ones(rows.size, dtype=bool)
        starts[1:] = rows[1:] != rows[:-1]
        rank = at - np.maximum.accumulate(np.where(starts, at, 0))
        by_round = np.argsort(rank, kind="stable")
        self.flat = flat
        self.positions, self.targets = order[by_round], rows[by_round]
        self.ends = np.cumsum(np.bincount(rank)).tolist()

    def scatter_add(self, n_rows: int, width: int,
                    rows_at: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """n_rows x width zeros plus gradient row i added to row ``flat[i]``
        for every position i, where ``rows_at(pos)`` forms the gradient rows
        of positions `pos`. It walks the rounds in order, in chunks of at
        most ``BLOCK_ELEMS // width`` positions cut at round ends, so every
        row sums in position order: ``np.add.at``'s bytes, ±0.0 included."""
        acc = np.zeros((n_rows, width))
        step, start = max(1, BLOCK_ELEMS // max(1, width)), 0
        for end in self.ends:
            for a in range(start, end, step):
                b = min(a + step, end)
                acc[self.targets[a:b]] += rows_at(self.positions[a:b])
            start = end
        return acc


def _row_index(op: str, idx, n_rows: int) -> RowIndex:
    """`idx` as a RowIndex (passed through when it is one), checked
    against a source of `n_rows` rows."""
    rows = idx if isinstance(idx, RowIndex) else RowIndex(idx)
    if rows.flat.size and (rows.flat.min() < 0 or rows.flat.max() >= n_rows):
        raise ShapeError(f"{op}: index out of range for {n_rows} rows")
    return rows


def gather_rows(a, idx) -> Tensor:
    """Select rows of a rank-2 tensor by integer index: a :class:`RowIndex`,
    or anything else, which becomes ``RowIndex(idx)`` on entry.

    Backward passes g's rows to :meth:`RowIndex.scatter_add`, which adds
    them round by round in chunks of at most one block of rows: every row
    sums its gradient rows in index order, the order of ``np.add.at``,
    with the same bytes (±0.0 included).
    """
    a = _as_tensor(a)
    ad = a.data
    if ad.ndim != 2:
        raise ShapeError(f"gather_rows expects rank 2, got shape {ad.shape}")
    rows = _row_index("gather_rows", idx, ad.shape[0])
    return _record("gather_rows", (a,), lambda: ad[rows.flat],
                   lambda g, y: (rows.scatter_add(*ad.shape, lambda pos: g[pos]),))


def _exp_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write exp(w - rowmax) over `w`; return (rowmax, rowsum), each row's
    max of the input and sum of the exponentials, as column vectors. The
    kernel of every row softmax here, attention's included."""
    rowmax = w.max(axis=1, keepdims=True)
    w -= rowmax
    np.exp(w, out=w)
    return rowmax, w.sum(axis=1, keepdims=True)


def _softmax_rows_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(g - rowsum(g * w)) * w as a fresh array; `g` is left untouched,
    since ``add``'s backward hands one gradient array to both inputs."""
    out = g * w
    inner = out.sum(axis=1, keepdims=True)
    np.subtract(g, inner, out=out)
    out *= w
    return out


def softmax_rows(m) -> Tensor:
    """Row-wise softmax of a rank-2 tensor, max-shifted for stability.

    Every output row is non-negative and sums to 1.
    """
    m = _as_tensor(m)
    md = m.data
    if md.ndim != 2:
        raise ShapeError(f"softmax_rows expects rank 2, got shape {md.shape}")

    def fwd():
        w = md.copy()
        w /= _exp_rows(w)[1]
        return w
    return _record("softmax_rows", (m,), fwd, lambda g, w: (_softmax_rows_grad(g, w),))


def _check_attention(op: str, qd: np.ndarray, kd: np.ndarray, vd: np.ndarray | None = None):
    if (qd.ndim != 2 or kd.ndim != 2 or qd.shape[1] != kd.shape[1]
            or not (qd.shape[0] and kd.shape[0])
            or (vd is not None and (vd.ndim != 2 or vd.shape[0] != kd.shape[0]))):
        shapes = [a.shape for a in (qd, kd, vd) if a is not None]
        raise ShapeError(f"{op}: incompatible shapes {shapes}")


def attention_weights_data(q, k, c: float) -> np.ndarray:
    """The N x M weights of ``attention(q, k, v, c)`` as a plain array,
    E / rowsum over its forward's blocks: each block's rows are the bytes
    of the chain ``softmax_rows(scale(matmul(q, transpose2(k)), c))`` on
    that block's query rows. Records no tape node, also under a tape."""
    qd, kd = _as_tensor(q).data, _as_tensor(k).data
    _check_attention("attention_weights_data", qd, kd)
    w = np.empty((qd.shape[0], kd.shape[0]))
    for _, _, e, _, rowsum in _block_exps(qd, kd, c, out=w):
        e /= rowsum
    return w


# Fewest query rows in a block; it sets the block past M = 2040. Each
# backward block adds M x Dv and D x M partials into dv and dkᵀ.
ATTENTION_MIN_ROWS = 64


def attention_block_rows(n: int, m: int) -> int:
    """Query rows per block of :func:`attention`, in forward and backward
    alike, for n queries over m keys."""
    return min(n, max(ATTENTION_MIN_ROWS, BLOCK_ELEMS // m))


def _block_exps(qd: np.ndarray, kd: np.ndarray, c: float,
                out: np.ndarray | None = None) -> Iterator[tuple]:
    """Per block of :func:`attention`'s query rows r0:r1, yield (r0, r1,
    E, rowmax, rowsum): E = exp(l - rowmax) of the logits l = c · q[r0:r1]
    kᵀ, and each row's max of l and sum of E as column vectors. E is
    written into rows r0:r1 of `out` (N x M) when one is given, else into
    one buffer that the next block reuses."""
    n, m = qd.shape[0], kd.shape[0]
    rows = attention_block_rows(n, m)
    kt = np.ascontiguousarray(kd.T)
    buf = np.empty((rows, m)) if out is None else None
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        e = np.matmul(qd[r0:r1], kt, out=buf[:r1 - r0] if out is None else out[r0:r1])
        e *= c
        yield (r0, r1, e, *_exp_rows(e))


def _folded_exps(qa_rows: np.ndarray, ka: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(qa_rows @ ka) into `out`: one backward block of attention's E."""
    return np.exp(np.matmul(qa_rows, ka, out=out), out=out)


def attention(q, k, v, c: float) -> Tensor:
    """softmax(c · q kᵀ) v as one tape node that never holds the N x M
    weights: ``matmul(softmax_rows(scale(matmul(q, transpose2(k)), c)), v)``
    in O(N + M) memory.

    q is N x D, k is M x D and v is M x Dv; c = 1.0 is the unscaled
    route. Both passes walk the same blocks of query rows
    (:func:`attention_block_rows`). Forward takes each block's shifted
    exponentials E from :func:`_block_exps`, keeps each row's max of the
    logits and sum of E, and writes E @ v into the output rows; one divide
    by the row sums on N x Dv then normalises the output, so no pass
    divides N x M weights. The node keeps q, k, v and the two N x 1 row
    statistics, and no block buffer.

    Backward recomputes every block's E in two buffers of its own. With
    gs = g / rowsum and Dp = rowsum(gs ∘ y), it builds four operands once,
    so that the row terms ride in two block products: E = exp([c·q |
    -rowmax] @ [kᵀ; 1]) and gs vᵀ - Dp = [gs | -Dp] @ [vᵀ; 1]. Their
    product is the logit gradient dS, so dq = c dS k, dv += Eᵀ gs and dkᵀ
    += (c·q)ᵀ dS. This is FlashAttention's recompute (Dao et al. 2022) with
    FlashAttention-2's kept row statistics and row term D = rowsum(dO ∘ O)
    (Dao 2023, arXiv 2307.08691): backward takes no row max or row sum and
    forms no softmax weights.

    Each block's E, rowmax and rowsum are the chain's softmax_rows bytes
    on its query rows; :func:`attention_weights_data` reads those blocks.
    No output row depends on the blocking at the sizes the tests and
    goldens run, and to rounding in general (the BLAS may round a row of
    q kᵀ or E @ v differently at another block height). Output and
    gradients agree with the chain to rounding (about 1e-15 relative);
    over several blocks the k and v gradients are block sums.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    qd, kd, vd = q.data, k.data, v.data
    _check_attention("attention", qd, kd, vd)
    n, m = qd.shape[0], kd.shape[0]
    rows = attention_block_rows(n, m)
    rowmax, rowsum = np.empty((n, 1)), np.empty((n, 1))

    def fwd():
        out = np.empty((n, vd.shape[1]))
        for r0, r1, e, block_max, block_sum in _block_exps(qd, kd, c):
            rowmax[r0:r1], rowsum[r0:r1] = block_max, block_sum
            np.matmul(e, vd, out=out[r0:r1])
        out /= rowsum
        return out

    def bwd(g, y):
        gs = g / rowsum
        qa = np.hstack((qd * c, -rowmax))
        ga = np.hstack((gs, -(gs * y).sum(axis=1, keepdims=True)))
        ka, va = np.vstack((kd.T, np.ones(m))), np.vstack((vd.T, np.ones(m)))
        dq, dkt, dv = np.empty(qd.shape), np.zeros(kd.T.shape), np.zeros(vd.shape)
        kpart, vpart = np.empty_like(dkt), np.empty_like(dv)
        ebuf, dbuf = np.empty((rows, m)), np.empty((rows, m))
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            e = _folded_exps(qa[r0:r1], ka, ebuf[:r1 - r0])
            ds = np.matmul(ga[r0:r1], va, out=dbuf[:r1 - r0])
            ds *= e
            np.matmul(ds, kd, out=dq[r0:r1])
            dv += np.matmul(e.T, gs[r0:r1], out=vpart)
            dkt += np.matmul(qa[r0:r1, :-1].T, ds, out=kpart)
        dq *= c
        return dq, np.ascontiguousarray(dkt.T), dv

    return _record("attention", (q, k, v), fwd, bwd)


# ---------------------------------------------------------------------------
# Neural building blocks


@dataclass
class MlpParams:
    """Weights of a perceptron: ReLU on hidden layers, identity on output.

    ``layers`` is a list of (weight, bias) pairs; weight is Din x Dout and
    bias has shape (Dout,). Consecutive layers must chain (each Din is the
    previous Dout); :func:`linear` raises ShapeError as the stack runs when
    they do not. An empty list is the identity.
    """

    layers: list[tuple[Tensor, Tensor]]

    def named_tensors(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for i, (w, b) in enumerate(self.layers):
            yield f"{prefix}.w{i}", w
            yield f"{prefix}.b{i}", b


def mlp_forward(p: MlpParams, x) -> Tensor:
    """Affine / ReLU chain; the final layer has no activation. Each layer
    is one :func:`linear` node, which tapes only the layer's output."""
    h = x
    last = len(p.layers) - 1
    for i, (w, b) in enumerate(p.layers):
        h = linear(h, w, b, relu=i != last)
    return h


def local_block_points(n: int, k: int, width: int) -> int:
    """Points per block of :func:`local_route`, in forward and backward
    alike, for n points of k neighbours each whose widest per-neighbour-row
    array has `width` columns: as many as keep that array within
    BLOCK_ELEMS elements, and at least one."""
    return min(n, max(1, BLOCK_ELEMS // (k * width)))


def _stack_width(layers: list[tuple[np.ndarray, np.ndarray]], width: int) -> int | None:
    """Output width of a layer stack fed `width` columns, or None when a
    layer's weight or bias does not fit."""
    for w, b in layers:
        if w.ndim != 2 or w.shape[0] != width or b.shape != (w.shape[1],):
            return None
        width = w.shape[1]
    return width


def local_route(encoder: MlpParams, score: MlpParams, disp, context, v,
                rows) -> tuple[Tensor, np.ndarray]:
    """The local route as one tape node: per point, a softmax over the
    scores of its k neighbours, applied to their rows of v.

    context is N x Dc and v is N x Dm; `rows` holds the N·k neighbour rows
    (a :class:`RowIndex`, or anything else, which becomes ``RowIndex(rows)``
    on entry) and disp the N·k x 3 displacements. The scores come from one
    layer stack over the rows of disp, the encoder's layers and then the
    score's, with ReLU on every layer but the encoder's last (the De-wide
    encoding; an empty encoder is the identity, De = 3) and the score's
    last (one score per neighbour). Every layer is :func:`_affine` but the
    score's first, whose input is [encoding, context_j, context_i] for
    neighbour j of point i: its weight ((De + 2Dc) x H) splits by rows
    into W_e, W_j and W_i, so it is ``enc @ W_e + (context @ W_j)[rows] +
    repeat(context @ W_i, k) + b`` and no N·k x (De + 2Dc) input is formed.
    Returns the N x Dm output, recorded as one ``local_route`` node, and
    the N x k softmax weights as a plain array (no node) that every run of
    the node's forward rewrites in place.

    The node stands for the chain ``mlp_forward(encoder, disp)``, the first
    score layer, ``mlp_forward`` over the later score layers,
    ``softmax_rows(reshape(scores, (N, k)))`` and the weighted sum of v's
    neighbour rows. Per block of whole points (:func:`local_block_points`,
    so every per-block array stays below 1 MiB) each pass walks the stack
    once, repeating that chain's numpy expressions in its order. The node
    keeps its output, the weights and the last block's layer outputs;
    backward recomputes every other block. It forms no gradient for the
    constants disp and context. After the block loop it scatters v's
    gradient once (:meth:`RowIndex.scatter_add`) from each position's
    point's row of g times the position's kept weight: the chain's bytes
    whatever the blocking. With one block the output and every gradient
    are the chain's bytes; over several blocks each parameter gradient is
    the sum of the blocks' partials, which agrees with the chain to
    rounding. The inputs are recorded as v, then each layer's (b, w) from
    the stack's last layer to its first: the order in which the chain's
    backward reaches them.
    """
    stack = [(_as_tensor(w), _as_tensor(b)) for w, b in encoder.layers + score.layers]
    v = _as_tensor(v)
    dd, cd, vd = _as_tensor(disp).data, _as_tensor(context).data, v.data
    layers = [(w.data, b.data) for w, b in stack]
    e = len(encoder.layers)
    if (dd.ndim != 2 or cd.ndim != 2 or vd.ndim != 2 or not cd.shape[0]
            or vd.shape[0] != cd.shape[0]):
        raise ShapeError(f"local_route: disp {dd.shape}, context {cd.shape} and values "
                         f"{vd.shape} must be rank 2, with one context and value row per point")
    (n, dc), dm = cd.shape, vd.shape[1]
    rows = _row_index("local_route", rows, n)
    nk, de = rows.flat.size, _stack_width(layers[:e], dd.shape[1])
    if (not nk or nk % n or dd.shape[0] != nk or de is None or e == len(layers)
            or _stack_width(layers[e:], de + 2 * dc) != 1):
        raise ShapeError(
            f"local_route: {nk} neighbour rows for {n} points, disp {dd.shape}, encoder "
            f"{[w.shape for w, _ in layers[:e]]} and score {[w.shape for w, _ in layers[e:]]} "
            f"layers do not chain from the displacement width to (De + 2Dc) to 1")
    k = nk // n
    relu = [i not in (e - 1, len(layers) - 1) for i in range(len(layers))]
    w_e, w_j, w_i = np.split(layers[e][0], (de, de + dc))
    points = local_block_points(n, k, max(dc, dm, *(w.shape[1] for w, _ in layers)))
    starts = range(0, n, points)
    weights = np.empty((n, k))
    kept: list[np.ndarray] = []

    def layer_outputs(p0: int, p1: int, cj: np.ndarray, ci: np.ndarray) -> list:
        """Every layer's output on the neighbour rows of points p0:p1; the
        last one is the scores."""
        x, outs = dd[p0 * k:p1 * k], []
        for i, (w, b) in enumerate(layers):
            if i == e:
                x = x @ w_e
                x += cj[rows.flat[p0 * k:p1 * k]]
                x_by_point = x.reshape(p1 - p0, k, w.shape[1])
                x_by_point += ci[p0:p1, None, :]
                x += b
                if relu[i]:
                    np.maximum(x, 0.0, out=x)
            else:
                x = _affine(x, w, b, relu[i])
            outs.append(x)
        return outs

    def fwd():
        nonlocal kept
        out = np.empty((n, dm))
        cj, ci = cd @ w_j, cd @ w_i
        for p0 in starts:
            p1 = min(p0 + points, n)
            kept = layer_outputs(p0, p1, cj, ci)
            s = weights[p0:p1]
            s[...] = kept[-1].reshape(p1 - p0, k)
            s /= _exp_rows(s)[1]
            picked = vd[rows.flat[p0 * k:p1 * k]].reshape(p1 - p0, k, dm)
            picked *= s[..., None]
            out[p0:p1] = picked.sum(axis=1)
        return out

    def block_grads(g: np.ndarray, p0: int, p1: int, outs: list) -> list:
        """The parameter gradients of points p0:p1's block, in input order
        after v."""
        block = rows.flat[p0 * k:p1 * k]
        picked = vd[block].reshape(p1 - p0, k, dm)
        gs = np.multiply(g[p0:p1, None, :], picked, out=picked).sum(axis=2)
        gh, grads = _softmax_rows_grad(gs, weights[p0:p1]).reshape(block.size, 1), []
        for i in reversed(range(len(layers))):
            x, w = outs[i - 1] if i else dd[p0 * k:p1 * k], layers[i][0]
            if i != e:
                gb, gh, gw = _affine_grads(gh, x, outs[i], w, relu[i], dx=i > 0)
            else:
                if relu[i]:
                    gh = gh * (outs[i] > 0.0)
                gb, gw = gh.sum(axis=0), np.empty_like(w)
                np.matmul(x.T, gh, out=gw[:de])
                np.matmul(cd[block].T, gh, out=gw[de:de + dc])
                np.matmul(cd[p0:p1].T, gh.reshape(p1 - p0, k, -1).sum(axis=1), out=gw[de + dc:])
                if i:
                    gh = gh @ w_e.T
            grads += [gb, gw]
        return grads

    def bwd(g, out):
        cj = ci = total = None
        if len(starts) > 1:
            cj, ci = cd @ w_j, cd @ w_i
        for p0 in starts:
            p1 = min(p0 + points, n)
            outs = kept if p0 == starts[-1] else layer_outputs(p0, p1, cj, ci)
            parts = block_grads(g, p0, p1, outs)
            if total is None:
                total = parts
            else:
                for acc, part in zip(total, parts):
                    acc += part
        flat_weights = weights.ravel()

        def dv_rows(pos: np.ndarray) -> np.ndarray:
            rows_g = g[pos // k]
            rows_g *= flat_weights[pos, None]
            return rows_g
        return (rows.scatter_add(n, dm, dv_rows), *total)

    params = [t for w, b in reversed(stack) for t in (b, w)]
    return _record("local_route", (v, *params), fwd, bwd), weights


@dataclass
class NormActParams:
    """Parameters of the head inside :func:`offset_head`: a linear map,
    per-feature standardization with learnable gain and shift, ReLU."""

    weight: Tensor  # D x D
    bias: Tensor    # (D,)
    gain: Tensor    # (D,) learnable per-feature scale
    shift: Tensor   # (D,) learnable per-feature shift

    def named_tensors(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias
        yield f"{prefix}.gain", self.gain
        yield f"{prefix}.shift", self.shift


def offset_head(p: NormActParams, alpha, y, g) -> Tensor:
    """The gated residual ``y + alpha · head(y - g)`` as one tape node. The
    head is a linear map, then standardization over the rows (mean 0,
    variance 1 per feature, epsilon 1e-5 in the denominator, with
    learnable gain/shift), then ReLU. alpha has shape () or (1,).

    Statistics are recomputed from the given rows every call; nothing is
    carried between calls, so the result is independent of batching. A
    constant feature column standardizes to zeros. Needs at least 2 rows.

    The node stands for the chain ``x = sub(y, g)``, ``z = linear(x,
    weight, bias)``, ``mean = scale(reduce_sum(z, axis=0, keepdims=True),
    1/n)``, ``centered = sub(z, mean)``, ``var = scale(reduce_sum(mul(
    centered, centered), axis=0, keepdims=True), 1/n)``, ``h = relu(add(
    mul(div(centered, sqrt(add_const(var, eps))), gain), shift))``,
    ``add(y, mul(h, alpha))``. Forward and backward repeat that chain's
    numpy expressions in its order, so output and gradients are its bytes;
    z and its gradients are ``linear``'s, :func:`_affine` and
    :func:`_affine_grads`. The two gradient terms that reach `centered` through ``mul`` are added
    to the one from ``div``, the one from ``reduce_sum`` to the one that
    reaches z through ``sub``, and y's from ``sub`` to its own from
    ``add``, in the order ``backward`` sums them. The inputs are recorded
    as (y, alpha, shift, gain, bias, weight, g), the order in which the
    chain's backward reaches them. The node keeps its output, h, the
    centered rows and the per-feature standard deviation; backward forms
    y - g again and reads the ReLU mask from ``h > 0``.
    """
    y, g, alpha, w, b, gain, shift = (
        _as_tensor(t) for t in (y, g, alpha, p.weight, p.bias, p.gain, p.shift))
    yd, gd, ad, wd, bd, gn, sh = (t.data for t in (y, g, alpha, w, b, gain, shift))
    if (yd.ndim != 2 or yd.shape[0] < 2 or gd.shape != yd.shape or ad.shape not in ((), (1,))
            or wd.shape != (yd.shape[1],) * 2
            or not bd.shape == gn.shape == sh.shape == (yd.shape[1],)):
        raise ShapeError(f"offset_head needs y and g of one N x D shape with N >= 2, alpha of "
                         f"shape () or (1,), a D x D weight and D-vectors; got y {yd.shape}, "
                         f"g {gd.shape}, alpha {ad.shape}, weight {wd.shape}, bias "
                         f"{bd.shape}, gain {gn.shape}, shift {sh.shape}")
    c = 1.0 / yd.shape[0]
    h = centered = sd = None

    def fwd():
        nonlocal h, centered, sd
        centered = _affine(yd - gd, wd, bd, False)
        centered -= centered.sum(axis=0, keepdims=True) * c
        sd = np.sqrt((centered * centered).sum(axis=0, keepdims=True) * c + NORM_EPS)
        h = centered / sd
        h *= gn
        h += sh
        np.maximum(h, 0.0, out=h)
        return yd + h * ad

    def bwd(go, out):
        g_h = go * ad * (h > 0.0)
        g_std = g_h * gn
        g_sd = (-g_std * centered / (sd * sd)).sum(axis=(0,), keepdims=True)
        g_sq = g_sd * 0.5 / sd * c * centered
        g_centered = g_std / sd
        g_centered += g_sq
        g_centered += g_sq
        g_z = g_centered + (-g_centered).sum(axis=(0,), keepdims=True) * c
        gb, dx, gw = _affine_grads(g_z, yd - gd, None, wd, False)
        return (go + dx, _unbroadcast(go * h, ad.shape), g_h.sum(axis=(0,)),
                (g_h * (centered / sd)).sum(axis=(0,)), gb, gw, -dx)
    return _record("offset_head", (y, alpha, shift, gain, b, w, g), fwd, bwd)


def mean_sq_dist(pred, target) -> Tensor:
    """Mean over rows of the squared Euclidean distance between the rows of
    two equally shaped rank-2 tensors, as one tape node: the chain
    ``scale(reduce_sum(mul(d, d)), 1/n)`` with ``d = sub(pred, target)``,
    whose numpy expressions forward and backward repeat in order, so the
    scalar and both gradients are its bytes. The node keeps only the
    scalar; backward forms the difference again."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    pd, td = pred.data, target.data
    if pd.ndim != 2 or pd.shape != td.shape or not pd.shape[0]:
        raise ShapeError(f"mean_sq_dist: prediction {pd.shape} vs target {td.shape}")
    c = 1.0 / pd.shape[0]

    def fwd():
        d = pd - td
        return (d * d).sum() * c

    def bwd(g, y):
        g_d = g * c * (pd - td)
        g_d += g_d
        return g_d, -g_d
    return _record("mean_sq_dist", (pred, target), fwd, bwd)


# ---------------------------------------------------------------------------
# Reverse pass


class Gradients:
    """Gradients keyed by tensor, as returned by ``backward``. Tensors hash
    by identity, and a key keeps its tensor alive."""

    def __init__(self, by_tensor: dict[Tensor, np.ndarray]):
        self._by_tensor = by_tensor

    def wrt(self, t: Tensor) -> np.ndarray:
        """Gradient with respect to `t`; zeros if `t` is unreachable from
        the backward root."""
        g = self._by_tensor.get(t)
        return np.zeros_like(t.data) if g is None else g


def backward(tape: Tape, output: Tensor) -> Gradients:
    """Reverse accumulation from a scalar recorded on `tape`.

    The scalar must be the output of one of the tape's nodes; gradients are
    exact (not approximated) for every leaf tensor reachable from it,
    whether or not it was created with ``trainable=True``. A node
    whose backward returns a gradient shaped unlike its input raises
    TapeError.
    """
    if output.data.size != 1:
        raise TapeError(f"backward target must be a scalar, got shape {output.shape}")
    if not any(node.output is output for node in tape.nodes):
        raise TapeError("backward target was not produced on this tape")
    grads: dict[Tensor, np.ndarray] = {output: np.ones_like(output.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(node.output, None)
        if g is None:
            continue
        input_grads = node.backward_fn(g)
        for t, gi in zip(node.inputs, input_grads):
            gi = np.asarray(gi, dtype=np.float64)
            if gi.shape != t.data.shape:
                raise TapeError(f"{node.op}: backward gave a gradient of shape "
                                f"{gi.shape} for an input of shape {t.data.shape}")
            grads[t] = grads[t] + gi if t in grads else gi
    return Gradients(grads)


def finite_diff_grad(f: Callable[[np.ndarray], float], x, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle: (f(x+eps e) - f(x-eps e)) / 2 eps
    per coordinate. `f` must be pure and finite near `x`."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    work = x.copy()
    for i in range(x.size):
        orig = work.flat[i]
        work.flat[i] = orig + eps
        fp = float(f(work))
        work.flat[i] = orig - eps
        fm = float(f(work))
        work.flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericalError(f"non-finite evaluation while perturbing coordinate {i}")
        grad.flat[i] = (fp - fm) / (2.0 * eps)
    return grad
