"""Every op chain that a fused tape node of ``flowagg.tensor`` stands
for, kept here as the reference the node is tested against (see
``tests/test_fused_nodes.py``).

``linear_chain``, ``offset_head_chain`` and ``loss_chain`` are the chains
of ``linear``, ``offset_head`` and ``mean_sq_dist``. ``score_layer`` (the
local scores' first layer) and ``local_aggregate`` (the weighted sum of
neighbour rows) were the local route's fused nodes before
``local_route`` replaced the route's seven nodes with one;
``route_chain`` builds that route from them, and ``score_layer_chain``
and ``local_aggregate_chain`` are their own chains. ``softmax_chain`` and
``weight_mlp_chain`` are the global route's weights as the package built
them before ``mlp_attention``: every N x N intermediate a tape node of
its own, ``softplus`` included; ``attention_chain_then_blend`` and
``mlp_attention_chain`` multiply them into v. The ops record through the
package's own ``_record`` helper, so a tape, ``backward`` and
``Tape.replay`` treat them as any other op.
"""

import numpy as np

from flowagg import tensor as T
from flowagg.tensor import (
    MlpParams,
    ShapeError,
    Tensor,
    _as_tensor,
    _record,
    _row_index,
    _sigmoid,
)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), overflow-safe; strictly positive output."""
    a = _as_tensor(a)
    ad = a.data
    return _record("softplus", (a,), lambda: np.logaddexp(0.0, ad),
                   lambda g, y: (g * _sigmoid(ad),))


def softmax_chain(q, k, c: float | None) -> Tensor:
    """``softmax_rows(scale(matmul(q, transpose2(k)), c))``: the global
    route's N x M softmax weights; a c of None takes no ``scale`` node
    (the unscaled route)."""
    logits = T.matmul(q, T.transpose2(k))
    if c is not None:
        logits = T.scale(logits, c)
    return T.softmax_rows(logits)


def weight_mlp_chain(w, mlp: MlpParams) -> Tensor:
    """The weight-MLP route's map of the N x M softmax weights w: the MLP
    over every weight as one column, a softplus, then each row divided by
    its sum."""
    n, m = _as_tensor(w).shape
    pos = softplus(T.mlp_forward(mlp, T.reshape(w, (n * m, 1))))
    grid = T.reshape(pos, (n, m))
    return T.div(grid, T.reduce_sum(grid, axis=1, keepdims=True))


def attention_chain_then_blend(q, k, v, c: float | None) -> Tensor:
    """``attention``'s chain: the softmax weights times v."""
    return T.matmul(softmax_chain(q, k, c), v)


def mlp_attention_chain(q, k, v, c: float | None, mlp: MlpParams) -> tuple[Tensor, np.ndarray]:
    """``mlp_attention``'s chain, and its N x M weights as an array."""
    w = weight_mlp_chain(softmax_chain(q, k, c), mlp)
    return T.matmul(w, v), w.data


def linear_chain(x, w, b, relu: bool = False) -> Tensor:
    """``linear``'s chain: ``relu(add(matmul(x, w), b))``, or no relu."""
    z = T.add(T.matmul(x, w), b)
    return T.relu(z) if relu else z


def offset_head_chain(p, alpha, y, g) -> Tensor:
    """The 16-op chain that offset_head's one node stands for: sub, linear,
    12 elementwise and reduction ops for the head, then mul and add."""
    z = T.linear(T.sub(y, g), p.weight, p.bias)
    n = z.data.shape[0]
    mean = T.scale(T.reduce_sum(z, axis=0, keepdims=True), 1.0 / n)
    centered = T.sub(z, mean)
    var = T.scale(T.reduce_sum(T.mul(centered, centered), axis=0, keepdims=True), 1.0 / n)
    standardized = T.div(centered, T.sqrt(T.add_const(var, T.NORM_EPS)))
    head = T.relu(T.add(T.mul(standardized, p.gain), p.shift))
    return T.add(y, T.mul(head, alpha))


def loss_chain(pred, gt) -> Tensor:
    """The chain that ``mean_sq_dist`` (``train.loss_epe``) stands for."""
    diff = T.sub(pred, gt)
    return T.scale(T.reduce_sum(T.mul(diff, diff)), 1.0 / gt.shape[0])


def route_chain(encoder, score, disp, context, v, rows) -> tuple[Tensor, np.ndarray]:
    """The chain local_route stands for, from its two former fused ops; the
    output and the N x k softmax weights as an array."""
    n = context.shape[0]
    enc = T.mlp_forward(encoder, disp)
    (w0, b0), *rest = score.layers
    h = score_layer(enc, w0, b0, context, rows, relu=bool(rest))
    weights = T.softmax_rows(T.reshape(T.mlp_forward(MlpParams(rest), h),
                                       (n, rows.flat.size // n)))
    return local_aggregate(weights, v, rows), weights.data


def score_layer_chain(enc, w, b, context, idx, relu: bool = False) -> Tensor:
    """``score_layer``'s chain: ``linear`` over the concatenated rows."""
    n, k = idx.shape
    own = np.repeat(np.arange(n), k)
    return T.linear(T.concat_cols([enc, T.gather_rows(context, idx), T.gather_rows(context, own)]),
                    w, b, relu=relu)


def local_aggregate_chain(weights, v, rows) -> Tensor:
    """``local_aggregate``'s chain: gather, multiply, sum over k."""
    n, k = weights.shape
    picked = T.gather_rows(v, rows)
    weighted = T.mul(picked, T.reshape(weights, (n * k, 1)))
    return T.reduce_sum(T.reshape(weighted, (n, k, v.shape[1])), axis=1)


def score_layer(enc, w, b, context, rows, relu: bool = False) -> Tensor:
    """The first layer of the local scores as one tape node: ``linear(
    concat_cols([enc, context[rows], repeat(context, k)]), w, b, relu)``
    without the N·k x (De + 2Dc) input.

    enc is the N·k x De encoded displacement table and `rows` the N·k
    neighbour rows of the N x Dc `context` (a ``RowIndex``, or anything
    else, which becomes ``RowIndex(rows)`` on entry). w is
    (De + 2Dc) x H and splits by rows into W_e, W_j and W_i; forward
    computes ``enc @ W_e + (context @ W_j)[rows] + repeat(context @ W_i,
    k) + b`` in one buffer, then ReLU when `relu` is set.

    Only enc, w and b get gradients; the node's inputs are (b, enc, w), in
    ``linear``'s order. context and rows are closed-over constants, like
    ``scale``'s c, so backward forms no gradient for them and scatters
    nothing. W_j's gradient is ``context[rows]ᵀ g``: backward
    gathers the neighbours' context rows again, as :func:`local_aggregate`
    regathers v's rows, and drops them after the product. W_i's is
    ``contextᵀ`` times g summed over each point's k rows. The node keeps
    only its output y and reads the ReLU mask from ``y > 0``. The sums run
    in another order than the chain's, so output and gradients agree with
    it to rounding, not bit for bit.
    """
    enc, w, b = _as_tensor(enc), _as_tensor(w), _as_tensor(b)
    ed, wd, bd = enc.data, w.data, b.data
    cd = _as_tensor(context).data
    if cd.ndim != 2 or cd.shape[0] == 0:
        raise ShapeError(f"score_layer: context {cd.shape} must be N x Dc with N >= 1")
    rows = _row_index("score_layer", rows, cd.shape[0])
    (n, dc), nk = cd.shape, rows.flat.size
    if (not nk or nk % n or ed.ndim != 2 or ed.shape[0] != nk
            or wd.ndim != 2 or wd.shape[0] != ed.shape[1] + 2 * dc
            or bd.shape != (wd.shape[1],)):
        raise ShapeError(f"score_layer: incompatible shapes enc {ed.shape}, w {wd.shape}, "
                         f"b {bd.shape}, context {cd.shape} for {nk} neighbour rows")
    de, k, h = ed.shape[1], nk // n, wd.shape[1]
    w_e, w_j, w_i = wd[:de], wd[de:de + dc], wd[de + dc:]

    def fwd():
        y = ed @ w_e
        y += (cd @ w_j)[rows.flat]
        y_by_point = y.reshape(n, k, h)
        y_by_point += (cd @ w_i)[:, None, :]
        y += bd
        if relu:
            np.maximum(y, 0.0, out=y)
        return y

    def bwd(g, y):
        if relu:
            g = g * (y > 0.0)
        gw = np.empty_like(wd)
        np.matmul(ed.T, g, out=gw[:de])
        np.matmul(cd[rows.flat].T, g, out=gw[de:de + dc])
        np.matmul(cd.T, g.reshape(n, k, h).sum(axis=1), out=gw[de + dc:])
        return g.sum(axis=0), g @ w_e.T, gw
    return _record("score_layer", (b, enc, w), fwd, bwd)


def local_aggregate(weights, v, rows) -> Tensor:
    """Per point i, the weighted sum over its k neighbour rows:
    ``out[i] = sum_j weights[i, j] * v[rows[i·k + j]]``, as one tape node.

    weights is N x k, v is M x Dm and `rows` holds N·k row numbers of v:
    a ``RowIndex``, or anything else, which becomes ``RowIndex(rows)`` on
    entry. It equals the chain ``reduce_sum(reshape(mul(gather_rows(v,
    rows), reshape(weights, (N·k, 1))), (N, k, Dm)), axis=1)`` in output
    bytes and gradients, but the N·k x Dm gathered and weighted rows are
    transient: the node keeps only its N x Dm output, and backward gathers
    the rows again and scatters v's gradient with ``np.add.at``, the
    order that ``RowIndex.scatter_add`` repeats; so a chain built on this
    op does not share the scatter that the fused nodes use.
    """
    weights, v = _as_tensor(weights), _as_tensor(v)
    wd, vd = weights.data, v.data
    if wd.ndim != 2 or vd.ndim != 2:
        raise ShapeError(f"local_aggregate: weights {wd.shape} and values {vd.shape} "
                         f"must be rank 2")
    rows = _row_index("local_aggregate", rows, vd.shape[0])
    (n, k), dm = wd.shape, vd.shape[1]
    if rows.flat.size != n * k:
        raise ShapeError(f"local_aggregate: {rows.flat.size} neighbour rows for weights "
                         f"{wd.shape}")

    def picked() -> np.ndarray:
        return vd[rows.flat].reshape(n, k, dm)

    def fwd():
        p = picked()
        p *= wd[..., None]
        return p.sum(axis=1)

    def bwd(g, y):
        # The chain's mul backward on (N·k, Dm) rows, into one buffer.
        p, g3 = picked(), g[:, None, :]
        gw = np.multiply(g3, p, out=p).sum(axis=2)
        gp = np.multiply(g3, wd[..., None], out=p).reshape(n * k, dm)
        gv = np.zeros(vd.shape)
        np.add.at(gv, rows.flat, gp)
        return gw, gv
    return _record("local_aggregate", (weights, v), fwd, bwd)
