"""Two tape ops of the local route's former chain, kept as the references
that ``flowagg.tensor.local_route`` is tested against.

``score_layer`` (the local scores' first layer) and ``local_aggregate``
(the weighted sum of neighbour rows) were the local route's fused nodes
before ``local_route`` replaced the route's seven nodes with one. With
``linear``, ``reshape`` and ``softmax_rows`` they make up the chain whose
bytes ``local_route`` repeats on one block. They record through the
package's own ``_record`` helper, so a tape, ``backward`` and
``Tape.replay`` treat them as any other op.
"""

import numpy as np

from flowagg.tensor import ShapeError, Tensor, _as_tensor, _record, _row_index


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
    the rows again and scatters v's gradient through the index's
    occurrence rounds.
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
        return gw, rows.scatter_add(vd.shape[0], dm, lambda pos: gp[pos])
    return _record("local_aggregate", (weights, v), fwd, bwd)
