"""One differential harness for the fused tape nodes of ``flowagg.tensor``
(``linear``, ``offset_head``, ``mean_sq_dist``, ``local_route``,
``attention``, ``mlp_attention``): each against the op chain it stands for
in ``tests/chain_ops.py``, over one fixed table of cases, ``TABLE``.

The table is drawn from ``np.random.default_rng`` seeds. Its named rows are
crafted cases; its seeded rows sweep N from 1 to 300 (from 2 for
``offset_head``), k from 1 to N, widths from 1 to 33, empty layer stacks
(the encoder-less route, ``weight_hidden = ()``), neighbour tables with
self rows, duplicate rows and a row no point reaches, -0.0, exact ties,
magnitudes from 1e-6 to 1e6 (in attention's values, not its logits) and
shared leaves (q is k, x as w, gain as shift, a leaf used after the node).
A blocked node runs at one block and, when its row names a height, over
blocks of that height (one-row blocks included), with ``BLOCK_ELEMS`` and
``ATTENTION_MIN_ROWS`` patched; the heights both passes walk are read off
the kernels that each block calls once.

:func:`check` compares a row's output and every leaf's gradient with the
chain's. Every fused run also replays True (leaving the route's weights as
they were), replays False once any one leaf holds NaN, and backpropagates
twice to the same bytes. The rules:

- ``linear``, ``offset_head``, ``mean_sq_dist``: the chain's bytes.
- ``local_route``: the chain's bytes at one block. Over blocks, v's
  gradient is the bytes of the in-order scatter of g times the weights the
  run kept, and all agrees with one block within 1e-12 of the largest
  entry of any array.
- ``attention``: at one block, the numpy forward's bytes, and the chain's
  values within 1e-12 (relative, and of each array's largest entry). Over
  blocks, each block's output is the numpy forward's bytes on its rows and
  the gradients agree with one block within 1e-12.
- ``mlp_attention``: at one block the output and the weights reader are
  the chain's bytes. At any blocking the output and gradients agree with
  the chain within 1e-10 of each array's largest entry, and the reader with
  one block's within 1e-15.
- Rows marked ``keeps_bytes`` (attention at 50 queries in 8-row blocks,
  the route at 10 points in blocks of 3) also keep attention's output and
  the route's v gradient at their one-block bytes: at those sizes the BLAS
  rounds a block's rows as it rounds the whole, which it does not at every
  size.

Each mutant below is one edit of ``src/flowagg/tensor.py`` that fails the
harness (CHANGES.md names the rows that catch each):

1. ``offset_head``: the two ``g_centered += g_sq`` become one
   ``g_centered += g_sq + g_sq``.
2. ``attention`` backward: ``dv += np.matmul(e.T, gs[r0:r1], out=vpart)``
   becomes ``if r0: dv += ...`` (the first block's partial dropped).
3. ``local_route`` ``bwd``: ``acc += part`` becomes ``acc += part if p0 !=
   starts[-1] else 0`` (the last block's partials dropped).
4. ``RowIndex.scatter_add`` walks its rounds last to first: ``for end in
   self.ends:`` becomes ``for start, end in reversed(list(zip([0,
   *self.ends[:-1]], self.ends))):``. Reordering chunks inside a round is
   no mutant: rows are unique within a round, so the bytes stay.
5. ``local_route``: the ``relu`` list ends the encoder at ``e``, not
   ``e - 1``.
6. ``local_route`` ``block_grads``: ``outs[i - 1] if i else dd[...]``
   becomes ``outs[i - 1]``, which at ``i = 0`` reads the last layer's
   output in place of the first input.

``offset_head``'s ``g_z = g_centered - g_centered.sum(...) * c`` (for
``+ (-g_centered).sum(...) * c``) passes. It flips only the signs of zeros
in an all-zero column of g_z, and every consumer of g_z (numpy's sums, the
BLAS products) starts from +0.0; the row ``offset_head/zero_product``
feeds that column through products of all-zero operands.
"""

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np
import pytest

import chain_ops
from flowagg import tensor as T
from flowagg.tensor import MlpParams, NormActParams, Tape, Tensor, backward, tensor

# Each block of a blocked node calls one of these once per pass: forward
# the row softmax, backward attention's folded exponentials or the other
# nodes' softmax gradient.
KERNELS = ("_exp_rows", "_folded_exps", "_softmax_rows_grad")


@dataclass
class Row:
    """Thunks that build the fused node and its chain (each returns the
    output, then any arrays it exposes), the leaves whose gradients are
    compared and the upstream gradient. A blocked node's row has its n
    rows or points, its block elements per row and the height of its run
    over blocks (None: one block only)."""
    node: str
    fused: Callable
    chain: Callable
    leaves: list
    upstream: Tensor
    after: Tensor | None = None      # a leaf also used after the node
    n: int | None = None
    per_row: int = 0
    height: int | None = None
    facts: Callable | None = None    # more assertions on the one-block run
    exact: Callable | None = None    # a run over blocks -> (got, want) arrays
    keeps_bytes: bool = False        # see the module docstring

    def __post_init__(self):
        self.leaves = list({id(t): t for t in self.leaves}.values())


def run(row: Row, op: Callable, block_elems: int | None = None):
    """[output, *exposed arrays, *leaf gradients] of `op`. With
    `block_elems` (a fused run) also the block heights that forward and
    backward walked, after the replay and second-backward checks."""
    seen = {name: [] for name in KERNELS}
    with pytest.MonkeyPatch.context() as mp:
        if block_elems is not None:
            mp.setattr(T, "BLOCK_ELEMS", block_elems)
            mp.setattr(T, "ATTENTION_MIN_ROWS", 1)
            for name, log in seen.items():
                mp.setattr(T, name, lambda a, *rest, real=getattr(T, name), log=log:
                           log.append(len(a)) or real(a, *rest))
        with Tape() as tape:
            out, *live = op()
            loss = T.reduce_sum(T.mul(out, row.upstream))
            if row.after is not None:
                loss = T.add(loss, T.reduce_sum(T.mul(row.after, row.after)))
        walked = [seen["_exp_rows"].copy()]
        grads = backward(tape, loss)
        walked.append(seen["_folded_exps"] + seen["_softmax_rows_grad"])
        shown = [np.array(a) for a in live]
        result = [out.data, *shown, *(grads.wrt(t) for t in row.leaves)]
        if block_elems is None:
            return result
        ops = [node.op for node in tape.nodes]
        assert ops[0] == row.node and row.node not in ops[1:]
        again = backward(tape, loss)
        same([again.wrt(t) for t in row.leaves], result[1 + len(shown):])
        assert tape.replay()
        same(live, shown)
        for leaf in row.leaves:
            kept = leaf.data.copy()
            leaf.data[...] = np.nan
            with np.errstate(invalid="ignore"):
                assert not tape.replay()
            leaf.data[...] = kept
    return result, walked


def same(got, want):
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def close(got, want, rtol, rel, scale=None):
    """Each array within `rtol` and `rel` times its reference's largest
    entry (or `scale`)."""
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(
            g, w, rtol=rtol, atol=rel * (np.abs(w).max() if scale is None else scale))


def check(name: str):
    row = TABLE[name]

    def walk(height):
        """Forward's block heights (mlp_attention's reader walks them again)
        and backward's."""
        if row.n is None:
            return [[], []]
        rows = [height] * (row.n // height) + [row.n % height] * (row.n % height > 0)
        return [rows * (1 + (row.node == "mlp_attention")), rows]

    chain = run(row, row.chain)
    one, walked = run(row, row.fused, 1 << 40)
    assert walked == walk(row.n or 1)
    if row.node == "attention":
        close(one, chain, 1e-12, 1e-12)
    elif row.node == "mlp_attention":
        same(one[:2], chain[:2])
        close(one[2:], chain[2:], 0, 1e-10)
    else:
        same(one, chain)
    if row.facts is not None:
        row.facts(one)
    if row.height is None:
        return
    many, walked = run(row, row.fused, row.height * row.per_row)
    assert walked == walk(row.height)
    if row.exact is not None:
        same(*row.exact(many))
    kept = slice(0, 1) if row.node == "attention" else slice(2, 3)
    if row.keeps_bytes:
        same(many[kept], one[kept])
    if row.node == "local_route":
        close(many, one, 1e-12, 1e-12, max(np.abs(a).max() for a in one))
    elif row.node == "attention":
        close(many[1:], one[1:], 1e-12, 1e-12)
    else:
        np.testing.assert_allclose(many[1], one[1], rtol=0, atol=1e-15)
        close(many[:1] + many[2:], chain[:1] + chain[2:], 0, 1e-10)


# ---------------------------------------------------------------------------
# Case builders


def _values(rng, shape, spread=0, marks=False):
    """Normal values, each times 10**j for j drawn from -spread..spread.
    With `marks`, -0.0 in every 7th entry and, from three rows, the first
    row repeated in the last (exact ties; with two rows every key would tie,
    and attention's exactly-zero q and k gradients defeat relative rules)."""
    a = rng.normal(size=shape)
    if spread:
        a *= 10.0 ** rng.integers(-spread, spread + 1, size=shape)
    if marks:
        a.flat[::7] = -0.0
        if a.ndim and len(a) > 2:
            a[-1] = a[0]
    return a


def _leaf(rng, shape, spread=0, marks=False):
    return tensor(_values(rng, shape, spread, marks), trainable=True)


def _stack(rng, dims):
    return MlpParams([(tensor(rng.normal(size=(a, b)), trainable=True),
                       tensor(rng.normal(size=b), trainable=True))
                      for a, b in zip(dims[:-1], dims[1:])])


def tag(hidden) -> str:
    return str(hidden).replace(" ", "")


def _linear(rng, n, din, dout, relu, shared=False, after=False, spread=0, marks=False):
    x = _leaf(rng, (n, din), spread, marks)
    w = x if shared else _leaf(rng, (din, dout), spread, marks)
    b = _leaf(rng, (dout,), spread)
    upstream = _values(rng, (n, dout), 6 if spread or marks else 0)
    upstream[::2, ::2] = 0.0
    return Row("linear", lambda: (T.linear(x, w, b, relu=relu),),
               lambda: (chain_ops.linear_chain(x, w, b, relu),), [x, w, b],
               tensor(upstream), after=x if after else None)


LINEAR_CASES = ["distinct", "single_row", "zero_preactivations", "shared_x_w",
                "x_used_downstream"]


def _linear_case(case, relu):
    rng = np.random.default_rng(len(case))
    if case == "shared_x_w":
        return _linear(rng, 5, 5, 5, relu, shared=True)
    row = _linear(rng, 1 if case == "single_row" else 6, 3, 4, relu,
                  after=case == "x_used_downstream")
    if case == "zero_preactivations":
        xd, wd, bd = (t.data for t in row.leaves)
        # Column 0 cancels to +0.0 exactly; row 0 holds underflowing
        # negative products, which this BLAS sums to -0.0, plus b = -0.0.
        xd[:, 1:], wd[1:, 0], wd[0, 0] = 0.0, 0.0, 2.0
        xd[:, 0] = 0.5
        bd[0] = -1.0
        xd[0], wd[:, 1:], bd[1:] = -1e-200, 1e-200, -0.0
        row.facts = lambda res: np.testing.assert_((xd @ wd + bd == 0.0).sum() >= 6)
    return row


HEAD_CASES = ["distinct", "two_rows", "constant_column", "dead_column", "negative_upstream",
              "all_dead", "shared_gain_shift", "n2000_d32", "zero_product"]


def _offset_head(rng, n, d, case, spread=0, marks=False):
    y, g = _values(rng, (n, d), spread, marks), _values(rng, (n, d), spread, marks)
    w, upstream = rng.normal(size=(d, d)), _values(rng, (n, d), 6 if spread else 0)
    b, gain, shift = (rng.normal(size=d) for _ in range(3))
    alpha, j, dead = rng.normal(), min(1, d - 1), -max(10.0, np.sqrt(n) + 1.0)
    if case == "constant_column":
        # z[:, 0] is 1.5 in every row, and at these sizes so is its mean.
        w[:, 0], b[0] = 0.0, 1.5
    if case in ("dead_column", "negative_upstream"):
        # Standardized values lie within ±sqrt(n - 1), so no row survives.
        gain[j], shift[j] = 1.0, dead
    if case == "negative_upstream":
        upstream, alpha = -np.abs(upstream), abs(alpha)
    if case in ("all_dead", "zero_product"):
        # No column survives and the upstream gradient has both signs, so
        # every column of the gradient at z is zeros of both signs...
        gain[:], shift[:] = 1.0, dead
    if case == "zero_product":
        # ... and every BLAS product that reads it has all-zero operands.
        w[:], g[:] = 0.0, y
    p = NormActParams(*(tensor(a, trainable=True) for a in (w, b, gain, shift)))
    if case == "shared_gain_shift":
        p.shift = p.gain
    y, g = tensor(y, trainable=True), tensor(g, trainable=True)
    alpha = Tensor(np.asarray(alpha), trainable=True)

    def facts(res):
        out, *grads = res
        yd, ad = y.data, alpha.data
        assert all(np.isfinite(gr).all() for gr in grads)
        if case == "constant_column":
            assert (out[:, 0] == yd[:, 0] + max(p.shift.data[0], 0.0) * ad).all()
        if case in ("dead_column", "negative_upstream"):
            assert (out[:, j] == yd[:, j]).all() and grads[6][j] == 0.0
        if case == "negative_upstream":
            # The ReLU mask turns every incoming gradient it drops into -0.0.
            dropped = out == yd
            assert (upstream[dropped] < 0.0).all() and dropped.sum() >= n
        if case in ("all_dead", "zero_product"):
            # Numpy's sums and the BLAS products start at +0.0, so every head
            # gradient is +0.0 and g's, the negated product, is -0.0.
            assert (out == yd).all() and grads[0].tobytes() == upstream.tobytes()
            assert all(not np.signbit(gr).any() for gr in grads[2:])
            assert np.signbit(grads[1]).all()
    return Row("offset_head", lambda: (T.offset_head(p, alpha, y, g),),
               lambda: (chain_ops.offset_head_chain(p, alpha, y, g),),
               [y, g, alpha, p.weight, p.bias, p.gain, p.shift], tensor(upstream),
               after=p.gain if case == "shared_gain_shift" else None, facts=facts)


def _mean_sq_dist(rng, n, d=3, spread=0, marks=False):
    pred, gt = _leaf(rng, (n, d), spread, marks), _leaf(rng, (n, d), spread, marks)
    # A row predicted exactly: +0.0 and -0.0 in the two gradients.
    pred.data[0] = gt.data[0]
    return Row("mean_sq_dist", lambda: (T.mean_sq_dist(pred, gt),),
               lambda: (chain_ops.loss_chain(pred, gt),), [pred, gt],
               tensor(np.asarray(_values(rng, (), 6))))


def route_case(rng, n=10, k=3, dc=4, dm=4, disp_hidden=(4,), de=2, score_hidden=(5,),
               idx=None, spread=0, marks=False):
    """(encoder, score, disp, context, v, rows) for :func:`T.local_route`,
    with trainable layers and v. Without `idx` the neighbour rows have
    duplicates, self neighbours and a row no point reaches. With
    `disp_hidden` None the encoder has no layers (the identity, De = 3)."""
    if idx is None:
        idx = rng.integers(0, max(n - 1, 1), size=(n, k))
        idx[0], idx[1 % n, :2] = 0, min(3, max(n - 2, 0))
    if disp_hidden is None:
        encoder, de = MlpParams([]), 3
    else:
        encoder = _stack(rng, (3, *disp_hidden, de))
    return (encoder, _stack(rng, (de + 2 * dc, *score_hidden, 1)),
            _values(rng, (n * k, 3), spread, marks), tensor(_values(rng, (n, dc), spread, marks)),
            _leaf(rng, (n, dm), spread, marks), T.RowIndex(idx))


def _local_route(rng, height=None, keeps_bytes=False, **kwargs):
    case = route_case(rng, **kwargs)
    encoder, score, _, context, v, rows = case
    n, layers = context.shape[0], encoder.layers + score.layers
    k, upstream = rows.flat.size // n, tensor(_values(rng, v.shape, 6))
    width = max(context.shape[1], v.shape[1], *(w.shape[1] for w, _ in layers))

    def scatter(res):
        # v's gradient is the in-order scatter of g times the weights the
        # run kept, whatever the blocking.
        gv = np.zeros(v.shape)
        np.add.at(gv, rows.flat, upstream.data[np.arange(n * k) // k] * res[1].reshape(-1, 1))
        return [res[2]], [gv]
    return Row("local_route", lambda: T.local_route(*case), lambda: chain_ops.route_chain(*case),
               [v] + [t for w, b in layers for t in (w, b)], upstream, n=n, per_row=k * width,
               height=height, exact=scatter, keeps_bytes=keeps_bytes)


def _attention_reference(qd, kd, vd, c):
    """attention's forward expressions in numpy: the shifted exponentials
    of the logits, E @ v, then a divide by E's row sums."""
    logits = qd @ np.ascontiguousarray(kd.T)
    if c is not None:
        logits *= c
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e @ vd) / e.sum(axis=1, keepdims=True)


def qkv(rng, n, m, d, dv, shared, c, spread=0, marks=False, max_logit=None):
    """Trainable q, k (q itself when `shared`) and v, and an upstream
    gradient. With `max_logit`, q and k are scaled so that the largest
    |c · q kᵀ| is about that value."""
    qd = _values(rng, (n, d), 0, marks)
    kd = qd if shared else _values(rng, (m, d), 0, marks)
    if max_logit is not None:
        factor = np.sqrt(max_logit / np.abs((1.0 if c is None else c) * (qd @ kd.T)).max())
        qd = qd * factor
        kd = qd if shared else kd * factor
    q = tensor(qd, trainable=True)
    k = q if shared else tensor(kd, trainable=True)
    return (q, k, _leaf(rng, (m, dv), spread, marks),
            tensor(_values(rng, (n, dv), 6 if spread or marks else 0)))


def attention_row(rng, n, m, d, dv, shared, c, height=None, keeps_bytes=False, hidden=None,
                  mlp_rng=None, **kwargs):
    """attention's row, or with `hidden` mlp_attention's, whose weight
    layers come from `mlp_rng` when given. A scale c of None stands for the
    unscaled route: the nodes take c = 1.0, while the chain and the numpy
    reference form their logits with no multiply."""
    q, k, v, upstream = qkv(rng, n, m, d, dv, shared, c, **kwargs)
    cc = 1.0 if c is None else c
    if hidden is not None:
        mlp = _stack(mlp_rng or rng, (1, *hidden, 1))
        return Row("mlp_attention", lambda: (T.mlp_attention(q, k, v, cc, mlp),
                                             T.attention_weights_data(q, k, cc, mlp)),
                   lambda: chain_ops.mlp_attention_chain(q, k, v, c, mlp),
                   [q, k, v, *(t for layer in mlp.layers for t in layer)], upstream,
                   n=n, per_row=m * max([1, *hidden]), height=height)

    def reference(rows):
        return [np.vstack([_attention_reference(q.data[r0:r0 + rows], k.data, v.data, c)
                           for r0 in range(0, n, rows)])]

    def facts(res):
        assert all(np.isfinite(a).all() for a in res)
        same(res[:1], reference(n))
    return Row("attention", lambda: (T.attention(q, k, v, cc),),
               lambda: (chain_ops.attention_chain_then_blend(q, k, v, c),), [q, k, v], upstream,
               n=n, per_row=m, height=height, facts=facts,
               exact=lambda res: (res[:1], reference(height)), keeps_bytes=keeps_bytes)


def _seeded(i):
    """Row i of each node's seeded sweep. Sizes are the smallest at i = 0,
    the largest at i = 1 and drawn after; even rows carry magnitudes, and
    all but every third -0.0 and ties. Blocking is one block, two, or many
    (one-row blocks where i % 6 == 2) as i % 3 is 0, 1 or 2."""
    spread, marks = 6 * (i % 2 == 0), i % 3 != 2

    def start(node):
        rng = np.random.default_rng([node, i])
        if i < 2:
            return rng, ([1, 1, 1, 1], [300, 33, 33, 33])[i]
        return rng, [int(rng.integers(1, 301)), *(int(w) for w in rng.integers(1, 34, size=3))]

    def height(rng, n):
        if n < 2 or i % 3 == 0:
            return None
        if i % 3 == 1:
            return -(-n // 2)
        return 1 if i % 6 == 2 else int(rng.integers(1, max(2, n // 3)))

    def hidden(rng, layers):
        return tuple(int(w) for w in rng.integers(1, 34, size=layers % 3))

    rng, (n, din, dout, _) = start(1)
    if i % 4 == 3:
        n = din = dout = min(n, 33)
    yield "linear", _linear(rng, n, din, dout, i % 2 == 1, shared=i % 4 == 3, after=i % 5 == 0,
                            spread=spread, marks=marks)
    rng, (n, d, _, _) = start(2)
    yield "offset_head", _offset_head(rng, max(n, 2), d, HEAD_CASES[i % len(HEAD_CASES)],
                                      spread, marks)
    rng, (n, d, _, _) = start(3)
    yield "mean_sq_dist", _mean_sq_dist(rng, n, d, spread, marks)
    rng, (n, dc, dm, de) = start(4)
    if i % 4 >= 2:                      # k = N with self rows, or N - 1
        n = min(n, 50)
        k = max(1, n - i % 4 + 2)
    else:
        k = int(rng.integers(1, min(n, max(1, 3000 // n)) + 1))
    idx = None
    if i % 2 == 0:                      # each point first, then k - 1 others
        offsets = np.concatenate(([0], 1 + rng.permutation(n - 1)))[:k]
        idx = (np.arange(n)[:, None] + offsets) % n
    yield "local_route", _local_route(
        rng, height(rng, n), n=n, k=k, dc=dc, dm=dm, de=de, idx=idx, spread=spread, marks=marks,
        disp_hidden=None if i % 3 == 0 else hidden(rng, i + 1), score_hidden=hidden(rng, i))
    rng, (n, d, dv, m) = start(5)
    shared, c = i % 4 == 1, (None, 1.0 / np.sqrt(d), float(rng.uniform(0.1, 2.0)))[i % 3]
    yield "attention", attention_row(rng, n, n if shared else m, d, dv, shared, c,
                                     height(rng, n), spread=spread, marks=marks)
    rng, (n, d, dv, _) = start(6)       # at the attention row's scale c
    layers = hidden(rng, i)
    m = int(rng.integers(1, min(300, max(2, 60_000 // (n * max([1, *layers]))))))
    yield "mlp_attention", attention_row(rng, n, m, d, dv, False, c, height(rng, n),
                                         hidden=layers, spread=spread, marks=marks)


ATTENTION_SCALES = [None, 1.0 / np.sqrt(5), 0.4]
ROUTE_STACKS = [((4,), ()), ((4,), (5,)), ((4,), (5, 3)), ((), (5,)), (None, ())]
ROUTE_BLOCK_STACKS = [((4,), (5,)), ((), (5, 3)), (None, (5, 3))]


def _table() -> dict:
    rng = np.random.default_rng
    rows = {f"linear/{case}/relu={relu}": _linear_case(case, relu)
            for case in LINEAR_CASES for relu in (False, True)}
    sizes = {"two_rows": (2, 3), "shared_gain_shift": (6, 32), "n2000_d32": (2000, 32)}
    for case in HEAD_CASES:
        rows[f"offset_head/{case}"] = _offset_head(rng(len(case)), *sizes.get(case, (4, 3)), case)
    for n in (1, 2, 200):
        rows[f"mean_sq_dist/exact_row/{n}"] = _mean_sq_dist(rng(n), n)
    for disp, score in ROUTE_STACKS:
        rows[f"local_route/{tag(disp)}/{tag(score)}"] = _local_route(
            rng(30), disp_hidden=disp, score_hidden=score)
    for disp, score in ROUTE_BLOCK_STACKS:    # width 5: blocks of 3, 3, 3 and 1 points
        rows[f"local_route/{tag(disp)}/{tag(score)}/blocks"] = _local_route(
            rng(31), 3, True, disp_hidden=disp, score_hidden=score)
    for height in (None, 3):
        rows[f"local_route/replay/{height}"] = _local_route(rng(33), height)
    for n, shared, c in product((7, 300), (True, False), ATTENTION_SCALES):
        rows[f"attention/{n}/{shared}/{c}"] = attention_row(
            rng(n), n, n + 3 * (not shared), 5, 4, shared, c)
    for shared, c in product((True, False), (None, 0.4)):   # six 8-row blocks and one of 2
        rows[f"attention/50/{shared}/{c}/blocks"] = attention_row(
            rng(50), 50, 50, 5, 4, shared, c, 8, True)
    for height in (None, 3):
        rows[f"attention/replay/{height}"] = attention_row(rng(16), 10, 12, 3, 2, False, 0.5,
                                                           height)
    for shared, c in product((True, False), (None, 0.4)):   # logits up to ±900, near one-hot
        rows[f"attention/max_logit_900/{shared}/{c}"] = attention_row(
            rng(40), 40, 40 + 3 * (not shared), 5, 4, shared, c, max_logit=900.0)
    for c, shared, hidden, blocks in product((None, 0.4), (True, False), ((), (8,), (3, 2)),
                                             (1, 2, 20)):   # one, two or twenty blocks
        rows[f"mlp_attention/{c}/{shared}/{tag(hidden)}/{blocks}"] = attention_row(
            rng(20), 20, 20 + 3 * (not shared), 5, 4, shared, c,
            20 // blocks if blocks > 1 else None, hidden=hidden, mlp_rng=rng(len(hidden)))
    rows["mlp_attention/replay"] = attention_row(rng(24), 10, 12, 3, 2, False, 0.5, 3, hidden=(8,))
    for i in range(12):
        for node, row in _seeded(i):
            rows[f"{node}/seed{i}"] = row
    return rows


TABLE = _table()


@pytest.mark.parametrize("name", list(TABLE))
def test_fused_node_matches_its_chain(name):
    check(name)
