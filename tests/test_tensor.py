"""Forward values against loop oracles, gradients against finite differences."""

import inspect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain_ops
import oracles
from flowagg import tensor as T
from flowagg.aggregator import AggregatorConfig, FeatureSet, forward, init_params, prepare_inputs
from flowagg.spatial import PointCloud, knn
from flowagg.tensor import (
    MlpParams,
    NormActParams,
    NumericalError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    backward,
    finite_diff_grad,
    tensor,
)


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    got = T.matmul(tensor(a), tensor(b)).data
    np.testing.assert_allclose(got, oracles.matmul_loops(a, b), rtol=0, atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((4, 2))))


def test_softmax_small_row():
    got = T.softmax_rows(tensor([[1.0, 2.0, 3.0]])).data
    want = oracles.softmax_rows_direct([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_extreme_logits_stay_finite():
    logits = np.array([[1e3, -1e3, 0.0], [5e2, 5e2, 5e2]])
    out = T.softmax_rows(tensor(logits)).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0], atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_stochastic(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(scale=5.0, size=(3, 4))
    out = T.softmax_rows(tensor(m)).data
    assert (out >= 0.0).all()
    np.testing.assert_allclose(out.sum(axis=1), np.ones(3), atol=1e-12)


def test_mlp_matches_loop_oracle():
    rng = np.random.default_rng(1)
    layers = [(rng.normal(size=(4, 6)), rng.normal(size=6)),
              (rng.normal(size=(6, 2)), rng.normal(size=2))]
    p = MlpParams([(tensor(w, trainable=True), tensor(b, trainable=True))
                   for w, b in layers])
    x = rng.normal(size=(5, 4))
    got = T.mlp_forward(p, tensor(x)).data
    np.testing.assert_allclose(got, oracles.mlp_loops(layers, x), rtol=0, atol=1e-12)


def test_mlp_forward_rejects_an_input_its_first_layer_cannot_take():
    p = MlpParams([(tensor(np.ones((4, 2))), tensor(np.zeros(2)))])
    for x in (np.ones((5, 3)), np.ones(4)):
        with pytest.raises(ShapeError):
            T.mlp_forward(p, tensor(x))


def _identity_head(d):
    return NormActParams(
        weight=tensor(np.eye(d), trainable=True),
        bias=tensor(np.zeros(d), trainable=True),
        gain=tensor(np.ones(d), trainable=True),
        shift=tensor(np.zeros(d), trainable=True),
    )


def _head(p, x):
    """The head alone: offset_head with y = 0, g = -x and alpha = 1, so the
    head sees 0 - (-x) = x and the node returns 0 + head(x) * 1."""
    x = np.asarray(x, dtype=np.float64)
    return T.offset_head(p, Tensor(np.asarray(1.0)), tensor(np.zeros_like(x)), tensor(-x))


def test_norm_head_two_point_column():
    # Standardizing [-1, 1] gives +-1 up to the epsilon in the
    # denominator; ReLU then clips the negative side to exactly zero.
    out = _head(_identity_head(1), [[-1.0], [1.0]]).data
    assert out[0, 0] == 0.0
    assert out[1, 0] == pytest.approx(1.0, abs=1e-4)


def test_norm_head_constant_column_standardizes_to_zero():
    p = _identity_head(2)
    p.shift = tensor(np.array([0.3, -0.2]), trainable=True)
    x = np.tile([[2.0, -7.0]], (5, 1))
    out = _head(p, x).data
    np.testing.assert_allclose(out[:, 0], 0.3, atol=1e-15)
    np.testing.assert_allclose(out[:, 1], 0.0, atol=0)


def test_norm_head_mean_tracks_shift_when_relu_inactive():
    rng = np.random.default_rng(2)
    p = _identity_head(3)
    p.shift = tensor(np.full(3, 5.0), trainable=True)
    out = _head(p, rng.normal(size=(40, 3))).data
    assert (out > 0.0).all()
    np.testing.assert_allclose(out.mean(axis=0), 5.0, atol=1e-9)


def test_norm_head_matches_loop_oracle():
    rng = np.random.default_rng(3)
    w, b = rng.normal(size=(4, 4)), rng.normal(size=4)
    g, s = rng.normal(size=4), rng.normal(size=4)
    p = NormActParams(weight=tensor(w, trainable=True), bias=tensor(b, trainable=True),
                      gain=tensor(g, trainable=True), shift=tensor(s, trainable=True))
    x = rng.normal(size=(7, 4))
    got = _head(p, x).data
    np.testing.assert_allclose(got, oracles.norm_head_loops(w, b, g, s, x),
                               rtol=0, atol=1e-12)


def test_norm_head_rejects_single_row():
    with pytest.raises(ShapeError):
        _head(_identity_head(2), [[1.0, 2.0]])


def _grad_of(build, params):
    """Analytic gradient of a scalar-valued builder for each param array."""
    tensors = [tensor(p, trainable=True) for p in params]
    with Tape() as tape:
        out = build(*tensors)
    grads = backward(tape, out)
    return [grads.wrt(t) for t in tensors]


def _numeric(build, params, i):
    def f(x):
        args = [np.array(p) for p in params]
        args[i] = x
        return float(build(*[tensor(a) for a in args]).data)
    return finite_diff_grad(f, np.array(params[i]))


def _assert_grads_match(build, *params):
    analytic = _grad_of(build, params)
    for i in range(len(params)):
        numeric = _numeric(build, params, i)
        np.testing.assert_allclose(analytic[i], numeric, rtol=1e-6, atol=1e-7)


def test_grad_elementwise_chain():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0  # keep the divisor away from zero
    _assert_grads_match(
        lambda ta, tb: T.reduce_sum(T.div(T.mul(T.add(ta, tb), T.sub(ta, tb)), tb)),
        a, b)


def test_grad_broadcast_row_bias():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=4)
    _assert_grads_match(lambda ta, tb: T.reduce_sum(T.mul(T.add(ta, tb), T.add(ta, tb))),
                        a, b)


def test_grad_unary_ops():
    rng = np.random.default_rng(6)
    x = np.abs(rng.normal(size=(3, 3))) + 0.5
    _assert_grads_match(lambda t: T.reduce_sum(T.sqrt(t)), x)
    _assert_grads_match(lambda t: T.reduce_sum(chain_ops.softplus(T.scale(t, -1.0))), x)
    _assert_grads_match(lambda t: T.reduce_sum(T.relu(T.add_const(t, -1.0))), x)
    _assert_grads_match(lambda t: T.reduce_sum(T.scale(t, -2.5)), x)


def test_grad_matmul_and_transpose():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    _assert_grads_match(
        lambda ta, tb: T.reduce_sum(T.matmul(ta, tb)), a, b)
    _assert_grads_match(
        lambda ta: T.reduce_sum(T.matmul(T.transpose2(ta), ta)), a)


def test_grad_reduce_and_reshape():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 6))
    _assert_grads_match(
        lambda t: T.reduce_sum(T.mul(T.reduce_sum(t, axis=0, keepdims=True),
                                     T.reduce_sum(t, axis=0, keepdims=True))), x)
    _assert_grads_match(
        lambda t: T.reduce_sum(T.mul(T.reshape(t, (3, 4)), T.reshape(t, (3, 4)))), x)
    _assert_grads_match(
        lambda t: T.reduce_sum(T.mul(T.reduce_sum(t, axis=1), T.reduce_sum(t, axis=1))), x)


def test_grad_reduce_sum_3d_axis():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(12,))
    _assert_grads_match(
        lambda t: T.reduce_sum(
            T.mul(T.reduce_sum(T.reshape(t, (2, 3, 2)), axis=1),
                  T.reduce_sum(T.reshape(t, (2, 3, 2)), axis=1))), x)


def test_grad_concat_and_gather():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 3))
    _assert_grads_match(
        lambda ta, tb: T.reduce_sum(T.mul(T.concat_cols([ta, tb]),
                                          T.concat_cols([ta, tb]))), a, b)
    idx = np.array([0, 0, 2, 1])
    _assert_grads_match(
        lambda ta: T.reduce_sum(T.mul(T.gather_rows(ta, idx), T.gather_rows(ta, idx))), a)


def test_gather_rows_duplicate_index_accumulates():
    v = tensor(np.arange(6.0).reshape(3, 2), trainable=True)
    with Tape() as tape:
        out = T.reduce_sum(T.gather_rows(v, np.array([0, 0, 1])))
    g = backward(tape, out).wrt(v)
    np.testing.assert_array_equal(g, [[2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])


def _add_at(idx, g, n_rows):
    """Scatter-add oracle: np.add.at, which adds in index order."""
    acc = np.zeros((n_rows, *g.shape[1:]))
    np.add.at(acc, np.asarray(idx, dtype=np.int64).ravel(), g)
    return acc


def _scatter_gradient(m, rng):
    # Normals with exact ±0.0 entries in column 0, and in column 1 the
    # repeated terms 1.0, 1e16, -1e16, whose sums depend on the order of
    # addition: 1 + 1e16 - 1e16 is 0, but -1e16 + 1e16 + 1 is 1.
    g = rng.normal(size=(m, 3))
    g[::3, 0] = 0.0
    g[1::3, 0] = -0.0
    g[:, 1] = np.resize([1.0, 1e16, -1e16], m)
    return g


_CLOUD_200 = PointCloud(np.random.default_rng(3).normal(size=(200, 3)))
# (index, rows of the gathered tensor); in the first, row 1 is reached only
# by a -0.0 in column 0 and rows 2, 3 and 5 not at all.
SCATTER_CASES = {
    "duplicates_and_unreferenced_rows": (np.array([4, 0, 4, 4, 1, 0, 4, 4, 4]), 6),
    "every_row_once": (np.array([2, 0, 1]), 3),
    "empty_index": (np.zeros(0, dtype=np.int64), 4),
    "one_row_source": (np.zeros(7, dtype=np.int64), 1),
    "neighbour_table": (knn(_CLOUD_200, _CLOUD_200, 8).indices, 200),
}


@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_scatter_rounds_bitwise_equal_add_at(case):
    idx, n_rows = SCATTER_CASES[case]
    rows = T.RowIndex(idx)
    rng = np.random.default_rng(len(case))
    g = _scatter_gradient(idx.size, rng)
    got = rows.scatter_add(n_rows, g.shape[1], lambda pos: g[pos])
    assert got.tobytes() == _add_at(idx, g, n_rows).tobytes()
    assert sorted(rows.positions.tolist()) == list(range(idx.size))
    for r, (a, b) in enumerate(zip([0, *rows.ends], rows.ends)):
        round_rows, pos = rows.targets[a:b], rows.positions[a:b]
        assert np.unique(round_rows).size == round_rows.size
        assert np.array_equal(np.asarray(idx).ravel()[pos], round_rows), r


@pytest.mark.parametrize("case", ["duplicates_and_unreferenced_rows", "every_row_once",
                                  "neighbour_table"])
def test_gather_rows_backward_in_chunks_that_end_inside_rounds_is_add_at(monkeypatch, case):
    # Width 3 and 7 elements per block: chunks of at most 2 positions, so
    # every round longer than 2 is cut inside; each row still sums its
    # gradient rows in index order.
    idx, n_rows = SCATTER_CASES[case]
    monkeypatch.setattr(T, "BLOCK_ELEMS", 7)
    real, chunks = T.RowIndex.scatter_add, []

    def scatter_add(self, n, width, rows_at):
        return real(self, n, width, lambda pos: chunks.append(pos.size) or rows_at(pos))
    monkeypatch.setattr(T.RowIndex, "scatter_add", scatter_add)
    rng = np.random.default_rng(8)
    a, g = tensor(rng.normal(size=(n_rows, 3))), _scatter_gradient(idx.size, rng)
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(T.gather_rows(a, idx), tensor(g)))
    assert backward(tape, loss).wrt(a).tobytes() == _add_at(idx, g, n_rows).tobytes()
    rounds = np.diff([0, *T.RowIndex(idx).ends])
    assert rounds.max() > 2
    assert chunks == [min(2, r - c0) for r in rounds for c0 in range(0, r, 2)]


@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_gather_rows_same_bytes_with_row_index_and_raw_array(case):
    idx, n_rows = SCATTER_CASES[case]
    rng = np.random.default_rng(7)
    a = tensor(rng.normal(size=(n_rows, 3)))
    g = _scatter_gradient(idx.size, rng)
    results = []
    for index in (idx, T.RowIndex(idx)):
        with Tape() as tape:
            out = T.gather_rows(a, index)
            loss = T.reduce_sum(T.mul(out, tensor(g)))
        results.append((out.data.tobytes(), backward(tape, loss).wrt(a).tobytes()))
    assert results[0] == results[1]
    assert results[0][1] == _add_at(idx, g, n_rows).tobytes()


def test_row_index_is_a_read_only_copy():
    idx = np.array([[2, 0], [1, 2]])
    rows = T.RowIndex(idx)
    idx[0, 0] = 1
    assert rows.flat.tolist() == [2, 0, 1, 2]
    with pytest.raises(ValueError):
        rows.flat[0] = 0


def _bytes_and_grads(build, leaves):
    """Output bytes and the bytes of every leaf's gradient, for `build`,
    which returns (output, scalar loss) while a tape records."""
    with Tape() as tape:
        out, loss = build()
    grads = backward(tape, loss)
    return [out.data.tobytes()] + [grads.wrt(t).tobytes() for t in leaves]


def _linear_chain(x, w, b, relu=False):
    z = T.add(T.matmul(x, w), b)
    return T.relu(z) if relu else z


def _linear_case(case, rng):
    """(x, w, b) for `case`."""
    if case == "shared_x_w":
        x = tensor(rng.normal(size=(5, 5)), trainable=True)
        return x, x, tensor(rng.normal(size=5), trainable=True)
    n = 1 if case == "single_row" else 6
    xd, wd, bd = rng.normal(size=(n, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
    if case == "zero_preactivations":
        # Column 0 cancels to +0.0 exactly; row 0 holds underflowing
        # negative products, which this BLAS sums to -0.0, plus b = -0.0.
        xd[:, 1:], wd[1:, 0], wd[0, 0] = 0.0, 0.0, 2.0
        xd[:, 0] = 0.5
        bd[0] = -1.0
        xd[0], wd[:, 1:], bd[1:] = -1e-200, 1e-200, -0.0
    return (tensor(xd, trainable=True), tensor(wd, trainable=True),
            tensor(bd, trainable=True))


LINEAR_CASES = ["distinct", "single_row", "zero_preactivations", "shared_x_w",
                "x_used_downstream"]


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("case", LINEAR_CASES)
def test_linear_bitwise_equals_matmul_add_relu_chain(case, relu):
    rng = np.random.default_rng(len(case))
    x, w, b = _linear_case(case, rng)
    z = x.data @ w.data + b.data
    if case == "zero_preactivations":
        assert (z == 0.0).sum() >= 6
    upstream = tensor(rng.normal(size=z.shape))
    upstream.data[::2, ::2] = 0.0

    def run(op):
        def build():
            y = op(x, w, b, relu=relu)
            loss = T.reduce_sum(T.mul(y, upstream))
            if case == "x_used_downstream":
                loss = T.add(loss, T.reduce_sum(T.mul(x, x)))
            return y, loss
        return _bytes_and_grads(build, [x, w, b])

    assert run(T.linear) == run(_linear_chain)


def _kept_bytes(build) -> tuple[int, list]:
    """Bytes still allocated after `build()` runs on a tape, with the tape
    and the result alive, and the tape's nodes."""
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = build()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return kept, tape.nodes


@pytest.mark.parametrize("relu", [False, True])
def test_linear_keeps_only_its_output(relu):
    rng = np.random.default_rng(21)
    x, w, b = (tensor(rng.normal(size=s)) for s in ((2000, 16), (16, 64), (64,)))
    kept, nodes = _kept_bytes(lambda: T.linear(x, w, b, relu=relu))
    assert [node.op for node in nodes] == ["linear"]
    # The chain keeps x @ w, then + b, then the ReLU output: 2 or 3 times.
    assert 2000 * 64 * 8 <= kept < 1.1 * 2000 * 64 * 8


def test_linear_rejects_mismatched_operands():
    x, w = tensor(np.zeros((4, 3))), tensor(np.zeros((3, 2)))
    for bad in ((tensor(np.zeros((4, 2))), w, np.zeros(2)),
                (x, w, np.zeros(3)),
                (x, w, np.zeros((5, 2))),
                (x, w, np.zeros((1, 4, 2))),
                (x, w, np.zeros((1, 2))),
                (x, w, np.zeros((4, 2)))):
        with pytest.raises(ShapeError):
            T.linear(*bad)


def _offset_head_chain(p, alpha, y, g):
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


def _norm_head_case(case, rng):
    """(y, g, alpha, params, upstream gradient) for `case`."""
    n, d = {"two_rows": (2, 3), "shared_gain_shift": (6, 32),
            "n2000_d32": (2000, 32)}.get(case, (4, 3))
    y, g, w, upstream = (rng.normal(size=s) for s in ((n, d), (n, d), (d, d), (n, d)))
    b, gain, shift = (rng.normal(size=d) for _ in range(3))
    alpha = rng.normal()
    if case == "constant_column":
        # z[:, 0] is 1.5 in every row; over 4 rows its mean is exact.
        w[:, 0], b[0] = 0.0, 1.5
    if case in ("dead_column", "negative_upstream"):
        # Standardized values lie within ±sqrt(n - 1), so no row survives.
        gain[1], shift[1] = 1.0, -10.0
    if case == "negative_upstream":
        upstream, alpha = -np.abs(upstream), abs(alpha)
    if case == "all_dead":
        # No column survives and the upstream gradient has both signs, so
        # every column of the gradient at z is zeros of both signs, and
        # both BLAS products and the bias sum take all-zero columns.
        gain[:], shift[:] = 1.0, -10.0
    p = NormActParams(*(tensor(a, trainable=True) for a in (w, b, gain, shift)))
    if case == "shared_gain_shift":
        p.shift = p.gain
    return (tensor(y, trainable=True), tensor(g, trainable=True),
            Tensor(np.asarray(alpha), trainable=True), p, tensor(upstream))


NORM_HEAD_CASES = ["distinct", "two_rows", "constant_column", "dead_column",
                   "negative_upstream", "all_dead", "shared_gain_shift", "n2000_d32"]


@pytest.mark.parametrize("case", NORM_HEAD_CASES)
def test_norm_act_head_bitwise_equals_linear_and_twelve_op_chain(case):
    rng = np.random.default_rng(len(case))
    y, g, alpha, p, upstream = _norm_head_case(case, rng)

    def run(op):
        def build():
            out = op(p, alpha, y, g)
            loss = T.reduce_sum(T.mul(out, upstream))
            if case == "shared_gain_shift":
                # The shared tensor's gradient then sums three terms, whose
                # order shows in the bytes.
                loss = T.add(loss, T.reduce_sum(T.mul(p.gain, p.gain)))
            return out, loss
        return _bytes_and_grads(build, [y, g, alpha, p.weight, p.bias, p.gain, p.shift])

    fused = run(T.offset_head)
    assert fused == run(_offset_head_chain)
    out, *grads = (np.frombuffer(b) for b in fused)
    assert all(np.isfinite(gr).all() for gr in grads)
    out, yd, ad = out.reshape(y.shape), y.data, alpha.data
    if case == "constant_column":
        assert (out[:, 0] == yd[:, 0] + max(p.shift.data[0], 0.0) * ad).all()
    if case in ("dead_column", "negative_upstream"):
        assert (out[:, 1] == yd[:, 1]).all() and grads[6][1] == 0.0
    if case == "negative_upstream":
        # The ReLU mask turns every incoming gradient it drops into -0.0.
        dropped = out == yd
        assert (upstream.data[dropped] < 0.0).all() and dropped.sum() >= 4
    if case == "all_dead":
        # Numpy's sums and the BLAS products start at +0.0, so every head
        # gradient is +0.0 and g's, the negated product, is -0.0.
        assert (out == yd).all() and grads[0].tobytes() == upstream.data.tobytes()
        assert all(not np.signbit(gr).any() for gr in grads[2:])
        assert np.signbit(grads[1]).all()


def test_norm_act_head_backpropagates_twice_with_the_same_bytes():
    # Backward reads the kept head output and centered rows and must leave
    # them as they were.
    rng = np.random.default_rng(23)
    y, g, alpha, p, upstream = _norm_head_case("distinct", rng)
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(T.offset_head(p, alpha, y, g), upstream))
    assert [node.op for node in tape.nodes] == ["offset_head", "mul", "reduce_sum"]
    first, second = (backward(tape, loss) for _ in range(2))
    for t in (y, g, alpha, p.weight, p.bias, p.gain, p.shift):
        assert first.wrt(t).tobytes() == second.wrt(t).tobytes()


def test_norm_act_head_keeps_no_more_than_its_chain():
    rng = np.random.default_rng(24)
    y, g, alpha, p, _ = _norm_head_case("n2000_d32", rng)
    kept, nodes = _kept_bytes(lambda: T.offset_head(p, alpha, y, g))
    chain_kept, chain_nodes = _kept_bytes(lambda: _offset_head_chain(p, alpha, y, g))
    assert [node.op for node in nodes] == ["offset_head"] and len(chain_nodes) == 16
    # The node keeps its output, the head's output and the centered rows;
    # the chain keeps ten N x D arrays.
    rows_bytes = y.data.nbytes
    assert 3 * rows_bytes <= kept < 3.1 * rows_bytes
    assert kept <= chain_kept


def test_norm_act_head_rejects_mismatched_params():
    y, g, alpha = tensor(np.zeros((4, 3))), tensor(np.zeros((4, 3))), Tensor(np.zeros(()))
    for field, bad in (("weight", np.zeros((2, 3))), ("weight", np.zeros((3, 2))),
                       ("bias", np.zeros(2)), ("gain", np.zeros((1, 3))),
                       ("shift", np.zeros(4))):
        p = _identity_head(3)
        setattr(p, field, tensor(bad))
        with pytest.raises(ShapeError):
            T.offset_head(p, alpha, y, g)
    for bad_alpha, bad_y, bad_g in ((tensor(np.zeros(3)), y, g),
                                    (alpha, y, tensor(np.zeros((5, 3)))),
                                    (alpha, tensor(np.zeros(3)), tensor(np.zeros(3)))):
        with pytest.raises(ShapeError):
            T.offset_head(_identity_head(3), bad_alpha, bad_y, bad_g)



def _local_aggregate_chain(weights, v, rows):
    n, k = weights.shape
    picked = T.gather_rows(v, rows)
    weighted = T.mul(picked, T.reshape(weights, (n * k, 1)))
    return T.reduce_sum(T.reshape(weighted, (n, k, v.shape[1])), axis=1)


def _local_case(case, rng):
    """(weights, v, index) for `case`."""
    if case == "shared_weights_and_values":
        a = tensor(rng.normal(size=(6, 3)), trainable=True)
        return a, a, rng.integers(0, 6, size=18)
    if case == "self_neighbours":
        cloud = PointCloud(rng.normal(size=(40, 3)))
        idx = knn(cloud, cloud, 5, include_self=True).indices
    elif case == "single_row":
        idx = np.array([[2, 0, 2]])
    else:   # duplicates, rows reached only once or never
        idx = np.array([[4, 0, 4], [4, 1, 0], [4, 4, 4], [3, 3, 0]])
    n, k = idx.shape
    weights = rng.normal(size=(n, k))
    # Products whose sum over k depends on the order of addition, and
    # exact ±0.0 weights.
    weights[:, 0], weights[0, 1:3] = 1e16, [-0.0, 0.0]
    v = _scatter_gradient(max(5, n), rng)
    # Against an upstream gradient row of ones, these rows give a dot
    # product of 0 or 1 by the order of addition.
    v[::2] = [1.0, 1e16, -1e16]
    return tensor(weights, trainable=True), tensor(v, trainable=True), idx


@pytest.mark.parametrize("case", ["duplicates", "self_neighbours", "single_row",
                                  "shared_weights_and_values"])
@pytest.mark.parametrize("row_index", [False, True])
def test_local_aggregate_bitwise_equals_gather_mul_sum_chain(case, row_index):
    rng = np.random.default_rng(len(case))
    weights, v, idx = _local_case(case, rng)
    rows = T.RowIndex(idx) if row_index else idx
    upstream = _scatter_gradient(weights.shape[0], rng)
    upstream[1::2] = 1.0
    upstream = tensor(upstream)

    def run(op):
        def build():
            out = op(weights, v, rows)
            # With the shared tensor also used downstream, its gradient sums
            # three terms, whose order shows in the bytes.
            return out, T.add(T.reduce_sum(T.mul(out, upstream)),
                              T.reduce_sum(T.mul(v, v)))
        return _bytes_and_grads(build, [weights, v])

    assert run(chain_ops.local_aggregate) == run(_local_aggregate_chain)


def test_local_aggregate_keeps_no_gathered_rows():
    n, k, dm = 200, 8, 32
    rng = np.random.default_rng(22)
    weights, v = tensor(rng.normal(size=(n, k))), tensor(rng.normal(size=(n, dm)))
    rows = T.RowIndex(rng.integers(0, n, size=(n, k)))
    kept, nodes = _kept_bytes(lambda: chain_ops.local_aggregate(weights, v, rows))
    assert [node.op for node in nodes] == ["local_aggregate"]
    # The N x Dm output and bookkeeping; the chain keeps two N·k x Dm arrays.
    assert n * dm * 8 <= kept < 2 * n * dm * 8


def test_local_aggregate_rejects_mismatched_operands():
    w, v = tensor(np.zeros((4, 2))), tensor(np.zeros((5, 3)))
    for bad in ((w, v, np.zeros(7, dtype=int)),
                (w, v, np.full(8, 5)),
                (w, v, np.full(8, -1)),
                (tensor(np.zeros((4, 2, 1))), v, np.zeros(8, dtype=int)),
                (w, tensor(np.zeros(5)), np.zeros(8, dtype=int))):
        with pytest.raises(ShapeError):
            chain_ops.local_aggregate(*bad)


def _score_layer_chain(enc, w, b, context, idx, relu=False):
    n, k = idx.shape
    own = np.repeat(np.arange(n), k)
    return T.linear(T.concat_cols([enc, T.gather_rows(context, idx), T.gather_rows(context, own)]),
                    w, b, relu=relu)


def _score_case(case, rng):
    """(enc, w, b, context, index) for `case`; enc, w and b trainable."""
    if case == "self_neighbours":
        cloud = PointCloud(rng.normal(size=(40, 3)))
        idx = knn(cloud, cloud, 5, include_self=True).indices
    elif case == "k_one":
        idx = np.array([[2], [0], [0], [3]])
    else:   # duplicates, self neighbours, a row no point reaches
        idx = np.array([[0, 0, 2], [1, 3, 1], [2, 2, 2], [0, 3, 3], [0, 0, 0]])
    (n, k), de, dc, h = idx.shape, 3, 4, 5
    enc, w, b = rng.normal(size=(n * k, de)), rng.normal(size=(de + 2 * dc, h)), rng.normal(size=h)
    if case == "zero_preactivations":
        # Columns 0 and 1 of every pre-activation sum ±0.0 terms only.
        w[:, :2], b[:2] = 0.0, [0.0, -0.0]
    return (tensor(enc, trainable=True), tensor(w, trainable=True), tensor(b, trainable=True),
            tensor(rng.normal(size=(n, dc))), idx)


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("case", ["duplicates", "self_neighbours", "k_one",
                                  "zero_preactivations"])
def test_score_layer_matches_concat_linear_chain(case, relu):
    rng = np.random.default_rng(len(case))
    enc, w, b, context, idx = _score_case(case, rng)
    upstream = tensor(rng.normal(size=(enc.shape[0], w.shape[1])))

    def run(op):
        with Tape() as tape:
            y = op(enc, w, b, context, idx, relu=relu)
            loss = T.reduce_sum(T.mul(y, upstream))
        grads = backward(tape, loss)
        return [y.data] + [grads.wrt(t) for t in (enc, w, b)]

    fused, chain = run(chain_ops.score_layer), run(_score_layer_chain)
    # The sums run in another order, so the two agree to rounding only.
    for got, want in zip(fused, chain):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    if case == "zero_preactivations":
        assert not fused[0][:, :2].any()
        # A ±0.0 pre-activation passes no gradient through the ReLU.
        assert (fused[3][:2] == 0.0).all() == relu


@pytest.mark.parametrize("relu", [False, True])
def test_grad_score_layer(relu):
    rng = np.random.default_rng(23)
    idx = np.array([[1, 1], [0, 2], [2, 0]])
    context, upstream = tensor(rng.normal(size=(3, 2))), tensor(rng.normal(size=(6, 4)))
    _assert_grads_match(
        lambda te, tw, tb: T.reduce_sum(T.mul(chain_ops.score_layer(te, tw, tb, context, idx, relu),
                                              upstream)),
        rng.normal(size=(6, 3)), rng.normal(size=(7, 4)), rng.normal(size=4))


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("case", ["duplicates", "self_neighbours", "k_one"])
def test_score_layer_w_gradient_is_three_stacked_products(case, relu):
    # The bytes that keep params.gtc fixed: W_e, W_j and W_i's blocks are
    # these three products, in this order of summation.
    rng = np.random.default_rng(len(case))
    enc, w, b, context, idx = _score_case(case, rng)
    (n, k), h = idx.shape, w.shape[1]
    upstream = rng.normal(size=(n * k, h))
    with Tape() as tape:
        y = chain_ops.score_layer(enc, w, b, context, idx, relu=relu)
    [node] = tape.nodes
    _, _, gw = node.backward_fn(upstream)
    g = upstream * (y.data > 0.0) if relu else upstream
    cd = context.data
    want = np.vstack([enc.data.T @ g, cd[idx.ravel()].T @ g,
                      cd.T @ g.reshape(n, k, h).sum(axis=1)])
    assert gw.tobytes() == want.tobytes()


def test_score_layer_keeps_only_its_output():
    n, k, de, dc, h = 200, 8, 8, 32, 32
    rng = np.random.default_rng(24)
    enc, w, b = (tensor(rng.normal(size=s)) for s in ((n * k, de), (de + 2 * dc, h), (h,)))
    context, idx = tensor(rng.normal(size=(n, dc))), rng.integers(0, n, size=(n, k))
    rows = T.RowIndex(idx)
    kept, nodes = _kept_bytes(lambda: chain_ops.score_layer(enc, w, b, context, rows, True))
    assert [node.op for node in nodes] == ["score_layer"]
    # The chain also keeps the N·k x (De + 2Dc) input and the gathered rows.
    assert n * k * h * 8 <= kept < 1.1 * n * k * h * 8


def test_score_layer_rejects_mismatched_operands():
    enc, w, b = np.zeros((6, 3)), np.zeros((7, 4)), np.zeros(4)
    context, idx = np.zeros((3, 2)), np.zeros(6, dtype=int)
    for bad in ((enc[:5], w, b, context, idx),
                (enc, w[:6], b, context, idx),
                (enc, w, b[:3], context, idx),
                (enc, w, b, context, np.full(6, 3)),
                (enc[:4], w, b, context, idx[:4]),
                (enc[:0], w, b, context, idx[:0])):
        with pytest.raises(ShapeError):
            chain_ops.score_layer(*bad)


def _route_case(rng, n=10, k=3, dc=4, dm=4, disp_hidden=(4,), de=2, score_hidden=(5,)):
    """(encoder, score, disp, context, v, rows) for :func:`T.local_route`,
    with trainable layers and v, and neighbour rows with duplicates, self
    neighbours and rows no point reaches. With `disp_hidden` None the
    encoder has no layers (the identity, so De = 3)."""
    def stack(dims):
        return MlpParams([(tensor(rng.normal(size=(a, b)), trainable=True),
                           tensor(rng.normal(size=b), trainable=True))
                          for a, b in zip(dims[:-1], dims[1:])])
    idx = rng.integers(0, n - 1, size=(n, k))
    idx[0], idx[1, :2] = 0, 3
    if disp_hidden is None:
        encoder, de = MlpParams([]), 3
    else:
        encoder = stack((3, *disp_hidden, de))
    return (encoder, stack((de + 2 * dc, *score_hidden, 1)),
            rng.normal(size=(n * k, 3)), tensor(rng.normal(size=(n, dc))),
            tensor(rng.normal(size=(n, dm)), trainable=True), T.RowIndex(idx))


def _route_chain(encoder, score, disp, context, v, rows):
    """The chain local_route stands for, from its two former fused ops."""
    n = context.shape[0]
    enc = T.mlp_forward(encoder, disp)
    (w0, b0), *rest = score.layers
    h = chain_ops.score_layer(enc, w0, b0, context, rows, relu=bool(rest))
    weights = T.softmax_rows(T.reshape(T.mlp_forward(MlpParams(rest), h),
                                       (n, rows.flat.size // n)))
    return chain_ops.local_aggregate(weights, v, rows), weights.data


def _route_run(op, case, upstream):
    """[output, weights, v's gradient, then each layer's w and b gradient]."""
    encoder, score, disp, context, v, rows = case
    with Tape() as tape:
        out, weights = op(encoder, score, disp, context, v, rows)
        loss = T.reduce_sum(T.mul(out, upstream))
    grads = backward(tape, loss)
    leaves = [v] + [t for w, b in encoder.layers + score.layers for t in (w, b)]
    return [out.data, np.array(weights)] + [grads.wrt(t) for t in leaves]


def _route_upstream(rng, case):
    # Magnitudes from 1e-6 to 1e6, so that sums depend on their order.
    n, dm = case[4].shape
    return tensor(rng.normal(size=(n, dm)) * 10.0 ** rng.integers(-6, 7, size=(n, dm)))


@pytest.mark.parametrize("disp_hidden, score_hidden", [((4,), ()), ((4,), (5,)),
                                                       ((4,), (5, 3)), ((), (5,)),
                                                       (None, ())])
def test_local_route_is_its_chain_at_one_block(disp_hidden, score_hidden):
    rng = np.random.default_rng(30)
    case = _route_case(rng, disp_hidden=disp_hidden, score_hidden=score_hidden)
    upstream = _route_upstream(rng, case)
    got, want = (_route_run(op, case, upstream) for op in (T.local_route, _route_chain))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("disp_hidden, score_hidden", [((4,), (5,)), ((), (5, 3)),
                                                       (None, (5, 3))])
def test_local_route_over_blocks_matches_one_block(monkeypatch, disp_hidden, score_hidden):
    rng = np.random.default_rng(31)
    case = _route_case(rng, disp_hidden=disp_hidden, score_hidden=score_hidden)
    upstream = _route_upstream(rng, case)
    one_block = _route_run(T.local_route, case, upstream)
    # Width 5 (the widest layer): blocks of 3, 3, 3 and 1 points.
    monkeypatch.setattr(T, "BLOCK_ELEMS", 3 * 3 * 5)
    assert T.local_block_points(10, 3, 5) == 3
    blocked = _route_run(T.local_route, case, upstream)
    # v's gradient is scattered once, after the block loop, in chunks of
    # at most one block of rows: the bytes of one block's scatter.
    assert blocked[2].tobytes() == one_block[2].tobytes()
    # Each block repeats the chain's expressions on its own rows, and each
    # parameter gradient is a sum of block partials: they agree to 1e-12
    # of the largest entry of any of them (the last score bias's gradient
    # sums softmax gradient rows, which cancel to rounding noise).
    scale = max(np.abs(a).max() for a in one_block)
    for got, want in zip(blocked, one_block):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def test_local_route_backward_recomputes_every_block_but_the_last(monkeypatch):
    rng = np.random.default_rng(32)
    case = _route_case(rng)
    upstream = _route_upstream(rng, case).data
    real = T._affine
    calls = []
    monkeypatch.setattr(T, "_affine", lambda *args: calls.append(1) or real(*args))
    # Three layers run per block: the encoder's two and the score
    # layer after the first.
    for block_elems, blocks in ((None, 1), (3 * 3 * 5, 4)):
        if block_elems is not None:
            monkeypatch.setattr(T, "BLOCK_ELEMS", block_elems)
        calls.clear()
        with Tape() as tape:
            T.local_route(*case)
        assert len(calls) == 3 * blocks
        calls.clear()
        tape.nodes[-1].backward_fn(upstream)
        assert len(calls) == 3 * (blocks - 1)


@pytest.mark.parametrize("block_elems", [None, 3 * 3 * 5])
def test_local_route_replays_and_backpropagates_twice(monkeypatch, block_elems):
    if block_elems is not None:
        monkeypatch.setattr(T, "BLOCK_ELEMS", block_elems)
    rng = np.random.default_rng(33)
    case = _route_case(rng)
    upstream = _route_upstream(rng, case)
    encoder, score, _, _, v, _ = case
    with Tape() as tape:
        out, weights = T.local_route(*case)
        loss = T.reduce_sum(T.mul(out, upstream))
    first, second = (backward(tape, loss) for _ in range(2))
    leaves = [v] + [t for w, b in encoder.layers + score.layers for t in (w, b)]
    assert [first.wrt(t).tobytes() for t in leaves] == [second.wrt(t).tobytes() for t in leaves]
    before = weights.tobytes()
    assert tape.replay()
    assert weights.tobytes() == before
    v.data[0, 0] += 1.0
    assert not tape.replay()


@pytest.mark.parametrize("points", [400, 100, 25])
def test_local_route_keeps_its_output_weights_and_one_block(monkeypatch, points):
    n, k, dm = 400, 8, 16
    case = _route_case(np.random.default_rng(34), n=n, k=k, dc=16, dm=dm, disp_hidden=(16,),
                       de=8, score_hidden=(32,))
    # Width 32: blocks of `points` points.
    monkeypatch.setattr(T, "BLOCK_ELEMS", points * k * 32)
    kept, nodes = _kept_bytes(lambda: T.local_route(*case))
    assert [node.op for node in nodes] == ["local_route"]
    # The N x Dm output, the N x k weights and one block's layer outputs
    # (16 + 8 + 32 + 1 columns per neighbour row), whatever the number of
    # blocks; the chain keeps all N·k rows of every layer.
    floor = n * (dm + k) * 8
    assert floor <= kept < floor + points * k * (16 + 8 + 32 + 1) * 8 + 8192


def test_local_route_rejects_mismatched_operands():
    rng = np.random.default_rng(35)
    encoder, score, disp, context, v, rows = _route_case(rng)
    short = MlpParams(score.layers[:1])
    for bad in ((encoder, score, disp[:-3], context, v, rows),
                (encoder, score, disp, context, v.data[:-1], rows),
                (encoder, score, disp, context.data[:, :3], v, rows),
                (encoder, score, disp, context, v, np.full(30, 10)),
                (encoder, score, disp, context, v, rows.flat[:-1]),
                (encoder, MlpParams([]), disp, context, v, rows),
                (encoder, MlpParams(score.layers[::-1]), disp, context, v, rows),
                (MlpParams(encoder.layers[1:]), score, disp, context, v, rows),
                (encoder, short, disp, context, v, rows)):
        with pytest.raises(ShapeError):
            T.local_route(*bad)


def test_grad_softmax_rows():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 4))
    _assert_grads_match(
        lambda t: T.reduce_sum(T.mul(T.softmax_rows(t), tensor(w))), x)


# A scale of None stands for the unscaled route (scale_logits off): the
# fused ops take c = 1.0 there, while the chain and the numpy reference
# form their logits with no multiply, so those cases pin that the unscaled
# route kept its bytes.
def _op_scale(c):
    return 1.0 if c is None else c


@pytest.mark.parametrize("n", [7, 300])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("c", [None, 1.0 / np.sqrt(5)])
def test_attention_weights_bitwise_equals_four_op_chain(n, shared, c):
    # The untaped reader behind AttentionMap.global_weights.
    rng = np.random.default_rng(n)
    q = tensor(rng.normal(size=(n, 5)))
    k = q if shared else tensor(rng.normal(size=(n + 3, 5)))
    with Tape() as tape:
        got = T.attention_weights_data(q, k, _op_scale(c))
    assert not tape.nodes
    assert got.tobytes() == chain_ops.softmax_chain(q, k, c).data.tobytes()


def _attention_operands(n, shared, c, extra_keys=3, max_logit=None):
    """Seeded q, k, v and an upstream gradient for n queries; k is q when
    `shared`. With `max_logit`, q and k are scaled so that the largest
    |c · q kᵀ| is about that value."""
    rng = np.random.default_rng(n)
    qd = rng.normal(size=(n, 5))
    kd = qd if shared else rng.normal(size=(n + extra_keys, 5))
    if max_logit is not None:
        factor = np.sqrt(max_logit / np.abs((1.0 if c is None else c) * (qd @ kd.T)).max())
        qd = qd * factor
        kd = qd if shared else kd * factor
    return qd, kd, rng.normal(size=(kd.shape[0], 4)), rng.normal(size=(n, 4))


def _attention_run(op, n, shared, c, extra_keys=3, max_logit=None):
    """Output and (q, k, v) gradients of op(q, k, v, c) under a fixed
    upstream gradient; q and k are one tensor when `shared`."""
    qd, kd, vd, upstream = _attention_operands(n, shared, c, extra_keys, max_logit)
    q = tensor(qd, trainable=True)
    k = q if shared else tensor(kd, trainable=True)
    v = tensor(vd, trainable=True)
    with Tape() as tape:
        out = op(q, k, v, c)
        loss = T.reduce_sum(T.mul(out, tensor(upstream)))
    grads = backward(tape, loss)
    return [out.data, grads.wrt(q), grads.wrt(k), grads.wrt(v)]


def _attention_chain_then_blend(q, k, v, c):
    return T.matmul(chain_ops.softmax_chain(q, k, c), v)


def _fused_attention(q, k, v, c):
    return T.attention(q, k, v, _op_scale(c))


def _attention_reference(qd, kd, vd, c):
    """attention's forward expressions in numpy: the shifted exponentials
    of the logits, E @ v, then a divide by E's row sums."""
    logits = qd @ np.ascontiguousarray(kd.T)
    if c is not None:
        logits *= c
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e @ vd) / e.sum(axis=1, keepdims=True)


ATTENTION_SCALES = [None, 1.0 / np.sqrt(5), 0.4]


@pytest.mark.parametrize("n", [7, 300])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("c", ATTENTION_SCALES)
def test_attention_one_block_bitwise_equals_numpy_reference(n, shared, c):
    qd, kd, vd, _ = _attention_operands(n, shared, c)
    got = _attention_run(_fused_attention, n, shared, c)[0]
    assert got.tobytes() == _attention_reference(qd, kd, vd, c).tobytes()


def _assert_attention_runs_close(got, want):
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("n", [7, 300])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("c", ATTENTION_SCALES)
def test_attention_matches_weights_then_matmul(n, shared, c):
    # Output and q, k, v gradients: the fused node normalises after E @ v
    # and takes the softmax row term from rowsum(dO * O), so it agrees
    # with the chain to rounding.
    _assert_attention_runs_close(_attention_run(_fused_attention, n, shared, c),
                                 _attention_run(_attention_chain_then_blend, n, shared, c))


def _count_attention_blocks(monkeypatch, kernel: str = "_exp_rows") -> list[int]:
    """Rows of every block that `kernel` computes from here on."""
    rows = []
    original = getattr(T, kernel)

    def counted(block, *args, **kwargs):
        rows.append(block.shape[0])
        return original(block, *args, **kwargs)
    monkeypatch.setattr(T, kernel, counted)
    return rows


def test_attention_forward_computes_each_block_once(monkeypatch):
    # Forward forms each block's logits and exponentials once, through
    # _block_exps; backward forms its exponentials without _exp_rows.
    rows = _count_attention_blocks(monkeypatch)
    _attention_run(T.attention, 300, False, 0.5)
    assert rows == [300]


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("c", [None, 0.4])
def test_attention_over_blocks_matches_one_block(monkeypatch, shared, c):
    one_block = _attention_run(_fused_attention, 50, shared, c, extra_keys=0)
    # 8-row blocks over 50 queries: six full blocks and one of 2 rows.
    monkeypatch.setattr(T, "BLOCK_ELEMS", 8 * 50)
    monkeypatch.setattr(T, "ATTENTION_MIN_ROWS", 1)
    rows = _count_attention_blocks(monkeypatch)
    folded = _count_attention_blocks(monkeypatch, "_folded_exps")
    blocked = _attention_run(_fused_attention, 50, shared, c, extra_keys=0)
    assert rows == folded == [8] * 6 + [2]
    # Every output row comes from the same expressions whatever the block;
    # the k and v gradients are sums over blocks.
    assert blocked[0].tobytes() == one_block[0].tobytes()
    _assert_attention_runs_close(blocked[1:], one_block[1:])


@pytest.mark.parametrize("c", [None, 0.4])
def test_attention_weights_reader_walks_forward_blocks(monkeypatch, c):
    # 8-row blocks over 50 queries, as above: the reader forms the weights
    # in forward's own blocks, so it returns the weights the route used.
    monkeypatch.setattr(T, "BLOCK_ELEMS", 8 * 50)
    monkeypatch.setattr(T, "ATTENTION_MIN_ROWS", 1)
    qd, kd, vd, _ = _attention_operands(50, False, c, extra_keys=0)
    q, k = tensor(qd), tensor(kd)
    blocks = _count_attention_blocks(monkeypatch)
    _fused_attention(q, k, tensor(vd), c)
    forward_blocks = blocks.copy()
    blocks.clear()
    with Tape() as tape:
        got = T.attention_weights_data(q, k, _op_scale(c))
    assert not tape.nodes
    assert blocks == forward_blocks == [8] * 6 + [2]
    for r0 in range(0, 50, 8):
        want = chain_ops.softmax_chain(tensor(qd[r0:r0 + 8]), k, c).data
        assert got[r0:r0 + 8].tobytes() == want.tobytes()


def test_attention_weights_reader_forms_one_block_in_its_result():
    # One block (N = M = 200): the reader forms E in the N x M result and
    # divides it there, so its peak is one N x M array (320 KB) plus small
    # ones: kᵀ, the row statistics and numpy's 64 KiB buffer for an
    # in-place broadcast ufunc. A separate block buffer would add 320 KB.
    qd, kd, _, _ = _attention_operands(200, False, 0.4, extra_keys=0)
    q, k = tensor(qd), tensor(kd)
    assert T.attention_block_rows(200, 200) == 200
    tracemalloc.start()
    try:
        got = T.attention_weights_data(q, k, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes <= peak < got.nbytes + 128 * 1024
    assert got.tobytes() == chain_ops.softmax_chain(q, k, 0.4).data.tobytes()


@pytest.mark.parametrize("floor", [4, 16, 64])
def test_attention_backward_recomputes_every_block_from_folded_operands(monkeypatch, floor):
    monkeypatch.setattr(T, "BLOCK_ELEMS", 8 * 50)
    monkeypatch.setattr(T, "ATTENTION_MIN_ROWS", floor)
    rng = np.random.default_rng(20)
    q, v = tensor(rng.normal(size=(50, 5))), tensor(rng.normal(size=(50, 4)))
    forward_rows = _count_attention_blocks(monkeypatch)
    with Tape() as tape:
        out = T.attention(q, q, v, 0.4)
    stats = _count_attention_blocks(monkeypatch)
    folded = _count_attention_blocks(monkeypatch, "_folded_exps")
    tape.nodes[-1].backward_fn(rng.normal(size=out.shape))
    # No row max, row sum or logits of its own: every block, the last one
    # included, comes from the folded operands, in forward's blocks of
    # max(8, floor) query rows.
    assert stats == []
    assert folded == forward_rows == {4: [8] * 6 + [2], 16: [16] * 3 + [2], 64: [50]}[floor]


@pytest.mark.parametrize("max_logit", [None, 900.0])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("c", [None, 0.4])
def test_attention_both_passes_walk_blocks_of_16_16_and_8_rows(monkeypatch, max_logit,
                                                                shared, c):
    # 40 queries over 40 (shared) or 43 keys: the element budget alone
    # would give blocks of 2 or 1 rows, as at large M; the 16-row floor
    # gives both passes blocks of 16, 16 and 8 rows.
    want = _attention_run(_attention_chain_then_blend, 40, shared, c, max_logit=max_logit)
    monkeypatch.setattr(T, "BLOCK_ELEMS", 80)
    monkeypatch.setattr(T, "ATTENTION_MIN_ROWS", 16)
    forward_rows = _count_attention_blocks(monkeypatch)
    backward_rows = _count_attention_blocks(monkeypatch, "_folded_exps")
    got = _attention_run(_fused_attention, 40, shared, c, max_logit=max_logit)
    assert forward_rows == backward_rows == [16, 16, 8]
    _assert_attention_runs_close(got, want)


def test_attention_block_rows_at_benchmark_and_golden_sizes():
    # One block at N=200 (the goldens, train_local_n200), 65 rows at
    # N=2000 (train_global_n2000), the 64-row floor at N=16384.
    assert T.attention_block_rows(200, 200) == 200
    assert T.attention_block_rows(2000, 2000) == 65
    assert T.attention_block_rows(16384, 16384) == 64
    # mlp_attention over 8-wide hidden layers: BLOCK_ELEMS // (8 M) rows.
    widest8 = [(np.zeros((1, 8)), None), (np.zeros((8, 1)), None)]
    assert [T.attention_block_rows(n, n, widest8) for n in (200, 2000, 8192)] == [81, 8, 1]


def test_attention_keeps_no_block_buffer():
    n, m, d, dv = 300, 400, 5, 4
    rng = np.random.default_rng(23)
    q, k, v = (tensor(rng.normal(size=s)) for s in ((n, d), (m, d), (m, dv)))
    kept, nodes = _kept_bytes(lambda: T.attention(q, k, v, 0.4))
    assert [node.op for node in nodes] == ["attention"]
    # The N x Dv output, the two N x 1 row statistics and bookkeeping; its
    # one 300 x 400 forward block alone would be 960,000 bytes.
    assert n * dv * 8 <= kept < (n + m) * (d + dv) * 8


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("c", [None, 0.4])
def test_attention_stays_finite_at_large_logits(shared, c):
    # Logits up to ±900: exp would overflow without the row max, and the
    # rows are close to one-hot.
    fused = _attention_run(_fused_attention, 40, shared, c, max_logit=900.0)
    assert all(np.isfinite(a).all() for a in fused)
    _assert_attention_runs_close(
        fused, _attention_run(_attention_chain_then_blend, 40, shared, c, max_logit=900.0))


def test_grad_attention():
    rng = np.random.default_rng(19)
    q = rng.normal(size=(4, 3))
    k = rng.normal(size=(5, 3))
    v = rng.normal(size=(5, 2))
    w = rng.normal(size=(4, 2))
    _assert_grads_match(
        lambda tq, tk, tv: T.reduce_sum(T.mul(T.attention(tq, tk, tv, 0.7), tensor(w))),
        q, k, v)
    _assert_grads_match(
        lambda t: T.reduce_sum(T.mul(T.attention(t, t, t, 1.0), tensor(w[:, :1]))), q[:, :1])


def test_attention_rejects_mismatched_operands():
    q, k = tensor(np.zeros((4, 3))), tensor(np.zeros((5, 3)))
    for v in (np.zeros((4, 2)), np.zeros(5)):
        with pytest.raises(ShapeError):
            T.attention(q, k, tensor(v), 1.0)
    with pytest.raises(ShapeError):
        T.attention(q, tensor(np.zeros((5, 2))), tensor(np.zeros((5, 2))), 1.0)
    with pytest.raises(ShapeError):
        T.attention(q, tensor(np.zeros((0, 3))), tensor(np.zeros((0, 2))), 1.0)


def _weight_mlp(rng, hidden):
    dims = (1, *hidden, 1)
    return MlpParams([(tensor(rng.normal(size=(a, b)), trainable=True),
                       tensor(rng.normal(size=b), trainable=True))
                      for a, b in zip(dims[:-1], dims[1:])])


def _mlp_attention_runs(hidden, shared, c, n=20):
    """Output, q, k and v gradients and the weight MLP's (w, b) gradients,
    layer by layer, of mlp_attention and of its chain (chain_ops), and the
    weights reader's array and the chain's weights, under one fixed
    upstream gradient; k is q when `shared`."""
    qd, kd, vd, upstream = _attention_operands(n, shared, c)
    mlp = _weight_mlp(np.random.default_rng(len(hidden)), hidden)
    q = tensor(qd, trainable=True)
    k = q if shared else tensor(kd, trainable=True)
    v = tensor(vd, trainable=True)
    chain_w = chain_ops.weight_mlp_chain(chain_ops.softmax_chain(q, k, c), mlp)
    runs = []
    for op in (lambda: T.mlp_attention(q, k, v, _op_scale(c), mlp),
               lambda: T.matmul(chain_ops.weight_mlp_chain(chain_ops.softmax_chain(q, k, c),
                                                           mlp), v)):
        with Tape() as tape:
            out = op()
            loss = T.reduce_sum(T.mul(out, tensor(upstream)))
        grads = backward(tape, loss)
        runs.append([out.data, *(grads.wrt(t) for t in (q, k, v)),
                     *(grads.wrt(t) for layer in mlp.layers for t in layer)])
    return runs, T.attention_weights_data(q, k, _op_scale(c), mlp), chain_w.data


@pytest.mark.parametrize("blocks", [1, 2, 20])
@pytest.mark.parametrize("hidden", [(), (8,), (3, 2)])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("c", [None, 0.4])
def test_mlp_attention_matches_weight_mlp_chain(monkeypatch, blocks, hidden, shared, c):
    # 20 queries in 1 block, 2 blocks of 10 rows or 20 blocks of 1 row: the
    # height is BLOCK_ELEMS // (M · widest layer).
    m, width = 20 if shared else 23, max([1, *hidden])
    monkeypatch.setattr(T, "BLOCK_ELEMS", 20 // blocks * m * width)
    rows = _count_attention_blocks(monkeypatch, "_weight_map")
    (got, want), weights, chain_weights = _mlp_attention_runs(hidden, shared, c)
    # Forward, backward and the reader each walk the same blocks.
    assert rows == [20 // blocks] * blocks * 3
    if blocks == 1:
        assert got[0].tobytes() == want[0].tobytes()
        assert weights.tobytes() == chain_weights.tobytes()
    np.testing.assert_allclose(weights, chain_weights, rtol=0, atol=1e-15)
    for g, w in zip(got, want, strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-10 * np.abs(w).max())


def test_mlp_attention_replays_and_backpropagates_twice(monkeypatch):
    monkeypatch.setattr(T, "BLOCK_ELEMS", 3 * 12 * 8)   # blocks of 3, 3, 3 and 1 rows
    rng = np.random.default_rng(24)
    mlp = _weight_mlp(rng, (8,))
    ops = [tensor(rng.normal(size=s), trainable=True) for s in ((10, 3), (12, 3), (12, 2))]
    with Tape() as tape:
        out = T.mlp_attention(*ops, 0.5, mlp)
        loss = T.reduce_sum(T.mul(out, out))
    first, second = (backward(tape, loss) for _ in range(2))
    for t in (*ops, *mlp.layers[0], *mlp.layers[1]):
        assert first.wrt(t).tobytes() == second.wrt(t).tobytes()
    assert tape.nodes[0].op == "mlp_attention"
    assert tape.replay()
    mlp.layers[0][0].data[0, 0] += 1.0
    assert not tape.replay()


def test_mlp_attention_rejects_a_stack_not_mapping_one_column_to_one():
    q, v = tensor(np.zeros((4, 3))), tensor(np.zeros((4, 2)))
    for layers in ([(np.zeros((2, 1)), np.zeros(1))], [(np.zeros((1, 2)), np.zeros(2))],
                   [(np.zeros((1, 1)), np.zeros(2))]):
        with pytest.raises(ShapeError):
            T.mlp_attention(q, q, v, 1.0, MlpParams(layers))
        with pytest.raises(ShapeError):
            T.attention_weights_data(q, q, 1.0, MlpParams(layers))
    with pytest.raises(ShapeError):
        T.mlp_attention(q, q, tensor(np.zeros((3, 2))), 1.0, MlpParams([]))


def test_softmax_backward_leaves_incoming_gradient_untouched():
    # add's backward hands one gradient array to both of its inputs.
    rng = np.random.default_rng(18)
    x = tensor(rng.normal(size=(6, 3)), trainable=True)
    for build in (lambda: chain_ops.softmax_chain(x, x, 0.5), lambda: T.softmax_rows(x),
                  lambda: T.attention(x, x, x, 0.5),
                  lambda: T.linear(T.transpose2(x), x, x.data[0], relu=True),
                  lambda: chain_ops.local_aggregate(x, x, np.arange(18) % 6),
                  lambda: chain_ops.score_layer(x, T.reshape(x, (9, 2)), x.data[0, :2], x,
                                        np.arange(6), relu=True),
                  lambda: T.offset_head(NormActParams(x.data[:3], *x.data[3:]), x.data[0, 0],
                                        x, x.data[::-1]),
                  lambda: T.mean_sq_dist(x, x.data[::-1])):
        with Tape() as tape:
            build()
        for node in tape.nodes:
            g = rng.normal(size=node.output.shape)
            before = g.tobytes()
            node.backward_fn(g)
            assert g.tobytes() == before


def test_grad_norm_head_full():
    rng = np.random.default_rng(12)
    y, agg = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    w, b = rng.normal(size=(3, 3)), rng.normal(size=3)
    g, s = rng.normal(size=3), rng.normal(size=3)
    upstream = tensor(rng.normal(size=(6, 3)))

    def build(ty, tagg, talpha, tw, tb, tg, ts):
        p = NormActParams(weight=tw, bias=tb, gain=tg, shift=ts)
        return T.reduce_sum(T.mul(T.offset_head(p, talpha, ty, tagg), upstream))

    _assert_grads_match(build, y, agg, np.array([0.7]), w, b, g, s)


def test_grad_mlp_forward():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 3))
    w0, b0 = rng.normal(size=(3, 4)), rng.normal(size=4)
    w1, b1 = rng.normal(size=(4, 1)), rng.normal(size=1)

    def build(tx, tw0, tb0, tw1, tb1):
        p = MlpParams([(tw0, tb0), (tw1, tb1)])
        return T.reduce_sum(T.mlp_forward(p, tx))

    _assert_grads_match(build, x, w0, b0, w1, b1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_grad_random_composite(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2))
    _assert_grads_match(
        lambda ta, tb: T.reduce_sum(T.softmax_rows(T.matmul(ta, tb))), a, b)


def test_shared_input_gradients_accumulate():
    x = tensor(np.array([2.0, 3.0]), trainable=True)
    with Tape() as tape:
        out = T.reduce_sum(T.add(x, x))
    np.testing.assert_array_equal(backward(tape, out).wrt(x), [2.0, 2.0])


def test_unreachable_tensor_gets_zero_gradient():
    x = tensor(np.ones((2, 2)), trainable=True)
    y = tensor(np.ones((2, 2)), trainable=True)
    with Tape() as tape:
        out = T.reduce_sum(x)
    np.testing.assert_array_equal(backward(tape, out).wrt(y), np.zeros((2, 2)))


def test_backward_rejects_a_gradient_of_the_wrong_shape():
    # A node whose backward hands its input the gradient in the output's
    # (transposed) layout: same size, wrong shape.
    x = tensor(np.arange(6.0).reshape(2, 3), trainable=True)
    with Tape() as tape:
        xt = Tensor(np.ascontiguousarray(x.data.T))
        tape.record("bad_transpose", (x,), xt, lambda: np.ascontiguousarray(x.data.T),
                    lambda g: (g,))
        loss = T.reduce_sum(T.mul(xt, xt))
    with pytest.raises(TapeError, match=r"bad_transpose.*\(3, 2\).*\(2, 3\)"):
        backward(tape, loss)


def test_backward_rejects_nonscalar_and_foreign_targets():
    x = tensor(np.ones((2, 2)))
    with Tape() as tape:
        y = T.add(x, x)
    with pytest.raises(TapeError):
        backward(tape, y)
    with Tape() as other:
        z = T.reduce_sum(x)
    with pytest.raises(TapeError):
        backward(tape, z)


def test_ops_work_without_a_tape():
    out = T.reduce_sum(T.mul(tensor([1.0, 2.0]), tensor([3.0, 4.0])))
    assert float(out.data) == 11.0


def test_replay_reproduces_outputs_bitwise():
    rng = np.random.default_rng(14)
    a = tensor(rng.normal(size=(4, 4)), trainable=True)
    with Tape() as tape:
        s = T.softmax_rows(T.matmul(a, T.transpose2(a)))
        pos = T.add_const(chain_ops.softplus(T.scale(a, -1.0)), 1.0)
        r = T.div(T.sqrt(pos), T.relu(pos))
        cat = T.concat_cols([s, T.attention(a, s, r, 0.5), r])
        rows = T.gather_rows(cat, [3, 0, 0, 2])
        col = T.reduce_sum(T.reshape(T.sub(rows, T.scale(cat, 2.0)), (8, 6)), axis=1)
        hidden = T.linear(cat, T.transpose2(cat), T.reduce_sum(a, axis=0), relu=True)
        blend = chain_ops.local_aggregate(T.linear(hidden, a, T.reduce_sum(a, axis=1)), hidden,
                                  T.RowIndex([1, 1, 0, 3] * 4))
        idx = [1, 1, 0, 3, 2, 2, 0, 1]
        chain_ops.score_layer(T.reshape(cat, (8, 6)), tensor(rng.normal(size=(14, 3))),
                      tensor(rng.normal(size=3)), a, idx, relu=True)
        head = T.offset_head(NormActParams(a, *a.data[:3]), a.data[0, 0], hidden,
                             hidden.data[::-1])
        route, _ = T.local_route(MlpParams([(tensor(rng.normal(size=(3, 2))), a.data[0, :2])]),
                                 MlpParams([(tensor(rng.normal(size=(10, 3))), a.data[1, :3]),
                                            (tensor(rng.normal(size=(3, 1))), [0.5])]),
                                 rng.normal(size=(8, 3)), a, blend, [1, 1, 0, 3, 2, 2, 0, 1])
        T.mlp_attention(a, s, r, 0.5, MlpParams([(tensor(rng.normal(size=(1, 2))), a.data[0, :2]),
                                                 (tensor(rng.normal(size=(2, 1))), [0.5])]))
        T.add(T.reduce_sum(T.add(col, T.mul(col, col))),
              T.add(T.reduce_sum(T.add(blend, route)), T.mean_sq_dist(head, hidden)))
    # Every op name that tensor.py records is on this one tape, and linear
    # with and without ReLU; so are the two chain references of local_route
    # and the softplus of mlp_attention's chain.
    ops = set(re.findall(r'(?:_record|_elementwise)\("(\w+)"', inspect.getsource(T)))
    assert len(ops) == 21
    assert {node.op for node in tape.nodes} == ops | {"score_layer", "local_aggregate",
                                                      "softplus"}
    assert [node.output.data.min() >= 0.0 for node in tape.nodes
            if node.op == "linear"] == [True, False]
    before = [node.output.data.tobytes() for node in tape.nodes]
    assert tape.replay()
    assert [node.output.data.tobytes() for node in tape.nodes] == before

    # A full pass with the global route on replays the attention node.
    cfg = AggregatorConfig(context_dim=4, motion_dim=4, qk_dim=3, disp_dim=2, k=3)
    params = init_params(cfg, seed=14)
    params.alpha = tensor(0.5, trainable=True)
    cloud = PointCloud(rng.normal(size=(12, 3)))
    feats = FeatureSet(rng.normal(size=(12, 4)), rng.normal(size=(12, 4)))
    with Tape() as tape:
        forward(params, prepare_inputs(cloud, feats, knn(cloud, cloud, cfg.k), cfg))
    assert "attention" in [node.op for node in tape.nodes]
    assert tape.replay()


def test_replay_detects_a_mutated_input():
    rng = np.random.default_rng(15)
    for op in (T.mul, lambda a, b: chain_ops.softmax_chain(a, b, 0.5),
               lambda a, b: T.softmax_rows(a), lambda a, b: T.linear(a, b, b.data[0]),
               lambda a, b: chain_ops.local_aggregate(b, a, T.RowIndex([0, 0, 1, 2, 2, 2, 0, 1, 1])),
               lambda a, b: chain_ops.score_layer(a, tensor(np.ones((9, 2))), tensor(np.ones(2)),
                                          b, [2, 0, 1]),
               lambda a, b: T.offset_head(NormActParams(b, *b.data), b.data[0, 0], a, b),
               T.mean_sq_dist):
        a = tensor(rng.normal(size=(3, 3)))
        b = tensor(rng.normal(size=(3, 3)))
        with Tape() as tape:
            op(a, b)
        assert tape.replay()
        a.data[0, 0] += 1.0
        assert not tape.replay()
    # The fused node also recomputes k's transpose from k.
    with Tape() as tape:
        T.attention(a, b, a, 0.5)
    b.data[0, 0] += 1.0
    assert not tape.replay()


@pytest.mark.parametrize("block_elems", [None, 3 * 12])
def test_attention_replays_and_backpropagates_twice(monkeypatch, block_elems):
    if block_elems is not None:
        monkeypatch.setattr(T, "BLOCK_ELEMS", block_elems)
        monkeypatch.setattr(T, "ATTENTION_MIN_ROWS", 1)
        assert T.attention_block_rows(10, 12) == 3   # blocks of 3, 3, 3 and 1 rows
    rng = np.random.default_rng(16)
    for mutated in range(3):
        ops = [tensor(rng.normal(size=(10, 3)), trainable=True),
               tensor(rng.normal(size=(12, 3)), trainable=True),
               tensor(rng.normal(size=(12, 2)), trainable=True)]
        with Tape() as tape:
            out = T.attention(*ops, 0.5)
            loss = T.reduce_sum(T.mul(out, out))
        first, second = (backward(tape, loss) for _ in range(2))
        for t in ops:
            assert first.wrt(t).tobytes() == second.wrt(t).tobytes()
        assert tape.replay()
        ops[mutated].data[-1, 0] += 1.0
        assert not tape.replay()


def test_tensor_factory_rejects_nonfinite():
    with pytest.raises(ValueError):
        tensor([1.0, float("nan")])
    with pytest.raises(ValueError):
        tensor([float("inf")])


def test_finite_diff_grad_quadratic():
    x = np.array([1.0, -2.0, 0.5])
    got = finite_diff_grad(lambda v: float((v * v).sum()), x)
    np.testing.assert_allclose(got, 2 * x, atol=1e-8)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_finite_diff_grad_flags_nonfinite_probe():
    with pytest.raises(NumericalError):
        finite_diff_grad(lambda v: float(np.log(v).sum()), np.array([1e-6, 1.0]))


def test_mlp_forward_rejects_layers_that_do_not_chain():
    # MlpParams holds its layers unchecked; the layer that runs them,
    # linear, rejects a bias of another width and a weight whose input
    # width is not the previous layer's output width.
    x = tensor(np.ones((2, 3)))
    w0 = tensor(np.zeros((3, 4)), trainable=True)
    b0 = tensor(np.zeros(4), trainable=True)
    b_bad = tensor(np.zeros(5), trainable=True)
    w1_bad = tensor(np.zeros((5, 2)), trainable=True)
    b1 = tensor(np.zeros(2), trainable=True)
    for layers in ([(w0, b_bad)], [(w0, b0), (w1_bad, b1)]):
        with pytest.raises(ShapeError, match="linear"):
            T.mlp_forward(MlpParams(layers), x)


def test_mlp_forward_of_no_layers_is_the_identity():
    x = tensor(np.arange(6.0).reshape(2, 3))
    assert T.mlp_forward(MlpParams([]), x) is x
