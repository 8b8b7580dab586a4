"""Aggregation module against by-hand composition and its own invariants."""

import dataclasses
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from flowagg import aggregator
from flowagg import tensor as T
from flowagg.aggregator import (
    DENSE_WEIGHTS_MAX_BYTES,
    AggregatorConfig,
    FeatureSet,
    SceneInputs,
    aggregate_global,
    aggregate_local,
    forward,
    global_attention_weights,
    init_params,
    offset_aggregate,
    prepare_inputs,
    project_qkv,
    weight_mlp_bytes,
)
from flowagg.config import parse_config_file
from flowagg.rng import Xoshiro256StarStar, derive_seed
from flowagg.scenegen import generate_scene
from flowagg.spatial import PointCloud, knn
from flowagg.tensor import ShapeError, Tape, Tensor, backward, tensor

SMALL = AggregatorConfig(context_dim=4, motion_dim=4, qk_dim=3, disp_dim=2, k=2)

# Output of the full pass on the pinned N=8 instance below, frozen from
# the loop-oracle composition in oracles.forward_loops.
GOLDEN_N8 = np.array([
    [0.15458591301306085, -1.1789643034094528, 0.7556088244044776, -0.8470482969930037],
    [-0.8650109326403426, 0.4424634164820326, 1.91374962688344, -0.7710747580062063],
    [-0.4151410157333438, 0.5058252302269561, 1.4665856795613412, 1.3509649621766775],
    [0.2225246004397607, -0.16872653126059256, 0.47537664697316234, -0.5654047050921795],
    [1.1634324404104388, 0.08322370062654305, 1.5954235554781564, -1.1144742416052957],
    [1.7244060671442547, -0.6737769604400107, 0.8158274687893685, -0.4825918382760518],
    [0.7775022585859399, -0.27584760669061253, 0.14558089941297647, -0.5600632137648694],
    [-1.363206833579376, 0.06481036165516829, 1.1526166019729465, -0.4605725498659624],
])


def _instance(seed, n, cfg=SMALL, alpha=None):
    params = init_params(cfg, seed=seed)
    if alpha is not None:
        params.alpha = Tensor(np.asarray(float(alpha)), trainable=True)
    g = Xoshiro256StarStar(derive_seed(seed, 9))
    pts = g.normal_array((n, 3))
    ctx = g.normal_array((n, cfg.context_dim))
    mot = g.normal_array((n, cfg.motion_dim))
    cloud = PointCloud(pts)
    nbrs = knn(cloud, cloud, k=cfg.k)
    return params, cloud, FeatureSet(ctx, mot), nbrs


def _raw(params):
    return {name: t.data for name, t in params.named_tensors()}


def test_pinned_instance_matches_golden():
    params, cloud, feats, nbrs = _instance(7, 8, alpha=0.7)
    got, _ = forward(params, prepare_inputs(cloud, feats, nbrs, SMALL))
    np.testing.assert_allclose(got.data, GOLDEN_N8, rtol=0, atol=1e-10)
    want = oracles.forward_loops(_raw(params), cloud.points, feats.context,
                                 feats.motion, nbrs.indices, qk_dim=SMALL.qk_dim)
    np.testing.assert_allclose(want, GOLDEN_N8, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_forward_matches_loop_oracle(seed):
    params, cloud, feats, nbrs = _instance(seed, 8, alpha=1.0)
    got, _ = forward(params, prepare_inputs(cloud, feats, nbrs, SMALL))
    want = oracles.forward_loops(_raw(params), cloud.points, feats.context,
                                 feats.motion, nbrs.indices, qk_dim=SMALL.qk_dim)
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-10)


def test_unscaled_logits_match_oracle():
    cfg = dataclasses.replace(SMALL, scale_logits=False)
    params, cloud, feats, nbrs = _instance(3, 6, cfg, alpha=0.5)
    got, _ = forward(params, prepare_inputs(cloud, feats, nbrs, cfg))
    want = oracles.forward_loops(_raw(params), cloud.points, feats.context,
                                 feats.motion, nbrs.indices, qk_dim=cfg.qk_dim,
                                 scale_logits=False)
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-10)


def test_global_weights_row_stochastic():
    params, _, feats, _ = _instance(0, 10)
    q, k, _ = project_qkv(params, tensor(feats.context), tensor(feats.motion), SMALL)
    w = global_attention_weights(params, q, k, SMALL).data
    assert (w >= 0.0).all()
    np.testing.assert_allclose(w.sum(axis=1), np.ones(10), atol=1e-12)


def test_strong_orthogonal_queries_attend_to_self():
    # Orthogonal projected contexts scaled up: each row's logit is large
    # only against itself, so the softmax approaches a one-hot.
    cfg = AggregatorConfig(context_dim=4, motion_dim=4, qk_dim=4, disp_dim=2, k=2)
    params = init_params(cfg, seed=0)
    params.qk_proj = tensor(np.eye(4) * 50.0, trainable=True)
    ctx = np.eye(4)
    feats = FeatureSet(ctx, np.zeros((4, 4)))
    q, k, _ = project_qkv(params, tensor(feats.context), tensor(feats.motion), cfg)
    w = global_attention_weights(params, q, k, cfg).data
    assert np.diag(w).min() > 0.999
    np.testing.assert_allclose(w.sum(axis=1), np.ones(4), atol=1e-12)


def test_aggregate_global_matches_oracle():
    rng = np.random.default_rng(0)
    q, k, v = rng.normal(size=(5, 3)), rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
    for scale in (True, False):
        cfg = dataclasses.replace(SMALL, scale_logits=scale)
        got, weights = aggregate_global(init_params(cfg, 0), tensor(q), tensor(k), tensor(v), cfg)
        w = oracles.softmax_rows_direct(oracles.matmul_loops(q, k.T) / (np.sqrt(3) if scale else 1))
        np.testing.assert_allclose(weights(), w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.data, oracles.matmul_loops(w, v), rtol=0, atol=1e-12)


def test_local_weights_row_stochastic_and_match_oracle():
    params, cloud, feats, nbrs = _instance(4, 6)
    v = T.matmul(tensor(feats.motion), params.v_proj)
    g_local, w = aggregate_local(params, prepare_inputs(cloud, feats, nbrs, SMALL), v)
    assert (w >= 0.0).all()
    np.testing.assert_allclose(w.sum(axis=1), np.ones(6), atol=1e-12)
    want = oracles.forward_loops(_raw(params), cloud.points, feats.context,
                                 feats.motion, nbrs.indices, qk_dim=SMALL.qk_dim,
                                 disable_global=True)
    # with the global route off and alpha 0 the oracle returns motion
    # unchanged, so recover g_local by differencing at alpha 1 instead
    raw = _raw(params)
    raw["alpha"] = np.asarray(0.0)
    base = oracles.forward_loops(raw, cloud.points, feats.context, feats.motion,
                                 nbrs.indices, qk_dim=SMALL.qk_dim)
    np.testing.assert_allclose(base, feats.motion, atol=1e-12)


@pytest.mark.parametrize("score_hidden", [(), (5,), (5, 3)])
def test_local_scores_match_the_concat_mlp_at_every_depth(score_hidden):
    # With no hidden layer the score layer is the output layer: no ReLU.
    cfg = dataclasses.replace(SMALL, k=3, score_hidden=score_hidden)
    params, cloud, feats, nbrs = _instance(8, 10, cfg)
    inputs = prepare_inputs(cloud, feats, nbrs, cfg)
    v = T.matmul(inputs.motion, params.v_proj)
    _, weights = aggregate_local(params, inputs, v)
    enc = T.mlp_forward(params.disp_encoder, inputs.disp)
    nbr, own = feats.context[nbrs.indices.ravel()], np.repeat(feats.context, cfg.k, axis=0)
    scores = T.mlp_forward(params.score, T.concat_cols([enc, tensor(nbr), tensor(own)]))
    want = T.softmax_rows(T.reshape(scores, (10, cfg.k))).data
    np.testing.assert_allclose(weights, want, rtol=1e-12, atol=1e-15)


def test_scene_inputs_hold_no_neighbour_rows_but_the_index():
    # The neighbour rows have one home, `rows`; the local route reads the
    # neighbours' context through it rather than from a prepared copy.
    assert [f.name for f in dataclasses.fields(SceneInputs)] == [
        "config", "context", "motion", "disp", "rows"]


def test_alpha_zero_is_bitwise_identity():
    for seed in range(5):
        params, cloud, feats, nbrs = _instance(seed, 9)
        got, _ = forward(params, prepare_inputs(cloud, feats, nbrs, SMALL))
        assert got.data.tobytes() == feats.motion.tobytes()


def test_alpha_zero_returns_negative_zero_motion_as_positive_zero():
    # The gate at zero adds 0 * head to y, and -0.0 + 0.0 is +0.0: the one
    # entry whose bytes the zero gate changes.
    params, cloud, feats, nbrs = _instance(3, 9)
    motion = feats.motion.copy()
    motion[0] = -0.0
    inputs = prepare_inputs(cloud, FeatureSet(feats.context, motion), nbrs, SMALL)
    got = forward(params, inputs)[0].data
    assert (got[0] == 0.0).all() and not np.signbit(got[0]).any()
    assert got[1:].tobytes() == motion[1:].tobytes()


def test_matched_aggregate_zero_shift_keeps_motion():
    # When y equals the routes' sum g the head input is all zeros; a
    # constant column standardizes to zero, shift 0 and ReLU keep it
    # there, so the correction vanishes for any gate value.
    params, cloud, feats, nbrs = _instance(2, 6, alpha=3.0)
    zero_motion = FeatureSet(feats.context, np.zeros((6, 4)))
    got, _ = forward(params, prepare_inputs(cloud, zero_motion, nbrs, SMALL))
    assert got.data.tobytes() == zero_motion.motion.tobytes()


def test_offset_aggregate_direct():
    params, _, feats, _ = _instance(5, 7, alpha=0.9)
    y = tensor(feats.motion)
    got = offset_aggregate(params, y, tensor(np.zeros((7, 4)))).data
    head = oracles.norm_head_loops(
        params.offset_head.weight.data, params.offset_head.bias.data,
        params.offset_head.gain.data, params.offset_head.shift.data, feats.motion)
    np.testing.assert_allclose(got, feats.motion + 0.9 * head, rtol=0, atol=1e-12)


def test_permutation_equivariance():
    params, cloud, feats, nbrs = _instance(8, 12, alpha=0.8)
    base, _ = forward(params, prepare_inputs(cloud, feats, nbrs, SMALL))
    perm = np.random.default_rng(1).permutation(12)
    cloud_p = PointCloud(cloud.points[perm])
    feats_p = FeatureSet(feats.context[perm], feats.motion[perm])
    nbrs_p = knn(cloud_p, cloud_p, k=SMALL.k)
    out_p, _ = forward(params, prepare_inputs(cloud_p, feats_p, nbrs_p, SMALL))
    np.testing.assert_allclose(out_p.data, base.data[perm], rtol=0, atol=1e-10)


def test_disable_flags_drop_attention_maps():
    params, cloud, feats, nbrs = _instance(1, 6, alpha=0.5)
    cfg = dataclasses.replace(SMALL, disable_global=True)
    _, amap = forward(params, prepare_inputs(cloud, feats, nbrs, cfg))
    assert amap.global_weights is None and amap.local_weights is not None
    cfg = dataclasses.replace(SMALL, disable_local=True)
    _, amap = forward(params, prepare_inputs(cloud, feats, nbrs, cfg))
    assert amap.local_weights is None and amap.global_weights is not None


def test_disabled_route_matches_oracle():
    for flag in ("disable_local", "disable_global"):
        cfg = dataclasses.replace(SMALL, **{flag: True})
        params, cloud, feats, nbrs = _instance(6, 8, cfg, alpha=1.0)
        got, _ = forward(params, prepare_inputs(cloud, feats, nbrs, cfg))
        want = oracles.forward_loops(_raw(params), cloud.points, feats.context,
                                     feats.motion, nbrs.indices, qk_dim=cfg.qk_dim,
                                     **{flag: True})
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-10)


def test_raw_context_logits_skip_projection():
    cfg = dataclasses.replace(SMALL, raw_context_logits=True)
    params, cloud, feats, nbrs = _instance(9, 6, cfg, alpha=0.4)
    got, amap = forward(params, prepare_inputs(cloud, feats, nbrs, cfg))
    # weights computed straight from context similarity; the scale
    # follows the actual attention width, here the context width
    logits = feats.context @ feats.context.T / np.sqrt(cfg.context_dim)
    want_w = oracles.softmax_rows_direct(logits)
    np.testing.assert_allclose(amap.global_weights, want_w, atol=1e-12)


def test_weight_mlp_keeps_rows_stochastic():
    cfg = dataclasses.replace(SMALL, use_weight_mlp=True)
    params, cloud, feats, nbrs = _instance(10, 7, cfg, alpha=0.3)
    _, amap = forward(params, prepare_inputs(cloud, feats, nbrs, cfg))
    assert (amap.global_weights > 0.0).all()
    np.testing.assert_allclose(amap.global_weights.sum(axis=1), np.ones(7), atol=1e-9)


def test_weight_mlp_requires_params():
    cfg = dataclasses.replace(SMALL, use_weight_mlp=True)
    params, cloud, feats, nbrs = _instance(0, 5)  # initialized without the stage
    with pytest.raises(ShapeError):
        forward(params, prepare_inputs(cloud, feats, nbrs, cfg))


def test_plain_aggregator_path():
    cfg = dataclasses.replace(SMALL, plain_aggregator=True)
    params, cloud, feats, nbrs = _instance(11, 6, cfg)
    got, _ = forward(params, prepare_inputs(cloud, feats, nbrs, cfg))
    # no gate: even freshly initialized, the head output shifts motion
    assert got.data.shape == (6, 4)
    assert not np.array_equal(got.data, feats.motion)


def test_plain_head_with_no_route_adds_its_mlp_of_zero():
    cfg = dataclasses.replace(SMALL, plain_aggregator=True, disable_local=True,
                              disable_global=True)
    params, cloud, feats, _ = _instance(11, 6, cfg)
    got, amap = forward(params, prepare_inputs(cloud, feats, None, cfg))
    layers = [(w.data, b.data) for w, b in params.plain_head.layers]
    want = feats.motion + oracles.mlp_loops(layers, np.zeros((6, 4)))
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)
    assert amap.global_weights is None and amap.local_weights is None


def test_cross_frame_displacements_need_counterparts():
    cfg = dataclasses.replace(SMALL, cross_frame_displacements=True)
    params, cloud, feats, nbrs = _instance(12, 6, cfg, alpha=0.5)
    with pytest.raises(ShapeError):
        forward(params, prepare_inputs(cloud, feats, nbrs, cfg))
    moved = PointCloud(cloud.points + 0.1)
    out, _ = forward(params, prepare_inputs(cloud, feats, nbrs, cfg, counterparts=moved))
    assert out.data.shape == (6, 4)


def test_overflowing_displacements_fail_while_preparing():
    params, cloud, feats, nbrs = _instance(12, 6)
    huge = PointCloud(np.sign(cloud.points) * 1e308)   # finite, but p_j - p_i is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: prepare_inputs(huge, feats, nbrs, SMALL),
                     lambda: forward(params, prepare_inputs(huge, feats, nbrs, SMALL))):
            with Tape() as tape, pytest.raises(ValueError, match="displacement table"):
                call()
            assert not tape.nodes


def test_neighbour_table_must_have_config_k_columns():
    params, cloud, feats, nbrs = _instance(3, 8)   # SMALL.k == 2
    for table in (knn(cloud, cloud, k=5), knn(cloud, cloud, k=1), None):
        with pytest.raises(ShapeError, match="neighbour table"):
            prepare_inputs(cloud, feats, table, SMALL)
    # Without the local route no table is read, so none is needed.
    no_local = dataclasses.replace(SMALL, disable_local=True)
    without, _ = forward(params, prepare_inputs(cloud, feats, None, no_local))
    with_table, _ = forward(params, prepare_inputs(cloud, feats, nbrs, no_local))
    assert without.data.tobytes() == with_table.data.tobytes()


def test_include_self_neighbors_changes_table():
    params, cloud, feats, _ = _instance(13, 8)
    with_self = knn(cloud, cloud, k=3, include_self=True)
    np.testing.assert_array_equal(with_self.indices[:, 0], np.arange(8))
    out, amap = forward(params, prepare_inputs(
        cloud, feats, with_self, dataclasses.replace(SMALL, k=3, include_self_neighbors=True)))
    np.testing.assert_allclose(amap.local_weights.sum(axis=1), np.ones(8), atol=1e-12)


def test_forward_needs_two_points():
    params, cloud, feats, nbrs = _instance(0, 5)
    lone = FeatureSet(feats.context[:1], feats.motion[:1])
    with pytest.raises(ShapeError):
        forward(params, prepare_inputs(PointCloud(cloud.points[:1]), lone,
                                       knn(cloud, cloud, k=2), SMALL))


def test_dim_mismatch_rejected():
    params, cloud, feats, nbrs = _instance(0, 6)
    bad = FeatureSet(feats.context[:, :3], feats.motion)
    with pytest.raises(ShapeError):
        forward(params, prepare_inputs(cloud, bad, nbrs, SMALL))


def test_gradients_flow_to_every_parameter():
    params, cloud, feats, nbrs = _instance(14, 8, alpha=0.6)
    with Tape() as tape:
        out, _ = forward(params, prepare_inputs(cloud, feats, nbrs, SMALL))
        loss = T.reduce_sum(T.mul(out, out))
    grads = backward(tape, loss)
    for name, t in params.named_tensors():
        g = grads.wrt(t)
        assert g.shape == t.data.shape
        assert np.isfinite(g).all(), name
        if name != "alpha":
            assert np.abs(g).max() > 0.0, name


def test_shared_projection_accumulates_query_and_key_gradients():
    params, cloud, feats, nbrs = _instance(15, 6, alpha=0.2)
    with Tape() as tape:
        q, k, _ = project_qkv(params, tensor(feats.context), tensor(feats.motion), SMALL)
        w = global_attention_weights(params, q, k, SMALL)
        loss = T.reduce_sum(T.mul(w, w))
    g = backward(tape, loss).wrt(params.qk_proj)
    assert q is k
    assert np.abs(g).max() > 0.0


def test_global_route_tapes_no_n_by_n_array():
    n = 9
    params, cloud, feats, nbrs = _instance(4, n, alpha=0.3)
    with Tape() as tape:
        _, amap = forward(params, prepare_inputs(cloud, feats, nbrs, SMALL))
        taped = len(tape.nodes)
        weights = amap.global_weights
    assert not [node for node in tape.nodes if n * n in (node.output.size, *node.output.shape)]
    assert "attention" in [node.op for node in tape.nodes]
    # Reading the map recomputes the weights the route used, bit for bit,
    # and records nothing.
    assert len(tape.nodes) == taped
    q, k, _ = project_qkv(params, tensor(feats.context), tensor(feats.motion), SMALL)
    want = global_attention_weights(params, q, k, SMALL).data
    assert weights.tobytes() == want.tobytes()


def test_local_route_tapes_no_n_k_by_dm_array():
    # The pinned N=200 local config: the route is one local_route node with
    # an N x Dm output, and no node's output has a row per neighbour.
    cfg = parse_config_file(os.path.join(os.path.dirname(__file__), os.pardir,
                                         "configs", "occlusion_local.cfg"))
    scene = generate_scene(cfg.scene)
    n, k, dm = len(scene.frame1), cfg.module.k, cfg.module.motion_dim
    params = init_params(cfg.module, seed=0)
    with Tape() as tape:
        forward(params, prepare_inputs(scene.frame1, FeatureSet(scene.context, scene.motion_in),
                                       knn(scene.frame1, scene.frame1, k), cfg.module))
    assert not [node for node in tape.nodes if node.output.shape[:1] == (n * k,)]
    assert [node.output.shape for node in tape.nodes if node.op == "local_route"] == [(n, dm)]


def test_prepare_inputs_builds_one_row_index_and_no_step_builds_any(monkeypatch):
    # SMALL's widest layer is 32 columns and k = 2: blocks of 3 points over
    # N=10 (3, 3, 3 and 1 points), which slice the one index that
    # prepare_inputs builds; no step builds a row index.
    monkeypatch.setattr(T, "BLOCK_ELEMS", 3 * 2 * 32)
    params, cloud, feats, nbrs = _instance(5, 10, alpha=0.5)
    real_init, built = T.RowIndex.__init__, []
    monkeypatch.setattr(T.RowIndex, "__init__",
                        lambda self, idx: built.append(np.size(idx)) or real_init(self, idx))
    inputs = prepare_inputs(cloud, feats, nbrs, SMALL)
    assert built == [20]
    built.clear()
    for _ in range(2):
        with Tape() as tape:
            out, _ = forward(params, inputs)
            loss = T.reduce_sum(T.mul(out, out))
        backward(tape, loss)
    assert built == []


def test_global_weights_read_over_budget_raises_before_allocating(monkeypatch):
    n = 200
    params, cloud, feats, nbrs = _instance(6, n, alpha=0.4)
    with Tape() as tape:
        _, amap = forward(params, prepare_inputs(cloud, feats, nbrs, SMALL))
        taped = len(tape.nodes)
        monkeypatch.setattr(aggregator, "DENSE_WEIGHTS_MAX_BYTES", 8 * n * n)
        assert amap.global_weights.shape == (n, n)
        monkeypatch.setattr(aggregator, "DENSE_WEIGHTS_MAX_BYTES", 8 * n * n - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError) as err:
                _ = amap.global_weights
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < n * 64
    assert len(tape.nodes) == taped
    assert f"N={n}" in str(err.value)


def test_global_route_peak_memory_stays_below_one_n_by_n_array():
    n = 1500
    cfg = AggregatorConfig(context_dim=8, motion_dim=8, qk_dim=4, disp_dim=2, k=2,
                           disable_local=True)
    params, cloud, feats, nbrs = _instance(5, n, cfg, alpha=0.5)
    tracemalloc.start()
    try:
        with Tape() as tape:
            out, _ = forward(params, prepare_inputs(cloud, feats, nbrs, cfg))
            loss = T.reduce_sum(T.mul(out, out))
        backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def test_weight_mlp_over_budget_raises_before_allocating():
    cfg = dataclasses.replace(SMALL, use_weight_mlp=True)
    n = 3100   # 14 N x N arrays: 1,026 MiB, just over the 1,024 MiB limit
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    q, v = tensor(rng.normal(size=(n, 3))), tensor(rng.normal(size=(n, 4)))
    assert weight_mlp_bytes(n, cfg) > DENSE_WEIGHTS_MAX_BYTES
    for call in (lambda: aggregate_global(params, q, q, v, cfg),
                 lambda: global_attention_weights(params, q, q, cfg)):
        tracemalloc.start()
        try:
            with Tape() as tape, pytest.raises(ShapeError) as err:
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 8 * 8 and not tape.nodes
        assert f"N={n}" in str(err.value)
        assert f"{weight_mlp_bytes(n, cfg) / 2**20:.0f} MiB" in str(err.value)
        assert f"{DENSE_WEIGHTS_MAX_BYTES / 2**20:.0f} MiB" in str(err.value)


@pytest.mark.parametrize("scale", [True, False])
@pytest.mark.parametrize("hidden", [(8,), (3, 2)])
def test_weight_mlp_bytes_equals_the_taped_n_by_n_arrays(monkeypatch, scale, hidden):
    n = 30
    cfg = dataclasses.replace(SMALL, use_weight_mlp=True, scale_logits=scale,
                              weight_hidden=hidden)
    params, _, feats, _ = _instance(17, n, cfg)
    calls = []
    real = aggregator.global_attention_weights
    monkeypatch.setattr(aggregator, "global_attention_weights",
                        lambda *args: calls.append(args) or real(*args))
    with Tape() as tape:
        q, k, v = project_qkv(params, tensor(feats.context), tensor(feats.motion), cfg)
        aggregate_global(params, q, k, v, cfg)
    assert len(calls) == 1
    # The reshape nodes are views of their inputs and own no memory.
    owned = [node.output.data for node in tape.nodes
             if node.output.size % (n * n) == 0
             and not any(np.shares_memory(node.output.data, t.data) for t in node.inputs)]
    assert sum(a.nbytes for a in owned) == weight_mlp_bytes(n, cfg)


def test_init_is_deterministic_and_stream_split():
    a = init_params(SMALL, seed=3)
    b = init_params(SMALL, seed=3)
    for (n1, t1), (_, t2) in zip(a.named_tensors(), b.named_tensors()):
        assert t1.data.tobytes() == t2.data.tobytes(), n1
    # optional stages draw from their own stream: the core tensors of a
    # plain-aggregator variant are bit-identical to the default's
    c = init_params(dataclasses.replace(SMALL, plain_aggregator=True), seed=3)
    assert c.qk_proj.data.tobytes() == a.qk_proj.data.tobytes()
    assert c.v_proj.data.tobytes() == a.v_proj.data.tobytes()
    assert c.plain_head is not None and a.plain_head is None
    assert float(a.alpha.data) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, k=0).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(SMALL, qk_dim=-1).validate()
