"""End-to-end acceptance checks.

Each test covers one headline property of the package, from numerical
oracles through the directional training experiments, and finishes by
printing a one-line PASS summary with the measured numbers (visible
with pytest -s; the test outcome itself is the pass/fail signal).

The experiment tests train real models and together take a few minutes;
their per-seed runs are shared through module-scoped fixtures.
"""

import dataclasses
import hashlib
import os
import time

import numpy as np
import pytest

import oracles
from flowagg.aggregator import AggregatorConfig, FeatureSet, forward, init_params, prepare_inputs
from flowagg.cli import GRADCHECK_TOL, main as cli_main
from flowagg.config import parse_config_file
from flowagg.metrics import FlowField, evaluate
from flowagg.rng import Xoshiro256StarStar, derive_seed
from flowagg.scenegen import generate_scene
from flowagg.spatial import PointCloud, brute_force_knn, fps, knn
from flowagg.tensor import Tensor
from flowagg.train import (
    grad_check,
    run_ablation,
    run_occlusion_experiment,
    train,
    _variant_config,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIGS = os.path.join(ROOT, "configs")
N_SEEDS = 5


def _seeded(base, seed):
    cfg = dataclasses.replace(base)
    cfg.scene = dataclasses.replace(base.scene, seed=seed)
    cfg.train = dataclasses.replace(base.train, seed=seed)
    return cfg


@pytest.fixture(scope="module")
def local_runs():
    """Per-seed runs on the local-occlusion config: the full module, the
    alpha-frozen baseline (same scene, same init), and the local route
    disabled. Shared by the recovery and mode tests."""
    base = parse_config_file(os.path.join(CONFIGS, "occlusion_local.cfg"))
    out = []
    for seed in range(N_SEEDS):
        cfg = _seeded(base, seed)
        scene = generate_scene(cfg.scene)
        t0 = time.perf_counter()
        pair = run_occlusion_experiment(cfg, scene=scene)
        elapsed = time.perf_counter() - t0
        no_local = train(_variant_config(cfg, "no_local"), scene=scene)
        out.append({
            "full": pair["full"].metrics_occluded.epe_m,
            "baseline": pair["baseline"].metrics_occluded.epe_m,
            "no_local": no_local.metrics_occluded.epe_m,
            "seconds": elapsed,
        })
    return out


@pytest.fixture(scope="module")
def ablation_runs():
    base = parse_config_file(os.path.join(CONFIGS, "ablation_local.cfg"))
    out = []
    for seed in range(N_SEEDS):
        cfg = _seeded(base, seed)
        reports = run_ablation(cfg)
        out.append({name: r.metrics_occluded.epe_m for name, r in reports.items()})
    return out


@pytest.fixture(scope="module")
def global_runs():
    base = parse_config_file(os.path.join(CONFIGS, "occlusion_global.cfg"))
    out = []
    for seed in range(N_SEEDS):
        cfg = _seeded(base, seed)
        scene = generate_scene(cfg.scene)
        full = train(cfg, scene=scene)
        no_global = train(_variant_config(cfg, "no_global"), scene=scene)
        out.append({
            "full": full.metrics_occluded.epe_m,
            "no_global": no_global.metrics_occluded.epe_m,
        })
    return out


def test_01_gradient_oracle():
    t0 = time.perf_counter()
    worst = grad_check()
    elapsed = time.perf_counter() - t0
    assert worst < GRADCHECK_TOL
    assert elapsed < 60.0
    assert cli_main(["gradcheck"]) == 0
    print(f"gradient oracle: PASS (max discrepancy {worst:.2e} < 1e-6, "
          f"{elapsed:.1f}s)")


def test_02_attention_invariants():
    cfg = AggregatorConfig(context_dim=6, motion_dim=6, qk_dim=4, disp_dim=2, k=3)
    rng = np.random.default_rng(0)
    worst_sum, worst_perm = 0.0, 0.0
    for trial in range(1000):
        n = int(rng.integers(5, 65))
        params = init_params(cfg, seed=trial)
        params.alpha = Tensor(np.asarray(rng.uniform(0.3, 1.0)), trainable=True)
        pts = rng.normal(size=(n, 3))
        cloud = PointCloud(pts)
        feats = FeatureSet(rng.normal(size=(n, 6)), rng.normal(size=(n, 6)))
        nbrs = knn(cloud, cloud, k=3)
        out, amap = forward(params, prepare_inputs(cloud, feats, nbrs, cfg))
        for w in (amap.global_weights, amap.local_weights):
            assert (w >= 0.0).all()
            worst_sum = max(worst_sum, np.abs(w.sum(axis=1) - 1.0).max())
        assert worst_sum <= 1e-9
        perm = rng.permutation(n)
        cloud_p = PointCloud(pts[perm])
        feats_p = FeatureSet(feats.context[perm], feats.motion[perm])
        out_p, _ = forward(params, prepare_inputs(cloud_p, feats_p,
                                                  knn(cloud_p, cloud_p, k=3), cfg))
        diff = np.abs(out_p.data - out.data[perm]).max()
        worst_perm = max(worst_perm, diff)
        assert diff <= 1e-10
    print(f"attention invariants: PASS (1000 trials, worst row-sum error "
          f"{worst_sum:.1e}, worst permutation error {worst_perm:.1e})")


def test_03_residual_identity_at_zero_gate():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, min(6, n)))
        cfg = AggregatorConfig(
            context_dim=int(rng.integers(2, 13)),
            motion_dim=int(rng.integers(2, 13)),
            qk_dim=int(rng.integers(1, 9)),
            disp_dim=int(rng.integers(1, 7)),
            k=k,
            scale_logits=bool(rng.integers(0, 2)),
            raw_context_logits=bool(rng.integers(0, 2)),
            use_weight_mlp=bool(rng.integers(0, 2)),
            include_self_neighbors=bool(rng.integers(0, 2)),
            disable_local=bool(rng.integers(0, 2)),
            disable_global=bool(rng.integers(0, 2)),
            cross_frame_displacements=bool(rng.integers(0, 2)),
            disp_hidden=(int(rng.integers(2, 9)),),
            score_hidden=(int(rng.integers(2, 17)),),
        )
        params = init_params(cfg, seed=trial)  # alpha starts at zero
        pts = rng.normal(size=(n, 3))
        cloud = PointCloud(pts)
        feats = FeatureSet(rng.normal(size=(n, cfg.context_dim)),
                           rng.normal(size=(n, cfg.motion_dim)))
        nbrs = knn(cloud, cloud, k=k, include_self=cfg.include_self_neighbors)
        counterparts = PointCloud(pts + rng.normal(scale=0.3, size=(n, 3))) \
            if cfg.cross_frame_displacements else None
        out, _ = forward(params, prepare_inputs(cloud, feats, nbrs, cfg,
                                                counterparts=counterparts))
        assert out.data.tobytes() == feats.motion.tobytes()
    print("residual identity: PASS (bit-identical motion features at zero "
          "gate across 100 random configs)")


def test_04_forward_matches_composed_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(50):
        cfg = AggregatorConfig(
            context_dim=int(rng.integers(3, 7)),
            motion_dim=int(rng.integers(3, 7)),
            qk_dim=int(rng.integers(2, 5)),
            disp_dim=2, k=int(rng.integers(2, 4)))
        params = init_params(cfg, seed=trial)
        params.alpha = Tensor(np.asarray(rng.uniform(0.3, 1.2)), trainable=True)
        g = Xoshiro256StarStar(derive_seed(trial, 9))
        pts = g.normal_array((8, 3))
        ctx = g.normal_array((8, cfg.context_dim))
        mot = g.normal_array((8, cfg.motion_dim))
        cloud = PointCloud(pts)
        nbrs = knn(cloud, cloud, k=cfg.k)
        got, _ = forward(params, prepare_inputs(cloud, FeatureSet(ctx, mot), nbrs, cfg))
        raw = {name: t.data for name, t in params.named_tensors()}
        want = oracles.forward_loops(raw, pts, ctx, mot, nbrs.indices,
                                     qk_dim=cfg.qk_dim)
        diff = np.abs(got.data - want).max()
        worst = max(worst, diff)
        assert diff <= 1e-10
    print(f"composition oracle: PASS (50 instances at N=8, worst deviation "
          f"{worst:.1e} <= 1e-10)")


def test_05_metric_fidelity_on_ten_thousand_points():
    rng = np.random.default_rng(3)
    n = 10_000
    gt = rng.normal(scale=rng.uniform(0.02, 2.0, size=(n, 1)), size=(n, 3))
    gt[rng.random(n) < 0.15] = 0.0
    pred = gt + rng.normal(scale=rng.uniform(0.005, 0.5, size=(n, 1)), size=(n, 3))
    # splice in rows that land exactly on every threshold, plus exact hits
    boundary_gt = np.array([[0.0, 0, 0], [0.0, 0, 0], [0.0, 0, 0],
                            [0.0, 2, 0], [0.0, 2, 0], [0.0, 0.5, 0]])
    boundary_pred = boundary_gt + np.array(
        [[0.05, 0, 0], [0.1, 0, 0], [0.3, 0, 0],
         [0.1, 0, 0], [0.2, 0, 0], [0.15, 0, 0]])
    for i in range(0, 120, 6):
        gt[i:i + 6] = boundary_gt
        pred[i:i + 6] = boundary_pred
    pred[200:220] = gt[200:220]  # zero error rows
    m = evaluate(FlowField(pred), FlowField(gt))
    want = oracles.metrics_loops(pred, gt)
    assert m.epe_m == want["epe_m"]
    assert m.acc_strict == want["acc_strict"]
    assert m.acc_relax == want["acc_relax"]
    assert m.outliers == want["outliers"]
    assert m.n_points == want["n_points"] == n
    print(f"metric fidelity: PASS (exact match on {n} points incl. "
          f"on-threshold rows; epe {m.epe_m:.4f}, strict {m.acc_strict:.3f})")


def test_06_spatial_oracles():
    rng = np.random.default_rng(4)
    for trial in range(100):
        n = int(rng.integers(10, 501))
        pts = rng.normal(size=(n, 3))
        if trial % 10 == 0:
            pts = np.round(pts)  # exact ties
        c = PointCloud(pts)
        k = int(rng.integers(1, min(17, n)))
        a = knn(c, c, k=k, method="kdtree")
        b = brute_force_knn(c, c, k=k)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.sq_dists, b.sq_dists)
        if trial < 6 and n <= 300:
            idx, d2 = oracles.knn_scan(pts, pts, k)
            np.testing.assert_array_equal(a.indices, idx)
            np.testing.assert_array_equal(a.sq_dists, d2)

    corners = PointCloud(np.array(
        [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]]))
    np.testing.assert_array_equal(fps(corners, 2), [0, 3])
    np.testing.assert_array_equal(
        fps(corners, 4), oracles.fps_greedy(corners.points, 4, 0))
    for seed in range(10):
        pts = np.random.default_rng(seed).normal(size=(30, 3))
        m = 10 + seed
        start = seed % 30
        np.testing.assert_array_equal(
            fps(PointCloud(pts), m, seed_index=start),
            oracles.fps_greedy(pts, m, start))
    print("spatial oracles: PASS (tree == brute force on 100 clouds up to "
          "N=500; sampling matches greedy enumeration on 11 cases)")


def test_07_occlusion_recovery(local_runs):
    ratios = [r["baseline"] / r["full"] for r in local_runs]
    secs = [r["seconds"] for r in local_runs]
    for seed, ratio in enumerate(ratios):
        assert ratio >= 3.0, (
            f"seed {seed}: occluded EPE improved only {ratio:.2f}x over the "
            f"frozen-gate baseline")
    assert max(secs) < 300.0
    print(f"occlusion recovery: PASS (occluded-EPE ratio vs frozen baseline "
          f">= 3 on all {N_SEEDS} seeds; worst {min(ratios):.1f}x, "
          f"slowest seed {max(secs):.0f}s)")


def test_08_ablation_ordering(ablation_runs):
    good = 0
    for row in ablation_runs:
        ok = (row["full"] < row["plain_aggregator"]
              and row["full"] < row["no_local"]
              and row["full"] < row["no_global"]
              and all(row[v] < row["backbone_only"]
                      for v in ("full", "plain_aggregator", "no_local", "no_global")))
        good += ok
    assert good >= 4, f"full ordering held on only {good} of {N_SEEDS} seeds"
    means = {k: np.mean([r[k] for r in ablation_runs]) for k in ablation_runs[0]}
    order = " < ".join(f"{k}:{means[k]:.3f}" for k in
                       ("full", "plain_aggregator", "no_local", "no_global",
                        "backbone_only"))
    print(f"ablation ordering: PASS ({good}/{N_SEEDS} seeds hold every "
          f"comparison; mean occluded EPE {order})")


def test_09_mode_specific_degradation(local_runs, global_runs):
    global_hits = sum(r["no_global"] > r["full"] for r in global_runs)
    local_hits = sum(r["no_local"] > r["full"] for r in local_runs)
    assert global_hits >= 4, (
        f"disabling the global route hurt on only {global_hits}/{N_SEEDS} "
        f"seeds in global mode")
    assert local_hits >= 4, (
        f"disabling the local route hurt on only {local_hits}/{N_SEEDS} "
        f"seeds in local mode")
    print(f"mode degradation: PASS (global mode {global_hits}/{N_SEEDS}, "
          f"local mode {local_hits}/{N_SEEDS})")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_10_reproducibility(tmp_path):
    cfg = os.path.join(CONFIGS, "occlusion_local.cfg")
    scenes = [tmp_path / "scene_a.gtc", tmp_path / "scene_b.gtc"]
    runs = [tmp_path / "run_a", tmp_path / "run_b"]
    for scene, run in zip(scenes, runs):
        assert cli_main(["gen", "--config", cfg, "--out", str(scene)]) == 0
        assert cli_main(["train", "--config", cfg, "--scene", str(scene),
                         "--out", str(run)]) == 0
    assert scenes[0].read_bytes() == scenes[1].read_bytes()
    assert (runs[0] / "report.txt").read_bytes() == (runs[1] / "report.txt").read_bytes()
    assert (runs[0] / "params.gtc").read_bytes() == (runs[1] / "params.gtc").read_bytes()

    smoke = os.path.join(CONFIGS, "smoke.cfg")
    abls = [tmp_path / "abl_a", tmp_path / "abl_b"]
    for out in abls:
        assert cli_main(["ablate", "--config", smoke, "--out", str(out)]) == 0
    assert (abls[0] / "ablation.txt").read_bytes() == (abls[1] / "ablation.txt").read_bytes()

    golden = {}
    with open(os.path.join(ROOT, "tests", "golden_checksums.txt")) as fh:
        for line in fh:
            digest, name = line.split()
            golden[name] = digest
    assert _sha256(scenes[0]) == golden["scene.gtc"]
    assert _sha256(runs[0] / "report.txt") == golden["report.txt"]
    assert _sha256(runs[0] / "params.gtc") == golden["params.gtc"]
    print("reproducibility: PASS (reruns byte-identical; scene, report, and "
          "parameter containers match the committed checksums)")
