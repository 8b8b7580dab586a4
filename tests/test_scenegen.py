"""Scene generator invariants: ground truth, occlusion structure, determinism."""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

import oracles
from flowagg.config import parse_config_file
from flowagg.containers import ContainerError, pack_tensors
from flowagg.metrics import FlowField
from flowagg.spatial import PointCloud, brute_force_knn
from flowagg.rng import LANE_MIN_DRAWS, Xoshiro256StarStar, derive_seed
from flowagg.scenegen import (
    MIN_BLOB_TRUNCATION,
    GenerationError,
    SceneConfig,
    _Geometry,
    _match_closure,
    _nearest_free,
    _neighbor_rows,
    _occlude_local,
    _sample_blob,
    _sample_geometry,
    generate_scene,
    scene_from_tensors,
    scene_tensors,
    synth_features,
    verify_scene,
)


def _cfg(**kw):
    base = dict(n_clusters=2, points_per_cluster=40, seed=0)
    base.update(kw)
    return SceneConfig(**base)


GLOBAL_KW = dict(n_clusters=4, points_per_cluster=30, clusters_per_group=2,
                 occlusion_fraction=0.5, occlusion_mode="global",
                 center_spread=4.0, min_center_sep=5.5, blob_truncation=2.5)


def test_shapes_and_types():
    cfg = _cfg(occlusion_fraction=0.3, occlusion_mode="local")
    s = generate_scene(cfg)
    n = cfg.n_points
    assert s.frame1.points.shape == (n, 3)
    assert s.gt_flow.vectors.shape == (n, 3)
    assert s.occlusion_mask.shape == (n,) and s.occlusion_mask.dtype == bool
    assert s.cluster_id.shape == (n,)
    assert s.context.shape == (n, cfg.context_dim)
    assert s.motion_in.shape == (n, cfg.motion_dim)
    assert s.frame2.points.shape == (n - round(0.3 * n), 3)
    assert s.occlusion_mask.sum() == round(0.3 * n)


def test_cluster_ids_partition_points():
    cfg = _cfg(n_clusters=3, points_per_cluster=25)
    s = generate_scene(cfg)
    counts = np.bincount(s.cluster_id, minlength=3)
    np.testing.assert_array_equal(counts, [25, 25, 25])


def test_visible_points_warp_into_frame2():
    cfg = _cfg(occlusion_fraction=0.25, occlusion_mode="local", rotation_range=0.4)
    s = generate_scene(cfg)
    warped = s.frame1.points + s.gt_flow.vectors
    for i in np.flatnonzero(~s.occlusion_mask):
        d = np.sqrt(((s.frame2.points - warped[i]) ** 2).sum(axis=1)).min()
        assert d < 1e-9


def test_occluded_points_have_no_match():
    cfg = _cfg(occlusion_fraction=0.25, occlusion_mode="local")
    s = generate_scene(cfg)
    warped = s.frame1.points + s.gt_flow.vectors
    for i in np.flatnonzero(s.occlusion_mask):
        d = np.sqrt(((s.frame2.points - warped[i]) ** 2).sum(axis=1)).min()
        assert d > cfg.r_match


def test_local_mode_keeps_visible_neighbors():
    cfg = _cfg(occlusion_fraction=0.3, occlusion_mode="local", occlusion_clump=4)
    s = generate_scene(cfg)
    idx, _ = oracles.knn_scan(s.frame1.points, s.frame1.points, cfg.constraint_k)
    for i in np.flatnonzero(s.occlusion_mask):
        assert (~s.occlusion_mask[idx[i]]).any()


def test_global_mode_blacks_out_whole_neighborhoods():
    s = generate_scene(_cfg(**GLOBAL_KW))
    assert s.occlusion_mask.sum() == 60  # two of four equal clusters
    idx, _ = oracles.knn_scan(s.frame1.points, s.frame1.points, 16)
    for i in np.flatnonzero(s.occlusion_mask):
        assert s.occlusion_mask[idx[i]].all()
    # occlusion lands on whole clusters, one per group
    for c in range(4):
        in_cluster = s.occlusion_mask[s.cluster_id == c]
        assert in_cluster.all() or not in_cluster.any()


def test_fps_mode_keeps_spread_subset():
    cfg = _cfg(occlusion_fraction=0.4, occlusion_mode="fps")
    s = generate_scene(cfg)
    assert s.occlusion_mask.sum() == round(0.4 * cfg.n_points)


def test_generation_is_deterministic():
    cfg = _cfg(occlusion_fraction=0.3, occlusion_mode="local",
               rotation_range=0.3, feature_noise_std=0.1)
    a = generate_scene(cfg)
    b = generate_scene(cfg)
    for (name, ta), (_, tb) in zip(scene_tensors(a), scene_tensors(b)):
        assert ta.tobytes() == tb.tobytes(), name
    c = generate_scene(dataclasses.replace(cfg, seed=1))
    assert a.frame1.points.tobytes() != c.frame1.points.tobytes()


def test_verify_scene_rejects_corrupted_mask():
    cfg = _cfg(occlusion_fraction=0.3, occlusion_mode="local")
    s = generate_scene(cfg)
    verify_scene(s, cfg)
    bad_mask = s.occlusion_mask.copy()
    bad_mask[np.flatnonzero(~bad_mask)[0]] = True
    bad = dataclasses.replace(s, occlusion_mask=bad_mask)
    with pytest.raises(GenerationError):
        verify_scene(bad, cfg)


def test_verify_scene_rejects_corrupted_flow():
    cfg = _cfg(occlusion_fraction=0.2, occlusion_mode="local")
    s = generate_scene(cfg)
    bad_flow = s.gt_flow.vectors.copy()
    bad_flow[0] += 0.05
    with pytest.raises(GenerationError):
        verify_scene(dataclasses.replace(s, gt_flow=FlowField(bad_flow)), cfg)


def test_verify_scene_names_the_lowest_offending_point():
    cfg = _cfg(occlusion_fraction=0.2, occlusion_mode="local")
    s = generate_scene(cfg)
    visible = np.flatnonzero(~s.occlusion_mask)
    bad_flow = s.gt_flow.vectors.copy()
    bad_flow[visible[[5, 2]]] += 0.05
    bad = dataclasses.replace(s, gt_flow=FlowField(bad_flow))
    with pytest.raises(GenerationError, match=f"non-occluded point {visible[2]} lost"):
        verify_scene(bad, cfg)
    bad_mask = s.occlusion_mask.copy()
    bad_mask[visible[1]] = True
    with pytest.raises(GenerationError, match=f"^occluded point {visible[1]} still"):
        verify_scene(dataclasses.replace(bad, occlusion_mask=bad_mask), cfg)

    # Each mode's scene breaks the other mode's neighbour invariant.
    first = np.flatnonzero(s.occlusion_mask)[0]
    nbrs = oracles.knn_scan(s.frame1.points, s.frame1.points, cfg.constraint_k)[0]
    seen = int((~s.occlusion_mask[nbrs[first]]).sum())
    with pytest.raises(GenerationError,
                       match=f"global mode: occluded point {first} has {seen} visible"):
        verify_scene(s, dataclasses.replace(cfg, occlusion_mode="global"))
    gcfg = _cfg(**GLOBAL_KW)
    g = generate_scene(gcfg)
    first = np.flatnonzero(g.occlusion_mask)[0]
    with pytest.raises(GenerationError, match=f"local mode: occluded point {first} has no"):
        verify_scene(g, dataclasses.replace(gcfg, occlusion_mode="local"))


def test_context_is_scaled_group_indicator():
    cfg = _cfg(context_scale=4.0)
    s = generate_scene(cfg)
    # without noise each context row is one-hot on its cluster's group
    for i in range(cfg.n_points):
        row = s.context[i]
        g = s.cluster_id[i]  # one cluster per group here
        assert row[g] == 4.0
        assert np.count_nonzero(row) == 1


def test_grouped_clusters_share_context_channel():
    s = generate_scene(_cfg(**GLOBAL_KW))
    for i in range(len(s)):
        g = s.cluster_id[i] // 2
        assert s.context[i, g] != 0.0


def test_context_needs_one_column_per_group_not_per_cluster():
    # 4 clusters in 2 groups one-hot-encode into 2 of the 3 columns.
    cfg = _cfg(n_clusters=4, clusters_per_group=2, context_dim=3)
    s = generate_scene(cfg)
    assert not s.context[:, cfg.n_groups:].any()
    assert (s.context[np.arange(cfg.n_points), s.cluster_id // 2] == 1.0).all()
    with pytest.raises(GenerationError, match="cannot embed 2 groups"):
        _cfg(n_clusters=4, clusters_per_group=2, context_dim=1).validate()


def test_feature_noise_perturbs_context():
    quiet = generate_scene(_cfg())
    noisy = generate_scene(_cfg(feature_noise_std=0.05))
    np.testing.assert_array_equal(quiet.frame1.points, noisy.frame1.points)
    delta = np.abs(noisy.context - quiet.context)
    assert 0.0 < delta.max() < 0.5


def test_motion_embedding_is_identity_at_dim_3():
    cfg = _cfg(motion_dim=3, occlusion_fraction=0.3, occlusion_mode="local")
    s = generate_scene(cfg)
    vis = ~s.occlusion_mask
    np.testing.assert_array_equal(s.motion_in[vis], s.gt_flow.vectors[vis])
    np.testing.assert_array_equal(s.motion_in[~vis], 0.0)


def test_noise_corruption_fills_occluded_rows():
    cfg = _cfg(occlusion_fraction=0.3, occlusion_mode="local",
               motion_corruption="noise", corruption_noise_std=0.5)
    s = generate_scene(cfg)
    occ = s.occlusion_mask
    assert np.abs(s.motion_in[occ]).max() > 0.0


def test_min_center_sep_separates_clusters():
    s = generate_scene(_cfg(**GLOBAL_KW))
    mins = []
    for a in range(4):
        for b in range(a + 1, 4):
            pa = s.frame1.points[s.cluster_id == a]
            pb = s.frame1.points[s.cluster_id == b]
            d = np.sqrt(((pa[:, None] - pb[None]) ** 2).sum(-1)).min()
            mins.append(d)
    assert min(mins) > 2.0


def test_tensor_round_trip():
    cfg = _cfg(occlusion_fraction=0.2, occlusion_mode="local")
    s = generate_scene(cfg)
    back = scene_from_tensors(dict(scene_tensors(s)))
    np.testing.assert_array_equal(back.frame1.points, s.frame1.points)
    np.testing.assert_array_equal(back.occlusion_mask, s.occlusion_mask)
    np.testing.assert_array_equal(back.cluster_id, s.cluster_id)
    np.testing.assert_array_equal(back.motion_in, s.motion_in)


@pytest.mark.parametrize("name", ["gt_flow", "occlusion_mask", "cluster_id", "context",
                                  "motion_in"])
def test_scene_from_tensors_rejects_a_per_point_tensor_of_other_length(name):
    named = dict(scene_tensors(generate_scene(_cfg(occlusion_fraction=0.2,
                                                   occlusion_mode="local"))))
    for bad in (named[name][:-1], np.zeros(())):   # one row short, rank 0
        with pytest.raises(ContainerError, match=name):
            scene_from_tensors({**named, name: bad})


@pytest.mark.parametrize("name, doctor", [
    ("occlusion_mask", lambda m: np.where(m == 0.0, np.nan, m)),
    ("occlusion_mask", lambda m: np.where(m == 1.0, 0.5, m)),
    ("occlusion_mask", lambda m: np.where(m == 1.0, -3.0, m)),
    ("cluster_id", lambda c: np.where(c == 0.0, np.nan, c)),
    ("cluster_id", lambda c: np.where(c == 0.0, 1e30, c)),
    ("cluster_id", lambda c: np.where(c == 0.0, np.inf, c)),
    ("cluster_id", lambda c: c + 0.5),
    ("cluster_id", lambda c: c - 1.0),
    ("cluster_id", lambda c: np.full_like(c, c.size)),
    ("frame2", lambda f: f[:-1]),
    ("frame2", lambda f: np.vstack([f, f[:1]])),
    ("occlusion_mask", np.ones_like),   # all occluded, but frame2 still holds points
    ("occlusion_mask", lambda m: m[:, None]),
    ("cluster_id", lambda c: np.stack([c, c], axis=1)),
], ids=["mask-nan", "mask-half", "mask-negative", "cluster-nan", "cluster-1e30",
        "cluster-inf", "cluster-fraction", "cluster-negative", "cluster-n", "frame2-short",
        "frame2-long", "mask-all-occluded", "mask-column", "cluster-two-columns"])
def test_scene_from_tensors_rejects_values_the_generator_cannot_write(name, doctor):
    named = dict(scene_tensors(generate_scene(_cfg(occlusion_fraction=0.2,
                                                   occlusion_mode="local"))))
    scene_from_tensors(named)
    with pytest.raises(ContainerError, match=name):
        scene_from_tensors({**named, name: doctor(named[name])})


def test_config_validation():
    with pytest.raises(GenerationError):
        _cfg(occlusion_fraction=1.5).validate()
    with pytest.raises(GenerationError):
        _cfg(occlusion_mode="sideways").validate()
    with pytest.raises(GenerationError):
        _cfg(points_per_cluster=0).validate()
    with pytest.raises(GenerationError):
        _cfg(motion_corruption="blur").validate()
    with pytest.raises(GenerationError):
        _cfg(n_clusters=3, clusters_per_group=2).validate()
    for scale in ("cluster_spread", "center_spread", "translation_range"):
        _cfg(**{scale: 1e30}).validate()
        with pytest.raises(GenerationError, match=f"^{scale}=1e\\+31 exceeds"):
            _cfg(**{scale: 1e31}).validate()


def test_blob_truncation_below_the_floor_is_rejected():
    # Below the floor the blob's rejection sampling runs for seconds to
    # forever; 0 (no truncation) and the floor itself pass.
    for ok in (0.0, MIN_BLOB_TRUNCATION, 2.5):
        _cfg(blob_truncation=ok).validate()
    for t in (0.4999, 0.1, 1e-4, 5e-324):
        with pytest.raises(GenerationError, match=f"^blob_truncation={t!r} is below 0.5: "):
            _cfg(blob_truncation=t).validate()


def test_global_mode_needs_room_for_survivors():
    with pytest.raises(GenerationError):
        generate_scene(_cfg(occlusion_fraction=0.9, occlusion_mode="global"))
    with pytest.raises(GenerationError):
        generate_scene(_cfg(occlusion_fraction=0.1, occlusion_mode="global"))



def test_lane_sized_scene_keeps_its_bytes():
    # ablation_local.cfg at 2 x 500 points draws its context noise as one
    # batch of 1000 x 32 normals (32,000 raw draws), past LANE_MIN_DRAWS,
    # so this pins the lane route, which no draw of the goldens reaches.
    cfg = parse_config_file(os.path.join(os.path.dirname(__file__), os.pardir,
                                         "configs", "ablation_local.cfg")).scene
    cfg = dataclasses.replace(cfg, points_per_cluster=500, seed=0)
    assert cfg.n_points * cfg.context_dim >= LANE_MIN_DRAWS
    blob = pack_tensors(scene_tensors(generate_scene(cfg)))
    assert hashlib.sha256(blob).hexdigest() == (
        "18c901e89bb51850c7c34e9169cf054d718959ab9e0bcae80291428334716c57")

def test_features_regenerate_bitwise():
    cfg = _cfg(occlusion_fraction=0.2, occlusion_mode="local",
               feature_noise_std=0.1, motion_corruption="noise",
               corruption_noise_std=0.3)
    s = generate_scene(cfg)
    ctx, mot = synth_features(s.gt_flow.vectors, s.cluster_id, s.occlusion_mask, cfg)
    assert ctx.tobytes() == s.context.tobytes()
    assert mot.tobytes() == s.motion_in.tobytes()


@pytest.mark.parametrize("truncation", [0.5, 2.5])
def test_truncated_blob_matches_per_point_rejection(truncation):
    cfg = _cfg(points_per_cluster=50, cluster_spread=0.3, blob_truncation=truncation)
    g = Xoshiro256StarStar(8)
    got = _sample_blob(cfg, g)
    recipe = oracles.RecipeStream(8, 20000)
    expect = oracles.truncated_blob_loop(recipe, 50, truncation, 0.3)
    assert got.shape == (50, 3)
    assert got.tobytes() == expect.tobytes()
    assert g.s == recipe.state()
    assert g._spare_normal == recipe.spare


def _geometry(warped):
    warped = np.asarray(warped, dtype=float)
    n = len(warped)
    return _Geometry(warped.copy(), warped, np.zeros((n, 3)), np.zeros(n, dtype=np.int64))


def test_match_closure_follows_a_chain_to_its_end():
    r_match = 1e-3
    chain = [[0.99 * r_match * i, 0.0, 0.0] for i in range(6)]
    far = [[5.0, 0.0, 0.0], [5.0, 1.0, 0.0], [0.0, 5.0, 0.0]]
    geo = _geometry(far[:1] + chain + far[1:])
    mask = np.zeros(len(geo.warped), dtype=bool)
    mask[1] = True
    expect, passes = oracles.match_closure_loop(geo.warped, mask, r_match)
    assert passes >= 2
    got = _match_closure(geo, _cfg(r_match=r_match), mask)
    np.testing.assert_array_equal(got, expect)
    np.testing.assert_array_equal(got, [False] + [True] * 6 + [False, False])
    assert mask.sum() == 1


def test_match_closure_rejects_an_emptied_frame2():
    geo = _geometry([[0.0009 * i, 0.0, 0.0] for i in range(5)])
    mask = np.zeros(5, dtype=bool)
    mask[4] = True
    with pytest.raises(GenerationError, match="every frame-2 point"):
        _match_closure(geo, _cfg(r_match=1e-3), mask)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_match_closure_matches_the_loop_on_random_clouds(seed):
    rng = np.random.default_rng(seed)
    geo = _geometry(rng.uniform(0.0, 1.0, size=(120, 3)))
    mask = rng.uniform(size=120) < 0.1
    expect, _ = oracles.match_closure_loop(geo.warped, mask, 0.1)
    got = _match_closure(geo, _cfg(r_match=0.1), mask)
    np.testing.assert_array_equal(got, expect)


def _neighbor_rows_cases():
    rng = np.random.default_rng(11)
    cloud = rng.normal(size=(40, 3))
    dup = cloud.copy()
    dup[:7] = dup[20]       # rows 0-6 and 20 coincide
    dup[30:36] = dup[8]     # rows 8 and 30-35 coincide
    rounded = np.round(rng.uniform(0, 2, size=(40, 3)))
    return [("random", cloud, 6), ("duplicates", dup, 5), ("rounded", rounded, 8),
            ("all_identical_k_all", np.ones((12, 3)), 11)]


@pytest.mark.parametrize("name,points,k", _neighbor_rows_cases(),
                         ids=[c[0] for c in _neighbor_rows_cases()])
def test_neighbor_rows_are_rows_of_the_self_excluding_table(name, points, k):
    cloud = PointCloud(points)
    table = brute_force_knn(cloud, cloud, k).indices
    oracle, _ = oracles.knn_scan(points, points, k)
    np.testing.assert_array_equal(table, oracle)
    n = len(points)
    if name == "duplicates":
        # k + 1 exact duplicates of lower index push rows 6 and 20 out of
        # their own k + 1 nearest; row 5 is the (k+1)-th of its own.
        for i in (6, 20):
            assert (points[:i] == points[i]).all(axis=1).sum() >= k + 1
        assert (points[:5] == points[5]).all(axis=1).sum() == k
    perm = np.random.default_rng(3).permutation(n)
    for rows in (np.arange(n), perm, perm[: n // 3], np.arange(n)[::-1][:5],
                 np.array([n - 1]), np.array([], dtype=np.int64)):
        got = _neighbor_rows(points, rows, k)
        assert got.shape == (len(rows), k) and got.dtype == np.int64
        np.testing.assert_array_equal(got, table[rows])


def _stable_pick(d2, mask, c, grow):
    """The clump a stable argsort of the whole cloud picks."""
    order = np.argsort(d2, kind="stable")
    return order[(order != c) & ~mask[order]][:grow]


def _lattice_pick_cases():
    grid = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    c = 62                                  # the centre (2, 2, 2)
    d2 = ((grid[c] - grid) ** 2).sum(axis=1)
    none = np.zeros(len(grid), dtype=bool)
    axis_nbrs = np.flatnonzero(d2 == 1.0)   # six points tied at distance 1
    near_masked = none.copy()
    near_masked[axis_nbrs] = True
    few_free = ~none
    few_free[[0, 3, 61, 63, 100, c]] = False  # five free points besides c
    return c, d2, {
        "ties_at_the_cut": (none, 4), "ties_past_the_first_shell": (none, 9),
        "nearest_masked": (near_masked, 3), "fewer_free_than_grow": (few_free, 10),
        "one": (none, 1)}


@pytest.mark.parametrize("case", list(_lattice_pick_cases()[2]))
def test_clump_picks_equal_the_stable_argsort_of_the_cloud(case):
    c, d2, cases = _lattice_pick_cases()
    mask, grow = cases[case]
    free = np.flatnonzero(~mask)
    got = _nearest_free(d2, free[free != c], grow)
    np.testing.assert_array_equal(got, _stable_pick(d2, mask, c, grow))
    assert len(got) == min(grow, (~mask).sum() - 1)


def _occlude_local_by_argsort(geo, cfg, rng):
    """_occlude_local with each clump grown by a stable argsort of the
    whole cloud, checked against the full self-excluding table."""
    n = len(geo.frame1)
    target = round(cfg.occlusion_fraction * n)
    cloud = PointCloud(geo.frame1)
    nbrs = brute_force_knn(cloud, cloud, cfg.constraint_k).indices
    mask = np.zeros(n, dtype=bool)
    candidates = list(range(n))
    rng.shuffle(candidates)
    taken = 0
    for c in candidates:
        if taken == target:
            break
        if mask[c]:
            continue
        grow = min(cfg.occlusion_clump, target - taken) - 1
        d2 = ((geo.frame1[c] - geo.frame1) ** 2).sum(axis=1)
        clump = [c, *_stable_pick(d2, mask, c, grow)]
        mask[clump] = True
        if (~mask[nbrs[mask]]).any(axis=1).all():
            taken += len(clump)
        else:
            mask[clump] = False
    assert taken == target
    return mask


def test_local_occluder_mask_at_n2000_equals_the_argsort_route():
    cfg = parse_config_file(os.path.join(os.path.dirname(__file__), os.pardir,
                                         "configs", "ablation_local.cfg")).scene
    cfg = dataclasses.replace(cfg, points_per_cluster=1000)
    assert (cfg.n_points, cfg.occlusion_clump) == (2000, 8)
    geo = _sample_geometry(cfg)
    got = _occlude_local(geo, cfg, Xoshiro256StarStar(derive_seed(cfg.seed, 2)))
    expect = _occlude_local_by_argsort(geo, cfg, Xoshiro256StarStar(derive_seed(cfg.seed, 2)))
    np.testing.assert_array_equal(got, expect)
    assert got.sum() == 600
    # The mask the former whole-cloud argsort gave.
    assert hashlib.sha256(got.tobytes()).hexdigest() == (
        "48878ea6864c0e5b00a1adaddf8aca796eb78d7ededf6e132bc15c6668dc7d77")
