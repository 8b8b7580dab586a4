"""Neighbor queries and sampling against brute-force enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from flowagg import spatial
from flowagg.spatial import PointCloud, brute_force_knn, fps, knn


def _cloud(points):
    return PointCloud(np.asarray(points, dtype=float))


def _random_cloud(seed, n, scale=1.0):
    rng = np.random.default_rng(seed)
    return _cloud(rng.normal(scale=scale, size=(n, 3)))


def test_collinear_nearest_neighbor():
    # x = 0, 1, 3 on a line: nearest of 0 is 1, of 1 is 0, of 3 is 1.
    c = _cloud([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    got = knn(c, c, k=1)
    np.testing.assert_array_equal(got.indices, [[1], [0], [1]])
    np.testing.assert_array_equal(got.sq_dists, [[1.0], [1.0], [4.0]])


@pytest.mark.parametrize("method", ["kdtree", "brute"])
def test_random_cloud_matches_scan_oracle(method):
    c = _random_cloud(0, 200)
    got = knn(c, c, k=16, method=method)
    idx, d2 = oracles.knn_scan(c.points, c.points, 16)
    np.testing.assert_array_equal(got.indices, idx)
    np.testing.assert_array_equal(got.sq_dists, d2)


def test_kdtree_agrees_with_brute_force_exactly():
    for seed in range(5):
        c = _random_cloud(seed, 120)
        a = knn(c, c, k=8, method="kdtree")
        for b in (brute_force_knn(c, c, k=8), knn(c, c, k=8)):  # the default route
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.sq_dists, b.sq_dists)


def _scan_cases():
    rng = np.random.default_rng(7)
    cloud = rng.normal(size=(50, 3))
    rounded = np.round(rng.uniform(0, 2, size=(50, 3)))
    same = np.ones((50, 3))
    other = rng.normal(size=(23, 3))
    # (name, query, reference (None: the query cloud itself), k, include_self)
    return [
        ("random", cloud, None, 6, False),
        ("rounded", rounded, None, 16, False),
        ("all_identical", same, None, 7, False),
        ("all_identical_k_all", same, None, 49, False),
        ("k_all_others", cloud, None, 49, False),
        ("k_all_with_self", rounded, None, 50, True),
        ("include_self", rounded, None, 5, True),
        ("cross_cloud", other, cloud, 9, False),
        ("cross_cloud_k_all", np.round(other), rounded, 50, False),
        # k = 1 with no self excluded takes each row's argmin.
        ("k_one_ties_with_self", rounded, None, 1, True),
        ("all_identical_k_one_with_self", same, None, 1, True),
        ("cross_cloud_k_one_ties", np.round(other), rounded, 1, False),
    ]


@pytest.mark.parametrize("case", _scan_cases(), ids=lambda c: c[0])
def test_blocked_scan_matches_loop_and_tree(case, monkeypatch):
    # 7 rows of 50 per block: N=50 spans seven full blocks and a partial one.
    monkeypatch.setattr(spatial, "SCAN_BLOCK_PAIRS", 7 * 50 + 3)
    _, qry, ref, k, include_self = case
    q = _cloud(qry)
    r = q if ref is None else _cloud(ref)
    got = brute_force_knn(q, r, k, include_self=include_self)
    idx, d2 = oracles.knn_scan(q.points, r.points, k, include_self=include_self)
    tree = knn(q, r, k, include_self=include_self, method="kdtree")
    for want_idx, want_d2 in ((idx, d2), (tree.indices, tree.sq_dists)):
        np.testing.assert_array_equal(got.indices, want_idx)
        assert got.sq_dists.tobytes() == want_d2.tobytes()


def test_scan_excludes_self_when_distances_overflow():
    # Every squared distance overflows to +inf, so all candidates tie;
    # the query point itself must still not be listed.
    c = _cloud([[0.0, 0, 0], [2e200, 0, 0], [4e200, 0, 0]])
    with np.errstate(over="ignore"):
        got = knn(c, c, k=2)
        tree = knn(c, c, k=2, method="kdtree")
    np.testing.assert_array_equal(got.indices, [[1, 2], [0, 2], [0, 1]])
    np.testing.assert_array_equal(got.indices, tree.indices)
    assert np.isposinf(got.sq_dists).all()


def test_k_one_takes_the_lowest_index_when_distances_overflow():
    # Every squared distance from the first query overflows to +inf, so
    # all references tie and the scan and the tree pick the lowest index;
    # the other two have one finite distance each.
    ref = _cloud([[-3e200, 0, 0], [2e200, 0, 0], [4e200, 0, 0]])
    qry = _cloud([[0.0, 0, 0], [2e200, 0, 0], [4e200, 1e150, 0]])
    with np.errstate(over="ignore"):
        got = knn(qry, ref, k=1)
        self_too = knn(ref, ref, k=1, include_self=True)
        tree = knn(qry, ref, k=1, method="kdtree")
    np.testing.assert_array_equal(got.indices, [[0], [1], [2]])
    np.testing.assert_array_equal(got.indices, tree.indices)
    assert got.sq_dists.tobytes() == tree.sq_dists.tobytes()
    assert np.isposinf(got.sq_dists[0]).all()
    np.testing.assert_array_equal(self_too.indices, [[0], [1], [2]])


def test_duplicate_points_tie_break_by_index():
    # Quantized coordinates force exact distance ties; both routes must
    # resolve them identically (lower index first).
    rng = np.random.default_rng(1)
    pts = np.round(rng.uniform(0, 2, size=(60, 3)))
    c = _cloud(pts)
    a = knn(c, c, k=10, method="kdtree")
    b = knn(c, c, k=10, method="brute")
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.sq_dists, b.sq_dists)


def test_cross_cloud_query_keeps_coincident_reference():
    ref = _cloud([[0.0, 0, 0], [5.0, 0, 0]])
    qry = _cloud([[0.0, 0, 0]])
    got = knn(qry, ref, k=2)
    np.testing.assert_array_equal(got.indices, [[0, 1]])
    np.testing.assert_array_equal(got.sq_dists, [[0.0, 25.0]])


def test_include_self_lists_self_first():
    c = _random_cloud(2, 30)
    got = knn(c, c, k=3, include_self=True)
    np.testing.assert_array_equal(got.indices[:, 0], np.arange(30))
    np.testing.assert_array_equal(got.sq_dists[:, 0], np.zeros(30))


def test_k_bounds():
    c = _random_cloud(3, 5)
    with pytest.raises(ValueError):
        knn(c, c, k=5)  # only 4 others available
    with pytest.raises(ValueError):
        knn(c, c, k=0)
    knn(c, c, k=5, include_self=True)  # fits with self included


def test_unknown_method_rejected():
    c = _random_cloud(4, 10)
    with pytest.raises(ValueError):
        knn(c, c, k=2, method="voxel")


@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_knn_property_matches_oracle(seed, n, k):
    k = min(k, n - 1)
    c = _random_cloud(seed, n)
    got = knn(c, c, k=k)
    idx, d2 = oracles.knn_scan(c.points, c.points, k)
    np.testing.assert_array_equal(got.indices, idx)
    np.testing.assert_array_equal(got.sq_dists, d2)


def test_point_cloud_validates_shape():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((4, 2)))


def test_fps_unit_square_picks_diagonal():
    corners = _cloud([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]])
    np.testing.assert_array_equal(fps(corners, 2), [0, 3])
    # After the diagonal pair the remaining corners tie; lowest index wins.
    np.testing.assert_array_equal(fps(corners, 4), [0, 3, 1, 2])


def test_fps_matches_greedy_oracle():
    for seed in range(10):
        c = _random_cloud(seed, 25)
        start = seed % 25
        got = fps(c, 12, seed_index=start)
        np.testing.assert_array_equal(got, oracles.fps_greedy(c.points, 12, start))


def test_fps_full_sample_is_permutation():
    c = _random_cloud(11, 15)
    got = fps(c, 15)
    assert sorted(got.tolist()) == list(range(15))


def test_fps_bounds():
    c = _random_cloud(12, 6)
    with pytest.raises(ValueError):
        fps(c, 7)
    with pytest.raises(ValueError):
        fps(c, 0)
    with pytest.raises(ValueError):
        fps(c, 3, seed_index=6)
