"""Exact spatial queries over 3-D point clouds.

Provides k-nearest-neighbour search and farthest point sampling. There
are two knn routes: a blocked numpy scan over all pairs (the default) and
a kd-tree, kept as an independent implementation that checks the scan.
Both return identical results, including ordering: neighbours are sorted
by squared Euclidean distance and ties broken by lower point index.
Squared distances are computed the same way everywhere
(``dx*dx + dy*dy + dz*dz`` in float64) so the two routes agree bit for
bit, not merely within a tolerance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PointCloud:
    """N points in 3-D, float64, one row per point."""

    points: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.points, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 3:
            raise ValueError(f"point cloud must have shape (N, 3), got {p.shape}")
        if p.size and not np.isfinite(p).all():
            raise ValueError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", p)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class NeighborIndex:
    """k-NN query result: for each of N query points, the indices of its k
    neighbours in the reference cloud (nearest first) and their squared
    distances. Both arrays are N x k."""

    indices: np.ndarray    # int64
    sq_dists: np.ndarray   # float64


def _sq_dist(q: np.ndarray, p: np.ndarray) -> float:
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    dz = q[2] - p[2]
    return dx * dx + dy * dy + dz * dz


KDTREE_LEAF_SIZE = 16


class KdTree:
    """Static kd-tree over a 3-D cloud with exact k-NN queries.

    Axes cycle x, y, z by depth; splits take the median point (ties by
    index, via a stable argsort on the coordinate). Leaves hold up to
    ``KDTREE_LEAF_SIZE`` points and are scanned linearly.
    """

    __slots__ = ("points", "_nodes")

    def __init__(self, points: np.ndarray):
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(f"KdTree expects (N, 3) points, got {self.points.shape}")
        # Nodes are tuples; leaves: ("leaf", idx_array), splits:
        # ("split", axis, threshold, left, right).
        self._nodes = self._build(np.arange(len(self.points), dtype=np.int64), 0)

    def _build(self, idx: np.ndarray, depth: int):
        if idx.size <= KDTREE_LEAF_SIZE:
            return ("leaf", idx)
        axis = depth % 3
        order = idx[np.argsort(self.points[idx, axis], kind="stable")]
        mid = order.size // 2
        threshold = self.points[order[mid], axis]
        left = self._build(order[:mid], depth + 1)
        right = self._build(order[mid:], depth + 1)
        return ("split", axis, float(threshold), left, right)

    def query(self, q: np.ndarray, k: int, skip: int = -1) -> tuple[np.ndarray, np.ndarray]:
        """k nearest points to `q`, optionally skipping index `skip`.

        Returns (indices, squared distances), nearest first, ties by lower
        index. Branches are pruned only when the splitting plane is
        strictly farther than the current worst candidate, so equidistant
        points across the plane are still found.
        """
        q = np.asarray(q, dtype=np.float64)
        # Max-heap via negated keys; candidate order (d2, idx) ascending
        # means the heap root is the current worst keeper.
        heap: list[tuple[float, int]] = []

        def consider(i: int):
            if i == skip:
                return
            d2 = _sq_dist(q, self.points[i])
            entry = (-d2, -i)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)

        def visit(node):
            if node[0] == "leaf":
                for i in node[1]:
                    consider(int(i))
                return
            _, axis, threshold, left, right = node
            delta = q[axis] - threshold
            near, far = (left, right) if delta < 0.0 else (right, left)
            visit(near)
            if len(heap) < k or delta * delta <= -heap[0][0]:
                visit(far)

        visit(self._nodes)
        found = sorted((-nd2, -ni) for nd2, ni in heap)
        idx = np.array([i for _, i in found], dtype=np.int64)
        d2 = np.array([d for d, _ in found], dtype=np.float64)
        return idx, d2


# The scan handles this many query-reference pairs per block at most,
# unless one query row is longer. Its two float64 block buffers are 256 KB
# each; on x86-64 this ran 1.2-1.7x faster at N=1000-4000 than blocks of
# 2^18 pairs, whose buffers spill out of a core's cache.
SCAN_BLOCK_PAIRS = 1 << 15


def brute_force_knn(query: PointCloud, reference: PointCloud, k: int,
                    include_self: bool = False) -> NeighborIndex:
    """k-NN by an exact scan over all query-reference pairs.

    Semantics match :func:`knn` exactly. Query rows are processed in
    blocks of at most ``SCAN_BLOCK_PAIRS`` distances, formed in place in
    buffers the call allocates once. Within a block, every
    reference point no farther than a row's k-th smallest distance is a
    candidate (so ties at the boundary are all kept); candidates are
    ordered by (distance, index) and the first k of each row are returned.
    """
    _validate_knn_args(query, reference, k, include_self)
    q = query.points
    skip_self = q is reference.points and not include_self
    # One contiguous row per reference coordinate, read by every block.
    px, py, pz = np.ascontiguousarray(reference.points.T)
    n, m = len(query), len(reference)
    indices = np.empty((n, k), dtype=np.int64)
    sq_dists = np.empty((n, k), dtype=np.float64)
    rows = max(1, SCAN_BLOCK_PAIRS // m)
    first_k = np.arange(k)
    # Every block forms its squared distances in these two buffers, in
    # the order (dx*dx + dy*dy) + dz*dz that _sq_dist evaluates.
    d2_buf = np.empty((min(rows, n), m))
    tmp_buf = np.empty_like(d2_buf)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d2, tmp = d2_buf[:hi - lo], tmp_buf[:hi - lo]
        np.subtract(q[lo:hi, 0, None], px, out=d2)
        d2 *= d2
        np.subtract(q[lo:hi, 1, None], py, out=tmp)
        tmp *= tmp
        d2 += tmp
        np.subtract(q[lo:hi, 2, None], pz, out=tmp)
        tmp *= tmp
        d2 += tmp
        if skip_self:
            # NaN, not +inf: it sorts after +inf and fails every <= test,
            # so self stays out even where real distances overflow to +inf.
            d2[np.arange(hi - lo), np.arange(lo, hi)] = np.nan
        tmp[...] = d2
        tmp.partition(k - 1, axis=1)
        kth = tmp[:, k - 1, None]
        row, col = np.nonzero(d2 <= kth)
        dist = d2[row, col]
        # np.nonzero yields rows ascending and columns ascending within a
        # row, so this stable sort breaks distance ties by lower index and
        # leaves each row's candidates in place; every row has at least k.
        order = np.lexsort((dist, row))
        starts = np.searchsorted(row, np.arange(hi - lo))
        pick = order[starts[:, None] + first_k]
        indices[lo:hi] = col[pick]
        sq_dists[lo:hi] = dist[pick]
    return NeighborIndex(indices, sq_dists)


def knn(query: PointCloud, reference: PointCloud, k: int,
        include_self: bool = False, method: str = "brute") -> NeighborIndex:
    """k nearest neighbours of each query point within `reference`.

    When query and reference are the same cloud (same array object), each
    point's own index is excluded unless ``include_self`` is set. Results
    are ordered nearest first with ties broken by lower reference index.
    ``method`` picks "brute" (default), the blocked numpy scan of
    :func:`brute_force_knn`, or "kdtree", the independent check route.
    On one x86-64 core the scan ran 7-45x faster than the tree at every
    N measured, from 200 to 4000 points (k=8; the gap narrows as N grows).
    """
    if method == "brute":
        return brute_force_knn(query, reference, k, include_self)
    if method != "kdtree":
        raise ValueError(f"unknown knn method {method!r}")
    _validate_knn_args(query, reference, k, include_self)
    same = query.points is reference.points
    tree = KdTree(reference.points)
    n = len(query)
    indices = np.empty((n, k), dtype=np.int64)
    sq_dists = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        skip = i if (same and not include_self) else -1
        idx, d2 = tree.query(query.points[i], k, skip=skip)
        indices[i] = idx
        sq_dists[i] = d2
    return NeighborIndex(indices, sq_dists)


def _validate_knn_args(query: PointCloud, reference: PointCloud, k: int,
                       include_self: bool) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    available = len(reference)
    if query.points is reference.points and not include_self:
        available -= 1
    if k > available:
        raise ValueError(f"k={k} exceeds the {available} available reference points")


def fps(cloud: PointCloud, m: int, seed_index: int = 0) -> np.ndarray:
    """Farthest point sampling: greedily pick `m` indices, each maximizing
    the minimum squared distance to the points already chosen.

    Ties go to the lowest index. The result starts with ``seed_index`` and
    is deterministic for fixed inputs.
    """
    n = len(cloud)
    if not 1 <= m <= n:
        raise ValueError(f"cannot sample {m} points from a cloud of {n}")
    if not 0 <= seed_index < n:
        raise ValueError(f"seed index {seed_index} out of range")
    pts = cloud.points
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = seed_index
    # Minimum squared distance from each point to the chosen set; chosen
    # points are forced to -1 so argmax never revisits them.
    min_d2 = ((pts - pts[seed_index]) ** 2).sum(axis=1)
    min_d2[seed_index] = -1.0
    for c in range(1, m):
        nxt = int(np.argmax(min_d2))
        chosen[c] = nxt
        d2 = ((pts - pts[nxt]) ** 2).sum(axis=1)
        np.minimum(min_d2, d2, out=min_d2)
        min_d2[nxt] = -1.0
    return chosen
