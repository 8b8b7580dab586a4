"""Synthetic two-frame scenes with rigid cluster motion, ground-truth flow,
and controlled occlusion.

A scene is built from Gaussian blob clusters. Clusters are grouped (group
size 1 by default); every cluster in a group moves by the same rigid
transform, applied about the cluster's own center, and shares the group's
context embedding. Occlusion deletes the frame-2 counterparts of selected
frame-1 points:

``local``   a scattered subset, chosen so that every occluded point keeps
            at least one non-occluded point among its ``constraint_k``
            nearest frame-1 neighbours;
``global``  whole clusters at a time, spread round-robin over groups, so
            occluded points have no non-occluded near neighbours at all;
``fps``     frame 2 is reduced to a farthest-point subsample, which hides
            points without any spatial pattern.

Per-point input features are synthesized alongside: ``context`` is a noisy
one-hot group embedding, ``motion_in`` is a fixed linear embedding of the
true flow that is corrupted (zeroed, or replaced by noise) exactly at
occluded points. The generator is deterministic given the config seed and
verifies its own output by brute force before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .containers import ContainerError
from .metrics import FlowField
from .rng import Xoshiro256StarStar, derive_seed
from .spatial import PointCloud, brute_force_knn, fps

OCCLUSION_MODES = ("local", "global", "fps")
CORRUPTION_MODES = ("zero", "noise")
# Largest cluster_spread, center_spread or translation_range. A coordinate
# sums a center, a blob offset of at most about 15 spreads and a
# translation; this keeps it, and every squared distance the kNN scans
# form, far inside float32 storage (3.4e38) and float64 arithmetic.
MAX_GEOMETRY_SCALE = 1e30
# Smallest positive blob_truncation. A 3-D normal draw lands within t
# standard deviations with probability about 0.27 t^3 for small t, and
# _sample_blob redraws until every point has landed: at 0.5 that is about
# 32 draws per point, and each halving of t costs 8 times as many.
MIN_BLOB_TRUNCATION = 0.5


class GenerationError(ValueError):
    """Raised when a scene config is invalid or unsatisfiable."""


@dataclass
class SceneConfig:
    """Everything that determines a synthetic scene.

    Geometry: ``n_clusters`` Gaussian blobs of ``points_per_cluster``
    points with standard deviation ``cluster_spread``, centers drawn
    uniformly in a cube of half-width ``center_spread``. Setting
    ``min_center_sep`` > 0 rejection-samples centers until pairwise at
    least that far apart; ``blob_truncation`` > 0 resamples blob offsets
    beyond that many standard deviations (at least
    ``MIN_BLOB_TRUNCATION``). Together they bound cluster
    overlap, which the global occlusion mode's invariant (occluded points
    have no visible near neighbours) depends on. Motion: per group, a
    rotation of angle up to ``rotation_range`` (radians, about a random
    axis through each cluster's center) plus a translation with
    components up to ``translation_range`` (meters).

    ``clusters_per_group`` > 1 creates semantic twins: clusters sharing
    one context embedding and one rigid motion, which is what makes whole-
    cluster (global) occlusion recoverable from the rest of the scene.
    ``n_clusters`` must be divisible by it.

    ``constraint_k`` is the neighbourhood size used when checking the
    local/global occlusion invariants; ``r_match`` is the radius below
    which a frame-2 point counts as a surviving counterpart.
    """

    n_clusters: int = 2
    points_per_cluster: int = 100
    cluster_spread: float = 0.5
    center_spread: float = 3.0
    min_center_sep: float = 0.0
    blob_truncation: float = 0.0
    translation_range: float = 1.0
    rotation_range: float = 0.0
    occlusion_fraction: float = 0.0
    occlusion_mode: str = "local"
    occlusion_clump: int = 1
    context_scale: float = 1.0
    feature_noise_std: float = 0.0
    motion_corruption: str = "zero"
    corruption_noise_std: float = 0.0
    clusters_per_group: int = 1
    context_dim: int = 32
    motion_dim: int = 32
    constraint_k: int = 16
    r_match: float = 1e-3
    seed: int = 0

    def validate(self) -> None:
        if self.n_clusters < 1 or self.points_per_cluster < 1:
            raise GenerationError("need at least one cluster and one point per cluster")
        if not (self.cluster_spread > 0.0 and self.center_spread >= 0.0):
            raise GenerationError("cluster_spread must be positive, center_spread non-negative")
        for name in ("cluster_spread", "center_spread", "translation_range"):
            if getattr(self, name) > MAX_GEOMETRY_SCALE:
                raise GenerationError(
                    f"{name}={getattr(self, name)!r} exceeds {MAX_GEOMETRY_SCALE:g}: the "
                    f"scene's coordinates would overflow their 32-bit storage")
        if not (self.min_center_sep >= 0.0 and self.blob_truncation >= 0.0):
            raise GenerationError("min_center_sep and blob_truncation must be non-negative")
        if 0.0 < self.blob_truncation < MIN_BLOB_TRUNCATION:
            raise GenerationError(
                f"blob_truncation={self.blob_truncation!r} is below {MIN_BLOB_TRUNCATION}: "
                f"resampling blob offsets gets 8 times slower per halving (0 turns "
                f"truncation off)")
        if not (self.translation_range >= 0.0 and self.rotation_range >= 0.0):
            raise GenerationError("motion ranges must be non-negative")
        if not 0.0 <= self.occlusion_fraction < 1.0:
            raise GenerationError(
                f"occlusion_fraction must lie in [0, 1), got {self.occlusion_fraction}")
        if self.occlusion_mode not in OCCLUSION_MODES:
            raise GenerationError(f"unknown occlusion_mode {self.occlusion_mode!r}")
        if self.occlusion_clump < 1:
            raise GenerationError("occlusion_clump must be at least 1")
        if self.motion_corruption not in CORRUPTION_MODES:
            raise GenerationError(f"unknown motion_corruption {self.motion_corruption!r}")
        if not (self.corruption_noise_std >= 0.0 and self.feature_noise_std >= 0.0):
            raise GenerationError("noise levels must be non-negative")
        if not self.context_scale > 0.0:
            raise GenerationError("context_scale must be positive")
        if self.clusters_per_group < 1 or self.n_clusters % self.clusters_per_group:
            raise GenerationError(
                f"n_clusters={self.n_clusters} is not divisible by "
                f"clusters_per_group={self.clusters_per_group}")
        if self.context_dim < self.n_groups:
            raise GenerationError(
                f"context_dim={self.context_dim} cannot embed {self.n_groups} groups")
        if self.motion_dim < 1:
            raise GenerationError("motion_dim must be positive")
        if self.constraint_k < 1:
            raise GenerationError("constraint_k must be positive")
        if self.constraint_k > self.n_clusters * self.points_per_cluster - 1:
            raise GenerationError("constraint_k exceeds the number of other points")
        if not self.r_match > 0.0:
            raise GenerationError("r_match must be positive")

    @property
    def n_points(self) -> int:
        return self.n_clusters * self.points_per_cluster

    @property
    def n_groups(self) -> int:
        return self.n_clusters // self.clusters_per_group


@dataclass(frozen=True)
class SyntheticScene:
    """Two frames plus full ground truth.

    ``frame1`` has N points; ``frame2`` holds the surviving warped
    counterparts (M ≤ N, in shuffled order). ``gt_flow`` is defined for
    every frame-1 point, occluded or not. ``occlusion_mask`` is True where
    the counterpart was deleted. ``cluster_id`` is the frame-1 cluster
    index; ``context`` and ``motion_in`` are the per-point input features.
    """

    frame1: PointCloud
    frame2: PointCloud
    gt_flow: FlowField
    occlusion_mask: np.ndarray
    cluster_id: np.ndarray
    context: np.ndarray
    motion_in: np.ndarray

    def __len__(self) -> int:
        return len(self.frame1)


@dataclass(frozen=True)
class _Geometry:
    """Generator-internal: a scene before features are attached."""

    frame1: np.ndarray
    warped: np.ndarray       # frame1 moved by its rigid transforms, row-aligned
    gt_flow: np.ndarray
    cluster_id: np.ndarray


def _rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _sample_centers(cfg: SceneConfig, rng: Xoshiro256StarStar) -> np.ndarray:
    """Cluster centers, uniform in the center cube; with min_center_sep
    set, each is rejection-sampled until far enough from the others."""
    centers = np.empty((cfg.n_clusters, 3))
    sep2 = cfg.min_center_sep * cfg.min_center_sep
    for c in range(cfg.n_clusters):
        for _ in range(10000):
            cand = (rng.uniform_array((3,)) * 2.0 - 1.0) * cfg.center_spread
            if c == 0 or (((centers[:c] - cand) ** 2).sum(axis=1) >= sep2).all():
                centers[c] = cand
                break
        else:
            raise GenerationError(
                f"could not place cluster {c} with min_center_sep="
                f"{cfg.min_center_sep} inside center_spread={cfg.center_spread}; "
                f"widen the cube or relax the separation")
    return centers


def _sample_blob(cfg: SceneConfig, rng: Xoshiro256StarStar) -> np.ndarray:
    """Gaussian offsets for one cluster, optionally with the radial tail
    beyond blob_truncation standard deviations resampled away."""
    if cfg.blob_truncation == 0.0:
        return rng.normal_array((cfg.points_per_cluster, 3)) * cfg.cluster_spread
    # In rounds: draw one triple per missing point and keep the short ones
    # in stream order. A round never draws past the triple that completes
    # the blob, so the stream ends where redrawing point by point would.
    limit2 = cfg.blob_truncation * cfg.blob_truncation
    kept = []
    need = cfg.points_per_cluster
    while need:
        off = rng.normal_array((need, 3))
        off = off[(off ** 2).sum(axis=1) <= limit2]
        kept.append(off)
        need -= len(off)
    return np.concatenate(kept) * cfg.cluster_spread


def _sample_geometry(cfg: SceneConfig) -> _Geometry:
    motion_rng = Xoshiro256StarStar(derive_seed(cfg.seed, 0))
    blob_rng = Xoshiro256StarStar(derive_seed(cfg.seed, 1))

    centers = _sample_centers(cfg, motion_rng)
    rotations = []
    translations = []
    for _ in range(cfg.n_groups):
        axis = motion_rng.normal_array((3,))
        while (axis ** 2).sum() < 1e-12:
            axis = motion_rng.normal_array((3,))
        axis = axis / np.sqrt((axis ** 2).sum())
        angle = (motion_rng.uniform() * 2.0 - 1.0) * cfg.rotation_range
        rotations.append(_rotation_matrix(axis, angle))
        translations.append((motion_rng.uniform_array((3,)) * 2.0 - 1.0) * cfg.translation_range)

    frame1 = np.empty((cfg.n_points, 3))
    warped = np.empty((cfg.n_points, 3))
    cluster_id = np.empty(cfg.n_points, dtype=np.int64)
    for c in range(cfg.n_clusters):
        g = c // cfg.clusters_per_group
        rows = slice(c * cfg.points_per_cluster, (c + 1) * cfg.points_per_cluster)
        pts = centers[c] + _sample_blob(cfg, blob_rng)
        frame1[rows] = pts
        warped[rows] = (pts - centers[c]) @ rotations[g].T + centers[c] + translations[g]
        cluster_id[rows] = c
    return _Geometry(frame1, warped, warped - frame1, cluster_id)


def _neighbor_rows(points: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """Rows ``rows`` of the self-excluding table
    ``brute_force_knn(cloud, cloud, k).indices``, scanning only those
    query points. Each row's k + 1 nearest include itself unless k + 1
    exact duplicates of lower index come first; dropping self, or else the
    (k+1)-th entry, leaves the table's row."""
    idx = brute_force_knn(PointCloud(points[rows]), PointCloud(points), k + 1).indices
    keep = idx != rows[:, None]
    keep[keep.all(axis=1), k] = False
    return idx[keep].reshape(len(rows), k)


def _nearest_free(d2: np.ndarray, free: np.ndarray, grow: int) -> np.ndarray:
    """The ``grow`` points of ``free`` (ascending indices) nearest by
    ``d2``, ties by lower index: what a stable argsort of the whole cloud
    would list first, found from one partition and a sort of the points
    at or below the grow-th distance."""
    d = d2[free]
    if free.size > grow:
        keep = d <= np.partition(d, grow - 1)[grow - 1]
        free, d = free[keep], d[keep]
    # free ascends, so the stable sort breaks distance ties by lower index.
    return free[np.argsort(d, kind="stable")[:grow]]


def _occlude_local(geo: _Geometry, cfg: SceneConfig,
                   rng: Xoshiro256StarStar) -> np.ndarray:
    """Pick a scattered occluded subset keeping the reachability
    constraint: every occluded point retains at least one non-occluded
    point among its constraint_k nearest frame-1 neighbours.

    With occlusion_clump > 1 each accepted pick occludes the candidate
    together with its nearest not-yet-occluded points, carving contiguous
    pockets instead of isolated singles; the reachability constraint is
    still enforced for every occluded point, so pockets stay small enough
    to keep a visible rim. A clump is c's nearest free points by
    (squared distance, index), found by one partition of the free
    points' distances rather than a sort of the whole cloud."""
    n = len(geo.frame1)
    target = round(cfg.occlusion_fraction * n)
    mask = np.zeros(n, dtype=bool)
    if target == 0:
        return mask
    nbrs = _neighbor_rows(geo.frame1, np.arange(n), cfg.constraint_k)

    def all_constrained() -> bool:
        occluded = np.flatnonzero(mask)
        return bool((~mask[nbrs[occluded]]).any(axis=1).all()) if occluded.size else True

    candidates = list(range(n))
    rng.shuffle(candidates)
    taken = 0
    for c in candidates:
        if taken == target:
            break
        if mask[c]:
            continue
        grow = min(cfg.occlusion_clump, target - taken) - 1
        clump = [c]
        if grow:
            # Grow outward from c: nearest free points first, ties by index.
            d2 = ((geo.frame1[c] - geo.frame1) ** 2).sum(axis=1)
            free = np.flatnonzero(~mask)
            clump += _nearest_free(d2, free[free != c], grow).tolist()
        mask[clump] = True
        if all_constrained():
            taken += len(clump)
        else:
            mask[clump] = False
    if taken < target:
        raise GenerationError(
            f"local occlusion: only {taken} of {target} points can be occluded "
            f"without stranding a neighbourhood (constraint_k={cfg.constraint_k}); "
            f"lower occlusion_fraction or raise constraint_k")
    return mask


def _occlude_global(geo: _Geometry, cfg: SceneConfig,
                    rng: Xoshiro256StarStar) -> np.ndarray:
    """Occlude whole clusters, visiting groups round-robin so occlusion is
    spread across groups rather than wiping one group out."""
    target_clusters = round(cfg.occlusion_fraction * cfg.n_clusters)
    if target_clusters == 0:
        raise GenerationError(
            f"global occlusion: fraction {cfg.occlusion_fraction} rounds to zero "
            f"whole clusters of {cfg.n_clusters}; raise the fraction")
    if target_clusters >= cfg.n_clusters:
        raise GenerationError("global occlusion: cannot occlude every cluster")
    cpg = cfg.clusters_per_group
    group_order = list(range(cfg.n_groups))
    rng.shuffle(group_order)
    members: dict[int, list[int]] = {}
    for g in group_order:
        members[g] = list(range(g * cpg, (g + 1) * cpg))
        rng.shuffle(members[g])
    # Round r takes each group's r-th cluster from the end of its shuffle.
    chosen = [members[g][-1 - r] for r in range(cpg) for g in group_order][:target_clusters]
    return np.isin(geo.cluster_id, chosen)


def _occlude_fps(geo: _Geometry, cfg: SceneConfig,
                 rng: Xoshiro256StarStar) -> np.ndarray:
    """Keep only a farthest-point subsample of the warped frame; points
    dropped by the sampler are the occluded ones."""
    n = len(geo.frame1)
    keep = n - round(cfg.occlusion_fraction * n)
    if keep < 1:
        raise GenerationError("fps occlusion: nothing would remain in frame 2")
    seed_index = rng.randbelow(n)
    kept = fps(PointCloud(geo.warped), keep, seed_index)
    mask = np.ones(n, dtype=bool)
    mask[kept] = False
    return mask


def _match_closure(geo: _Geometry, cfg: SceneConfig, mask: np.ndarray) -> np.ndarray:
    """Also occlude kept points whose warped position sits within r_match
    of an occluded point's warp; otherwise that survivor would act as the
    occluded point's counterpart. Each pass is one k=1 scan from the kept
    warps to the occluded ones; passes repeat to a fixed point."""
    mask = mask.copy()
    r2 = cfg.r_match * cfg.r_match
    while True:
        kept = np.flatnonzero(~mask)
        if kept.size == 0:
            raise GenerationError("occlusion closure removed every frame-2 point; "
                                  "clusters are too close for r_match")
        if kept.size == len(mask):
            return mask
        nearest = brute_force_knn(PointCloud(geo.warped[kept]),
                                  PointCloud(geo.warped[mask]), 1).sq_dists[:, 0]
        clash = kept[nearest <= r2]
        if clash.size == 0:
            return mask
        mask[clash] = True


def verify_scene(scene: SyntheticScene, cfg: SceneConfig) -> None:
    """Brute-force check of the occlusion contract; raises GenerationError
    on any violation.

    Checks, independently of how the scene was built: every non-occluded
    frame-1 point warps to within 1e-9 of some frame-2 point; every
    occluded one has no frame-2 point within r_match; and the mode
    invariant (local: each occluded point keeps a non-occluded
    constraint_k-neighbour; global: occluded points have none).

    It builds its own constraint_k neighbour rows although the local
    occluder built the same table: the check must not rest on the state
    it checks, and it scans only the occluded points, the rows it reads.
    """
    warped = scene.frame1.points + scene.gt_flow.vectors
    mask = scene.occlusion_mask
    if len(scene.frame2):
        nearest = np.sqrt(brute_force_knn(PointCloud(warped), scene.frame2, 1).sq_dists[:, 0])
    else:
        nearest = np.full(len(scene), np.inf)
    bad = np.flatnonzero(np.where(mask, nearest <= cfg.r_match, nearest >= 1e-9))
    if bad.size:
        i = int(bad[0])
        if mask[i]:
            raise GenerationError(
                f"occluded point {i} still has a counterpart at {nearest[i]:.2e} m")
        raise GenerationError(
            f"non-occluded point {i} lost its counterpart (nearest {nearest[i]:.2e} m)")
    if mask.any() and cfg.occlusion_mode in ("local", "global"):
        occluded = np.flatnonzero(mask)
        nbrs = _neighbor_rows(scene.frame1.points, occluded, cfg.constraint_k)
        visible = (~mask[nbrs]).sum(axis=1)
        if cfg.occlusion_mode == "local":
            bad = np.flatnonzero(visible == 0)
            if bad.size:
                raise GenerationError(
                    f"local mode: occluded point {occluded[bad[0]]} has no visible neighbour")
        else:
            bad = np.flatnonzero(visible != 0)
            if bad.size:
                raise GenerationError(
                    f"global mode: occluded point {occluded[bad[0]]} has "
                    f"{visible[bad[0]]} visible neighbours")


def _group_of(cluster_id: np.ndarray, cfg: SceneConfig) -> np.ndarray:
    return cluster_id // cfg.clusters_per_group


def synth_features(gt_flow: np.ndarray, cluster_id: np.ndarray, occlusion_mask: np.ndarray,
                   cfg: SceneConfig) -> tuple[np.ndarray, np.ndarray]:
    """Context and motion input features for a scene's frame-1 points,
    from their N x 3 ground-truth flow, cluster ids and occlusion mask.

    Context rows are the one-hot embedding of the point's cluster group,
    scaled by context_scale and padded to context_dim, plus Gaussian
    noise of std feature_noise_std. A larger scale makes random
    projections of the context separate groups more sharply from the
    start, which matters when training has to bootstrap attention from
    occluded-point errors alone.
    Motion rows tile gt_flow's components across the motion width
    (column c is component c mod 3; gt_flow itself when Dm == 3); at
    occluded points the row is corrupted instead (zeroed, or pure noise of
    std corruption_noise_std), modelling that frame-to-frame matching
    carries no information exactly there.

    Recomputing on the same scene and config reproduces the stored
    features bit for bit.
    """
    rng = Xoshiro256StarStar(derive_seed(cfg.seed, 4))
    n = len(cluster_id)

    context = np.zeros((n, cfg.context_dim))
    context[np.arange(n), _group_of(cluster_id, cfg)] = cfg.context_scale
    if cfg.feature_noise_std > 0.0:
        context = context + rng.normal_array((n, cfg.context_dim)) * cfg.feature_noise_std

    motion_in = gt_flow[:, np.arange(cfg.motion_dim) % 3]
    occluded = np.flatnonzero(occlusion_mask)
    if cfg.motion_corruption == "zero":
        motion_in[occluded] = 0.0
    else:
        noise_rng = Xoshiro256StarStar(derive_seed(cfg.seed, 5))
        motion_in[occluded] = (
            noise_rng.normal_array((occluded.size, cfg.motion_dim)) * cfg.corruption_noise_std)
    return context, motion_in


def generate_scene(cfg: SceneConfig) -> SyntheticScene:
    """Build, occlude, featurize, and verify one scene.

    Deterministic given cfg: all randomness flows from sub-seeds of
    cfg.seed (0 motion, 1 blob points, 2 occlusion choice, 3 frame-2
    order, 4 context noise, 5 corruption noise).
    """
    cfg.validate()
    geo = _sample_geometry(cfg)
    occ_rng = Xoshiro256StarStar(derive_seed(cfg.seed, 2))

    if cfg.occlusion_fraction == 0.0:
        mask = np.zeros(len(geo.frame1), dtype=bool)
    elif cfg.occlusion_mode == "local":
        mask = _occlude_local(geo, cfg, occ_rng)
    elif cfg.occlusion_mode == "global":
        mask = _occlude_global(geo, cfg, occ_rng)
    else:
        mask = _occlude_fps(geo, cfg, occ_rng)
    mask = _match_closure(geo, cfg, mask)

    order = np.flatnonzero(~mask).tolist()
    Xoshiro256StarStar(derive_seed(cfg.seed, 3)).shuffle(order)
    frame2 = geo.warped[np.array(order, dtype=np.int64)] if order else np.empty((0, 3))

    context, motion_in = synth_features(geo.gt_flow, geo.cluster_id, mask, cfg)
    scene = SyntheticScene(
        frame1=PointCloud(geo.frame1),
        frame2=PointCloud(frame2),
        gt_flow=FlowField(geo.gt_flow),
        occlusion_mask=mask,
        cluster_id=geo.cluster_id,
        context=context,
        motion_in=motion_in,
    )
    verify_scene(scene, cfg)
    return scene


SCENE_TENSORS = ("frame1", "frame2", "gt_flow", "occlusion_mask",
                 "cluster_id", "context", "motion_in")


def scene_tensors(scene: SyntheticScene) -> Iterator[tuple[str, np.ndarray]]:
    """The scene's arrays under their pinned container names
    (:data:`SCENE_TENSORS`, in order). Boolean and integer fields are
    stored as floats (0/1 and whole values)."""
    return zip(SCENE_TENSORS, (
        scene.frame1.points, scene.frame2.points, scene.gt_flow.vectors,
        scene.occlusion_mask.astype(np.float64), scene.cluster_id.astype(np.float64),
        scene.context, scene.motion_in))


def scene_from_tensors(named: dict[str, np.ndarray]) -> SyntheticScene:
    """Rebuild a scene from container tensors (inverse of scene_tensors).

    Values loaded from disk have passed through 32-bit storage, so a
    loaded scene is self-consistent but not bit-equal to the generator's
    in-memory output; re-serializing it is byte-stable. Raises KeyError
    on a missing tensor and ContainerError naming the tensor when a
    per-point tensor does not have one row per frame-1 point, the mask or
    the cluster ids are not a vector, a mask value is not exactly 0 or 1,
    a cluster id is not a whole number in [0, N), or frame2 does not have
    one row per unoccluded (mask 0) point.
    """
    missing = [t for t in SCENE_TENSORS if t not in named]
    if missing:
        raise KeyError(f"scene container is missing tensors: {missing}")
    frame1, frame2 = PointCloud(named["frame1"]), PointCloud(named["frame2"])
    n = len(frame1)
    for name in SCENE_TENSORS[2:]:   # the per-point tensors, all but the two frames
        if named[name].shape[:1] != (n,):
            raise ContainerError(f"scene tensor {name!r} has shape {named[name].shape}, "
                                 f"but frame1 has {n} points")
    mask, cluster_id = named["occlusion_mask"], named["cluster_id"]
    if mask.ndim != 1 or cluster_id.ndim != 1:
        raise ContainerError(f"scene tensors 'occlusion_mask' {mask.shape} and 'cluster_id' "
                             f"{cluster_id.shape} must both have shape ({n},)")
    if not ((mask == 0.0) | (mask == 1.0)).all():
        raise ContainerError("scene tensor 'occlusion_mask' holds a value other than 0 or 1")
    if not ((cluster_id == np.floor(cluster_id)) & (cluster_id >= 0) & (cluster_id < n)).all():
        raise ContainerError(f"scene tensor 'cluster_id' holds a value that is not a whole "
                             f"number in [0, {n})")
    n_visible = np.count_nonzero(mask == 0.0)
    if len(frame2) != n_visible:
        raise ContainerError(f"scene tensor 'frame2' has {len(frame2)} points, but "
                             f"occlusion_mask leaves {n_visible} unoccluded")
    return SyntheticScene(
        frame1=frame1,
        frame2=frame2,
        gt_flow=FlowField(named["gt_flow"]),
        occlusion_mask=mask == 1.0,
        cluster_id=cluster_id.astype(np.int64),
        context=np.ascontiguousarray(named["context"], dtype=np.float64),
        motion_in=np.ascontiguousarray(named["motion_in"], dtype=np.float64),
    )
