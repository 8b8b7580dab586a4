"""End-point-error style evaluation of predicted scene flow.

All aggregate means use ``math.fsum`` over the per-point values, which is
correctly rounded and therefore independent of summation order; two
implementations that agree per point agree exactly in the aggregate.

Accuracy and outlier rates test each point against an absolute error
threshold or a threshold relative to the true flow magnitude, whichever is
satisfied (strict inequalities). The relative alternative is skipped for
points whose true flow is exactly zero. ``metric_lines`` names the metric
keys of the key=value lines in ``report.txt`` and in ``flowagg eval``'s
output; the ablation table and ``flowagg train``'s summary lines write
their few EPE keys themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

ACC_STRICT_ABS = 0.05
ACC_STRICT_REL = 0.05
ACC_RELAX_ABS = 0.1
ACC_RELAX_REL = 0.1
OUTLIER_ABS = 0.3
OUTLIER_REL = 0.3


class EmptySelectionError(ValueError):
    """Raised when asked to aggregate metrics over zero points."""


@dataclass(frozen=True)
class FlowField:
    """Per-point 3-D motion vectors in meters, one row per point."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"flow field must have shape (N, 3), got {v.shape}")
        if v.size and not np.isfinite(v).all():
            raise ValueError("flow field contains non-finite values")
        object.__setattr__(self, "vectors", v)

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class FlowMetrics:
    """Aggregate evaluation over one set of points.

    epe_m: mean Euclidean end-point error, meters.
    acc_strict: fraction with error < 0.05 m or relative error < 5%.
    acc_relax: fraction with error < 0.1 m or relative error < 10%.
    outliers: fraction with error > 0.3 m or relative error > 30%.
    n_points: number of points aggregated.
    """

    epe_m: float
    acc_strict: float
    acc_relax: float
    outliers: float
    n_points: int


def per_point_epe(predicted: FlowField, target: FlowField) -> np.ndarray:
    """Euclidean error of each predicted vector against the target."""
    if len(predicted) != len(target):
        raise ValueError(f"flow fields disagree in length: "
                         f"{len(predicted)} vs {len(target)}")
    d = predicted.vectors - target.vectors
    return np.sqrt((d ** 2).sum(axis=1))


def _check_mask(mask, n: int, what: str) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.dtype != np.bool_ or mask.shape != (n,):
        raise ValueError(f"{what} must be boolean of shape ({n},), "
                         f"got {mask.dtype} {mask.shape}")
    return mask


def _errors_and_magnitudes(predicted: FlowField,
                           target: FlowField) -> tuple[np.ndarray, np.ndarray]:
    return per_point_epe(predicted, target), np.sqrt((target.vectors ** 2).sum(axis=1))


def _aggregate(errs: np.ndarray, mags: np.ndarray) -> FlowMetrics:
    """Metrics over per-point errors and true-flow magnitudes. Where the
    true flow is zero the relative error is NaN, which passes no test."""
    n = errs.size
    if n == 0:
        raise EmptySelectionError("no points selected: cannot aggregate metrics")
    rel = np.divide(errs, mags, out=np.full(n, np.nan), where=mags > 0.0)
    strict, relax, out = (int(np.count_nonzero(hit)) / n for hit in (
        (errs < ACC_STRICT_ABS) | (rel < ACC_STRICT_REL),
        (errs < ACC_RELAX_ABS) | (rel < ACC_RELAX_REL),
        (errs > OUTLIER_ABS) | (rel > OUTLIER_REL)))
    return FlowMetrics(math.fsum(errs.tolist()) / n, strict, relax, out, n)


def evaluate(predicted: FlowField, target: FlowField,
             mask: np.ndarray | None = None) -> FlowMetrics:
    """Compute all aggregate metrics, optionally over a boolean subset.

    `mask` selects which points participate; selecting none is an error.
    The package's reports call :func:`evaluate_split` instead. This stays
    as the public form for any one subset, such as a mask other than the
    occlusion split, and as the statement each of evaluate_split's three
    records is tested against: that one call of evaluate_split equals
    three calls of this function, each masking the errors anew.
    """
    errs, mags = _errors_and_magnitudes(predicted, target)
    if mask is not None:
        mask = _check_mask(mask, len(predicted), "mask")
        errs, mags = errs[mask], mags[mask]
    return _aggregate(errs, mags)


def evaluate_split(
    predicted: FlowField, target: FlowField, occlusion_mask: np.ndarray,
) -> tuple[FlowMetrics | None, FlowMetrics | None, FlowMetrics]:
    """Metrics over (occluded, non-occluded, all) point subsets.

    An empty occluded or visible subset yields None for that record (its
    metrics are undefined over zero points) while the other records are
    still computed; an entirely empty cloud raises. The per-point errors
    are computed once and shared by the three records.
    """
    occ = _check_mask(occlusion_mask, len(predicted), "occlusion mask")
    errs, mags = _errors_and_magnitudes(predicted, target)
    vis = ~occ
    return (_aggregate(errs[occ], mags[occ]) if occ.any() else None,
            _aggregate(errs[vis], mags[vis]) if vis.any() else None,
            _aggregate(errs, mags))


def metric_lines(splits: Iterable[tuple[str, FlowMetrics | None]],
                 prefix: str = "") -> list[str]:
    """key=value lines for each (split name, metrics) pair, in the order
    given; a None record is skipped. Floats are written as their repr."""
    lines = []
    for split, m in splits:
        if m is None:
            continue
        lines += [f"{prefix}epe_{split}={m.epe_m!r}",
                  f"{prefix}acc_strict_{split}={m.acc_strict!r}",
                  f"{prefix}acc_relax_{split}={m.acc_relax!r}",
                  f"{prefix}outliers_{split}={m.outliers!r}",
                  f"{prefix}n_points_{split}={m.n_points}"]
    return lines
