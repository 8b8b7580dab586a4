"""Threshold metrics against a per-point loop reimplementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from flowagg.metrics import (
    EmptySelectionError,
    FlowField,
    FlowMetrics,
    evaluate,
    evaluate_split,
    metric_lines,
    per_point_epe,
)


def _fields(pred, gt):
    return FlowField(np.asarray(pred, dtype=float)), FlowField(np.asarray(gt, dtype=float))


def test_mean_error_two_points():
    pred, gt = _fields([[3.0, 0, 0], [0, 4.0, 0]], [[0.0, 0, 0], [0.0, 0, 0]])
    assert evaluate(pred, gt).epe_m == pytest.approx(3.5, abs=0)


def test_single_point_between_thresholds():
    # Error 0.08 against a unit-norm target: misses the strict test
    # (0.05 m / 5 %), passes the relaxed one, is no outlier.
    pred, gt = _fields([[1.08, 0, 0]], [[1.0, 0, 0]])
    m = evaluate(pred, gt)
    assert m.epe_m == pytest.approx(0.08)
    assert m.acc_strict == 0.0
    assert m.acc_relax == 1.0
    assert m.outliers == 0.0
    assert m.n_points == 1


def test_single_point_outlier():
    pred, gt = _fields([[1.4, 0, 0]], [[1.0, 0, 0]])
    m = evaluate(pred, gt)
    assert m.outliers == 1.0
    assert m.acc_relax == 0.0


def test_threshold_boundaries_are_strict():
    # Rows whose computed error or relative error lands exactly on a
    # threshold float. Differences sit in a coordinate where the target
    # is zero, so the error comes out as the literal threshold value
    # (sqrt(x*x) == x holds for these), and the relative divisors are
    # powers of two. Exactly-on-threshold must count on neither side.
    gt = np.array([[0.0, 0, 0], [0.0, 0, 0], [0.0, 0, 0],
                   [0.0, 2, 0], [0.0, 2, 0], [0.0, 0.5, 0]])
    pred = gt + np.array([[0.05, 0, 0], [0.1, 0, 0], [0.3, 0, 0],
                          [0.1, 0, 0], [0.2, 0, 0], [0.15, 0, 0]])
    m = evaluate(FlowField(pred), FlowField(gt))
    assert m.acc_strict == 0.0             # 0.05 m and 5 % are not < themselves
    assert m.acc_relax == pytest.approx(2 / 6)  # only rows at 0.05 m and 5 %
    assert m.outliers == 0.0               # 0.3 m and 30 % are not > themselves
    want = oracles.metrics_loops(pred, gt)
    assert (m.acc_strict, m.acc_relax, m.outliers) == (
        want["acc_strict"], want["acc_relax"], want["outliers"])


def test_zero_norm_target_skips_relative_test():
    pred, gt = _fields([[0.04, 0, 0], [0.31, 0, 0]], [[0, 0, 0], [0, 0, 0]])
    m = evaluate(pred, gt)
    assert m.acc_strict == 0.5    # absolute disjunct only
    assert m.outliers == 0.5


def test_matches_loop_oracle_small():
    rng = np.random.default_rng(0)
    gt = rng.normal(scale=0.5, size=(64, 3))
    pred = gt + rng.normal(scale=0.1, size=(64, 3))
    m = evaluate(FlowField(pred), FlowField(gt))
    want = oracles.metrics_loops(pred, gt)
    assert m.epe_m == want["epe_m"]
    assert m.acc_strict == want["acc_strict"]
    assert m.acc_relax == want["acc_relax"]
    assert m.outliers == want["outliers"]
    assert m.n_points == want["n_points"]


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_matches_loop_oracle_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    gt = rng.normal(scale=1.0, size=(n, 3))
    gt[rng.random(n) < 0.2] = 0.0
    pred = gt + rng.normal(scale=0.12, size=(n, 3))
    m = evaluate(FlowField(pred), FlowField(gt))
    want = oracles.metrics_loops(pred, gt)
    assert (m.epe_m, m.acc_strict, m.acc_relax, m.outliers) == (
        want["epe_m"], want["acc_strict"], want["acc_relax"], want["outliers"])


def test_per_point_epe_values():
    pred, gt = _fields([[1.0, 2.0, 2.0], [0, 0, 0]], [[0.0, 0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(per_point_epe(pred, gt), [3.0, 0.0])


def test_mask_selects_rows():
    rng = np.random.default_rng(1)
    gt = rng.normal(size=(10, 3))
    pred = gt + rng.normal(scale=0.05, size=(10, 3))
    mask = np.zeros(10, dtype=bool)
    mask[:4] = True
    m = evaluate(FlowField(pred), FlowField(gt), mask=mask)
    sub = evaluate(FlowField(pred[:4]), FlowField(gt[:4]))
    assert m.epe_m == sub.epe_m
    assert m.n_points == 4


def test_mask_two_point_split_matches_per_point():
    pred, gt = _fields([[1.02, 0, 0], [2.5, 0, 0]], [[1.0, 0, 0], [2.0, 0, 0]])
    occ = np.array([True, False])
    left = evaluate(pred, gt, mask=occ)
    right = evaluate(pred, gt, mask=~occ)
    assert left.epe_m == pytest.approx(0.02)
    assert right.epe_m == pytest.approx(0.5)
    assert left.n_points == right.n_points == 1


def test_evaluate_split_returns_three_records():
    rng = np.random.default_rng(2)
    gt = rng.normal(size=(8, 3))
    pred = gt + 0.01
    occ = np.array([True] * 3 + [False] * 5)
    occ_m, vis_m, all_m = evaluate_split(FlowField(pred), FlowField(gt), occ)
    assert occ_m.n_points == 3
    assert vis_m.n_points == 5
    assert all_m.n_points == 8


def test_evaluate_split_empty_side_is_none():
    pred, gt = _fields([[0.1, 0, 0]], [[0.0, 0, 0]])
    occ_m, vis_m, all_m = evaluate_split(pred, gt, np.array([False]))
    assert occ_m is None
    assert vis_m is not None and all_m is not None
    occ_m, vis_m, _ = evaluate_split(pred, gt, np.array([True]))
    assert vis_m is None
    assert occ_m is not None


def _field_with_edge_rows(seed):
    """Random prediction and target where some targets are zero and some
    rows sit exactly on an absolute or relative threshold."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 60))
    gt = rng.normal(scale=0.5, size=(n, 3))
    pred = gt + rng.normal(scale=0.15, size=(n, 3))
    gt[rng.random(n) < 0.2] = 0.0
    rows = rng.permutation(n)[:6]
    for row, (err, norm) in zip(rows, [(0.05, 0.0), (0.1, 0.0), (0.3, 0.0),
                                       (0.1, 2.0), (0.2, 2.0), (0.15, 0.5)]):
        gt[row] = [0.0, norm, 0.0]
        pred[row] = gt[row] + [err, 0.0, 0.0]
    return FlowField(pred), FlowField(gt), rng.random(n) < 0.4


@pytest.mark.parametrize("seed", range(20))
def test_evaluate_split_equals_three_evaluate_calls(seed):
    pred, gt, occ = _field_with_edge_rows(seed)
    got = evaluate_split(pred, gt, occ)
    want = (evaluate(pred, gt, occ) if occ.any() else None,
            evaluate(pred, gt, ~occ) if (~occ).any() else None,
            evaluate(pred, gt))
    assert repr(got) == repr(want)
    want_loop = oracles.metrics_loops(pred.vectors, gt.vectors)
    assert got[2] == FlowMetrics(**want_loop)


def test_metric_rates_are_python_floats():
    pred, gt, occ = _field_with_edge_rows(0)
    for m in evaluate_split(pred, gt, occ):
        for value in (m.epe_m, m.acc_strict, m.acc_relax, m.outliers):
            assert type(value) is float
        assert type(m.n_points) is int


def test_metric_lines_order_prefix_and_skipped_split():
    m = FlowMetrics(epe_m=0.5, acc_strict=0.25, acc_relax=1.0, outliers=0.0, n_points=4)
    assert metric_lines([("b", m), ("a", None)], prefix="final_") == [
        "final_epe_b=0.5", "final_acc_strict_b=0.25", "final_acc_relax_b=1.0",
        "final_outliers_b=0.0", "final_n_points_b=4"]
    assert metric_lines([("a", None)]) == []


def test_empty_selection_raises():
    pred, gt = _fields([[0.0, 0, 0]], [[0.0, 0, 0]])
    with pytest.raises(EmptySelectionError):
        evaluate(pred, gt, mask=np.array([False]))


def test_shape_mismatch_rejected():
    pred, gt = _fields([[0.0, 0, 0]], [[0.0, 0, 0]])
    with pytest.raises(ValueError):
        evaluate(pred, FlowField(np.zeros((2, 3))))
    with pytest.raises(ValueError):
        evaluate(pred, gt, mask=np.array([True, False]))


def test_flow_field_validation():
    with pytest.raises(ValueError):
        FlowField(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        FlowField(np.array([[np.nan, 0.0, 0.0]]))
