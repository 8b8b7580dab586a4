"""Tests of the benchmark's own checks and tracer.

The negative controls feed a flipped digest or an out-of-tolerance value
through the same check code a workload run uses, and require a failed
check: not an exception and not a pass. They run on the small
configs/smoke.cfg instance, so they take a few seconds.
"""

import dataclasses
import os
import signal

import numpy as np
import pytest

import flowagg.aggregator as aggregator
import flowagg.tensor as tensor
import flowagg.train as train
from checks import Checks, sha256_file
from flowagg.config import parse_config_file
from flowagg.containers import read_container, write_container
from flowagg.scenegen import generate_scene, scene_from_tensors, scene_tensors
from flowagg.spatial import PointCloud, knn
from tracer import TAPE_OPS, Tracer
from worker import CONFIGS, Run, knn_oracle


@pytest.fixture(scope="module")
def smoke():
    cfg = parse_config_file(os.path.join(CONFIGS, "smoke.cfg"))
    cfg.train = dataclasses.replace(cfg.train, steps=5)
    return cfg, generate_scene(cfg.scene)


def trained(run, smoke):
    cfg, scene = smoke
    _, report, digests = run.train_unit(cfg, scene)
    return cfg, report, digests


def test_flipped_golden_digest_is_a_failed_check(tmp_path, smoke):
    run = Run("train_local_n200", 0, 0.0, str(tmp_path))
    cfg, report, digests = trained(run, smoke)
    golden = dict(digests)
    golden["report.txt"] = golden["report.txt"][::-1]
    run.check_train(cfg, report, digests, first=None, golden=golden)
    assert (run.checks.attempted, run.checks.failed) == (3, 1)
    assert run.checks.failures[0].startswith("golden report.txt")


def test_out_of_tolerance_reference_is_a_failed_check(tmp_path, smoke):
    run = Run("train_global_n2000", 0, 0.0, str(tmp_path))
    cfg, report, digests = trained(run, smoke)
    run.reference = {"final_loss": report.loss_series[-1] * (1 + 1e-4),
                     "final_epe_occluded": report.metrics_occluded.epe_m, "rtol": 1e-6}
    run.check_train(cfg, report, digests, first=digests, golden=None)
    assert (run.checks.attempted, run.checks.failed) == (4, 1)
    assert run.checks.failures[0].startswith("final loss")


def test_flipped_scene_digest_is_a_failed_check(tmp_path, smoke):
    cfg, scene = smoke
    run = Run("gen_local_n1000", 0, 0.0, str(tmp_path), reference={"scene_gtc": ["0" * 64]})
    path = run.path("scene.gtc")
    write_container(path, scene_tensors(scene))
    back = scene_from_tensors(read_container(path))
    nbrs = knn(back.frame1, back.frame1, cfg.module.k)
    run.check_gen(0, cfg, back, nbrs, sha256_file(path))
    assert (run.checks.attempted, run.checks.failed) == (3, 1)
    assert run.checks.failures[0].startswith("scene 0 digest")


def test_exception_is_a_failed_check():
    checks = Checks()

    def boom():
        raise ValueError("broken")

    assert checks.guard("op", boom) is None
    assert checks.guard("op", lambda: 3) == 3
    assert (checks.attempted, checks.failed) == (2, 1)


def test_knn_oracle_matches_flowagg_on_ties():
    rng = np.random.default_rng(0)
    points = np.round(rng.uniform(-1.0, 1.0, (300, 3)), 1)
    cloud = PointCloud(points)
    nbrs = knn(cloud, cloud, 8)
    indices, sq_dists = knn_oracle(cloud.points, 8, include_self=False)
    assert np.array_equal(nbrs.indices, indices)
    assert np.array_equal(nbrs.sq_dists, sq_dists)


def test_tracer_keeps_outputs_and_restores_names(tmp_path, smoke):
    originals = ([getattr(tensor, op) for op in TAPE_OPS]
                 + [tensor.Tape.record, aggregator.aggregate_local, train.forward])
    run = Run("train_local_n200", 1, 0.0, str(tmp_path))
    _, _, untraced = trained(run, smoke)
    tracer = Tracer()
    with tracer:
        _, _, traced = trained(run, smoke)
    assert traced == untraced
    assert tracer.restored
    assert originals == ([getattr(tensor, op) for op in TAPE_OPS]
                         + [tensor.Tape.record, aggregator.aggregate_local, train.forward])
    names = {span[0] for span in tracer.spans}
    assert {"train.train", "aggregator.local.fwd", "tensor.matmul.bwd",
            "train.optimizer"} <= names
    assert all(end is not None for _, _, end, *_ in tracer.spans)
    assert set(tracer.nodes_by_step) == set(range(5))


def test_calibration_ticks_keep_outputs_and_stop(tmp_path, smoke):
    run = Run("train_local_n200", 1, 0.0, str(tmp_path))
    _, _, plain = trained(run, smoke)
    calibration = run.calibration
    handler = signal.getsignal(signal.SIGALRM)
    with run.calibrating():
        while calibration.count < 2:
            _, _, ticked = trained(run, smoke)
            assert ticked == plain
    assert calibration.spent == pytest.approx(calibration.ticks.sum())
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
