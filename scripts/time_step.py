#!/usr/bin/env python3
"""Time the four phases of a training step on the pinned configs.

Two cases: ``local_n200`` is configs/occlusion_local.cfg as pinned (N=200),
``global_n2000`` is configs/occlusion_global.cfg at 4 x 500 points. Each
case builds its scene, prepared inputs, parameters and optimizer as
``train()`` does, runs one untimed step, then ``--steps`` timed steps.
Each step is timed in four phases: the taped forward (aggregator and
decoder), the taped loss, ``backward`` and the optimizer's step. Before
timing it sets glibc's malloc thresholds as ``train()`` does; it leaves
the BLAS thread count to the environment. The script prints one JSON
line: per case, the min and the median in ms of each phase and of the
whole step, the tape nodes per step and the MB (2^20 bytes) the tape's
outputs hold, with the Python, numpy and BLAS versions and the BLAS
thread count taken from the environment, e.g.

    OPENBLAS_NUM_THREADS=1 python3 scripts/time_step.py --steps 50
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from flowagg import tensor as T
from flowagg import train
from flowagg.aggregator import FeatureSet
from flowagg.config import parse_config_file
from flowagg.scenegen import generate_scene
from time_attention import host_info

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# Case name: (config file, points per cluster, or None for the pinned value).
CASES = {"local_n200": ("occlusion_local.cfg", None),
         "global_n2000": ("occlusion_global.cfg", 500)}
PHASES = ("forward", "loss", "backward", "optimizer", "step")

now = time.perf_counter


def time_one_case(name: str, steps: int) -> dict:
    cfg_file, per_cluster = CASES[name]
    cfg = parse_config_file(os.path.join(CONFIGS, cfg_file))
    if per_cluster is not None:
        cfg.scene.points_per_cluster = per_cluster
    scene = generate_scene(cfg.scene)
    inputs, params, decoder = train._setup_model(
        cfg, scene.frame1, FeatureSet(scene.context, scene.motion_in))
    target = T.tensor(scene.gt_flow.vectors)
    named = params.named_tensors() + decoder.named_tensors()
    opt = train._make_optimizer(cfg.train)
    samples = {phase: [] for phase in PHASES}
    for i in range(steps + 1):
        t0 = now()
        with T.Tape() as tape:
            pred = train._predict(params, decoder, inputs)
            t1 = now()
            loss = train.loss_epe(pred, target)
        t2 = now()
        grads = T.backward(tape, loss)
        t3 = now()
        opt.step(named, grads)
        t4 = now()
        if i:
            for phase, (a, b) in zip(PHASES, ((t0, t1), (t1, t2), (t2, t3), (t3, t4),
                                              (t0, t4))):
                samples[phase].append(1e3 * (b - a))
    row = {"case": name, "n": scene.frame1.points.shape[0], "nodes": len(tape),
           "tape_mb": round(sum(node.output.data.nbytes for node in tape.nodes) / 2**20, 3)}
    for phase in PHASES:
        row[f"{phase}_ms_min"] = round(min(samples[phase]), 3)
        row[f"{phase}_ms_median"] = round(statistics.median(samples[phase]), 3)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=30,
                        help="timed steps per case (at least 1)")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    train._keep_freed_heap_mapped()
    print(json.dumps({
        **host_info(),
        "steps": args.steps,
        "rows": [time_one_case(name, args.steps) for name in CASES],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
