#!/usr/bin/env python3
"""Time a training step on the pinned configs and one attention node per N.

Step rows. Three cases: ``local_n200`` is configs/occlusion_local.cfg as
pinned (N=200), ``global_n2000`` is configs/occlusion_global.cfg at
4 x 500 points (the scene of flowbench's train_global_n2000) and
``global_mlp_n1000`` is occlusion_global.cfg with ``use_weight_mlp`` at
4 x 250 points (the weight-MLP global route). Each case
times ``generate_scene`` on its config ``--repeats`` times, builds
prepared inputs, parameters and optimizer as ``train()`` does, runs three
untimed steps, then ``--steps`` timed steps. Each step is timed in four
phases: the taped forward (aggregator and decoder), the taped loss,
``backward`` and the optimizer's step. The process's minor page faults
(``ru_minflt``) over the timed steps, divided by their count, give the
faults per step; the heap goes on growing for a few steps after the
first, which the untimed steps absorb. After the timed steps it runs one
more taped forward and loss, untimed, under tracemalloc, whose count of
the bytes still allocated when the loss is formed is what a taped step
holds: node outputs and what nodes keep for backward (the local route's
weights and last block, the offset head's centered rows, ...).

Attention rows. For each ``--sizes`` N it draws q, k (N x 16) and v
(N x 32) from a fixed seed. Each repeat runs one taped
``tensor.attention(q, k, v, 0.25)`` (forward), then that node's backward
closure on a fixed output gradient (backward); one untimed repeat runs
first, then ``--repeats`` timed ones.

Before timing it sets glibc's malloc thresholds as ``train()`` does, so
freed buffers stay mapped and small rows time the work, not page faults;
it leaves the BLAS thread count to the environment. It prints one JSON
line:

- the host, from make_goldens.host_info: ``python``, ``numpy``, ``blas``
  (versions), ``blas_threads`` (taken from the environment) and
  ``kernels`` (the OpenBLAS core and whether numpy's AVX-512 loops are
  on, which decide the output bytes as well as the speed);
- ``steps``, ``repeats``, and the attention shapes ``qk_dim``,
  ``value_dim`` and ``c``;
- ``step_rows``, per case: ``case``, ``n``, the tape ``nodes`` per step,
  the MB (2^20 bytes) the taped step holds (``tape_mb``),
  ``minflt_per_step``, and the min and the median in ms of scene
  generation (``gen``), of each phase and of the whole ``step``;
- ``attention_rows``, per N: ``n``, the query rows of its blocks
  (``block_rows``; both sides walk the same ones), and the min and the
  median in ms of ``fwd`` and ``bwd``;

e.g.

    OPENBLAS_NUM_THREADS=1 python3 scripts/time_step.py --steps 50 --repeats 9
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from flowagg import tensor as T
from flowagg import train
from flowagg.aggregator import FeatureSet
from flowagg.config import parse_config_file
from flowagg.scenegen import generate_scene
from make_goldens import host_info

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# Case name: (config file, points per cluster or None for the pinned value,
# use_weight_mlp).
CASES = {"local_n200": ("occlusion_local.cfg", None, False),
         "global_n2000": ("occlusion_global.cfg", 500, False),
         "global_mlp_n1000": ("occlusion_global.cfg", 250, True)}
PHASES = ("forward", "loss", "backward", "optimizer", "step")
QK_DIM, VALUE_DIM, SCALE = 16, 32, 0.25
WARMUP_STEPS = 3

now = time.perf_counter


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def with_stats(row: dict, samples: dict) -> dict:
    """`row` plus the min and the median of each named list of ms."""
    for name, ms in samples.items():
        row[f"{name}_ms_min"] = round(min(ms), 3)
        row[f"{name}_ms_median"] = round(statistics.median(ms), 3)
    return row


def time_one_case(name: str, steps: int, repeats: int) -> dict:
    cfg_file, per_cluster, use_weight_mlp = CASES[name]
    cfg = parse_config_file(os.path.join(CONFIGS, cfg_file))
    if per_cluster is not None:
        cfg.scene.points_per_cluster = per_cluster
    cfg.module.use_weight_mlp = use_weight_mlp
    samples = {key: [] for key in ("gen", *PHASES)}
    for _ in range(repeats):
        t0 = now()
        scene = generate_scene(cfg.scene)
        samples["gen"].append(1e3 * (now() - t0))
    inputs, params, decoder = train._setup_model(
        cfg, scene.frame1, FeatureSet(scene.context, scene.motion_in))
    target = T.tensor(scene.gt_flow.vectors)
    named = params.named_tensors() + decoder.named_tensors()
    opt = train._make_optimizer(cfg.train)
    for i in range(WARMUP_STEPS + steps):
        if i == WARMUP_STEPS:
            faults = minor_faults()
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
        if i >= WARMUP_STEPS:
            for phase, (a, b) in zip(PHASES, ((t0, t1), (t1, t2), (t2, t3), (t3, t4),
                                              (t0, t4))):
                samples[phase].append(1e3 * (b - a))
    faults = minor_faults() - faults
    del tape, pred, loss, grads
    tracemalloc.start()
    with T.Tape() as tape:
        loss = train.loss_epe(train._predict(params, decoder, inputs), target)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return with_stats({"case": name, "n": scene.frame1.points.shape[0], "nodes": len(tape),
                       "tape_mb": round(held / 2**20, 3),
                       "minflt_per_step": round(faults / steps, 1)}, samples)


def time_attention(n: int, repeats: int) -> dict:
    rng = np.random.default_rng(n)
    q, k = T.tensor(rng.normal(size=(n, QK_DIM))), T.tensor(rng.normal(size=(n, QK_DIM)))
    v = T.tensor(rng.normal(size=(n, VALUE_DIM)))
    g = rng.normal(size=(n, VALUE_DIM))
    samples = {"fwd": [], "bwd": []}
    for i in range(repeats + 1):
        t0 = now()
        with T.Tape() as tape:
            T.attention(q, k, v, SCALE)
        t1 = now()
        tape.nodes[-1].backward_fn(g)
        t2 = now()
        if i:
            samples["fwd"].append(1e3 * (t1 - t0))
            samples["bwd"].append(1e3 * (t2 - t1))
    return with_stats({"n": n, "block_rows": T.attention_block_rows(n, n)}, samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=30,
                        help="timed training steps per case (at least 1)")
    parser.add_argument("--sizes", type=int, nargs="+", default=[200, 1000, 2000, 4000, 8192],
                        help="numbers of points (queries = keys) of the attention rows")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed scene generations per case and attention repeats "
                             "per size (at least 1)")
    args = parser.parse_args(argv)
    if min(args.steps, args.repeats, *args.sizes) < 1:
        parser.error("--steps, --repeats and every size must be at least 1")
    train._keep_freed_heap_mapped()
    print(json.dumps({
        **host_info(),
        "steps": args.steps, "repeats": args.repeats,
        "qk_dim": QK_DIM, "value_dim": VALUE_DIM, "c": SCALE,
        "step_rows": [time_one_case(name, args.steps, args.repeats) for name in CASES],
        "attention_rows": [time_attention(n, args.repeats) for n in args.sizes],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
