#!/usr/bin/env python3
"""Occlusion-recovery experiment over several seeds.

For each seed the full module is trained against the alpha-frozen
baseline on the same scene and initialization, and the occluded-point
EPE ratio is reported. Freezing alpha keeps the module an identity on
motion features, so the ratio isolates what the aggregation recovers.
The ratio divides by the full-module EPE or 1 mm, whichever is larger:
a converged global run drives that EPE to about 1e-7 m, and a ratio
against it would read in the millions. A seed whose scene has no
occluded point shows "-" and is left out of the worst ratio.
"""

import argparse
import dataclasses
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from flowagg.config import parse_config_file
from flowagg.train import run_occlusion_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(
        os.path.dirname(__file__), os.pardir, "configs", "occlusion_local.cfg"))
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    base = parse_config_file(args.config)
    print(f"config: {args.config}")
    print(f"{'seed':>4} {'full':>10} {'frozen':>10} {'ratio':>8} {'secs':>6}")
    ratios = []
    for seed in range(args.seeds):
        cfg = dataclasses.replace(base)
        cfg.scene = dataclasses.replace(base.scene, seed=seed)
        cfg.train = dataclasses.replace(base.train, seed=seed)
        t0 = time.perf_counter()
        reports = run_occlusion_experiment(cfg)
        dt = time.perf_counter() - t0
        # Both runs share the scene, so both occluded splits exist or neither.
        full = reports["full"].metrics_occluded
        frozen = reports["baseline"].metrics_occluded
        if full is None:
            cells = ("-", "-", "-")
        else:
            ratio = frozen.epe_m / max(full.epe_m, 1e-3)
            ratios.append(ratio)
            cells = (f"{full.epe_m:.5f}", f"{frozen.epe_m:.5f}", f"{ratio:.1f}")
        print(f"{seed:>4} {cells[0]:>10} {cells[1]:>10} {cells[2]:>8} {dt:>6.1f}")
    print(f"worst ratio: {min(ratios):.1f}" if ratios else "worst ratio: -")


if __name__ == "__main__":
    main()
