#!/usr/bin/env python3
"""Train all module variants across several seeds and tabulate
occluded-point EPE per variant.

A seed whose scene has no occluded point shows "-" and is left out of
the mean."""

import argparse
import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from flowagg.config import parse_config_file
from flowagg.train import ABLATION_VARIANTS, run_ablation


def _cell(epe):
    return f"{'-' if epe is None else format(epe, '.5f'):>16}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(
        os.path.dirname(__file__), os.pardir, "configs", "ablation_local.cfg"))
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    base = parse_config_file(args.config)
    print(f"config: {args.config}")
    header = "seed " + " ".join(f"{v:>16}" for v in ABLATION_VARIANTS)
    print(header)
    epes = {v: [] for v in ABLATION_VARIANTS}
    for seed in range(args.seeds):
        cfg = dataclasses.replace(base)
        cfg.scene = dataclasses.replace(base.scene, seed=seed)
        cfg.train = dataclasses.replace(base.train, seed=seed)
        reports = run_ablation(cfg)
        row = [f"{seed:>4}"]
        for v in ABLATION_VARIANTS:
            occluded = reports[v].metrics_occluded
            if occluded is not None:
                epes[v].append(occluded.epe_m)
            row.append(_cell(None if occluded is None else occluded.epe_m))
        print(" ".join(row))
    print("mean " + " ".join(_cell(sum(e) / len(e) if e else None) for e in epes.values()))


if __name__ == "__main__":
    main()
