#!/usr/bin/env python3
"""Record flowbench/reference.json: the reference values the benchmark
checks at the default seed 0.

    PYTHONPATH=src python3 flowbench/record_reference.py

gen_local_n1000 keeps the SHA-256 of the first REFERENCE_SCENES scene
containers, which must stay byte-identical. train_global_n2000 keeps the
final loss and occluded EPE after its fixed step count; those are checked
to a relative tolerance, since blocked attention may reorder the sums of
key and value gradients above some N. Rerun only after a deliberate
change of the program's outputs.
"""

import json
import os
import shutil

from checks import REFERENCE
from worker import ROOT, Run

REFERENCE_SCENES = 10
GLOBAL_RTOL = 1e-6


def main():
    work_dir = os.path.join(ROOT, ".flowbench", "record-reference")
    os.makedirs(work_dir, exist_ok=True)
    try:
        gen = Run("gen_local_n1000", 0, 0.0, work_dir)
        scenes = [gen.gen_unit(i)[1] for i in range(REFERENCE_SCENES)]
        glob = Run("train_global_n2000", 0, 0.0, work_dir)
        cfg, scene, _, _, _ = glob.setup_scene()
        _, report, _ = glob.train_unit(cfg, scene)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    reference = {
        "gen_local_n1000": {"scene_gtc": scenes},
        "train_global_n2000": {
            "steps": cfg.train.steps,
            "final_loss": report.loss_series[-1],
            "final_epe_occluded": report.metrics_occluded.epe_m,
            "rtol": GLOBAL_RTOL,
        },
    }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    print(json.dumps(reference, indent=2))


if __name__ == "__main__":
    main()
