"""Smoke tests of the scripts under scripts/."""

import json
import math
import pathlib
import subprocess
import sys

from flowagg.train import ABLATION_VARIANTS

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SMOKE_CFG = SCRIPTS.parent / "configs" / "smoke.cfg"


def _run_one_seed(script):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--config", str(SMOKE_CFG),
                           "--seeds", "1"],
                          capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout.splitlines()


def test_time_attention_prints_one_json_line_with_every_field():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "time_attention.py"),
                           "--sizes", "40", "--repeats", "1"],
                          capture_output=True, text=True, check=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert set(report) == {"python", "numpy", "blas", "blas_threads", "qk_dim", "value_dim",
                           "c", "repeats", "rows"}
    assert report["repeats"] == 1
    [row] = report["rows"]
    assert set(row) == {"n", "block_rows", "fwd_ms_min", "fwd_ms_median", "bwd_ms_min",
                        "bwd_ms_median"}
    assert (row["n"], row["block_rows"]) == (40, 40)
    assert all(row[key] > 0 for key in row)


def test_time_step_prints_one_json_line_per_case():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "time_step.py"), "--steps", "1"],
                          capture_output=True, text=True, check=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert set(report) == {"python", "numpy", "blas", "blas_threads", "steps", "rows"}
    assert report["steps"] == 1
    phases = ("forward", "loss", "backward", "optimizer", "step")
    for row, case, n in zip(report["rows"], ("local_n200", "global_n2000"), (200, 2000),
                            strict=True):
        assert set(row) == {"case", "n", "nodes", "tape_mb"} | {
            f"{phase}_ms_{stat}" for phase in phases for stat in ("min", "median")}
        assert (row["case"], row["n"], row["nodes"]) == (case, n, 17)
        assert all(row[key] > 0 for key in row if key != "case")


def test_run_ablation_tabulates_one_seed_per_variant():
    lines = _run_one_seed("run_ablation.py")
    assert lines[0] == f"config: {SMOKE_CFG}"
    assert lines[1].split() == ["seed", *ABLATION_VARIANTS]
    seed, *epe = lines[2].split()
    assert seed == "0" and len(epe) == len(ABLATION_VARIANTS)
    label, *mean = lines[3].split()
    assert label == "mean" and mean == epe
    assert all(math.isfinite(float(e)) for e in mean)
    assert len(lines) == 4


def test_run_occlusion_reports_one_seed_and_the_worst_ratio():
    lines = _run_one_seed("run_occlusion.py")
    assert lines[0] == f"config: {SMOKE_CFG}"
    assert lines[1].split() == ["seed", "full", "frozen", "ratio", "secs"]
    seed, full, frozen, ratio, _ = lines[2].split()
    assert seed == "0" and float(full) > 0.0 and float(frozen) > 0.0
    label, worst = lines[3].rsplit(" ", 1)
    assert label == "worst ratio:" and worst == ratio
    assert math.isfinite(float(worst))
    assert len(lines) == 4
