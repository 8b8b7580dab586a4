"""Smoke tests of the scripts under scripts/."""

import json
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


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
