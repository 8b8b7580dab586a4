"""Smoke tests of the scripts under scripts/."""

import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

from flowagg.train import ABLATION_VARIANTS

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SMOKE_CFG = SCRIPTS.parent / "configs" / "smoke.cfg"


def _run_one_seed(script, config=SMOKE_CFG):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--config", str(config),
                           "--seeds", "1"],
                          capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout.splitlines()


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def unoccluded_cfg(tmp_path):
    """smoke.cfg without its occlusion lines: a scene with no occluded point."""
    path = tmp_path / "unoccluded.cfg"
    path.write_text("".join(line for line in SMOKE_CFG.read_text().splitlines(keepends=True)
                            if not line.startswith("scene.occlusion_")))
    return path


@pytest.fixture(scope="module")
def time_step_report():
    """The one JSON line of scripts/time_step.py at its smallest settings."""
    proc = subprocess.run([sys.executable, str(SCRIPTS / "time_step.py"), "--steps", "1",
                           "--sizes", "40", "--repeats", "1"],
                          capture_output=True, text=True, check=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_time_step_prints_one_json_line_per_case(time_step_report):
    report = time_step_report
    assert set(report) == {"python", "numpy", "blas", "blas_threads", "kernels", "steps",
                           "repeats", "qk_dim", "value_dim", "c", "step_rows",
                           "attention_rows"}
    assert (report["steps"], report["repeats"]) == (1, 1)
    assert report["kernels"].startswith("OpenBLAS ")
    phases = ("forward", "loss", "backward", "optimizer", "step")
    for row, case, n in zip(report["step_rows"],
                            ("local_n200", "global_n2000", "global_mlp_n1000"),
                            (200, 2000, 1000), strict=True):
        assert set(row) == {"case", "n", "nodes", "tape_mb", "minflt_per_step"} | {
            f"{phase}_ms_{stat}" for phase in ("gen", *phases) for stat in ("min", "median")}
        assert (row["case"], row["n"], row["nodes"]) == (case, n, 8)
        # With freed heap kept mapped a step may fault in no page at all.
        assert row["minflt_per_step"] >= 0
        assert all(row[key] > 0 for key in row if key not in ("case", "minflt_per_step"))
    # What the taped step holds, not only node outputs (0.27 MB at N=200):
    # the local_route node alone keeps its last block's layer outputs,
    # 1,600 neighbour rows of 16 + 8 + 32 + 1 columns (0.70 MB).
    assert report["step_rows"][0]["tape_mb"] > 0.7


def test_time_step_attention_rows_carry_every_field(time_step_report):
    report = time_step_report
    assert (report["qk_dim"], report["value_dim"], report["c"]) == (16, 32, 0.25)
    [row] = report["attention_rows"]
    assert set(row) == {"n", "block_rows", "fwd_ms_min", "fwd_ms_median", "bwd_ms_min",
                        "bwd_ms_median"}
    assert (row["n"], row["block_rows"]) == (40, 40)
    assert all(row[key] > 0 for key in row)


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


def test_run_ablation_shows_a_scene_with_no_occluded_point_as_dashes(unoccluded_cfg):
    lines = _run_one_seed("run_ablation.py", unoccluded_cfg)
    assert lines[2].split() == ["0", *["-"] * len(ABLATION_VARIANTS)]
    assert lines[3].split() == ["mean", *["-"] * len(ABLATION_VARIANTS)]
    assert len(lines) == 4


def test_run_occlusion_shows_a_scene_with_no_occluded_point_as_dashes(unoccluded_cfg):
    lines = _run_one_seed("run_occlusion.py", unoccluded_cfg)
    assert lines[2].split()[:4] == ["0", "-", "-", "-"]
    assert lines[3] == "worst ratio: -"
    assert len(lines) == 4


def test_run_occlusion_ratio_divides_by_at_least_one_millimetre(monkeypatch, capsys):
    # A full-module EPE below 1 mm (here exactly 0) counts as 1 mm.
    script = _load_script("run_occlusion")
    epes = {"full": 0.0, "baseline": 0.5}
    monkeypatch.setattr(script, "run_occlusion_experiment", lambda cfg: {
        name: SimpleNamespace(metrics_occluded=SimpleNamespace(epe_m=epe))
        for name, epe in epes.items()})
    monkeypatch.setattr(sys, "argv", ["run_occlusion.py", "--config", str(SMOKE_CFG),
                                      "--seeds", "1"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split()[:4] == ["0", "0.00000", "0.50000", "500.0"]
    assert lines[3] == "worst ratio: 500.0"


GOLDEN = "a" * 64 + "  scene.gtc\n" + "b" * 64 + "  report.txt\n"


@pytest.fixture
def make_goldens(tmp_path, monkeypatch):
    """scripts/make_goldens.py with its pipeline stubbed to return GOLDEN
    and its checksum file moved to tmp_path."""
    script = _load_script("make_goldens")
    monkeypatch.setattr(script, "golden_text", lambda: GOLDEN)
    monkeypatch.setattr(script, "OUT", str(tmp_path / "golden_checksums.txt"))
    return script


def test_make_goldens_check_exits_0_on_a_match(make_goldens, capsys):
    pathlib.Path(make_goldens.OUT).write_text(GOLDEN)
    assert make_goldens.main(["--check"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"matches {make_goldens.OUT}"
    assert pathlib.Path(make_goldens.OUT).read_text() == GOLDEN


def test_make_goldens_check_exits_1_naming_the_file_and_both_digests(make_goldens, capsys):
    committed = GOLDEN.replace("b" * 64, "c" * 64)
    pathlib.Path(make_goldens.OUT).write_text(committed)
    assert make_goldens.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [f"report.txt: committed {'c' * 64}, recomputed {'b' * 64}",
                        f"mismatch with {make_goldens.OUT}"]
    assert pathlib.Path(make_goldens.OUT).read_text() == committed


def test_make_goldens_kernels_prints_one_triple_per_setting_and_compares_nothing(
        make_goldens, capsys, monkeypatch):
    # Each setting's subprocess is stubbed: it echoes its OpenBLAS core as
    # the kernels and GOLDEN as its digests; the third one fails.
    runs = []

    def run(argv, env, **kwargs):
        runs.append((argv[1:], {k: env[k] for k in env if k in (
            "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}))
        if len(runs) == 3:
            return SimpleNamespace(returncode=1, stdout="", stderr="Traceback\nOSError: no\n")
        child = {"kernels": env.get("OPENBLAS_CORETYPE", "own"), "golden": GOLDEN}
        return SimpleNamespace(returncode=0, stdout="flowagg output\n" + json.dumps(child),
                               stderr="")
    monkeypatch.setattr(make_goldens.subprocess, "run", run)
    # A kernel the caller picked does not leak into the default setting.
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Zen")
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    assert make_goldens.main(["--kernels"]) == 0
    assert capsys.readouterr().out == ("# default: own\n" + GOLDEN + "# haswell: Haswell\n"
                                       + GOLDEN + "# haswell_no_avx512: failed (OSError: no)\n")
    assert [argv for argv, _ in runs] == [
        ["-c", make_goldens.KERNEL_CHILD, os.path.dirname(make_goldens.__file__)]] * 3
    assert [env for _, env in runs] == [
        {}, {"OPENBLAS_CORETYPE": "Haswell"},
        {"OPENBLAS_CORETYPE": "Haswell",
         "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}]
    assert not pathlib.Path(make_goldens.OUT).exists()


def test_make_goldens_kernel_child_reports_its_kernels_and_digests(make_goldens):
    # The child program itself, with the pipeline stubbed in its process.
    script_dir = os.path.dirname(make_goldens.__file__)
    stub = ("import sys; sys.path.insert(0, sys.argv[1]); import make_goldens; "
            f"make_goldens.golden_text = lambda: {GOLDEN!r}; "
            "exec(sys.argv[2], {})")
    proc = subprocess.run([sys.executable, "-c", stub, script_dir, make_goldens.KERNEL_CHILD,
                           script_dir], capture_output=True, text=True, timeout=60, check=True)
    child = json.loads(proc.stdout.splitlines()[-1])
    assert set(child) == {"python", "numpy", "blas", "blas_threads", "kernels", "golden"}
    assert child["golden"] == GOLDEN
    assert child["kernels"].startswith("OpenBLAS ")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_make_goldens_check_matches_at_one_and_two_blas_threads(threads):
    # The pinned pipeline gives the committed bytes whatever the BLAS
    # thread count.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, str(SCRIPTS / "make_goldens.py"), "--check"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
