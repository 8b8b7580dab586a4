"""Command line driver: outputs, exit codes, determinism."""

import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import flowagg
from flowagg import train as train_module
from flowagg.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)
from flowagg.config import ConfigError
from flowagg.containers import ContainerError, read_container, write_container
from flowagg.metrics import EmptySelectionError
from flowagg.scenegen import SCENE_TENSORS, GenerationError
from flowagg.tensor import ShapeError
from flowagg.train import DivergenceError

ABLATION_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "ablation_local.cfg")
# SHA-256 of `flowagg gen` on ablation_local.cfg (clumps of 8 at N=200).
# golden_checksums.txt pins only occlusion_local.cfg, whose clumps are 1.
ABLATION_SCENE_SHA256 = "2366723142f5d69eee8660e8373b4eea9977c9d0dd17b62e05d6641e8c742e95"
GLOBAL_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                          "occlusion_global.cfg")
# SHA-256 of `flowagg gen` on occlusion_global.cfg: truncated blobs and
# whole-cluster occlusion, which the local configs never reach.
GLOBAL_SCENE_SHA256 = "2ec84cf640812ff6a46d1b5c978093b18dbc8ce62aca4fb245aec2d00723d8b5"

SMOKE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "smoke.cfg")
# SHA-256 of each file `flowagg ablate` writes on smoke.cfg. golden_checksums.txt
# pins only the full module; these pin the variants that switch a route or
# the head.
SMOKE_ABLATE_SHA256 = {
    "ablation.txt": "bc99744393013a155afa03da463552f422775224efe3924fcf0d6b7daf3c2185",
    "report_full.txt": "07a69a8a77f4d286c1ce7d90380f18e3832d1128bb0fc88ebe33fa62092ba0ef",
    "report_plain_aggregator.txt":
        "8f74ed96acbd069046f0ee2695fd80976798f2640121bc676ecb67913fb6303b",
    "report_no_local.txt": "bf89f773025030c0b573a507caef73c7d95ced1faa731c43277cf7dd537df68f",
    "report_no_global.txt": "405b01065d4921c35857dc5d4586c0be64ae1432e7546bc8251b518189c0936d",
    "report_backbone_only.txt":
        "4a6ace14403cccd8e8f2cc759a656482e3ad0b0e78ed26ef5f170d91ab7a06d6",
}

LIGHT_CFG = """
scene.n_clusters = 2
scene.points_per_cluster = 25
scene.occlusion_fraction = 0.3
scene.occlusion_mode = local
scene.context_scale = 4.0
scene.context_dim = 12
scene.motion_dim = 12
module.context_dim = 12
module.motion_dim = 12
module.qk_dim = 6
module.disp_dim = 4
module.k = 4
train.steps = 12
train.learning_rate = 0.02
"""


@pytest.fixture
def light_cfg(tmp_path):
    path = tmp_path / "light.cfg"
    path.write_text(LIGHT_CFG)
    return str(path)


def test_gen_writes_scene_container(tmp_path, light_cfg, capsys):
    out = tmp_path / "scene.gtc"
    assert main(["gen", "--config", light_cfg, "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "n_points=50" in stdout
    assert "n_occluded=15" in stdout
    named = read_container(out)
    assert set(named) == set(SCENE_TENSORS)
    assert named["frame1"].shape == (50, 3)


def test_gen_is_byte_identical_across_runs(tmp_path, light_cfg):
    a, b = tmp_path / "a.gtc", tmp_path / "b.gtc"
    main(["gen", "--config", light_cfg, "--out", str(a)])
    main(["gen", "--config", light_cfg, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_clumped_scene_matches_pinned_digest(tmp_path):
    out = tmp_path / "scene.gtc"
    assert main(["gen", "--config", ABLATION_CFG, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ABLATION_SCENE_SHA256


def test_gen_global_scene_matches_pinned_digest(tmp_path):
    out = tmp_path / "scene.gtc"
    assert main(["gen", "--config", GLOBAL_CFG, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GLOBAL_SCENE_SHA256


def test_train_writes_report_and_params(tmp_path, light_cfg, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", light_cfg, "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "final_loss=" in stdout
    assert "final_epe_occluded=" in stdout
    assert "wall_time_s=" in stdout
    report = (out / "report.txt").read_text()
    assert "wall_time" not in report
    params = read_container(out / "params.gtc")
    assert "qk_proj" in params and "decoder.weight" in params


def test_train_reruns_are_byte_identical(tmp_path, light_cfg):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["train", "--config", light_cfg, "--out", str(a)])
    main(["train", "--config", light_cfg, "--out", str(b)])
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
    assert (a / "params.gtc").read_bytes() == (b / "params.gtc").read_bytes()


def test_train_on_pregenerated_scene(tmp_path, light_cfg):
    scene = tmp_path / "scene.gtc"
    main(["gen", "--config", light_cfg, "--out", str(scene)])
    out = tmp_path / "run"
    assert main(["train", "--config", light_cfg, "--scene", str(scene),
                 "--out", str(out)]) == EXIT_OK


def test_train_rejects_a_scene_with_a_short_cluster_id_before_training(tmp_path, light_cfg,
                                                                       capsys):
    scene = tmp_path / "scene.gtc"
    main(["gen", "--config", light_cfg, "--out", str(scene)])
    named = read_container(str(scene))
    named["cluster_id"] = named["cluster_id"][:-1]
    write_container(str(scene), [(name, named[name]) for name in SCENE_TENSORS])
    out = tmp_path / "run"
    assert main(["train", "--config", light_cfg, "--scene", str(scene),
                 "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "cluster_id" in captured.err and "final_loss" not in captured.out
    assert not (out / "report.txt").exists()


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("doctored", ["occlusion_mask", "cluster_id", "frame2"])
def test_a_doctored_scene_exits_2_naming_the_tensor(tmp_path, light_cfg, command, doctored,
                                                    capsys):
    scene = tmp_path / "scene.gtc"
    main(["gen", "--config", light_cfg, "--out", str(scene)])
    named = read_container(str(scene))
    if doctored == "frame2":
        named["frame2"] = named["frame2"][:-1]
    else:   # NaN on five visible points
        named[doctored][np.flatnonzero(named["occlusion_mask"] == 0.0)[:5]] = np.nan
    write_container(str(scene), [(name, named[name]) for name in SCENE_TENSORS])
    pred = tmp_path / "pred.gtc"
    write_container(str(pred), [("flow", named["gt_flow"])])
    out = tmp_path / "run"
    args = {"eval": ["eval", "--pred", str(pred), "--scene", str(scene)],
            "train": ["train", "--config", light_cfg, "--scene", str(scene),
                      "--out", str(out)]}[command]
    capsys.readouterr()
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert doctored in captured.err and captured.out == ""
    assert not out.exists()


def test_eval_scores_prediction(tmp_path, light_cfg, capsys):
    scene_path = tmp_path / "scene.gtc"
    main(["gen", "--config", light_cfg, "--out", str(scene_path)])
    capsys.readouterr()
    named = read_container(scene_path)
    pred = tmp_path / "pred.gtc"
    write_container(pred, [("flow", named["gt_flow"])])
    assert main(["eval", "--pred", str(pred), "--scene", str(scene_path)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "epe_all=0.0" in stdout
    assert "n_points_occluded=15" in stdout
    assert "acc_strict_all=1.0" in stdout


# `flowagg eval` stdout on smoke.cfg's scene for the prediction built in
# test_eval_stdout_is_pinned: splits all, occluded, visible; floats as repr.
SMOKE_EVAL_STDOUT = (
    "epe_all=0.20300342302022856\n"
    "acc_strict_all=0.16\n"
    "acc_relax_all=0.16\n"
    "outliers_all=0.56\n"
    "n_points_all=50\n"
    "epe_occluded=0.1768992291796613\n"
    "acc_strict_occluded=0.26666666666666666\n"
    "acc_relax_occluded=0.26666666666666666\n"
    "outliers_occluded=0.26666666666666666\n"
    "n_points_occluded=15\n"
    "epe_visible=0.21419093466618594\n"
    "acc_strict_visible=0.11428571428571428\n"
    "acc_relax_visible=0.11428571428571428\n"
    "outliers_visible=0.6857142857142857\n"
    "n_points_visible=35\n"
)


def test_eval_stdout_is_pinned(tmp_path, capsys):
    scene_path = tmp_path / "scene.gtc"
    assert main(["gen", "--config", SMOKE_CFG, "--out", str(scene_path)]) == EXIT_OK
    capsys.readouterr()
    gt = read_container(scene_path)["gt_flow"]
    n = gt.shape[0]
    pred = gt + 0.2 * np.sin(np.arange(n * 3).reshape(n, 3) * 0.7)
    pred[::7] = gt[::7]
    pred_path = tmp_path / "pred.gtc"
    write_container(pred_path, [("flow", pred)])
    assert main(["eval", "--pred", str(pred_path), "--scene", str(scene_path)]) == EXIT_OK
    assert capsys.readouterr().out == SMOKE_EVAL_STDOUT


def test_eval_rejects_missing_flow_tensor(tmp_path, light_cfg):
    scene_path = tmp_path / "scene.gtc"
    main(["gen", "--config", light_cfg, "--out", str(scene_path)])
    pred = tmp_path / "pred.gtc"
    write_container(pred, [("speed", np.zeros((50, 3)))])
    assert main(["eval", "--pred", str(pred), "--scene", str(scene_path)]) == EXIT_CONFIG


def test_eval_rejects_point_count_mismatch(tmp_path, light_cfg):
    scene_path = tmp_path / "scene.gtc"
    main(["gen", "--config", light_cfg, "--out", str(scene_path)])
    pred = tmp_path / "pred.gtc"
    write_container(pred, [("flow", np.zeros((7, 3)))])
    assert main(["eval", "--pred", str(pred), "--scene", str(scene_path)]) == EXIT_CONFIG


def test_gradcheck_passes_on_default(capsys):
    assert main(["gradcheck"]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "gradcheck=pass" in stdout


def test_gradcheck_detects_corruption(capsys):
    assert main(["gradcheck", "--corrupt"]) == EXIT_VERIFY
    assert "gradcheck=fail" in capsys.readouterr().out


def test_ablate_writes_table_and_reports(tmp_path, light_cfg, capsys):
    out = tmp_path / "abl"
    assert main(["ablate", "--config", light_cfg, "--out", str(out)]) == EXIT_OK
    table = (out / "ablation.txt").read_text()
    for variant in ("full", "plain_aggregator", "no_local", "no_global",
                    "backbone_only"):
        assert variant in table
        assert (out / f"report_{variant}.txt").exists()
    assert capsys.readouterr().out == table


def test_ablate_smoke_outputs_match_pinned_digests(tmp_path):
    out = tmp_path / "abl"
    assert main(["ablate", "--config", SMOKE_CFG, "--out", str(out)]) == EXIT_OK
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir()} == SMOKE_ABLATE_SHA256


def test_defaults_round_trips(tmp_path, capsys):
    assert main(["defaults"]) == EXIT_OK
    text = capsys.readouterr().out
    path = tmp_path / "d.cfg"
    path.write_text(text)
    out = tmp_path / "scene.gtc"
    assert main(["gen", "--config", str(path), "--out", str(out)]) == EXIT_OK


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scene.wibble = 3\n")
    out = tmp_path / "x.gtc"
    assert main(["gen", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG


def test_input_errors_exit_2_through_value_error():
    # main maps (KeyError, ValueError) to exit 2, so each input error class
    # must stay a ValueError; divergence keeps its own code.
    for cls in (ConfigError, ContainerError, GenerationError, ShapeError, EmptySelectionError):
        assert issubclass(cls, ValueError), cls
    assert not issubclass(DivergenceError, ValueError)


def test_missing_input_file_exits_3(tmp_path):
    assert main(["eval", "--pred", str(tmp_path / "nope.gtc"),
                 "--scene", str(tmp_path / "nope2.gtc")]) == EXIT_IO


def test_malformed_container_exits_2(tmp_path, light_cfg):
    junk = tmp_path / "junk.gtc"
    junk.write_bytes(b"not a container")
    assert main(["eval", "--pred", str(junk), "--scene", str(junk)]) == EXIT_CONFIG


def test_divergence_exits_4(tmp_path):
    cfg = tmp_path / "steep.cfg"
    steep = LIGHT_CFG.replace("train.learning_rate = 0.02",
                              "train.learning_rate = 1e9")
    cfg.write_text(steep + "train.optimizer = sgd\n")
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_DIVERGED


def _huge_cfg(tmp_path):
    """Two 3-point clusters with centers up to 1.7e308 apart: at k=4 every
    point has a neighbour in the other cluster, and at seed 0 some
    p_j - p_i would overflow float64."""
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("scene.n_clusters = 2\nscene.points_per_cluster = 3\n"
                   "scene.center_spread = 1.7e308\nscene.constraint_k = 3\n"
                   "scene.context_dim = 8\nscene.motion_dim = 8\n"
                   "module.context_dim = 8\nmodule.motion_dim = 8\nmodule.k = 4\n"
                   "train.steps = 2\n")
    return str(cfg)


def test_overflowing_displacements_exit_2_before_any_step(tmp_path, capsys):
    # The scene config is rejected before a scene exists; an in-memory scene
    # that overflows is caught while preparing the inputs (test_aggregator).
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        assert main(["train", "--config", _huge_cfg(tmp_path), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "center_spread" in captured.err
    assert "final_loss" not in captured.out
    assert not out.exists()


def test_gen_rejects_overflowing_geometry(tmp_path, capsys):
    out = tmp_path / "scene.gtc"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gen", "--config", _huge_cfg(tmp_path), "--out", str(out)]) == EXIT_CONFIG
    assert "center_spread=1.7e+308 exceeds" in capsys.readouterr().err
    assert not out.exists()


def _smoke_with(tmp_path, override):
    """smoke.cfg with the `key = value` lines of `override` replacing its own."""
    keys = {line.split("=")[0].strip() for line in override.splitlines()}
    with open(SMOKE_CFG, encoding="utf-8") as fh:
        kept = [line for line in fh if line.split("=")[0].strip() not in keys]
    path = tmp_path / "override.cfg"
    path.write_text("".join(kept) + override)
    return str(path)


@pytest.mark.parametrize("override", [
    "module.disp_hidden = 0\n",
    "module.disp_hidden = -3\n",
    "module.score_hidden = 0\n",
    "module.plain_aggregator = true\nmodule.plain_hidden = 0\n",
    "module.use_weight_mlp = true\nmodule.weight_hidden = 0\n",
])
def test_non_positive_hidden_width_exits_2(tmp_path, override, capsys):
    cfg = _smoke_with(tmp_path, override)
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert "_hidden widths must be positive" in capsys.readouterr().err


def test_empty_hidden_widths_train(tmp_path):
    cfg = _smoke_with(tmp_path, "module.disp_hidden =\nmodule.score_hidden =\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_OK


@pytest.mark.parametrize("command,key", [
    ("gen", "scene.r_match"),
    ("train", "scene.r_match"),
    ("train", "train.learning_rate"),
    ("train", "train.adam_eps"),
])
def test_nan_config_value_exits_2(tmp_path, command, key, capsys):
    cfg = _smoke_with(tmp_path, f"{key} = nan\n")
    out = tmp_path / ("scene.gtc" if command == "gen" else "run")
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_blob_truncation_below_the_floor_exits_2(tmp_path):
    # In a subprocess with a time limit: without the floor, gen does not end.
    cfg = _smoke_with(tmp_path, "scene.blob_truncation = 0.0001\n")
    out = tmp_path / "scene.gtc"
    proc = _run_flowagg("gen", "--config", cfg, "--out", str(out))
    assert proc.returncode == EXIT_CONFIG
    assert "blob_truncation=0.0001 is below 0.5" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "gradcheck"])
def test_cross_frame_displacements_exit_2_before_any_scene(tmp_path, command, capsys,
                                                           monkeypatch):
    def no_scene(*args, **kwargs):
        raise AssertionError("a scene was built")
    monkeypatch.setattr(train_module, "generate_scene", no_scene)
    monkeypatch.setattr(train_module, "knn", no_scene)
    cfg = _smoke_with(tmp_path, "scene.occlusion_fraction = 0.0\n"
                                "module.cross_frame_displacements = true\n")
    out = tmp_path / "run"
    args = [command, "--config", cfg] + ([] if command == "gradcheck" else ["--out", str(out)])
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "module.cross_frame_displacements" in captured.err
    assert "prepare_inputs(..., counterparts=...)" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen"])  # --out is required
    assert exc.value.code == EXIT_CONFIG


def _run_flowagg(*argv):
    """`python -m flowagg.cli *argv` in a subprocess that runs the package
    under test, whether it was imported from an install or through
    pytest's `pythonpath` setting."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(flowagg.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "flowagg.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)


def test_console_entry_point_runs():
    proc = _run_flowagg("defaults")
    assert proc.returncode == EXIT_OK
    assert "scene.n_clusters" in proc.stdout
