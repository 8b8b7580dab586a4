"""Command-line interface.

Subcommands: ``gen`` (write a synthetic scene), ``train`` (fit on a
scene, write report and parameters), ``eval`` (score a predicted flow
container against a scene), ``gradcheck`` (verify gradients against
finite differences), ``ablate`` (train all module variants).

Exit codes are a stable contract: 0 success; 2 usage, bad config, or
malformed input content; 3 file-system I/O failure; 4 numerical
divergence during training; 5 verification failure (gradient check out of
tolerance). Every output file depends only on the config and seeds, so
reruns are byte-identical; wall-clock timings go to stdout, never into
files.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, RunConfig, config_defaults, parse_config_file
from .containers import ContainerError, read_container, write_container
from .metrics import FlowField, evaluate_split, metric_lines
from .scenegen import (GenerationError, SyntheticScene, generate_scene,
                       scene_from_tensors, scene_tensors)
from .train import (DivergenceError, ExperimentReport, ablation_table, grad_check,
                    named_model_tensors, report_lines, run_ablation, train)

GRADCHECK_TOL = 1e-6

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_VERIFY = 5


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return parse_config_file(path)


def _load_scene(path: str) -> SyntheticScene:
    return scene_from_tensors(read_container(path))


def _write_report(path: str, report: ExperimentReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report_lines(report)) + "\n")


def cmd_gen(args) -> int:
    cfg = _load_config(args.config)
    scene = generate_scene(cfg.scene)
    write_container(args.out, scene_tensors(scene))
    print(f"scene={args.out}")
    print(f"n_points={len(scene)}")
    print(f"n_occluded={int(scene.occlusion_mask.sum())}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    scene = _load_scene(args.scene) if args.scene else None
    report = train(cfg, scene=scene)
    os.makedirs(args.out, exist_ok=True)
    _write_report(os.path.join(args.out, "report.txt"), report)
    write_container(os.path.join(args.out, "params.gtc"),
                    named_model_tensors(report.params, report.decoder))
    if report.loss_series:
        print(f"final_loss={report.loss_series[-1]!r}")
    print(f"final_epe_all={report.metrics_all.epe_m!r}")
    if report.metrics_occluded is not None:
        print(f"final_epe_occluded={report.metrics_occluded.epe_m!r}")
    print(f"wall_time_s={report.wall_time_s:.3f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    named = read_container(args.pred)
    if "flow" not in named:
        raise ContainerError(f"prediction container {args.pred} has no tensor 'flow'")
    scene = _load_scene(args.scene)
    pred = FlowField(named["flow"])
    if len(pred) != len(scene):
        raise ContainerError(
            f"prediction has {len(pred)} points, scene has {len(scene)}")
    occ, vis, everything = evaluate_split(pred, scene.gt_flow, scene.occlusion_mask)
    for line in metric_lines((("all", everything), ("occluded", occ), ("visible", vis))):
        print(line)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args.config) if args.config else None
    worst = grad_check(cfg, corrupt=args.corrupt)
    print(f"max_rel_discrepancy={worst!r}")
    print(f"tolerance={GRADCHECK_TOL!r}")
    if worst < GRADCHECK_TOL:
        print("gradcheck=pass")
        return EXIT_OK
    print("gradcheck=fail")
    return EXIT_VERIFY


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config)
    reports = run_ablation(cfg)
    os.makedirs(args.out, exist_ok=True)
    table = ablation_table(reports)
    with open(os.path.join(args.out, "ablation.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
    for variant, report in reports.items():
        _write_report(os.path.join(args.out, f"report_{variant}.txt"), report)
    print(table, end="")
    return EXIT_OK


def cmd_defaults(args) -> int:
    print(config_defaults(), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowagg",
        description="Motion aggregation for occluded point-cloud scene flow: "
                    "synthetic scenes, training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scene container")
    p.add_argument("--config", help="run config (defaults when omitted)")
    p.add_argument("--out", required=True, help="output scene container path")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train on a scene, write report and params")
    p.add_argument("--config", help="run config (defaults when omitted)")
    p.add_argument("--scene", help="scene container; generated from config if omitted")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a predicted flow container against a scene")
    p.add_argument("--pred", required=True, help="container holding tensor 'flow'")
    p.add_argument("--scene", required=True, help="scene container")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="compare gradients against finite differences")
    p.add_argument("--config", help="run config (small default instance when omitted)")
    p.add_argument("--corrupt", action="store_true",
                   help="inject a gradient fault (must then fail; negative control)")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train all five module variants on one scene")
    p.add_argument("--config", help="run config (defaults when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("defaults", help="print the full default config")
    p.set_defaults(fn=cmd_defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContainerError, GenerationError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
