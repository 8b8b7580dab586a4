"""Training loop, gradient verification, and the occlusion experiments.

Everything here is deterministic given the run config: parameter draws,
scene generation, and update order are all seeded, so a rerun reproduces
the loss series to the last bit and serialized outputs byte for byte.
Wall-clock time is measured but deliberately kept out of the serialized
report; it goes to stdout only.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .aggregator import (AggregatorConfig, AggregatorParams, FeatureSet, SceneInputs,
                         _uniform_init, forward, init_params, prepare_inputs)
from .config import ConfigError, RunConfig, TrainSettings, render_config
from .metrics import FlowField, FlowMetrics, evaluate_split, metric_lines
from .rng import Xoshiro256StarStar, derive_seed
from .scenegen import SyntheticScene, generate_scene
from .spatial import PointCloud, knn
from .tensor import Gradients, Tape, Tensor, backward, finite_diff_grad


class DivergenceError(ArithmeticError):
    """Raised when the training loss stops being finite."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value!r} at step {step}")
        self.step = step


@dataclass
class DecoderParams:
    """Linear readout from aggregated motion features to a flow vector."""

    weight: Tensor  # Dm x 3
    bias: Tensor    # (3,)

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return [("decoder.weight", self.weight), ("decoder.bias", self.bias)]


def init_decoder(motion_dim: int, seed: int) -> DecoderParams:
    rng = Xoshiro256StarStar(derive_seed(seed, 2))
    return DecoderParams(weight=_uniform_init(rng, (motion_dim, 3), motion_dim),
                         bias=_uniform_init(rng, (3,), motion_dim))


def decode_flow(decoder: DecoderParams, y_tilde: Tensor) -> Tensor:
    """Per-point linear readout, N x 3."""
    return T.linear(y_tilde, decoder.weight, decoder.bias)


def loss_epe(pred: Tensor, gt: Tensor | np.ndarray) -> Tensor:
    """Mean squared Euclidean flow error as a differentiable scalar, one
    tape node (:func:`tensor.mean_sq_dist`).

    `gt` is an N x 3 array, or a constant Tensor that a caller taking
    many steps built once."""
    return T.mean_sq_dist(pred, gt)


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive slices of `flat`, one view per shape."""
    views, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[at:at + size].reshape(shape))
        at += size
    return views


def _apply_flat(named: list[tuple[str, Tensor]], grads: Gradients, update) -> None:
    """One elementwise update over all parameters: concatenate the
    parameters and their gradients in `named` order, call ``update(p, g)``
    on the two flat arrays, and rebind each tensor's data to its slice of
    the flat result (a view)."""
    p = np.concatenate([t.data.ravel() for _, t in named])
    g = np.concatenate([grads.wrt(t).ravel() for _, t in named])
    for (_, t), view in zip(named, _views(update(p, g), [t.data.shape for _, t in named])):
        t.data = view


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, named: list[tuple[str, Tensor]], grads: Gradients) -> None:
        _apply_flat(named, grads, lambda p, g: p - self.lr * g)


class Adam:
    """Plain Adam with bias correction.

    The moments of all parameters live in two flat arrays, laid out in the
    `named` order of the first step; a later step whose names or shapes
    differ raises ValueError. Each step is one elementwise update over
    the concatenated parameters (the per-parameter expressions, so the
    same bytes as updating each parameter on its own).
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self._layout: list[tuple[str, tuple[int, ...]]] = []
        self._m = self._v = np.zeros(0)

    def step(self, named: list[tuple[str, Tensor]], grads: Gradients) -> None:
        layout = [(name, t.data.shape) for name, t in named]
        if not self.t:
            self._layout = layout
            self._m = self._v = np.zeros(sum(math.prod(shape) for _, shape in layout))
        elif layout != self._layout:
            raise ValueError(f"Adam.step: parameters {layout} differ from the first "
                             f"step's {self._layout}")
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t

        def update(p, g):
            self._m = m = self.beta1 * self._m + (1.0 - self.beta1) * g
            self._v = v = self.beta2 * self._v + (1.0 - self.beta2) * g * g
            return p - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        _apply_flat(named, grads, update)


def _make_optimizer(ts: TrainSettings):
    if ts.optimizer == "sgd":
        return Sgd(ts.learning_rate)
    return Adam(ts.learning_rate, ts.beta1, ts.beta2, ts.adam_eps)


@dataclass
class ExperimentReport:
    """Outcome of one training run.

    loss_series has one entry per optimization step (length 0 when
    steps=0, in which case the metrics describe the initial model).
    wall_time_s is informational and excluded from serialization so that
    report files depend only on (config, seed).
    """

    loss_series: list[float]
    metrics_occluded: FlowMetrics | None
    metrics_visible: FlowMetrics | None
    metrics_all: FlowMetrics
    config_text: str
    wall_time_s: float
    params: AggregatorParams
    decoder: DecoderParams


def report_lines(report: ExperimentReport) -> list[str]:
    """Serialize a report as key=value lines (deterministic; excludes
    wall time)."""
    lines = [f"config.{line}" for line in report.config_text.strip().splitlines()]
    lines.append("steps=" + str(len(report.loss_series)))
    lines.append("loss_series=" + ",".join(repr(v) for v in report.loss_series))
    return lines + metric_lines((("occluded", report.metrics_occluded),
                                 ("visible", report.metrics_visible),
                                 ("all", report.metrics_all)), prefix="final_")


def named_model_tensors(params: AggregatorParams,
                        decoder: DecoderParams) -> list[tuple[str, np.ndarray]]:
    """All model arrays in serialization order, for the tensor container."""
    return ([(name, t.data) for name, t in params.named_tensors()]
            + [(name, t.data) for name, t in decoder.named_tensors()])


# mallopt parameters from glibc's malloc.h, the values glibc's dynamic
# thresholds climb to on 64-bit, and the two ways a user sets each.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_POLICY = (
    (_M_TRIM_THRESHOLD, 64 << 20, "MALLOC_TRIM_THRESHOLD_", "glibc.malloc.trim_threshold"),
    (_M_MMAP_THRESHOLD, 32 << 20, "MALLOC_MMAP_THRESHOLD_", "glibc.malloc.mmap_threshold"),
)


@functools.cache
def _keep_freed_heap_mapped() -> None:
    """Stop glibc from handing each step's freed arrays back to the kernel.

    Every training step frees its tape and gradient arrays and allocates
    the same sizes again. Under glibc's starting thresholds (trim at
    128 KiB, mmap from 128 KiB until freed mmapped chunks raise it) freed
    memory is returned, and the next step faults the same pages back in:
    about 400 minor faults per step at N=200 and 3,500 at N=2000
    (scripts/time_step.py's minflt_per_step). Setting the
    thresholds to where glibc's own dynamic ones end up makes the first
    step behave like a warmed-up process. A threshold the user set
    through MALLOC_*_ or GLIBC_TUNABLES is left alone, and so is a C
    library without mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    tunables = {entry.split("=", 1)[0]
                for entry in os.environ.get("GLIBC_TUNABLES", "").split(":")}
    for param, value, env_name, tunable in _MALLOC_POLICY:
        if env_name not in os.environ and tunable not in tunables:
            mallopt(param, value)


def _check_trainable(module: AggregatorConfig) -> None:
    """Refuse, before any scene is built, a module setting that the model
    setup here cannot prepare a scene for."""
    if module.cross_frame_displacements:
        raise ConfigError(
            "module.cross_frame_displacements = true cannot be trained or "
            "gradient-checked: train, ablate and gradcheck prepare frame 1 alone, "
            "and only prepare_inputs(..., counterparts=...) can use it")


def _setup_model(cfg: RunConfig, cloud: PointCloud,
                 feats: FeatureSet) -> tuple[SceneInputs, AggregatorParams, DecoderParams]:
    """The prepared scene (its neighbours from one kNN over `cloud`, run
    only when the local route is on) and fresh parameters and decoder, all
    from cfg."""
    module = cfg.module
    nbrs = (None if module.disable_local
            else knn(cloud, cloud, module.k, module.include_self_neighbors))
    inputs = prepare_inputs(cloud, feats, nbrs, module)
    return (inputs, init_params(module, cfg.train.seed),
            init_decoder(module.motion_dim, cfg.train.seed))


def _predict(params: AggregatorParams | None, decoder: DecoderParams,
             inputs: SceneInputs) -> Tensor:
    """Per-point flow prediction on prepared inputs: the aggregator, then
    the decoder.

    With params None the decoder reads the input motion features, which is
    what the aggregator returns with its gate at zero (but for -0.0
    entries, which it returns as +0.0); no module runs."""
    y_tilde = inputs.motion if params is None else forward(params, inputs)[0]
    return decode_flow(decoder, y_tilde)


def train(cfg: RunConfig, scene: SyntheticScene | None = None) -> ExperimentReport:
    """Supervised training of the aggregator plus decoder on one scene.

    The scene is generated from cfg.scene unless passed in, and its
    aggregator inputs are prepared once for all steps. Loss is mean
    squared flow error over all points, occluded included; metrics in the
    report are split by the ground-truth occlusion mask. With
    cfg.train.freeze_alpha no module runs and only the decoder trains; the
    report carries the aggregator parameters as initialised.
    """
    cfg.train.validate()
    cfg.module.validate()
    _check_trainable(cfg.module)
    _keep_freed_heap_mapped()
    started = time.perf_counter()
    if scene is None:
        scene = generate_scene(cfg.scene)
    inputs, params, decoder = _setup_model(
        cfg, scene.frame1, FeatureSet(scene.context, scene.motion_in))
    target = T.tensor(scene.gt_flow.vectors)
    module_params = None if cfg.train.freeze_alpha else params
    named = ([] if module_params is None else params.named_tensors()) + decoder.named_tensors()
    opt = _make_optimizer(cfg.train)

    losses: list[float] = []
    for step in range(cfg.train.steps):
        with Tape() as tape:
            pred = _predict(module_params, decoder, inputs)
            loss = loss_epe(pred, target)
        value = float(loss.data)
        if not math.isfinite(value):
            raise DivergenceError(step, value)
        losses.append(value)
        opt.step(named, backward(tape, loss))

    pred = _predict(module_params, decoder, inputs)
    if not np.isfinite(pred.data).all():
        raise DivergenceError(cfg.train.steps, float("nan"))
    occ, vis, everything = evaluate_split(
        FlowField(pred.data), scene.gt_flow, scene.occlusion_mask)
    return ExperimentReport(
        loss_series=losses,
        metrics_occluded=occ,
        metrics_visible=vis,
        metrics_all=everything,
        config_text=render_config(cfg),
        wall_time_s=time.perf_counter() - started,
        params=params,
        decoder=decoder,
    )


def grad_check(cfg: RunConfig | None = None, corrupt: bool = False) -> float:
    """Worst relative disagreement between reverse-mode gradients and
    central finite differences, over every parameter tensor.

    Builds a small random instance from the config seeds, sets the
    residual gate to a nonzero value (at its zero init most parameters
    receive exactly zero gradient, which would make the check vacuous),
    and compares per coordinate with |analytic - numeric| / max(1,
    |numeric|). ``corrupt`` injects a deliberate error into one analytic
    gradient; the result must then be large (negative control).
    """
    if cfg is None:
        cfg = default_gradcheck_config()
    module = cfg.module
    _check_trainable(module)
    rng = Xoshiro256StarStar(derive_seed(cfg.train.seed, 3))
    n = max(module.k + 1, 12)
    cloud = PointCloud(rng.uniform_array((n, 3)) * 2.0 - 1.0)
    feats = FeatureSet(rng.normal_array((n, module.context_dim)),
                       rng.normal_array((n, module.motion_dim)))
    gt = T.tensor(rng.normal_array((n, 3)))
    inputs, params, decoder = _setup_model(cfg, cloud, feats)
    params.alpha.data = np.asarray(0.5 + 0.5 * rng.uniform())
    named = params.named_tensors() + decoder.named_tensors()

    def loss_at() -> Tensor:
        return loss_epe(_predict(params, decoder, inputs), gt)

    with Tape() as tape:
        loss = loss_at()
    grads = backward(tape, loss)

    worst = 0.0
    for name, t in named:
        analytic = grads.wrt(t)
        if corrupt and name == "qk_proj":
            analytic = analytic + 0.5

        def run(values: np.ndarray, _t=t) -> float:
            saved = _t.data
            _t.data = values.reshape(saved.shape)
            try:
                return float(loss_at().data)
            finally:
                _t.data = saved

        try:
            numeric = finite_diff_grad(run, t.data).reshape(analytic.shape)
        except T.NumericalError as exc:
            raise T.NumericalError(f"{name}: {exc}") from exc
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = max(worst, float(rel.max()))
    return worst


def default_gradcheck_config() -> RunConfig:
    """The small instance used by the gradient check: N=12, 8-wide
    features, 3 neighbours."""
    cfg = RunConfig()
    cfg.module = AggregatorConfig(context_dim=8, motion_dim=8, k=3)
    return cfg


def run_occlusion_experiment(cfg: RunConfig,
                             scene: SyntheticScene | None = None) -> dict[str, ExperimentReport]:
    """Train the full module and the frozen-gate baseline on the same
    scene with identical initialization; report both.

    The baseline differs in exactly one way: no module runs, so the
    decoder reads the input motion features (the module's output with its
    gate at zero) and only the decoder learns. Any occluded-split
    advantage of "full" over "baseline" is attributable to the
    aggregation module.
    """
    reports = _train_variants(cfg, scene, ("full", "backbone_only"))
    return {"full": reports["full"], "baseline": reports["backbone_only"]}


ABLATION_VARIANTS = ("full", "plain_aggregator", "no_local", "no_global", "backbone_only")


def _variant_config(cfg: RunConfig, variant: str) -> RunConfig:
    module = dataclasses.replace(cfg.module)
    ts = dataclasses.replace(cfg.train)
    if variant == "plain_aggregator":
        module.plain_aggregator = True
    elif variant == "no_local":
        module.disable_local = True
    elif variant == "no_global":
        module.disable_global = True
    elif variant == "backbone_only":
        ts.freeze_alpha = True
    elif variant != "full":
        raise ValueError(f"unknown ablation variant {variant!r}")
    return dataclasses.replace(cfg, module=module, train=ts)


def _train_variants(cfg: RunConfig, scene: SyntheticScene | None,
                    variants: tuple[str, ...]) -> dict[str, ExperimentReport]:
    """One :func:`train` per named variant of `cfg`, all on one scene
    (generated from cfg.scene when None), keyed by variant."""
    _check_trainable(cfg.module)
    if scene is None:
        scene = generate_scene(cfg.scene)
    return {v: train(_variant_config(cfg, v), scene=scene) for v in variants}


def run_ablation(cfg: RunConfig,
                 scene: SyntheticScene | None = None) -> dict[str, ExperimentReport]:
    """Train five variants on one scene under identical seeds: the full
    module, the plain (un-normalized, ungated) aggregation head, each
    route disabled in turn, and the frozen-gate baseline.

    Core parameter initialization is shared bit-for-bit across variants;
    the plain head draws from a separate stream, so enabling it does not
    shift the rest."""
    return _train_variants(cfg, scene, ABLATION_VARIANTS)


def ablation_table(reports: dict[str, ExperimentReport]) -> str:
    """key=value blocks per variant, occluded EPE first, stable order."""
    lines = []
    for variant in ABLATION_VARIANTS:
        r = reports[variant]
        lines.append(f"[{variant}]")
        if r.metrics_occluded is not None:
            lines.append(f"epe_occluded={r.metrics_occluded.epe_m!r}")
        lines.append(f"epe_all={r.metrics_all.epe_m!r}")
        if r.metrics_visible is not None:
            lines.append(f"epe_visible={r.metrics_visible.epe_m!r}")
        lines.append("")
    return "\n".join(lines)
