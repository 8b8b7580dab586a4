"""Training loop, optimizers, gradient checking, and the experiment drivers."""

import dataclasses
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import flowagg
import oracles
from flowagg import tensor as T
from flowagg import train as train_module
from flowagg.aggregator import AggregatorConfig
from flowagg.config import RunConfig, TrainSettings, parse_config_file
from flowagg.scenegen import SceneConfig, generate_scene
from flowagg.tensor import Tape, Tensor, backward, tensor
from flowagg.train import (
    ABLATION_VARIANTS,
    Adam,
    DivergenceError,
    Sgd,
    ablation_table,
    decode_flow,
    default_gradcheck_config,
    grad_check,
    init_decoder,
    loss_epe,
    named_model_tensors,
    report_lines,
    run_ablation,
    run_occlusion_experiment,
    train,
)

LOCAL_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                         "occlusion_local.cfg")
ABLATION_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                            "ablation_local.cfg")

# small but non-trivial: 2 clusters of 30 points, a third occluded
LIGHT = dict(
    scene=SceneConfig(n_clusters=2, points_per_cluster=30,
                      occlusion_fraction=0.3, occlusion_mode="local",
                      context_scale=4.0, context_dim=16, motion_dim=16, seed=0),
    module=AggregatorConfig(context_dim=16, motion_dim=16, qk_dim=8,
                            disp_dim=4, k=4),
    train=TrainSettings(steps=40, learning_rate=0.02, seed=0),
)


def _light_cfg(**overrides):
    cfg = RunConfig(scene=dataclasses.replace(LIGHT["scene"]),
                    module=dataclasses.replace(LIGHT["module"]),
                    train=dataclasses.replace(LIGHT["train"]))
    for section, kw in overrides.items():
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section), **kw))
    return cfg


def test_mse_loss_two_points():
    pred = tensor([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    gt = np.zeros((2, 3))
    # squared error norms 1 and 4, averaged over the two points
    assert float(loss_epe(pred, gt).data) == pytest.approx(2.5, abs=0)
    assert float(loss_epe(pred, tensor(gt)).data) == pytest.approx(2.5, abs=0)


def _loss_chain(pred, gt):
    """The chain that loss_epe's one node stands for."""
    diff = T.sub(pred, gt)
    return T.scale(T.reduce_sum(T.mul(diff, diff)), 1.0 / gt.shape[0])


@pytest.mark.parametrize("n", [1, 2, 200])
def test_loss_epe_is_one_node_with_the_chains_bytes(n):
    rng = np.random.default_rng(n)
    pred, gt = (tensor(rng.normal(size=(n, 3)), trainable=True) for _ in range(2))
    # A row predicted exactly: +0.0 and -0.0 in the two gradients.
    pred.data[0] = gt.data[0]
    results, ops = [], []
    for op in (loss_epe, _loss_chain):
        with Tape() as tape:
            loss = op(pred, gt)
        grads = backward(tape, loss)
        results.append([np.asarray(loss.data).tobytes(), grads.wrt(pred).tobytes(),
                        grads.wrt(gt).tobytes()])
        ops.append([node.op for node in tape.nodes])
    assert ops == [["mean_sq_dist"], ["sub", "mul", "reduce_sum", "scale"]]
    assert results[0] == results[1]


def test_loss_epe_rejects_mismatched_shapes():
    for gt in (np.zeros((4, 2)), np.zeros((3, 3)), np.zeros(12)):
        with pytest.raises(T.ShapeError):
            loss_epe(tensor(np.zeros((4, 3))), gt)


def test_decoder_matches_matmul_oracle():
    dec = init_decoder(8, seed=3)
    y = np.random.default_rng(0).normal(size=(5, 8))
    got = decode_flow(dec, tensor(y)).data
    want = oracles.matmul_loops(y, dec.weight.data) + dec.bias.data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_sgd_single_step():
    t = Tensor(np.array([1.0, -2.0]), trainable=True)
    with Tape() as tape:
        out = T.reduce_sum(T.mul(t, t))
    grads = backward(tape, out)
    Sgd(lr=0.1).step([("w", t)], grads)
    np.testing.assert_allclose(t.data, [1.0 - 0.2, -2.0 + 0.4], atol=1e-15)


def test_adam_single_step_matches_closed_form():
    t = Tensor(np.array([3.0]), trainable=True)
    with Tape() as tape:
        out = T.reduce_sum(T.mul(t, t))
    grads = backward(tape, out)
    g = 6.0
    opt = Adam(lr=0.05)
    opt.step([("w", t)], grads)
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    want = 3.0 - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(t.data, [want], atol=1e-12)


def test_adam_state_is_per_parameter():
    a = Tensor(np.array([1.0]), trainable=True)
    b = Tensor(np.array([1.0]), trainable=True)
    opt = Adam(lr=0.1)
    for _ in range(3):
        with Tape() as tape:
            out = T.reduce_sum(T.add(T.mul(a, a), T.scale(T.mul(b, b), 2.0)))
        opt.step([("a", a), ("b", b)], backward(tape, out))
    assert a.data[0] != b.data[0]


class _PerParameterAdam:
    """Adam updating one parameter at a time: the reference that the flat
    update must reproduce bit for bit."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t, self.m, self.v = 0, {}, {}

    def step(self, named, grads):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, t in named:
            g = grads.wrt(t)
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(t.data)
                self.v[name] = np.zeros_like(t.data)
            v = self.v[name]
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * g * g
            self.m[name], self.v[name] = m, v
            t.data = t.data - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class _PerParameterSgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, named, grads):
        for _, t in named:
            t.data = t.data - self.lr * grads.wrt(t)


def _model_tensors():
    """A small model's parameters and decoder in training order: matrices,
    vectors and the 0-d gate alpha, set nonzero."""
    module = AggregatorConfig(context_dim=8, motion_dim=8, qk_dim=4, disp_dim=4, k=3)
    params = train_module.init_params(module, seed=5)
    params.alpha.data = np.asarray(0.25)
    return params.named_tensors() + init_decoder(8, seed=5).named_tensors()


@pytest.mark.parametrize("freeze_alpha", [False, True])
@pytest.mark.parametrize("flat, loop", [(Adam, _PerParameterAdam), (Sgd, _PerParameterSgd)])
def test_flat_optimizer_steps_equal_the_per_parameter_loop(flat, loop, freeze_alpha):
    models = [_model_tensors(), _model_tensors()]
    assert {t.shape for _, t in models[0]} >= {(), (8,), (8, 8)}
    upstream = {name: np.random.default_rng(i).normal(size=t.shape)
                for i, (name, t) in enumerate(models[0])}
    opts = [flat(0.05), loop(0.05)]
    for _ in range(5):
        for named, opt in zip(models, opts):
            with Tape() as tape:
                # A cubic loss over every tensor, so that gradients change
                # from step to step; alpha gets one even when frozen.
                terms = [T.reduce_sum(T.mul(T.mul(t, t), tensor(upstream[name])))
                         for name, t in named]
                loss = terms[0]
                for term in terms[1:]:
                    loss = T.add(loss, term)
            opt.step([(name, t) for name, t in named
                      if not (freeze_alpha and name == "alpha")], backward(tape, loss))
        assert [(name, t.data.tobytes()) for name, t in models[0]] == \
            [(name, t.data.tobytes()) for name, t in models[1]]
    if flat is Adam:
        # The flat moments, laid out as the first step's parameters, are
        # the loop's per-parameter moments end to end.
        layout = opts[0]._layout
        assert layout == [(name, m.shape) for name, m in opts[1].m.items()]
        for moments, loop_moments in ((opts[0]._m, opts[1].m), (opts[0]._v, opts[1].v)):
            assert moments.tobytes() == np.concatenate(
                [loop_moments[name].ravel() for name, _ in layout]).tobytes()
        assert ("alpha" in dict(layout)) != freeze_alpha


def test_adam_rejects_a_changed_parameter_layout():
    a, b = Tensor(np.ones(2), trainable=True), Tensor(np.ones((2, 2)), trainable=True)
    with Tape() as tape:
        out = T.add(T.reduce_sum(T.mul(a, a)), T.reduce_sum(b))
    grads = backward(tape, out)
    opt = Adam(lr=0.1)
    opt.step([("a", a), ("b", b)], grads)
    state = (opt.t, a.data.tobytes(), b.data.tobytes())
    for named in ([("a", a)], [("b", b), ("a", a)], [("a", a), ("c", b)],
                  [("a", a), ("b", Tensor(np.ones(4)))]):
        with pytest.raises(ValueError):
            opt.step(named, grads)
    assert (opt.t, a.data.tobytes(), b.data.tobytes()) == state
    opt.step([("a", a), ("b", b)], grads)
    assert opt.t == 2


def test_training_reduces_loss():
    report = train(_light_cfg())
    assert len(report.loss_series) == 40
    assert report.loss_series[-1] < report.loss_series[0]
    assert np.isfinite(report.loss_series).all()


def test_final_occluded_epe_improves_over_initial():
    initial = train(_light_cfg(train=dict(steps=0)))
    trained = train(_light_cfg(train=dict(steps=120)))
    assert initial.loss_series == []
    assert trained.metrics_occluded.epe_m < initial.metrics_occluded.epe_m


def test_training_is_deterministic():
    a = train(_light_cfg())
    b = train(_light_cfg())
    assert report_lines(a) == report_lines(b)
    for (n1, t1), (_, t2) in zip(named_model_tensors(a.params, a.decoder),
                                 named_model_tensors(b.params, b.decoder)):
        assert t1.tobytes() == t2.tobytes(), n1


def test_report_lines_carry_config_and_metrics_but_no_wall_time():
    report = train(_light_cfg(train=dict(steps=5)))
    text = "\n".join(report_lines(report))
    assert "config.scene.n_clusters=2" in text
    assert "final_epe_all=" in text
    assert "final_epe_occluded=" in text
    assert "loss_series=" in text
    assert "wall_time" not in text
    assert report.wall_time_s > 0.0


def test_frozen_alpha_never_moves():
    report = train(_light_cfg(train=dict(steps=25, freeze_alpha=True)))
    assert float(report.params.alpha.data) == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_step():
    cfg = _light_cfg(train=dict(optimizer="sgd", learning_rate=1e9, steps=30))
    with pytest.raises(DivergenceError) as exc:
        train(cfg)
    assert exc.value.step >= 0


def test_gradcheck_default_passes():
    assert grad_check() < 1e-6


@pytest.mark.parametrize("score_hidden", [(), (5, 3)])
def test_gradcheck_passes_at_other_score_depths(score_hidden):
    # The score MLP's layers after the first run through mlp_forward:
    # none at (), two at (5, 3); the default (32,) runs one.
    cfg = default_gradcheck_config()
    cfg.module.score_hidden = score_hidden
    assert grad_check(cfg) < 1e-6


def test_gradcheck_flags_corrupted_gradient():
    assert grad_check(corrupt=True) > 1e-3


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_gradcheck_differentiates_the_training_prediction(monkeypatch):
    # Every forward pass of the check, taped or perturbed, is a _predict
    # call, the same prediction train() fits.
    forwards = _count_calls(monkeypatch, train_module, "forward")
    predicts = _count_calls(monkeypatch, train_module, "_predict")
    assert grad_check() < 1e-6
    assert len(predicts) == len(forwards) > 1


def test_train_builds_features_once_and_predicts_per_step(monkeypatch):
    feature_sets = _count_calls(monkeypatch, train_module, "FeatureSet")
    predicts = _count_calls(monkeypatch, train_module, "_predict")
    train(_light_cfg(train=dict(steps=3)))
    assert len(feature_sets) == 1
    assert len(predicts) == 4   # three steps and the final evaluation


def test_train_and_gradcheck_prepare_the_scene_once(monkeypatch):
    prepares = _count_calls(monkeypatch, train_module, "prepare_inputs")
    predicts = _count_calls(monkeypatch, train_module, "_predict")
    train(_light_cfg(train=dict(steps=3)))
    assert len(prepares) == 1 and len(predicts) == 4
    assert grad_check() < 1e-6
    assert len(prepares) == 2 and len(predicts) > 5


@pytest.mark.parametrize("disable_local", [False, True])
def test_knn_runs_only_for_the_local_route(monkeypatch, disable_local):
    knns = _count_calls(monkeypatch, train_module, "knn")
    train(_light_cfg(module=dict(disable_local=disable_local), train=dict(steps=2)))
    assert len(knns) == (0 if disable_local else 1)
    cfg = default_gradcheck_config()
    cfg.module.disable_local = disable_local
    assert grad_check(cfg) < 1e-6
    assert len(knns) == (0 if disable_local else 2)


def test_taped_steps_share_the_prepared_constant_leaves(monkeypatch):
    # The pinned N=200 local config, three steps.
    cfg = parse_config_file(LOCAL_CFG)
    cfg.train.steps = 3
    prepared, tapes = [], []
    real_prepare, real_backward = train_module.prepare_inputs, train_module.backward
    monkeypatch.setattr(train_module, "prepare_inputs",
                        lambda *args: prepared.append(real_prepare(*args)) or prepared[-1])
    monkeypatch.setattr(train_module, "backward",
                        lambda tape, loss: tapes.append(tape) or real_backward(tape, loss))
    train(cfg)
    inputs, = prepared
    constants = {inputs.context, inputs.motion, inputs.disp}
    assert len(tapes) == 3
    assert len({len(tape) for tape in tapes}) == 1
    assert [node.op for node in tapes[0].nodes] == [
        "matmul", "matmul", "attention",                          # global route
        "linear", "linear", "score_layer", "linear", "reshape",   # local route
        "softmax_rows", "local_aggregate",
        "add", "offset_head",                                     # offset head
        "linear", "mean_sq_dist"]                                 # decoder, loss
    leaves = []
    for tape in tapes:
        outputs = {node.output for node in tape.nodes}
        leaves.append({t for node in tape.nodes for t in node.inputs
                       if t not in outputs and not t.trainable})
    # Every constant leaf is built once per run and shared by all steps:
    # the prepared constants and the loss target. The score layer reads the
    # neighbours' context rows through the row index, which is no node's
    # input.
    assert leaves[0] == leaves[1] == leaves[2]
    assert constants <= leaves[0]
    assert [t.shape for t in leaves[0] - constants] == [(200, 3)]


# Trains the pinned local config twice in one process and prints the minor
# page faults per step of the second run, once the heap has warmed up.
STEADY_FAULTS_PER_STEP = """
import resource, sys
from flowagg.config import parse_config_file
from flowagg.scenegen import generate_scene
from flowagg.train import train
cfg = parse_config_file(sys.argv[1])
cfg.train.steps = 100
scene = generate_scene(cfg.scene)
train(cfg, scene=scene)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(cfg, scene=scene)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / cfg.train.steps)
"""

glibc_only = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the allocator policy is set through glibc's mallopt")


def _steady_faults_per_step(malloc_env: dict) -> float:
    """Run STEADY_FAULTS_PER_STEP in a fresh process whose only allocator
    settings are `malloc_env`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(flowagg.__file__)))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env.update(malloc_env, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", STEADY_FAULTS_PER_STEP, LOCAL_CFG],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    return float(proc.stdout)


@glibc_only
@pytest.mark.parametrize("malloc_env", [{}, {"MALLOC_MMAP_THRESHOLD_": "1048576"}],
                         ids=["no_malloc_env", "mmap_threshold_1mib"])
def test_training_steps_reuse_freed_heap(malloc_env):
    # With glibc's starting thresholds each step faults its freed arrays
    # back in: over a thousand minor faults per step either way.
    assert _steady_faults_per_step(malloc_env) < 10


@glibc_only
@pytest.mark.parametrize("malloc_env", [{"MALLOC_TRIM_THRESHOLD_": "0"},
                                        {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=0"}],
                         ids=["env_variable", "tunable"])
def test_user_trim_threshold_is_left_alone(malloc_env):
    # Trimming at every free keeps returning the step's memory to the kernel.
    assert _steady_faults_per_step(malloc_env) > 500


def test_gradcheck_default_config_shape():
    cfg = default_gradcheck_config()
    assert cfg.module.context_dim == 8
    assert cfg.module.motion_dim == 8
    assert cfg.module.k == 3


def test_occlusion_experiment_direction_single_seed():
    reports = run_occlusion_experiment(_light_cfg(train=dict(steps=150)))
    full = reports["full"].metrics_occluded.epe_m
    frozen = reports["baseline"].metrics_occluded.epe_m
    assert full < frozen
    assert float(reports["baseline"].params.alpha.data) == 0.0


def test_ablation_runs_all_variants():
    cfg = _light_cfg(train=dict(steps=10))
    reports = run_ablation(cfg)
    assert set(reports) == {"full", "plain_aggregator", "no_local",
                            "no_global", "backbone_only"}
    table = ablation_table(reports)
    for name in reports:
        assert name in table
    # every variant saw the same scene and shares core initialization
    full = reports["full"]
    plain = reports["plain_aggregator"]
    assert full.metrics_all.n_points == plain.metrics_all.n_points


def test_each_variant_tapes_only_the_routes_that_run(monkeypatch):
    # A disabled route leaves nothing on the tape: no zero tensor, no add
    # of it into the routes' sum and no projection that only it reads. The
    # frozen-gate baseline runs no module: the decoder and the loss.
    ops = []

    def count(tape, loss):
        ops.append([node.op for node in tape.nodes])
        return backward(tape, loss)
    monkeypatch.setattr(train_module, "backward", count)
    cfg = parse_config_file(ABLATION_CFG)
    cfg.train = dataclasses.replace(cfg.train, steps=1)
    run_ablation(cfg)
    by_variant = dict(zip(ABLATION_VARIANTS, ops, strict=True))
    assert {v: len(nodes) for v, nodes in by_variant.items()} == {
        "full": 14, "plain_aggregator": 16, "no_local": 6, "no_global": 11,
        "backbone_only": 2}
    assert by_variant["no_global"].count("matmul") == 1
    assert by_variant["backbone_only"] == ["linear", "mean_sq_dist"]


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_backbone_only_runs_no_module_on_a_plain_head_base(optimizer):
    # The plain head has no gate to hold at zero; the baseline still
    # trains the decoder alone on the input motion, so no aggregator
    # tensor moves and the run is the default base's baseline.
    runs = {}
    for plain in (True, False):
        cfg = _light_cfg(module=dict(plain_aggregator=plain),
                         train=dict(steps=10, freeze_alpha=True, optimizer=optimizer))
        runs[plain] = train(cfg)
        initial = train_module.init_params(cfg.module, cfg.train.seed)
        assert [(n, t.data.tobytes()) for n, t in runs[plain].params.named_tensors()] == \
            [(n, t.data.tobytes()) for n, t in initial.named_tensors()]
    assert runs[True].params.plain_head is not None

    def outcome(report):
        return [line for line in report_lines(report) if not line.startswith("config.")]
    assert outcome(runs[True]) == outcome(runs[False])
    assert runs[True].decoder.weight.data.tobytes() == runs[False].decoder.weight.data.tobytes()


def test_variants_share_core_initialization():
    cfg = _light_cfg(train=dict(steps=0))
    reports = run_ablation(cfg)
    base = reports["full"].params.qk_proj.data.tobytes()
    for name in ("plain_aggregator", "no_local", "no_global"):
        assert reports[name].params.qk_proj.data.tobytes() == base, name


def test_train_accepts_pregenerated_scene():
    cfg = _light_cfg(train=dict(steps=8))
    scene = generate_scene(cfg.scene)
    a = train(cfg, scene=scene)
    b = train(cfg)
    assert report_lines(a) == report_lines(b)
