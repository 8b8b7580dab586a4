"""Occlusion-aware aggregation of per-point motion features.

Each point carries a context feature (what it is) and a motion feature
(how it moves). Motion features are unreliable exactly where the second
frame offers no counterpart, so this module lets every point borrow
motion from points with similar context along two routes:

* a global route: scaled dot-product attention over projected context
  features, spanning the whole cloud;
* a local route: scores over the point's k nearest spatial neighbours,
  computed from an encoded displacement together with both endpoints'
  context.

Both routes produce convex combinations of value-projected motion
features. Their sum enters a gated residual correction: the difference
between the original motion feature and the aggregate passes through a
linear/normalize/ReLU head, is scaled by a learnable gate that starts at
zero, and is added back. At initialization the module therefore returns
its motion features unchanged, with one exception: the sum y + 0 · head
turns a -0.0 entry into +0.0.

The module's one input is a prepared scene: :func:`prepare_inputs`
checks a scene's cloud, features and neighbour table against the config
and builds, once, everything that does not depend on the parameters
(feature tensors, displacements, the neighbour row index). :func:`forward`
takes only the parameters and that :class:`SceneInputs`. All forward
math runs through :mod:`.tensor` primitives, so recording a tape during
the call yields exact gradients for every parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .rng import Xoshiro256StarStar, derive_seed
from .spatial import NeighborIndex, PointCloud
from .tensor import MlpParams, NormActParams, ShapeError, Tensor


@dataclass
class AggregatorConfig:
    """Dimensions and behaviour switches of the aggregation module.

    context_dim/motion_dim are the widths of the input features, qk_dim
    the attention projection width, disp_dim the displacement-encoder
    output width, k the local neighbourhood size.

    scale_logits divides attention logits by the square root of q's width:
    sqrt(qk_dim), or sqrt(context_dim) under raw_context_logits.
    raw_context_logits computes them from unprojected context features.
    use_weight_mlp enables the extra positive per-weight map on the global
    attention (off by default; it is redundant right after a softmax). It
    builds the weights as tensors through global_attention_weights and
    tapes weight_mlp_bytes of N x N arrays, so N is bounded by
    DENSE_WEIGHTS_MAX_BYTES (about 3,096 at the default widths).
    cross_frame_displacements encodes frame-2 counterpart minus frame-1
    point instead of the in-frame displacement. Only
    prepare_inputs(..., counterparts=...) can use it, with a row-aligned
    counterpart cloud, which only unoccluded scenes provide; train,
    ablate and gradcheck prepare frame 1 alone and refuse it with a
    ConfigError before building a scene.
    disable_local / disable_global skip the respective route; nothing of
    it is taped. plain_aggregator replaces the gated residual correction
    with y + MLP(aggregate), no normalization and no gate.
    """

    context_dim: int = 32
    motion_dim: int = 32
    qk_dim: int = 16
    disp_dim: int = 8
    k: int = 16
    scale_logits: bool = True
    raw_context_logits: bool = False
    use_weight_mlp: bool = False
    cross_frame_displacements: bool = False
    include_self_neighbors: bool = False
    disable_local: bool = False
    disable_global: bool = False
    plain_aggregator: bool = False
    disp_hidden: tuple[int, ...] = (16,)
    score_hidden: tuple[int, ...] = (32,)
    weight_hidden: tuple[int, ...] = (8,)
    plain_hidden: tuple[int, ...] = (32,)

    def validate(self) -> None:
        for name in ("context_dim", "motion_dim", "qk_dim", "disp_dim", "k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("disp_hidden", "score_hidden", "weight_hidden", "plain_hidden"):
            if any(w < 1 for w in getattr(self, name)):
                raise ValueError(f"{name} widths must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class FeatureSet:
    """Per-point inputs: context (N x Dc) and motion (N x Dm)."""

    context: np.ndarray
    motion: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.context, dtype=np.float64)
        m = np.ascontiguousarray(self.motion, dtype=np.float64)
        if c.ndim != 2 or m.ndim != 2 or c.shape[0] != m.shape[0]:
            raise ShapeError(f"context {c.shape} and motion {m.shape} must share N")
        if (c.size and not np.isfinite(c).all()) or (m.size and not np.isfinite(m).all()):
            raise ValueError("features must be finite")
        object.__setattr__(self, "context", c)
        object.__setattr__(self, "motion", m)

    def __len__(self) -> int:
        return self.context.shape[0]


@dataclass(frozen=True)
class AttentionMap:
    """Weights actually used in one forward call, for inspection.

    global_weights is N x N row-stochastic; local_weights is N x k aligned
    with the NeighborIndex rows: the softmax weights the local_route node
    formed and keeps, not a tape output. A disabled route leaves its entry
    None.

    The default global route keeps no N x N array, on the tape or here:
    each read of global_weights walks, from that call's q and k and with
    no tape node, the blocks of query rows that the route's kernel walked,
    forms each block's shifted exponentials E and row sums as the kernel
    did, and returns E / rowsum as a fresh N x N array (the route itself
    divides only its output); past DENSE_WEIGHTS_MAX_BYTES it raises
    ShapeError before allocating. With use_weight_mlp the weights are a
    tape output, and the read returns that array.
    """

    global_reader: Callable[[], np.ndarray] | None
    local_weights: np.ndarray | None

    @property
    def global_weights(self) -> np.ndarray | None:
        return None if self.global_reader is None else self.global_reader()


@dataclass
class AggregatorParams:
    """All learnable state of the module.

    qk_proj is the single shared query/key projection (Dc x Dqk): queries
    and keys are the same linear map of context. v_proj maps motion
    features (Dm x Dm). alpha is the scalar residual gate, initialized to
    zero. weight_mlp and plain_head exist only when the corresponding
    config switches ask for them.
    """

    qk_proj: Tensor
    v_proj: Tensor
    disp_encoder: MlpParams
    score: MlpParams
    offset_head: NormActParams
    alpha: Tensor
    weight_mlp: MlpParams | None = None
    plain_head: MlpParams | None = None

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        """Fixed-order (name, tensor) pairs; the order is the container
        serialization order and the optimizer's update order."""
        out = [("qk_proj", self.qk_proj), ("v_proj", self.v_proj)]
        out.extend(self.disp_encoder.named_tensors("disp_encoder"))
        out.extend(self.score.named_tensors("score"))
        out.extend(self.offset_head.named_tensors("offset_head"))
        out.append(("alpha", self.alpha))
        if self.weight_mlp is not None:
            out.extend(self.weight_mlp.named_tensors("weight_mlp"))
        if self.plain_head is not None:
            out.extend(self.plain_head.named_tensors("plain_head"))
        return out


def _uniform_init(rng: Xoshiro256StarStar, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor((rng.uniform_array(shape) * 2.0 - 1.0) * bound, trainable=True)


def _init_mlp(rng: Xoshiro256StarStar, dims: tuple[int, ...]) -> MlpParams:
    layers = []
    for din, dout in zip(dims[:-1], dims[1:]):
        layers.append((_uniform_init(rng, (din, dout), din),
                       _uniform_init(rng, (dout,), din)))
    return MlpParams(layers)


def init_params(config: AggregatorConfig, seed: int) -> AggregatorParams:
    """Fresh parameters: weights and biases uniform in +-1/sqrt(fan_in),
    normalization gain 1 / shift 0, gate alpha 0.

    The core tensors draw from one stream and the optional stages
    (weight_mlp, plain_head) from a second, so configurations that differ
    only in optional stages share bit-identical core initialization.
    """
    config.validate()
    dc, dm = config.context_dim, config.motion_dim
    core = Xoshiro256StarStar(derive_seed(seed, 0))
    extras = Xoshiro256StarStar(derive_seed(seed, 1))
    params = AggregatorParams(
        qk_proj=_uniform_init(core, (dc, config.qk_dim), dc),
        v_proj=_uniform_init(core, (dm, dm), dm),
        disp_encoder=_init_mlp(core, (3, *config.disp_hidden, config.disp_dim)),
        score=_init_mlp(core, (config.disp_dim + 2 * dc, *config.score_hidden, 1)),
        offset_head=NormActParams(
            weight=_uniform_init(core, (dm, dm), dm),
            bias=_uniform_init(core, (dm,), dm),
            gain=Tensor(np.ones(dm), trainable=True),
            shift=Tensor(np.zeros(dm), trainable=True),
        ),
        alpha=Tensor(np.zeros(()), trainable=True),
    )
    if config.use_weight_mlp:
        params.weight_mlp = _init_mlp(extras, (1, *config.weight_hidden, 1))
    if config.plain_aggregator:
        params.plain_head = _init_mlp(extras, (dm, *config.plain_hidden, dm))
    return params


def project_qkv(params: AggregatorParams, context: Tensor, motion: Tensor,
                config: AggregatorConfig) -> tuple[Tensor | None, Tensor | None, Tensor | None]:
    """Query, key, and value projections of the context (N x Dc) and
    motion (N x Dm) tensors.

    The query and key projections share one weight matrix, so the returned
    q and k are the same tensor (one matmul, gradients from both uses
    accumulate on it). With raw_context_logits, q and k are the context
    tensor itself and the shared projection is skipped. v applies the
    motion-feature projection. A projection that no route reads is not
    formed: q and k are None with disable_global, and v too when the local
    route is off as well.
    """
    dc, dm = config.context_dim, config.motion_dim
    if params.qk_proj.shape != (dc, config.qk_dim) or params.v_proj.shape != (dm, dm):
        raise ShapeError(
            f"projections {params.qk_proj.shape}/{params.v_proj.shape} do not match "
            f"config dims Dc={dc}, Dqk={config.qk_dim}, Dm={dm}")
    qk = v = None
    if not config.disable_global:
        qk = context if config.raw_context_logits else T.matmul(context, params.qk_proj)
    if not (config.disable_global and config.disable_local):
        v = T.matmul(motion, params.v_proj)
    return qk, qk, v


# Largest N x N memory in bytes (1 GiB) that the use_weight_mlp route may
# tape (weight_mlp_bytes) or one read of the default route's global weights
# may return (8 N²); past it both raise ShapeError before allocating.
DENSE_WEIGHTS_MAX_BYTES = 1 << 30


def _check_dense_bytes(what: str, n: int, need: int) -> None:
    if need > DENSE_WEIGHTS_MAX_BYTES:
        raise ShapeError(
            f"{what} at N={n} needs about {need / 2**20:.0f} MiB of N x N "
            f"arrays, over the limit of {DENSE_WEIGHTS_MAX_BYTES / 2**20:.0f} MiB "
            f"(DENSE_WEIGHTS_MAX_BYTES)")


def weight_mlp_bytes(n: int, config: AggregatorConfig) -> int:
    """Bytes of the N x N float64 arrays the use_weight_mlp route tapes:
    the logits, the scaled logits (with scale_logits) and the weights,
    one per hidden unit (its fused linear and ReLU), the output layer's
    linear, the softplus and the row normalization."""
    return 8 * n * n * (5 + config.scale_logits + sum(config.weight_hidden))


def _logit_scale(q: Tensor, config: AggregatorConfig) -> float:
    return 1.0 / np.sqrt(q.data.shape[1]) if config.scale_logits else 1.0


def global_attention_weights(params: AggregatorParams, q: Tensor, k: Tensor,
                             config: AggregatorConfig) -> Tensor:
    """Row-stochastic N x N attention over context similarity, as a tensor.

    Logits are q_i . k_j, divided by the square root of q's width when
    scale_logits is set (sqrt(qk_dim), or sqrt(context_dim) under
    raw_context_logits); rows pass through a softmax. With use_weight_mlp,
    each weight is additionally mapped through a small MLP whose output
    goes through a softplus (keeping it positive), and rows are
    renormalized to sum 1; past DENSE_WEIGHTS_MAX_BYTES that raises
    ShapeError before allocating.

    Every step is its own tape node (matmul, transpose2, scale,
    softmax_rows, then the weight MLP), so the tape holds each N x N
    intermediate. The use_weight_mlp route of :func:`aggregate_global`
    calls this; the default route never makes the array.
    """
    n = q.data.shape[0]
    if config.use_weight_mlp:
        if params.weight_mlp is None:
            raise ShapeError("use_weight_mlp is set but params carry no weight_mlp")
        _check_dense_bytes("use_weight_mlp", n, weight_mlp_bytes(n, config))
    c = _logit_scale(q, config)
    logits = T.matmul(q, T.transpose2(k))
    w = T.softmax_rows(T.scale(logits, c) if config.scale_logits else logits)
    if not config.use_weight_mlp:
        return w
    flat = T.reshape(w, (n * n, 1))
    pos = T.softplus(T.mlp_forward(params.weight_mlp, flat))
    grid = T.reshape(pos, (n, n))
    return T.div(grid, T.reduce_sum(grid, axis=1, keepdims=True))


def aggregate_global(params: AggregatorParams, q: Tensor, k: Tensor, v: Tensor,
                     config: AggregatorConfig) -> tuple[Tensor, Callable[[], np.ndarray]]:
    """Blend value rows by the global attention weights: W @ v, with W as
    :func:`global_attention_weights` defines it.

    The default route is one :func:`.tensor.attention` node, which runs
    over blocks of query rows and keeps no N x N array on the tape. It
    normalises W @ v rather than W, so the result and gradients agree with
    the weights-then-matmul chain to rounding (about 1e-15 relative), not
    bit for bit. use_weight_mlp needs W as a tensor, so it tapes
    :func:`global_attention_weights` and a matmul.

    Returns (g_global: N x Dm, a reader that returns W as an N x N array;
    on the default route it is :func:`.tensor.attention_weights_data` over
    the node's own blocks, bounded by DENSE_WEIGHTS_MAX_BYTES).
    """
    if q.data.shape[0] != k.data.shape[0] or k.data.shape[0] != v.data.shape[0]:
        raise ShapeError(f"aggregate_global: q {q.shape}, k {k.shape} and values "
                         f"{v.shape} must share N")
    if config.use_weight_mlp:
        w = global_attention_weights(params, q, k, config)
        return T.matmul(w, v), lambda: w.data
    c = _logit_scale(q, config)

    def read() -> np.ndarray:
        n = q.data.shape[0]
        _check_dense_bytes("reading global_weights", n, 8 * n * n)
        return T.attention_weights_data(q, k, c)
    return T.attention(q, k, v, c), read


@dataclass(frozen=True, eq=False)
class SceneInputs:
    """The one input of :func:`forward`: a scene prepared for one config
    by :func:`prepare_inputs`, once; every pass over the scene then reads
    the same leaf tensors.

    config is the module config the scene was checked against. context
    (N x Dc) and motion (N x Dm) are the feature tensors. The local
    route's constants exist only when that route runs (None with
    disable_local):

    * disp: the N·k x 3 displacement table, neighbour endpoint minus point;
    * rows: the flattened neighbour table as a :class:`.tensor.RowIndex`,
      through which the local route reads the neighbours' context and
      value rows and scatters v's gradient, with its occurrence rounds
      built once.
    """

    config: AggregatorConfig
    context: Tensor
    motion: Tensor
    disp: Tensor | None = None
    rows: T.RowIndex | None = None


def prepare_inputs(cloud: PointCloud, feats: FeatureSet, nbrs: NeighborIndex | None,
                   config: AggregatorConfig,
                   counterparts: PointCloud | None = None) -> SceneInputs:
    """Check a scene's inputs against the config and build its
    :class:`SceneInputs`.

    Displacements default to p_j - p_i within frame 1; with
    cross_frame_displacements the j endpoint is taken from the row-aligned
    counterpart cloud instead. `nbrs` may be None only with disable_local,
    which reads no neighbour table. Raises ShapeError on a shape that does
    not fit (the neighbour table must be N x config.k when the local route
    runs) or a missing table, and ValueError when the displacement table
    is not finite.
    """
    n = len(feats)
    if n < 2:
        raise ShapeError("forward needs at least 2 points (normalization head)")
    dc, dm = config.context_dim, config.motion_dim
    if feats.context.shape[1] != dc or feats.motion.shape[1] != dm:
        raise ShapeError(
            f"features ({feats.context.shape[1]}, {feats.motion.shape[1]}) do not match "
            f"configured dims ({dc}, {dm})")
    local = {} if config.disable_local else _local_constants(cloud, feats, nbrs, config,
                                                              counterparts)
    return SceneInputs(config, T.tensor(feats.context), T.tensor(feats.motion), **local)


def _local_constants(cloud: PointCloud, feats: FeatureSet, nbrs: NeighborIndex | None,
                     config: AggregatorConfig, counterparts: PointCloud | None) -> dict:
    n = len(feats)
    if len(cloud) != n:
        raise ShapeError(f"cloud has {len(cloud)} points but features have {n}")
    if nbrs is None:
        raise ShapeError("the local route needs a neighbour table (nbrs is None)")
    if nbrs.indices.shape != (n, config.k):
        raise ShapeError(f"neighbour table {nbrs.indices.shape} != (N, k) {(n, config.k)}")
    if config.cross_frame_displacements:
        if counterparts is None or len(counterparts) != n:
            raise ShapeError(
                "cross_frame_displacements needs a counterpart cloud row-aligned "
                "with frame 1 (unoccluded scenes only)")
        endpoint = counterparts.points
    else:
        endpoint = cloud.points
    rows = T.RowIndex(nbrs.indices)
    with np.errstate(over="ignore", invalid="ignore"):
        disp = endpoint[rows.flat] - np.repeat(cloud.points, config.k, axis=0)
    if not np.isfinite(disp).all():
        raise ValueError("the displacement table (neighbour minus point) is not finite: "
                         "the point coordinates overflow float64 when subtracted")
    return dict(disp=T.tensor(disp), rows=rows)


def aggregate_local(params: AggregatorParams, inputs: SceneInputs,
                    v: Tensor) -> tuple[Tensor, np.ndarray]:
    """Neighbourhood aggregation: per point, a softmax over its k
    neighbours' scores, applied to their value rows.

    The score of neighbour j of point i is an MLP over [encoded
    displacement, context_j, context_i], from the constants in `inputs`.
    The whole route is one :func:`.tensor.local_route` node: it walks
    blocks of points, reads the neighbours' context and value rows through
    `inputs.rows`, and keeps no N·k-row array on the tape but its last
    block's layer outputs.

    Returns (g_local: N x Dm, local_weights: N x k). The weights are the
    node's softmax weights as a plain array, with no tape node.
    """
    return T.local_route(params.disp_encoder, params.score, inputs.disp,
                         inputs.context, v, inputs.rows)


def offset_aggregate(params: AggregatorParams, y: Tensor, g: Tensor) -> Tensor:
    """Gated residual correction of motion features, one
    :func:`.tensor.offset_head` node.

    The head sees y - g, where g is the sum of the routes that ran (see
    :func:`forward`); its output is scaled by the learnable gate alpha and
    added to y. With alpha at its initial value 0, the result is y + 0 ·
    head: y's bytes, except that a -0.0 entry comes back +0.0.
    """
    return T.offset_head(params.offset_head, params.alpha, y, g)


def forward(params: AggregatorParams, inputs: SceneInputs) -> tuple[Tensor, AttentionMap]:
    """Full pass over a prepared scene: project, attend globally and
    locally, correct, as inputs.config defines the module.

    The head sees g, the sum of the routes that ran (a zero tensor when
    neither runs). Returns the corrected motion features (N x Dm) and the
    attention maps used. Record on a tape to differentiate through it.
    """
    config = inputs.config
    q, k, v = project_qkv(params, inputs.context, inputs.motion, config)
    y = inputs.motion
    g = global_w = local_w = None
    if not config.disable_global:
        g, global_w = aggregate_global(params, q, k, v, config)
    if not config.disable_local:
        g_local, local_w = aggregate_local(params, inputs, v)
        g = g_local if g is None else T.add(g_local, g)
    if g is None:
        g = Tensor(np.zeros(y.data.shape))

    if config.plain_aggregator:
        if params.plain_head is None:
            raise ShapeError("plain_aggregator is set but params carry no plain_head")
        y_tilde = T.add(y, T.mlp_forward(params.plain_head, g))
    else:
        y_tilde = offset_aggregate(params, y, g)
    return y_tilde, AttentionMap(global_reader=global_w, local_weights=local_w)
