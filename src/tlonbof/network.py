"""Full classification network around the bag-of-features pooling layer.

Default architecture for 15-step windows of 144-dim feature vectors:

    input (N, 144)
    -> same-length 1-D convolution, 256 filters, kernel 5, ReLU
    -> temporal bag-of-features pooling (256 codewords, 3 regions)
    -> fully connected 512, ReLU
    -> fully connected 3, softmax

A global-average-pooling variant ("cnn_gap") replaces the pooling layer
with a timestep mean and serves as the ablation baseline. Parameters live
in a flat name -> array dict so the optimizer, the checkpoint format and
the gradient checks all see one enumeration; the pooling layer reads its
parameters from it and returns its gradients under the same names. The two
scale factors are stored in log space (keys ``log_cu``/``log_cs``) so they
stay positive without projection, and their gradients are taken in log space.

Training and scoring run the one forward pass, ``forward_batch``, on a
``data.WindowBatch``: training keeps the context the backward pass reads, and
scoring keeps none.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from . import bof, kernels
from .config import (ARCH_CNN_GAP, ARCH_TLONBOF, KERNEL_LOGISTIC, SCALING_LEARNED, SCALING_OFF,
                     RunConfig, check_model, pooled_regions, value_error)
from .data import N_FEATURES, WindowBatch

LOG_SCALES = ("log_cu", "log_cs")  # c_u and c_s, stored as log c


@dataclass
class ModelConfig:
    # the fields a run config shares take its defaults: the paper geometry
    arch: str = RunConfig.arch
    d_in: int = N_FEATURES
    conv_filters: int = RunConfig.conv_filters
    conv_kernel: int = RunConfig.conv_kernel
    n_codewords: int = RunConfig.n_codewords
    n_regions: int = RunConfig.n_regions
    hidden: int = RunConfig.hidden
    n_classes: int = 3
    kernel: str = RunConfig.kernel
    deep_features: bool = RunConfig.deep_features
    nested_regions: bool = RunConfig.nested_regions
    kernel_param_learning: bool = RunConfig.kernel_param_learning
    adaptive_scaling: str = RunConfig.adaptive_scaling
    avg_seq_len: float = float(RunConfig.window)

    def __post_init__(self):
        # the run config's rules, so checkpoint metadata obeys them too
        for f in fields(self):
            problem = value_error(f.name, getattr(self, f.name))
            if problem is not None:
                raise ValueError(problem)
        check_model(self.arch, self.deep_features, self.n_regions)  # FormatError is a ValueError

    @classmethod
    def from_run(cls, rc, avg_seq_len: float) -> "ModelConfig":
        """The model a run config describes, for windows of ``N_FEATURES`` features.

        Fields the run config shares by name are copied; without temporal
        modelling the histogram has a single region.
        """
        shared = {f.name: getattr(rc, f.name) for f in fields(cls) if hasattr(rc, f.name)}
        shared["n_regions"] = pooled_regions(rc)
        return cls(**shared, avg_seq_len=avg_seq_len)

    @property
    def feature_dim(self) -> int:
        """Dimension the pooling layer (or GAP) consumes."""
        return self.conv_filters if self.deep_features else self.d_in

    @property
    def pooled_dim(self) -> int:
        if self.arch == ARCH_CNN_GAP:
            return self.feature_dim
        return self.n_regions * self.n_codewords


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of the model, in ``init_params`` order."""
    shapes: dict[str, tuple[int, ...]] = {}
    if cfg.deep_features:
        shapes["conv_w"] = (cfg.conv_kernel, cfg.d_in, cfg.conv_filters)
        shapes["conv_b"] = (cfg.conv_filters,)
    if cfg.arch == ARCH_TLONBOF:
        shapes["codebook"] = (cfg.n_codewords, cfg.feature_dim)
    shapes["fc1_w"] = (cfg.pooled_dim, cfg.hidden)
    shapes["fc1_b"] = (cfg.hidden,)
    shapes["fc2_w"] = (cfg.hidden, cfg.n_classes)
    shapes["fc2_b"] = (cfg.n_classes,)
    if cfg.arch == ARCH_TLONBOF:
        kernel_params = ("alpha", "beta") if cfg.kernel == KERNEL_LOGISTIC else ("sigma",)
        shapes.update(dict.fromkeys(LOG_SCALES + kernel_params, ()))
    return shapes


def glorot_uniform(
    shape: tuple[int, ...], fan_in: int, fan_out: int, rng: np.random.Generator, out=None
) -> np.ndarray:
    """I.i.d. uniform values on [-b, b], b = sqrt(6/(fan_in+fan_out)), into ``out`` if given."""
    shape = tuple(int(d) for d in shape)
    if any(d <= 0 for d in shape):
        raise ValueError(f"zero-sized shape {shape}")
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in/fan_out must be >= 1, got {fan_in}/{fan_out}")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    out = rng.random(shape, out=out)  # rng.uniform(-b, b)'s -b + 2b * u bit for bit, in place
    return np.add(np.multiply(out, 2.0 * bound, out=out), -bound, out=out)


def flat_views(vector: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Name -> the next ``prod(shape)`` values of ``vector`` as that shape, in ``shapes`` order."""
    parts = np.split(vector, np.cumsum([math.prod(s) for s in shapes.values()], dtype=int)[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}


def param_vector(cfg: ModelConfig, dtype=np.float64) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A zeroed vector of every parameter value and name -> view of it, in ``param_shapes``
    order; the ``trainable_shapes`` fill its head, in their order, so Adam steps one vector."""
    shapes = param_shapes(cfg)
    vector = np.zeros(sum(math.prod(s) for s in shapes.values()), dtype)
    views = flat_views(vector, {**trainable_shapes(cfg), **shapes})  # the frozen ones last
    return vector, {k: views[k] for k in shapes}


def init_params(cfg: ModelConfig, rng: np.random.Generator, out=None) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, protocol-initialized scales, in zeroed ``out``."""
    params = param_vector(cfg)[1] if out is None else out
    for p in params.values():
        if p.ndim > 1:
            # the Glorot bound depends only on fan_in + fan_out, i.e. the
            # last axis plus the product of the others (taps * d_in for conv)
            glorot_uniform(p.shape, math.prod(p.shape[:-1]), p.shape[-1], rng, out=p)
    if cfg.arch == ARCH_TLONBOF:
        # log_cu = log_cs = 0 already is c_u = c_s = 1, i.e. scaling off;
        # the protocol init is c_u = mean sequence length, c_s = codebook size
        if cfg.adaptive_scaling != SCALING_OFF:
            params["log_cu"][...] = np.log(float(cfg.avg_seq_len))
            params["log_cs"][...] = np.log(float(cfg.n_codewords))
        if cfg.kernel == KERNEL_LOGISTIC:
            params["alpha"][...] = 1.0
        else:
            params["sigma"][...] = kernels.default_sigma(params["codebook"])
    return params


def trainable_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the parameters Adam updates: all but sigma, the log scales unless
    learned, and alpha and beta without kernel-parameter learning, in ``param_shapes`` order."""
    frozen = {"sigma"}
    if cfg.adaptive_scaling != SCALING_LEARNED:
        frozen.update(LOG_SCALES)
    if not cfg.kernel_param_learning:
        frozen.update(("alpha", "beta"))
    return {k: s for k, s in param_shapes(cfg).items() if k not in frozen}


# ---------------------------------------------------------------------------
# primitive layers

FeatureLayout = namedtuple("FeatureLayout", "inner_rows starts edges index")


def _feature_layout(batch: WindowBatch, taps: int) -> FeatureLayout:
    """The inner rows, distinct starts, edge positions and index of the conv's feature table.

    The table holds the batch rows some window reads at an inner position (every tap inside
    the window), then one row per distinct window and edge position (``taps // 2`` at each end).
    """
    n, center = batch.window, taps // 2
    ustarts, copy_of = np.unique(batch.starts, return_inverse=True)
    inner = np.arange(center, n - center)
    edges = [p for p in range(n) if not center <= p < n - center]
    # row r is read at an inner position iff s + center <= r < s + n - center for some start s
    read = np.zeros(batch.rows.shape[0] + 1, dtype=np.int64)
    if inner.size:
        read[ustarts + center] += 1
        read[ustarts + n - center] -= 1
    held = np.cumsum(read[:-1]) > 0
    inner_rows = np.flatnonzero(held)
    index = np.empty((ustarts.size, n), dtype=np.int64)
    index[:, inner] = (np.cumsum(held) - 1)[ustarts[:, None] + inner]
    index[:, edges] = inner_rows.size + np.arange(index[:, edges].size).reshape(ustarts.size, -1)
    return FeatureLayout(inner_rows, ustarts, edges, index[copy_of])


def conv1d_same_batch(batch: WindowBatch, weights: np.ndarray,
                      bias: np.ndarray) -> tuple[np.ndarray, FeatureLayout]:
    """Zero-padded same-length 1-D convolution of every window of a row table.

    ``batch.rows`` is (rows, d_in) and ``weights`` is (kernel, d_in, d_out). Returns the feature
    table (T, d_out) and its layout, whose ``index`` is the row each window position reads.
    Each tap is one 2-D product over the batch's rows, written into one reused buffer, so a row
    that several windows share is multiplied once. The products are added onto the bias in tap
    order, shifted by the tap's offset, along the whole batch as if it were one sequence: that is
    each window's output wherever every tap stays inside the window. The ``kernel // 2``
    positions at each end of a distinct window take, in the same order, only the product rows
    ``start + p + offset`` that stay inside it, which is the zero padding: a left edge adds them
    onto the bias, and a right edge whose taps all read from its window's start on is the
    running sum after its last tap inside the window.
    """
    taps, d_in, d_out = weights.shape
    if taps % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {taps}")
    rows, n = batch.rows, batch.window
    if rows.shape[-1] != d_in:
        raise ValueError(f"input dim {rows.shape[-1]} does not match kernel dim {d_in}")
    center = taps // 2
    layout = _feature_layout(batch, taps)
    inner_rows, ustarts, edges, _ = layout
    inner = np.broadcast_to(bias, (rows.shape[0], d_out)).copy()
    feats = np.empty((inner_rows.size + ustarts.size * len(edges), d_out))
    at_edges = feats[inner_rows.size :].reshape(ustarts.size, len(edges), d_out)
    at_edges[...] = bias
    prod = np.empty_like(inner)
    for k in range(taps):
        off = k - center
        if abs(off) >= n:
            continue
        np.matmul(rows, weights[k], out=prod)
        if off > 0:
            inner[:-off] += prod[off:]
        elif off < 0:
            inner[-off:] += prod[:off]
        else:
            inner += prod
        for j, p in enumerate(edges):
            if p >= center:
                if p + off == n - 1:  # its last tap inside the window
                    at_edges[:, j] = inner[ustarts + p]
            elif 0 <= p + off < n:
                at_edges[:, j] += prod[ustarts + (p + off)]
    # mode="clip" writes straight into ``out``; "raise" would buffer a copy
    np.take(inner, inner_rows, axis=0, out=feats[: inner_rows.size], mode="clip")
    return feats, layout


def conv1d_same_backward(batch: WindowBatch, weights: np.ndarray, d_out: np.ndarray,
                         layout: FeatureLayout, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``conv1d_same_batch`` w.r.t. its weights and bias, from one per table row.

    ``layout`` is the forward pass's; the gradients are written into the arrays of ``out``
    that are not None. No input gradient: the conv is always the first layer. For each tap the
    inner rows' gradients land on the batch rows the tap read for them, each
    edge position's are added at ``start + p + offset`` over the distinct
    starts, so no add writes a row twice, and one 2-D product of the batch's
    rows with that sum is the tap's weight gradient.
    """
    taps, _, d_o = weights.shape
    rows, n = batch.rows, batch.window
    center = taps // 2
    inner_rows, ustarts, edges, _ = layout
    d_inner = d_out[: inner_rows.size]
    d_edges = d_out[inner_rows.size :].reshape(ustarts.size, len(edges), d_o)
    d_w = np.empty_like(weights) if out[0] is None else out[0]
    g_rows = np.empty((rows.shape[0], d_o))
    for k in range(taps):
        off = k - center
        if abs(off) >= n:
            d_w[k] = 0.0
            continue
        g_rows.fill(0.0)
        g_rows[inner_rows + off] = d_inner
        for j, p in enumerate(edges):
            if 0 <= p + off < n:
                g_rows[ustarts + (p + off)] += d_edges[:, j]
        np.matmul(rows.T, g_rows, out=d_w[k])
    return d_w, np.sum(d_out, axis=0, out=out[1])


def fully_connected(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    if x.shape[-1] != weights.shape[0]:
        raise ValueError(f"input dim {x.shape[-1]} does not match weight rows {weights.shape[0]}")
    return x @ weights + bias


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# composed model


@dataclass
class NetworkContext:
    cfg: ModelConfig
    params: dict[str, np.ndarray]
    batch: WindowBatch  # the input: a table of rows and each window's start in it
    feats: np.ndarray  # (T, D) feature table the pooling read: post-ReLU conv rows, or the windows
    index: np.ndarray  # (B, N) the table row each window position reads
    layout: FeatureLayout | None  # the conv's, for its backward
    bof_ctx: bof.BofContext | None
    pooled: np.ndarray  # (B, pooled_dim) histogram or GAP output
    fc1_pre: np.ndarray
    fc1_act: np.ndarray
    logp: np.ndarray  # (B, n_classes)
    probs: np.ndarray


def forward_batch(x: WindowBatch | np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig,
                  keep: bool = True) -> tuple[np.ndarray, NetworkContext | None]:
    """Class probabilities for a batch of equal-length windows, and the context the backward
    pass reads if ``keep``, else None.

    ``x`` is a ``WindowBatch`` or a (batch, steps, d_in) array, which is read
    as a table whose window i starts at row i * steps. The pooling stage reads
    the conv's feature table by index, or without the conv the windows' rows.
    Without ``keep`` no kernel dots or alpha tangent are kept, and without deep features the
    pooling reads each of the batch's rows once however many windows hold it, so the kernel's
    product may round differently in the last bit.
    """
    batch = x if isinstance(x, WindowBatch) else WindowBatch.of_windows(x)
    if batch.rows.shape[-1] != cfg.d_in:
        raise ValueError(f"feature dim {batch.rows.shape[-1]} does not match configured "
                         f"d_in={cfg.d_in}")
    layout = None
    if cfg.deep_features:
        # the ReLU overwrites the conv output: only the activation is kept
        feats, layout = conv1d_same_batch(batch, params["conv_w"], params["conv_b"])
        np.maximum(feats, 0.0, out=feats)
        index = layout.index
    else:
        feats, index = batch.rows, batch.starts[:, None] + np.arange(batch.window)
        if keep:  # one row per window position, so the kernel's product has the windows' bits
            feats, index = feats[index.ravel()], np.arange(index.size).reshape(index.shape)
    if cfg.arch == ARCH_TLONBOF:
        pooled, bof_ctx = bof.forward_batch(feats, params, cfg, index, keep)
    else:
        pooled, bof_ctx = feats[index].mean(axis=1), None

    fc1_pre = fully_connected(pooled, params["fc1_w"], params["fc1_b"])
    fc1_act = np.maximum(fc1_pre, 0.0)
    logp = log_softmax(fully_connected(fc1_act, params["fc2_w"], params["fc2_b"]))
    probs = np.exp(logp)
    if not keep:
        return probs, None
    ctx = NetworkContext(cfg, params, batch, feats, index, layout, bof_ctx, pooled, fc1_pre,
                         fc1_act, logp, probs)
    return probs, ctx


def batch_loss(ctx: NetworkContext, labels: np.ndarray) -> float:
    """Mean cross-entropy of the cached forward pass."""
    labels = np.asarray(labels)
    return float(-ctx.logp[np.arange(ctx.logp.shape[0]), labels].mean())


def backward_batch(ctx: NetworkContext, labels: np.ndarray,
                   out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy w.r.t. every differentiable parameter.

    Every gradient the model defines is returned; ``trainable_shapes`` alone
    decides which of them are trained. Given ``out`` (an earlier call's, or ``param_vector``
    views), each gradient is written into its array there, bit for bit, and it is returned.
    """
    cfg, params = ctx.cfg, ctx.params
    labels = np.asarray(labels)
    batch = ctx.probs.shape[0]
    if labels.shape != (batch,):
        raise ValueError(f"expected {batch} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= cfg.n_classes:
        raise ValueError("label out of range")

    grads: dict[str, np.ndarray] = {} if out is None else out
    d_logits = ctx.probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch

    grads["fc2_w"] = np.matmul(ctx.fc1_act.T, d_logits, out=grads.get("fc2_w"))
    grads["fc2_b"] = np.sum(d_logits, axis=0, out=grads.get("fc2_b"))
    d_fc1_act = d_logits @ params["fc2_w"].T
    d_fc1_pre = d_fc1_act * (ctx.fc1_pre > 0.0)
    grads["fc1_w"] = np.matmul(ctx.pooled.T, d_fc1_pre, out=grads.get("fc1_w"))
    grads["fc1_b"] = np.sum(d_fc1_pre, axis=0, out=grads.get("fc1_b"))
    d_pooled = d_fc1_pre @ params["fc1_w"].T

    if cfg.arch == ARCH_TLONBOF:
        d_feats, _ = bof.backward(ctx.bof_ctx, d_pooled, grads)
    else:  # the timestep mean is one region's mean
        d_feats = bof.spread(ctx.index, d_pooled, [(0, ctx.index.shape[1])], 1.0, len(ctx.feats))

    if cfg.deep_features:
        # relu(c) > 0 exactly where c > 0, so the activation gives the mask
        d_feats *= ctx.feats > 0.0
        grads["conv_w"], grads["conv_b"] = conv1d_same_backward(
            ctx.batch, params["conv_w"], d_feats, ctx.layout,
            out=(grads.get("conv_w"), grads.get("conv_b")))
    return grads
