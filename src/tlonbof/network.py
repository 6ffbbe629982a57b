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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import bof, kernels
from .config import (ARCH_CNN_GAP, ARCH_TLONBOF, KERNEL_LOGISTIC, SCALING_LEARNED, SCALING_OFF,
                     RunConfig, check_model, pooled_regions, value_error)
from .core import glorot_uniform
from .data import N_FEATURES


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
    def from_run(cls, rc, d_in: int, avg_seq_len: float) -> "ModelConfig":
        """The model a run config describes, for windows of ``d_in`` features.

        Fields the run config shares by name are copied; without temporal
        modelling the histogram has a single region.
        """
        shared = {f.name: getattr(rc, f.name) for f in fields(cls) if hasattr(rc, f.name)}
        shared["n_regions"] = pooled_regions(rc)
        return cls(**shared, d_in=d_in, avg_seq_len=avg_seq_len)

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
        shapes.update(dict.fromkeys(("log_cu", "log_cs") + kernel_params, ()))
    return shapes


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, protocol-initialized scales."""
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) > 1:
            # the Glorot bound depends only on fan_in + fan_out, i.e. the
            # last axis plus the product of the others (taps * d_in for conv)
            params[name] = glorot_uniform(shape, math.prod(shape[:-1]), shape[-1], rng)
        else:
            params[name] = np.zeros(shape)
    if cfg.arch == ARCH_TLONBOF:
        # log_cu = log_cs = 0 already is c_u = c_s = 1, i.e. scaling off;
        # the protocol init is c_u = mean sequence length, c_s = codebook size
        if cfg.adaptive_scaling != SCALING_OFF:
            params["log_cu"] = np.array(np.log(float(cfg.avg_seq_len)))
            params["log_cs"] = np.array(np.log(float(cfg.n_codewords)))
        if cfg.kernel == KERNEL_LOGISTIC:
            params["alpha"] = np.array(1.0)
        else:
            params["sigma"] = np.array(kernels.default_sigma(params["codebook"]))
    return params


def trainable_names(cfg: ModelConfig) -> list[str]:
    names = []
    if cfg.deep_features:
        names += ["conv_w", "conv_b"]
    if cfg.arch == ARCH_TLONBOF:
        names.append("codebook")
    names += ["fc1_w", "fc1_b", "fc2_w", "fc2_b"]
    if cfg.arch == ARCH_TLONBOF:
        if cfg.adaptive_scaling == SCALING_LEARNED:
            names += ["log_cu", "log_cs"]
        if cfg.kernel_param_learning and cfg.kernel == KERNEL_LOGISTIC:
            names += ["alpha", "beta"]
    return names


# ---------------------------------------------------------------------------
# primitive layers

def conv1d_same_batch(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded same-length 1-D convolution over the time axis.

    ``x`` is (batch, steps, d_in), ``weights`` is (kernel, d_in, d_out).
    Each tap is one 2-D product over every (batch * steps) row, written into
    one reused buffer and added onto the bias, tap by tap, as one flat slice
    shifted by the tap's offset. The product rows that the shift would carry
    into a neighbouring window are zeroed first, which is the zero padding.
    """
    taps, d_in, d_out = weights.shape
    if taps % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {taps}")
    if x.shape[-1] != d_in:
        raise ValueError(f"input dim {x.shape[-1]} does not match kernel dim {d_in}")
    batch, n = x.shape[:2]
    center = taps // 2
    rows = x.reshape(-1, d_in)
    out = np.broadcast_to(bias, (rows.shape[0], d_out)).copy()
    prod = np.empty_like(out)
    steps = prod.reshape(batch, n, d_out)
    for k in range(taps):
        off = k - center
        if abs(off) >= n:
            continue
        np.matmul(rows, weights[k], out=prod)
        if off > 0:
            steps[:, :off] = 0.0
            out[:-off] += prod[off:]
        elif off < 0:
            steps[:, n + off :] = 0.0
            out[-off:] += prod[:off]
        else:
            out += prod
    return out.reshape(batch, n, d_out)


def conv1d_same_backward(
    x: np.ndarray, weights: np.ndarray, d_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``conv1d_same_batch`` w.r.t. its weights and bias.

    No input gradient: the conv is always the first layer. Each tap's weight
    gradient is one 2-D product over the (batch * steps) rows that the tap
    touches; no batch-wide unfolded copy of the input is built.
    """
    taps, d_in, d_o = weights.shape
    n = x.shape[1]
    center = taps // 2
    d_w = np.zeros_like(weights)
    for k in range(taps):
        off = k - center
        lo, hi = max(0, -off), n - max(0, off)
        if lo < hi:
            g_rows = d_out[:, lo:hi].reshape(-1, d_o)
            d_w[k] = x[:, lo + off : hi + off].reshape(-1, d_in).T @ g_rows
    return d_w, d_out.sum(axis=(0, 1))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


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
    x: np.ndarray  # (B, N, d_in)
    feats: np.ndarray  # what the pooling stage consumed: the post-ReLU conv output, or x
    bof_ctx: bof.BofContext | None
    pooled: np.ndarray  # (B, pooled_dim) histogram or GAP output
    fc1_pre: np.ndarray
    fc1_act: np.ndarray
    logp: np.ndarray  # (B, n_classes)
    probs: np.ndarray


def forward_batch(
    x: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig
) -> tuple[np.ndarray, NetworkContext]:
    """Class probabilities for a batch of equal-length windows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (batch, steps, dim) input, got shape {x.shape}")
    if x.shape[-1] != cfg.d_in:
        raise ValueError(f"feature dim {x.shape[-1]} does not match configured d_in={cfg.d_in}")

    feats = x
    if cfg.deep_features:
        # the ReLU overwrites the conv output: only the activation is kept
        feats = conv1d_same_batch(x, params["conv_w"], params["conv_b"])
        np.maximum(feats, 0.0, out=feats)

    bof_ctx = None
    if cfg.arch == ARCH_TLONBOF:
        pooled, bof_ctx = bof.forward_batch(feats, params, cfg)
    else:
        pooled = feats.mean(axis=1)

    fc1_pre, fc1_act, logp, probs = _head(pooled, params)
    ctx = NetworkContext(
        cfg=cfg,
        params=params,
        x=x,
        feats=feats,
        bof_ctx=bof_ctx,
        pooled=pooled,
        fc1_pre=fc1_pre,
        fc1_act=fc1_act,
        logp=logp,
        probs=probs,
    )
    return probs, ctx


def _head(pooled: np.ndarray, params: dict[str, np.ndarray]):
    """Dense head on pooled features: fc1 pre-activation and ReLU, log-probs, probs."""
    fc1_pre = fully_connected(pooled, params["fc1_w"], params["fc1_b"])
    fc1_act = relu(fc1_pre)
    logp = log_softmax(fully_connected(fc1_act, params["fc2_w"], params["fc2_b"]))
    return fc1_pre, fc1_act, logp, np.exp(logp)


def forward_windows(
    rows: np.ndarray, params: dict[str, np.ndarray], cfg: ModelConfig, n_steps: int
) -> np.ndarray:
    """Class probabilities of every window ``rows[s : s + n_steps]`` of consecutive rows.

    The same numbers as ``forward_batch`` on the gathered windows, with each
    row's work done once instead of once per window that holds it. A window
    position's conv output depends only on its row and on which taps stay
    inside the window, so there is one table per distinct tap set: the bias
    plus those taps' shifted products of a per-tap GEMM over all rows, added
    in tap order as ``conv1d_same_batch`` adds them. The kernel values and
    memberships are computed once over the stacked tables, and each window
    position reads its rows out of its table.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != cfg.d_in:
        raise ValueError(f"expected (rows, {cfg.d_in}) input, got shape {rows.shape}")
    batch = rows.shape[0] - n_steps + 1
    if n_steps < 1 or batch < 1:
        raise ValueError(f"{rows.shape[0]} rows hold no window of {n_steps} steps")

    # position p of window s is row base[p] + s of ``feats``
    feats, base = rows, range(n_steps)
    if cfg.deep_features:
        weights, bias = params["conv_w"], params["conv_b"]
        taps = weights.shape[0]
        center = taps // 2
        products = [rows @ weights[k] for k in range(taps)]
        # taps lo .. hi - 1 stay inside the window at position p
        tap_sets = [(max(0, center - p), min(taps, n_steps + center - p)) for p in range(n_steps)]
        # positions with the same tap set are consecutive; one table each
        firsts = [p for p in range(n_steps) if p == 0 or tap_sets[p] != tap_sets[p - 1]]
        spans = list(zip(firsts, firsts[1:] + [n_steps]))
        feats = np.empty((n_steps + len(spans) * (batch - 1), bias.size))
        base, at = [], 0
        for a, b in spans:
            table = feats[at : at + b - a + batch - 1]  # for rows a .. b + batch - 2
            table[...] = bias
            for k in range(*tap_sets[a]):
                table += products[k][a + k - center : b - 1 + batch + k - center]
            np.maximum(table, 0.0, out=table)
            base += range(at, at + b - a)
            at += len(table)

    if cfg.arch == ARCH_TLONBOF:
        _, memberships = bof.assign(feats, params, cfg.kernel)
        regions = bof.segment(n_steps, cfg.n_regions, cfg.nested_regions)
        pooled, _ = bof.histogram([memberships[i : i + batch] for i in base], regions, params)
    else:
        pooled = np.stack([feats[i : i + batch] for i in base], axis=1).mean(axis=1)
    return _head(pooled, params)[3]


def batch_loss(ctx: NetworkContext, labels: np.ndarray) -> float:
    """Mean cross-entropy of the cached forward pass."""
    labels = np.asarray(labels)
    return float(-ctx.logp[np.arange(ctx.logp.shape[0]), labels].mean())


def backward_batch(ctx: NetworkContext, labels: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the mean cross-entropy w.r.t. every differentiable parameter.

    Every gradient the model defines is returned; ``trainable_names`` alone
    decides which of them are trained.
    """
    cfg, params = ctx.cfg, ctx.params
    labels = np.asarray(labels)
    batch = ctx.probs.shape[0]
    if labels.shape != (batch,):
        raise ValueError(f"expected {batch} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= cfg.n_classes:
        raise ValueError("label out of range")

    grads: dict[str, np.ndarray] = {}
    d_logits = ctx.probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch

    grads["fc2_w"] = ctx.fc1_act.T @ d_logits
    grads["fc2_b"] = d_logits.sum(axis=0)
    d_fc1_act = d_logits @ params["fc2_w"].T
    d_fc1_pre = d_fc1_act * (ctx.fc1_pre > 0.0)
    grads["fc1_w"] = ctx.pooled.T @ d_fc1_pre
    grads["fc1_b"] = d_fc1_pre.sum(axis=0)
    d_pooled = d_fc1_pre @ params["fc1_w"].T

    if cfg.arch == ARCH_TLONBOF:
        d_feats, bof_grads = bof.backward(ctx.bof_ctx, d_pooled)
        grads.update(bof_grads)
    else:
        n = ctx.feats.shape[1]
        d_feats = np.broadcast_to(d_pooled[:, None, :] / n, ctx.feats.shape).copy()

    if cfg.deep_features:
        # relu(c) > 0 exactly where c > 0, so the activation gives the mask
        d_feats *= ctx.feats > 0.0
        grads["conv_w"], grads["conv_b"] = conv1d_same_backward(ctx.x, params["conv_w"], d_feats)
    return grads

