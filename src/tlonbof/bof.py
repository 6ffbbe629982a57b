"""Temporal logistic bag-of-features pooling layer.

Turns a variable-length sequence of feature vectors into a fixed-length
histogram: every timestep is softly assigned to a shared codebook, the
assignments are averaged inside each temporal region, and the per-region
histograms are concatenated newest-region first.

Two learnable scale factors keep the signal alive through the involved
normalizations: ``c_u`` is the total assignment mass of each timestep
(each row of the assignment matrix sums to ``c_u``) and ``c_s`` scales
the per-region averages, so every histogram segment sums to
``c_s * c_u``. With ``c_u = c_s = 1`` the layer degenerates to the
classical soft-assignment bag-of-features.

The backward pass is derived by hand (quotient rule through the row
normalization, then the chosen kernel); it is validated against central
finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NumericError
from .kernels import KernelParams


@dataclass
class ScalingParams:
    """Assignment-mass and histogram-mass scale factors."""

    c_u: float = 1.0
    c_s: float = 1.0

    def __post_init__(self):
        if self.c_u <= 0 or self.c_s <= 0:
            raise ValueError(f"scale factors must be positive, got c_u={self.c_u}, c_s={self.c_s}")

    @classmethod
    def protocol_init(cls, n_codewords: int, avg_seq_len: float) -> "ScalingParams":
        """Standard initialization: c_s = codebook size, c_u = mean sequence length."""
        return cls(c_u=float(avg_seq_len), c_s=float(n_codewords))

    @classmethod
    def disabled(cls) -> "ScalingParams":
        return cls(c_u=1.0, c_s=1.0)


def segment(n_steps: int, n_regions: int, nested: bool = False) -> list[tuple[int, int]]:
    """Partition timestep indices 0..n_steps-1 into temporal regions.

    Returns (start, stop) ranges ordered oldest region first. The most
    recent n_regions-1 regions each hold floor(n_steps / n_regions)
    timesteps; the oldest region absorbs the remainder. With
    ``nested=True`` every region instead extends to the newest timestep,
    so shorter horizons are contained in longer ones.
    """
    if n_regions < 1:
        raise ValueError(f"n_regions must be >= 1, got {n_regions}")
    if n_steps < n_regions:
        raise ValueError(f"sequence of {n_steps} steps cannot fill {n_regions} regions")
    width = n_steps // n_regions
    recent_first = []
    for r in range(n_regions - 1):
        start = n_steps - (r + 1) * width
        stop = n_steps if nested else n_steps - r * width
        recent_first.append((start, stop))
    oldest_stop = n_steps if nested else n_steps - (n_regions - 1) * width
    recent_first.append((0, oldest_stop))
    return list(reversed(recent_first))


def _kernel_matrix(feats: np.ndarray, codebook: np.ndarray, kind: str, kp: KernelParams):
    """Kernel values K and, for the logistic kernel, the cached dot products."""
    if feats.shape[-1] != codebook.shape[1]:
        raise ValueError(
            f"feature dim {feats.shape[-1]} does not match codeword dim {codebook.shape[1]}"
        )
    if kind == kernels.LOGISTIC:
        dots = feats @ codebook.T
        return kernels.sigmoid(2.0 * kp.alpha * dots + 2.0 * kp.beta), dots
    if kind == kernels.GAUSSIAN:
        if kp.sigma is None:
            raise ValueError("Gaussian kernel requires sigma")
        return kernels.gaussian_matrix(feats, codebook, kp.sigma), None
    raise ValueError(f"unknown kernel kind {kind!r}")


def _check_row_sums(sums: np.ndarray) -> None:
    if np.all(sums > 0.0):
        return
    idx = np.argwhere(~(sums > 0.0))[0]
    row = int(idx[-1])
    raise NumericError(f"all kernel values underflowed to zero for timestep row {row}")


def _region_mean(block: np.ndarray, axis: int) -> np.ndarray:
    # Sorting first makes the reduction a function of each column's
    # multiset of values, so reordering timesteps inside a region cannot
    # change the histogram even at the bit level.
    return np.sort(block, axis=axis).mean(axis=axis)


@dataclass
class BofContext:
    """Everything the backward pass needs from a forward invocation."""

    feats: np.ndarray  # (B, N, D)
    codebook: np.ndarray
    kind: str
    kp: KernelParams
    scaling: ScalingParams
    regions: list[tuple[int, int]]
    k_mat: np.ndarray  # (B, N, K) kernel values
    row_sums: np.ndarray  # (B, N)
    memberships: np.ndarray  # (B, N, K) scaled soft assignments
    region_means: np.ndarray  # (B, R*K) per-region membership means before c_s, newest first
    dots: np.ndarray | None = None  # (B, N, K) feats @ codebook.T, logistic only


@dataclass
class BofGrads:
    feats: np.ndarray
    codebook: np.ndarray
    c_u: float
    c_s: float
    alpha: float | None = None
    beta: float | None = None


def forward_batch(
    feats: np.ndarray,
    codebook: np.ndarray,
    kind: str,
    kp: KernelParams,
    scaling: ScalingParams,
    n_regions: int,
    nested: bool = False,
) -> tuple[np.ndarray, BofContext]:
    """Pool a batch of equal-length sequences into temporal histograms.

    ``feats`` is (batch, n_steps, dim); the result is
    (batch, n_regions * n_codewords), newest region first.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 3:
        raise ValueError(f"expected (batch, steps, dim) input, got shape {feats.shape}")
    regions = segment(feats.shape[1], n_regions, nested)
    k_mat, dots = _kernel_matrix(feats, codebook, kind, kp)
    row_sums = k_mat.sum(axis=-1)
    _check_row_sums(row_sums)
    memberships = scaling.c_u * k_mat / row_sums[..., None]
    region_means = np.concatenate(
        [_region_mean(memberships[:, a:b, :], 1) for (a, b) in reversed(regions)], axis=1
    )
    hist = scaling.c_s * region_means
    ctx = BofContext(
        feats=feats,
        codebook=codebook,
        kind=kind,
        kp=kp,
        scaling=scaling,
        regions=regions,
        k_mat=k_mat,
        row_sums=row_sums,
        memberships=memberships,
        region_means=region_means,
        dots=dots,
    )
    return hist, ctx


def backward(ctx: BofContext, upstream: np.ndarray) -> BofGrads:
    """Gradients of a scalar loss given its gradient w.r.t. the histogram.

    ``upstream`` matches the forward output shape. Returns gradients for
    the input features, the codebook, both scale factors, and (logistic
    kernel only) the kernel slope and offset.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    batch, n_steps, n_codewords = ctx.k_mat.shape
    if upstream.shape != (batch, len(ctx.regions) * n_codewords):
        raise ValueError(f"upstream gradient has shape {upstream.shape}, expected "
                         f"({batch}, {len(ctx.regions) * n_codewords})")
    c_u, c_s = ctx.scaling.c_u, ctx.scaling.c_s

    # Undo the concatenation + per-region averaging; overlapping (nested)
    # regions accumulate additively.
    d_memb = np.zeros_like(ctx.memberships)
    dc_s = 0.0
    for i, (a, b) in enumerate(reversed(ctx.regions)):
        seg = slice(i * n_codewords, (i + 1) * n_codewords)
        g_seg = upstream[:, seg]
        d_memb[:, a:b, :] += g_seg[:, None, :] * (c_s / (b - a))
        dc_s += float(np.sum(g_seg * ctx.region_means[:, seg]))

    # Row normalization: memberships = c_u * K / S with S the row sum.
    weighted = np.sum(d_memb * ctx.k_mat, axis=-1)  # (B, N)
    dc_u = float(np.sum(weighted / ctx.row_sums))
    # d_k = (c_u / S) * (d_memb - weighted / S), in d_memb's buffer
    d_k = d_memb
    d_k -= (weighted / ctx.row_sums)[..., None]
    d_k *= (c_u / ctx.row_sums)[..., None]

    # codebook gradients are one (K, B*N) x (B*N, D) product
    feats_rows = ctx.feats.reshape(-1, ctx.feats.shape[-1])

    if ctx.kind == kernels.LOGISTIC:
        d_z = d_k  # d_k * K * (1 - K), in place
        d_z *= ctx.k_mat
        d_z *= 1.0 - ctx.k_mat
        d_feats = d_z @ ctx.codebook
        d_feats *= 2.0 * ctx.kp.alpha
        d_codebook = d_z.reshape(-1, n_codewords).T @ feats_rows
        d_codebook *= 2.0 * ctx.kp.alpha
        d_alpha = float(2.0 * np.sum(d_z * ctx.dots))
        d_beta = float(2.0 * np.sum(d_z))
    else:
        inv2s2 = 1.0 / (2.0 * ctx.kp.sigma**2)
        d_sq = d_k  # gradient w.r.t. squared distances: d_k * K * (-1 / (2 sigma^2))
        d_sq *= ctx.k_mat
        d_sq *= -inv2s2
        d_feats = 2.0 * (d_sq.sum(axis=-1)[..., None] * ctx.feats - d_sq @ ctx.codebook)
        d_codebook = 2.0 * (
            d_sq.sum(axis=(0, 1))[:, None] * ctx.codebook
            - d_sq.reshape(-1, n_codewords).T @ feats_rows
        )
        d_alpha = None
        d_beta = None

    return BofGrads(
        feats=d_feats,
        codebook=d_codebook,
        c_u=dc_u,
        c_s=dc_s,
        alpha=d_alpha,
        beta=d_beta,
    )
