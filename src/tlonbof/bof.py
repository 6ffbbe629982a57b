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

The layer reads its parameters from the model's ``name -> array`` dict:
``codebook``, the scales as ``log_cu``/``log_cs`` (c = exp(log c)), and
``alpha``/``beta`` for the logistic kernel or ``sigma`` for the Gaussian
one. The backward pass is derived by hand (quotient rule through the row
normalization, then the chosen kernel), reads only the cached kernel
values and memberships, and returns its gradients under the same names,
the scales' in log space; it is validated against central finite
differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .config import KERNEL_GAUSSIAN, KERNEL_LOGISTIC
from .core import rows_matmul
from .errors import NumericError


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


def _kernel_matrix(feats: np.ndarray, params: dict[str, np.ndarray], kind: str):
    """Kernel values K, shape (..., N, K), between every feature row and codeword."""
    codebook = params["codebook"]
    if feats.shape[-1] != codebook.shape[1]:
        raise ValueError(
            f"feature dim {feats.shape[-1]} does not match codeword dim {codebook.shape[1]}"
        )
    if kind == KERNEL_LOGISTIC:
        z = rows_matmul(feats, codebook.T)
        z *= 2.0 * float(params["alpha"])
        z += 2.0 * float(params["beta"])
        return kernels.sigmoid(z, out=z)
    if kind == KERNEL_GAUSSIAN:
        return kernels.gaussian_matrix(feats, codebook, float(params["sigma"]))
    raise ValueError(f"unknown kernel kind {kind!r}")


def scale(params: dict[str, np.ndarray], key: str) -> float:
    """The scale factor c = exp(log c) stored as ``key``; NumericError if it is 0 or inf."""
    with np.errstate(over="ignore"):
        c = float(np.exp(params[key]))
    if not 0.0 < c < np.inf:
        raise NumericError(f"{key} = {float(params[key])!r} gives a scale factor of {c!r}")
    return c


def _check_row_sums(sums: np.ndarray) -> None:
    if np.all(sums > 0.0):
        return
    idx = np.argwhere(~(sums > 0.0))[0]
    row = int(idx[-1])
    raise NumericError(f"all kernel values underflowed to zero for timestep row {row}")


@lru_cache(maxsize=None)
def _sorting_network(n: int) -> tuple[tuple[int, int], ...]:
    """Compare-exchange pairs (i, j), i < j, of Batcher's merge-exchange sort of n items."""
    # Knuth, TAOCP vol. 3, 5.2.2, Algorithm M: 9 pairs for 5 items, 59 for 15
    if n < 2:
        return ()
    pairs: list[tuple[int, int]] = []
    t = (n - 1).bit_length()
    p = 1 << (t - 1)
    while p > 0:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return tuple(pairs)


def _region_mean(steps) -> np.ndarray:
    """Mean of a region's ``width`` timesteps, each a (B, K) array, summed in sorted order.

    ``steps`` is a (width, B, K) array or a sequence of (B, K) arrays.
    """
    # Sorting first makes the reduction a function of each column's
    # multiset of values, so reordering timesteps inside a region cannot
    # change the histogram even at the bit level. The region is sorted by a
    # network of elementwise min/max over its rows, which yields np.sort's
    # values (up to the sign of a zero). The rows are then added in order
    # onto +0 and divided by the width, as np.mean does; starting from +0
    # also makes the sign of a zero row moot, so the result has the bits of
    # np.sort(block, axis=1).mean(axis=1) for the (B, width, K) block.
    rows = [step.copy() for step in steps]
    width = len(rows)
    spare = np.empty_like(rows[0])
    for i, j in _sorting_network(width):
        np.minimum(rows[i], rows[j], out=spare)
        np.maximum(rows[i], rows[j], out=rows[j])
        rows[i], spare = spare, rows[i]
    total = np.zeros_like(spare)
    for row in rows:
        total += row
    total /= width
    return total


@dataclass
class BofContext:
    """Everything the backward pass needs from a forward invocation."""

    feats: np.ndarray  # (B, N, D)
    codebook: np.ndarray
    params: dict[str, np.ndarray]
    kind: str
    regions: list[tuple[int, int]]
    k_mat: np.ndarray  # (B, N, K) kernel values
    memberships: np.ndarray  # (B, N, K) scaled soft assignments
    region_means: np.ndarray  # (B, R*K) per-region membership means before c_s, newest first


def assign(
    feats: np.ndarray, params: dict[str, np.ndarray], kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel values K and memberships c_u * K / rowsum(K) of feature rows (..., D)."""
    k_mat = _kernel_matrix(feats, params, kind)
    row_sums = k_mat.sum(axis=-1)
    _check_row_sums(row_sums)
    memberships = np.multiply(k_mat, scale(params, "log_cu"))
    memberships /= row_sums[..., None]
    return k_mat, memberships


def histogram(
    steps, regions: list[tuple[int, int]], params: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram c_s * region means, and the means, newest region first.

    ``steps`` holds the memberships of each window position: an (N, B, K)
    array or a sequence of N (B, K) arrays.
    """
    region_means = np.concatenate(
        [_region_mean(steps[a:b]) for (a, b) in reversed(regions)], axis=1
    )
    return scale(params, "log_cs") * region_means, region_means


def forward_batch(
    feats: np.ndarray, params: dict[str, np.ndarray], cfg
) -> tuple[np.ndarray, BofContext]:
    """Pool a batch of equal-length sequences into temporal histograms.

    ``feats`` is (batch, n_steps, dim); the result is
    (batch, n_regions * n_codewords), newest region first. ``cfg`` (a
    ``network.ModelConfig``) gives ``kernel``, ``n_regions`` and
    ``nested_regions``.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 3:
        raise ValueError(f"expected (batch, steps, dim) input, got shape {feats.shape}")
    regions = segment(feats.shape[1], cfg.n_regions, cfg.nested_regions)
    k_mat, memberships = assign(feats, params, cfg.kernel)
    hist, region_means = histogram(memberships.swapaxes(0, 1), regions, params)
    ctx = BofContext(
        feats=feats,
        codebook=params["codebook"],
        params=params,
        kind=cfg.kernel,
        regions=regions,
        k_mat=k_mat,
        memberships=memberships,
        region_means=region_means,
    )
    return hist, ctx


def backward(
    ctx: BofContext, upstream: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradients of a scalar loss given its gradient w.r.t. the histogram.

    ``upstream`` matches the forward output shape. Returns the gradient
    for the input features and a name -> gradient dict: ``codebook``,
    ``log_cu`` and ``log_cs`` (in log space), and for the logistic kernel
    ``alpha`` and ``beta``.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    batch, n_steps, n_codewords = ctx.k_mat.shape
    if upstream.shape != (batch, len(ctx.regions) * n_codewords):
        raise ValueError(f"upstream gradient has shape {upstream.shape}, expected "
                         f"({batch}, {len(ctx.regions) * n_codewords})")
    c_u, c_s = scale(ctx.params, "log_cu"), scale(ctx.params, "log_cs")

    # Undo the concatenation + per-region averaging; overlapping (nested)
    # regions accumulate additively.
    d_memb = np.zeros_like(ctx.memberships)
    dc_s = 0.0
    for i, (a, b) in enumerate(reversed(ctx.regions)):
        seg = slice(i * n_codewords, (i + 1) * n_codewords)
        g_seg = upstream[:, seg]
        d_memb[:, a:b, :] += g_seg[:, None, :] * (c_s / (b - a))
        dc_s += float(np.sum(g_seg * ctx.region_means[:, seg]))

    # Row normalization U = c_u * K / S (S the row sum), written in terms of
    # the cached U so nothing divides by S: with w = sum_k dU * U,
    # dL/dc_u = sum(w) / c_u and dL/dK * K = U * (dU - w / c_u).
    scratch = np.multiply(d_memb, ctx.memberships)  # U * dU, then 1 - K
    weighted = np.sum(scratch, axis=-1)  # (B, N)
    dc_u = float(np.sum(weighted)) / c_u
    d_kk = d_memb  # dL/dK * K, in d_memb's buffer
    d_kk -= (weighted / c_u)[..., None]
    d_kk *= ctx.memberships
    if ctx.kind == KERNEL_LOGISTIC:  # dL/dz = dL/dK * K * (1 - K), in place
        d_kk *= np.subtract(1.0, ctx.k_mat, out=scratch)
    del scratch  # freed before the (B, N, D) products below

    # codebook gradients are one (K, B*N) x (B*N, D) product
    feats_rows = ctx.feats.reshape(-1, ctx.feats.shape[-1])

    # the stored parameters are log c; chain through c = exp(log c)
    grads = {"log_cu": np.array(dc_u * c_u), "log_cs": np.array(dc_s * c_s)}
    if ctx.kind == KERNEL_LOGISTIC:
        alpha = float(ctx.params["alpha"])
        d_z = d_kk
        d_feats = rows_matmul(d_z, ctx.codebook)
        # z = 2 alpha <f, c> + 2 beta, so dL/dalpha = 2 sum(f * (d_z @ codebook))
        grads["alpha"] = np.array(float(2.0 * np.sum(ctx.feats * d_feats)))
        d_feats *= 2.0 * alpha
        grads["codebook"] = d_z.reshape(-1, n_codewords).T @ feats_rows
        grads["codebook"] *= 2.0 * alpha
        grads["beta"] = np.array(float(2.0 * np.sum(d_z)))
    else:
        # gradient w.r.t. squared distances: dL/dK * K * (-1 / (2 sigma^2)); the
        # row maximum that K was divided by cancels in U, so it takes none
        d_sq = d_kk
        d_sq *= -1.0 / (2.0 * float(ctx.params["sigma"]) ** 2)
        # dL/dfeats = 2 (rowsum(d_sq) * feats - d_sq @ codebook), in the product's buffer
        d_feats = rows_matmul(d_sq, ctx.codebook)
        d_feats -= d_sq.sum(axis=-1)[..., None] * ctx.feats
        d_feats *= -2.0
        grads["codebook"] = 2.0 * (
            d_sq.sum(axis=(0, 1))[:, None] * ctx.codebook
            - d_sq.reshape(-1, n_codewords).T @ feats_rows
        )
    return d_feats, grads
