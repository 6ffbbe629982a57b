"""Temporal logistic bag-of-features pooling layer.

Turns a variable-length sequence of feature vectors into a fixed-length
histogram: every timestep is softly assigned to a shared codebook, the
assignments are averaged inside each temporal region, and the per-region
histograms are concatenated newest-region first.

A batch arrives as a feature table, each distinct feature row once, and a
(windows, steps) index of the row each window position reads, so the rows
that sliding windows share are assigned, and back-propagated, once.

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
normalization, then the chosen kernel) from the cached kernel values and
memberships, and alpha's from d histogram / d alpha, which the forward
pass takes window by window. It returns its gradients under the same
names, the scales' in log space, and one input gradient per table row;
it is validated against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .config import KERNEL_GAUSSIAN, KERNEL_LOGISTIC
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


def _kernel_matrix(feats: np.ndarray, params: dict[str, np.ndarray], kind: str, keep_dots=False):
    """Kernel values K (T, K) of feature rows and codewords, and the logistic F C^T if kept."""
    codebook = params["codebook"]
    if feats.shape[-1] != codebook.shape[1]:
        raise ValueError(
            f"feature dim {feats.shape[-1]} does not match codeword dim {codebook.shape[1]}"
        )
    if kind == KERNEL_LOGISTIC:
        dots = feats @ codebook.T
        z = np.multiply(dots, 2.0 * float(params["alpha"]), out=None if keep_dots else dots)
        z += 2.0 * float(params["beta"])
        return kernels.sigmoid(z, out=z), dots if keep_dots else None
    if kind == KERNEL_GAUSSIAN:
        return kernels.gaussian_matrix(feats, codebook, float(params["sigma"])), None
    raise ValueError(f"unknown kernel kind {kind!r}")


def scale(params: dict[str, np.ndarray], key: str) -> float:
    """The scale factor c = exp(log c) stored as ``key``; NumericError if it is 0 or inf."""
    with np.errstate(over="ignore"):
        c = float(np.exp(params[key]))
    if not 0.0 < c < np.inf:
        raise NumericError(f"{key} = {float(params[key])!r} gives a scale factor of {c!r}")
    return c


def _check_row_sums(sums: np.ndarray, index: np.ndarray) -> None:
    if np.all(sums > 0.0):
        return
    window, step = np.argwhere(~(sums > 0.0)[index])[0].tolist()  # the first position reading one
    raise NumericError(f"all kernel values underflowed to zero for window {window}, step {step}")


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


def _region_mean(rows: list[np.ndarray]) -> np.ndarray:
    """Mean of a region's ``width`` timesteps, each a (B, K) array, summed in sorted order.

    ``rows`` holds arrays of the caller's that the sort overwrites.
    """
    # Sorting first makes the reduction a function of each column's
    # multiset of values, so reordering timesteps inside a region cannot
    # change the histogram even at the bit level. The region is sorted by a
    # network of elementwise min/max over its rows, which yields np.sort's
    # values (up to the sign of a zero). The rows are then added in order
    # onto +0 and divided by the width, as np.mean does; starting from +0
    # also makes the sign of a zero row moot, so the result has the bits of
    # np.sort(block, axis=1).mean(axis=1) for the (B, width, K) block.
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

    feats: np.ndarray  # (T, D) the feature table: each distinct feature row once
    index: np.ndarray  # (B, N) the table row each window position reads
    codebook: np.ndarray
    params: dict[str, np.ndarray]
    kind: str
    regions: list[tuple[int, int]]
    k_mat: np.ndarray  # (T, K) kernel values of the table rows
    memberships: np.ndarray  # (T, K) scaled soft assignments of the table rows
    region_means: np.ndarray  # (B, R*K) per-region membership means before c_s, newest first
    alpha_tangent: np.ndarray | None  # (B, R*K) d histogram / d alpha, logistic kernel only


def assign(feats: np.ndarray, params: dict[str, np.ndarray], kind: str, index: np.ndarray,
           keep_dots: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """K, U = c_u K / rowsum(K) and kept dots of table rows (T, D); ``index`` locates underflow."""
    k_mat, dots = _kernel_matrix(feats, params, kind, keep_dots)
    row_sums = k_mat.sum(axis=-1)
    _check_row_sums(row_sums, index)
    memberships = np.multiply(k_mat, scale(params, "log_cu"))
    memberships /= row_sums[:, None]
    return k_mat, memberships, dots


def histogram(memberships: np.ndarray, index: np.ndarray, regions: list[tuple[int, int]],
              params: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Histogram c_s * region means, and the means, newest region first.

    Each region gathers its positions' rows of ``memberships`` (T, K) through ``index`` (B, N).
    """
    region_means = np.concatenate(
        [_region_mean([memberships[index[:, p]] for p in range(a, b)])
         for (a, b) in reversed(regions)], axis=1
    )
    return scale(params, "log_cs") * region_means, region_means


def _d_alpha(dots, k_mat, memberships, index, regions, params) -> np.ndarray:
    """d histogram / d alpha (B, R*K), newest region first; overwrites ``dots``. Each window
    averages its own positions' rows, as ``histogram`` does, so alpha's gradient, which can
    cancel to 1e-4 of its terms, has the same bits however the windows share table rows."""
    # z = 2 alpha <f, c> + 2 beta: dU/dalpha = 2 U (q - rowsum(U q) / c_u), q = (1 - K) <f, c>
    q = dots
    q *= 1.0 - k_mat
    q -= (np.sum(memberships * q, axis=-1) / scale(params, "log_cu"))[:, None]
    q *= memberships
    means = [sum(q[index[:, p]] for p in range(a, b)) / (b - a) for a, b in reversed(regions)]
    return (2.0 * scale(params, "log_cs")) * np.concatenate(means, axis=1)


def spread(index: np.ndarray, upstream: np.ndarray, regions: list[tuple[int, int]],
           factor: float, n_rows: int) -> np.ndarray:
    """Gradient w.r.t. the (n_rows, K) table of ``factor`` times the region means.

    ``upstream`` (B, R*K) is laid out as ``histogram``'s output. Each position of region
    (a, b) adds ``factor / (b - a)`` times its block onto its row, one fancy add per position.
    Windows that read one row at position 0 are copies of one window (as ``forward_batch``
    requires); they are added once, with their summed upstream, so no add writes a row twice.
    """
    _, first, copy_of = np.unique(index[:, 0], return_index=True, return_inverse=True)
    summed = upstream[first]
    for i in np.flatnonzero(first[copy_of] != np.arange(copy_of.size)).tolist():
        summed[copy_of[i]] += upstream[i]
    index = index[first]
    width = upstream.shape[1] // len(regions)
    out = np.zeros((n_rows, width))
    for i, (a, b) in enumerate(reversed(regions)):
        g_seg = summed[:, i * width : (i + 1) * width] * (factor / (b - a))
        for p in range(a, b):
            out[index[:, p]] += g_seg
    return out


def forward_batch(feats: np.ndarray, params: dict[str, np.ndarray], cfg,
                  index: np.ndarray) -> tuple[np.ndarray, BofContext]:
    """Pool windows of feature rows into temporal histograms.

    ``feats`` is a feature table (T, dim) and ``index`` (batch, n_steps) the
    row each window position reads; two windows read one row at position 0
    only if they are copies of one window. The result is (batch, n_regions *
    n_codewords), newest region first. ``cfg`` (a ``network.ModelConfig``)
    gives ``kernel``, ``n_regions`` and ``nested_regions``.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError(f"expected a (rows, dim) feature table, got shape {feats.shape}")
    regions = segment(index.shape[1], cfg.n_regions, cfg.nested_regions)
    k_mat, memberships, dots = assign(feats, params, cfg.kernel, index, keep_dots=True)
    tangent = None if dots is None else _d_alpha(dots, k_mat, memberships, index, regions, params)
    hist, region_means = histogram(memberships, index, regions, params)
    ctx = BofContext(
        feats=feats,
        index=index,
        codebook=params["codebook"],
        params=params,
        kind=cfg.kernel,
        regions=regions,
        k_mat=k_mat,
        memberships=memberships,
        region_means=region_means,
        alpha_tangent=tangent,
    )
    return hist, ctx


def backward(
    ctx: BofContext, upstream: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradients of a scalar loss given its gradient w.r.t. the histogram.

    ``upstream`` matches the forward output shape. Returns the gradient
    for the feature table, one row per table row, and a name -> gradient
    dict: ``codebook``, ``log_cu`` and ``log_cs`` (in log space), and for
    the logistic kernel ``alpha`` and ``beta``.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    batch, n_codewords = ctx.index.shape[0], ctx.k_mat.shape[1]
    if upstream.shape != (batch, len(ctx.regions) * n_codewords):
        raise ValueError(f"upstream gradient has shape {upstream.shape}, expected "
                         f"({batch}, {len(ctx.regions) * n_codewords})")
    c_u, c_s = scale(ctx.params, "log_cu"), scale(ctx.params, "log_cs")

    dc_s = 0.0
    for i in range(len(ctx.regions)):
        seg = slice(i * n_codewords, (i + 1) * n_codewords)
        dc_s += float(np.sum(upstream[:, seg] * ctx.region_means[:, seg]))
    # undo the per-region averaging onto the table rows (nested regions add up)
    d_memb = spread(ctx.index, upstream, ctx.regions, c_s, len(ctx.feats))

    # Row normalization U = c_u * K / S (S the row sum), written in terms of
    # the cached U so nothing divides by S: with w = sum_k dU * U,
    # dL/dc_u = sum(w) / c_u and dL/dK * K = U * (dU - w / c_u).
    scratch = np.multiply(d_memb, ctx.memberships)  # U * dU, then 1 - K
    weighted = np.sum(scratch, axis=-1)  # (T,)
    dc_u = float(np.sum(weighted)) / c_u
    d_kk = d_memb  # dL/dK * K, in d_memb's buffer
    d_kk -= (weighted / c_u)[:, None]
    d_kk *= ctx.memberships
    if ctx.kind == KERNEL_LOGISTIC:  # dL/dz = dL/dK * K * (1 - K), in place
        d_kk *= np.subtract(1.0, ctx.k_mat, out=scratch)
    del scratch  # freed before the (T, D) products below

    # the stored parameters are log c; chain through c = exp(log c)
    grads = {"log_cu": np.array(dc_u * c_u), "log_cs": np.array(dc_s * c_s)}
    if ctx.kind == KERNEL_LOGISTIC:
        alpha = float(ctx.params["alpha"])
        d_z = d_kk
        d_feats = d_z @ ctx.codebook
        d_feats *= 2.0 * alpha
        grads["codebook"] = (d_z.T @ ctx.feats) * (2.0 * alpha)
        grads["alpha"] = np.array(float(np.vdot(upstream, ctx.alpha_tangent)))
        grads["beta"] = np.array(float(2.0 * np.sum(d_z)))
    else:
        # gradient w.r.t. squared distances: dL/dK * K * (-1 / (2 sigma^2)); the
        # row maximum that K was divided by cancels in U, so it takes none
        d_sq = d_kk
        d_sq *= -1.0 / (2.0 * float(ctx.params["sigma"]) ** 2)
        # dL/dfeats = 2 (rowsum(d_sq) * feats - d_sq @ codebook), in the product's buffer
        d_feats = d_sq @ ctx.codebook
        d_feats -= d_sq.sum(axis=-1)[:, None] * ctx.feats
        d_feats *= -2.0
        grads["codebook"] = 2.0 * (
            d_sq.sum(axis=0)[:, None] * ctx.codebook - d_sq.T @ ctx.feats
        )
    return d_feats, grads
