"""Similarity kernels for codeword assignment.

Two kernels are provided. The rescaled logistic kernel

    K(x, v) = sigm(2*alpha*x.v + 2*beta) = (tanh(alpha*x.v + beta) + 1) / 2

is the default; its parameters alpha and beta can be trained. The
Gaussian kernel

    K(x, v) = exp(-||x - v||^2 / (2*sigma^2)) / sqrt(2*pi*sigma)

is kept for the ablation harness with a fixed width sigma. The prefactor
uses sqrt(2*pi*sigma) deliberately; it cancels in the soft-assignment
normalization, so the choice is cosmetic downstream. The scalar kernels are
the references the batch matrices are tested against; their derivatives are
taken in ``bof.backward``.
"""

from __future__ import annotations

import numpy as np

from .core import rows_matmul

LOGISTIC = "logistic"
GAUSSIAN = "gaussian"


def sigmoid(z):
    """Numerically stable logistic function, elementwise.

    With ``e = exp(-|z|)`` this is ``1 / (1 + e)`` for ``z >= 0`` and
    ``e / (1 + e)`` below, so ``exp`` never overflows and tiny values keep
    their relative precision (the tanh identity rounds to exactly 0 once
    z < -38, which would empty the kernel rows long before this form does).
    The numerator is ``max(e, z >= 0)``: for ``z >= 0`` it is 1 because
    ``e <= 1``, below zero it is ``e``, and a NaN stays NaN. That picks the
    same values as a ``where`` in about half the time.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.abs(z, out=np.empty_like(z))  # an array even for 0-d input, so it can be reused
    np.exp(np.negative(e, out=e), out=e)
    out = np.maximum(e, z >= 0)
    out /= np.add(e, 1.0, out=e)
    return out if out.ndim else float(out)


def _check_dims(x, v):
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape:
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, v has shape {v.shape}")
    return x, v


def logistic_kernel(x: np.ndarray, v: np.ndarray, alpha: float = 1.0, beta: float = 0.0) -> float:
    """Rescaled logistic similarity, strictly inside (0, 1)."""
    x, v = _check_dims(x, v)
    return float(sigmoid(2.0 * alpha * float(x @ v) + 2.0 * beta))


def gaussian_kernel(x: np.ndarray, v: np.ndarray, sigma: float) -> float:
    x, v = _check_dims(x, v)
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d2 = float(np.sum((x - v) ** 2))
    return float(np.exp(-d2 / (2.0 * sigma**2)) / np.sqrt(2.0 * np.pi * sigma))


def gaussian_matrix(feats: np.ndarray, codebook: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    sq = (
        np.sum(feats**2, axis=-1)[..., None]
        - 2.0 * rows_matmul(feats, codebook.T)
        + np.sum(codebook**2, axis=-1)
    )
    np.maximum(sq, 0.0, out=sq)  # guard tiny negative round-off
    return np.exp(-sq / (2.0 * sigma**2)) / np.sqrt(2.0 * np.pi * sigma)


def default_sigma(codebook: np.ndarray) -> float:
    """Fixed Gaussian width: 0.1 of the mean pairwise codeword distance."""
    n = codebook.shape[0]
    if n < 2:
        return 1.0
    sq = (
        np.sum(codebook**2, axis=1)[:, None]
        - 2.0 * codebook @ codebook.T
        + np.sum(codebook**2, axis=1)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    dists = np.sqrt(sq[np.triu_indices(n, k=1)])
    return float(0.1 * dists.mean())
