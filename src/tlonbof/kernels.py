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

from dataclasses import dataclass

import numpy as np

LOGISTIC = "logistic"
GAUSSIAN = "gaussian"


@dataclass
class KernelParams:
    alpha: float = 1.0
    beta: float = 0.0
    sigma: float | None = None  # Gaussian width, ignored by the logistic kernel


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def _check_dims(x, v):
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape:
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, v has shape {v.shape}")
    return x, v


def logistic_kernel(x: np.ndarray, v: np.ndarray, p: KernelParams) -> float:
    """Rescaled logistic similarity, strictly inside (0, 1)."""
    x, v = _check_dims(x, v)
    return float(sigmoid(2.0 * p.alpha * float(x @ v) + 2.0 * p.beta))


def gaussian_kernel(x: np.ndarray, v: np.ndarray, p: KernelParams) -> float:
    x, v = _check_dims(x, v)
    if p.sigma is None or p.sigma <= 0:
        raise ValueError(f"sigma must be positive, got {p.sigma}")
    d2 = float(np.sum((x - v) ** 2))
    return float(np.exp(-d2 / (2.0 * p.sigma**2)) / np.sqrt(2.0 * np.pi * p.sigma))


def gaussian_matrix(feats: np.ndarray, codebook: np.ndarray, sigma: float) -> np.ndarray:
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    sq = (
        np.sum(feats**2, axis=-1)[..., None]
        - 2.0 * (feats @ codebook.T)
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
