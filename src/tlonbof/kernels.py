"""Similarity kernels for codeword assignment.

Two kernels are provided. The rescaled logistic kernel

    K(x, v) = sigm(2*alpha*x.v + 2*beta) = (tanh(alpha*x.v + beta) + 1) / 2

is the default; its parameters alpha and beta can be trained. The
Gaussian kernel

    K(x, v) = exp(-||x - v||^2 / (2*sigma^2)) / sqrt(2*pi*sigma)

is kept for the ablation harness with a fixed width sigma. Its matrix form
divides every row by the row's largest value, which leaves out the
prefactor too: both cancel in the soft-assignment normalization, and the
shifted rows cannot underflow to all zeros. The scalar kernels that the
matrix forms are tested against live with the tests; the derivatives are
taken in ``bof.backward``.
"""

from __future__ import annotations

import numpy as np

from .core import rows_matmul


def sigmoid(z, out=None):
    """Numerically stable logistic function, elementwise, into ``out`` if given.

    With ``e = exp(-|z|)`` this is ``1 / (1 + e)`` for ``z >= 0`` and
    ``e / (1 + e)`` below, so ``exp`` never overflows and tiny values keep
    their relative precision (the tanh identity rounds to exactly 0 once
    z < -38, which would empty the kernel rows long before this form does).
    The numerator is ``max(e, z >= 0)``: for ``z >= 0`` it is 1 because
    ``e <= 1``, below zero it is ``e``, and a NaN stays NaN. That picks the
    same values as a ``where`` in about half the time. ``out`` may be ``z``
    itself: ``z`` is read only before ``out`` is written, so the result has
    the same bits.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.abs(z, out=np.empty_like(z))  # an array even for 0-d input, so it can be reused
    np.exp(np.negative(e, out=e), out=e)
    out = np.maximum(e, z >= 0, out=out)
    out /= np.add(e, 1.0, out=e)
    return out if out.ndim else float(out)


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_i - b_k||^2 for rows a (..., D) and b (K, D), as sum a^2 - 2 a.b + sum b^2."""
    sq = np.sum(a**2, axis=-1)[..., None] - 2.0 * rows_matmul(a, b.T) + np.sum(b**2, axis=-1)
    return np.maximum(sq, 0.0, out=sq)  # guard tiny negative round-off


def gaussian_matrix(feats: np.ndarray, codebook: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel values of feature rows (..., D), each row divided by its largest.

    The log kernel -d^2 / (2 sigma^2) is shifted by its row maximum before it
    is exponentiated, so every row holds a 1 even where each unshifted value
    would underflow.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    log_k = _squared_distances(feats, codebook) / (-2.0 * sigma**2)
    log_k -= log_k.max(axis=-1, keepdims=True)
    return np.exp(log_k, out=log_k)


def default_sigma(codebook: np.ndarray) -> float:
    """Fixed Gaussian width: 0.1 of the mean pairwise codeword distance."""
    n = codebook.shape[0]
    if n < 2:
        return 1.0
    dists = np.sqrt(_squared_distances(codebook, codebook)[np.triu_indices(n, k=1)])
    return float(0.1 * dists.mean())
