"""Numeric substrate: initialization, the stacked matrix product, gradient oracle.

All training math in this package runs in float64; tensors are plain
C-contiguous numpy arrays. The finite-difference routine here is the
independent oracle every analytic gradient in the package is checked
against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError


def glorot_uniform(
    shape: Sequence[int], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw i.i.d. uniform values on [-b, b] with b = sqrt(6/(fan_in+fan_out))."""
    shape = tuple(int(d) for d in shape)
    if any(d <= 0 for d in shape):
        raise ValueError(f"zero-sized shape {shape}")
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in/fan_out must be >= 1, got {fan_in}/{fan_out}")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape).astype(np.float64)


def rows_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a stack ``a`` of shape (..., n) and a 2-D ``b``, as one 2-D GEMM.

    numpy multiplies a stack by a matrix with one small GEMM per leading
    index. Flattening the leading axes makes one large GEMM out of the same
    row-by-column dot products in about half the time. BLAS picks its kernel,
    and so the summation order, by matrix size, so the result can differ from
    the stacked product in the last bit; whether it does depends on the BLAS
    build and the shapes.
    """
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + (b.shape[-1],))


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Intentionally brute force: this is the oracle used to validate the
    analytic backward passes, so it must not share any code with them.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        f_plus = float(f(x))
        flat_x[i] = orig - eps
        f_minus = float(f(x))
        flat_x[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"non-finite function value while perturbing coordinate {i}")
        flat_g[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-12) -> float:
    """Norm-relative deviation ||a-b|| / max(||a||, ||b||, floor)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), floor)
    return float(np.linalg.norm(a - b) / denom)
