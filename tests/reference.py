"""Reference implementations that only the tests use.

Each one is a slow, direct transcription that the package's fast paths are
checked against: the scalar labeler, materialised windows, a per-tap
convolution and its weight gradient, Adam one parameter at a time, the
class-balanced sampler through ``Generator.choice``, the scalar kernels and
the finite-difference gradient oracle. They import
nothing from the modules they check (``bof``, ``kernels``,
``network``, ``training``); only the data types and constants
of ``tlonbof.data`` and the exception types of ``tlonbof.errors``.
``test_core`` asserts that.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from tlonbof.data import (
    DOWN,
    MEAN_HORIZON,
    N_FEATURES,
    POINT_HORIZON,
    STATIONARY,
    UP,
    FeatureSeries,
    _label_day,
)
from tlonbof.errors import NumericError

# ---------------------------------------------------------------------------
# labels and windows


def label_sample(
    mid_prices: np.ndarray,
    t: int,
    horizon: int = 10,
    threshold: float = 1e-4,
    mode: str = MEAN_HORIZON,
) -> int:
    """Direction of the mid-price after event ``t``.

    ``mean_horizon`` compares the mean of the next ``horizon`` mids to the
    current one; ``point_horizon`` compares the single mid ``horizon``
    events ahead. A proportional move of at least ``threshold`` in either
    direction is up/down, anything smaller is stationary. Equality with
    the threshold counts as directional.
    """
    mid_prices = np.asarray(mid_prices, dtype=np.float64)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if t < 0 or t + horizon >= len(mid_prices):
        raise ValueError(f"t={t} leaves no {horizon}-step future in {len(mid_prices)} events")
    if mode == MEAN_HORIZON:
        future = float(np.mean(mid_prices[t + 1 : t + 1 + horizon]))
    elif mode == POINT_HORIZON:
        future = float(mid_prices[t + horizon])
    else:
        raise ValueError(f"unknown label mode {mode!r}")
    r = (future - mid_prices[t]) / mid_prices[t]
    if r >= threshold:
        return UP
    if r <= -threshold:
        return DOWN
    return STATIONARY


def windowize(
    series: FeatureSeries,
    window: int = 15,
    horizon: int = 10,
    threshold: float = 1e-4,
    mode: str = MEAN_HORIZON,
) -> tuple[np.ndarray, np.ndarray]:
    """All labeled windows of one day: (n_samples, window, N_FEATURES) and labels.

    Sample t exists when a full window of history ends at t and a full
    horizon follows it, so n_samples = n_events - window - horizon + 1
    (zero when the day is too short).
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = len(series)
    count = n - window - horizon + 1
    if count <= 0:
        return (
            np.empty((0, window, N_FEATURES)),
            np.empty(0, dtype=np.int64),
        )
    labels = _label_day(series.mid_prices, horizon, threshold, mode)[window - 1 :]
    idx = np.arange(count)[:, None] + np.arange(window)[None, :]
    return series.features[idx], labels


def window_table(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (windows, steps, dim) array as a table of its rows and the (windows, steps) index
    of each position's row, every position a row of its own."""
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(-1, x.shape[-1]), np.arange(x.shape[0] * x.shape[1]).reshape(x.shape[:2])


def gathered_windows(batch) -> np.ndarray:
    """The windows of a ``data.WindowBatch`` copied out of its table, (n_windows, window, dim)."""
    return batch.rows[batch.starts[:, None] + np.arange(batch.window)]


# ---------------------------------------------------------------------------
# convolution


def conv_flat_per_tap(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded same-length conv: per tap, one 2-D product over every row.

    Each tap multiplies all (batch * steps) rows at once; the rows that stay
    inside their window are shifted into place, window by window, and added
    onto the bias in tap order.
    """
    taps, d_in, d_out = weights.shape
    batch, n = x.shape[:2]
    center = taps // 2
    out = np.broadcast_to(bias, (batch, n, d_out)).copy()
    for k in range(taps):
        prod = (x.reshape(-1, d_in) @ weights[k]).reshape(batch, n, d_out)
        off = k - center
        lo, hi = max(0, -off), n - max(0, off)
        if lo < hi:
            out[:, lo:hi] += prod[:, lo + off : hi + off]
    return out


def conv_backward_per_tap(x: np.ndarray, weights: np.ndarray, d_out: np.ndarray):
    """Weight and bias gradients of the same conv: per tap, one 2-D product of
    the windows' shifted rows with the output gradient rows they feed."""
    taps, d_in, d_o = weights.shape
    n, center = x.shape[1], taps // 2
    d_w = np.zeros_like(weights)
    for k in range(taps):
        off = k - center
        lo, hi = max(0, -off), n - max(0, off)
        if lo < hi:
            rows = x[:, lo + off : hi + off].reshape(-1, d_in)
            d_w[k] = rows.T @ d_out[:, lo:hi].reshape(-1, d_o)
    return d_w, d_out.sum(axis=(0, 1))


# ---------------------------------------------------------------------------
# optimizer


def adam_step_per_key(params, grads, state) -> None:
    """One bias-corrected Adam update, in place, each key's arrays whole.

    ``state`` has the fields of a ``training.AdamState``, with ``m`` and ``v`` mapping each name to
    its moment array. Each line keeps the operation order of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and p -= lr*(m/bc1) / (sqrt(v/bc2) + eps).
    """
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for k, g in grads.items():
        m, v = state.m[k], state.v[k]
        buf = np.multiply(g, 1.0 - state.beta1, out=np.empty_like(m))
        m *= state.beta1
        m += buf
        np.multiply(g, g, out=buf)
        buf *= 1.0 - state.beta2
        v *= state.beta2
        v += buf
        np.sqrt(np.divide(v, bc2, out=buf), out=buf)
        buf += state.eps
        step = m / bc1
        step *= state.lr
        step /= buf
        params[k] -= step


def balanced_batch_by_choice(labels: np.ndarray, batch_size: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Sample indices with replacement, weighting each sample by 1/count(its class), through
    ``rng.choice(..., p=weights)``, which rebuilds its CDF over every label at every call."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("cannot sample from an empty label set")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    counts = np.bincount(labels)
    weights = 1.0 / counts[labels]
    weights /= weights.sum()
    return rng.choice(labels.size, size=batch_size, p=weights)


# ---------------------------------------------------------------------------
# scalar kernels


def _sigmoid(z: float) -> float:
    # 1 / (1 + e) for z >= 0 and e / (1 + e) below, with e = exp(-|z|)
    e = math.exp(-abs(z))
    return (1.0 if z >= 0 else e) / (1.0 + e)


def _check_dims(x, v):
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape:
        raise ValueError(f"dimension mismatch: x has shape {x.shape}, v has shape {v.shape}")
    return x, v


def logistic_kernel(x: np.ndarray, v: np.ndarray, alpha: float = 1.0, beta: float = 0.0) -> float:
    """Rescaled logistic similarity, strictly inside (0, 1)."""
    x, v = _check_dims(x, v)
    return _sigmoid(2.0 * alpha * float(x @ v) + 2.0 * beta)


def gaussian_kernel(x: np.ndarray, v: np.ndarray, sigma: float) -> float:
    x, v = _check_dims(x, v)
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d2 = float(np.sum((x - v) ** 2))
    return float(np.exp(-d2 / (2.0 * sigma**2)) / np.sqrt(2.0 * np.pi * sigma))


# ---------------------------------------------------------------------------
# gradient oracle


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
