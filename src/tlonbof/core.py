"""Numeric substrate: initialization.

All training math in this package runs in float64; tensors are plain
C-contiguous numpy arrays. The finite-difference oracle that every
analytic gradient is checked against lives with the tests, so it shares
no module with the code it checks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


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

