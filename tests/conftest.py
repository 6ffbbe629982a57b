"""Shared test setup.

BLAS thread caps must be exported before numpy is first imported anywhere
in the test process, otherwise reduction order (and hence bitwise
determinism checks) can vary with the machine.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from tlonbof import config, network

try:
    from hypothesis import settings
except ImportError:  # optional test dependency; test_properties skips without it
    pass
else:
    # fixed examples, so every run tests the same inputs, and a bounded count
    settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=150,
                              database=None)
    settings.load_profile("tier1")

# one status line per acceptance criterion, re-printed after the run so
# they survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# small-instance defaults used across gradient tests
TINY = dict(d_in=5, conv_filters=7, conv_kernel=3, n_codewords=4,
            n_regions=3, hidden=6, n_classes=3, avg_seq_len=6.0)


def tiny_config(**overrides) -> network.ModelConfig:
    merged = {"arch": config.ARCH_TLONBOF, **TINY, **overrides}
    return network.ModelConfig(**merged)


def relu_margin(ctx) -> float:
    """Smallest |pre-activation| feeding a ReLU in this forward pass.

    Finite differences step across the ReLU kink when a pre-activation
    sits within eps of zero, so gradient tests reject such instances.
    """
    m = np.min(np.abs(ctx.fc1_pre))
    if ctx.cfg.deep_features:  # the context keeps only the post-ReLU conv output
        conv_pre = network.conv1d_same_batch(ctx.batch, ctx.params["conv_w"], ctx.params["conv_b"])
        m = min(m, np.min(np.abs(conv_pre)))
    return float(m)


def draw_instance(cfg, seed, n_steps=6, sigma=None, margin=1e-3, max_tries=50):
    """Params and input for a gradcheck, rejecting near-kink draws."""
    for attempt in range(max_tries):
        rng = np.random.default_rng(seed * 1000 + attempt)
        params = network.init_params(cfg, rng)
        if sigma is not None and "sigma" in params:
            params["sigma"] = np.array(float(sigma))
        x = rng.normal(size=(n_steps, cfg.d_in))
        _, ctx = network.forward_batch(x[None], params, cfg)
        if relu_margin(ctx) > margin:
            return params, x, ctx
    pytest.fail(f"could not draw a kink-free instance in {max_tries} tries")
