"""Shared test setup.

BLAS thread caps must be exported before numpy is first imported anywhere
in the test process, otherwise reduction order (and hence bitwise
determinism checks) can vary with the machine.
"""

import io
import math
import os
import struct
import tracemalloc

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from reference import window_table

from tlonbof import bof, config, network, training

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


def traced_peak(call, warm=False) -> int:
    """The tracemalloc peak of ``call()``: what it allocates, after one untraced call if ``warm``."""
    if warm:
        call()  # first-call allocations are not the call's
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pool_windows(x, params, cfg):
    """``bof.forward_batch`` on a (windows, steps, dim) array of feature rows."""
    table, index = window_table(x)
    return bof.forward_batch(table, params, cfg, index)


def adam_step_by_name(params, grads, state):
    """``training.adam_step`` on name -> array maps, as a loaded checkpoint's are: the state's
    names gathered into one vector each, stepped, and the parameters written back in place."""
    p, g = (np.concatenate([a[k].ravel() for k in state.shapes]) for a in (params, grads))
    training.adam_step(p, g, state)
    for k, view in network.flat_views(p, state.shapes).items():
        params[k][...] = view


def deserialize_checkpoint(blob: bytes):
    """``training.load_checkpoint`` of checkpoint bytes: the same reader over ``io.BytesIO``."""
    return training._read_checkpoint(io.BytesIO(blob))


def reordered(blob: bytes, order) -> bytes:
    """Checkpoint ``blob``, well formed, with its tensors stored in ``order(names)`` order."""
    chunks, at = {}, 12  # after the magic, the version and the tensor count
    while at < len(blob):
        (n,) = struct.unpack_from("<H", blob, at)
        rank = blob[at + 2 + n]
        dims = struct.unpack_from(f"<{rank}I", blob, at + 3 + n)
        end = at + 3 + n + 4 * rank + 4 * math.prod(dims)
        chunks[blob[at + 2 : at + 2 + n].decode()], at = blob[at:end], end
    return blob[:12] + b"".join(chunks[name] for name in order(list(chunks)))


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
        conv_pre, _ = network.conv1d_same_batch(ctx.batch, ctx.params["conv_w"],
                                                ctx.params["conv_b"])
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
