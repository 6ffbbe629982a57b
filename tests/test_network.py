import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import draw_instance, relu_margin, tiny_config
from reference import (conv_backward_per_tap, conv_flat_per_tap, finite_diff_grad,
                       gathered_windows, relative_error)

from tlonbof import config, data, network
from tlonbof.data import WindowBatch

XENT_210_LABEL0 = 0.4076059644443804  # -log softmax([2,1,0])[0]


def _conv(batch, w, b):
    """The conv output of every window position, (windows, steps, d_out)."""
    feats, layout = network.conv1d_same_batch(batch, w, b)
    return feats[layout.index]


def _conv_backward(batch, w, d_out):
    """The conv gradients for a gradient ``d_out`` of every window position.

    Each position's gradient is summed onto the feature table row it reads,
    and the backward takes the forward pass's layout.
    """
    feats, layout = network.conv1d_same_batch(batch, w, np.zeros(w.shape[2]))
    d_rows = np.zeros_like(feats)
    np.add.at(d_rows, layout.index, d_out)
    return network.conv1d_same_backward(batch, w, d_rows, layout)


def test_conv_identity_kernel():
    # width-1 identity weights pass features straight through
    x = np.random.default_rng(0).normal(size=(1, 7, 3))
    w = np.eye(3)[None]  # (kernel=1, in=3, out=3)
    out = _conv(WindowBatch.of_windows(x), w, np.zeros(3))
    assert np.allclose(out, x, atol=1e-15)


def test_conv_known_values_with_zero_padding():
    x = np.array([[[1.0], [2.0], [3.0]]])
    w = np.ones((3, 1, 1))
    out = _conv(WindowBatch.of_windows(x), w, np.zeros(1))
    assert out.ravel().tolist() == [3.0, 6.0, 5.0]


def test_conv_bias_and_length():
    x = np.random.default_rng(1).normal(size=(1, 10, 4))
    w = np.random.default_rng(2).normal(size=(5, 4, 6))
    batch = WindowBatch.of_windows(x)
    feats, layout = network.conv1d_same_batch(batch, w, np.full(6, 2.5))
    # 6 inner rows and the 2 + 2 positions next to the ends
    assert feats.shape == (10, 6) and layout.index.shape == (1, 10)
    assert layout.inner_rows.size == 6 and layout.edges == [0, 1, 8, 9]
    out = _conv(batch, w, np.full(6, 2.5))
    base = _conv(batch, w, np.zeros(6))
    assert np.allclose(out - base, 2.5)


# short sequences leave some taps with no overlap (an empty lo:hi slice)
@pytest.mark.parametrize("taps,n_steps", [(1, 4), (3, 8), (5, 8), (5, 2), (5, 1)])
def test_conv_backward_matches_finite_differences(taps, n_steps):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, n_steps, 3))
    w = rng.normal(size=(taps, 3, 4))
    b = rng.normal(size=4)
    d_out = rng.normal(size=(2, n_steps, 4))
    batch = WindowBatch.of_windows(x)

    def val(ww, bb):
        return float(np.sum(_conv(batch, ww, bb) * d_out))

    d_w, d_b = _conv_backward(batch, w, d_out)
    fd_w = finite_diff_grad(lambda v: val(v.reshape(w.shape), b), w.copy())
    fd_b = finite_diff_grad(lambda v: val(w, v), b.copy())
    assert relative_error(d_w.ravel(), fd_w.ravel()) < 1e-8
    assert relative_error(d_b, fd_b) < 1e-8


def _conv_per_tap_stacked(x, weights, bias):
    # the per-tap form the package used before: each tap multiplies the
    # shifted input slice as a stack, one small GEMM per window
    taps, _, d_out = weights.shape
    n, center = x.shape[1], taps // 2
    out = np.broadcast_to(bias, x.shape[:2] + (d_out,)).copy()
    for k in range(taps):
        off = k - center
        lo, hi = max(0, -off), n - max(0, off)
        if lo < hi:
            out[:, lo:hi] += x[:, lo + off : hi + off] @ weights[k]
    return out


# 144 features into the paper's 256 filters and the acceptance geometry's 32
@pytest.mark.parametrize("d_out", [256, 32])
@pytest.mark.parametrize("n_steps", range(1, 16))
def test_conv_forward_matches_the_per_tap_stacked_form(n_steps, d_out):
    rng = np.random.default_rng(n_steps)
    x = rng.normal(size=(4, n_steps, 144))
    w = rng.normal(size=(5, 144, d_out))
    b = rng.normal(size=d_out)
    got = _conv(WindowBatch.of_windows(x), w, b)
    # the same products, added in the same order
    want = conv_flat_per_tap(x, w, b)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # one product over every row: BLAS may sum it in another order than the
    # per-window products
    assert relative_error(got.ravel(), _conv_per_tap_stacked(x, w, b).ravel()) < 1e-15


# Batches gathered from a 3-day corpus (36 windows a day): overlapping
# windows, a window drawn three times, windows from every day, and 2-step
# windows, shorter than the 5-tap kernel, whose outer taps read nothing
TABLE_CASES = {
    "overlapping": (15, [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20]),
    "repeated": (15, [3, 3, 7, 3, 20, 8]),
    "three_days": (15, [0, 40, 80, 41, 100, 2, 79]),
    "shorter_than_kernel": (2, [0, 1, 1, 40, 95, 94, 107, 0]),
}


def _gathered_case(name):
    window, indices = TABLE_CASES[name]
    ds = data.WindowDataset(data.synth_generate(3, 60 + window - 15, seed=3), window=window)
    assert ds.n_samples == 108
    batch, _ = ds.gather(np.array(indices))
    assert batch.rows.shape[0] < len(indices) * window  # the windows share rows
    return batch, gathered_windows(batch)


# At some widths (1, 2, 3 and 9 filters here: GEMV and OpenBLAS's narrow GEMM
# kernels) a row's product rounds by its place in the matrix, so the table
# and the gathered windows can differ in the last bit. At the protocol's 32
# and 256 filters every row's product is the same in both.
@pytest.mark.parametrize("filters,bitwise", [(1, False), (32, True), (256, True)])
@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_conv_forward_is_the_per_tap_reference_on_the_gathered_windows(case, filters,
                                                                             bitwise):
    batch, x = _gathered_case(case)
    rng = np.random.default_rng(filters)
    w = rng.normal(size=(5, data.N_FEATURES, filters))
    b = rng.normal(size=filters)
    got = _conv(batch, w, b)
    want = conv_flat_per_tap(x, w, b)
    if bitwise:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    else:
        assert relative_error(got, want) < 1e-15


@pytest.mark.parametrize("filters", [1, 32, 256])
@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_conv_backward_is_the_per_tap_reference_on_the_gathered_windows(case, filters):
    batch, x = _gathered_case(case)
    rng = np.random.default_rng(filters)
    w = rng.normal(size=(5, data.N_FEATURES, filters))
    # on a 2^-20 grid, where every sum of these gradients is exact: the bias
    # gradient adds the table rows' sums, the reference the positions, and
    # with exact addends the order they are added in cannot show
    d_out = np.round(rng.normal(size=x.shape[:2] + (filters,)) * 2**20) / 2**20
    d_w, d_b = _conv_backward(batch, w, d_out)
    want_w, want_b = conv_backward_per_tap(x, w, d_out)
    # each row's gradient terms are summed before the product, not inside it
    assert relative_error(d_w, want_w) < 2e-15
    assert np.array_equal(d_b, want_b)


# hand-made tables: overlapping windows, a repeated window, three disjoint
# spans, and windows shorter than the kernel
HAND_TABLES = [
    (9, [0, 1, 2, 4], 5), (8, [3, 0, 3, 3], 5), (13, [0, 5, 9, 9, 1], 4), (6, [0, 4, 3, 3], 2),
]


@pytest.mark.parametrize("n_rows,starts,n_steps", HAND_TABLES)
def test_table_conv_backward_matches_finite_differences(n_rows, starts, n_steps):
    rng = np.random.default_rng(n_rows)
    batch = WindowBatch(rng.normal(size=(n_rows, 3)), np.array(starts), n_steps)
    w = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=4)
    d_out = rng.normal(size=(len(starts), n_steps, 4))

    def val(ww, bb):
        return float(np.sum(_conv(batch, ww, bb) * d_out))

    d_w, d_b = _conv_backward(batch, w, d_out)
    fd_w = finite_diff_grad(lambda v: val(v.reshape(w.shape), b), w.copy())
    fd_b = finite_diff_grad(lambda v: val(w, v), b.copy())
    assert relative_error(d_w, fd_w) < 1e-8
    assert relative_error(d_b, fd_b) < 1e-8


@pytest.mark.parametrize("seed", [14, 15, 18, 27, 31, 36, 37])
def test_gradients_finite_when_kernel_row_sums_are_subnormal(seed):
    # unshifted Gaussian kernel values underflow until some row sums are
    # below 1e-300; each row of K is divided by its largest value, and the
    # row normalisation's gradient must not divide by the row sums either
    cfg = network.ModelConfig(d_in=12, conv_filters=16, n_codewords=10, hidden=8,
                              kernel=config.KERNEL_GAUSSIAN)
    params = network.init_params(cfg, np.random.default_rng(1))
    x = np.random.default_rng(seed).normal(size=(9, 15, 12))
    probs, ctx = network.forward_batch(x, params, cfg)
    sigma = float(params["sigma"])
    d2 = np.sum((ctx.feats[..., None, :] - params["codebook"]) ** 2, axis=-1)
    unshifted = np.exp(-d2 / (2.0 * sigma**2)) / np.sqrt(2.0 * np.pi * sigma)
    assert unshifted.sum(axis=-1).min() < 1e-300
    assert np.array_equal(ctx.bof_ctx.k_mat.max(axis=-1), np.ones(len(ctx.feats)))
    assert np.isfinite(probs).all()
    grads = network.backward_batch(ctx, np.arange(9) % 3)
    for name, g in grads.items():
        assert np.isfinite(g).all(), name


def test_param_shapes_are_the_init_params_layout():
    for overrides in ({}, {"kernel": config.KERNEL_GAUSSIAN}, {"deep_features": False},
                      {"arch": config.ARCH_CNN_GAP}):
        cfg = tiny_config(**overrides)
        params = network.init_params(cfg, np.random.default_rng(0))
        assert {k: v.shape for k, v in params.items()} == network.param_shapes(cfg)


@pytest.mark.parametrize("field,value", [
    ("d_in", 0), ("hidden", -1), ("n_regions", 0), ("avg_seq_len", 0.0), ("conv_kernel", 4),
])
def test_model_config_rejects_bad_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        tiny_config(**{field: value})


def test_softmax_xent_known_value():
    logp = network.log_softmax(np.array([2.0, 1.0, 0.0]))
    probs, loss = np.exp(logp), -logp[0]
    assert loss == pytest.approx(XENT_210_LABEL0, abs=1e-14)
    assert probs.sum() == pytest.approx(1.0)
    assert probs[0] > probs[1] > probs[2]


def test_log_softmax_handles_huge_logits():
    lp = network.log_softmax(np.array([1e4, 0.0, -1e4]))
    assert np.all(np.isfinite(lp))
    assert lp[0] == pytest.approx(0.0, abs=1e-10)


def test_table_shape_walk():
    # 15 x 144 input -> conv (15, 256) -> 3 regions x 256 codewords -> 512 -> 3
    cfg = network.ModelConfig(
        arch=config.ARCH_TLONBOF, d_in=144, conv_filters=256, conv_kernel=5,
        n_codewords=256, n_regions=3, hidden=512, n_classes=3, avg_seq_len=15.0,
    )
    params = network.init_params(cfg, np.random.default_rng(0))
    assert params["conv_w"].shape == (5, 144, 256)
    assert params["codebook"].shape == (256, 256)
    assert params["fc1_w"].shape == (768, 512)
    assert params["fc2_w"].shape == (512, 3)
    x = np.random.default_rng(1).normal(size=(1, 15, 144))
    probs, ctx = network.forward_batch(x, params, cfg)
    assert ctx.feats.shape == (15, 256) and ctx.index.shape == (1, 15)
    assert ctx.pooled.shape == (1, 768)
    assert ctx.fc1_act.shape == (1, 512)
    assert probs.shape == (1, 3)
    assert probs.sum() == pytest.approx(1.0)


def test_init_protocol_values():
    cfg = tiny_config()
    params = network.init_params(cfg, np.random.default_rng(0))
    assert float(params["alpha"]) == 1.0
    assert float(params["beta"]) == 0.0
    assert np.all(params["conv_b"] == 0)
    assert np.all(params["fc1_b"] == 0)
    # scaling combines to c_s = n_codewords, c_u = average sequence length
    assert np.exp(float(params["log_cs"])) == pytest.approx(cfg.n_codewords)
    assert np.exp(float(params["log_cu"])) == pytest.approx(cfg.avg_seq_len)


def test_init_scaling_off_is_identity():
    params = network.init_params(tiny_config(adaptive_scaling=config.SCALING_OFF),
                                 np.random.default_rng(0))
    assert float(params["log_cu"]) == 0.0
    assert float(params["log_cs"]) == 0.0


def test_init_deterministic():
    a = network.init_params(tiny_config(), np.random.default_rng(9))
    b = network.init_params(tiny_config(), np.random.default_rng(9))
    assert sorted(a) == sorted(b)
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_gaussian_config_gets_sigma_parameter():
    cfg = tiny_config(kernel=config.KERNEL_GAUSSIAN, kernel_param_learning=False)
    params = network.init_params(cfg, np.random.default_rng(0))
    assert "sigma" in params and "alpha" not in params
    assert float(params["sigma"]) > 0
    # sigma stays fixed: it is not in the trainable set
    assert "sigma" not in network.trainable_shapes(cfg)


def test_trainable_names_follow_ablation_flags():
    full = network.trainable_shapes(tiny_config())
    assert {"conv_w", "conv_b", "codebook", "fc1_w", "fc1_b", "fc2_w", "fc2_b",
            "log_cu", "log_cs", "alpha", "beta"} == set(full)
    no_kpl = network.trainable_shapes(tiny_config(kernel_param_learning=False))
    assert "alpha" not in no_kpl and "beta" not in no_kpl
    frozen = network.trainable_shapes(tiny_config(adaptive_scaling=config.SCALING_FROZEN))
    assert "log_cu" not in frozen and "log_cs" not in frozen
    shallow = network.trainable_shapes(tiny_config(deep_features=False))
    assert "conv_w" not in shallow and "conv_b" not in shallow


# every (arch, kernel, scaling, kernel-parameter learning, deep features)
# combination but GAP without deep features, which the config refuses
EVERY_FLAG_SET = [flags for flags in itertools.product(
    config.ARCH_CHOICES, config.KERNEL_CHOICES, config.SCALING_CHOICES, (False, True), (False, True))
    if flags[0] == config.ARCH_TLONBOF or flags[4]]


@pytest.mark.parametrize("arch,kernel,scaling,kpl,deep", EVERY_FLAG_SET)
def test_trainable_names_table(arch, kernel, scaling, kpl, deep):
    cfg = tiny_config(arch=arch, kernel=kernel, adaptive_scaling=scaling,
                      kernel_param_learning=kpl, deep_features=deep)
    bof = arch == config.ARCH_TLONBOF
    expected = ((["conv_w", "conv_b"] if deep else []) + (["codebook"] if bof else [])
                + ["fc1_w", "fc1_b", "fc2_w", "fc2_b"]
                + (["log_cu", "log_cs"] if bof and scaling == config.SCALING_LEARNED else [])
                + (["alpha", "beta"] if bof and kpl and kernel == config.KERNEL_LOGISTIC else []))
    assert list(network.trainable_shapes(cfg)) == expected


def test_cnn_gap_requires_deep_features():
    with pytest.raises(ValueError):
        network.ModelConfig(arch=config.ARCH_CNN_GAP, deep_features=False,
                            **{k: v for k, v in tiny_config().__dict__.items()
                               if k not in ("arch", "deep_features")})


def test_gap_pooling_is_timestep_mean():
    cfg = tiny_config(arch=config.ARCH_CNN_GAP)
    params = network.init_params(cfg, np.random.default_rng(2))
    x = np.random.default_rng(3).normal(size=(1, 6, cfg.d_in))
    _, ctx = network.forward_batch(x, params, cfg)
    assert np.allclose(ctx.pooled[0], ctx.feats[ctx.index[0]].mean(axis=0), atol=1e-15)


def test_fc2_bias_gradient_is_probs_minus_onehot():
    cfg = tiny_config()
    params, x, ctx = draw_instance(cfg, seed=0)
    probs, ctx = network.forward_batch(x[None], params, cfg)
    grads = network.backward_batch(ctx, np.array([2]))
    want = probs[0].copy()
    want[2] -= 1.0
    assert np.allclose(grads["fc2_b"], want, atol=1e-12)


@pytest.mark.parametrize("overrides", [
    {},
    {"kernel": config.KERNEL_GAUSSIAN, "kernel_param_learning": False},
    {"deep_features": False},
    {"arch": config.ARCH_CNN_GAP},
    {"nested_regions": True},
])
def test_model_gradients_match_finite_differences(overrides):
    cfg = tiny_config(**overrides)
    sigma = 1.0 if cfg.kernel == config.KERNEL_GAUSSIAN else None
    for seed in range(3):
        params, x, ctx = draw_instance(cfg, seed=seed, sigma=sigma)
        label = seed % cfg.n_classes
        grads = network.backward_batch(ctx, np.array([label]))

        def loss_of(name, flat):
            saved = params[name]
            params[name] = flat.reshape(saved.shape) if saved.ndim else np.array(float(flat))
            probs, _ = network.forward_batch(x[None], params, cfg)
            params[name] = saved
            return float(-np.log(probs[0, label]))

        for name in network.trainable_shapes(cfg):
            fd = finite_diff_grad(lambda v, n=name: loss_of(n, v), params[name].copy())
            an = np.asarray(grads[name], dtype=float)
            err = relative_error(an.ravel(), fd.ravel())
            # near-zero gradients hit the oracle's roundoff floor, so fall
            # back to an absolute bound there
            gap = float(np.linalg.norm(an.ravel() - fd.ravel()))
            assert err < 1e-6 or gap < 1e-9, f"{name}: rel {err:.2e}, abs {gap:.2e}"


@pytest.mark.parametrize("overrides", [
    {},
    {"kernel": config.KERNEL_GAUSSIAN},
    {"deep_features": False},
    {"arch": config.ARCH_CNN_GAP},
    {"nested_regions": True},
    {"adaptive_scaling": config.SCALING_OFF},
])
def test_backward_returns_one_gradient_per_parameter_but_sigma(overrides):
    # a misnamed or extra key would escape the finite-difference checks,
    # which only look up the trainable names
    cfg = tiny_config(**overrides)
    params, _, ctx = draw_instance(cfg, seed=0, sigma=1.0)
    grads = network.backward_batch(ctx, np.array([0]))
    assert grads.keys() == network.param_shapes(cfg).keys() - {"sigma"}
    for name, g in grads.items():
        assert np.shape(g) == params[name].shape, name


def test_batch_forward_matches_single_sample():
    cfg = tiny_config()
    params = network.init_params(cfg, np.random.default_rng(5))
    x = np.random.default_rng(6).normal(size=(4, 6, cfg.d_in))
    batch_probs, _ = network.forward_batch(x, params, cfg)
    for b in range(4):
        single, _ = network.forward_batch(x[b : b + 1], params, cfg)
        assert np.allclose(batch_probs[b], single[0], atol=1e-12)


def _scoring_vs_training_forward(cfg, n_steps, n_windows, seed, sigma=None):
    """forward_batch keeping no context on a run of consecutive windows against forward_batch
    keeping its context on the windows."""
    rng = np.random.default_rng(seed)
    params = network.init_params(cfg, rng)
    for name in ("conv_b", "fc1_b", "fc2_b"):  # init leaves the biases at zero
        if name in params:
            params[name] = rng.normal(scale=0.1, size=params[name].shape)
    if "beta" in params:
        params["beta"] = np.array(0.05)
    if sigma is not None:
        params["sigma"] = np.array(float(sigma))
    rows = rng.normal(size=(n_steps + n_windows - 1, cfg.d_in))
    x = rows[np.arange(n_windows)[:, None] + np.arange(n_steps)]
    want, ctx = network.forward_batch(x, params, cfg)
    got, no_ctx = network.forward_batch(WindowBatch(rows, np.arange(n_windows), n_steps), params,
                                        cfg, keep=False)
    assert no_ctx is None
    assert got.shape == (n_windows, cfg.n_classes)
    if cfg.deep_features:  # every conv row is the same sum, so the whole pass has the same bits
        assert np.array_equal(got, want)
    else:
        # the kernel's product runs over each row once, not once per window position, so BLAS
        # may round it differently in the last bit
        assert relative_error(got, want) < 1e-13
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
    return ctx


@pytest.mark.parametrize("sizes", [
    dict(d_in=144),  # the paper geometry: 256 filters, 256 codewords, 512 hidden
    dict(d_in=144, conv_filters=32, n_codewords=32, hidden=64),
])
def test_scoring_forward_matches_training_forward_at_the_protocol_geometries(sizes):
    _scoring_vs_training_forward(network.ModelConfig(**sizes), n_steps=15, n_windows=40, seed=1)


# every kernel width with windows from 1 step up to two past the kernel,
# windows shorter than the kernel included
@pytest.mark.parametrize("taps,n_steps", [(t, n) for t in (1, 3, 5, 7) for n in range(1, t + 3)])
def test_scoring_forward_matches_training_forward_for_every_tap_set(taps, n_steps):
    cfg = tiny_config(conv_kernel=taps, n_regions=min(3, n_steps))
    _scoring_vs_training_forward(cfg, n_steps, n_windows=9, seed=taps * 10 + n_steps)


@pytest.mark.parametrize("overrides", [
    {"deep_features": False},
    {"arch": config.ARCH_CNN_GAP},
    {"nested_regions": True},
    {"n_regions": 1},
    {"kernel": config.KERNEL_GAUSSIAN},
])
def test_scoring_forward_matches_training_forward_for_every_model(overrides):
    cfg = tiny_config(**overrides)
    sigma = 4.0 if cfg.kernel == config.KERNEL_GAUSSIAN else None
    ctx = _scoring_vs_training_forward(cfg, n_steps=7, n_windows=11, seed=2, sigma=sigma)
    if sigma is not None:  # a sigma whose kernel rows keep their magnitude
        assert ctx.bof_ctx.k_mat.sum(axis=-1).min() > 1e-3


def test_batch_loss_is_mean_cross_entropy():
    cfg = tiny_config()
    params = network.init_params(cfg, np.random.default_rng(7))
    x = np.random.default_rng(8).normal(size=(3, 6, cfg.d_in))
    y = np.array([0, 1, 2])
    probs, ctx = network.forward_batch(x, params, cfg)
    want = -np.mean([np.log(probs[i, y[i]]) for i in range(3)])
    assert network.batch_loss(ctx, y) == pytest.approx(want, abs=1e-12)


def test_backward_batch_rejects_bad_label():
    cfg = tiny_config()
    params = network.init_params(cfg, np.random.default_rng(7))
    _, ctx = network.forward_batch(np.random.default_rng(8).normal(size=(2, 6, cfg.d_in)),
                                   params, cfg)
    for labels in ([0, 3], [-1, 0]):
        with pytest.raises(ValueError, match="label out of range"):
            network.backward_batch(ctx, np.array(labels))


def test_gradient_descent_decreases_loss():
    # 50 plain full-batch steps on a fixed tiny problem
    cfg = tiny_config()
    params = network.init_params(cfg, np.random.default_rng(10))
    x = np.random.default_rng(11).normal(size=(8, 6, cfg.d_in))
    y = np.random.default_rng(12).integers(0, 3, size=8)
    losses = []
    for _ in range(50):
        _, ctx = network.forward_batch(x, params, cfg)
        losses.append(network.batch_loss(ctx, y))
        grads = network.backward_batch(ctx, y)
        for k in network.trainable_shapes(cfg):
            params[k] = params[k] - 0.01 * grads[k]
    assert losses[-1] < losses[0]
    assert losses[-1] < 0.9 * losses[0]


# both architectures, both kernels, the conv on and off
EVERY_MODEL = [
    {},
    {"kernel": config.KERNEL_GAUSSIAN},
    {"deep_features": False},
    {"kernel": config.KERNEL_GAUSSIAN, "deep_features": False},
    {"arch": config.ARCH_CNN_GAP},
]


def _bits(arrays: dict) -> dict:
    return {k: np.asarray(v).tobytes() for k, v in arrays.items()}


@pytest.mark.parametrize("overrides", EVERY_MODEL)
def test_in_place_activations_are_invisible(overrides):
    # the conv ReLU, the sigmoid and the ReLU mask write over buffers the
    # step owns; none may reach the input or the cached activations
    cfg = tiny_config(**overrides)
    rng = np.random.default_rng(4)
    params = network.init_params(cfg, rng)
    if "sigma" in params:
        params["sigma"] = np.array(4.0)
    x = rng.normal(size=(5, 6, cfg.d_in))
    x_bits = x.tobytes()
    _, ctx = network.forward_batch(x, params, cfg)
    assert x.tobytes() == x_bits
    feats_bits = ctx.feats.tobytes()
    labels = np.array([0, 1, 2, 0, 1])
    first = _bits(network.backward_batch(ctx, labels))
    assert ctx.feats.tobytes() == feats_bits
    assert _bits(network.backward_batch(ctx, labels)) == first


@pytest.mark.parametrize("n_steps", [6, 2])  # at 2 steps the outer taps of 5 read nothing
@pytest.mark.parametrize("overrides", EVERY_MODEL)
def test_backward_into_held_gradients_has_the_bits_of_fresh_ones(overrides, n_steps):
    cfg = tiny_config(conv_kernel=5, n_regions=min(3, n_steps), **overrides)
    rng = np.random.default_rng(8)
    params = network.init_params(cfg, rng)
    if "sigma" in params:
        params["sigma"] = np.array(4.0)
    batch = WindowBatch(rng.normal(size=(12, cfg.d_in)), np.array([0, 1, 5, 1, 6]), n_steps)
    labels = np.array([0, 1, 2, 0, 1])
    _, ctx = network.forward_batch(batch, params, cfg)
    fresh = network.backward_batch(ctx, labels)
    held = {k: np.full_like(v, np.nan) for k, v in fresh.items()}  # each value must be written
    arrays = dict(held)
    got = network.backward_batch(ctx, labels, out=held)
    assert got is held and got.keys() == fresh.keys()
    assert all(got[k] is arrays[k] for k in arrays)
    assert _bits(got) == _bits(fresh)


@pytest.mark.parametrize("overrides", EVERY_MODEL)
def test_a_step_on_a_row_table_is_the_step_on_its_windows(overrides):
    # overlapping windows and a repeated one, as a training batch gathers them
    cfg = tiny_config(**overrides)
    rng = np.random.default_rng(6)
    params = network.init_params(cfg, rng)
    if "sigma" in params:
        params["sigma"] = np.array(4.0)
    batch = WindowBatch(rng.normal(size=(12, cfg.d_in)), np.array([0, 1, 5, 1, 6]), 6)
    labels = np.array([0, 1, 2, 0, 1])
    probs, ctx = network.forward_batch(batch, params, cfg)
    want_probs, want_ctx = network.forward_batch(gathered_windows(batch), params, cfg)
    # BLAS may round a row's conv products by its place in the matrix
    assert relative_error(probs, want_probs) < 1e-14
    _assert_same_step(network.backward_batch(ctx, labels),
                      network.backward_batch(want_ctx, labels))


def _assert_same_step(grads, want):
    """Every gradient of two computations of one step within 1e-13 relative.

    A feature table sums each row's window positions before the pooling
    backward and gathered windows after it, so gradients move at rounding level.
    """
    assert grads.keys() == want.keys()
    for k in want:
        assert relative_error(grads[k], want[k]) < 1e-13, k


STEP_MODELS = EVERY_MODEL + [{"nested_regions": True}]


@pytest.mark.parametrize("overrides", STEP_MODELS)
@pytest.mark.parametrize("case", TABLE_CASES)
def test_a_step_on_a_gathered_batch_is_the_step_on_its_windows(case, overrides):
    batch, x = _gathered_case(case)
    # the acceptance geometry's widths, at which a row's products round the
    # same wherever it sits in the matrix
    cfg = network.ModelConfig(d_in=data.N_FEATURES, conv_filters=32, n_codewords=32, hidden=64,
                              n_regions=min(3, batch.window), **overrides)
    params = network.init_params(cfg, np.random.default_rng(7))
    if "sigma" in params:  # a sigma whose kernel rows keep their magnitude
        params["sigma"] = np.array(4.0)
    labels = np.arange(len(x)) % 3
    probs, ctx = network.forward_batch(batch, params, cfg)
    want_probs, want_ctx = network.forward_batch(WindowBatch.of_windows(x), params, cfg)
    assert np.array_equal(probs, want_probs)
    _assert_same_step(network.backward_batch(ctx, labels),
                      network.backward_batch(want_ctx, labels))


# the hand-made tables of the conv backward check, through every model
@pytest.mark.parametrize("overrides", STEP_MODELS)
@pytest.mark.parametrize("n_rows,starts,n_steps", HAND_TABLES)
def test_a_step_on_a_row_table_matches_finite_differences(n_rows, starts, n_steps, overrides):
    cfg = tiny_config(conv_kernel=5, n_regions=min(3, n_steps), **overrides)
    for attempt in range(50):  # reject draws with a ReLU input near its kink
        rng = np.random.default_rng(n_rows * 1000 + attempt)
        params = network.init_params(cfg, rng)
        if "sigma" in params:
            params["sigma"] = np.array(1.0)
        batch = WindowBatch(rng.normal(size=(n_rows, cfg.d_in)), np.array(starts), n_steps)
        _, ctx = network.forward_batch(batch, params, cfg)
        if relu_margin(ctx) > 1e-3:
            break
    else:
        pytest.fail("no kink-free draw")
    labels = np.arange(len(starts)) % 3
    grads = network.backward_batch(ctx, labels)

    def loss_of(name, flat):
        saved = params[name]
        params[name] = flat.reshape(saved.shape) if saved.ndim else np.array(float(flat))
        probs, _ = network.forward_batch(batch, params, cfg)
        params[name] = saved
        return float(-np.log(probs[np.arange(len(labels)), labels]).mean())

    for name in network.trainable_shapes(cfg):
        fd = finite_diff_grad(lambda v, n=name: loss_of(n, v), params[name].copy())
        an = np.asarray(grads[name], dtype=float)
        # near-zero gradients hit the oracle's roundoff floor
        gap = float(np.linalg.norm(an.ravel() - fd.ravel()))
        assert relative_error(an, fd) < 1e-6 or gap < 1e-9, name


# Traced peak of one forward + backward, counted in (B, N, K) float64 arrays
# (K = the conv width here). For 32 windows of rows of their own the feature
# table has B * N rows, and the context keeps three such arrays: the conv
# activation, K and the memberships U. At its peak either backward adds three
# more: dL/dU and a scratch in the pooling backward, or dL/dfeats and the
# conv backward's per-tap row gradients after it; the histograms and the head
# stay under one, as does the logistic kernel's d histogram / d alpha. A second
# copy of the conv output, or a scratch held into those products, takes the
# step past the bound. 32 overlapping windows of 46 rows make a table of 170
# rows, so the same step holds about a third as much.
@pytest.mark.parametrize("kernel,bound", [(config.KERNEL_LOGISTIC, 7.5),
                                          (config.KERNEL_GAUSSIAN, 7.5)])
def test_training_step_holds_one_copy_of_each_activation(kernel, bound):
    cfg = network.ModelConfig(d_in=16, conv_filters=64, n_codewords=64, hidden=16, kernel=kernel)
    rng = np.random.default_rng(0)
    params = network.init_params(cfg, rng)
    unit = 32 * 15 * cfg.n_codewords * 8
    for x, bound in ((rng.normal(size=(32, 15, cfg.d_in)), bound),
                     (WindowBatch(rng.normal(size=(46, cfg.d_in)), np.arange(32), 15), 4.0)):
        tracemalloc.start()  # traces only what the step allocates
        try:
            _, ctx = network.forward_batch(x, params, cfg)
            network.backward_batch(ctx, np.arange(32) % 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / unit < bound


# Traced peak of scoring one chunk, in the same (T, K) units: 32 windows of 46
# rows, whose feature table has 170 rows. Scoring holds the activation, K and
# U, about four units with the histograms and the head; forward_batch keeping
# its context, with the logistic kernel's dots and d histogram / d alpha for a
# backward pass, takes 6.4, and keeping the dots alone takes 5.8.
def test_scoring_a_chunk_keeps_no_dots_or_tangent():
    cfg = network.ModelConfig(d_in=16, conv_filters=64, n_codewords=64, hidden=16)
    rng = np.random.default_rng(0)
    params = network.init_params(cfg, rng)
    batch = WindowBatch(rng.normal(size=(46, cfg.d_in)), np.arange(32), 15)
    rows = len(network.conv1d_same_batch(batch, params["conv_w"], params["conv_b"])[0])
    assert rows == 170
    tracemalloc.start()  # traces only what scoring allocates
    try:
        network.forward_batch(batch, params, cfg, keep=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (rows * cfg.n_codewords * 8) < 5.0
