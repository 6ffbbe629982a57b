"""Codebook layer: segmentation, soft assignment, histograms, gradients."""

import numpy as np
import pytest
from reference import finite_diff_grad, logistic_kernel, relative_error

from tlonbof import bof, config, network
from tlonbof.bof import forward_batch, segment


def _params(codebook, c_u=1.0, c_s=1.0, alpha=1.0, beta=0.0, sigma=None):
    """The layer's entries of a model params dict; the scales are stored as their logs."""
    return {"codebook": codebook, "log_cu": np.log(c_u), "log_cs": np.log(c_s),
            "alpha": alpha, "beta": beta, "sigma": sigma}


def _cfg(kind=config.KERNEL_LOGISTIC, n_regions=3, nested=False):
    return network.ModelConfig(kernel=kind, n_regions=n_regions, nested_regions=nested)


def test_segment_fifteen_into_three():
    assert segment(15, 3) == [(0, 5), (5, 10), (10, 15)]


def test_segment_remainder_goes_to_oldest():
    # recent regions get floor(n / regions), the oldest absorbs the rest
    assert segment(16, 3) == [(0, 6), (6, 11), (11, 16)]
    assert segment(17, 3) == [(0, 7), (7, 12), (12, 17)]
    assert segment(7, 3) == [(0, 3), (3, 5), (5, 7)]


def test_segment_single_region_and_errors():
    assert segment(10, 1) == [(0, 10)]
    with pytest.raises(ValueError):
        segment(2, 3)
    with pytest.raises(ValueError):
        segment(5, 0)


def test_segment_nested_regions_share_endpoint():
    regions = segment(15, 3, nested=True)
    assert regions == [(0, 15), (5, 15), (10, 15)]


def test_segment_covers_everything_once():
    for n in range(3, 40):
        regions = segment(n, 3)
        assert regions[0][0] == 0 and regions[-1][1] == n
        for (a, b), (c, d) in zip(regions, regions[1:]):
            assert b == c and b > a and d > c


def test_soft_assign_rows_sum_to_cu():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(9, 4))
    codebook = rng.normal(size=(5, 4))
    _, ctx = forward_batch(feats[None], _params(codebook, c_u=7.5, c_s=2.0), _cfg(n_regions=3))
    u = ctx.memberships[0]
    assert u.shape == (9, 5)
    assert np.allclose(u.sum(axis=1), 7.5, rtol=1e-12)
    assert np.all(u >= 0)


def test_soft_assign_single_codeword_saturates():
    # with one codeword the normalization forces every row to c_u exactly
    rng = np.random.default_rng(1)
    _, ctx = forward_batch(rng.normal(size=(1, 6, 3)), _params(rng.normal(size=(1, 3)), c_u=3.0),
                           _cfg(n_regions=1))
    assert np.allclose(ctx.memberships, 3.0, rtol=1e-15)


def test_accumulate_is_scaled_column_mean():
    # logistic kernel values (1/4, 3/4), (3/4, 1/4) and (1/2, 1/2) against
    # two unit codewords give memberships [[1, 3], [3, 1], [2, 2]] at c_u = 4
    ln3 = np.log(3.0)
    feats = np.array([[[-ln3, ln3], [ln3, -ln3], [0.0, 0.0]]])
    s, ctx = forward_batch(feats, _params(np.eye(2), c_u=4.0, c_s=5.0, alpha=0.5),
                           _cfg(n_regions=1))
    assert np.allclose(ctx.memberships[0], [[1.0, 3.0], [3.0, 1.0], [2.0, 2.0]])
    assert np.allclose(s[0], [10.0, 10.0])
    assert s.sum() == pytest.approx(5.0 * 4.0)  # c_s * c_u


def _random_case(seed, n=9, d=4, k=5, kind=config.KERNEL_LOGISTIC, nt=3, nested=False):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    codebook = rng.normal(size=(k, d))
    alpha, beta = 0.5 + rng.uniform(0.0, 1.0), 0.3 * rng.normal()
    sigma = 0.8 + rng.uniform(0.0, 1.0)
    c_u, c_s = 0.5 + 2 * rng.uniform(0.0, 1.0), 0.5 + 2 * rng.uniform(0.0, 1.0)
    params = _params(codebook, c_u=c_u, c_s=c_s, alpha=alpha, beta=beta, sigma=sigma)
    return feats, params, _cfg(kind, nt, nested)


def _scales(params):
    """c_u and c_s as the layer computes them from their logs."""
    return float(np.exp(params["log_cu"])), float(np.exp(params["log_cs"]))


def test_histogram_mass_conservation():
    # every region segment sums to c_s * c_u, for both kernels
    for seed in range(50):
        kind = config.KERNEL_LOGISTIC if seed % 2 else config.KERNEL_GAUSSIAN
        feats, params, cfg = _random_case(seed, kind=kind)
        cb, nt = params["codebook"], cfg.n_regions
        c_u, c_s = _scales(params)
        hist, _ = forward_batch(feats[None], params, cfg)
        assert hist.shape == (1, nt * cb.shape[0])
        for r in range(nt):
            seg = hist[0, r * cb.shape[0] : (r + 1) * cb.shape[0]]
            assert abs(seg.sum() - c_s * c_u) / (c_s * c_u) < 1e-9


def test_brute_force_oracle():
    """Compare against a direct per-element transcription of the math."""
    for seed in range(30):
        feats, params, cfg = _random_case(seed)
        cb, nt = params["codebook"], cfg.n_regions
        c_u, c_s = _scales(params)
        n, k = feats.shape[0], cb.shape[0]
        hist, _ = forward_batch(feats[None], params, cfg)
        regions = segment(n, nt)
        expected = []
        for start, stop in reversed(regions):  # newest first in the output
            block = feats[start:stop]
            u = np.zeros((len(block), k))
            for j, x in enumerate(block):
                sims = np.array([
                    logistic_kernel(x, cb[m], params["alpha"], params["beta"])
                    for m in range(k)
                ])
                u[j] = c_u * sims / sims.sum()
            expected.append(c_s * u.mean(axis=0))
        assert relative_error(hist[0], np.concatenate(expected)) < 1e-12


def test_output_order_is_newest_region_first():
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(9, 3))
    cb = rng.normal(size=(4, 3))
    hist, _ = forward_batch(feats[None], _params(cb), _cfg(n_regions=3))
    solo, _ = forward_batch(feats[None, 6:9], _params(cb), _cfg(n_regions=1))
    assert np.array_equal(hist[0, :4], solo[0])


def test_within_region_permutation_invariance():
    # histograms average over timesteps, so shuffling inside a region is free
    for seed in range(100):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(9, 4))
        cb = rng.normal(size=(5, 4))
        params = _params(cb, c_u=1.7, c_s=2.2)
        base, _ = forward_batch(feats[None], params, _cfg(n_regions=3))
        shuffled = feats.copy()
        for start, stop in segment(9, 3):
            shuffled[start:stop] = shuffled[start:stop][rng.permutation(stop - start)]
        out, _ = forward_batch(shuffled[None], params, _cfg(n_regions=3))
        assert np.array_equal(base, out)  # bit-identical, same additions


def test_cross_region_swap_changes_output():
    changed = 0
    for seed in range(100):
        rng = np.random.default_rng(seed + 500)
        feats = rng.normal(size=(9, 4))
        cb = rng.normal(size=(5, 4))
        base, _ = forward_batch(feats[None], _params(cb), _cfg(n_regions=3))
        swapped = feats.copy()
        swapped[[0, 8]] = swapped[[8, 0]]  # oldest <-> newest region
        out, _ = forward_batch(swapped[None], _params(cb), _cfg(n_regions=3))
        if not np.array_equal(base, out):
            changed += 1
    assert changed == 100


def test_classical_bof_degeneracy():
    """c_u = c_s = 1, Gaussian kernel, one region: the plain histogram model."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(7, 3))
        cb = rng.normal(size=(4, 3))
        sigma = 0.7 + rng.uniform(0.0, 1.0)
        hist, _ = forward_batch(feats[None], _params(cb, sigma=sigma),
                                _cfg(config.KERNEL_GAUSSIAN, n_regions=1))
        # direct transcription: normalized Gaussian memberships, then average
        prefactor = 1.0 / np.sqrt(2.0 * np.pi * sigma)
        expected = np.zeros(4)
        for x in feats:
            d2 = np.sum((cb - x) ** 2, axis=1)
            kvals = prefactor * np.exp(-d2 / (2.0 * sigma**2))
            expected += kvals / kvals.sum()
        expected /= len(feats)
        assert np.max(np.abs(hist[0] - expected)) < 1e-12


def test_batch_forward_matches_single():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 9, 4))
    cb = rng.normal(size=(6, 4))
    params = _params(cb, c_u=2.0, c_s=3.0, alpha=0.9, beta=0.1)
    batch, _ = forward_batch(x, params, _cfg(n_regions=3))
    for b in range(5):
        single, _ = forward_batch(x[b : b + 1], params, _cfg(n_regions=3))
        assert np.array_equal(batch[b], single[0])


@pytest.mark.parametrize("kind,nt,nested", [
    (config.KERNEL_LOGISTIC, 3, False),
    (config.KERNEL_LOGISTIC, 1, False),
    (config.KERNEL_LOGISTIC, 3, True),
    (config.KERNEL_GAUSSIAN, 3, False),
    (config.KERNEL_GAUSSIAN, 1, False),
])
def test_backward_matches_finite_differences(kind, nt, nested):
    for seed in range(10):
        feats, params, cfg = _random_case(seed, kind=kind, nt=nt, nested=nested)
        rng = np.random.default_rng(seed + 999)
        upstream = rng.normal(size=nt * params["codebook"].shape[0])

        def value(f, **entries):
            h, _ = forward_batch(f[None], {**params, **entries}, cfg)
            return float(h[0] @ upstream)

        _, ctx = forward_batch(feats[None], params, cfg)
        d_feats, g = bof.backward(ctx, upstream[None])

        fd_f = finite_diff_grad(lambda v: value(v.reshape(feats.shape)), feats.copy())
        assert relative_error(d_feats[0].ravel(), fd_f.ravel()) < 1e-7
        # the scales' gradients are taken in log space, as the model stores them
        names = ["codebook", "log_cu", "log_cs"]
        if kind == config.KERNEL_LOGISTIC:
            names += ["alpha", "beta"]
        assert sorted(g) == sorted(names)
        for name in names:
            start = np.array(params[name], dtype=np.float64)
            fd = finite_diff_grad(lambda v, n=name: value(feats, **{n: v}), start)
            assert relative_error(g[name].ravel(), fd.ravel()) < 1e-7, name


def test_zero_row_sum_raises():
    # force underflow: features far from the single far-away codeword, whose
    # logistic kernel value sigm(2 * -20000) is 0
    feats = np.full((3, 2), 100.0)
    cb = np.full((1, 2), -100.0)
    with pytest.raises(bof.NumericError):
        forward_batch(feats[None], _params(cb), _cfg(config.KERNEL_LOGISTIC, n_regions=1))
    # a Gaussian row is divided by its largest value, so it holds a 1 where
    # the unshifted value exp(-80000 / (2 * 0.01**2)) is 0
    hist, ctx = forward_batch(feats[None], _params(cb, sigma=0.01),
                              _cfg(config.KERNEL_GAUSSIAN, n_regions=1))
    assert np.array_equal(ctx.k_mat, np.ones((1, 3, 1)))
    assert np.isfinite(hist).all()


# ties, both zeros, subnormals, values next to 1 and ordinary draws
REGION_VALUES = np.array([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5,
                          1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, -1.0, 3.0, 1e300])


@pytest.mark.parametrize("width", range(1, 17))
def test_sorting_network_sorts_every_zero_one_input(width):
    # a compare-exchange network sorts every input iff it sorts every 0-1 input
    rows = (np.arange(2**width)[:, None] >> np.arange(width)) & 1
    for i, j in bof._sorting_network(width):
        rows[:, i], rows[:, j] = np.minimum(rows[:, i], rows[:, j]), np.maximum(rows[:, i], rows[:, j])
    assert np.array_equal(rows, np.sort(rows, axis=1))


# widths 5 (the paper's 15-step windows in 3 regions) and 15 (one region)
@pytest.mark.parametrize("width", range(1, 17))
def test_region_mean_is_bitwise_sort_then_mean(width):
    rng = np.random.default_rng(width)
    pool = np.concatenate([REGION_VALUES, rng.uniform(0.0, 2.0, size=8)])
    for _ in range(20):
        # a strided region inside a longer window, as forward_batch slices it
        window = rng.choice(pool, size=(4, width + 3, 64))
        block = window[:, 2 : 2 + width, :]
        want = np.sort(block, axis=1).mean(axis=1)
        got = bof._region_mean(block.swapaxes(0, 1))  # the region's (4, 64) timesteps
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("kind", [config.KERNEL_LOGISTIC, config.KERNEL_GAUSSIAN])
def test_backward_matches_the_stacked_form(kind, monkeypatch):
    # paper geometry: 15-step windows, 256 features, 256 codewords
    rng = np.random.default_rng(8)
    feats = np.maximum(rng.normal(size=(6, 15, 256)), 0.0)
    cb = rng.normal(size=(256, 256))
    params = _params(cb, c_u=15.0, c_s=256.0, alpha=0.03, beta=-0.2, sigma=12.0)
    upstream = rng.normal(size=(6, 3 * 256))
    _, ctx = forward_batch(feats, params, _cfg(kind, n_regions=3))
    got_feats, got = bof.backward(ctx, upstream)
    # the form before flattening: numpy's stacked product, one GEMM per window
    monkeypatch.setattr(bof, "rows_matmul", np.matmul)
    _, ctx = forward_batch(feats, params, _cfg(kind, n_regions=3))
    want_feats, want = bof.backward(ctx, upstream)
    # no kernel slope or offset for the Gaussian kernel
    assert got.keys() == want.keys()
    for name, a, b in [("feats", got_feats, want_feats)] + [(k, got[k], want[k]) for k in got]:
        # BLAS may round the flattened products differently in the last bit,
        # and the scalar gradients sum thousands of such terms of both signs
        assert relative_error(a, b) < 1e-13, name
