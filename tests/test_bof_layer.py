"""Codebook layer: segmentation, soft assignment, histograms, gradients."""

import numpy as np
import pytest

from tlonbof import bof, kernels
from tlonbof.bof import ScalingParams, forward_batch, segment
from tlonbof.core import finite_diff_grad, relative_error
from tlonbof.kernels import KernelParams


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
    sp = ScalingParams(c_u=7.5, c_s=2.0)
    _, ctx = forward_batch(feats[None], codebook, kernels.LOGISTIC, KernelParams(), sp, n_regions=3)
    u = ctx.memberships[0]
    assert u.shape == (9, 5)
    assert np.allclose(u.sum(axis=1), 7.5, rtol=1e-12)
    assert np.all(u >= 0)


def test_soft_assign_single_codeword_saturates():
    # with one codeword the normalization forces every row to c_u exactly
    rng = np.random.default_rng(1)
    _, ctx = forward_batch(rng.normal(size=(1, 6, 3)), rng.normal(size=(1, 3)),
                           kernels.LOGISTIC, KernelParams(), ScalingParams(c_u=3.0), n_regions=1)
    assert np.allclose(ctx.memberships, 3.0, rtol=1e-15)


def test_accumulate_is_scaled_column_mean():
    # logistic kernel values (1/4, 3/4), (3/4, 1/4) and (1/2, 1/2) against
    # two unit codewords give memberships [[1, 3], [3, 1], [2, 2]] at c_u = 4
    ln3 = np.log(3.0)
    feats = np.array([[[-ln3, ln3], [ln3, -ln3], [0.0, 0.0]]])
    s, ctx = forward_batch(feats, np.eye(2), kernels.LOGISTIC, KernelParams(alpha=0.5),
                           ScalingParams(c_u=4.0, c_s=5.0), n_regions=1)
    assert np.allclose(ctx.memberships[0], [[1.0, 3.0], [3.0, 1.0], [2.0, 2.0]])
    assert np.allclose(s[0], [10.0, 10.0])
    assert s.sum() == pytest.approx(5.0 * 4.0)  # c_s * c_u


def _random_case(seed, n=9, d=4, k=5, kind=kernels.LOGISTIC, nt=3, nested=False):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, d))
    codebook = rng.normal(size=(k, d))
    kp = KernelParams(alpha=0.5 + rng.uniform(0.0, 1.0), beta=0.3 * rng.normal(),
                      sigma=0.8 + rng.uniform(0.0, 1.0))
    sp = ScalingParams(c_u=0.5 + 2 * rng.uniform(0.0, 1.0), c_s=0.5 + 2 * rng.uniform(0.0, 1.0))
    return feats, codebook, kind, kp, sp, nt, nested


def test_histogram_mass_conservation():
    # every region segment sums to c_s * c_u, for both kernels
    for seed in range(50):
        kind = kernels.LOGISTIC if seed % 2 else kernels.GAUSSIAN
        feats, cb, kind, kp, sp, nt, nested = _random_case(seed, kind=kind)
        hist, _ = forward_batch(feats[None], cb, kind, kp, sp, n_regions=nt)
        assert hist.shape == (1, nt * cb.shape[0])
        for r in range(nt):
            seg = hist[0, r * cb.shape[0] : (r + 1) * cb.shape[0]]
            assert abs(seg.sum() - sp.c_s * sp.c_u) / (sp.c_s * sp.c_u) < 1e-9


def test_brute_force_oracle():
    """Compare against a direct per-element transcription of the math."""
    for seed in range(30):
        feats, cb, kind, kp, sp, nt, _ = _random_case(seed)
        n, k = feats.shape[0], cb.shape[0]
        hist, _ = forward_batch(feats[None], cb, kind, kp, sp, n_regions=nt)
        regions = segment(n, nt)
        expected = []
        for start, stop in reversed(regions):  # newest first in the output
            block = feats[start:stop]
            u = np.zeros((len(block), k))
            for j, x in enumerate(block):
                sims = np.array([
                    kernels.logistic_kernel(x, cb[m], kp) for m in range(k)
                ])
                u[j] = sp.c_u * sims / sims.sum()
            expected.append(sp.c_s * u.mean(axis=0))
        assert relative_error(hist[0], np.concatenate(expected)) < 1e-12


def test_output_order_is_newest_region_first():
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(9, 3))
    cb = rng.normal(size=(4, 3))
    sp = ScalingParams()
    hist, _ = forward_batch(feats[None], cb, kernels.LOGISTIC, KernelParams(), sp, n_regions=3)
    solo, _ = forward_batch(feats[None, 6:9], cb, kernels.LOGISTIC, KernelParams(), sp, n_regions=1)
    assert np.array_equal(hist[0, :4], solo[0])


def test_within_region_permutation_invariance():
    # histograms average over timesteps, so shuffling inside a region is free
    for seed in range(100):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(9, 4))
        cb = rng.normal(size=(5, 4))
        sp = ScalingParams(c_u=1.7, c_s=2.2)
        base, _ = forward_batch(feats[None], cb, kernels.LOGISTIC, KernelParams(), sp, n_regions=3)
        shuffled = feats.copy()
        for start, stop in segment(9, 3):
            shuffled[start:stop] = shuffled[start:stop][rng.permutation(stop - start)]
        out, _ = forward_batch(shuffled[None], cb, kernels.LOGISTIC, KernelParams(), sp, n_regions=3)
        assert np.array_equal(base, out)  # bit-identical, same additions


def test_cross_region_swap_changes_output():
    changed = 0
    for seed in range(100):
        rng = np.random.default_rng(seed + 500)
        feats = rng.normal(size=(9, 4))
        cb = rng.normal(size=(5, 4))
        sp = ScalingParams()
        base, _ = forward_batch(feats[None], cb, kernels.LOGISTIC, KernelParams(), sp, n_regions=3)
        swapped = feats.copy()
        swapped[[0, 8]] = swapped[[8, 0]]  # oldest <-> newest region
        out, _ = forward_batch(swapped[None], cb, kernels.LOGISTIC, KernelParams(), sp, n_regions=3)
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
        hist, _ = forward_batch(feats[None], cb, kernels.GAUSSIAN, KernelParams(sigma=sigma),
                                ScalingParams(), n_regions=1)
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
    kp = KernelParams(alpha=0.9, beta=0.1)
    sp = ScalingParams(c_u=2.0, c_s=3.0)
    batch, _ = forward_batch(x, cb, kernels.LOGISTIC, kp, sp, n_regions=3)
    for b in range(5):
        single, _ = forward_batch(x[b : b + 1], cb, kernels.LOGISTIC, kp, sp, n_regions=3)
        assert np.array_equal(batch[b], single[0])


@pytest.mark.parametrize("kind,nt,nested", [
    (kernels.LOGISTIC, 3, False),
    (kernels.LOGISTIC, 1, False),
    (kernels.LOGISTIC, 3, True),
    (kernels.GAUSSIAN, 3, False),
    (kernels.GAUSSIAN, 1, False),
])
def test_backward_matches_finite_differences(kind, nt, nested):
    for seed in range(10):
        feats, cb, kind_, kp, sp, _, _ = _random_case(seed, kind=kind)
        rng = np.random.default_rng(seed + 999)
        upstream = rng.normal(size=nt * cb.shape[0])

        def value(f, c, cu, cs):
            spx = ScalingParams(c_u=float(cu), c_s=float(cs))
            h, _ = forward_batch(f[None], c, kind, kp, spx, n_regions=nt, nested=nested)
            return float(h[0] @ upstream)

        _, ctx = forward_batch(feats[None], cb, kind, kp, sp, n_regions=nt, nested=nested)
        g = bof.backward(ctx, upstream[None])

        fd_f = finite_diff_grad(
            lambda v: value(v.reshape(feats.shape), cb, sp.c_u, sp.c_s), feats.copy()
        )
        fd_c = finite_diff_grad(
            lambda v: value(feats, v.reshape(cb.shape), sp.c_u, sp.c_s), cb.copy()
        )
        fd_cu = finite_diff_grad(
            lambda v: value(feats, cb, float(v), sp.c_s), np.array(sp.c_u)
        )
        fd_cs = finite_diff_grad(
            lambda v: value(feats, cb, sp.c_u, float(v)), np.array(sp.c_s)
        )
        assert relative_error(g.feats[0].ravel(), fd_f.ravel()) < 1e-7
        assert relative_error(g.codebook.ravel(), fd_c.ravel()) < 1e-7
        assert relative_error(np.atleast_1d(g.c_u), np.atleast_1d(fd_cu)) < 1e-7
        assert relative_error(np.atleast_1d(g.c_s), np.atleast_1d(fd_cs)) < 1e-7
        if kind == kernels.LOGISTIC:
            def value_ab(a, b):
                kpx = KernelParams(alpha=float(a), beta=float(b), sigma=kp.sigma)
                h, _ = forward_batch(feats[None], cb, kind, kpx, sp, n_regions=nt, nested=nested)
                return float(h[0] @ upstream)

            fd_a = finite_diff_grad(lambda v: value_ab(float(v), kp.beta), np.array(kp.alpha))
            fd_b = finite_diff_grad(lambda v: value_ab(kp.alpha, float(v)), np.array(kp.beta))
            assert relative_error(np.atleast_1d(g.alpha), np.atleast_1d(fd_a)) < 1e-7
            assert relative_error(np.atleast_1d(g.beta), np.atleast_1d(fd_b)) < 1e-7


def test_zero_row_sum_raises():
    # force underflow: features far from the single far-away codeword
    feats = np.full((3, 2), 100.0)
    cb = np.full((1, 2), -100.0)
    with pytest.raises(bof.NumericError):
        forward_batch(feats[None], cb, kernels.GAUSSIAN, KernelParams(sigma=0.01),
                      ScalingParams(), n_regions=1)


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


@pytest.mark.parametrize("kind", [kernels.LOGISTIC, kernels.GAUSSIAN])
def test_backward_matches_the_stacked_form(kind, monkeypatch):
    # paper geometry: 15-step windows, 256 features, 256 codewords
    rng = np.random.default_rng(8)
    feats = np.maximum(rng.normal(size=(6, 15, 256)), 0.0)
    cb = rng.normal(size=(256, 256))
    kp = KernelParams(alpha=0.03, beta=-0.2, sigma=12.0)
    sp = ScalingParams(c_u=15.0, c_s=256.0)
    upstream = rng.normal(size=(6, 3 * 256))
    _, ctx = forward_batch(feats, cb, kind, kp, sp, n_regions=3)
    got = bof.backward(ctx, upstream)
    # the form before flattening: numpy's stacked product, one GEMM per window
    monkeypatch.setattr(bof, "rows_matmul", np.matmul)
    _, ctx = forward_batch(feats, cb, kind, kp, sp, n_regions=3)
    want = bof.backward(ctx, upstream)
    for name in ("feats", "codebook", "c_u", "c_s", "alpha", "beta"):
        a, b = getattr(got, name), getattr(want, name)
        if a is None:  # no kernel slope or offset for the Gaussian kernel
            assert b is None
            continue
        # BLAS may round the flattened products differently in the last bit,
        # and the scalar gradients sum thousands of such terms of both signs
        assert relative_error(a, b) < 1e-13, name
