import numpy as np
import pytest
from reference import gaussian_kernel, logistic_kernel, relative_error

from tlonbof import bof, config, kernels

SIGM_2 = 0.8807970779778823  # 1 / (1 + e^-2)
GAUSS_PEAK = 0.3989422804014327  # 1 / sqrt(2*pi), sigma = 1
GAUSS_D2_2 = 0.14676266317373993  # peak * exp(-1)


def test_logistic_known_value():
    x = np.array([1.0, 0.0])
    v = np.array([1.0, 0.0])
    assert logistic_kernel(x, v) == pytest.approx(SIGM_2, abs=1e-15)


def test_logistic_equals_shifted_tanh():
    # sigm(2z) and (tanh(z) + 1) / 2 are the same function
    rng = np.random.default_rng(0)
    alpha, beta = 0.7, -0.3
    for _ in range(200):
        x, v = rng.normal(size=3), rng.normal(size=3)
        z = alpha * float(x @ v) + beta
        assert logistic_kernel(x, v, alpha, beta) == pytest.approx(
            0.5 * (np.tanh(z) + 1.0), abs=1e-12
        )


def test_logistic_range_and_extremes():
    big = np.array([1e4]), np.array([1e4])
    small = np.array([1e4]), np.array([-1e4])
    assert logistic_kernel(*big) == pytest.approx(1.0)
    assert logistic_kernel(*small) == pytest.approx(0.0)
    # extreme negative input must not overflow in exp
    assert np.isfinite(kernels.sigmoid(np.array([-1e6, 1e6]))).all()


def test_gaussian_known_values():
    x = np.array([0.5, 0.5])
    assert gaussian_kernel(x, x, sigma=1.0) == pytest.approx(GAUSS_PEAK, abs=1e-15)
    v = x + np.array([1.0, 1.0])  # squared distance 2
    assert gaussian_kernel(x, v, sigma=1.0) == pytest.approx(GAUSS_D2_2, abs=1e-15)


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_kernel(np.ones(2), np.ones(2), sigma=0.0)


def test_matrix_forms_match_scalar_kernels():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(6, 3))
    codebook = rng.normal(size=(4, 3))
    params = {"codebook": codebook, "alpha": 0.8, "beta": 0.1}
    lm = bof._kernel_matrix(feats, params, config.KERNEL_LOGISTIC)
    gm = kernels.gaussian_matrix(feats, codebook, sigma=0.9)
    for i in range(6):
        for k in range(4):
            assert lm[i, k] == pytest.approx(
                logistic_kernel(feats[i], codebook[k], alpha=0.8, beta=0.1), abs=1e-12
            )
        # the matrix divides each row by its largest value, the prefactor with it
        row = [gaussian_kernel(feats[i], codebook[k], sigma=0.9) for k in range(4)]
        for k in range(4):
            assert gm[i, k] == pytest.approx(row[k] / max(row), abs=1e-12)


def test_default_sigma_scales_with_codebook_spread():
    rng = np.random.default_rng(2)
    cb = rng.normal(size=(5, 3))
    s1 = kernels.default_sigma(cb)
    s2 = kernels.default_sigma(3.0 * cb)
    assert s1 > 0
    assert s2 == pytest.approx(3.0 * s1, rel=1e-12)


def _masked_sigmoid(z):
    # the boolean-mask form the package used before; kept as the bitwise reference
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bitwise_the_masked_form():
    edges = np.array([0.0, 1e-300, 37.0, 40.0, 700.0, 745.0, 800.0, np.inf])
    rng = np.random.default_rng(11)
    z = np.concatenate([edges, -edges, rng.normal(scale=40.0, size=100_000)])
    got, want = kernels.sigmoid(z), _masked_sigmoid(z)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for scalar in (-700.0, np.float64(-0.0), np.array(3.0)):
        assert type(kernels.sigmoid(scalar)) is float
    # (tanh(z/2) + 1) / 2 is already exactly 0 here
    assert kernels.sigmoid(-700.0) > 0.0
    assert np.isnan(kernels.sigmoid(np.array([np.nan, -np.nan]))).all()


def _stacked_kernel_matrix(feats, params, kind):
    # the kernel matrices as the package built them before, from the stacked
    # product feats @ codebook.T (one small GEMM per window)
    codebook = params["codebook"]
    dots = feats @ codebook.T
    if kind == config.KERNEL_LOGISTIC:
        return kernels.sigmoid(2.0 * params["alpha"] * dots + 2.0 * params["beta"])
    sigma = params["sigma"]
    sq = np.sum(feats**2, axis=-1)[..., None] - 2.0 * dots + np.sum(codebook**2, axis=-1)
    np.maximum(sq, 0.0, out=sq)
    # the log kernel, shifted by its row maximum
    log_k = -sq / (2.0 * sigma**2)
    return np.exp(log_k - log_k.max(axis=-1, keepdims=True))


# (batch, steps, dim, codewords): the paper's geometry, windows of one and
# two steps, and a narrow codebook. The flattened product sums each dot
# product in whatever order BLAS picks for the larger matrix, so it matches
# the stacked products to rounding, not bit for bit: numpy ran a one-step
# window's stacked product through GEMV, and OpenBLAS picks its GEMM kernel
# by matrix size.
PRODUCT_SHAPES = [
    (1, 1, 256, 256), (1, 15, 256, 256), (6, 5, 256, 256), (6, 15, 256, 256),
    (6, 15, 144, 256), (128, 15, 256, 256), (6, 1, 256, 256), (6, 2, 256, 256),
    (6, 15, 32, 20),
]


@pytest.mark.parametrize("kind", [config.KERNEL_LOGISTIC, config.KERNEL_GAUSSIAN])
@pytest.mark.parametrize("batch,n_steps,dim,n_codewords", PRODUCT_SHAPES)
def test_kernel_matrices_match_the_stacked_products(kind, batch, n_steps, dim, n_codewords):
    rng = np.random.default_rng(batch * 100 + n_steps)
    feats = np.maximum(rng.normal(size=(batch, n_steps, dim)), 0.0)
    codebook = rng.normal(size=(n_codewords, dim))
    params = {"codebook": codebook, "alpha": 0.03, "beta": -0.2, "sigma": 12.0}
    got = bof._kernel_matrix(feats, params, kind)
    want = _stacked_kernel_matrix(feats, params, kind)
    assert relative_error(got.ravel(), want.ravel()) < 1e-15
