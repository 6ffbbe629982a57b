import numpy as np
import pytest

from tlonbof import bof, kernels
from tlonbof.kernels import KernelParams

SIGM_2 = 0.8807970779778823  # 1 / (1 + e^-2)
GAUSS_PEAK = 0.3989422804014327  # 1 / sqrt(2*pi), sigma = 1
GAUSS_D2_2 = 0.14676266317373993  # peak * exp(-1)


def test_logistic_known_value():
    x = np.array([1.0, 0.0])
    v = np.array([1.0, 0.0])
    assert kernels.logistic_kernel(x, v, KernelParams()) == pytest.approx(SIGM_2, abs=1e-15)


def test_logistic_equals_shifted_tanh():
    # sigm(2z) and (tanh(z) + 1) / 2 are the same function
    rng = np.random.default_rng(0)
    p = KernelParams(alpha=0.7, beta=-0.3)
    for _ in range(200):
        x, v = rng.normal(size=3), rng.normal(size=3)
        z = p.alpha * float(x @ v) + p.beta
        assert kernels.logistic_kernel(x, v, p) == pytest.approx(
            0.5 * (np.tanh(z) + 1.0), abs=1e-12
        )


def test_logistic_range_and_extremes():
    p = KernelParams()
    big = np.array([1e4]), np.array([1e4])
    small = np.array([1e4]), np.array([-1e4])
    assert kernels.logistic_kernel(*big, p) == pytest.approx(1.0)
    assert kernels.logistic_kernel(*small, p) == pytest.approx(0.0)
    # extreme negative input must not overflow in exp
    assert np.isfinite(kernels.sigmoid(np.array([-1e6, 1e6]))).all()


def test_gaussian_known_values():
    p = KernelParams(sigma=1.0)
    x = np.array([0.5, 0.5])
    assert kernels.gaussian_kernel(x, x, p) == pytest.approx(GAUSS_PEAK, abs=1e-15)
    v = x + np.array([1.0, 1.0])  # squared distance 2
    assert kernels.gaussian_kernel(x, v, p) == pytest.approx(GAUSS_D2_2, abs=1e-15)


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(ValueError):
        kernels.gaussian_kernel(np.ones(2), np.ones(2), KernelParams(sigma=0.0))


def test_matrix_forms_match_scalar_kernels():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(6, 3))
    codebook = rng.normal(size=(4, 3))
    lm = bof._kernel_matrix(feats, codebook, kernels.LOGISTIC, KernelParams(alpha=0.8, beta=0.1))
    gm = kernels.gaussian_matrix(feats, codebook, sigma=0.9)
    pl = KernelParams(alpha=0.8, beta=0.1)
    pg = KernelParams(sigma=0.9)
    for i in range(6):
        for k in range(4):
            assert lm[i, k] == pytest.approx(
                kernels.logistic_kernel(feats[i], codebook[k], pl), abs=1e-12
            )
            assert gm[i, k] == pytest.approx(
                kernels.gaussian_kernel(feats[i], codebook[k], pg), abs=1e-12
            )


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
