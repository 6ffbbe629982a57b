import numpy as np
import pytest

from tlonbof import bof, kernels
from tlonbof.core import Rng, finite_diff_grad, relative_error
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
    rng = Rng.from_seed(0)
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


@pytest.mark.parametrize("kind", [kernels.LOGISTIC, kernels.GAUSSIAN])
def test_kernel_backward_matches_finite_differences(kind):
    for seed in range(100):
        rng = Rng.from_seed(seed)
        x, v = rng.normal(size=4), rng.normal(size=4)
        p = KernelParams(
            alpha=0.5 + rng.uniform(0.0, 1.0), beta=rng.normal(), sigma=0.5 + rng.uniform(0.0, 1.0)
        )
        g = kernels.kernel_backward(kind, x, v, p)

        fd_x = finite_diff_grad(lambda xx: float(_eval(kind, xx, v, p)), x.copy())
        fd_v = finite_diff_grad(lambda vv: float(_eval(kind, x, vv, p)), v.copy())
        assert relative_error(g.x, fd_x) < 1e-6
        assert relative_error(g.v, fd_v) < 1e-6
        if kind == kernels.LOGISTIC:
            fd_a = finite_diff_grad(
                lambda a: float(_eval(kind, x, v, KernelParams(float(a), p.beta, p.sigma))),
                np.array(p.alpha),
            )
            fd_b = finite_diff_grad(
                lambda b: float(_eval(kind, x, v, KernelParams(p.alpha, float(b), p.sigma))),
                np.array(p.beta),
            )
            assert relative_error(np.atleast_1d(g.alpha), np.atleast_1d(fd_a)) < 1e-6
            assert relative_error(np.atleast_1d(g.beta), np.atleast_1d(fd_b)) < 1e-6
        else:
            fd_s = finite_diff_grad(
                lambda s: float(_eval(kind, x, v, KernelParams(p.alpha, p.beta, float(s)))),
                np.array(p.sigma),
            )
            assert relative_error(np.atleast_1d(g.sigma), np.atleast_1d(fd_s)) < 1e-6


def _eval(kind, x, v, p):
    if kind == kernels.LOGISTIC:
        return kernels.logistic_kernel(x, v, p)
    return kernels.gaussian_kernel(x, v, p)


def test_matrix_forms_match_scalar_kernels():
    rng = Rng.from_seed(5)
    feats = rng.normal(size=(6, 3))
    codebook = rng.normal(size=(4, 3))
    lm, _ = bof._kernel_matrix(feats, codebook, kernels.LOGISTIC, KernelParams(alpha=0.8, beta=0.1))
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
    rng = Rng.from_seed(2)
    cb = rng.normal(size=(5, 3))
    s1 = kernels.default_sigma(cb)
    s2 = kernels.default_sigma(3.0 * cb)
    assert s1 > 0
    assert s2 == pytest.approx(3.0 * s1, rel=1e-12)
