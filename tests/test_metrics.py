import warnings

import numpy as np
import pytest

from tlonbof import metrics
from tlonbof.errors import UndefinedMetricError

KAPPA_CASE = 0.5384615384615384  # p_o = 0.70, p_e = 0.35 for the matrix below


def brute_macro_prf(cm):
    """Scalar re-derivation, one class at a time."""
    ps, rs, fs = [], [], []
    n = cm.shape[0]
    for c in range(n):
        tp = cm[c, c]
        fp = sum(cm[r, c] for r in range(n)) - tp
        fn = sum(cm[c, r] for r in range(n)) - tp
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(f)
    return sum(ps) / n, sum(rs) / n, sum(fs) / n


def brute_kappa(cm):
    total = cm.sum()
    p_o = sum(cm[i, i] for i in range(cm.shape[0])) / total
    p_e = sum(cm[i, :].sum() * cm[:, i].sum() for i in range(cm.shape[0])) / total**2
    return (p_o - p_e) / (1 - p_e)


def test_confusion_layout():
    cm = metrics.confusion([0, 0, 1, 2, 2, 2], [0, 1, 1, 2, 2, 0])
    assert cm.tolist() == [[1, 1, 0], [0, 1, 0], [1, 0, 2]]
    assert cm.sum() == 6


def test_confusion_rejects_out_of_range():
    with pytest.raises(ValueError):
        metrics.confusion([0, 3], [0, 0])


def test_kappa_known_value():
    cm = np.array([[20, 5, 0], [10, 30, 10], [0, 5, 20]])
    assert metrics.cohens_kappa(cm) == pytest.approx(KAPPA_CASE, abs=1e-15)


def test_kappa_edge_cases():
    assert metrics.cohens_kappa(np.diag([3, 5, 9])) == pytest.approx(1.0)
    # rows proportional to prediction marginals: agreement is pure chance
    chance = np.outer([10, 20, 30], [1, 2, 3])
    assert metrics.cohens_kappa(chance) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(UndefinedMetricError):
        metrics.cohens_kappa(np.array([[4, 0], [0, 0]]))  # single marginal cell


def test_against_brute_force_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        cm = rng.integers(0, 40, size=(3, 3)).astype(np.int64)
        if cm.sum() == 0:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = metrics.macro_prf(cm)
            want = brute_macro_prf(cm)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12
        marg = cm.sum(axis=1) / cm.sum() @ (cm.sum(axis=0) / cm.sum())
        if marg != 1.0:
            assert abs(metrics.cohens_kappa(cm) - brute_kappa(cm)) < 1e-12


def test_permutation_equivariance():
    # relabeling classes consistently must not change macro scores or kappa
    rng = np.random.default_rng(3)
    true = rng.integers(0, 3, size=500)
    pred = rng.integers(0, 3, size=500)
    perm = np.array([2, 0, 1])
    a = metrics.confusion(true, pred)
    b = metrics.confusion(perm[true], perm[pred])
    assert metrics.macro_prf(a) == pytest.approx(metrics.macro_prf(b), abs=1e-15)
    assert metrics.cohens_kappa(a) == pytest.approx(metrics.cohens_kappa(b), abs=1e-15)


def test_zero_support_class_counts_as_zero_with_warning():
    cm = np.array([[5, 0, 0], [0, 0, 0], [0, 0, 5]])
    with pytest.warns(UserWarning):
        p, r, f1 = metrics.macro_prf(cm)
    assert (p, r, f1) == pytest.approx((2 / 3, 2 / 3, 2 / 3), abs=1e-15)


def test_empty_matrix_rejected():
    with pytest.raises(ValueError):
        metrics.macro_prf(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        metrics.cohens_kappa(np.zeros((3, 3)))


def test_fold_scores_percent_convention():
    # perfect predictions: P/R/F1 reported as 100, kappa stays raw at 1
    s = metrics.fold_scores([0, 1, 2, 1], [0, 1, 2, 1])
    assert s["precision"] == s["recall"] == s["f1"] == 100.0
    assert s["kappa"] == pytest.approx(1.0)


def test_summarize_population_std():
    folds = [{"f1": 1.0}, {"f1": 2.0}, {"f1": 3.0}]
    mean, std = metrics.summarize(folds)["f1"]
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(np.sqrt(2.0 / 3.0))
