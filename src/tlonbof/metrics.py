"""Confusion-matrix based scores: macro precision/recall/F1 and Cohen's kappa.

Macro scores average the per-class fractions; zero-support or
zero-prediction classes contribute 0 to the average (with a warning)
rather than poisoning it with NaN.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import UndefinedMetricError

SCORES = ("precision", "recall", "f1", "kappa")  # fold_scores' keys, in report order


def confusion(true: np.ndarray, pred: np.ndarray, n_classes: int = 3) -> np.ndarray:
    """Counts matrix with true labels on rows, predictions on columns."""
    true = np.asarray(true, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if true.shape != pred.shape or true.ndim != 1:
        raise ValueError(f"label vectors must be 1-d and equal length, "
                         f"got {true.shape} and {pred.shape}")
    if true.size and (true.min() < 0 or true.max() >= n_classes
                      or pred.min() < 0 or pred.max() >= n_classes):
        raise ValueError(f"labels out of range for {n_classes} classes")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (true, pred), 1)
    return cm


def _safe_div(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    nz = den > 0
    out[nz] = num[nz] / den[nz]
    if not np.all(nz):
        which = np.flatnonzero(~nz).tolist()
        warnings.warn(f"{what} undefined for classes {which}, counting them as 0")
    return out


def macro_prf(cm: np.ndarray) -> tuple[float, float, float]:
    """Macro-averaged precision, recall and F1 as fractions in [0, 1]."""
    cm = np.asarray(cm, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {cm.shape}")
    if cm.sum() == 0:
        raise ValueError("confusion matrix is empty")
    tp = np.diag(cm)
    precision = _safe_div(tp, cm.sum(axis=0), "precision")
    recall = _safe_div(tp, cm.sum(axis=1), "recall")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero p+r for a class already warned above
        f1 = _safe_div(2.0 * precision * recall, precision + recall, "f1")
    return float(precision.mean()), float(recall.mean()), float(f1.mean())


def cohens_kappa(cm: np.ndarray) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e)."""
    cm = np.asarray(cm, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {cm.shape}")
    total = cm.sum()
    if total == 0:
        raise ValueError("confusion matrix is empty")
    p_o = np.trace(cm) / total
    p_e = float((cm.sum(axis=1) / total) @ (cm.sum(axis=0) / total))
    if p_e == 1.0:
        raise UndefinedMetricError(
            "kappa undefined: marginals are degenerate (expected agreement is 1)"
        )
    return float((p_o - p_e) / (1.0 - p_e))


def fold_scores(true: np.ndarray, pred: np.ndarray, n_classes: int = 3) -> dict[str, float]:
    """Report-card entry for one fold: macro P/R/F1 in percent, kappa raw."""
    cm = confusion(true, pred, n_classes)
    return dict(zip(SCORES, [*(100.0 * v for v in macro_prf(cm)), cohens_kappa(cm)]))


def summarize(per_fold: list[dict[str, float]]) -> dict[str, tuple[float, float]]:
    """Mean and population std of each score across folds."""
    if not per_fold:
        raise ValueError("no folds to summarize")
    out = {}
    for key in per_fold[0]:
        vals = np.array([f[key] for f in per_fold])
        out[key] = (float(vals.mean()), float(vals.std()))
    return out
