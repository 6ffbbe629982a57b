"""Temporal logistic neural bag-of-features for order book time series.

A 1-D convolutional feature extractor feeds a codebook layer that soft
assigns each timestep to learned codewords through a logistic (or
Gaussian) kernel, accumulates per-region histograms over short, mid and
long temporal spans, and classifies the concatenated histogram with a
small fully connected head. Everything trains end to end with
hand-derived gradients and Adam.
"""

import os


def _configure_threads() -> None:
    """Cap the BLAS thread pools from TLNB_THREADS, or to 1 under TLNB_DETERMINISTIC=1.

    The caps only work if they are in the environment before numpy is first
    imported, so this runs before any submodule is imported: the ``tlonbof``
    console script and ``python -m tlonbof.cli`` import this package first.
    Variables already set are left alone.
    """
    threads = os.environ.get("TLNB_THREADS")
    if os.environ.get("TLNB_DETERMINISTIC") == "1":
        threads = "1"
    if threads and threads.isdigit() and int(threads) > 0:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, threads)


_configure_threads()

# the submodules import numpy, so they come after the caps
from .bof import segment
from .config import RunConfig, load_run_config, save_run_config
from .data import (
    DOWN,
    STATIONARY,
    UP,
    FeatureSeries,
    FoldSpec,
    WindowDataset,
    anchored_folds,
    load_feature_csv,
    load_feature_dir,
    synth_generate,
    write_feature_csv,
)
from .errors import FormatError, NumericError, TrainingDiverged, UndefinedMetricError
from .metrics import cohens_kappa, confusion, macro_prf
from .network import ModelConfig, glorot_uniform, init_params
from .training import (
    AdamState,
    TrainResult,
    adam_step,
    balanced_batch,
    init_adam,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "DOWN",
    "FeatureSeries",
    "FoldSpec",
    "FormatError",
    "ModelConfig",
    "NumericError",
    "RunConfig",
    "STATIONARY",
    "TrainResult",
    "TrainingDiverged",
    "UP",
    "UndefinedMetricError",
    "WindowDataset",
    "adam_step",
    "anchored_folds",
    "balanced_batch",
    "cohens_kappa",
    "confusion",
    "glorot_uniform",
    "init_adam",
    "init_params",
    "load_checkpoint",
    "load_feature_csv",
    "load_feature_dir",
    "load_run_config",
    "macro_prf",
    "save_checkpoint",
    "save_run_config",
    "segment",
    "synth_generate",
    "train",
    "write_feature_csv",
]
