"""Flat key = value run configuration with a strict, ordered schema.

Unknown keys, duplicate keys and malformed values are rejected with the
offending line number. ``dumps`` emits every key in schema order with
repr() floats, so dump -> load -> dump is byte-identical.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, fields

from .errors import FormatError

# every choice value is spelled here once; other modules import the names
ARCH_CHOICES = ARCH_TLONBOF, ARCH_CNN_GAP = ("tlonbof", "cnn_gap")
KERNEL_CHOICES = KERNEL_LOGISTIC, KERNEL_GAUSSIAN = ("logistic", "gaussian")
# off: c_u = c_s = 1, frozen; frozen: protocol init, not trained; learned: trained
SCALING_CHOICES = SCALING_OFF, SCALING_FROZEN, SCALING_LEARNED = ("off", "frozen", "learned")
LABEL_MODE_CHOICES = MEAN_HORIZON, POINT_HORIZON = ("mean_horizon", "point_horizon")
FOLD_CHOICES = FOLDS_ANCHORED, FOLDS_SINGLE = ("anchored", "single")

F32_MAX = 3.4028234663852886e38  # the largest float32; checkpoints store values as float32


@dataclass
class RunConfig:
    # training protocol
    batch_size: int = 128
    epochs: int = 20
    lr: float = 1e-4
    seed: int = 0
    # data handling
    window: int = 15
    horizon: int = 10
    threshold: float = 1e-4
    label_mode: str = MEAN_HORIZON
    # architecture
    arch: str = ARCH_TLONBOF
    n_codewords: int = 256
    conv_filters: int = 256
    conv_kernel: int = 5
    hidden: int = 512
    n_regions: int = 3
    kernel: str = KERNEL_LOGISTIC
    # ablation switches
    deep_features: bool = True
    temporal_modeling: bool = True
    kernel_param_learning: bool = True
    adaptive_scaling: str = SCALING_LEARNED
    nested_regions: bool = False
    ablation_seeds: str = "0,1,2"
    # data path and evaluation layout
    data_dir: str = ""
    folds: str = FOLDS_ANCHORED


CHOICES = {
    "arch": ARCH_CHOICES,
    "kernel": KERNEL_CHOICES,
    "adaptive_scaling": SCALING_CHOICES,
    "label_mode": LABEL_MODE_CHOICES,
    "folds": FOLD_CHOICES,
}

# run-config sizes and rates, and the model fields a run derives rather than sets
_POSITIVE = {
    "batch_size", "window", "horizon", "n_codewords", "conv_filters", "conv_kernel", "hidden",
    "n_regions", "lr", "threshold", "d_in", "n_classes", "avg_seq_len",
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}  # annotation strings: "int", ...
_FIELD_ORDER = [f.name for f in fields(RunConfig)]


def value_error(key: str, value) -> str | None:
    """Why ``value`` breaks the rule of ``key``, or None if it keeps it.

    ``key`` is a run-config key or a ``network.ModelConfig`` field, so a
    config file and a checkpoint's model metadata obey the same rules.
    """
    if key in CHOICES and value not in CHOICES[key]:
        return f"{key} must be one of {', '.join(CHOICES[key])}, got {value!r}"
    if isinstance(value, float) and not math.isfinite(value):
        return f"{key} must be finite, got {value!r}"
    if key in _POSITIVE and not value > 0:
        return f"{key} must be {'>= 1' if isinstance(value, int) else 'positive'}, got {value}"
    if key in ("epochs", "seed") and value < 0:
        return f"{key} must be >= 0, got {value}"
    if key == "conv_kernel" and value % 2 == 0:
        return f"conv_kernel must be odd, got {value}"
    if key == "lr" and value > F32_MAX:
        return (f"lr must be at most the float32 maximum {F32_MAX!r} that a checkpoint "
                f"stores, got {value!r}")
    if key == "ablation_seeds":
        try:
            parse_seed_list(value)
        except FormatError as exc:
            return exc.message
    return None


def pooled_regions(rc) -> int:
    """Temporal regions a run's model pools: ``n_regions``, or one without temporal modelling."""
    return rc.n_regions if rc.temporal_modeling else 1


def check_model(arch: str, deep_features: bool, n_regions: int, window: int | None = None,
                lines: dict[str, int] | None = None) -> None:
    """Raise FormatError if a model breaks a cross-field rule.

    ``n_regions`` counts the regions pooled (see ``pooled_regions``). Only the
    TLoNBoF model splits its ``window``, which a model alone lacks, into
    regions. With ``lines`` (key -> the line that set it) the error sits at
    the last line that set one of the rule's keys.
    """
    if arch == ARCH_CNN_GAP and not deep_features:
        message = f"arch = {ARCH_CNN_GAP} averages conv features, so it needs deep_features = true"
        keys = ("arch", "deep_features")
    elif arch == ARCH_TLONBOF and window is not None and window < n_regions:
        message = (f"window = {window} is below n_regions = {n_regions}; with arch = "
                   f"{ARCH_TLONBOF} and temporal_modeling = true every region needs a timestep")
        keys = ("window", "n_regions", "temporal_modeling", "arch")
    else:
        return
    line = max(lines.get(k, 0) for k in keys) if lines else None
    raise FormatError(message, location=line and f"line {line}")


def parse_value(key: str, raw: str, lineno: int | str):
    """Parse one value of ``key`` by the schema's rules, or raise FormatError at ``lineno``."""
    kind = _FIELD_TYPES[key]
    loc = f"line {lineno}"
    value = raw
    if kind == "bool":
        if raw not in ("true", "false"):
            raise FormatError(f"{key} must be true or false, got {raw!r}", location=loc)
        value = raw == "true"
    elif kind in ("int", "float"):
        try:
            value = int(raw) if kind == "int" else float(raw)
        except ValueError:
            what = "an integer" if kind == "int" else "a number"
            raise FormatError(f"{key} must be {what}, got {raw!r}", location=loc) from None
    problem = value_error(key, value)
    if problem is not None:
        raise FormatError(problem, location=loc)
    return value


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def loads(text: str) -> RunConfig:
    seen: dict[str, object] = {}
    lines: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FormatError(
                f"expected key = value, got {stripped!r}", location=f"line {lineno}"
            )
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELD_TYPES:
            raise FormatError(f"unknown key {key!r}", location=f"line {lineno}")
        if key in seen:
            raise FormatError(f"duplicate key {key!r}", location=f"line {lineno}")
        seen[key] = parse_value(key, raw, lineno)
        lines[key] = lineno
    rc = RunConfig(**seen)
    check_model(rc.arch, rc.deep_features, pooled_regions(rc), rc.window, lines)
    return rc


def dumps(cfg: RunConfig) -> str:
    return "".join(f"{k} = {_format_value(getattr(cfg, k))}\n" for k in _FIELD_ORDER)


def load_run_config(path) -> RunConfig:
    text = read_text(path)
    try:
        return loads(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc.message}", location=exc.location) from None


def save_run_config(path, cfg: RunConfig) -> None:
    write_atomic(path, dumps(cfg).encode("utf-8"))


def parse_seed_list(raw: str) -> list[int]:
    """Comma-separated seed list, e.g. "0,1,2"."""
    try:
        seeds = [int(part.strip()) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise FormatError(f"bad seed list {raw!r}, expected comma-separated integers") from None
    if not seeds:
        raise FormatError(f"seed list {raw!r} is empty")
    problem = value_error("seed", min(seeds))  # the one seed that can break the rule
    if problem is not None:
        raise FormatError(f"seed list {raw!r}: {problem}")
    return seeds


def read_text(path) -> str:
    """A file's UTF-8 text, or FormatError at the line of the first undecodable byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}: not UTF-8 text", location=f"line {line}") from None


def write_atomic(path, payload: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
