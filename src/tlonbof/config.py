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

ARCH_CHOICES = ("tlonbof", "cnn_gap")
KERNEL_CHOICES = ("logistic", "gaussian")
SCALING_CHOICES = ("off", "frozen", "learned")
LABEL_MODE_CHOICES = ("mean_horizon", "point_horizon")
FOLD_CHOICES = ("anchored", "single")

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
    label_mode: str = "mean_horizon"
    # architecture
    arch: str = "tlonbof"
    n_codewords: int = 256
    conv_filters: int = 256
    conv_kernel: int = 5
    hidden: int = 512
    n_regions: int = 3
    kernel: str = "logistic"
    # ablation switches
    deep_features: bool = True
    temporal_modeling: bool = True
    kernel_param_learning: bool = True
    adaptive_scaling: str = "learned"
    nested_regions: bool = False
    ablation_seeds: str = "0,1,2"
    # data path and evaluation layout
    data_dir: str = ""
    folds: str = "anchored"


_CHOICES = {
    "arch": ARCH_CHOICES,
    "kernel": KERNEL_CHOICES,
    "adaptive_scaling": SCALING_CHOICES,
    "label_mode": LABEL_MODE_CHOICES,
    "folds": FOLD_CHOICES,
}

_POSITIVE_INTS = {
    "batch_size", "window", "horizon", "n_codewords",
    "conv_filters", "conv_kernel", "hidden", "n_regions",
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}  # annotation strings: "int", ...
_FIELD_ORDER = [f.name for f in fields(RunConfig)]


def parse_value(key: str, raw: str, lineno: int | str):
    """Parse one value of ``key`` by the schema's rules, or raise FormatError at ``lineno``."""
    kind = _FIELD_TYPES[key]
    loc = f"line {lineno}"
    if kind == "bool":
        if raw == "true":
            return True
        if raw == "false":
            return False
        raise FormatError(f"{key} must be true or false, got {raw!r}", location=loc)
    if kind == "int":
        try:
            value = int(raw)
        except ValueError:
            raise FormatError(f"{key} must be an integer, got {raw!r}", location=loc) from None
        if key in _POSITIVE_INTS and value < 1:
            raise FormatError(f"{key} must be >= 1, got {value}", location=loc)
        if key == "conv_kernel" and value % 2 == 0:
            raise FormatError(f"conv_kernel must be odd, got {value}", location=loc)
        if key == "epochs" and value < 0:
            raise FormatError(f"epochs must be >= 0, got {value}", location=loc)
        return value
    if kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise FormatError(f"{key} must be a number, got {raw!r}", location=loc) from None
        if not math.isfinite(value):
            raise FormatError(f"{key} must be finite, got {raw!r}", location=loc)
        if key in ("lr", "threshold") and value <= 0:
            raise FormatError(f"{key} must be positive, got {value}", location=loc)
        if key == "lr" and value > F32_MAX:
            raise FormatError(f"lr must be at most the float32 maximum {F32_MAX!r} that a "
                              f"checkpoint stores, got {value!r}", location=loc)
        return value
    if key in _CHOICES and raw not in _CHOICES[key]:
        raise FormatError(
            f"{key} must be one of {', '.join(_CHOICES[key])}, got {raw!r}", location=loc
        )
    return raw


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def window_fills_regions(window: int, n_regions: int, arch: str) -> bool:
    """Whether a model pooling ``n_regions`` temporal regions can run on ``window`` steps.

    Only the TLoNBoF model splits a window into regions; the GAP baseline
    averages over the whole window.
    """
    return arch != "tlonbof" or window >= n_regions


def check_window_fills_regions(rc: RunConfig, location: str | None = None) -> None:
    """Refuse a window too short to fill every temporal region."""
    n_regions = rc.n_regions if rc.temporal_modeling else 1
    if not window_fills_regions(rc.window, n_regions, rc.arch):
        raise FormatError(f"window = {rc.window} is below n_regions = {rc.n_regions}; "
                          "with arch = tlonbof and temporal_modeling = true every region "
                          "needs a timestep", location=location)


def loads(text: str) -> RunConfig:
    seen: dict[str, object] = {}
    region_line = 0  # last line setting a key of the window/regions rule
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
        if key in ("window", "n_regions", "temporal_modeling", "arch"):
            region_line = lineno
    rc = RunConfig(**seen)
    check_window_fills_regions(rc, f"line {region_line}")  # the defaults pass it
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
