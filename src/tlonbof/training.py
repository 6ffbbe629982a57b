"""Training loop, Adam optimizer, class-balanced sampling, checkpoints.

The protocol defaults are batches of 128 windows drawn with replacement
(each sample weighted inversely to its class frequency), learning rate
1e-4, 20 epochs, where one epoch is ceil(n_samples / batch_size) steps.
Runs are bitwise reproducible for a fixed seed: initialization and batch
sampling draw from independent child streams of one seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import bof, network
from .config import CHOICES, F32_MAX, RunConfig, write_atomic
from .errors import FormatError, NumericError, TrainingDiverged
from .network import ModelConfig

CHECKPOINT_MAGIC = b"TLNB"
CHECKPOINT_VERSION = 1

LOG_SCALE_FLOOR = math.log(1e-6)  # keeps c_u, c_s >= 1e-6


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = 1e-4


def init_adam(params: dict[str, np.ndarray], names: list[str], lr: float = 1e-4) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(params[k]) for k in names},
        v={k: np.zeros_like(params[k]) for k in names},
        lr=lr,
    )


def adam_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, in place, for the keys in ``grads``."""
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for k, g in grads.items():
        if k not in state.m:
            raise ValueError(f"gradient for unknown parameter {k!r}")
        if np.shape(g) != params[k].shape:
            raise ValueError(f"gradient shape {np.shape(g)} does not match parameter {k!r} "
                             f"of shape {params[k].shape}")
        # In place with one scratch buffer (an array even for 0-d
        # parameters, so ``out=`` works). Each line keeps the operation order
        # of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        # p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), so the result is bit-identical.
        m, v = state.m[k], state.v[k]
        buf = np.multiply(g, 1.0 - state.beta1, out=np.empty_like(m))
        m *= state.beta1
        m += buf
        np.multiply(g, g, out=buf)
        buf *= 1.0 - state.beta2
        v *= state.beta2
        v += buf
        np.sqrt(np.divide(v, bc2, out=buf), out=buf)
        buf += state.eps
        step = m / bc1
        step *= state.lr
        step /= buf
        params[k] -= step
    return params, state


def balanced_batch(labels: np.ndarray, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample indices with replacement, weighting each sample by 1/count(its class).

    The weights come from whichever classes are present.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("cannot sample from an empty label set")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    counts = np.bincount(labels)
    weights = 1.0 / counts[labels]
    weights /= weights.sum()
    return rng.choice(labels.size, size=batch_size, p=weights)


@dataclass
class TrainHistory:
    loss: list[float] = field(default_factory=list)
    grad_norm_conv: list[float] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.loss)


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    model_cfg: ModelConfig
    adam_state: AdamState
    history: TrainHistory


def _check_scales(params: dict[str, np.ndarray]) -> None:
    """NumericError naming the first scale whose factor c = exp(log c) is 0 or inf.

    log c is taken as a checkpoint stores it, rounded to float32, so a value
    that passes here also loads: 709.7827 has a finite exp, but its float32
    rounding 709.78271484375 does not. The caller checks the float32 range first.
    """
    for name in [k for k in ("log_cu", "log_cs") if k in params]:
        bof.scale({name: np.float64(np.float32(params[name]))}, name)


def _snapshot(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def train(rc: RunConfig, dataset) -> TrainResult:
    """Run the full training protocol on a window dataset.

    The model is ``ModelConfig.from_run(rc, ...)``; ``batch_size``,
    ``epochs``, ``lr`` and ``seed`` set the protocol. ``dataset`` needs
    ``labels``, ``feature_dim``, ``window`` and a ``gather(indices) ->
    (X, y)`` method (see ``data.WindowDataset``).
    Aborts with :class:`TrainingDiverged` if the batch loss goes
    non-finite or a forward pass fails numerically, or if at the end of an
    epoch a parameter or Adam moment could not be stored in a checkpoint or
    a scale factor exp(log c) is 0 or inf, carrying the last end-of-epoch
    parameter snapshot.
    """
    if dataset.n_samples == 0:
        raise ValueError("training dataset is empty")
    rng_init, rng_batch = np.random.Generator(np.random.PCG64(rc.seed)).spawn(2)
    cfg = ModelConfig.from_run(rc, dataset.feature_dim, float(dataset.window))
    params = network.init_params(cfg, rng_init)
    trainable = network.trainable_names(cfg)
    state = init_adam(params, trainable, lr=rc.lr)
    history = TrainHistory()
    labels = dataset.labels
    steps_per_epoch = math.ceil(dataset.n_samples / rc.batch_size)
    last_good = _snapshot(params)
    step = 0
    for _epoch in range(rc.epochs):
        for _ in range(steps_per_epoch):
            # weight by the classes actually present; a degenerate day with a
            # single label is trainable, it just cannot teach other classes
            idx = balanced_batch(labels, rc.batch_size, rng_batch)
            x, y = dataset.gather(idx)
            try:
                _, ctx = network.forward_batch(x, params, cfg)
                loss = network.batch_loss(ctx, y)
            except NumericError as exc:
                raise TrainingDiverged(step, last_good, str(exc)) from exc
            if not np.isfinite(loss):
                raise TrainingDiverged(step, last_good)
            grads = network.backward_batch(ctx, y)
            updates = {k: grads[k] for k in trainable}
            adam_step(params, updates, state)
            for k in ("log_cu", "log_cs"):
                if k in params and params[k] < LOG_SCALE_FLOOR:
                    params[k] = np.array(LOG_SCALE_FLOOR)
            history.loss.append(float(loss))
            g = grads.get("conv_w")
            history.grad_norm_conv.append(float(np.linalg.norm(g)) if g is not None else float("nan"))
            step += 1
        bad = _unstorable(list(params.items()) + _moment_entries(state))
        if bad is not None:
            raise TrainingDiverged(step, last_good, f"{bad} is non-finite or beyond float32")
        try:
            _check_scales(params)  # or the snapshot would not load
        except NumericError as exc:
            raise TrainingDiverged(step, last_good, str(exc)) from exc
        last_good = _snapshot(params)
    return TrainResult(params=params, model_cfg=cfg, adam_state=state, history=history)


def predict(
    params: dict[str, np.ndarray], cfg: ModelConfig, dataset, chunk: int = 128
) -> np.ndarray:
    """Argmax class predictions over a whole dataset, in runs of ``chunk`` windows.

    Each run is ``chunk`` consecutive windows of one day (fewer at a day's
    end), scored from its rows by ``network.forward_windows``, so a row
    shared by many windows goes through the conv once per run and through
    the kernel once per tap set. At the paper geometry a run of 128 windows
    reads 142 rows and computes kernel values for 650 table rows (1.3 MB at
    256 codewords), where the gathered windows had 1920 rows (3.9 MB).
    """
    preds = np.empty(dataset.n_samples, dtype=np.int64)
    for first, rows in dataset.runs(chunk):
        probs = network.forward_windows(rows, params, cfg, dataset.window)
        preds[first : first + len(probs)] = probs.argmax(axis=1)
    return preds


# ---------------------------------------------------------------------------
# checkpoint format: magic "TLNB", version u32 LE, tensor count u32 LE, then
# per tensor: name length u16 LE + UTF-8 name, rank u8, dims u32 LE each,
# payload f32 LE row-major. Each ModelConfig field travels as a rank-0
# "meta.<field>" entry, enum-valued ones as their index in the run-config
# choice tuple; optimizer moments travel as "adam.*" entries.

_META_DECODE = {"int": int, "float": float, "bool": lambda v: bool(int(v))}


def _meta_entries(cfg: ModelConfig) -> dict[str, object]:
    entries = {}
    for f in fields(ModelConfig):
        value = getattr(cfg, f.name)
        if f.name in CHOICES:
            value = CHOICES[f.name].index(value)
        entries[f"meta.{f.name}"] = value
    return entries


def _config_from_meta(meta: dict[str, float]) -> ModelConfig:
    values = {}
    for f in fields(ModelConfig):
        key = f"meta.{f.name}"
        if not math.isfinite(meta.get(key, math.nan)):
            raise FormatError(f"checkpoint model metadata {key} is missing or not finite")
        if f.name in CHOICES:
            choices, index = CHOICES[f.name], int(meta[key])
            if not 0 <= index < len(choices):
                raise FormatError(f"checkpoint {key} = {index} is not an index into {choices}")
            values[f.name] = choices[index]
        else:
            values[f.name] = _META_DECODE[f.type](meta[key])
    try:
        return ModelConfig(**values)
    except ValueError as exc:
        raise FormatError(f"checkpoint model metadata is inconsistent: {exc}") from None


def _encode_tensors(entries: list[tuple[str, np.ndarray]]) -> bytes:
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION), struct.pack("<I", len(entries))]
    for name, arr in entries:
        raw = name.encode("utf-8")
        # asarray, not ascontiguousarray: the latter silently promotes 0-d
        # scalars to shape (1,), which would corrupt the stored rank
        arr = np.asarray(arr, dtype="<f4")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        parts.append(arr.tobytes(order="C"))
    return b"".join(parts)


def _moment_entries(state: AdamState) -> list[tuple[str, np.ndarray]]:
    return ([(f"adam.m.{k}", v) for k, v in sorted(state.m.items())]
            + [(f"adam.v.{k}", v) for k, v in sorted(state.v.items())])


def _unstorable(entries: list[tuple[str, np.ndarray]]) -> str | None:
    """Name of the first tensor holding a NaN, an inf or a value beyond the float32 range."""
    for name, arr in entries:
        if not (np.abs(arr) <= F32_MAX).all():
            return name
    return None


def serialize_checkpoint(
    params: dict[str, np.ndarray], cfg: ModelConfig, state: AdamState | None = None
) -> bytes:
    """Checkpoint bytes; NumericError if a value cannot be stored as a finite float32
    or a stored log scale would give a scale factor of 0 or inf."""
    entries = [(k, np.asarray(v)) for k, v in sorted(params.items())]
    entries += [(k, np.array(v)) for k, v in sorted(_meta_entries(cfg).items())]
    if state is not None:
        entries.append(("adam.t", np.array(float(state.t))))
        entries.append(("adam.lr", np.array(state.lr)))
        entries.append(("adam.beta1", np.array(state.beta1)))
        entries.append(("adam.beta2", np.array(state.beta2)))
        entries.append(("adam.eps", np.array(state.eps)))
        entries += _moment_entries(state)
    bad = _unstorable(entries)
    if bad is not None:
        raise NumericError(f"checkpoint tensor {bad} holds a NaN, an inf or a value "
                           "beyond the float32 range")
    try:
        _check_scales(params)  # or deserialize_checkpoint would refuse the bytes
    except NumericError as exc:
        raise NumericError(f"checkpoint tensor {exc}") from None
    return _encode_tensors(entries)


def save_checkpoint(
    path, params: dict[str, np.ndarray], cfg: ModelConfig, state: AdamState | None = None
) -> None:
    write_atomic(path, serialize_checkpoint(params, cfg, state))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.blob):
            raise FormatError(f"truncated checkpoint while reading {what}", location=f"byte {self.off}")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def _check_tensor_set(prefix: str, got: dict[str, np.ndarray], shapes: dict[str, tuple]) -> None:
    """Require exactly the tensors ``prefix`` + name of ``shapes``, each with its shape."""
    missing = sorted(shapes.keys() - got.keys())
    if missing:
        raise FormatError(f"checkpoint lacks tensor {prefix}{missing[0]} required by its model")
    unknown = sorted(got.keys() - shapes.keys())
    if unknown:
        raise FormatError(f"checkpoint tensor {prefix}{unknown[0]} is not part of its model")
    for name, shape in shapes.items():
        if got[name].shape != shape:
            raise FormatError(f"checkpoint tensor {prefix}{name} has shape {got[name].shape}, "
                              f"expected {shape}")


def deserialize_checkpoint(blob: bytes):
    reader = _Reader(blob)
    if reader.take(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError("bad magic, not a TLNB checkpoint", location="byte 0")
    version = reader.u32("version")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", location="byte 4")
    count = reader.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        name_len = struct.unpack("<H", reader.take(2, f"name length of tensor {i}"))[0]
        name_at = reader.off
        try:
            name = reader.take(name_len, f"name of tensor {i}").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"name of tensor {i} is not UTF-8", location=f"byte {name_at}") from None
        rank = reader.take(1, f"rank of {name}")[0]
        if rank > 3:  # no model tensor has more axes
            raise FormatError(f"tensor {name} has rank {rank}, above 3",
                              location=f"byte {reader.off - 1}")
        dims = struct.unpack(f"<{rank}I", reader.take(4 * rank, f"dims of {name}"))
        payload = reader.take(4 * math.prod(dims), f"payload of {name}")
        tensors[name] = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims)
    if reader.off != len(blob):
        raise FormatError("trailing bytes after last tensor", location=f"byte {reader.off}")

    params, meta = {}, {}
    adam_m, adam_v, adam_scalar = {}, {}, {}
    for name, arr in tensors.items():
        if name.startswith("meta."):
            if arr.shape != ():
                raise FormatError(f"checkpoint model metadata {name} has shape {arr.shape}, not ()")
            meta[name] = float(arr)
            continue
        if not np.isfinite(arr).all():
            raise FormatError(f"checkpoint tensor {name} holds a non-finite value")
        if name.startswith("adam.m."):
            adam_m[name[len("adam.m.") :]] = arr
        elif name.startswith("adam.v."):
            adam_v[name[len("adam.v.") :]] = arr
        elif name.startswith("adam."):
            adam_scalar[name[len("adam.") :]] = arr
        else:
            params[name] = arr
    cfg = _config_from_meta(meta)
    shapes = network.param_shapes(cfg)
    _check_tensor_set("", params, shapes)
    try:
        _check_scales(params)  # the forward pass needs positive, finite scale factors
    except NumericError as exc:
        raise FormatError(f"checkpoint tensor {exc}") from None
    # the Gaussian kernel divides by sigma
    if "sigma" in params and not params["sigma"] > 0.0:
        raise FormatError(f"checkpoint tensor sigma = {float(params['sigma'])!r} is not positive")
    if not (adam_scalar or adam_m or adam_v):
        return params, cfg, None
    _check_tensor_set("adam.", adam_scalar, dict.fromkeys(("t", "lr", "beta1", "beta2", "eps"), ()))
    trainable = {k: shapes[k] for k in network.trainable_names(cfg)}
    _check_tensor_set("adam.m.", adam_m, trainable)
    _check_tensor_set("adam.v.", adam_v, trainable)
    scalars = {k: float(v) for k, v in adam_scalar.items()}
    return params, cfg, AdamState(m=adam_m, v=adam_v, t=int(scalars.pop("t")), **scalars)


def load_checkpoint(path):
    """Read a checkpoint; returns (params, model_cfg, adam_state_or_None)."""
    with open(path, "rb") as fh:
        return deserialize_checkpoint(fh.read())
