"""Training loop, Adam optimizer, class-balanced sampling, checkpoints.

Batches are drawn with replacement, each sample weighted inversely to its
class frequency, and one epoch is ceil(n_samples / batch_size) steps; the
batch size, learning rate and epochs default to ``config.RunConfig``'s.
Runs are bitwise reproducible for a fixed seed: initialization and batch
sampling draw from independent child streams of one seed. Prediction
gathers chunks of consecutive samples the way training gathers a batch.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import bof, network
from .config import CHOICES, RunConfig, write_atomic
from .errors import FormatError, NumericError, TrainingDiverged
from .network import ModelConfig

CHECKPOINT_MAGIC = b"TLNB"
CHECKPOINT_VERSION = 1

LOG_SCALE_FLOOR = math.log(1e-6)  # keeps c_u, c_s >= 1e-6
ADAM_SCALARS = ("t", "lr", "beta1", "beta2", "eps")  # stored as "adam.<field>"


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = RunConfig.lr


def init_adam(params: dict[str, np.ndarray], names: list[str],
              lr: float = RunConfig.lr) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(params[k]) for k in names},
        v={k: np.zeros_like(params[k]) for k in names},
        lr=lr,
    )


ADAM_BLOCK = 32768  # values per pass of each operation, so the scratch pair stays in cache


def adam_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, in place, for the keys in ``grads``.

    Every operation runs over ``ADAM_BLOCK`` values of a parameter (rows, if it or a moment
    is not C-contiguous) before the next, through one scratch pair per call. A moment
    that is not float64, as a loaded checkpoint's are, is widened the first time it steps.
    """
    for k, g in grads.items():
        if k not in state.m:
            raise ValueError(f"gradient for unknown parameter {k!r}")
        if np.shape(g) != params[k].shape:
            raise ValueError(f"gradient shape {np.shape(g)} does not match parameter {k!r} "
                             f"of shape {params[k].shape}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    blocks = []
    for k, g in grads.items():
        for moments in (state.m, state.v):
            moments[k] = moments[k].astype(np.float64, copy=False)
        arrays = [params[k], state.m[k], state.v[k], np.asarray(g)]
        if all(a.flags.c_contiguous for a in arrays[:3]):  # else reshape would copy
            arrays = [a.reshape(-1) for a in arrays]
        blocks += [[a[i : i + ADAM_BLOCK] for a in arrays]
                   for i in range(0, len(arrays[0]), ADAM_BLOCK)]
    scratch = np.empty((2, max((b[0].size for b in blocks), default=0)))
    for p, m, v, g in blocks:
        # Each line keeps the operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g
        # and p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), as one pass per key did, so the bits agree.
        buf, step = (row[: p.size].reshape(p.shape) for row in scratch)
        np.multiply(g, 1.0 - state.beta1, out=buf)
        m *= state.beta1
        m += buf
        np.multiply(g, g, out=buf)
        buf *= 1.0 - state.beta2
        v *= state.beta2
        v += buf
        np.sqrt(np.divide(v, bc2, out=buf), out=buf)
        buf += state.eps
        np.divide(m, bc1, out=step)
        step *= state.lr
        step /= buf
        p -= step
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


def train(rc: RunConfig, dataset) -> TrainResult:
    """Run the full training protocol on a window dataset.

    The model is ``ModelConfig.from_run(rc, ...)``; ``batch_size``,
    ``epochs``, ``lr`` and ``seed`` set the protocol. ``dataset`` needs
    ``n_samples``, ``labels``, ``window`` and a ``gather(indices) ->
    (batch, y)`` method whose batch ``network.forward_batch`` takes (see
    ``data.WindowDataset``).
    Aborts with :class:`TrainingDiverged` if the batch loss goes
    non-finite or a forward pass fails numerically, or if at the end of an
    epoch the parameters or the Adam state hold a value a checkpoint
    cannot (see :func:`refusal`), carrying the last end-of-epoch parameter
    snapshot.
    """
    if dataset.n_samples == 0:
        raise ValueError("training dataset is empty")
    rng_init, rng_batch = np.random.Generator(np.random.PCG64(rc.seed)).spawn(2)
    cfg = ModelConfig.from_run(rc, float(dataset.window))
    params = network.init_params(cfg, rng_init)
    trainable = network.trainable_names(cfg)
    state = init_adam(params, trainable, lr=rc.lr)
    history = TrainHistory()
    labels = dataset.labels
    steps_per_epoch = math.ceil(dataset.n_samples / rc.batch_size)
    last_good = {k: v.astype(np.float32) for k, v in params.items()}  # as a checkpoint stores them
    grads = None  # the first step's gradient arrays, which every later step writes into
    step = 0
    for _epoch in range(rc.epochs):
        for _ in range(steps_per_epoch):
            # weight by the classes actually present; a degenerate day with a
            # single label is trainable, it just cannot teach other classes
            idx = balanced_batch(labels, rc.batch_size, rng_batch)
            batch, y = dataset.gather(idx)
            try:
                _, ctx = network.forward_batch(batch, params, cfg)
                loss = network.batch_loss(ctx, y)
            except NumericError as exc:
                raise TrainingDiverged(step, last_good, str(exc)) from exc
            if not np.isfinite(loss):
                raise TrainingDiverged(step, last_good)
            grads = network.backward_batch(ctx, y, out=grads)
            del ctx  # not held through the next step's gather and forward
            updates = {k: grads[k] for k in trainable}
            adam_step(params, updates, state)
            for k in network.LOG_SCALES:
                if k in params and params[k] < LOG_SCALE_FLOOR:
                    params[k][...] = LOG_SCALE_FLOOR
            history.loss.append(float(loss))
            g = grads.get("conv_w")
            history.grad_norm_conv.append(float(np.linalg.norm(g)) if g is not None else float("nan"))
            step += 1
        problem = refusal(list(params.items()) + _adam_entries(state))
        if problem is not None:  # or the snapshot would not load
            raise TrainingDiverged(step, last_good, problem)
        for k, v in params.items():  # accepted: they are the snapshot now
            last_good[k][...] = v
    return TrainResult(params=params, model_cfg=cfg, adam_state=state, history=history)


PREDICT_CHUNK = 128  # windows scored per gather


def predict(params: dict[str, np.ndarray], cfg: ModelConfig, dataset) -> np.ndarray:
    """Argmax class predictions over a whole dataset, ``PREDICT_CHUNK`` windows at a time.

    Each chunk of consecutive samples is gathered as training gathers a batch
    and scored by ``network.predict_batch``, so a row shared by many windows
    goes through the conv once per chunk. At the paper geometry a chunk of 128
    windows of one day reads 142 rows; its feature table has 138 inner rows
    and 512 edge rows (4 edge positions of 128 windows), whose 650 rows of
    kernel values take 1.3 MB at 256 codewords. A training batch of 128
    windows drawn at random shares fewer rows: its feature table has about
    1,100 of the 1,920 window positions' rows, whose kernel values (2.3 MB)
    its backward pass keeps.
    """
    n = dataset.n_samples
    preds = np.empty(n, dtype=np.int64)
    for first in range(0, n, PREDICT_CHUNK):
        idx = np.arange(first, min(first + PREDICT_CHUNK, n))
        preds[idx] = network.predict_batch(dataset.gather(idx)[0], params, cfg).argmax(axis=1)
    return preds


# ---------------------------------------------------------------------------
# checkpoint format: magic "TLNB", version u32 LE, tensor count u32 LE, then
# per tensor: name length u16 LE + UTF-8 name, rank u8, dims u32 LE each,
# payload f32 LE row-major. Each ModelConfig field travels as a rank-0
# "meta.<field>" entry, enum-valued ones as their index in the run-config
# choice tuple; optimizer moments travel as "adam.*" entries. The reader decodes
# each payload as a view of the file's bytes and widens only the parameters to
# float64; the moments stay the float32 values stored until adam_step steps them.

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


def _adam_entries(state: AdamState) -> list[tuple[str, np.ndarray]]:
    return ([(f"adam.{k}", np.array(float(getattr(state, k)))) for k in ADAM_SCALARS]
            + [(f"adam.m.{k}", v) for k, v in sorted(state.m.items())]
            + [(f"adam.v.{k}", v) for k, v in sorted(state.v.items())])


def refusal(entries: list[tuple[str, np.ndarray]]) -> str | None:
    """Why the checkpoint reader refuses the first tensor of ``entries`` it refuses, or None.

    The one value rule for checkpoints: ``train``, the writer and the reader
    all apply it. Each tensor is judged as a checkpoint stores it, rounded to float32: its
    values must be finite, a log scale's factor c = exp(log c) must be neither
    0 nor inf (709.7827 has a finite exp, but its float32 rounding
    709.78271484375 does not), and the Gaussian ``sigma`` must be positive
    (1e-46 rounds to 0), as the forward pass divides by it.
    """
    with np.errstate(over="ignore"):
        for name, arr in entries:
            stored = np.asarray(arr, dtype=np.float32)
            if not np.isfinite(stored).all():
                return f"{name} is non-finite or beyond float32"
            if name in network.LOG_SCALES:
                try:
                    bof.scale({name: stored.astype(np.float64)}, name)
                except NumericError as exc:
                    return str(exc)
            if name == "sigma" and not stored > 0.0:
                return f"sigma = {float(stored)!r} is not positive"
    return None


def serialize_checkpoint(
    params: dict[str, np.ndarray], cfg: ModelConfig, state: AdamState | None = None
) -> bytes:
    """Checkpoint bytes; NumericError if the reader would refuse a value (see :func:`refusal`)."""
    entries = [(k, np.asarray(v)) for k, v in sorted(params.items())]
    entries += [(k, np.array(v)) for k, v in sorted(_meta_entries(cfg).items())]
    if state is not None:
        entries += _adam_entries(state)
    problem = refusal(entries)
    if problem is not None:
        raise NumericError(f"checkpoint tensor {problem}")
    return _encode_tensors(entries)


def save_checkpoint(
    path, params: dict[str, np.ndarray], cfg: ModelConfig, state: AdamState | None = None
) -> None:
    write_atomic(path, serialize_checkpoint(params, cfg, state))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = memoryview(blob)  # so take slices without copying
        self.off = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.off + n > len(self.blob):
            raise FormatError(f"truncated checkpoint while reading {what}", location=f"byte {self.off}")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def _check_tensor_set(got: dict[str, np.ndarray], shapes: dict[str, tuple]) -> None:
    """Require exactly the tensors of ``shapes``, each with its shape."""
    missing = [k for k in shapes if k not in got]
    if missing:
        raise FormatError(f"checkpoint lacks tensor {missing[0]} required by its model")
    unknown = sorted(got.keys() - shapes.keys())
    if unknown:
        raise FormatError(f"checkpoint tensor {unknown[0]} is not part of its model")
    for name, shape in shapes.items():
        if got[name].shape != shape:
            raise FormatError(f"checkpoint tensor {name} has shape {got[name].shape}, "
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
    meta: dict[str, float] = {}
    for i in range(count):
        name_len = struct.unpack("<H", reader.take(2, f"name length of tensor {i}"))[0]
        name_at = reader.off
        try:
            name = str(reader.take(name_len, f"name of tensor {i}"), "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"name of tensor {i} is not UTF-8", location=f"byte {name_at}") from None
        rank = reader.take(1, f"rank of {name}")[0]
        if rank > 3:  # no model tensor has more axes
            raise FormatError(f"tensor {name} has rank {rank}, above 3",
                              location=f"byte {reader.off - 1}")
        dims = struct.unpack(f"<{rank}I", reader.take(4 * rank, f"dims of {name}"))
        payload = reader.take(4 * math.prod(dims), f"payload of {name}")
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims)  # a view of blob, not a copy
        if not name.startswith("meta."):
            tensors[name] = arr
        elif arr.shape == ():
            meta[name] = float(arr)
        else:
            raise FormatError(f"checkpoint model metadata {name} has shape {arr.shape}, not ()")
    if reader.off != len(blob):
        raise FormatError("trailing bytes after last tensor", location=f"byte {reader.off}")

    cfg = _config_from_meta(meta)
    shapes = network.param_shapes(cfg)
    expected = dict(shapes)
    has_adam = any(k.startswith("adam.") for k in tensors)
    if has_adam:
        trainable = network.trainable_names(cfg)
        expected.update((f"adam.{k}", ()) for k in ADAM_SCALARS)
        expected.update((f"adam.{kind}.{k}", shapes[k]) for kind in "mv" for k in trainable)
    _check_tensor_set(tensors, expected)
    problem = refusal(list(tensors.items()))
    if problem is not None:
        raise FormatError(f"checkpoint tensor {problem}")
    params = {k: tensors[k].astype(np.float64) for k in shapes}
    if not has_adam:
        return params, cfg, None
    scalars = {k: float(tensors[f"adam.{k}"]) for k in ADAM_SCALARS}
    state = AdamState(m={k: tensors[f"adam.m.{k}"] for k in trainable},
                      v={k: tensors[f"adam.v.{k}"] for k in trainable},
                      t=int(scalars.pop("t")), **scalars)
    return params, cfg, state


def load_checkpoint(path):
    """Read a checkpoint; returns (params, model_cfg, adam_state_or_None).

    The parameters are float64 copies. The Adam moments are read-only float32 views
    of the file's bytes, which they keep alive; ``adam_step`` widens each as it steps it.
    """
    with open(path, "rb") as fh:
        return deserialize_checkpoint(fh.read())
