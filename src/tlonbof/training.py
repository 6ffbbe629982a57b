"""Training loop, Adam optimizer, class-balanced sampling, checkpoints.

Batches are drawn with replacement, each sample weighted inversely to its
class frequency, and one epoch is ceil(n_samples / batch_size) steps; the
batch size, learning rate and epochs default to ``config.RunConfig``'s.
Runs are bitwise reproducible for a fixed seed: initialization and batch
sampling draw from independent child streams of one seed. Prediction
gathers chunks of consecutive samples the way training gathers a batch.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field, fields, replace

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
    shapes: dict[str, tuple[int, ...]]  # the parameters m and v hold, one vector each, in order
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = RunConfig.lr


def init_adam(shapes: dict[str, tuple[int, ...]], lr: float = RunConfig.lr,
              dtype=np.float64) -> AdamState:
    size = sum(math.prod(s) for s in shapes.values())
    return AdamState(dict(shapes), np.zeros(size, dtype), np.zeros(size, dtype), lr=lr)


ADAM_BLOCK = 32768  # values per pass of each operation, so the scratch pair stays in cache


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the vector ``params``, in place, laid out as the moments.

    Every operation runs over ``ADAM_BLOCK`` values before the next, through one scratch pair
    per call. Moments that are not float64, as a loaded checkpoint's are, are widened once."""
    if not np.shape(params) == np.shape(grads) == state.m.shape:
        raise ValueError(f"parameters of shape {np.shape(params)} and gradients of shape "
                         f"{np.shape(grads)} do not match the moments' {state.m.shape}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    state.m, state.v = (a.astype(np.float64, copy=False) for a in (state.m, state.v))
    scratch = np.empty((2, min(ADAM_BLOCK, params.size)))
    for i in range(0, params.size, ADAM_BLOCK):
        p, m, v, g = (a[i : i + ADAM_BLOCK] for a in (params, state.m, state.v, grads))
        # Each line keeps the operation order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g
        # and p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), as one pass per key did, so the bits agree.
        buf, step = scratch[:, : p.size]
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


def balanced_cdf(labels: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice`` builds from weights 1/count(each sample's class), summing
    to 1 over the samples. The weights come from whichever classes are present."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("cannot sample from an empty label set")
    weights = 1.0 / np.bincount(labels)[labels]
    cdf = np.cumsum(weights / weights.sum())
    return cdf / cdf[-1]


def balanced_batch(cdf: np.ndarray, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Sample indices with replacement from ``balanced_cdf(labels)``, bit for bit the draws of
    ``rng.choice(labels.size, size=batch_size, p=weights)`` with the weights that CDF sums,
    at a cost that does not grow with the labels."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return cdf.searchsorted(rng.random(batch_size), side="right")


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
    vector, params = network.param_vector(cfg)
    network.init_params(cfg, rng_init, out=params)
    state = init_adam(network.trainable_shapes(cfg), lr=rc.lr)
    grad_vector = np.zeros(state.m.size)  # every step's backward writes the trained gradients
    grads = network.flat_views(grad_vector, state.shapes)  # into these, laid out as the moments
    snapshot, last_good = network.param_vector(cfg, np.float32)  # as a checkpoint stores them
    snapshot[...] = vector
    history = TrainHistory()
    # weight by the classes actually present; a degenerate day with a
    # single label is trainable, it just cannot teach other classes
    cdf = balanced_cdf(dataset.labels)
    steps_per_epoch = math.ceil(dataset.n_samples / rc.batch_size)
    step = 0
    for _epoch in range(rc.epochs):
        for _ in range(steps_per_epoch):
            idx = balanced_batch(cdf, rc.batch_size, rng_batch)
            batch, y = dataset.gather(idx)
            try:
                _, ctx = network.forward_batch(batch, params, cfg)
                loss = network.batch_loss(ctx, y)
            except NumericError as exc:
                raise TrainingDiverged(step, last_good, str(exc)) from exc
            if not np.isfinite(loss):
                raise TrainingDiverged(step, last_good)
            network.backward_batch(ctx, y, out=grads)
            del ctx  # not held through the next step's gather and forward
            adam_step(vector[: grad_vector.size], grad_vector, state)  # the trainable head
            for k in bof.LOG_SCALES:
                if k in params and params[k] < LOG_SCALE_FLOOR:
                    params[k][...] = LOG_SCALE_FLOOR
            history.loss.append(float(loss))
            g = grads.get("conv_w")
            history.grad_norm_conv.append(float(np.linalg.norm(g)) if g is not None else float("nan"))
            step += 1
        problem = refusal(list(params.items()) + _adam_entries(state))
        if problem is not None:  # or the snapshot would not load
            raise TrainingDiverged(step, last_good, problem)
        snapshot[...] = vector  # accepted: it is the snapshot now
    return TrainResult(params=params, model_cfg=cfg, adam_state=state, history=history)


PREDICT_CHUNK = 128  # windows scored per gather


def predict(params: dict[str, np.ndarray], cfg: ModelConfig, dataset) -> np.ndarray:
    """Argmax class predictions over a whole dataset, ``PREDICT_CHUNK`` windows at a time.

    Each chunk of consecutive samples is gathered as training gathers a batch
    and scored by ``network.forward_batch`` keeping no context, so a row shared
    by many windows goes through the conv once per chunk, and the memberships
    are written over the kernel values. At the paper geometry a chunk of 128
    windows of one day reads 142 rows; its feature table has 138 inner rows and
    512 edge rows (4 edge positions of 128 windows), whose 650 rows of kernel
    values take 1.3 MB at 256 codewords. A training batch of 128 windows drawn
    at random shares fewer rows: its feature table has about 1,100 of the 1,920
    window positions' rows, whose kernel values (2.3 MB) its backward pass keeps.
    """
    n = dataset.n_samples
    preds = np.empty(n, dtype=np.int64)
    for first in range(0, n, PREDICT_CHUNK):
        idx = np.arange(first, min(first + PREDICT_CHUNK, n))
        probs, _ = network.forward_batch(dataset.gather(idx)[0], params, cfg, keep=False)
        preds[idx] = probs.argmax(axis=1)
    return preds


# ---------------------------------------------------------------------------
# checkpoint format: magic "TLNB", version u32 LE, tensor count u32 LE, then
# per tensor: name length u16 LE + UTF-8 name, rank u8, dims u32 LE each,
# payload f32 LE row-major. Each name appears once. Each ModelConfig field
# travels as a rank-0 "meta.<field>" entry, enum-valued ones as their index in
# the run-config choice tuple, so every field but a float one holds a whole
# number, and a bool field 0 or 1; optimizer moments travel as "adam.*" entries.
# The reader reads the layout first and the values second, one payload at a time,
# and widens only the parameters to float64; the moments are read into one float32
# vector each, which adam_step widens when it steps them.

_META_DECODE = {"int": int, "float": float, "bool": bool}


def _meta_entries(cfg: ModelConfig) -> dict[str, object]:
    entries = {}
    for f in fields(ModelConfig):
        value = getattr(cfg, f.name)
        if f.name in CHOICES:
            value = CHOICES[f.name].index(value)
        entries[f"meta.{f.name}"] = value
    return entries


def _config_from_meta(meta: dict[str, float], names_at: dict[str, int], end: int) -> ModelConfig:
    """The model of the metadata values ``meta``; a refused value is located at its entry's
    name (``names_at``: name -> byte), a missing one at ``end``, the end of the tensor table."""
    values = {}
    for f in fields(ModelConfig):
        key = f"meta.{f.name}"
        value, choices = meta.get(key, math.nan), CHOICES.get(f.name)
        if not math.isfinite(value):
            problem = f"model metadata {key} is missing or not finite"
        elif f.type != "float" and not value.is_integer():  # an int, bool or choice field
            problem = f"{key} = {value!r} is not a whole number"
        elif f.type == "bool" and value not in (0.0, 1.0):
            problem = f"{key} = {value!r} is not 0 or 1"
        elif choices is not None and not 0 <= value < len(choices):
            problem = f"{key} = {int(value)} is not an index into {choices}"
        else:
            values[f.name] = _META_DECODE[f.type](value) if choices is None else choices[int(value)]
            continue
        raise FormatError(f"checkpoint {problem}", location=f"byte {names_at.get(key, end)}")
    try:
        return ModelConfig(**values)
    except ValueError as exc:  # located at the first metadata entry
        raise FormatError(f"checkpoint model metadata is inconsistent: {exc}",
                          location=f"byte {min(names_at[k] for k in meta)}") from None


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
            + [(f"adam.{kind}.{k}", a) for kind in "mv"
               for k, a in sorted(network.flat_views(getattr(state, kind), state.shapes).items())])


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
            if name in bof.LOG_SCALES:
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


READ_BLOCK = 16384  # float32 values read at a time, so no buffer of a payload's size is made


class _Reader:
    """Reads an open binary file from its start, never past its end."""

    def __init__(self, fh):
        self.fh, self.off, self.size = fh, 0, fh.seek(0, io.SEEK_END)
        fh.seek(0)

    def need(self, n: int, what: str) -> None:
        if self.off + n > self.size:
            raise FormatError(f"truncated checkpoint while reading {what}", location=f"byte {self.off}")

    def take(self, n: int, what: str, into=None):
        """The next ``n`` bytes, read into ``into`` (``n`` bytes long) if it is given."""
        self.need(n, what)
        into = bytearray(n) if into is None else into
        if self.fh.readinto(into) != n:  # the file shrank while it was read
            raise FormatError(f"checkpoint changed while reading {what}", location=f"byte {self.off}")
        self.off += n
        return into

    def seek(self, off: int) -> None:
        self.off = self.fh.seek(off)


def _check_tensor_set(got: dict[str, tuple], shapes: dict[str, tuple], names_at: dict[str, int],
                      end: int) -> None:
    """Require exactly the tensors of ``shapes``, each with its shape (``got``: name -> shape).
    A refused tensor is located at its name (``names_at``), a missing one at ``end``."""
    missing = [k for k in shapes if k not in got]
    if missing:
        raise FormatError(f"checkpoint lacks tensor {missing[0]} required by its model",
                          location=f"byte {end}")
    unknown = sorted(got.keys() - shapes.keys())
    if unknown:
        raise FormatError(f"checkpoint tensor {unknown[0]} is not part of its model",
                          location=f"byte {names_at[unknown[0]]}")
    for name, shape in shapes.items():
        if got[name] != shape:
            raise FormatError(f"checkpoint tensor {name} has shape {got[name]}, expected {shape}",
                              location=f"byte {names_at[name]}")


def _read_checkpoint(fh, keep_adam: bool = True):
    """:func:`load_checkpoint` of an open file, in two passes. The first reads the layout,
    every name and shape and the metadata values, and checks it before anything is sized
    from the file; the second reads each payload in file order through one scratch array,
    whose blocks :func:`refusal` judges before they are cast."""
    reader = _Reader(fh)
    if reader.take(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError("bad magic, not a TLNB checkpoint", location="byte 0")
    version = struct.unpack("<I", reader.take(4, "version"))[0]
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", location="byte 4")
    count = struct.unpack("<I", reader.take(4, "tensor count"))[0]
    meta: dict[str, float] = {}
    layout: dict[str, tuple[tuple[int, ...], int]] = {}  # every other tensor: dims, payload offset
    names_at: dict[str, int] = {}  # every entry: the offset of its name
    for i in range(count):
        name_len = struct.unpack("<H", reader.take(2, f"name length of tensor {i}"))[0]
        name_at = reader.off
        try:
            name = str(reader.take(name_len, f"name of tensor {i}"), "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"name of tensor {i} is not UTF-8", location=f"byte {name_at}") from None
        if name in names_at:
            raise FormatError(f"checkpoint tensor {name} appears twice", location=f"byte {name_at}")
        names_at[name] = name_at
        rank = reader.take(1, f"rank of {name}")[0]
        if rank > 3:  # no model tensor has more axes
            raise FormatError(f"tensor {name} has rank {rank}, above 3",
                              location=f"byte {reader.off - 1}")
        dims = struct.unpack(f"<{rank}I", reader.take(4 * rank, f"dims of {name}"))
        nbytes, what = 4 * math.prod(dims), f"payload of {name}"
        reader.need(nbytes, what)  # the dims may name any size
        if not name.startswith("meta."):
            layout[name] = dims, reader.off
            reader.seek(reader.off + nbytes)
        elif rank:
            raise FormatError(f"checkpoint model metadata {name} has shape {dims}, not ()",
                              location=f"byte {name_at}")
        else:
            meta[name] = struct.unpack("<f", reader.take(4, what))[0]
    if reader.off != reader.size:
        raise FormatError("trailing bytes after last tensor", location=f"byte {reader.off}")

    cfg = _config_from_meta(meta, names_at, reader.off)
    shapes, trainable = network.param_shapes(cfg), network.trainable_shapes(cfg)
    expected, has_adam = dict(shapes), any(k.startswith("adam.") for k in layout)
    if has_adam:
        expected.update((f"adam.{k}", ()) for k in ADAM_SCALARS)
        expected.update((f"adam.{kind}.{k}", trainable[k]) for kind in "mv" for k in trainable)
    _check_tensor_set({k: dims for k, (dims, _) in layout.items()}, expected, names_at, reader.off)

    params = {k: np.empty(s) for k, s in shapes.items()}
    state = init_adam(trainable, dtype=np.float32) if has_adam and keep_adam else None
    kept = {**params, **dict(_adam_entries(state))} if state else params  # the rest is dropped
    scratch = np.empty(READ_BLOCK, dtype="<f4")
    for name, (dims, at) in layout.items():
        reader.seek(at)
        size, out = math.prod(dims), kept.get(name)
        for lo in range(0, size, READ_BLOCK):
            block = scratch[: min(size - lo, READ_BLOCK)]
            reader.take(block.nbytes, f"payload of {name}", block)
            problem = refusal([(name, block if dims else block.reshape(()))])
            if problem is not None:  # raised before the block is cast: it may hold NaNs
                raise FormatError(f"checkpoint tensor {problem}", location=f"byte {at}")
            if out is not None:
                out.reshape(-1)[lo : lo + block.size] = block
    if state is None:
        return params, cfg, None
    scalars = {k: float(kept[f"adam.{k}"]) for k in ADAM_SCALARS}
    return params, cfg, replace(state, t=int(scalars.pop("t")), **scalars)


def load_checkpoint(path, keep_adam: bool = True):
    """Read a checkpoint; returns (params, model_cfg, adam_state_or_None).

    The layout is checked before any value is read: each name once, the metadata, then the
    tensor set. The parameters are read as float64 and the Adam moments as the float32
    arrays stored, in any tensor order; ``adam_step`` widens the moments as it steps each.
    A refused value is located at the byte where its tensor's payload starts. No buffer of
    the file's size is made. ``keep_adam=False`` checks the Adam state and returns None for it.
    """
    with open(path, "rb") as fh:  # a pipe cannot be sized, so it is read whole
        return _read_checkpoint(fh if fh.seekable() else io.BytesIO(fh.read()), keep_adam)
