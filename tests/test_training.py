import hashlib
import inspect
import itertools
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import adam_step_by_name
from reference import adam_step_per_key, gathered_windows

from tlonbof import config, data, network, training
from tlonbof.config import RunConfig
from tlonbof.errors import FormatError, NumericError, TrainingDiverged
from tlonbof.training import AdamState, adam_step, balanced_batch, init_adam

TINY_TRAIN = dict(n_codewords=8, conv_filters=8, conv_kernel=3, hidden=16)


def small_dataset(n_days=3, rows=120, seed=7, separation=1.0):
    return data.WindowDataset(data.synth_generate(n_days, rows, seed=seed,
                                                  separation=separation))


def test_adam_first_step_formula():
    # with bias correction, step one moves by ~lr * sign(g)
    params = np.zeros(1)
    state = init_adam({"w": (1,)}, lr=1e-4)
    adam_step(params, np.array([0.5]), state)
    expected = -1e-4 * 0.5 / (np.sqrt(0.25) + 1e-8)
    assert params[0] == pytest.approx(expected, rel=1e-9)
    assert state.t == 1


def test_adam_zero_gradient_is_identity():
    params = np.array([1.0, -2.0])
    state = init_adam({"w": (2,)})
    adam_step(params, np.zeros(2), state)
    assert np.array_equal(params, [1.0, -2.0])


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(0)
    w0 = rng.normal(size=5)
    params = w0.copy()
    state = init_adam({"w": (5,)}, lr=1e-2)
    ref_w, m, v = w0.copy(), np.zeros(5), np.zeros(5)
    for t in range(1, 8):
        g = rng.normal(size=5)
        adam_step(params, g.copy(), state)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        ref_w -= 1e-2 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(params, ref_w, atol=1e-12)


BLOCK = training.ADAM_BLOCK
ADAM_SHAPES = {
    "0-d": [()],
    "below a block": [(BLOCK - 1,)],
    "one block": [(BLOCK,)],
    "one past a block": [(BLOCK + 1,)],
    "several blocks": [(5, 48, 512)],
    "mixed": [(), (3,), (BLOCK + 1,), (3, 144, 100), ()],
    "from a checkpoint": None,  # float32 moments and t as a checkpoint stores them
}


def _bits_of(arrays: dict) -> dict:
    return {k: v.tobytes() for k, v in arrays.items()}


def _adam_against_the_per_key_step(state):
    """Three steps of vector Adam and of the per-key one from ``state``, every value bit for bit.

    The per-key step starts from the moments widened to float64, as the first vector step
    widens them."""
    rng = np.random.default_rng(1)
    vector = rng.normal(size=state.m.size)
    params = network.flat_views(vector, state.shapes)
    want = {k: v.copy() for k, v in params.items()}
    ref = replace(state, **{kind: {k: a.astype(np.float64) for k, a in
                                   network.flat_views(getattr(state, kind), state.shapes).items()}
                            for kind in "mv"})
    for _ in range(3):
        grads = rng.normal(size=vector.size)
        adam_step(vector, grads.copy(), state)
        adam_step_per_key(want, network.flat_views(grads, state.shapes), ref)
    assert state.t == ref.t
    assert _bits_of(params) == _bits_of(want)
    assert _bits_of(network.flat_views(state.m, state.shapes)) == _bits_of(ref.m)
    assert _bits_of(network.flat_views(state.v, state.shapes)) == _bits_of(ref.v)


@pytest.mark.parametrize("shapes", ADAM_SHAPES.values(), ids=ADAM_SHAPES.keys())
def test_blocked_adam_is_the_per_key_step_bit_for_bit(tmp_path, shapes):
    if shapes is None:
        path = tmp_path / "model.tlnb"
        _checkpoint_with_moments(path)
        state = training.load_checkpoint(path)[2]
        assert state.m.dtype == state.v.dtype == np.float32 and state.t == 5
        assert state.m.size > 2 * BLOCK
    else:
        state = init_adam({f"p{i}": shape for i, shape in enumerate(shapes)}, lr=1e-2)
    _adam_against_the_per_key_step(state)


def test_adam_rejects_shape_mismatch():
    state = init_adam({"w": (2, 2)})
    with pytest.raises(ValueError):
        adam_step(np.zeros(4), np.zeros(3), state)
    with pytest.raises(ValueError):
        adam_step(np.zeros(3), np.zeros(3), state)


def test_balanced_batch_equalizes_classes():
    # 900/50/50 counts: inverse-frequency sampling should draw ~1/3 each
    labels = np.concatenate([np.zeros(900), np.ones(50), np.full(50, 2)]).astype(int)
    rng = np.random.default_rng(0)
    draws = np.concatenate([balanced_batch(labels, 1000, rng) for _ in range(10)])
    freq = np.bincount(labels[draws], minlength=3) / draws.size
    # 3 standard errors of a 10000-draw trinomial
    assert np.all(np.abs(freq - 1 / 3) < 3 * np.sqrt((1 / 3) * (2 / 3) / draws.size) + 0.01)


def test_balanced_batch_validates():
    with pytest.raises(ValueError):
        balanced_batch(np.array([], dtype=int), 4, np.random.default_rng(0))
    # the observed classes are enough
    idx = balanced_batch(np.array([1, 1, 1]), 4, np.random.default_rng(0))
    assert idx.shape == (4,)


def test_train_is_deterministic():
    ds = small_dataset()
    rc = RunConfig(batch_size=16, epochs=2, seed=3, **TINY_TRAIN)
    a = training.train(rc, ds)
    b = training.train(rc, ds)
    assert a.history.loss == b.history.loss
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_train_zero_epochs_returns_initialization():
    ds = small_dataset()
    rc = RunConfig(epochs=0, seed=11, **TINY_TRAIN)
    result = training.train(rc, ds)
    rng_init, _ = np.random.Generator(np.random.PCG64(11)).spawn(2)
    cfg = network.ModelConfig.from_run(rc, float(ds.window))
    expected = network.init_params(cfg, rng_init)
    assert result.history.steps == 0
    for k in expected:
        assert np.array_equal(result.params[k], expected[k])


def test_seeded_streams_are_pinned():
    # sha256 of the initial parameters and of the first sampler draws for a
    # fixed seed: uniform and choice draws with no BLAS, so the digests hold
    # on every platform; a change here changes every trained model
    ds = small_dataset()
    params = training.train(RunConfig(batch_size=16, epochs=0, seed=5, **TINY_TRAIN), ds).params
    digest = hashlib.sha256()
    for k in sorted(params):
        digest.update(k.encode())
        digest.update(params[k].astype("<f8").tobytes())
    assert digest.hexdigest() == "ba573dd24fd8b5dd16142d2ad509736086fac4051820d138db28f259e6caca86"
    _, rng_batch = np.random.Generator(np.random.PCG64(5)).spawn(2)
    draws = np.concatenate([balanced_batch(ds.labels, 16, rng_batch) for _ in range(3)])
    assert (hashlib.sha256(draws.astype("<i8").tobytes()).hexdigest()
            == "d59d188f61d2885beb52c6cf93d3d216364c4f1d276c381498d55bffa90630f9")


def test_train_steps_per_epoch_is_ceil():
    ds = small_dataset(n_days=2, rows=100)  # 152 samples
    rc = RunConfig(batch_size=100, epochs=3, **TINY_TRAIN)
    result = training.train(rc, ds)
    assert result.history.steps == 3 * int(np.ceil(ds.n_samples / 100))


def test_train_memorizes_small_set():
    from tlonbof import metrics

    ds = small_dataset(n_days=2, rows=60, seed=5)  # 72 samples
    rc = RunConfig(batch_size=32, epochs=60, lr=3e-3, seed=0, **TINY_TRAIN)
    result = training.train(rc, ds)
    preds = training.predict(result.params, result.model_cfg, ds)
    cm = metrics.confusion(ds.labels, preds)
    assert metrics.macro_prf(cm)[2] >= 0.95


def test_train_nan_guard_reports_step_and_snapshot():
    corpus = data.synth_generate(2, 60, seed=1)
    corpus[0].features[10, :] = np.nan  # poison one training row
    ds = data.WindowDataset(corpus)
    rc = RunConfig(batch_size=ds.n_samples, epochs=2, seed=0, **TINY_TRAIN)
    with pytest.raises(TrainingDiverged) as err:
        training.train(rc, ds)
    assert err.value.step == 0
    snap = err.value.last_good_params
    assert all(np.all(np.isfinite(v)) for v in snap.values())


def test_a_diverged_run_saves_the_checkpoint_of_a_float64_snapshot(monkeypatch):
    # the snapshot is kept as float32, the values a checkpoint stores, so the
    # last-good checkpoint has the bytes one written from float64 would have
    corpus = data.synth_generate(2, 60, seed=1)
    corpus[0].features[10, :] = np.nan
    ds = data.WindowDataset(corpus)
    rc = RunConfig(batch_size=ds.n_samples, epochs=2, seed=0, **TINY_TRAIN)
    with pytest.raises(TrainingDiverged) as err:
        training.train(rc, ds)
    cfg = network.ModelConfig.from_run(rc, float(ds.window))
    init = network.init_params(cfg, np.random.Generator(np.random.PCG64(0)).spawn(2)[0])
    snap = err.value.last_good_params
    assert all(v.dtype == np.float32 for v in snap.values())
    assert training.serialize_checkpoint(snap, cfg) == training.serialize_checkpoint(init, cfg)

    # a loss that turns non-finite in epoch 3 leaves epoch 2's parameters
    ds = small_dataset(n_days=2, rows=40, seed=2)
    rc = RunConfig(batch_size=16, epochs=2, seed=0, **TINY_TRAIN)
    two_epochs = training.train(rc, ds)
    real_loss = network.batch_loss
    losses = iter(range(10**6))

    def loss_then_nan(ctx, labels):
        return real_loss(ctx, labels) if next(losses) < 4 else float("nan")

    monkeypatch.setattr(network, "batch_loss", loss_then_nan)
    with pytest.raises(TrainingDiverged) as err:
        training.train(replace(rc, epochs=3), ds)
    assert err.value.step == 4
    assert (training.serialize_checkpoint(err.value.last_good_params, two_epochs.model_cfg)
            == training.serialize_checkpoint(two_epochs.params, two_epochs.model_cfg))


class _WindowsOfTheirOwn(data.WindowDataset):
    """The same batches, each window gathered as rows of its own."""

    def gather(self, indices):
        batch, labels = super().gather(indices)
        return gathered_windows(batch), labels


def test_training_on_the_row_table_is_training_on_the_gathered_windows():
    # the acceptance geometry, 27 steps of 96 windows: the conv forward is
    # the same sum either way, and the conv weight gradient sums each row's
    # terms in another order, so later steps may move in the last bits
    corpus = data.synth_generate(3, 300, seed=5)
    rc = RunConfig(batch_size=96, epochs=3, lr=3e-3, seed=2, conv_filters=32, n_codewords=32,
                   hidden=64)
    table = training.train(rc, data.WindowDataset(corpus))
    gathered = training.train(rc, _WindowsOfTheirOwn(corpus))
    assert table.history.steps == gathered.history.steps == 27
    assert table.history.loss[0] == gathered.history.loss[0]
    for history in ("loss", "grad_norm_conv"):
        got = np.array(getattr(table.history, history))
        want = np.array(getattr(gathered.history, history))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).min(), history


def test_a_training_step_holds_one_set_of_gradients(monkeypatch):
    # step 1's gradients are still held when step 2's backward runs; that
    # backward writes into them, so it allocates less than one gradient set
    # (about half of one here: its temporaries), not a second set (1.5)
    real_backward = network.backward_batch
    calls = []

    def traced_backward(*args, **kwargs):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = real_backward(*args, **kwargs)
        calls.append((tracemalloc.get_traced_memory()[1] - held, dict(grads)))
        return grads

    monkeypatch.setattr(network, "backward_batch", traced_backward)
    ds = small_dataset(n_days=2, rows=40, seed=2)  # 32 samples: 2 steps of 16
    rc = RunConfig(batch_size=16, epochs=1, seed=0, n_codewords=8, conv_filters=32,
                   conv_kernel=3, hidden=64)
    tracemalloc.start()
    try:
        result = training.train(rc, ds)
    finally:
        tracemalloc.stop()
    assert len(calls) == result.history.steps == 2
    (_, first), (grown, second) = calls
    assert grown < sum(g.nbytes for g in first.values())
    assert second.keys() == first.keys() and all(second[k] is first[k] for k in first)


@pytest.mark.parametrize("run", ["plain", "floored", "diverged"])
def test_the_training_state_stays_views_of_its_vectors(monkeypatch, run):
    # at the end of a run every parameter and gradient is a view of its vector, and the Adam
    # head of each is the moments' layout: code that rebinds a key breaks this. The floored
    # run sinks log_cu after each step, so the floor writes into its view; the diverged one
    # ends with a non-finite loss in epoch 2, whose snapshot is views of one float32 vector
    seen = {}
    real_forward, real_backward = network.forward_batch, network.backward_batch
    real_step, real_loss = training.adam_step, network.batch_loss
    losses = iter(range(10**6))

    def forward(batch, params, cfg):
        seen["params"] = params
        return real_forward(batch, params, cfg)

    def backward(ctx, labels, out=None):
        seen["grads"] = out
        return real_backward(ctx, labels, out=out)

    def step(params, grads, state):
        real_step(params, grads, state)
        seen.update(head=params, grad_head=grads, state=state)
        if run == "floored":
            network.flat_views(params, state.shapes)["log_cu"][...] = -50.0

    def loss(ctx, labels):
        return real_loss(ctx, labels) if run != "diverged" or next(losses) < 3 else float("nan")

    monkeypatch.setattr(network, "forward_batch", forward)
    monkeypatch.setattr(network, "backward_batch", backward)
    monkeypatch.setattr(training, "adam_step", step)
    monkeypatch.setattr(network, "batch_loss", loss)
    ds = small_dataset(n_days=2, rows=40, seed=2)  # 32 samples: 2 steps of 16 per epoch
    rc = RunConfig(batch_size=16, epochs=2, seed=0, **TINY_TRAIN)
    if run == "diverged":
        with pytest.raises(TrainingDiverged) as err:
            training.train(rc, ds)
        assert err.value.step == 3
        snapshot = err.value.last_good_params
        whole = snapshot["fc1_w"].base
        assert whole.dtype == np.float32 and whole.size == sum(v.size for v in snapshot.values())
        assert all(np.shares_memory(v, whole) for v in snapshot.values())
    else:
        assert training.train(rc, ds).params is seen["params"]
    params, grads, state = seen["params"], seen["grads"], seen["state"]
    head, grad_head = seen["head"], seen["grad_head"]
    assert list(params) == list(network.param_shapes(network.ModelConfig.from_run(rc, ds.window)))
    for arrays, vector in [(params, head.base), (grads, grad_head.base)]:
        assert vector.size == sum(v.size for v in arrays.values())
        assert all(np.shares_memory(v, vector) for v in arrays.values())
    for k, view in network.flat_views(head, state.shapes).items():
        assert np.shares_memory(params[k], view) and np.array_equal(params[k], view), k
    for k, view in network.flat_views(grad_head, state.shapes).items():
        assert np.shares_memory(grads[k], view) and np.array_equal(grads[k], view), k
    for name, view in training._adam_entries(state)[len(training.ADAM_SCALARS) :]:
        assert np.shares_memory(view, state.m if name.startswith("adam.m.") else state.v)
    if run == "floored":
        assert params["log_cu"].tobytes() == np.array(training.LOG_SCALE_FLOOR).tobytes()


# two training steps in a fresh process, then whether numpy.ma was imported
TRAIN_STEP_PROBE = """
import sys
from tlonbof import data, training
from tlonbof.config import RunConfig
ds = data.WindowDataset(data.synth_generate(2, 40, seed=2))
rc = RunConfig(batch_size=16, epochs=1, n_codewords=8, conv_filters=8, conv_kernel=3, hidden=16)
assert training.train(rc, ds).history.steps == 2
print("numpy.ma" in sys.modules)
"""


def test_a_training_step_does_not_import_numpy_ma():
    # numpy.ma costs about 1.5 MB and 10 ms to import; np.unique imports it
    # unless it is asked for indices or the inverse
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(training.__file__))}
    out = subprocess.run([sys.executable, "-c", TRAIN_STEP_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_predict_chunking_is_invisible(monkeypatch):
    # days of different lengths; the 20-row day is too short to give a window
    corpus = [data.synth_generate(1, n, seed=n)[0] for n in (80, 20, 143, 61)]
    for day_id, series in enumerate(corpus, start=1):
        series.day_id = day_id
    ds = data.WindowDataset(corpus)
    assert ds.n_samples == 56 + 0 + 119 + 37
    rc = RunConfig(epochs=1, **TINY_TRAIN)
    r = training.train(rc, ds)
    x, _ = ds.gather(np.arange(ds.n_samples))
    probs, _ = network.forward_batch(x, r.params, r.model_cfg)
    want = probs.argmax(axis=1)
    for chunk in (1, 7, 128, 512):
        monkeypatch.setattr(training, "PREDICT_CHUNK", chunk)
        assert np.array_equal(training.predict(r.params, r.model_cfg, ds), want)


# ---------------------------------------------------------------------------
# checkpoints


def trained_result(epochs=2):
    ds = small_dataset(n_days=2, rows=80)
    rc = RunConfig(batch_size=32, epochs=epochs, seed=4, **TINY_TRAIN)
    return training.train(rc, ds), ds


def test_checkpoint_round_trip(tmp_path):
    result, _ = trained_result()
    path = tmp_path / "model.tlnb"
    training.save_checkpoint(path, result.params, result.model_cfg, result.adam_state)
    params, cfg, state = training.load_checkpoint(path)
    assert cfg == result.model_cfg
    assert sorted(params) == sorted(result.params)
    for k, v in result.params.items():
        # f32 storage: relative error bounded by single-precision epsilon
        assert np.allclose(params[k], v, rtol=1e-6, atol=1e-7)
    assert state.t == result.adam_state.t
    assert state.lr == pytest.approx(result.adam_state.lr)
    assert state.shapes == result.adam_state.shapes
    assert np.allclose(state.m, result.adam_state.m, rtol=1e-6, atol=1e-12)


def test_checkpoint_without_optimizer_state(tmp_path):
    result, _ = trained_result()
    path = tmp_path / "model.tlnb"
    training.save_checkpoint(path, result.params, result.model_cfg)
    _, cfg, state = training.load_checkpoint(path)
    assert state is None
    assert cfg == result.model_cfg


def test_loaded_moments_stay_stored_float32_until_adam_steps_them(tmp_path):
    result, ds = trained_result(epochs=1)
    path = tmp_path / "model.tlnb"
    training.save_checkpoint(path, result.params, result.model_cfg, result.adam_state)
    params, cfg, state = training.load_checkpoint(path)
    assert all(v.dtype == np.float64 for v in params.values())
    assert state.shapes == result.adam_state.shapes
    for kind in ("m", "v"):
        got, stored = getattr(state, kind), getattr(result.adam_state, kind)
        assert got.dtype == np.float32 and np.array_equal(got, stored.astype(np.float32)), kind
    x, y = ds.gather(np.arange(16))
    _, ctx = network.forward_batch(x, params, cfg)
    grads = network.backward_batch(ctx, y)
    adam_step_by_name(params, grads, state)
    assert state.m.dtype == state.v.dtype == np.float64
    widened = state.m, state.v  # once: later steps update these vectors in place
    adam_step_by_name(params, grads, state)
    assert (state.m, state.v) == widened


def test_load_checkpoint_peak_is_the_file_and_the_float64_parameters(tmp_path):
    # the moments are not widened, so loading costs the file's bytes and the
    # float64 parameters, plus less than one tensor's float32 bytes of scratch
    cfg = network.ModelConfig(conv_filters=64, n_codewords=64, hidden=128)
    rng = np.random.default_rng(0)
    params = network.init_params(cfg, rng)
    state = init_adam(network.trainable_shapes(cfg))
    state.m[...] = rng.normal(size=state.m.size)
    state.v[...] = rng.random(state.v.size)
    path = tmp_path / "model.tlnb"
    training.save_checkpoint(path, params, cfg, state)
    training.load_checkpoint(path)  # first-call allocations are not the reader's
    tracemalloc.start()
    try:
        training.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sizes = [v.size for v in params.values()]
    assert peak < path.stat().st_size + 8 * sum(sizes) + 4 * max(sizes)


PEAK_CFG = network.ModelConfig(conv_filters=64, n_codewords=64, hidden=128)


def _checkpoint_with_moments(path, cfg=PEAK_CFG):
    """Save a checkpoint of ``cfg`` with drawn Adam moments at t = 5; returns (params, state)."""
    rng = np.random.default_rng(0)
    params = network.init_params(cfg, rng)
    state = init_adam(network.trainable_shapes(cfg))
    state.m[...] = rng.normal(size=state.m.size)
    state.v[...] = rng.random(state.v.size)
    state.t = 5
    training.save_checkpoint(path, params, cfg, state)
    return params, state


def _traced_peak(call):
    """The tracemalloc peak of ``call()``, after one untraced call."""
    call()  # first-call allocations are not the reader's
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_checkpoint_peak_is_what_it_returns(tmp_path):
    # the payloads go through one block-sized scratch, so no buffer of the file is made:
    # the peak is the float64 parameters and the float32 moments returned, plus less
    # than one tensor's float32 bytes
    path = tmp_path / "model.tlnb"
    params, state = _checkpoint_with_moments(path)
    peak = _traced_peak(lambda: training.load_checkpoint(path))
    sizes = [v.size for v in params.values()]
    assert peak < 8 * sum(sizes) + 2 * 4 * state.m.size + 4 * max(sizes)
    assert max(sizes) > training.READ_BLOCK  # a payload of several blocks
    back, _, back_state = training.load_checkpoint(path)
    for k, v in params.items():
        assert back[k].dtype == np.float64
        assert back[k].tobytes() == v.astype(np.float32).astype(np.float64).tobytes(), k
    for kind in ("m", "v"):
        got, stored = getattr(back_state, kind), getattr(state, kind)
        assert got.flags.writeable and got.tobytes() == stored.astype(np.float32).tobytes()


def test_a_load_that_drops_the_adam_state_holds_only_the_float64_parameters(tmp_path):
    # what eval --model reads: the moments are checked through the scratch and dropped
    path = tmp_path / "model.tlnb"
    params, _ = _checkpoint_with_moments(path)
    peak = _traced_peak(lambda: training.load_checkpoint(path, keep_adam=False))
    sizes = [v.size for v in params.values()]
    assert peak < 8 * sum(sizes) + 4 * max(sizes)
    bare, cfg, state = training.load_checkpoint(path, keep_adam=False)
    full, full_cfg, _ = training.load_checkpoint(path)
    assert state is None and cfg == full_cfg
    assert all(bare[k].tobytes() == full[k].tobytes() for k in full)


def test_a_payload_the_file_cannot_hold_is_refused_before_it_is_allocated(tmp_path):
    # 65536 x 65536 float32 values are 16 GiB, which numpy could try to allocate; the
    # reader bounds each payload by the bytes left in the file first
    header = training._encode_tensors([])[:8] + struct.pack("<IH", 1, 1) + b"x"
    dims = struct.pack("<B2I", 2, 65536, 65536)
    path = tmp_path / "model.tlnb"
    path.write_bytes(header + dims + bytes(1 << 20))

    def load():
        with pytest.raises(FormatError) as err:
            training.load_checkpoint(path)
        return err.value

    peak = _traced_peak(load)
    err = load()
    assert str(err).startswith("truncated checkpoint while reading payload of x")
    assert err.location == f"byte {len(header) + len(dims)}"
    assert peak < path.stat().st_size
    with pytest.raises(FormatError) as again:
        training.deserialize_checkpoint(path.read_bytes())
    assert str(again.value) == str(err)


def test_moment_vectors_are_not_sized_beyond_the_file():
    # the reader sizes the moment vectors from the metadata before them; metadata naming a
    # model whose moments the rest of the file cannot hold gets none, and the shape check
    # refuses the file
    params = network.init_params(LAYOUT_CFG, np.random.default_rng(0))
    meta = training._meta_entries(LAYOUT_CFG)
    meta["meta.hidden"] = 1e9  # moments of over 1e10 values
    blob = training._encode_tensors(
        sorted(params.items()) + [(k, np.array(v)) for k, v in sorted(meta.items())]
        + training._adam_entries(init_adam(network.trainable_shapes(LAYOUT_CFG))))

    def load():
        with pytest.raises(FormatError) as err:
            training.deserialize_checkpoint(blob)
        return err.value

    peak = _traced_peak(load)
    assert "checkpoint tensor fc1_w has shape" in str(load())
    assert peak < 1 << 20  # vectors for those moments would take over 40 GB


@pytest.mark.parametrize("block", [1, 5, 1000])
def test_the_read_block_changes_no_value_and_no_refusal(monkeypatch, block):
    params = network.init_params(LAYOUT_CFG, np.random.default_rng(0))
    state = init_adam(network.trainable_shapes(LAYOUT_CFG))
    fc1_w = network.flat_views(state.m, state.shapes)["fc1_w"]
    fc1_w[...] = np.random.default_rng(1).normal(size=fc1_w.shape)
    blob = training.serialize_checkpoint(params, LAYOUT_CFG, state)
    whole = training.deserialize_checkpoint(blob)
    monkeypatch.setattr(training, "READ_BLOCK", block)
    got = training.deserialize_checkpoint(blob)
    assert got[1] == whole[1]
    assert all(got[0][k].tobytes() == whole[0][k].tobytes() for k in whole[0])
    assert got[2].m.tobytes() == whole[2].m.tobytes() and got[2].v.tobytes() == whole[2].v.tobytes()

    def last_value_nan(tensors):  # in the last block of fc1_w
        tensors["fc1_w"] = tensors["fc1_w"].copy()
        tensors["fc1_w"].flat[-1] = np.nan

    with pytest.raises(FormatError, match="checkpoint tensor fc1_w is non-finite"):
        training.deserialize_checkpoint(_layout_blob(last_value_nan))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_checkpoint_reads_a_pipe(tmp_path):
    # a pipe has no size to bound the payloads by, so it is read whole
    params = network.init_params(LAYOUT_CFG, np.random.default_rng(0))
    blob = training.serialize_checkpoint(
        params, LAYOUT_CFG, init_adam(network.trainable_shapes(LAYOUT_CFG)))
    fifo = tmp_path / "model.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
    writer.start()
    got = training.load_checkpoint(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    want = training.deserialize_checkpoint(blob)
    assert got[1] == want[1] and got[2].t == want[2].t
    assert all(got[0][k].tobytes() == want[0][k].tobytes() for k in want[0])


def test_a_signalling_nan_is_refused_without_a_cast_warning():
    # widening a signalling NaN to float64 raises numpy's invalid-value warning, which
    # the test settings turn into an error: refused values are not widened
    snan = np.frombuffer(struct.pack("<I", 0x7F800001), dtype="<f4")[0]
    with pytest.raises(FormatError, match="checkpoint tensor conv_b is non-finite"):
        training.deserialize_checkpoint(_layout_blob(_set("conv_b", snan)))


def test_checkpoint_magic_and_truncation(tmp_path):
    result, _ = trained_result()
    path = tmp_path / "model.tlnb"
    training.save_checkpoint(path, result.params, result.model_cfg)
    blob = path.read_bytes()
    assert blob[:4] == b"TLNB"

    with pytest.raises(FormatError):
        training.deserialize_checkpoint(b"NOPE" + blob[4:])
    with pytest.raises(FormatError) as err:
        training.deserialize_checkpoint(blob[: len(blob) // 2])
    assert "byte" in str(err.value)
    with pytest.raises(FormatError):
        training.deserialize_checkpoint(blob + b"extra")
    # a tensor whose dims multiply past 2**64 values: the size must not wrap
    header = blob[:8] + struct.pack("<IH", 1, 1) + b"x"
    with pytest.raises(FormatError) as err:
        training.deserialize_checkpoint(header + struct.pack("<B3I", 3, 2**31, 2**31, 4))
    assert "truncated" in str(err.value)
    with pytest.raises(FormatError) as err:
        training.deserialize_checkpoint(header + struct.pack("<B", 109) + bytes(436))
    assert "rank 109" in str(err.value)


def test_checkpoint_non_utf8_name_is_format_error():
    blob = bytearray(training.serialize_checkpoint({}, network.ModelConfig()))
    # magic, version and count take 12 bytes, the first name length 2 more
    blob[14] = 0xFF
    with pytest.raises(FormatError) as err:
        training.deserialize_checkpoint(bytes(blob))
    assert "UTF-8" in str(err.value) and "byte 14" in str(err.value)


def test_checkpoint_bad_version():
    blob = bytearray(training.serialize_checkpoint({}, network.ModelConfig(
        arch=config.ARCH_TLONBOF, avg_seq_len=4.0)))
    blob[4] = 99
    with pytest.raises(FormatError) as err:
        training.deserialize_checkpoint(bytes(blob))
    assert "version" in str(err.value)


def test_resume_matches_quantized_state_exactly(tmp_path):
    """One post-reload Adam step equals one step from the f32-quantized state."""
    result, ds = trained_result(epochs=1)
    path = tmp_path / "model.tlnb"
    training.save_checkpoint(path, result.params, result.model_cfg, result.adam_state)
    loaded_params, cfg, loaded_state = training.load_checkpoint(path)

    def quant(arr):
        return np.asarray(arr, dtype="<f4").astype(np.float64)

    ref_params = {k: quant(v) for k, v in result.params.items()}
    # the checkpoint rounds every stored value through f32, the Adam
    # hyperparameters included, so the reference must as well
    ref_state = AdamState(
        result.adam_state.shapes,
        m=quant(result.adam_state.m),
        v=quant(result.adam_state.v),
        t=result.adam_state.t,
        lr=float(quant(result.adam_state.lr)),
        beta1=float(quant(result.adam_state.beta1)),
        beta2=float(quant(result.adam_state.beta2)),
        eps=float(quant(result.adam_state.eps)),
    )
    x, y = ds.gather(np.arange(16))
    for params, state in ((loaded_params, loaded_state), (ref_params, ref_state)):
        _, ctx = network.forward_batch(x, params, cfg)
        adam_step_by_name(params, network.backward_batch(ctx, y), state)
    for k in ref_params:
        assert np.array_equal(loaded_params[k], ref_params[k]), k
    assert loaded_state.t == ref_state.t


def test_checkpoint_meta_round_trips_every_enumerated_value():
    checked = 0
    for arch, kernel, scaling, deep, nested, kpl in itertools.product(
        config.ARCH_CHOICES, config.KERNEL_CHOICES, config.SCALING_CHOICES,
        (False, True), (False, True), (False, True),
    ):
        if arch == config.ARCH_CNN_GAP and not deep:
            continue  # rejected by ModelConfig itself
        cfg = network.ModelConfig(arch=arch, kernel=kernel, adaptive_scaling=scaling,
                                  deep_features=deep, nested_regions=nested,
                                  kernel_param_learning=kpl, d_in=7, n_regions=2,
                                  avg_seq_len=12.5)
        params = network.init_params(cfg, np.random.default_rng(0))
        _, back, _ = training.deserialize_checkpoint(training.serialize_checkpoint(params, cfg))
        assert back == cfg
        checked += 1
    assert checked == 72


def test_checkpoint_meta_bytes_are_pinned():
    # digest of the format as first shipped; a change here breaks old checkpoints
    cfg = network.ModelConfig(arch="tlonbof", d_in=40, conv_filters=12, conv_kernel=3,
                              n_codewords=6, n_regions=2, hidden=10, n_classes=3,
                              kernel="gaussian", deep_features=False, nested_regions=True,
                              kernel_param_learning=False, adaptive_scaling="frozen",
                              avg_seq_len=12.5)
    digest = hashlib.sha256(training.serialize_checkpoint({}, cfg)).hexdigest()
    assert digest == "0ce0e3b422d140ef761b3a54d5c757ba74ee8650ff2250764c501ff54ba732c3"


@pytest.mark.parametrize("key,value", [
    ("meta.arch", 2.0), ("meta.kernel", -1.0), ("meta.hidden", float("nan")), ("meta.d_in", None),
    ("meta.n_regions", [3.0, 3.0]),
])
def test_checkpoint_bad_meta_is_format_error(key, value):
    meta = training._meta_entries(network.ModelConfig())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    blob = training._encode_tensors([(k, np.array(v)) for k, v in sorted(meta.items())])
    with pytest.raises(FormatError) as err:
        training.deserialize_checkpoint(blob)
    assert key in str(err.value)


LAYOUT_CFG = network.ModelConfig(d_in=5, conv_filters=4, conv_kernel=3, n_codewords=4, hidden=6)


def _layout_blob(edit, cfg=LAYOUT_CFG):
    """A checkpoint of a small model with ``edit`` applied to its named tensors."""
    tensors = network.init_params(cfg, np.random.default_rng(0))
    tensors.update((k, np.array(v)) for k, v in training._meta_entries(cfg).items())
    edit(tensors)
    return training._encode_tensors(sorted(tensors.items()))


ADAM_WITHOUT_T = {"adam.lr": 1e-4, "adam.beta1": 0.9, "adam.beta2": 0.999, "adam.eps": 1e-8}


def _add_adam_state(tensors):
    tensors.update((k, np.array(v)) for k, v in ADAM_WITHOUT_T.items())
    tensors["adam.t"] = np.array(1.0)
    for k in network.trainable_shapes(LAYOUT_CFG):
        tensors[f"adam.m.{k}"] = np.zeros_like(tensors[k])
        tensors[f"adam.v.{k}"] = np.zeros_like(tensors[k])


def _with_mis_shaped_moment(tensors):
    _add_adam_state(tensors)
    tensors["adam.m.fc1_w"] = np.zeros(3)


@pytest.mark.parametrize("edit,name", [
    (lambda t: t.pop("fc1_w"), "fc1_w"),
    (lambda t: t.update(fc2_b=np.zeros(2)), "fc2_b"),
    (lambda t: t.update(stray=np.zeros(1)), "stray"),
    (lambda t: t.update((k, np.array(v)) for k, v in ADAM_WITHOUT_T.items()), "adam.t"),
    (_with_mis_shaped_moment, "adam.m.fc1_w"),
], ids=["missing", "mis-shaped", "unknown", "partial-adam-scalars", "mis-shaped-adam-moment"])
def test_checkpoint_tensors_must_match_model_metadata(edit, name):
    with pytest.raises(FormatError) as err:
        training.deserialize_checkpoint(_layout_blob(edit))
    assert name in str(err.value)


def _set(name, value):
    return lambda t: t.__setitem__(name, np.full(np.shape(t[name]), value))


def _with_adam_state(name, value):
    def edit(tensors):
        _add_adam_state(tensors)
        tensors[name] = np.full(np.shape(tensors[name]), value)
    return edit


@pytest.mark.parametrize("edit,name", [
    (_set("fc1_w", np.nan), "fc1_w"),
    (_set("conv_b", np.inf), "conv_b"),
    (_set("log_cu", -np.inf), "log_cu"),
    (_set("log_cu", -800.0), "log_cu"),
    (_set("log_cs", 800.0), "log_cs"),
    (_with_adam_state("adam.lr", np.nan), "adam.lr"),
    (_with_adam_state("adam.v.codebook", -np.inf), "adam.v.codebook"),
], ids=["nan-param", "inf-param", "log-cu-minus-inf", "log-cu-exp-zero", "log-cs-exp-inf",
        "nan-adam-scalar", "inf-adam-moment"])
def test_checkpoint_non_finite_values_are_format_errors(edit, name):
    with pytest.raises(FormatError) as err:
        training.deserialize_checkpoint(_layout_blob(edit))
    assert name in str(err.value)


@pytest.mark.parametrize("edit,name", [
    (lambda t: t.update((k, np.array(v)) for k, v in ADAM_WITHOUT_T.items()), "adam.t"),
    (_with_mis_shaped_moment, "adam.m.fc1_w"),
    (_with_adam_state("adam.lr", np.nan), "adam.lr"),
    (_with_adam_state("adam.v.codebook", -np.inf), "adam.v.codebook"),
], ids=["partial-adam-scalars", "mis-shaped-adam-moment", "nan-adam-scalar", "inf-adam-moment"])
def test_a_load_that_drops_the_adam_state_still_refuses_it(tmp_path, edit, name):
    path = tmp_path / "model.tlnb"
    path.write_bytes(_layout_blob(edit))
    with pytest.raises(FormatError) as err:
        training.load_checkpoint(path, keep_adam=False)
    assert name in str(err.value)
    with pytest.raises(FormatError) as kept:
        training.load_checkpoint(path)
    assert str(kept.value) == str(err.value)


@pytest.mark.parametrize("name,value", [
    ("fc1_w", np.nan), ("conv_b", -np.inf), ("log_cs", 1e39), ("adam.v.codebook", 3.5e38),
    ("adam.m.alpha", -1e300),
])
def test_serialize_refuses_values_float32_cannot_hold(name, value):
    params = network.init_params(LAYOUT_CFG, np.random.default_rng(0))
    state = init_adam(network.trainable_shapes(LAYOUT_CFG))
    prefix, _, key = name.rpartition(".")
    target = network.flat_views(getattr(state, prefix[-1]), state.shapes) if prefix else params
    target[key][...] = value
    with pytest.raises(NumericError) as err:
        training.serialize_checkpoint(params, LAYOUT_CFG, state)
    assert name in str(err.value)


# 709.7827 has a finite exp in float64, but it rounds to 709.78271484375 in
# the float32 payload, whose exp overflows
@pytest.mark.parametrize("value", [3.5e9, 709.7827])
def test_serialize_refuses_a_log_scale_whose_stored_factor_overflows(value):
    params = network.init_params(LAYOUT_CFG, np.random.default_rng(0))
    params["log_cs"][...] = value
    with pytest.raises(NumericError, match="checkpoint tensor log_cs"):
        training.serialize_checkpoint(params, LAYOUT_CFG)


@pytest.mark.parametrize("value", [3.5e9, 709.7827])
def test_train_keeps_only_snapshots_that_save_and_load(monkeypatch, value):
    # one step per epoch; the update leaves log_cs where its float32 rounding overflows
    real_step = training.adam_step

    def step_then_push_scale(params, grads, state):
        real_step(params, grads, state)
        network.flat_views(params, state.shapes)["log_cs"][...] = value

    monkeypatch.setattr(training, "adam_step", step_then_push_scale)
    ds = small_dataset(n_days=2, rows=40, seed=2)
    rc = RunConfig(batch_size=ds.n_samples, epochs=1, seed=0, **TINY_TRAIN)
    with pytest.raises(TrainingDiverged, match="log_cs") as err:
        training.train(rc, ds)
    cfg = network.ModelConfig.from_run(rc, float(ds.window))
    training.deserialize_checkpoint(
        training.serialize_checkpoint(err.value.last_good_params, cfg))


def test_serialize_keeps_the_float32_maximum():
    params = network.init_params(LAYOUT_CFG, np.random.default_rng(0))
    params["fc2_b"][:] = config.F32_MAX
    loaded, _, _ = training.deserialize_checkpoint(
        training.serialize_checkpoint(params, LAYOUT_CFG))
    assert (loaded["fc2_b"] == config.F32_MAX).all()


@pytest.mark.parametrize("sigma", [0.0, -0.0, -1.0])
def test_checkpoint_non_positive_sigma_is_format_error(sigma):
    # serialize_checkpoint refuses such a sigma, so the file is encoded directly
    blob = _layout_blob(_set("sigma", sigma), replace(LAYOUT_CFG, kernel="gaussian"))
    with pytest.raises(FormatError, match="sigma"):
        training.deserialize_checkpoint(blob)


# 1e-46 is positive in float64 but rounds to 0 in the float32 payload
@pytest.mark.parametrize("sigma", [0.0, -1.0, 1e-46])
def test_serialize_refuses_a_sigma_the_reader_would_refuse(sigma):
    cfg = replace(LAYOUT_CFG, kernel="gaussian")
    params = network.init_params(cfg, np.random.default_rng(0))
    params["sigma"][...] = sigma
    with pytest.raises(NumericError, match="checkpoint tensor sigma"):
        training.serialize_checkpoint(params, cfg)


def test_checkpoint_floored_scale_factor_loads():
    # f32 storage rounds a floored log scale to just below LOG_SCALE_FLOOR
    params, _, _ = training.deserialize_checkpoint(
        _layout_blob(_set("log_cu", training.LOG_SCALE_FLOOR)))
    assert params["log_cu"] < training.LOG_SCALE_FLOOR


def test_model_config_defaults_are_the_run_config_defaults():
    rc = RunConfig()
    assert network.ModelConfig() == network.ModelConfig.from_run(rc, float(rc.window))
    # the dataset's and the optimizer's defaults are the run config's, not copies of them
    given = inspect.signature(data.WindowDataset).parameters
    assert ([given[k].default for k in ("window", "horizon", "threshold", "mode")]
            == [rc.window, rc.horizon, rc.threshold, rc.label_mode])
    assert AdamState({}, np.zeros(0), np.zeros(0)).lr == init_adam({}).lr == rc.lr


def test_model_config_from_run_copies_shared_fields():
    rc = RunConfig(arch="cnn_gap", n_codewords=9, conv_filters=11, conv_kernel=3, hidden=13,
                   n_regions=4, kernel="gaussian", kernel_param_learning=False,
                   adaptive_scaling="off", nested_regions=True)
    cfg = network.ModelConfig.from_run(rc, avg_seq_len=20.0)
    assert cfg == network.ModelConfig(
        arch="cnn_gap", d_in=data.N_FEATURES, conv_filters=11, conv_kernel=3, n_codewords=9,
        n_regions=4, hidden=13, n_classes=3, kernel="gaussian", deep_features=True, nested_regions=True,
        kernel_param_learning=False, adaptive_scaling="off", avg_seq_len=20.0)
    flat = network.ModelConfig.from_run(replace(rc, temporal_modeling=False), 20.0)
    assert flat.n_regions == 1
