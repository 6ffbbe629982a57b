"""Property tests for the four input readers, the gathered windows, the conv, the sigmoid
and whole synth/train/eval/ablate commands.

Every input, arbitrary or a mutation of a valid file, must either yield a
valid object or raise FormatError; the text readers must also name the
line, and the feature CSV loader must give what its csv row loop alone
gives. The checkpoint writer must refuse exactly what the reader refuses,
and the reader must read a checkpoint's tensors the same in any order.
A command on a small corpus and an edge-value config must end in exit 0
with its outputs written, or in exit 1 or 2 with an ``error:`` line.
Example counts and determinism come from the profile in conftest.
"""

import contextlib
import dataclasses
import io
import math
import os
import re
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from conftest import deserialize_checkpoint, reordered  # noqa: E402
from reference import (  # noqa: E402
    balanced_batch_by_choice, conv_flat_per_tap, gathered_windows, windowize)

from tlonbof import cli, config, data, kernels, network, training  # noqa: E402
from tlonbof.errors import FormatError, NumericError  # noqa: E402

LINE = re.compile(r"line \d+")

TEXT_TOKENS = [b"", b",", b"\n", b"\r\n", b"\r", b'"', b"nan", b"-inf", b"1e400", b"-1", b"0",
               b"2.5", b"true", b"=", b"#", b" ", b"\xff", b"\xc3", b"\x00"]
F32_TOKENS = [struct.pack("<f", v) for v in (math.nan, math.inf, -math.inf, 3e38, -800.0, 0.0)]
U32_TOKENS = [struct.pack("<I", v) for v in (0, 1, 2**31, 2**32 - 1)]


@st.composite
def mutated(draw, valid: bytes, tokens: list[bytes]):
    """``valid`` after one to four random replacements, insertions, deletions or cuts."""
    blob = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(blob)))
        piece = draw(st.one_of(st.sampled_from(tokens), st.binary(max_size=8)))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "cut"]))
        if kind == "replace":
            blob[pos : pos + len(piece)] = piece
        elif kind == "insert":
            blob[pos:pos] = piece
        elif kind == "delete":
            del blob[pos : pos + draw(st.integers(1, 16))]
        else:
            del blob[pos:]
    return bytes(blob)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def assert_line_location(exc: FormatError):
    assert LINE.fullmatch(str(exc.location)), f"no line location: {exc}"


# ---------------------------------------------------------------------------
# feature CSV


def _valid_csv() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "day.csv")
        data.write_feature_csv(path, data.synth_generate(1, 3, seed=0)[0])
        with open(path, "rb") as fh:
            return fh.read()


VALID_CSV = _valid_csv()
CSV_HEADER = VALID_CSV.split(b"\n", 1)[0] + b"\n"


def check_csv(path):
    """Load ``path``; the result must be valid and equal the row loop's alone."""
    with mock.patch.object(data, "_bulk_parse", lambda raw: None):
        try:
            row_loop = data.load_feature_csv(path)
        except FormatError as exc:
            row_loop = str(exc)
    try:
        series = data.load_feature_csv(path)
    except FormatError as exc:
        assert_line_location(exc)
        assert str(exc) == row_loop
        return
    assert not isinstance(row_loop, str), row_loop
    assert series.day_id == row_loop.day_id
    assert series.mid_prices.tobytes() == row_loop.mid_prices.tobytes()
    assert series.features.tobytes() == row_loop.features.tobytes()
    assert series.features.shape == (len(series), data.N_FEATURES) and len(series) > 0
    assert series.features.flags.c_contiguous and series.mid_prices.flags.c_contiguous
    assert np.isfinite(series.features).all()
    assert np.isfinite(series.mid_prices).all() and (series.mid_prices > 0).all()


@given(st.one_of(st.binary(max_size=400), st.binary(max_size=400).map(CSV_HEADER.__add__)))
def test_feature_csv_arbitrary_bytes(scratch, blob):
    path = scratch / "day.csv"
    path.write_bytes(blob)
    check_csv(path)


@given(mutated(VALID_CSV, TEXT_TOKENS))
def test_feature_csv_mutations(scratch, blob):
    path = scratch / "day.csv"
    path.write_bytes(blob)
    check_csv(path)


def test_feature_csv_valid_file_loads(scratch):
    path = scratch / "day.csv"
    path.write_bytes(VALID_CSV)
    assert len(data.load_feature_csv(path)) == 3


# ---------------------------------------------------------------------------
# run config


VALID_CONFIG = config.dumps(config.RunConfig()).encode()
CONFIG_KEYS = [f.name for f in dataclasses.fields(config.RunConfig)]


def check_config(parse, source):
    try:
        rc = parse(source)
    except FormatError as exc:
        assert_line_location(exc)
        return
    assert math.isfinite(rc.lr) and math.isfinite(rc.threshold)
    assert rc.lr <= config.F32_MAX  # a checkpoint can store it
    assert rc.window >= rc.n_regions or not rc.temporal_modeling or rc.arch != "tlonbof"
    assert config.loads(config.dumps(rc)) == rc
    network.ModelConfig.from_run(rc, float(rc.window))  # every model rule holds


config_lines = st.lists(
    st.tuples(st.sampled_from(CONFIG_KEYS + ["bogus"]), st.text(max_size=12)).map(
        lambda kv: f"{kv[0]} = {kv[1]}"),
    max_size=6,
).map("\n".join)


@given(st.one_of(st.text(max_size=200), config_lines))
@example("arch = cnn_gap\ndeep_features = false")
def test_config_loads_arbitrary_text(text):
    check_config(config.loads, text)


@given(mutated(VALID_CONFIG, TEXT_TOKENS))
def test_config_file_mutations(scratch, blob):
    path = scratch / "run.cfg"
    path.write_bytes(blob)
    check_config(config.load_run_config, path)


@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.sampled_from(config.ARCH_CHOICES),
       st.permutations(range(4)))
def test_config_window_must_fill_the_regions(window, n_regions, temporal, arch, order):
    lines = [f"window = {window}", f"n_regions = {n_regions}",
             f"temporal_modeling = {str(temporal).lower()}", f"arch = {arch}"]
    text = "\n".join(lines[i] for i in order)
    if arch == "tlonbof" and temporal and window < n_regions:
        with pytest.raises(FormatError) as err:
            config.loads(text)
        assert f"window = {window} is below n_regions = {n_regions}" in err.value.message
        assert err.value.location == "line 4"
    else:
        check_config(config.loads, text)


# ---------------------------------------------------------------------------
# ablation grid


VALID_GRID = ("# ablation rows\n" + ",".join(cli._GRID_HEADER) + "\n" + "".join(
    ",".join(str(v).lower() for v in row) + "\n" for row in cli.DEFAULT_GRID)).encode()


def check_grid(path):
    try:
        grid = cli.load_grid(path)
    except FormatError as exc:
        assert_line_location(exc)
        return
    assert grid
    for row in grid:
        assert [type(v) for v in row[:3]] == [bool, bool, bool]
        assert row[3] in config.SCALING_CHOICES


@given(st.one_of(st.binary(max_size=200), mutated(VALID_GRID, TEXT_TOKENS)))
def test_grid_arbitrary_and_mutated(scratch, blob):
    path = scratch / "grid.csv"
    path.write_bytes(blob)
    check_grid(path)


def test_grid_valid_file_loads(scratch):
    path = scratch / "grid.csv"
    path.write_bytes(VALID_GRID)
    assert cli.load_grid(path) == cli.DEFAULT_GRID


# ---------------------------------------------------------------------------
# checkpoint


def _model_with(kernel: str, edits) -> tuple:
    """A small model and its Adam state with each (name, index, value) of ``edits`` applied.

    A name is a parameter, an ``adam.m.``/``adam.v.`` moment or an Adam scalar
    field; the index counts through the tensor's values, modulo its size.
    """
    cfg = network.ModelConfig(d_in=3, conv_filters=2, conv_kernel=3, n_codewords=2,
                              n_regions=2, hidden=2, kernel=kernel, avg_seq_len=4.0)
    params = network.init_params(cfg, np.random.default_rng(0))
    state = training.init_adam(network.trainable_shapes(cfg))
    tensors = {**params, **dict(training._adam_entries(state)[len(training.ADAM_SCALARS) :])}
    for name, index, value in edits:
        if name in tensors:
            tensors[name].flat[index % tensors[name].size] = value
        else:
            setattr(state, name, value)
    return params, cfg, state


VALID_CHECKPOINTS = [training.serialize_checkpoint(*_model_with(kernel, []))
                     for kernel in ("logistic", "gaussian")]


def _with_sigma(blob: bytes, value: float) -> bytes:
    """``blob`` with the payload of its rank-0 ``sigma`` tensor set to ``value``."""
    at = blob.index(b"sigma\x00") + len(b"sigma\x00")
    return blob[:at] + struct.pack("<f", value) + blob[at + 4 :]


def check_checkpoint(blob: bytes):
    try:
        params, cfg, state = deserialize_checkpoint(blob)
    except FormatError:
        return
    assert {k: v.shape for k, v in params.items()} == network.param_shapes(cfg)
    assert all(np.isfinite(v).all() for v in params.values())
    with np.errstate(over="ignore"):
        scales = [np.exp(params[k]) for k in ("log_cu", "log_cs") if k in params]
    assert all(0.0 < c < np.inf for c in scales)
    if "sigma" in params:
        assert params["sigma"] > 0
    if state is not None:
        assert state.shapes == network.trainable_shapes(cfg)
        assert np.isfinite(state.m).all() and np.isfinite(state.v).all()
        assert all(math.isfinite(v) for v in (state.lr, state.beta1, state.beta2, state.eps))


@given(st.one_of(st.binary(max_size=200),
                 st.binary(max_size=200).map(VALID_CHECKPOINTS[0][:12].__add__)))
def test_checkpoint_arbitrary_bytes(blob):
    check_checkpoint(blob)


@given(st.sampled_from(VALID_CHECKPOINTS).flatmap(
    lambda valid: mutated(valid, F32_TOKENS + U32_TOKENS)))
@example(_with_sigma(VALID_CHECKPOINTS[1], 0.0))
@example(_with_sigma(VALID_CHECKPOINTS[1], -800.0))
def test_checkpoint_mutations(blob):
    check_checkpoint(blob)


def test_checkpoint_valid_blobs_load():
    for blob in VALID_CHECKPOINTS:
        assert deserialize_checkpoint(blob)[2] is not None


# values at the edges of what a checkpoint holds: about the float32 maximum,
# log scales whose factor exp(log c) leaves float64 (above 709.78 it is inf,
# below -745.13 it is 0), a sigma about 0, and NaN
EDGE_VALUES = st.one_of(st.floats(3.40e38, 3.41e38), st.floats(-3.41e38, -3.40e38),
                        st.floats(709.77, 709.79), st.floats(-745.2, -745.1),
                        st.floats(-1e-44, 1e-44), st.just(math.nan))


@st.composite
def edited_models(draw):
    kernel = draw(st.sampled_from(config.KERNEL_CHOICES))
    params, _, state = _model_with(kernel, [])
    moments = training._adam_entries(state)[len(training.ADAM_SCALARS) :]
    names = sorted(params) + [name for name, _ in moments]
    names += ["lr", "beta1", "beta2", "eps"]
    edits = draw(st.lists(st.tuples(st.sampled_from(names), st.integers(0, 99), EDGE_VALUES),
                          min_size=1, max_size=3))
    return _model_with(kernel, edits)


def _encoded(model) -> tuple[bytes, bool]:
    """The checkpoint of ``model`` and whether the writer refuses it; a refused model's
    tensors are encoded without the writer's check."""
    params, cfg, state = model
    try:
        return training.serialize_checkpoint(params, cfg, state), False
    except NumericError:
        entries = (sorted(params.items()) + training._adam_entries(state)
                   + [(k, np.array(v)) for k, v in training._meta_entries(cfg).items()])
        with np.errstate(over="ignore"):
            return training._encode_tensors(entries), True


@given(edited_models())
@example(_model_with("gaussian", [("sigma", 0, 1e-46)]))
@example(_model_with("logistic", [("log_cs", 0, 709.7827)]))
@example(_model_with("logistic", [("fc1_w", 0, config.F32_MAX + 2.0**102)]))  # stores as the max
def test_checkpoint_writer_refuses_exactly_what_the_reader_refuses(model):
    blob, refused = _encoded(model)
    if refused:  # the writer's tensors, encoded without its check, do not load
        with pytest.raises(FormatError):
            deserialize_checkpoint(blob)
        return
    deserialize_checkpoint(blob)


@given(edited_models(), st.data())
@example(_model_with("logistic", []), None)  # sorted: the moments before the metadata
@example(_model_with("gaussian", [("adam.m.fc1_w", 0, math.nan)]), None)
def test_a_checkpoint_reads_the_same_in_any_tensor_order(model, draws):
    blob, refused = _encoded(model)
    shuffled = reordered(blob, sorted if draws is None else
                         lambda names: draws.draw(st.permutations(names)))
    if refused:
        with pytest.raises(FormatError):
            deserialize_checkpoint(shuffled)
        return
    (params, cfg, state), (got, got_cfg, got_state) = map(deserialize_checkpoint,
                                                          (blob, shuffled))
    assert got_cfg == cfg and list(got) == list(params)
    assert all(got[k].tobytes() == params[k].tobytes() for k in params)
    assert got_state.m.tobytes() == state.m.tobytes() and got_state.v.tobytes() == state.v.tobytes()
    assert all(getattr(got_state, k) == getattr(state, k) for k in training.ADAM_SCALARS)


# ---------------------------------------------------------------------------
# gathered windows


@given(st.lists(st.integers(0, 60), min_size=1, max_size=4), st.sampled_from([1, 15]),
       st.lists(st.integers(0, 2**31), min_size=1, max_size=64))
@example([60, 0, 41], 15, [0, 0, 5, 1, 60, 40, 3, 3])
def test_gathered_table_rebuilds_the_windows_from_distinct_sorted_rows(day_lengths, window,
                                                                        draws):
    rng = np.random.default_rng(len(day_lengths) + window)
    corpus = []
    for d, n in enumerate(day_lengths, start=1):
        feats = rng.normal(size=(n, data.N_FEATURES))
        feats[:, 0] = 1000 * d + np.arange(n)  # the row's (day, t), as one sortable key
        corpus.append(data.FeatureSeries(d, feats, 100.0 + rng.uniform(size=n)))
    ds = data.WindowDataset(corpus, window=window)
    assume(ds.n_samples > 0)
    indices = np.array(draws) % ds.n_samples  # repeats included
    batch, labels = ds.gather(indices)
    want = np.concatenate([windowize(s, window=window)[0] for s in corpus])[indices]
    assert gathered_windows(batch).tobytes() == want.tobytes()
    assert np.array_equal(labels, ds.labels[indices])
    keys = batch.rows[:, 0]
    assert (np.diff(keys) > 0).all()  # sorted by (day, t), each row once
    assert keys.size <= indices.size * window
    assert set(keys.tolist()) == set(want[:, :, 0].ravel().tolist())  # only rows a window reads


@given(st.integers(1, 5), st.integers(1, 16), st.sampled_from([1, 3, 5, 7]),
       st.integers(1, 300), st.integers(1, 12), st.integers(0, 2**32 - 1))
@example(4, 15, 5, 127, 144, 0)
@example(4, 15, 5, 128, 144, 0)
@example(4, 15, 5, 129, 144, 0)
def test_conv_forward_is_bitwise_the_flat_per_tap_reference(batch, n_steps, taps, d_out, d_in,
                                                             seed):
    # every width takes the same path: the same products, added in the same order
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, n_steps, d_in))
    w = rng.normal(size=(taps, d_in, d_out))
    b = rng.normal(size=d_out)
    feats, layout = network.conv1d_same_batch(data.WindowBatch.of_windows(x), w, b)
    got = feats[layout.index]
    want = conv_flat_per_tap(x, w, b)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


SIGMOID_INPUTS = st.one_of(st.floats(-800.0, 800.0),
                           st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


@given(st.one_of(SIGMOID_INPUTS.map(np.array), st.lists(SIGMOID_INPUTS, max_size=40).map(np.array)))
@example(np.array(-0.0))
@example(np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 800.0, -800.0, -745.0]))
def test_sigmoid_into_its_own_input_is_bitwise_the_fresh_result(z):
    # the kernel matrix is written over its own pre-activation
    want = kernels.sigmoid(z.copy())
    got = kernels.sigmoid(z, out=z)
    assert type(got) is type(want)
    assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))
    assert np.array_equal(z.view(np.uint64), np.asarray(want).view(np.uint64))


# every class count from a lone sample up to thousands, in any class subset
@given(st.dictionaries(st.integers(0, 2), st.integers(1, 1500), min_size=1),
       st.lists(st.integers(1, 300), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
@example({0: 1}, [1], 0)
@example({2: 1500, 0: 1}, [300, 1], 1)
def test_sampler_draws_are_bitwise_those_of_choice(class_counts, batch_sizes, seed):
    labels = np.concatenate([np.full(n, c) for c, n in class_counts.items()])
    labels = np.random.default_rng(seed).permutation(labels)
    cdf = training.balanced_cdf(labels)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in batch_sizes:  # consecutive draws from one generator
        got = training.balanced_batch(cdf, size, rng)
        want = balanced_batch_by_choice(labels, size, oracle_rng)
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# whole commands on small corpora and edge-value configs

SOURCE_DAYS = data.synth_generate(4, 120, seed=0)


@st.composite
def command_inputs(draw):
    """Days cut from ``SOURCE_DAYS`` (0-60 rows, some with a constant mid-price), config keys
    at edge values and each frozen-parameter switch, a ``--seed`` for ``train`` and ``synth``,
    and where ``synth`` writes and its ``--separation``."""
    days = []
    for day_id in range(1, draw(st.integers(1, 4)) + 1):
        n = draw(st.integers(0, 60))
        start = draw(st.integers(0, 120 - n))
        source = SOURCE_DAYS[day_id - 1]
        mids = source.mid_prices[start:start + n]
        if draw(st.booleans()):
            mids = np.full_like(mids, 100.0)
        days.append(data.FeatureSeries(day_id, source.features[start:start + n], mids))
    window = draw(st.sampled_from([1, 2, 15]))
    keys = {
        "window": window,
        "horizon": draw(st.sampled_from([1, 10, 30])),
        "n_regions": draw(st.sampled_from([1, window, window + 1])),
        "lr": draw(st.sampled_from([1e-4, 1e30, 3e38, 1e39])),
        "arch": draw(st.sampled_from(config.ARCH_CHOICES)),
        "kernel": draw(st.sampled_from(config.KERNEL_CHOICES)),
        "seed": draw(st.sampled_from([0, -1, 2**64])),
        "ablation_seeds": draw(st.sampled_from(["0", "-1", "0,-3", "18446744073709551616"])),
        "conv_kernel": draw(st.sampled_from([1, 3, 17])),  # 17 is longer than any window
        "batch_size": draw(st.sampled_from([1, 8, 300])),
        "threshold": draw(st.sampled_from([1e-12, 1e-4, 1e300])),
        "adaptive_scaling": draw(st.sampled_from(config.SCALING_CHOICES)),
    }
    for key in ("deep_features", "nested_regions", "temporal_modeling", "kernel_param_learning"):
        keys[key] = draw(st.booleans())
    synth = (draw(st.sampled_from(["new", "file", "under-file", "entry-is-directory"])),
             draw(st.sampled_from(["1.0", "nan", "inf", "1.8e308", "1.7976931348623157e308"])))
    return days, keys, draw(st.sampled_from([0, 7, -1, 2**64])), synth


def run_command(argv, outputs):
    """``cli.main(argv)``: exit 0 leaves every file in ``outputs``, exit 1 or 2 an error line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        assert all(os.path.isfile(p) for p in outputs), (argv, outputs)
    else:
        assert code in (1, 2), code
        assert any(line.startswith("error:") for line in err.getvalue().splitlines()), \
            err.getvalue()


@settings(max_examples=100, deadline=5000)  # about 3 s in all on one core
@given(command_inputs())
@example(([data.FeatureSeries(1, SOURCE_DAYS[0].features[:60], SOURCE_DAYS[0].mid_prices[:60])],
          {"window": 15, "horizon": 10, "n_regions": 3, "lr": 1e-4, "conv_kernel": 3,
           "batch_size": 8, "ablation_seeds": "0"}, 0, ("new", "1.0")))  # one day: no fold
@example(([data.FeatureSeries(d, SOURCE_DAYS[d - 1].features[:60], SOURCE_DAYS[d - 1].mid_prices[:60])
           for d in (1, 2)],
          {"window": 15, "horizon": 10, "n_regions": 3, "lr": 1e-4, "conv_kernel": 3,
           "batch_size": 8, "ablation_seeds": "0", "kernel_param_learning": False,
           "adaptive_scaling": config.SCALING_FROZEN}, 0, ("new", "1.0")))  # trains, alpha frozen
@pytest.mark.filterwarnings("ignore:.* undefined for classes")  # 1-epoch models
def test_whole_commands_end_in_an_exit_code_and_their_outputs(scratch, inputs):
    days, keys, seed, (where, separation) = inputs
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        datadir = os.path.join(tmp, "data")
        os.mkdir(datadir)
        for series in days:
            data.write_feature_csv(os.path.join(datadir, f"day_{series.day_id}.csv"), series)
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write("epochs = 1\nn_codewords = 4\nconv_filters = 4\nhidden = 6\n"
                     + "".join(f"{k} = {config._format_value(v)}\n" for k, v in keys.items()))
        model = os.path.join(tmp, "m.tlnb")
        mcfg = network.ModelConfig(conv_filters=4, conv_kernel=keys["conv_kernel"], n_codewords=4,
                                   hidden=6, n_regions=keys["n_regions"])
        training.save_checkpoint(model, network.init_params(mcfg, np.random.default_rng(0)),
                                 mcfg)
        grid = os.path.join(tmp, "grid.csv")
        with open(grid, "w") as fh:
            fh.write(",".join(cli._GRID_HEADER) + "\ntrue,true,true,learned\n")
        common = ["--config", cfg, "--data", datadir, "--report"]
        out = [os.path.join(tmp, name) for name in
               ("e.csv", "p.csv", "s.csv", "a.csv", "t.tlnb", "t.csv")]
        run_command(["eval", *common, out[0], "--dump-predictions", out[1]], out[:2])
        run_command(["eval", *common, out[2], "--model", model, "--folds", "single"], out[2:3])
        run_command(["ablate", *common, out[3], "--grid", grid], out[3:4])
        run_command(["train", "--config", cfg, "--data", datadir, "--out", out[4],
                     "--seed", str(seed), "--history", out[5]], out[4:])
        blocker = os.path.join(tmp, "blocker")
        open(blocker, "w").close()
        synth_out = {"file": blocker, "under-file": os.path.join(blocker, "sub")}.get(
            where, os.path.join(tmp, "synth"))
        if where == "entry-is-directory":
            os.makedirs(os.path.join(synth_out, "day_001.csv"))
        run_command(["synth", "--out", synth_out, "--days", "2", "--rows-per-day", "30",
                     "--seed", str(seed), "--separation", separation],
                    [os.path.join(synth_out, f"day_00{d}.csv") for d in (1, 2)])
