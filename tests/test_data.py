import tracemalloc
import warnings

import numpy as np
import pytest
from reference import gathered_windows, label_sample, windowize

from tlonbof import data
from tlonbof.data import (
    DOWN,
    STATIONARY,
    UP,
    FeatureSeries,
    WindowDataset,
    anchored_folds,
    load_feature_csv,
    load_feature_dir,
    synth_generate,
    write_feature_csv,
)
from tlonbof.errors import FormatError


def flat_series(n, day_id=1, mid=100.0):
    rng = np.random.default_rng(n)
    return FeatureSeries(day_id, rng.normal(size=(n, data.N_FEATURES)), np.full(n, mid))


def mids_with_future(now, future_mean, horizon=10):
    # one "now" price followed by a constant future window
    return np.array([now] + [future_mean] * horizon)


def test_label_rule_directions():
    assert label_sample(mids_with_future(100.0, 100.0 * (1 + 2e-4)), 0) == UP
    assert label_sample(mids_with_future(100.0, 100.0 * (1 - 2e-4)), 0) == DOWN
    assert label_sample(mids_with_future(100.0, 100.0 * (1 - 5e-5)), 0) == STATIONARY
    assert label_sample(mids_with_future(100.0, 100.0), 0) == STATIONARY


def test_label_rule_threshold_boundary_is_directional():
    assert label_sample(mids_with_future(100.0, 100.01), 0) == UP
    assert label_sample(mids_with_future(100.0, 99.99), 0) == DOWN


def test_label_point_mode_uses_single_future_price():
    mids = np.array([100.0] + [100.0] * 9 + [100.05])
    assert label_sample(mids, 0, mode=data.POINT_HORIZON) == UP
    # mean mode dilutes the final spike below threshold
    assert label_sample(mids, 0, mode=data.MEAN_HORIZON) == STATIONARY


def test_label_scale_invariance():
    base = mids_with_future(100.0, 100.0 * (1 + 3e-4))
    for scale in (1e-3, 1.0, 1e4):
        assert label_sample(base * scale, 0) == UP


def test_label_bounds_checked():
    with pytest.raises(ValueError):
        label_sample(np.full(10, 100.0), 0, horizon=10)
    with pytest.raises(ValueError):
        label_sample(np.full(12, 100.0), -1)
    with pytest.raises(ValueError):
        label_sample(np.full(12, 100.0), 0, mode="nope")


def test_windowize_counts():
    assert windowize(flat_series(25))[0].shape[0] == 1
    assert windowize(flat_series(24))[0].shape[0] == 0
    assert windowize(flat_series(100))[0].shape[0] == 76


def test_windowize_count_formula_matches_brute_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 120))
        w = int(rng.integers(1, 20))
        h = int(rng.integers(1, 15))
        brute = sum(1 for t in range(n) if t - w + 1 >= 0 and t + h < n)
        x, y = windowize(flat_series(n), window=w, horizon=h)
        assert x.shape[0] == brute == y.shape[0]


def test_windowize_alignment():
    # sample 0 covers rows 0..window-1 and is labeled at the window's end
    series = flat_series(30)
    series.mid_prices[:] = 100.0
    series.mid_prices[15:25] = 100.0 * (1 + 3e-4)  # future of t=14 is all up
    x, y = windowize(series)
    assert np.array_equal(x[0], series.features[0:15])
    assert y[0] == UP
    assert y[0] == label_sample(series.mid_prices, 14)


def test_windowize_labels_match_label_sample_everywhere():
    rng = np.random.default_rng(3)
    mids = 100.0 * np.cumprod(1 + 2e-4 * rng.normal(size=80))
    series = FeatureSeries(1, rng.normal(size=(80, data.N_FEATURES)), mids)
    _, labels = windowize(series)
    for i, t in enumerate(range(14, 70)):
        assert labels[i] == label_sample(mids, t)


def test_anchored_folds_protocol():
    folds = anchored_folds(list(range(1, 11)))
    assert len(folds) == 9
    for k, fold in enumerate(folds):
        assert fold.train_days == tuple(range(1, k + 2))
        assert fold.test_day == k + 2
        assert fold.test_day not in fold.train_days
        assert max(fold.train_days) < fold.test_day


def test_anchored_folds_validation():
    with pytest.raises(ValueError):
        anchored_folds([1])
    with pytest.raises(ValueError):
        anchored_folds([1, 1, 2])


def test_window_dataset_matches_windowize():
    corpus = synth_generate(3, 60, seed=2)
    ds = WindowDataset(corpus)
    xs, ys = zip(*(windowize(s) for s in corpus))
    want_x, want_y = np.concatenate(xs), np.concatenate(ys)
    assert ds.n_samples == want_y.size
    assert np.array_equal(ds.labels, want_y)
    got_x, got_y = ds.gather(np.arange(ds.n_samples))
    assert np.array_equal(gathered_windows(got_x), want_x)
    assert np.array_equal(got_y, want_y)


def test_window_dataset_day_ids_align():
    corpus = synth_generate(3, 60, seed=2)
    ds = WindowDataset(corpus)
    per_day = [windowize(s)[1].size for s in corpus]
    want = np.concatenate([np.full(c, s.day_id) for c, s in zip(per_day, corpus)])
    assert np.array_equal(ds.day_ids, want)


def test_window_dataset_skips_short_days():
    corpus = [flat_series(10, day_id=1), flat_series(40, day_id=2)]
    ds = WindowDataset(corpus)
    assert ds.n_samples == 40 - 24
    assert set(ds.day_ids.tolist()) == {2}


def test_gather_writes_straight_into_its_table():
    # a paper-geometry batch over two days; np.take's default mode buffers
    # each day's rows before copying them into the table, a peak of 1.5x
    ds = WindowDataset(synth_generate(2, 408, seed=1))
    indices = np.random.default_rng(0).integers(ds.n_samples, size=128)
    tracemalloc.start()
    try:
        batch, _ = ds.gather(indices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(np.unique(ds.day_ids[indices])) == 2
    assert peak <= 1.1 * batch.rows.nbytes


# ---------------------------------------------------------------------------
# CSV round trip and validation


def _no_row_loop(path):
    raise AssertionError(f"{path} must take the bulk parse")


def test_csv_round_trip_is_exact(tmp_path, monkeypatch):
    series = synth_generate(1, 40, seed=9)[0]
    series.features[0, :7] = [-0.0, 5e-324, 1e308, -1e308, 0.1 + 0.2, 1 + 2**-52, -2 / 3]
    path = tmp_path / "day_001.csv"
    write_feature_csv(path, series)
    for route, disabled in [("_parse_rows", _no_row_loop), ("_bulk_parse", lambda raw: None)]:
        with monkeypatch.context() as patch:
            patch.setattr(data, route, disabled)  # load through the other route
            back = load_feature_csv(path)
        assert back.day_id == series.day_id
        assert back.features.tobytes() == series.features.tobytes()  # repr() round trip
        assert back.mid_prices.tobytes() == series.mid_prices.tobytes()
        assert back.features.flags.c_contiguous and back.mid_prices.flags.c_contiguous
        assert np.shares_memory(WindowDataset([back])._days[0], back.features)


def _join(lines, end=b"\n"):
    return end.join(lines) + end


def _edit_cells(lines, edit, rows=(3,), column=6):
    """``lines`` joined, with ``edit`` applied to one column of the given 1-based lines."""
    lines = list(lines)
    for line in rows:
        cells = lines[line - 1].split(b",")
        cells[column] = edit(cells[column])
        lines[line - 1] = b",".join(cells)
    return _join(lines)


# Files that the bulk parse leaves to the csv row loop, each with the row
# loop's result: a FormatError fragment and its line, or the value read for f5
# on line 3 (None: the value as written).
ROW_LOOP_FILES = {
    "blank-line": (lambda ls: _join(ls[:3] + [b""] + ls[3:]), ("expected 146 columns, got 0", 4)),
    "trailing-blank-line": (lambda ls: _join(ls) + b"\n", ("expected 146 columns, got 0", 7)),
    "no-final-newline": (lambda ls: b"\n".join(ls), None),
    "crlf": (lambda ls: _join(ls, b"\r\n"), None),
    "quoted-cell": (lambda ls: _edit_cells(ls, lambda c: b'"' + c + b'"'), None),
    "underscore": (lambda ls: _edit_cells(ls, lambda c: b"1_0"), 10.0),
    "leading-space": (lambda ls: _edit_cells(ls, lambda c: b" " + c), None),
    "header-only": (lambda ls: _join(ls[:1]), ("no data rows", 2)),
    "over-long-field": (lambda ls: _edit_cells(ls, lambda c: b"0." + b"0" * 200_000 + b"1"),
                        ("field larger than field limit (131072)", 3)),
    "latin-1-space": (lambda ls: _edit_cells(ls, lambda c: c + b"\xa0"), ("not UTF-8", 3)),
    "file-separator": (lambda ls: _edit_cells(ls, lambda c: b"\x1c" + c),
                       ("could not convert string to float", 3)),
    "renamed-column": (lambda ls: _join([ls[0].replace(b",f1,", b",g1,")] + ls[1:]),
                       ("bad header", 1)),
    "every-row-short": (lambda ls: _join(ls[:1] + [ln.rsplit(b",", 1)[0] for ln in ls[1:]]),
                        ("expected 146 columns, got 145", 2)),
    "fractional-day": (lambda ls: _edit_cells(ls, lambda c: b"1.5", rows=range(2, 7), column=0),
                       ("day_id must be an integer, got 1.5", 2)),
}


@pytest.mark.parametrize("case", list(ROW_LOOP_FILES))
def test_csv_formatting_only_the_row_loop_reads(tmp_path, case):
    series = synth_generate(1, 5, seed=0)[0]
    path = tmp_path / "day.csv"
    write_feature_csv(path, series)
    edit, outcome = ROW_LOOP_FILES[case]
    path.write_bytes(edit(path.read_bytes().splitlines()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. loadtxt's "input contained no data"
        if isinstance(outcome, tuple):
            fragment, line = outcome
            with pytest.raises(FormatError) as err:
                load_feature_csv(path)
            assert fragment in str(err.value) and err.value.location == f"line {line}"
            return
        back = load_feature_csv(path)
    if outcome is not None:
        series.features[1, 4] = outcome
    assert back.day_id == series.day_id
    assert back.features.tobytes() == series.features.tobytes()
    assert back.mid_prices.tobytes() == series.mid_prices.tobytes()


def test_csv_rejects_wrong_column_count(tmp_path):
    series = synth_generate(1, 5, seed=0)[0]
    path = tmp_path / "bad.csv"
    write_feature_csv(path, series)
    lines = path.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1])  # drop f144 on data line 3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        load_feature_csv(path)
    assert "line 4" in str(err.value)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("day,mid," + ",".join(f"f{i}" for i in range(1, 145)) + "\n")
    with pytest.raises(FormatError) as err:
        load_feature_csv(path)
    assert "line 1" in str(err.value)


def test_csv_rejects_nonpositive_mid_and_mixed_days(tmp_path):
    series = synth_generate(1, 5, seed=0)[0]
    path = tmp_path / "bad.csv"

    write_feature_csv(path, series)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "-1.0"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        load_feature_csv(path)
    assert "mid_price" in str(err.value) and "line 3" in str(err.value)

    write_feature_csv(path, series)
    lines = path.read_text().splitlines()
    cells = lines[4].split(",")
    cells[0] = "7"
    lines[4] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        load_feature_csv(path)
    assert "day" in str(err.value)


def test_csv_rejects_non_numeric(tmp_path):
    series = synth_generate(1, 5, seed=0)[0]
    path = tmp_path / "bad.csv"
    write_feature_csv(path, series)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[5] = "not-a-number"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        load_feature_csv(path)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("column,raw,fragment", [
    (0, "1.5", "day_id must be an integer"),
    (0, "nan", "day_id must be an integer"),
    (0, "inf", "day_id must be an integer"),
    (1, "-1.0", "mid_price must be finite and strictly positive"),
    (1, "0", "mid_price must be finite and strictly positive"),
    (1, "nan", "mid_price must be finite and strictly positive"),
    (1, "inf", "mid_price must be finite and strictly positive"),
    (1, "-inf", "mid_price must be finite and strictly positive"),
    (6, "not-a-number", "could not convert"),
    (6, "nan", "f5 must be finite"),
    (6, "inf", "f5 must be finite"),
    (6, "-inf", "f5 must be finite"),
])
def test_csv_rejects_bad_cell(tmp_path, column, raw, fragment):
    series = synth_generate(1, 5, seed=0)[0]
    path = tmp_path / "bad.csv"
    write_feature_csv(path, series)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[column] = raw
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        load_feature_csv(path)
    assert fragment in str(err.value) and "line 3" in str(err.value)


def test_csv_reports_first_bad_line(tmp_path):
    series = synth_generate(1, 5, seed=0)[0]
    series.features[1, 7] = np.nan  # line 3
    series.mid_prices[3] = -2.0  # line 5
    path = tmp_path / "bad.csv"
    write_feature_csv(path, series)
    with pytest.raises(FormatError) as err:
        load_feature_csv(path)
    assert "f8" in str(err.value) and "line 3" in str(err.value)


@pytest.mark.parametrize("cell,fragment", [
    (b"\xff", "UTF-8"),
    (b"1" * 200_000, "field larger than field limit"),
], ids=["non-utf8", "oversized-field"])
def test_csv_undecodable_line_is_format_error(tmp_path, cell, fragment):
    series = synth_generate(1, 5, seed=0)[0]
    path = tmp_path / "bad.csv"
    write_feature_csv(path, series)
    lines = path.read_bytes().splitlines()
    lines[3] = lines[3][:20] + cell + lines[3][20:]
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(FormatError) as err:
        load_feature_csv(path)
    assert fragment in str(err.value) and "line 4" in str(err.value)


def test_load_feature_dir_sorts_and_rejects_duplicates(tmp_path):
    corpus = synth_generate(3, 30, seed=4)
    # write out of order on purpose
    write_feature_csv(tmp_path / "b.csv", corpus[2])
    write_feature_csv(tmp_path / "a.csv", corpus[0])
    write_feature_csv(tmp_path / "c.csv", corpus[1])
    back = load_feature_dir(tmp_path)
    assert [s.day_id for s in back] == [1, 2, 3]

    write_feature_csv(tmp_path / "dup.csv", corpus[1])
    with pytest.raises(FormatError):
        load_feature_dir(tmp_path)


def test_load_feature_dir_empty(tmp_path):
    with pytest.raises(FormatError):
        load_feature_dir(tmp_path)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_deterministic_and_seed_sensitive():
    a = synth_generate(2, 50, seed=3)
    b = synth_generate(2, 50, seed=3)
    c = synth_generate(2, 50, seed=4)
    for s1, s2 in zip(a, b):
        assert np.array_equal(s1.features, s2.features)
        assert np.array_equal(s1.mid_prices, s2.mid_prices)
    assert not np.array_equal(a[0].features, c[0].features)


def test_synth_days_are_independent():
    corpus = synth_generate(3, 50, seed=0)
    assert len({s.day_id for s in corpus}) == 3
    assert not np.array_equal(corpus[0].features, corpus[1].features)


def test_synth_validates_arguments():
    with pytest.raises(ValueError):
        synth_generate(0, 10)
    with pytest.raises(ValueError):
        synth_generate(2, 0)


def test_synth_mid_prices_positive_and_near_base():
    corpus = synth_generate(2, 400, seed=5)
    for s in corpus:
        assert np.all(s.mid_prices > 0)
        assert 50 < s.mid_prices.mean() < 200


def test_synth_labels_cover_all_classes():
    ds = WindowDataset(synth_generate(4, 300, seed=0))
    counts = np.bincount(ds.labels, minlength=3)
    assert np.all(counts > 0)


def test_synth_signal_columns_carry_the_label():
    """An independent shallow learner must recover labels from the features.

    This pins down that the planted signal, not the network code, is what
    makes the corpus learnable.
    """
    sklearn = pytest.importorskip("sklearn.tree")
    corpus = synth_generate(4, 300, seed=1, separation=1.0)
    cols = list(data.SIGNAL_COLUMNS)

    def xy(series_list):
        ds = WindowDataset(series_list)
        x, y = ds.gather(np.arange(ds.n_samples))
        return gathered_windows(x)[:, -1, :][:, cols].mean(axis=1, keepdims=True), y

    x_tr, y_tr = xy(corpus[:3])
    x_te, y_te = xy(corpus[3:])
    tree = sklearn.DecisionTreeClassifier(max_depth=3, random_state=0)
    tree.fit(x_tr, y_tr)
    from tlonbof import metrics

    cm = metrics.confusion(y_te, tree.predict(x_te))
    assert metrics.macro_prf(cm)[2] >= 0.9


def test_synth_separation_zero_removes_signal():
    sklearn = pytest.importorskip("sklearn.tree")
    corpus = synth_generate(4, 300, seed=1, separation=0.0)
    cols = list(data.SIGNAL_COLUMNS)

    def xy(series_list):
        ds = WindowDataset(series_list)
        x, y = ds.gather(np.arange(ds.n_samples))
        return gathered_windows(x)[:, -1, :][:, cols].mean(axis=1, keepdims=True), y

    x_tr, y_tr = xy(corpus[:3])
    x_te, y_te = xy(corpus[3:])
    tree = sklearn.DecisionTreeClassifier(max_depth=3, random_state=0)
    tree.fit(x_tr, y_tr)
    from tlonbof import metrics

    cm = metrics.confusion(y_te, tree.predict(x_te))
    kappa = metrics.cohens_kappa(cm)
    assert abs(kappa) < 0.15  # no usable signal in the features
