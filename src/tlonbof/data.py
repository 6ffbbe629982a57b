"""Limit order book feature streams: loading, labeling, windowing, folds.

A corpus is a list of per-day series. Each day carries pre-extracted
144-dimensional feature rows plus the mid-price at each event. Labels
describe the direction of the mid-price over the next ``horizon`` events
relative to a proportional threshold; classifiers consume fixed-length
windows of the most recent rows, which ``WindowDataset.gather`` hands out as
one table of distinct rows per batch, for training and scoring alike.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from .config import MEAN_HORIZON, POINT_HORIZON, RunConfig, read_text, write_atomic
from .errors import FormatError

N_FEATURES = 144

DOWN, STATIONARY, UP = 0, 1, 2

# synthetic corpus: planted-signal columns and the generator's fixed shape
SIGNAL_COLUMNS = tuple(range(4, N_FEATURES, 9))
SYNTH_HORIZON = 10
SYNTH_DRIFT = 4e-4
SYNTH_WALK_NOISE = 5e-6
SYNTH_SIGNAL_NOISE = 0.05
SYNTH_BASE_PRICE = 100.0
SYNTH_BLOCK_MIN, SYNTH_BLOCK_MAX = 30, 60


@dataclass
class FeatureSeries:
    """One trading day: event-aligned feature rows and mid-prices."""

    day_id: int
    features: np.ndarray  # (n_events, N_FEATURES)
    mid_prices: np.ndarray  # (n_events,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.mid_prices = np.asarray(self.mid_prices, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] != N_FEATURES:
            raise ValueError(f"features must be (n, {N_FEATURES}), got {self.features.shape}")
        if self.mid_prices.shape != (self.features.shape[0],):
            raise ValueError("mid_prices length must match feature rows")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class FoldSpec:
    train_days: tuple[int, ...]
    test_day: int


def _label_day(
    mids: np.ndarray, horizon: int, threshold: float, mode: str
) -> np.ndarray:
    """Labels for every t in [0, n - horizon), vectorized."""
    n = len(mids)
    if n <= horizon:
        return np.empty(0, dtype=np.int64)
    if mode == MEAN_HORIZON:
        csum = np.concatenate([[0.0], np.cumsum(mids)])
        future = (csum[horizon + 1 :] - csum[1 : n - horizon + 1]) / horizon
    elif mode == POINT_HORIZON:
        future = mids[horizon:]
    else:
        raise ValueError(f"unknown label mode {mode!r}")
    now = mids[: n - horizon]
    r = (future - now) / now
    labels = np.full(r.shape, STATIONARY, dtype=np.int64)
    labels[r >= threshold] = UP
    labels[r <= -threshold] = DOWN
    return labels


def anchored_folds(day_ids: list[int]) -> list[FoldSpec]:
    """Anchored walk-forward splits: fold k trains on days 1..k, tests on day k+1."""
    ids = [int(d) for d in day_ids]
    days = sorted(set(ids))
    if len(days) != len(ids):
        raise ValueError("day ids must be unique")
    if len(days) < 2:
        raise ValueError(f"need at least 2 days for walk-forward folds, got {len(days)}")
    return [FoldSpec(tuple(days[: k + 1]), days[k + 1]) for k in range(len(days) - 1)]


@dataclass
class WindowBatch:
    """Equal-length windows as slices of one table of rows.

    Window i is ``rows[starts[i] : starts[i] + window]``, so windows that
    overlap share table rows and the conv reads each row once however many
    windows hold it.
    """

    rows: np.ndarray  # (n_rows, dim)
    starts: np.ndarray  # (n_windows,) int
    window: int

    @classmethod
    def of_windows(cls, x: np.ndarray) -> WindowBatch:
        """A (n_windows, window, dim) array read as a table: window i starts at row i * window."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"expected (batch, steps, dim) input, got shape {x.shape}")
        n_windows, window, dim = x.shape
        return cls(x.reshape(-1, dim), np.arange(n_windows) * window, window)


def window_count(n_rows: int, window: int, horizon: int) -> int:
    """The labelled windows of a day of ``n_rows`` rows: each ends ``horizon`` rows before one."""
    return max(n_rows - window - horizon + 1, 0)


class WindowDataset:
    """Window samples over a corpus, gathered lazily from per-day arrays.

    Windows are never materialized up front. ``gather`` copies the rows a
    batch of windows reads out of the day arrays on demand, each distinct
    row once, for training and scoring alike, so memory stays proportional
    to the raw rows.
    """

    def __init__(
        self,
        corpus: list[FeatureSeries],
        window: int = RunConfig.window,
        horizon: int = RunConfig.horizon,
        threshold: float = RunConfig.threshold,
        mode: str = RunConfig.label_mode,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._days = [np.ascontiguousarray(s.features) for s in corpus]
        # a sample's key, day * stride + t for the last row t of its window, sorts by
        # day, then t, and keeps the windows of different days at least a window apart
        self._stride = max((len(s) for s in corpus), default=1)
        counts = np.array([window_count(len(s), window, horizon) for s in corpus], dtype=np.int64)
        offsets = np.arange(len(corpus)) * self._stride + window - 1 - (np.cumsum(counts) - counts)
        self._keys = np.arange(counts.sum()) + np.repeat(offsets, counts)
        self.labels = np.concatenate([np.empty(0, dtype=np.int64)] + [
            _label_day(s.mid_prices, horizon, threshold, mode)[window - 1 :] for s in corpus])
        self.day_ids = np.repeat(np.array([s.day_id for s in corpus], dtype=np.int64), counts)

    @property
    def n_samples(self) -> int:
        return self.labels.size

    def gather(self, indices: np.ndarray) -> tuple[WindowBatch, np.ndarray]:
        """The windows of samples ``indices`` and their labels.

        The batch's table holds each row that any of the windows reads once,
        sorted by (day, t), so every window is a contiguous slice of it and
        it has at most ``len(indices) * window`` rows. A sample drawn twice
        gets the same start both times.
        """
        indices = np.asarray(indices)
        w = self.window
        ends, inverse = np.unique(self._keys[indices], return_inverse=True)
        # in key order each window adds the rows its predecessor does not hold
        new = np.minimum(np.diff(ends, prepend=ends[:1] - w), w)
        stop = np.cumsum(new)
        # table row r in [stop_j - new_j, stop_j) holds the row of key r + ends_j + 1 - stop_j
        keys = np.arange(new.sum()) + np.repeat(ends + 1 - stop, new)
        rows = np.empty((keys.size, N_FEATURES))
        day = ends // self._stride  # ascending, as ``ends`` is
        days = day[np.diff(day, prepend=-1) > 0]
        cuts = np.searchsorted(keys, np.append(days, days[-1:] + 1) * self._stride)
        for d, lo, hi in zip(days.tolist(), cuts[:-1].tolist(), cuts[1:].tolist()):
            np.take(self._days[d], keys[lo:hi] - d * self._stride, axis=0, out=rows[lo:hi],
                    mode="clip")  # the keys are in range; "clip" writes straight into ``out``
        return WindowBatch(rows, (stop - w)[inverse], w), self.labels[indices]


# ---------------------------------------------------------------------------
# CSV corpus format. One file per day, header day_id,mid_price,f1..f144,
# one event per row. Floats are written with repr() so a round trip is exact.

_HEADER = ["day_id", "mid_price"] + [f"f{i}" for i in range(1, N_FEATURES + 1)]
_HEADER_LINE = (",".join(_HEADER) + "\n").encode()
# every byte a plain body holds; any other sends the file to the row loop
_PLAIN = b"0123456789.,+-eE\n"
_HEADER_NOT_PLAIN = len(_HEADER_LINE.translate(None, _PLAIN))  # the header's bytes outside it


def load_feature_csv(path) -> FeatureSeries:
    """One day file, parsed in bulk when plain and by the csv row loop otherwise.

    Both routes round each cell correctly, so they return the same values. A
    file the bulk parse refuses goes to the row loop, which reports its format
    error with the line; the finite/positive check runs after either route.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    day_id, mid_arr, feats = _bulk_parse(raw) or _parse_rows(path)
    # one vectorized pass: every value finite, every mid-price strictly positive
    bad = np.column_stack([~(np.isfinite(mid_arr) & (mid_arr > 0)), ~np.isfinite(feats)])
    if bad.any():
        r, c = np.argwhere(bad)[0]
        value = mid_arr[r] if c == 0 else feats[r, c - 1]
        rule = "finite and strictly positive" if c == 0 else "finite"
        raise FormatError(
            f"{path}: {_HEADER[c + 1]} must be {rule}, got {float(value)!r}",
            location=f"line {r + 2}",
        )
    return FeatureSeries(day_id, feats, mid_arr)


def _parse_rows(path):
    """(day_id, mids, features) through the csv module, one row at a time."""
    day_id = None
    mids: list[float] = []
    rows: list[list[float]] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}: empty file", location="line 1")
            if header != _HEADER:
                raise FormatError(
                    f"{path}: bad header, expected day_id,mid_price,f1..f{N_FEATURES}",
                    location="line 1",
                )
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(_HEADER):
                    raise FormatError(
                        f"{path}: expected {len(_HEADER)} columns, got {len(row)}",
                        location=f"line {lineno}",
                    )
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise FormatError(f"{path}: {exc}", location=f"line {lineno}") from None
                if not values[0].is_integer():
                    raise FormatError(
                        f"{path}: day_id must be an integer, got {row[0]}",
                        location=f"line {lineno}",
                    )
                row_day = int(values[0])
                if day_id is None:
                    day_id = row_day
                elif row_day != day_id:
                    raise FormatError(
                        f"{path}: mixed day ids {day_id} and {row_day} in one file",
                        location=f"line {lineno}",
                    )
                mids.append(values[1])
                rows.append(values[2:])
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise FormatError(f"{path}: {exc}", location=f"line {reader.line_num}") from None
        except UnicodeDecodeError:
            read_text(path)  # raises the FormatError at the first line that is not UTF-8
            raise
    if day_id is None:
        raise FormatError(f"{path}: no data rows", location="line 2")
    return day_id, np.array(mids), np.array(rows)


def _bulk_parse(raw: bytes):
    """(day_id, mids, features) of a plain file in one C-level parse, or None.

    None leaves the file to ``_parse_rows``: another header, no rows, a byte
    outside ``_PLAIN`` (quotes, CR, spaces, ``1_0``, non-UTF-8), a blank line,
    a line over the csv module's field limit, a cell numpy cannot parse, a
    row of another width, or day ids that are not one integer.
    """
    if (not raw.startswith(_HEADER_LINE) or len(raw) == len(_HEADER_LINE)
            or len(raw.translate(None, _PLAIN)) != _HEADER_NOT_PLAIN):
        return None
    limit, start = csv.field_size_limit(), len(_HEADER_LINE)
    while start < len(raw):  # each body line, in place: none blank, none over the limit
        end = raw.find(b"\n", start)
        end = len(raw) if end < 0 else end
        if end == start or end - start > limit:
            return None
        start = end + 1
    try:
        table = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, quotechar=None,
                           dtype=np.float64, ndmin=2, skiprows=1)
    except ValueError:
        return None
    days = table[:, 0]
    if table.shape[1] != len(_HEADER) or (days != days[0]).any() or not days[0].is_integer():
        return None
    return int(days[0]), table[:, 1].copy(), np.ascontiguousarray(table[:, 2:])


def write_feature_csv(path, series: FeatureSeries) -> None:
    lines = [",".join(_HEADER)]
    for mid, feats in zip(series.mid_prices, series.features):
        lines.append(
            ",".join([str(series.day_id), repr(float(mid))] + [repr(float(v)) for v in feats])
        )
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_feature_dir(directory) -> list[FeatureSeries]:
    """Load every *.csv in a directory, returned in day-id order."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".csv"))
    if not names:
        raise FormatError(f"no .csv files in {directory}")
    corpus = [load_feature_csv(os.path.join(directory, n)) for n in names]
    corpus.sort(key=lambda s: s.day_id)
    seen = [s.day_id for s in corpus]
    if len(set(seen)) != len(seen):
        raise FormatError(f"duplicate day ids across files in {directory}: {seen}")
    return corpus


# ---------------------------------------------------------------------------
# synthetic corpus with a known planted signal


def synth_generate(
    n_days: int, rows_per_day: int, seed: int = 0, separation: float = 1.0
) -> list[FeatureSeries]:
    """Generate a corpus whose direction labels are predictable from features.

    The mid-price follows block regimes (down, flat, up) lasting
    ``SYNTH_BLOCK_MIN`` to ``SYNTH_BLOCK_MAX`` events (regime persistence),
    with per-step drift ``SYNTH_DRIFT`` times the regime, plus a small
    multiplicative noise walk. A subset of feature columns
    (``SIGNAL_COLUMNS``) carries the noise-free normalized forward return
    over ``SYNTH_HORIZON`` events scaled by ``separation``; every other
    column is standard normal. At separation 0 the features carry no
    information about the labels. Labels themselves are always computed
    from the realized mid-prices, not planted.
    """
    if n_days < 1 or rows_per_day < 1:
        raise ValueError("n_days and rows_per_day must be >= 1")
    if not np.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation!r}")
    horizon, drift = SYNTH_HORIZON, SYNTH_DRIFT
    signal = np.zeros(N_FEATURES, dtype=bool)
    signal[list(SIGNAL_COLUMNS)] = True
    corpus = []
    days = np.random.Generator(np.random.PCG64(int(seed))).spawn(n_days)
    for day, rng in enumerate(days, start=1):
        total = rows_per_day + horizon
        regimes = np.empty(total)
        pos = 0
        while pos < total:
            length = int(rng.integers(SYNTH_BLOCK_MIN, SYNTH_BLOCK_MAX + 1))
            regimes[pos : pos + length] = float(rng.integers(-1, 2))
            pos += length
        # realized mid path: regime drift plus a small noise walk
        steps = drift * regimes + SYNTH_WALK_NOISE * rng.normal(size=total)
        mids = SYNTH_BASE_PRICE * np.cumprod(1.0 + steps)
        # noise-free path defines the planted signal
        clean = SYNTH_BASE_PRICE * np.cumprod(1.0 + drift * regimes)
        csum = np.concatenate([[0.0], np.cumsum(clean)])
        future = (csum[horizon + 1 :] - csum[1 : total - horizon + 1]) / horizon
        z = (future / clean[:rows_per_day] - 1.0) / (drift * (horizon + 1) / 2.0)
        feats = rng.normal(size=(rows_per_day, N_FEATURES))
        with np.errstate(over="ignore"):  # a huge separation overflows, refused below
            feats[:, signal] = separation * z[:, None] + SYNTH_SIGNAL_NOISE * feats[:, signal]
        if not np.isfinite(feats).all():
            raise ValueError(f"separation {separation!r} gives non-finite features")
        corpus.append(FeatureSeries(day, feats, mids[:rows_per_day]))
    return corpus
