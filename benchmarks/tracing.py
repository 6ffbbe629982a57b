"""Span tracing for the traced benchmark run.

Wrappers installed from here around public ``tlonbof`` functions record one
span per call: the function's name, its start and end, and the span that was
open when it began. Spans stay in memory until the command ends and are
written out once, when the benchmark run ends; the per-layer metrics are
computed from them afterwards. The wrappers only time and count, so a traced
command produces the same bytes as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

# (module, attribute path) of each wrapped function. A span is named
# "<module>.<path>", except that a constructor is named after its class.
TARGETS = (
    ("cli", "main"),
    ("data", "load_feature_dir"),
    ("data", "WindowDataset.__init__"),
    ("data", "WindowDataset.gather"),
    ("training", "train"),
    ("training", "balanced_batch"),
    ("training", "adam_step"),
    ("training", "predict"),
    ("training", "save_checkpoint"),
    ("training", "load_checkpoint"),
    ("network", "forward_batch"),
    ("network", "backward_batch"),
    ("network", "conv1d_same_batch"),
    ("network", "conv1d_same_backward"),
    ("network", "fully_connected"),
    ("bof", "forward_batch"),
    ("bof", "backward"),
    ("kernels", "sigmoid"),
    ("metrics", "fold_scores"),
)


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.removesuffix('.__init__')}"


SPAN_NAMES = tuple(span_name(m, p) for m, p in TARGETS)


def _conv_flops(x, weights, *_args) -> int:
    """Multiply-adds x2 of the same-length convolution, from the argument shapes."""
    batch, steps, d_in = x.shape
    taps, _, d_out = weights.shape
    center = taps // 2
    rows = sum(max(0, steps - abs(k - center)) for k in range(taps))
    return 2 * batch * rows * d_in * d_out


def _conv_backward_flops(x, weights, *_args) -> int:
    # one product of forward size for d_x and one for d_w
    return 2 * _conv_flops(x, weights)


def _bof_backward_flops(ctx, *_args) -> int:
    # the two (B*N, K) x (K|B*N, D) products: d_feats and d_codebook;
    # elementwise work is left out
    batch, steps, n_codewords = ctx.k_mat.shape
    return 4 * batch * steps * n_codewords * ctx.codebook.shape[1]


def _gathered(_self, indices, *_args) -> int:
    return len(indices)


# per-call work, computed from the arguments: floating-point operations for
# the kernels whose rate is reported, windows for gather
WORK = {
    "network.conv1d_same_batch": _conv_flops,
    "network.conv1d_same_backward": _conv_backward_flops,
    "bof.backward": _bof_backward_flops,
    "data.WindowDataset.gather": _gathered,
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, modules: dict):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, work)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches = []
        for module, path in TARGETS:
            name = span_name(module, path)
            owner = modules.get(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            self._patches.append((owner, attr, original, self._wrap(name, original)))

    def _wrap(self, name, fn):
        work = WORK.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            amount = 0
            if work is not None:
                try:
                    amount = work(*args, **kwargs)
                except (AttributeError, TypeError, ValueError):
                    amount = 0  # argument layout changed: work unknown
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, amount)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """The wrappers are in place only inside this block."""
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)


def write_spans(path, ops: list[dict], absent: list[str]) -> None:
    """Write the spans of traced commands (dicts with wall_s and spans), one per line."""
    with open(path, "w") as fh:
        for k, op in enumerate(ops):
            fh.write(json.dumps({"op": k, "wall_s": op["wall_s"]}) + "\n")
            for idx, (name, start, end, parent, work) in enumerate(op["spans"]):
                fh.write(json.dumps({"op": k, "span": idx, "name": name, "start": start,
                                     "end": end, "parent": parent, "work": work}) + "\n")
        for name in absent:
            fh.write(json.dumps({"absent": name}) + "\n")


def layer_metrics(ops: list[dict], absent: list[str]) -> dict[str, float]:
    """Per-layer metrics over traced commands, as BENCHMARK.json names them.

    Each op is a dict with the command's ``wall_s`` and its ``spans``.
    ``.calls``, ``.self_s`` and the gather window count are per command (the
    median over commands); ``.self_ms_p50`` is over all calls. A function that
    is absent or never called reads 0.
    """
    per_op = []  # name -> [calls, self_s, inclusive_s, work] for each op
    self_ms = {name: [] for name in SPAN_NAMES}
    coverage = []
    for op in ops:
        spans = op["spans"]
        child_s = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES}
        for idx, (name, start, end, _, work) in enumerate(spans):
            own = (end - start) - child_s[idx]
            row = totals[name]
            row[0] += 1
            row[1] += own
            row[2] += end - start
            row[3] += work
            self_ms[name].append(1e3 * own)
        per_op.append(totals)
        coverage.append(sum(row[1] for row in totals.values()) / op["wall_s"])

    def med(name, col):
        return statistics.median(op[name][col] for op in per_op)

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = med(name, 0)
        out[f"{name}.self_s"] = med(name, 1)
        out[f"{name}.self_ms_p50"] = statistics.median(self_ms[name]) if self_ms[name] else 0.0
    for name in ("network.conv1d_same_batch", "network.conv1d_same_backward", "bof.backward"):
        flops = sum(op[name][3] for op in per_op)
        seconds = sum(op[name][2] for op in per_op)
        out[f"{name}.gflop_per_s"] = flops / seconds / 1e9 if seconds > 0 else 0.0
    out["data.WindowDataset.gather.windows"] = med("data.WindowDataset.gather", 3)
    out["trace.coverage"] = statistics.median(coverage)
    out["trace.absent"] = len(absent)
    return out
