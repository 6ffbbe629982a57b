"""Command line entry points: synth, train, eval, ablate, config.

The BLAS thread caps of TLNB_THREADS / TLNB_DETERMINISTIC are applied when
the ``tlonbof`` package is imported, before numpy loads; ``main`` rejects a
malformed TLNB_THREADS.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import config as config_mod
from . import data, metrics, training
from .errors import FormatError, NumericError, TrainingDiverged, UndefinedMetricError
from .network import ModelConfig

# ablation grid: (deep_features, temporal_modeling, kernel_param_learning,
# adaptive_scaling), ordered from the plainest model to the full one
DEFAULT_GRID = [
    (False, False, False, config_mod.SCALING_FROZEN),
    (True, False, False, config_mod.SCALING_FROZEN),
    (False, True, False, config_mod.SCALING_FROZEN),
    (True, True, False, config_mod.SCALING_FROZEN),
    (True, True, True, config_mod.SCALING_OFF),
    (True, True, True, config_mod.SCALING_FROZEN),
    (True, True, True, config_mod.SCALING_LEARNED),
]

_GRID_HEADER = ["deep_features", "temporal_modeling", "kernel_param_learning", "adaptive_scaling"]
SCORES = ("precision", "recall", "f1", "kappa")  # metrics.fold_scores, in report order


class _Usage(Exception):
    """Invocation problem: wrong flags, bad config, missing inputs. Exit 2."""


def _read_input(what: str, path, reader):
    """``reader(path)``, with a missing file or a directory as a usage error naming it."""
    try:
        return reader(path)
    except FileNotFoundError as exc:
        raise _Usage(f"{what} not found: {exc.filename or path}") from None
    except IsADirectoryError as exc:
        raise _Usage(f"{what} is a directory: {exc.filename or path}") from None


def _load_config(path) -> config_mod.RunConfig:
    if path is None:
        return config_mod.RunConfig()
    try:
        return _read_input("config file", path, config_mod.load_run_config)
    except FormatError as exc:
        raise _Usage(str(exc)) from None


def _check_out_paths(*paths) -> None:
    """Refuse an output path that is a directory or lies in a missing one, before any work."""
    for path in paths:
        if not path:
            continue
        if os.path.isdir(path):
            raise _Usage(f"output path is a directory: {path}")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise _Usage(f"directory of output path does not exist: {path}")


def _seed(seed: int) -> int:
    """A ``--seed`` value, by the config's rule for ``seed``."""
    problem = config_mod.value_error("seed", seed)
    if problem is not None:
        raise _Usage(f"--seed: {problem}")
    return seed


def _load_corpus(path) -> tuple[str, list[data.FeatureSeries]]:
    """The data directory and its days; a missing directory or a bad entry is a usage error."""
    if path is None:
        raise _Usage("no data directory given (use --data or set data_dir in the config)")
    if not os.path.isdir(path):
        raise _Usage(f"data directory does not exist: {path}")
    return path, _read_input("feature file", path, data.load_feature_dir)


def _windows(rc: config_mod.RunConfig, corpus) -> data.WindowDataset:
    return data.WindowDataset(
        corpus,
        window=rc.window,
        horizon=rc.horizon,
        threshold=rc.threshold,
        mode=rc.label_mode,
    )


def _show(header: list[str], rows: list[list[str]]) -> None:
    """Print report rows as a table: kappa columns to 4 places, other scores to 2, "" as -."""
    places = [4 if h.startswith("kappa") else 2 if h.split("_")[0] in SCORES else None
              for h in header]
    rows = [["-" if not v else v if p is None else f"{float(v):.{p}f}" for v, p in zip(r, places)]
            for r in rows]
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    for row in [header, ["-" * w for w in widths], *rows]:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _write_csv(path, header: list[str], rows: list[list[str]]) -> None:
    text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    config_mod.write_atomic(path, text.encode("utf-8"))


def _score_cells(score: dict[str, float]) -> list[str]:
    return [repr(score[k]) for k in SCORES]


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    try:
        corpus = data.synth_generate(
            n_days=args.days,
            rows_per_day=args.rows_per_day,
            seed=_seed(args.seed),
            separation=args.separation,
        )
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # --out, or a directory above it, is a file
        raise _Usage(f"cannot make output directory {args.out}: {exc.strerror}") from None
    paths = [os.path.join(args.out, f"day_{series.day_id:03d}.csv") for series in corpus]
    _check_out_paths(*paths)
    for path, series in zip(paths, corpus):
        data.write_feature_csv(path, series)
    print(f"wrote {len(corpus)} day files to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# train


def _write_history(path, history: training.TrainHistory) -> None:
    rows = [
        [str(i + 1), repr(loss), repr(g)]
        for i, (loss, g) in enumerate(zip(history.loss, history.grad_norm_conv))
    ]
    _write_csv(path, ["step", "loss", "grad_norm_conv"], rows)


def cmd_train(args) -> int:
    rc = _load_config(args.config)
    if args.seed is not None:
        rc.seed = _seed(args.seed)
    history_path = args.history or os.path.splitext(args.out)[0] + ".history.csv"
    _check_out_paths(args.out, history_path)
    data_dir, corpus = _load_corpus(args.data or rc.data_dir or None)
    trainset = _windows(rc, corpus)
    if trainset.n_samples == 0:
        raise _Usage(f"no usable windows in {data_dir} "
                     f"(window={rc.window}, horizon={rc.horizon})")
    try:
        result = training.train(rc, trainset)
    except TrainingDiverged as exc:
        cfg = ModelConfig.from_run(rc, float(trainset.window))
        training.save_checkpoint(args.out, exc.last_good_params, cfg)
        print(f"error: {exc}; last good parameters saved to {args.out}", file=sys.stderr)
        return 1
    training.save_checkpoint(args.out, result.params, result.model_cfg, result.adam_state)
    _write_history(history_path, result.history)
    preds = training.predict(result.params, result.model_cfg, trainset)
    score = metrics.fold_scores(trainset.labels, preds, result.model_cfg.n_classes)
    print(f"checkpoint: {args.out}")
    print(f"history:    {history_path} ({result.history.steps} steps)")
    _show(SCORES, [_score_cells(score)])
    return 0


# ---------------------------------------------------------------------------
# eval


def _fold_windows(rc, by_day, k, role, days) -> data.WindowDataset:
    """Fold ``k``'s windows of ``days``; a usage error naming the fold if they hold none."""
    ds = _windows(rc, [by_day[d] for d in days])
    if ds.n_samples == 0:
        raise _Usage(f"fold {k} has no usable {role} windows in day(s) "
                     f"{', '.join(map(str, days))} (window={rc.window}, horizon={rc.horizon})")
    return ds


def _eval_fold_rows(args, rc, corpus):
    """Yield (fold_label, test_dataset, params, model_cfg) per fold.

    Every fold's windows are checked before the first fold trains.
    """
    fixed = None
    if args.model is not None:
        # (params, mcfg) only: scoring reads no Adam state, and the state holds the file
        fixed = _read_input("checkpoint file", args.model, training.load_checkpoint)[:2]
        mcfg, d_corpus = fixed[1], corpus[0].features.shape[1]
        if mcfg.d_in != d_corpus:
            raise _Usage(f"checkpoint {args.model} takes d_in={mcfg.d_in} features per row, "
                         f"but the corpus has {d_corpus}")
        try:
            config_mod.check_model(mcfg.arch, mcfg.deep_features, mcfg.n_regions, rc.window)
        except FormatError as exc:
            raise _Usage(f"checkpoint {args.model}: {exc}") from None
    by_day = {s.day_id: s for s in corpus}
    if rc.folds == config_mod.FOLDS_SINGLE:
        if fixed is None:
            raise _Usage("--folds single needs --model (no per-fold training to run)")
        params, mcfg = fixed
        yield 1, _fold_windows(rc, by_day, 1, "test", list(by_day)), params, mcfg
        return
    if len(by_day) < 2:
        raise _Usage(f"anchored folds need at least 2 days, got {len(by_day)} "
                     "(--folds single with --model scores one)")
    folds = []
    for k, fold in enumerate(data.anchored_folds(list(by_day)), start=1):
        testset = _fold_windows(rc, by_day, k, "test", [fold.test_day])
        trainset = None if fixed else _fold_windows(rc, by_day, k, "training", fold.train_days)
        folds.append((k, trainset, testset))
    for k, trainset, testset in folds:
        if trainset is None:
            params, mcfg = fixed
        else:
            result = training.train(rc, trainset)
            params, mcfg = result.params, result.model_cfg
        yield k, testset, params, mcfg


def cmd_eval(args) -> int:
    rc = _load_config(args.config)
    if args.folds:
        rc.folds = args.folds
    _check_out_paths(args.report, args.dump_predictions)
    _, corpus = _load_corpus(args.data or rc.data_dir or None)
    per_fold = []
    fold_rows = []
    dump_rows = []
    for k, testset, params, mcfg in _eval_fold_rows(args, rc, corpus):
        preds = training.predict(params, mcfg, testset)
        score = metrics.fold_scores(testset.labels, preds, mcfg.n_classes)
        per_fold.append(score)
        fold_rows.append([str(k)] + _score_cells(score))
        if args.dump_predictions:
            for i in range(testset.n_samples):
                dump_rows.append([
                    str(k), str(int(testset.day_ids[i])), str(i),
                    str(int(testset.labels[i])), str(int(preds[i])),
                ])
    summary = metrics.summarize(per_fold)
    for idx, stat in enumerate(("mean", "std")):
        fold_rows.append([stat] + [repr(summary[k][idx]) for k in SCORES])
    _write_csv(args.report, ["fold", *SCORES], fold_rows)
    if args.dump_predictions:
        _write_csv(args.dump_predictions, ["fold", "day_id", "index", "true", "pred"], dump_rows)
    _show(["fold", *SCORES], fold_rows)
    return 0


# ---------------------------------------------------------------------------
# ablate


def load_grid(path) -> list[tuple[bool, bool, bool, str]]:
    lines = config_mod.read_text(path).splitlines()
    numbered = [
        (i, line.strip()) for i, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not numbered:
        raise FormatError(f"{path}: empty grid file", location="line 1")
    first_no, header = numbered[0]
    if [c.strip() for c in header.split(",")] != _GRID_HEADER:
        raise FormatError(
            f"{path}: bad grid header, expected {','.join(_GRID_HEADER)}",
            location=f"line {first_no}",
        )
    grid = []
    for lineno, line in numbered[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 4:
            raise FormatError(f"{path}: expected 4 columns", location=f"line {lineno}")
        # each column is a run-config key, parsed by the config's own rules
        try:
            grid.append(tuple(config_mod.parse_value(k, c, lineno)
                              for k, c in zip(_GRID_HEADER, cells)))
        except FormatError as exc:
            raise FormatError(f"{path}: {exc.message}", location=exc.location) from None
    if not grid:
        raise FormatError(f"{path}: grid has a header but no rows", location=f"line {first_no + 1}")
    return grid


def cmd_ablate(args) -> int:
    rc = _load_config(args.config)
    _check_out_paths(args.report)
    data_dir, corpus = _load_corpus(args.data or rc.data_dir or None)
    if len(corpus) < 2:
        raise _Usage("ablation needs at least 2 days (train on all but last, test on last)")
    if args.grid is not None:
        try:
            grid = _read_input("grid file", args.grid, load_grid)
        except FormatError as exc:
            raise _Usage(str(exc)) from None
    else:
        grid = DEFAULT_GRID
    for n, row in enumerate(grid, start=1):
        cell = replace(rc, **dict(zip(_GRID_HEADER, row)))
        try:
            config_mod.check_model(cell.arch, cell.deep_features,
                                   config_mod.pooled_regions(cell), cell.window)
        except FormatError as exc:
            raise _Usage(f"grid row {n} ({','.join(map(str, row))}): {exc}") from None
    seeds = config_mod.parse_seed_list(rc.ablation_seeds)  # the loader checked it
    trainset = _windows(rc, corpus[:-1])
    testset = _windows(rc, corpus[-1:])
    if trainset.n_samples == 0 or testset.n_samples == 0:
        raise _Usage(f"not enough usable windows in {data_dir}")
    header = _GRID_HEADER + ["f1_mean", "f1_std", "kappa_mean", "kappa_std", "status"]
    rows = []
    for row in grid:
        scores, status = [], "ok"
        for seed in seeds:
            cell = replace(rc, seed=seed, **dict(zip(_GRID_HEADER, row)))
            try:
                result = training.train(cell, trainset)
                preds = training.predict(result.params, result.model_cfg, testset)
                score = metrics.fold_scores(testset.labels, preds, result.model_cfg.n_classes)
            except (NumericError, UndefinedMetricError) as exc:
                status = "undefined" if isinstance(exc, UndefinedMetricError) else "failed"
                print(f"cell ({','.join(map(str, row))}) seed {seed} {status}: {exc}",
                      file=sys.stderr)
                break
            scores.append(score)
        flags = [str(v).lower() for v in row]  # config spelling: true/false, scaling as is
        if status == "ok":
            summary = metrics.summarize(scores)
            stats = [repr(v) for key in ("f1", "kappa") for v in summary[key]]
        else:
            stats = ["", "", "", ""]
        rows.append(flags + stats + [status])
    _write_csv(args.report, header, rows)
    _show(header, rows)
    return 0


# ---------------------------------------------------------------------------
# config


def cmd_config(args) -> int:
    _check_out_paths(args.out)
    text = config_mod.dumps(_load_config(args.check))
    if args.out:
        config_mod.write_atomic(args.out, text.encode("utf-8"))
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlonbof",
        description="Temporal logistic neural bag-of-features for order book streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic feature corpus")
    p.add_argument("--out", required=True, help="output directory for day CSVs")
    p.add_argument("--days", type=int, required=True)
    p.add_argument("--rows-per-day", type=int, required=True, dest="rows_per_day")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--separation", type=float, default=1.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one model on a feature directory")
    p.add_argument("--config", help="run config file (defaults used when omitted)")
    p.add_argument("--data", help="feature CSV directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--history", help="history CSV path (default: <out>.history.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="walk-forward evaluation report")
    p.add_argument("--config", help="run config file")
    p.add_argument("--data", help="feature CSV directory")
    p.add_argument("--model", help="fixed checkpoint to evaluate "
                                   "(omit to retrain per anchored fold)")
    p.add_argument("--folds", choices=config_mod.FOLD_CHOICES,
                   help="anchored walk-forward or one fold over the whole directory")
    p.add_argument("--report", required=True, help="report CSV output path")
    p.add_argument("--dump-predictions", dest="dump_predictions",
                   help="also write per-sample predictions to this CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the feature-ablation grid")
    p.add_argument("--config", help="run config file")
    p.add_argument("--data", help="feature CSV directory")
    p.add_argument("--grid", help="grid CSV (default: the published 7-row grid)")
    p.add_argument("--report", required=True, help="report CSV output path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("config", help="print or validate run configs")
    p.add_argument("--out", help="write the config here instead of stdout")
    p.add_argument("--check", help="load this config and print its canonical form")
    p.set_defaults(func=cmd_config)

    return parser


def main(argv=None) -> int:
    threads = os.environ.get("TLNB_THREADS")
    if threads is not None and not (threads.isdigit() and int(threads) > 0):
        print(f"error: TLNB_THREADS must be a positive integer, got {threads!r}",
              file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, NumericError, UndefinedMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
