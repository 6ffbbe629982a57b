"""Workload processes of the tlonbof benchmark.

``run.py`` starts this script in a fresh process for each stage, with the
thread caps and ``TLNB_DETERMINISTIC=1`` already in the environment and
``src`` on ``PYTHONPATH``:

    worker.py prepare --workload W --seed N --work DIR
        generate the workload's inputs with the CLI (``tlonbof synth``, a run
        config, and for ``predict_paper`` a checkpoint from a short
        ``tlonbof train``); nothing here is timed
    worker.py command --workload W --work DIR --trace 0|1
        import tlonbof and load the inputs (timed: setup), run the workload's
        command once through ``tlonbof.cli.main`` (timed, and traced with
        ``--trace 1``), check its outputs, and print the result as JSON

One command per fresh process is how the CLI is used; it also spreads each
run's samples over several processes instead of one.

Every stage talks to the package only through the CLI and the public
``data``, ``training`` and ``network`` functions named in the benchmark's
README; it builds its own windows from the generated features.

Nothing imports numpy before ``command`` starts its setup clock.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

WINDOW, HORIZON = 15, 10  # the run-config defaults every corpus is sized for
BATCH = 128
SEPARATION = 1.0  # synthetic signal strength of every corpus: learnable, not trivial
PREDICT_SAMPLE = 16  # windows re-scored one at a time per predict run
LOSS_TAIL = 3  # final_loss is the mean of this many last history losses


def windows_per_day(rows: int) -> int:
    return rows - WINDOW - HORIZON + 1


def _paths(work: str) -> dict[str, str]:
    names = ("corpus", "train_corpus", "run.cfg", "model.tlnb", "out.tlnb", "out.history.csv",
             "report.csv", "predictions.csv", "inputs.json")
    return {n: os.path.join(work, n) for n in names}


def _cli_main(argv: list[str]):
    """Run one CLI command in-process; returns (exit code or error text, stdout)."""
    from tlonbof import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception:  # a crash is a failed operation, not a benchmark error
        code = traceback.format_exc(limit=4).strip().splitlines()[-1]
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# prepare


def prepare(args) -> int:
    spec = WORKLOADS[args.workload]
    p = _paths(args.work)
    code, out = _cli_main(["synth", "--out", p["corpus"], "--days", str(spec["days"]),
                           "--rows-per-day", str(spec["rows"]), "--seed", str(args.seed),
                           "--separation", str(SEPARATION)])
    if code != 0:
        print(f"error: tlonbof synth failed: {code} {out}", file=sys.stderr)
        return 1
    config = dict(spec["config"], seed=args.seed)
    with open(p["run.cfg"], "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in config.items())
    per_day = windows_per_day(spec["rows"])
    inputs = {"seed": args.seed, "days": spec["days"], "windows_per_day": per_day}
    epochs = config["epochs"]
    if args.workload == "train_paper":
        inputs["steps"] = epochs * math.ceil(spec["days"] * per_day / BATCH)
        inputs["windows_per_op"] = inputs["steps"] * BATCH
        inputs["loss_tail"] = LOSS_TAIL
    elif args.workload == "walkforward_small":
        fold_steps = [epochs * math.ceil(k * per_day / BATCH) for k in range(1, spec["days"])]
        inputs["windows_per_op"] = sum(fold_steps) * BATCH
    else:
        # the checkpoint is what train_paper's command trains, on a corpus of
        # its own, so every scored day is held out
        trained = WORKLOADS["train_paper"]
        code, out = _cli_main(["synth", "--out", p["train_corpus"], "--days", str(trained["days"]),
                               "--rows-per-day", str(trained["rows"]),
                               "--seed", str(args.seed + 1_000_003),
                               "--separation", str(SEPARATION)])
        if code == 0:
            code, out = _cli_main(["train", "--config", p["run.cfg"], "--data", p["train_corpus"],
                                   "--out", p["model.tlnb"]])
        if code != 0:
            print(f"error: building the checkpoint failed: {code} {out}", file=sys.stderr)
            return 1
        inputs["windows_per_op"] = spec["days"] * per_day
    with open(p["inputs.json"], "w") as fh:
        json.dump(inputs, fh)
    return 0


# ---------------------------------------------------------------------------
# setup: import the package and load the workload's inputs


def _setup(workload: str, p: dict[str, str]):
    from tlonbof import bof, cli, data, kernels, metrics, network, training

    modules = {"cli": cli, "data": data, "training": training, "network": network,
               "bof": bof, "kernels": kernels, "metrics": metrics}
    corpus = data.load_feature_dir(p["corpus"])
    model = training.load_checkpoint(p["model.tlnb"]) if workload == "predict_paper" else None
    return modules, corpus, model


# ---------------------------------------------------------------------------
# one operation per workload: argv of the timed command and its checks


def _argv(workload: str, p: dict[str, str]) -> list[str]:
    if workload == "train_paper":
        return ["train", "--config", p["run.cfg"], "--data", p["corpus"], "--out", p["out.tlnb"],
                "--history", p["out.history.csv"]]
    if workload == "walkforward_small":
        return ["eval", "--config", p["run.cfg"], "--data", p["corpus"],
                "--report", p["report.csv"]]
    return ["eval", "--config", p["run.cfg"], "--model", p["model.tlnb"], "--folds", "single",
            "--data", p["corpus"], "--report", p["report.csv"],
            "--dump-predictions", p["predictions.csv"]]


def _read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _report_kappa(path, expected_folds: list[str], problems: list[str]) -> float:
    rows = _read_csv(path)
    folds = [r["fold"] for r in rows]
    if folds != expected_folds + ["mean", "std"]:
        problems.append(f"report rows {folds}, expected folds {expected_folds} + mean, std")
    kappa = float(rows[-2]["kappa"]) if len(rows) >= 2 else float("nan")
    if not math.isfinite(kappa):
        problems.append(f"mean kappa is {kappa}")
    return kappa


def _check_train(inputs, p, loaded, quality, problems) -> None:
    rows = _read_csv(p["out.history.csv"])
    losses = [float(r["loss"]) for r in rows]
    if len(losses) != inputs["steps"]:
        problems.append(f"history has {len(losses)} steps, expected {inputs['steps']}")
    if not all(math.isfinite(v) for v in losses):
        problems.append("history holds a non-finite loss")
    if losses:
        quality["final_loss"] = statistics.fmean(losses[-LOSS_TAIL:])
        quality["first_loss"] = losses[0]
        if not quality["final_loss"] < losses[0]:
            problems.append(f"final_loss {quality['final_loss']} is not below the "
                            f"first-step loss {losses[0]}")
    try:
        loaded["modules"]["training"].load_checkpoint(p["out.tlnb"])
    except Exception as exc:  # any failure to reload is a failed check
        problems.append(f"checkpoint does not reload: {exc!r}")


def _check_walkforward(inputs, p, loaded, quality, problems) -> None:
    folds = [str(k) for k in range(1, inputs["days"])]
    kappa = _report_kappa(p["report.csv"], folds, problems)
    quality["heldout_kappa"] = kappa
    if not kappa > 0.0:
        problems.append(f"heldout_kappa {kappa} is not above chance (0)")


def _check_predict(inputs, p, loaded, quality, problems) -> None:
    quality["heldout_kappa"] = _report_kappa(p["report.csv"], ["1"], problems)
    rows = _read_csv(p["predictions.csv"])
    if len(rows) != inputs["windows_per_op"]:
        problems.append(f"{len(rows)} predictions, expected {inputs['windows_per_op']}")
        return
    params, cfg = loaded["model"][0], loaded["model"][1]
    per_day = inputs["windows_per_day"]
    for i in loaded["sample"]:
        day = loaded["corpus"][i // per_day]
        t = WINDOW - 1 + i % per_day  # last row of window i
        x = day.features[t - WINDOW + 1 : t + 1]
        row = rows[i]
        if int(row["index"]) != i or int(row["day_id"]) != day.day_id:
            problems.append(f"prediction row {i} is {row}, expected day {day.day_id} index {i}")
            continue
        probs, _ = loaded["modules"]["network"].forward_batch(x[None], params, cfg)
        alone = int(probs[0].argmax())
        if alone != int(row["pred"]):
            problems.append(f"window {i}: dumped prediction {row['pred']}, "
                            f"one-window forward gives {alone}")


# Per workload: corpus size, the config keys it sets (every other key keeps
# the default of `tlonbof config`, which is the paper's geometry), the files
# its command writes, and the check of those files.
WORKLOADS = {
    # paper geometry, default config: 2 days x 384 windows = 768 windows,
    # one epoch = 6 steps of batch 128
    "train_paper": {
        "days": 2, "rows": 408, "config": {"epochs": 1},
        "outputs": ("out.tlnb", "out.history.csv"), "check": _check_train,
    },
    # acceptance geometry (32 filters, 32 codewords, 64 hidden); 4 days give
    # 3 anchored folds, each retrained from scratch
    "walkforward_small": {
        "days": 4, "rows": 300,
        "config": {"epochs": 3, "lr": 0.003, "conv_filters": 32, "n_codewords": 32, "hidden": 64},
        "outputs": ("report.csv",), "check": _check_walkforward,
    },
    # paper geometry, scoring 4 days x 1024 windows = 8 chunks of 512 with a
    # checkpoint trained as in train_paper
    "predict_paper": {
        "days": 4, "rows": 1048, "config": {"epochs": 1},
        "outputs": ("report.csv", "predictions.csv"), "check": _check_predict,
    },
}


# ---------------------------------------------------------------------------
# command


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas_version = "unknown"
    threads = {k: os.environ.get(k, "") for k in
               ("TLNB_DETERMINISTIC", "TLNB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_version,
            "nproc": len(os.sched_getaffinity(0)), "threads": threads}


def command(args) -> int:
    """Set up, run the workload's command once, check it, print the result."""
    p = _paths(args.work)
    with open(p["inputs.json"]) as fh:
        inputs = json.load(fh)
    start = time.perf_counter()
    modules, corpus, model = _setup(args.workload, p)
    setup_s = time.perf_counter() - start

    from tracing import Tracer

    tracer = Tracer(modules) if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        code, _ = _cli_main(_argv(args.workload, p))
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, quality, digest = [], {}, None
    if isinstance(code, str):
        problems.append(f"crashed: {code}")
    elif code != 0:
        problems.append(f"exit status {code}")
    else:
        sample = []
        if args.workload == "predict_paper":
            rng = random.Random(inputs["seed"])
            sample = sorted(rng.sample(range(inputs["windows_per_op"]), PREDICT_SAMPLE))
        loaded = {"modules": modules, "corpus": corpus, "model": model, "sample": sample}
        spec = WORKLOADS[args.workload]
        try:
            spec["check"](inputs, p, loaded, quality, problems)
            # run.py compares digests: every command on the same inputs must
            # write the same bytes, traced or not
            hasher = hashlib.sha256()
            for name in spec["outputs"]:
                with open(p[name], "rb") as fh:
                    hasher.update(fh.read())
            digest = hasher.hexdigest()
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"outputs unreadable: {exc!r}")

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "traced": bool(args.trace), "problems": problems, "quality": quality,
              "digest": digest, "environment": _environment()}
    if tracer:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=("prepare", "command"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return {"prepare": prepare, "command": command}[args.stage](args)


if __name__ == "__main__":
    sys.exit(main())
