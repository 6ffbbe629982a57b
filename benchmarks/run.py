"""tlonbof benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

W is train_paper, walkforward_small, predict_paper, or ``all`` for the three
in turn. The workload's inputs are generated from N by ``tlonbof synth``.
With ``--trace 0`` the command prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics of a traced run. Human-readable
lines come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Load model: a closed loop with one caller. One single-threaded process runs
one CLI command at a time, with BLAS capped at one thread and
``TLNB_DETERMINISTIC=1``. This script imports no numpy; each stage runs in
its own process (see worker.py), so the caps are in place before numpy loads.
It runs from the root of a source checkout and writes only under
``.bench_work/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "benchmarks", "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("train_paper", "walkforward_small", "predict_paper")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "TLNB_THREADS")


class BenchError(Exception):
    """A stage of the benchmark could not run; no result is printed."""


def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["TLNB_DETERMINISTIC"] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _stage(args: list[str], env: dict[str, str], timeout: float) -> str:
    """Run one worker stage to completion and return its stdout."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip()[-2000:]
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {tail}")
    return proc.stdout


def _quartile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=4)[q - 1] if len(values) > 1 else values[0]


def _measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
    """Prepare the inputs, then run one command per fresh process for ``seconds``.

    Returns the inputs description and one result per command. A traced run
    alternates untraced and traced commands, U T T U U T ...
    """
    env = _environment()
    work = os.path.join(WORK_ROOT, f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", workload, "--work", work]
    ops = []
    try:
        _stage(["prepare", *common, "--seed", str(seed)], env, timeout=120)
        with open(os.path.join(work, "inputs.json")) as fh:
            inputs = json.load(fh)
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or (trace and len(ops) < 2):
            k = len(ops)
            traced = trace and (k % 2 == 1) != ((k // 2) % 2 == 1)
            out = _stage(["command", *common, "--trace", str(int(traced))], env, timeout=120)
            ops.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = next((op["digest"] for op in ops if op["digest"]), None)
    for op in ops:
        if op["digest"] and op["digest"] != reference:
            op["problems"].append("outputs differ from the first command's")
    return inputs, ops


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 units: dict[str, str]) -> tuple[dict, list[str]]:
    """Measure one workload; returns (the result JSON object, report lines).

    ``units`` maps each metric the run must report to its unit, as
    BENCHMARK.json lists them.
    """
    inputs, ops = _measure(workload, seed, seconds, trace)
    failed = [op for op in ops if op["problems"]]
    env_info = ops[0]["environment"]
    lines = [
        f"environment: python {env_info['python']}, numpy {env_info['numpy']}, "
        f"BLAS {env_info['blas']}, nproc {env_info['nproc']}, "
        + ", ".join(f"{k}={v}" for k, v in env_info["threads"].items()),
        f"workload {workload}, seed {seed}: {len(ops)} commands, one per fresh process "
        f"({inputs['windows_per_op']} windows each), {len(failed)} failed",
    ]
    lines += [f"  FAILED command {k}: {problem}"
              for k, op in enumerate(ops) for problem in op["problems"]]

    if trace:
        traced = [op for op in ops if op["traced"]]
        absent = traced[0]["absent"]
        values = tracing.layer_metrics(traced, absent)
        walls = {t: statistics.median(op["wall_s"] for op in ops if op["traced"] == t)
                 for t in (False, True)}
        values["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
        trace_out = os.path.join(WORK_ROOT, f"trace-{workload}-seed{seed}.jsonl")
        tracing.write_spans(trace_out, traced, absent)
        lines.append(f"traced {len(traced)} of {len(ops)} commands; "
                     f"spans written to {os.path.relpath(trace_out, ROOT)}")
        if absent:
            lines.append("absent functions (read as 0): " + ", ".join(absent))
        lines += [f"  {name:48s} {value:.6g} {units[name]}" for name, value in values.items()]
    else:
        good = [op for op in ops if not op["problems"]] or ops
        setups = [op["setup_s"] for op in ops]
        rates = [inputs["windows_per_op"] / op["wall_s"] for op in good]
        rss = [op["peak_rss_mb"] for op in ops]
        values = {"setup_s": statistics.median(setups), "windows_per_s": statistics.median(rates),
                  "peak_rss_mb": statistics.median(rss)}
        rate_name = ("predict_windows_per_s" if workload == "predict_paper"
                     else "train_windows_per_s")
        lines += [
            f"  setup_s               {values['setup_s']:.4f} s  median of {len(setups)}, "
            f"quartiles {_quartile(setups, 1):.4f}..{_quartile(setups, 3):.4f}",
            f"  {rate_name:21s} {values['windows_per_s']:.2f} 1/s  (JSON windows_per_s) median "
            f"of {len(rates)}, quartiles {_quartile(rates, 1):.2f}..{_quartile(rates, 3):.2f}",
        ]
        quality = next((op["quality"] for op in ops if op["quality"]), {})
        if "final_loss" in quality:
            lines.append(f"  final_loss            {quality['final_loss']:.6f}  mean of the last "
                         f"{inputs['loss_tail']} of {inputs['steps']} steps; first-step loss "
                         f"{quality['first_loss']:.6f}")
        if workload == "walkforward_small" and "heldout_kappa" in quality:
            lines.append(f"  heldout_kappa         {quality['heldout_kappa']:.6f}  report mean "
                         f"row, {inputs['days'] - 1} anchored folds")
        lines += [
            f"  peak_rss_mb           {values['peak_rss_mb']:.1f} MB  median of {len(rss)}, "
            f"quartiles {_quartile(rss, 1):.1f}..{_quartile(rss, 3):.1f}",
            f"  failed_frac           {len(failed) / len(ops):.4f}  {len(failed)} of {len(ops)} "
            "commands",
        ]
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    out = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    return out, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "tlonbof", "cli.py")):
        print(f"error: no tlonbof sources under {os.path.join(ROOT, 'src')}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # the metrics of this kind of run, with their units
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                                units)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
