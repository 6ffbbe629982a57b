"""End-to-end command tests, run in-process through cli.main."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tlonbof import cli, config, data, metrics, network, training
from tlonbof.cli import main
from tlonbof.errors import FormatError

TINY_CFG = """\
batch_size = 16
epochs = 8
lr = 0.003
window = 15
horizon = 10
n_codewords = 8
conv_filters = 8
conv_kernel = 3
hidden = 16
ablation_seeds = 0,1
"""


def write_cfg(tmp_path, text=TINY_CFG, **extra):
    path = tmp_path / "run.cfg"
    lines = [ln for ln in text.splitlines()
             if ln.split("=")[0].strip() not in extra]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def make_data(tmp_path, days=3, rows=70, seed=0, separation=1.0, name="data"):
    out = tmp_path / name
    code = main(["synth", "--out", str(out), "--days", str(days),
                 "--rows-per-day", str(rows), "--seed", str(seed),
                 "--separation", str(separation)])
    assert code == 0
    return str(out)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_synth_writes_one_file_per_day(tmp_path):
    out = make_data(tmp_path, days=2, rows=30)
    names = sorted(os.listdir(out))
    assert names == ["day_001.csv", "day_002.csv"]
    series = data.load_feature_csv(os.path.join(out, "day_001.csv"))
    assert len(series) == 30


def test_synth_is_byte_deterministic(tmp_path):
    a = make_data(tmp_path, days=2, rows=25, seed=3, name="a")
    b = make_data(tmp_path, days=2, rows=25, seed=3, name="b")
    c = make_data(tmp_path, days=2, rows=25, seed=4, name="c")
    for name in os.listdir(a):
        blob_a = Path(a, name).read_bytes()
        assert blob_a == Path(b, name).read_bytes()
        assert blob_a != Path(c, name).read_bytes()


def test_synth_rejects_bad_counts(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x"), "--days", "0",
                 "--rows-per-day", "5"]) == 2


@pytest.mark.parametrize("where", ["file", "under-file", "entry-is-directory"])
def test_synth_to_an_unusable_output_path_is_usage_error(tmp_path, capsys, where):
    blocker = tmp_path / "f"
    blocker.write_text("")
    out, named = {"file": (blocker, blocker), "under-file": (blocker / "sub", blocker / "sub"),
                  "entry-is-directory": (tmp_path / "d", tmp_path / "d" / "day_002.csv")}[where]
    if where == "entry-is-directory":
        named.mkdir(parents=True)
    assert main(["synth", "--out", str(out), "--days", "2", "--rows-per-day", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(named) in err
    assert not (tmp_path / "d" / "day_001.csv").exists()  # refused before the first day file


@pytest.mark.parametrize("separation,fragment", [
    ("nan", "separation must be finite, got nan"),
    ("inf", "separation must be finite, got inf"),
    ("1.7976931348623157e308", "gives non-finite features"),
])
def test_synth_refuses_a_separation_that_gives_non_finite_features(tmp_path, capsys, separation,
                                                                   fragment):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--days", "2", "--rows-per-day", "30",
                 "--separation", separation]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("command,flags,cfg,fragment", [
    ("train", ["--seed", "-1"], {}, "--seed: seed must be >= 0, got -1"),
    ("synth", ["--seed", "-2"], None, "--seed: seed must be >= 0, got -2"),
    ("train", [], {"seed": -3}, "seed must be >= 0, got -3 (at line 11)"),
    ("eval", [], {"seed": -3}, "seed must be >= 0, got -3 (at line 11)"),
    ("ablate", [], {"ablation_seeds": "0,-1"},
     "seed list '0,-1': seed must be >= 0, got -1 (at line 10)"),
])
def test_a_negative_seed_is_usage_error(tmp_path, capsys, monkeypatch, command, flags, cfg,
                                        fragment):
    monkeypatch.setattr(training, "train", lambda *a: pytest.fail("training started"))
    out = str(tmp_path / "out")
    if command == "synth":
        argv = ["synth", "--out", out, "--days", "2", "--rows-per-day", "30"]
    else:
        argv = [command, "--config", write_cfg(tmp_path, **cfg), "--data", make_data(tmp_path),
                "--out" if command == "train" else "--report", out]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not os.path.exists(out)


def test_config_prints_canonical_defaults(tmp_path, capsys):
    assert main(["config"]) == 0
    assert capsys.readouterr().out == config.dumps(config.RunConfig())


def test_config_check_canonicalizes(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nepochs = 5\n")
    assert main(["config", "--check", str(path)]) == 0
    assert capsys.readouterr().out == config.dumps(config.RunConfig(epochs=5))


def test_config_check_bad_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("epochs = banana\n")
    assert main(["config", "--check", str(path)]) == 2
    assert "epochs" in capsys.readouterr().err


def test_config_out_writes_file(tmp_path):
    target = tmp_path / "defaults.cfg"
    assert main(["config", "--out", str(target)]) == 0
    assert target.read_text() == config.dumps(config.RunConfig())


def test_train_missing_data_dir_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nowhere")
    code = main(["train", "--data", missing, "--out", str(tmp_path / "m.tlnb")])
    assert code == 2
    assert missing in capsys.readouterr().err


@pytest.mark.parametrize("entry,message", [
    ("directory", "feature file is a directory"),
    ("dangling link", "feature file not found"),
])
def test_train_bad_csv_entry_in_data_dir_exit_2(tmp_path, capsys, entry, message):
    datadir = make_data(tmp_path, days=2, rows=60)
    bad = os.path.join(datadir, "zz.csv")
    if entry == "directory":
        os.mkdir(bad)
    else:
        os.symlink(os.path.join(datadir, "gone.csv"), bad)
    code = main(["train", "--data", datadir, "--out", str(tmp_path / "m.tlnb")])
    assert code == 2
    assert f"{message}: {bad}" in capsys.readouterr().err


def test_train_writes_checkpoint_and_history(tmp_path):
    datadir = make_data(tmp_path)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "model.tlnb"
    hist = tmp_path / "hist.csv"
    assert main(["train", "--config", cfg, "--data", datadir,
                 "--out", str(out), "--history", str(hist)]) == 0

    params, mcfg, state = training.load_checkpoint(out)
    assert mcfg.n_codewords == 8
    assert state is not None

    header, rows = read_csv(hist)
    assert header == ["step", "loss", "grad_norm_conv"]
    ds = data.WindowDataset(data.load_feature_dir(datadir))
    assert len(rows) == 8 * int(np.ceil(ds.n_samples / 16))
    assert [int(r[0]) for r in rows[:3]] == [1, 2, 3]
    assert all(np.isfinite(float(r[1])) for r in rows)


def test_train_fixed_seed_reruns_identically(tmp_path):
    datadir = make_data(tmp_path)
    cfg = write_cfg(tmp_path)
    h1, h2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
    for hist in (h1, h2):
        assert main(["train", "--config", cfg, "--data", datadir, "--seed", "7",
                     "--out", str(tmp_path / "m.tlnb"), "--history", str(hist)]) == 0
    assert h1.read_bytes() == h2.read_bytes()


def test_train_divergence_exits_1_and_saves_last_good(tmp_path, capsys):
    datadir = make_data(tmp_path, days=2, rows=60)
    # Gaussian kernel + absurd lr: the kernel rows cannot underflow (each is
    # divided by its largest value), but the model leaves the float32 range
    # within the first epoch, a guaranteed abort
    cfg = write_cfg(tmp_path, text="batch_size = 16\nn_codewords = 4\nconv_filters = 4\n"
                                   "hidden = 8\nepochs = 3\nkernel = gaussian\n"
                                   "kernel_param_learning = false\n", lr="1e30")
    out = tmp_path / "m.tlnb"
    code = main(["train", "--config", cfg, "--data", datadir, "--out", str(out)])
    assert code == 1
    assert "beyond float32" in capsys.readouterr().err
    params, _, _ = training.load_checkpoint(out)  # last-good snapshot still usable
    assert all(np.all(np.isfinite(v)) for v in params.values())


def test_train_scale_overflow_exits_1_naming_the_scale(tmp_path, capsys):
    # a huge update sends log c past log(float max): c = exp(log c) is inf
    datadir = make_data(tmp_path, days=2, rows=60, seed=6)
    cfg = write_cfg(tmp_path, text="conv_filters = 4\nn_codewords = 4\nhidden = 8\n"
                                   "kernel_param_learning = false\n", lr="1e10")
    out = tmp_path / "m.tlnb"
    assert main(["train", "--config", cfg, "--data", datadir, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "log_cu = " in err and "scale factor of inf at step" in err
    params, _, _ = training.load_checkpoint(out)  # the last-good snapshot loads
    assert all(np.all(np.isfinite(v)) for v in params.values())


def test_train_gaussian_kernel_at_the_default_geometry(tmp_path):
    # 256 conv features sit far from the codewords at the default sigma, so
    # every unshifted kernel value of a row underflows; training still runs
    datadir = make_data(tmp_path, days=3, rows=200, seed=3)
    cfg = write_cfg(tmp_path, text="kernel = gaussian\nbatch_size = 32\nepochs = 1\n")
    hist = tmp_path / "m.history.csv"
    assert main(["train", "--config", cfg, "--data", datadir,
                 "--out", str(tmp_path / "m.tlnb"), "--history", str(hist)]) == 0
    header, rows = read_csv(hist)
    assert header == ["step", "loss", "grad_norm_conv"] and len(rows) == 17
    assert np.isfinite(np.array(rows, dtype=float)).all()
    _, mcfg, _ = training.load_checkpoint(tmp_path / "m.tlnb")
    assert mcfg.kernel == "gaussian" and mcfg.conv_filters == 256


@pytest.mark.parametrize("lr,seed", [("1e20", 0), ("1e30", 1), ("1e20", 2)])
def test_train_moments_beyond_float32_exit_1_with_loadable_checkpoint(tmp_path, capsys,
                                                                      lr, seed):
    # finite float64 Adam moments above the float32 maximum used to become inf
    # in the checkpoint payload: train exited 0 and the file could not be loaded
    datadir = make_data(tmp_path, days=2, rows=60, seed=seed)
    cfg = write_cfg(tmp_path, text="batch_size = 16\nn_codewords = 4\nconv_filters = 4\n"
                                   "hidden = 8\nepochs = 3\n", lr=lr)
    out = tmp_path / "m.tlnb"
    assert main(["train", "--config", cfg, "--data", datadir, "--out", str(out)]) == 1
    assert "float32" in capsys.readouterr().err
    params, mcfg, _ = training.load_checkpoint(out)
    assert mcfg.conv_filters == 4
    assert all(np.all(np.isfinite(v)) for v in params.values())


def test_train_window_below_n_regions_is_usage_error(tmp_path, capsys, monkeypatch):
    datadir = make_data(tmp_path, days=2, rows=60)
    monkeypatch.setattr(training, "train", lambda *a: pytest.fail("training started"))
    # the GAP baseline averages the conv features, so it cannot run without the conv
    for extra, fragment in (
        ({"window": 2}, "window = 2 is below n_regions = 3"),
        ({"arch": "cnn_gap", "deep_features": "false"}, "needs deep_features = true"),
    ):
        cfg = write_cfg(tmp_path, **extra)
        assert main(["train", "--config", cfg, "--data", datadir,
                     "--out", str(tmp_path / "m.tlnb")]) == 2
        err = capsys.readouterr().err
        assert fragment in err and "line" in err


def test_train_lr_beyond_float32_is_usage_error(tmp_path, capsys, monkeypatch):
    # no checkpoint could store it (adam.lr is float32)
    datadir = make_data(tmp_path, days=2, rows=60)
    cfg = write_cfg(tmp_path, lr="1e39", epochs=0)
    monkeypatch.setattr(training, "train", lambda *a: pytest.fail("training started"))
    assert main(["train", "--config", cfg, "--data", datadir,
                 "--out", str(tmp_path / "m.tlnb")]) == 2
    err = capsys.readouterr().err
    assert "float32 maximum" in err and "line" in err
    assert not (tmp_path / "m.tlnb").exists()


def test_train_gap_baseline_on_window_below_n_regions(tmp_path):
    # the GAP baseline makes no temporal regions, so n_regions does not bound its window
    datadir = make_data(tmp_path, days=2, rows=60)
    cfg = write_cfg(tmp_path, window=2, epochs=1, arch="cnn_gap")
    out = tmp_path / "m.tlnb"
    assert main(["train", "--config", cfg, "--data", datadir, "--out", str(out)]) == 0
    assert training.load_checkpoint(out)[1].arch == "cnn_gap"


def test_eval_model_regions_beyond_window_is_usage_error(tmp_path, capsys):
    datadir = make_data(tmp_path, days=2, rows=60)
    cfg = network.ModelConfig(conv_filters=4, conv_kernel=3, n_codewords=4, hidden=6)
    model = tmp_path / "m.tlnb"
    training.save_checkpoint(model, network.init_params(cfg, np.random.default_rng(0)), cfg)
    # without temporal modelling the config itself accepts a 2-step window
    run_cfg = write_cfg(tmp_path, window=2, temporal_modeling="false")
    assert main(["eval", "--config", run_cfg, "--model", str(model), "--data", datadir,
                 "--folds", "single", "--report", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "m.tlnb" in err and "window = 2 is below n_regions = 3" in err


def test_ablate_grid_row_with_window_below_n_regions_is_usage_error(tmp_path, capsys,
                                                                     monkeypatch):
    datadir = make_data(tmp_path, days=2, rows=60)
    cfg = write_cfg(tmp_path, window=2, temporal_modeling="false")
    monkeypatch.setattr(training, "train", lambda *a: pytest.fail("training started"))
    assert main(["ablate", "--config", cfg, "--data", datadir,
                 "--report", str(tmp_path / "r.csv")]) == 2
    assert "window = 2 is below n_regions = 3" in capsys.readouterr().err


def test_ablate_gap_baseline_with_the_default_grid_is_usage_error(tmp_path, capsys,
                                                                   monkeypatch):
    # grid row 1 turns the conv off, which the GAP baseline cannot do without
    datadir = make_data(tmp_path, days=2, rows=60)
    cfg = write_cfg(tmp_path, arch="cnn_gap")
    monkeypatch.setattr(training, "train", lambda *a: pytest.fail("training started"))
    assert main(["ablate", "--config", cfg, "--data", datadir,
                 "--report", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "grid row 1 " in err and "deep_features = true" in err
    assert not (tmp_path / "r.csv").exists()


def test_eval_single_fold_on_memorized_set(tmp_path, capsys):
    """Degenerate sanity mode: evaluating the training set on itself."""
    datadir = make_data(tmp_path, days=2, rows=60, seed=2)
    cfg = write_cfg(tmp_path, epochs=60)
    model = tmp_path / "m.tlnb"
    assert main(["train", "--config", cfg, "--data", datadir, "--out", str(model)]) == 0
    report = tmp_path / "report.csv"
    assert main(["eval", "--config", cfg, "--model", str(model), "--data", datadir,
                 "--folds", "single", "--report", str(report)]) == 0
    header, rows = read_csv(report)
    assert header == ["fold", "precision", "recall", "f1", "kappa"]
    assert [r[0] for r in rows] == ["1", "mean", "std"]
    assert float(rows[0][3]) == 100.0
    assert float(rows[0][4]) == 1.0


def test_eval_single_without_model_is_usage_error(tmp_path, capsys):
    datadir = make_data(tmp_path, days=2, rows=60)
    assert main(["eval", "--data", datadir, "--folds", "single",
                 "--report", str(tmp_path / "r.csv")]) == 2


def test_eval_anchored_fixed_model_rows_and_summary(tmp_path):
    datadir = make_data(tmp_path, days=4, rows=60)
    cfg = write_cfg(tmp_path, epochs=2)
    model = tmp_path / "m.tlnb"
    assert main(["train", "--config", cfg, "--data", datadir, "--out", str(model)]) == 0
    report = tmp_path / "report.csv"
    dump = tmp_path / "preds.csv"
    assert main(["eval", "--config", cfg, "--model", str(model), "--data", datadir,
                 "--report", str(report), "--dump-predictions", str(dump)]) == 0
    header, rows = read_csv(report)
    fold_rows = [r for r in rows if r[0] not in ("mean", "std")]
    assert len(fold_rows) == 3  # 4 days -> 3 anchored folds

    # summary rows equal an independent recomputation from the fold rows
    per_fold = [dict(zip(header[1:], map(float, r[1:]))) for r in fold_rows]
    summary = metrics.summarize(per_fold)
    mean_row = next(r for r in rows if r[0] == "mean")
    std_row = next(r for r in rows if r[0] == "std")
    for i, key in enumerate(header[1:], start=1):
        assert float(mean_row[i]) == summary[key][0]
        assert float(std_row[i]) == summary[key][1]

    # report recomputed from dumped per-sample predictions matches exactly
    _, pred_rows = read_csv(dump)
    by_fold = {}
    for fold, _day, _idx, true, pred in pred_rows:
        by_fold.setdefault(fold, ([], []))
        by_fold[fold][0].append(int(true))
        by_fold[fold][1].append(int(pred))
    for r in fold_rows:
        true, pred = by_fold[r[0]]
        score = metrics.fold_scores(np.array(true), np.array(pred))
        assert float(r[1]) == score["precision"]
        assert float(r[2]) == score["recall"]
        assert float(r[3]) == score["f1"]
        assert float(r[4]) == score["kappa"]


def trained_on_other_days(tmp_path, cfg) -> str:
    model = tmp_path / "m.tlnb"
    datadir = make_data(tmp_path, days=2, rows=60, seed=1, name="train_days")
    assert main(["train", "--config", cfg, "--data", datadir, "--out", str(model)]) == 0
    return str(model)


def test_eval_model_output_does_not_depend_on_the_adam_state(tmp_path):
    datadir = make_data(tmp_path, days=3, rows=60)
    cfg = write_cfg(tmp_path, epochs=2)
    model = Path(trained_on_other_days(tmp_path, cfg))
    params, mcfg, state = training.load_checkpoint(model)
    assert state is not None
    bare = tmp_path / "bare.tlnb"
    training.save_checkpoint(bare, params, mcfg)
    outputs = []
    for path in (model, bare):
        report, dump = tmp_path / f"{path.stem}.csv", tmp_path / f"{path.stem}.preds.csv"
        assert main(["eval", "--config", cfg, "--model", str(path), "--data", datadir,
                     "--report", str(report), "--dump-predictions", str(dump)]) == 0
        outputs.append((report.read_bytes(), dump.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("with_model", [False, True], ids=["retrain", "model"])
def test_eval_anchored_on_one_day_is_usage_error(tmp_path, capsys, with_model):
    datadir = make_data(tmp_path, days=1, rows=60)
    cfg = write_cfg(tmp_path, epochs=2)
    model = ["--model", trained_on_other_days(tmp_path, cfg)] if with_model else []
    report = tmp_path / "r.csv"
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--data", datadir, *model,
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least 2 days, got 1" in err
    assert not report.exists()


def test_eval_single_fold_with_model_on_one_day(tmp_path):
    datadir = make_data(tmp_path, days=1, rows=60)
    cfg = write_cfg(tmp_path, epochs=2)
    model = trained_on_other_days(tmp_path, cfg)
    report = tmp_path / "r.csv"
    assert main(["eval", "--config", cfg, "--model", model, "--data", datadir,
                 "--folds", "single", "--report", str(report)]) == 0
    assert [r[0] for r in read_csv(report)[1]] == ["1", "mean", "std"]


def test_eval_retrains_per_fold_without_model(tmp_path):
    datadir = make_data(tmp_path, days=3, rows=60)
    cfg = write_cfg(tmp_path, epochs=1)
    report = tmp_path / "report.csv"
    assert main(["eval", "--config", cfg, "--data", datadir,
                 "--report", str(report)]) == 0
    _, rows = read_csv(report)
    assert [r[0] for r in rows] == ["1", "2", "mean", "std"]


@pytest.mark.parametrize("rows,message", [
    ((20, 120, 120), "fold 1 has no usable training windows in day(s) 1 "),
    ((120, 120, 20), "fold 2 has no usable test windows in day(s) 3 "),
], ids=["empty-training-day", "empty-test-day"])
def test_eval_refuses_an_empty_fold_before_training_any(tmp_path, capsys, monkeypatch, rows,
                                                        message):
    # the 20-row day is too short for a window of 15 with a horizon of 10
    datadir = tmp_path / "data"
    datadir.mkdir()
    for day_id, n in enumerate(rows, start=1):
        series = data.synth_generate(1, n, seed=day_id)[0]
        series.day_id = day_id
        data.write_feature_csv(datadir / f"day_{day_id}.csv", series)
    monkeypatch.setattr(training, "train", lambda *a: pytest.fail("a fold was trained"))
    report = tmp_path / "r.csv"
    assert main(["eval", "--config", write_cfg(tmp_path), "--data", str(datadir),
                 "--report", str(report)]) == 2
    assert message in capsys.readouterr().err
    assert not report.exists()


def test_eval_malformed_checkpoint_exit_1(tmp_path, capsys):
    datadir = make_data(tmp_path, days=2, rows=60)
    bad = tmp_path / "bad.tlnb"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = main(["eval", "--model", str(bad), "--data", datadir,
                 "--report", str(tmp_path / "r.csv")])
    assert code == 1


def test_eval_non_finite_checkpoint_exit_1(tmp_path, capsys):
    datadir = make_data(tmp_path, days=2, rows=60)
    cfg = network.ModelConfig(conv_filters=4, conv_kernel=3, n_codewords=4, hidden=6)
    params = network.init_params(cfg, np.random.default_rng(0))
    params["fc1_w"][0, 0] = np.nan
    model = tmp_path / "nan.tlnb"
    # serialize_checkpoint refuses a NaN, so the corrupt file is encoded directly
    meta = {k: np.array(v) for k, v in training._meta_entries(cfg).items()}
    model.write_bytes(training._encode_tensors(sorted({**params, **meta}.items())))
    assert main(["eval", "--model", str(model), "--data", datadir, "--folds", "single",
                 "--report", str(tmp_path / "r.csv")]) == 1
    assert "fc1_w" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_eval_non_positive_sigma_checkpoint_exit_1(tmp_path, capsys, sigma):
    datadir = make_data(tmp_path, days=2, rows=60)
    cfg = network.ModelConfig(conv_filters=4, conv_kernel=3, n_codewords=4, hidden=6,
                              kernel="gaussian")
    params = network.init_params(cfg, np.random.default_rng(0))
    params["sigma"] = np.array(sigma)
    model = tmp_path / "sigma.tlnb"
    # serialize_checkpoint refuses such a sigma, so the file is encoded directly
    meta = {k: np.array(v) for k, v in training._meta_entries(cfg).items()}
    model.write_bytes(training._encode_tensors(sorted({**params, **meta}.items())))
    assert main(["eval", "--model", str(model), "--data", datadir, "--folds", "single",
                 "--report", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sigma" in err and "Traceback" not in err


def test_eval_missing_model_is_usage_error(tmp_path, capsys):
    datadir = make_data(tmp_path, days=2, rows=60)
    missing = str(tmp_path / "nope.tlnb")
    assert main(["eval", "--model", missing, "--data", datadir,
                 "--report", str(tmp_path / "r.csv")]) == 2
    assert missing in capsys.readouterr().err


OUTPUT_FLAGS = [
    ("train", "--out"), ("train", "--history"), ("eval", "--report"),
    ("eval", "--dump-predictions"), ("ablate", "--report"), ("config", "--out"),
]


def run_with_bad_path(tmp_path, monkeypatch, command, flag, bad):
    """Run ``command`` on a small corpus with ``flag`` set to ``bad``; training must not start."""
    datadir = make_data(tmp_path, days=2, rows=60)
    monkeypatch.setattr(training, "train", lambda *a: pytest.fail("training started"))
    given = {
        "train": {"--data": datadir, "--out": str(tmp_path / "m.tlnb")},
        "eval": {"--data": datadir, "--report": str(tmp_path / "r.csv")},
        "ablate": {"--data": datadir, "--report": str(tmp_path / "r.csv")},
        "config": {},
    }[command]
    argv = [command] + [part for kv in {**given, flag: bad}.items() for part in kv]
    return main(argv)


@pytest.mark.parametrize("command,flag", OUTPUT_FLAGS)
def test_output_in_missing_directory_is_usage_error(tmp_path, capsys, monkeypatch,
                                                     command, flag):
    bad = str(tmp_path / "nodir" / "out.file")
    assert run_with_bad_path(tmp_path, monkeypatch, command, flag, bad) == 2
    assert bad in capsys.readouterr().err
    assert not [p for p in tmp_path.rglob(".tmp-*")]


@pytest.mark.parametrize("command,flag", OUTPUT_FLAGS)
def test_output_path_that_is_a_directory_is_usage_error(tmp_path, capsys, monkeypatch,
                                                       command, flag):
    bad = tmp_path / "outdir"
    bad.mkdir()
    assert run_with_bad_path(tmp_path, monkeypatch, command, flag, str(bad)) == 2
    assert f"output path is a directory: {bad}" in capsys.readouterr().err
    assert not list(bad.iterdir())
    assert not [p for p in tmp_path.rglob(".tmp-*")]


@pytest.mark.parametrize("command,flag", [
    ("config", "--check"), ("train", "--config"), ("ablate", "--grid"), ("eval", "--model"),
])
def test_input_path_that_is_a_directory_is_usage_error(tmp_path, capsys, monkeypatch,
                                                      command, flag):
    bad = tmp_path / "indir"
    bad.mkdir()
    assert run_with_bad_path(tmp_path, monkeypatch, command, flag, str(bad)) == 2
    assert f"is a directory: {bad}" in capsys.readouterr().err


def test_eval_model_d_in_mismatch_is_usage_error(tmp_path, capsys):
    datadir = make_data(tmp_path, days=2, rows=60)
    cfg = network.ModelConfig(d_in=5, conv_filters=4, conv_kernel=3, n_codewords=4, hidden=6)
    model = tmp_path / "narrow.tlnb"
    params = network.init_params(cfg, np.random.default_rng(0))
    model.write_bytes(training.serialize_checkpoint(params, cfg))
    code = main(["eval", "--model", str(model), "--data", datadir, "--folds", "single",
                 "--report", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "d_in=5" in err and "144" in err


def test_undefined_kappa_exits_1_without_traceback(tmp_path, capsys):
    """A constant mid-price labels every window stationary, so kappa is undefined."""
    datadir = tmp_path / "flat"
    datadir.mkdir()
    for series in data.synth_generate(2, 60, seed=0):
        series.mid_prices[:] = 100.0
        data.write_feature_csv(datadir / f"day_{series.day_id:03d}.csv", series)
    cfg = write_cfg(tmp_path, epochs=3, lr=0.01)
    assert main(["train", "--config", cfg, "--data", str(datadir),
                 "--out", str(tmp_path / "m.tlnb")]) == 1
    assert capsys.readouterr().err.startswith("error: kappa undefined")
    assert main(["eval", "--config", cfg, "--data", str(datadir),
                 "--report", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: kappa undefined")


def test_ablate_records_undefined_kappa_and_writes_report(tmp_path, capsys):
    """Every window of a constant mid-price day is stationary, so kappa is undefined."""
    datadir = tmp_path / "flat"
    datadir.mkdir()
    for series in data.synth_generate(2, 80, seed=0):
        series.mid_prices[:] = 100.0
        data.write_feature_csv(datadir / f"day_{series.day_id:03d}.csv", series)
    cfg = write_cfg(tmp_path, epochs=5, lr=0.01, hidden=8, ablation_seeds=0)
    report = tmp_path / "ablation.csv"
    assert main(["ablate", "--config", cfg, "--data", str(datadir),
                 "--report", str(report)]) == 0
    header, rows = read_csv(report)
    assert header[-1] == "status" and len(rows) == len(cli.DEFAULT_GRID)
    undefined = [r for r in rows if r[-1] == "undefined"]
    assert undefined and all(r[4:8] == ["", "", "", ""] for r in undefined)
    assert "undefined: kappa undefined" in capsys.readouterr().err


def test_ablate_runs_grid_rows(tmp_path):
    datadir = make_data(tmp_path, days=2, rows=60)
    cfg = write_cfg(tmp_path, epochs=1)
    grid = tmp_path / "grid.csv"
    grid.write_text(
        "# two rows\n"
        "deep_features,temporal_modeling,kernel_param_learning,adaptive_scaling\n"
        "true,true,true,learned\n"
        "false,false,false,frozen\n"
    )
    report = tmp_path / "ablation.csv"
    assert main(["ablate", "--config", cfg, "--data", datadir,
                 "--grid", str(grid), "--report", str(report)]) == 0
    header, rows = read_csv(report)
    assert header[:4] == ["deep_features", "temporal_modeling",
                          "kernel_param_learning", "adaptive_scaling"]
    assert len(rows) == 2
    assert all(r[-1] == "ok" for r in rows)
    assert rows[0][:4] == ["true", "true", "true", "learned"]
    assert rows[1][:4] == ["false", "false", "false", "frozen"]


def test_ablate_default_grid_has_published_shape(tmp_path):
    assert len(cli.DEFAULT_GRID) == 7
    assert cli.DEFAULT_GRID[0] == (False, False, False, "frozen")
    assert cli.DEFAULT_GRID[-1] == (True, True, True, "learned")
    # scaling column: four frozen rows, then off/frozen/learned
    assert [g[3] for g in cli.DEFAULT_GRID] == [
        "frozen", "frozen", "frozen", "frozen", "off", "frozen", "learned"
    ]


def test_ablate_bad_grid_is_usage_error(tmp_path, capsys):
    datadir = make_data(tmp_path, days=2, rows=60)
    grid = tmp_path / "grid.csv"
    grid.write_text("deep_features,temporal_modeling\ntrue,true\n")
    assert main(["ablate", "--data", datadir, "--grid", str(grid),
                 "--report", str(tmp_path / "r.csv")]) == 2


@pytest.mark.parametrize("text,fragment,line", [
    (b"# only a comment\n", "empty grid file", "line 1"),
    (b"# rows\n" + ",".join(cli._GRID_HEADER).encode() + b"\n", "no rows", "line 3"),
    (b"deep_features,\xff\n", "UTF-8", "line 1"),
], ids=["empty", "header-only", "non-utf8"])
def test_grid_errors_name_a_line(tmp_path, text, fragment, line):
    grid = tmp_path / "grid.csv"
    grid.write_bytes(text)
    with pytest.raises(FormatError) as err:
        cli.load_grid(grid)
    assert fragment in str(err.value) and line in str(err.value)


@pytest.mark.parametrize("row,fragment", [
    ("yes,true,true,learned", "deep_features must be true or false"),
    ("true,true,true,auto", "adaptive_scaling must be one of"),
])
def test_ablate_grid_cells_follow_config_rules(tmp_path, capsys, row, fragment):
    datadir = make_data(tmp_path, days=2, rows=60)
    grid = tmp_path / "grid.csv"
    grid.write_text(",".join(cli._GRID_HEADER) + "\n" + row + "\n")
    assert main(["ablate", "--data", datadir, "--grid", str(grid),
                 "--report", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert fragment in err and "grid.csv" in err and "line 2" in err


# records OPENBLAS_NUM_THREADS at the moment numpy is first imported
NUMPY_IMPORT_PROBE = """
import os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Probe())
import tlonbof.cli
print(seen)
"""


@pytest.mark.parametrize("setting,cap", [("TLNB_DETERMINISTIC=1", "1"), ("TLNB_THREADS=3", "3")])
def test_thread_caps_are_set_before_numpy_loads(setting, cap):
    # the console script and ``python -m tlonbof.cli`` import the package
    # first, and its submodules import numpy
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_THREADS") and not k.startswith("TLNB_")}
    name, _, value = setting.partition("=")
    env[name] = value
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", NUMPY_IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == repr([cap])


def test_thread_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("TLNB_THREADS", "lots")
    assert main(["config"]) == 2
    assert "TLNB_THREADS" in capsys.readouterr().err
