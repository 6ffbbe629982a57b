"""Behavior gate for the package: one check per shipped guarantee.

Each test prints (and appends to the shared summary) a single line
``criterion N: PASS/FAIL - <what was checked>`` so a full run reads as a
checklist. The learnability and scaling-effect checks train real models
and dominate the runtime; everything else finishes in seconds.
"""

import os
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, draw_instance, tiny_config
from reference import finite_diff_grad, relative_error, windowize
from tlonbof import bof, cli, config, data, metrics, network, training
from tlonbof.config import RunConfig
from tlonbof.training import AdamState, adam_step


def record(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num}: {status} - {desc}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# the small-model geometry every gradcheck instance uses: 6 timesteps of
# 5 features against 4 codewords
N_STEPS = 6


def test_criterion_01_gradient_exactness():
    """Analytic gradients match central differences on every ablation row."""
    t0 = time.time()
    worst = 0.0
    checked = 0
    for row, (deep, temporal, kpl, scaling) in enumerate(cli.DEFAULT_GRID):
        cfg = tiny_config(
            deep_features=deep,
            n_regions=3 if temporal else 1,
            kernel_param_learning=kpl,
            adaptive_scaling=scaling,
        )
        for i in range(8):
            params, x, ctx = draw_instance(cfg, seed=row * 101 + i, n_steps=N_STEPS)
            label = (row + i) % cfg.n_classes
            grads = network.backward_batch(ctx, np.array([label]))

            def loss_of(name, flat):
                saved = params[name]
                params[name] = flat.reshape(saved.shape) if saved.ndim else np.array(float(flat))
                probs, _ = network.forward_batch(x[None], params, cfg)
                params[name] = saved
                return float(-np.log(probs[0, label]))

            for name in network.trainable_names(cfg):
                fd = finite_diff_grad(lambda v, n=name: loss_of(n, v), params[name].copy())
                err = relative_error(np.asarray(grads[name]).ravel(), fd.ravel())
                worst = max(worst, err)
                assert err < 1e-4, f"config {row} seed {i} {name}: {err:.2e}"
            checked += 1
    elapsed = time.time() - t0
    record(1, "end-to-end gradients match finite differences on all 7 ablation configs",
           worst < 1e-4 and elapsed < 60.0,
           f"{checked} instances, worst rel err {worst:.1e}, {elapsed:.1f}s")


def _random_bof_case(seed, min_regions=1):
    rng = np.random.default_rng(seed)
    nt = int(rng.integers(min_regions, 4))
    n = int(rng.integers(max(3, 2 * nt), 13))
    d = int(rng.integers(2, 7))
    k = int(rng.integers(2, 9))
    kind = config.KERNEL_LOGISTIC if seed % 2 else config.KERNEL_GAUSSIAN
    params = {"alpha": rng.uniform(0.5, 1.5), "beta": 0.3 * rng.normal(),
              "sigma": rng.uniform(0.6, 1.6)}
    # the layer stores the scales as their logs
    params["log_cu"] = np.log(rng.uniform(0.5, 3.0))
    params["log_cs"] = np.log(rng.uniform(0.5, 3.0))
    feats = rng.normal(size=(n, d))
    params["codebook"] = rng.normal(size=(k, d))
    return feats, params, network.ModelConfig(kernel=kind, n_regions=nt)


def test_criterion_02_normalization_invariants():
    """Rows carry mass c_u, histogram segments mass c_s * c_u."""
    worst_row = worst_seg = 0.0
    for seed in range(1000):
        feats, params, cfg = _random_bof_case(seed)
        c_u, c_s = float(np.exp(params["log_cu"])), float(np.exp(params["log_cs"]))
        hist, ctx = bof.forward_batch(feats[None], params, cfg)
        row_sums = ctx.memberships[0].sum(axis=-1)
        worst_row = max(worst_row, float(np.max(np.abs(row_sums - c_u)) / c_u))
        seg_sums = hist[0].reshape(cfg.n_regions, -1).sum(axis=1)
        target = c_s * c_u
        worst_seg = max(worst_seg, float(np.max(np.abs(seg_sums - target)) / target))
    record(2, "1000 forwards: row sums equal c_u, segment sums equal c_s*c_u",
           worst_row < 1e-9 and worst_seg < 1e-9,
           f"worst rel err row {worst_row:.1e}, segment {worst_seg:.1e}")


def test_criterion_03_temporal_semantics():
    ok_perm = ok_swap = 0
    for seed in range(100):
        feats, params, cfg = _random_bof_case(5000 + seed, min_regions=2)
        nt = cfg.n_regions
        regions = bof.segment(len(feats), nt)
        base, _ = bof.forward_batch(feats[None], params, cfg)

        rng = np.random.default_rng(9000 + seed)
        a, b = regions[int(rng.integers(0, nt))]
        perm = a + rng.permutation(b - a)
        shuffled = feats.copy()
        shuffled[a:b] = feats[perm]
        permuted, _ = bof.forward_batch(shuffled[None], params, cfg)
        ok_perm += int(np.array_equal(base, permuted))

        ri, rj = rng.choice(nt, size=2, replace=False)
        (a1, b1), (a2, b2) = regions[int(ri)], regions[int(rj)]
        i = int(rng.integers(a1, b1))
        j = int(rng.integers(a2, b2))
        swapped = feats.copy()
        swapped[[i, j]] = feats[[j, i]]
        crossed, _ = bof.forward_batch(swapped[None], params, cfg)
        ok_swap += int(not np.array_equal(base, crossed))
    record(3, "within-region permutations bit-identical, cross-region swaps visible",
           ok_perm == 100 and ok_swap == 100,
           f"{ok_perm}/100 permutations identical, {ok_swap}/100 swaps changed output")


def test_criterion_04_classical_bof_degeneracy():
    """c_u = c_s = 1 with the Gaussian kernel reduces to the textbook layer."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 13))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 7))
        sigma = rng.uniform(0.7, 1.5)
        feats = rng.normal(size=(n, d))
        codebook = rng.normal(size=(k, d))

        # transcribed directly from the classical definition, scalar loops only
        norm = 1.0 / (np.sqrt(2.0 * np.pi) * sigma)
        direct = [0.0] * k
        for i in range(n):
            kv = []
            for j in range(k):
                sq = sum((feats[i, t] - codebook[j, t]) ** 2 for t in range(d))
                kv.append(norm * np.exp(-sq / (2.0 * sigma**2)))
            total = sum(kv)
            for j in range(k):
                direct[j] += kv[j] / total / n
        direct = np.array(direct)

        # log c = 0 is c_u = c_s = 1
        params = {"codebook": codebook, "log_cu": 0.0, "log_cs": 0.0, "sigma": sigma}
        hist, _ = bof.forward_batch(feats[None], params,
                                    network.ModelConfig(kernel=config.KERNEL_GAUSSIAN, n_regions=1))
        worst = max(worst, float(np.max(np.abs(hist[0] - direct))))
    record(4, "classical-BoF output matches a direct transcription at 1e-12",
           worst < 1e-12, f"100 instances, worst abs diff {worst:.1e}")


# learnability / scaling-effect runs share this reduced geometry: the
# training protocol fixes batch size, lr, epochs and the sampler, not
# layer widths, and the full-width model would blow the runtime budget
RUN_ARCH = dict(n_codewords=32, conv_filters=32, hidden=64)
SEP1_DATA_SEED = 7
SEP0_DATA_SEED = 0
TRAIN_SEED = 0


def test_criterion_05_protocol_learnability():
    t0 = time.time()
    corpus = data.synth_generate(16, 500, seed=SEP1_DATA_SEED, separation=1.0)
    train_ds = data.WindowDataset(corpus[:15])
    test_ds = data.WindowDataset(corpus[15:])
    assert train_ds.n_samples >= 5000
    res = training.train(RunConfig(seed=TRAIN_SEED, **RUN_ARCH), train_ds)
    preds = training.predict(res.params, res.model_cfg, test_ds)
    cm = metrics.confusion(test_ds.labels, preds)
    f1 = metrics.macro_prf(cm)[2]
    kappa = metrics.cohens_kappa(cm)

    # with the signal columns silenced the same pipeline must score at
    # chance level; kappa is pooled over 30 held-out days because a
    # single day's estimate is too noisy for the +-0.05 band
    corpus0 = data.synth_generate(45, 500, seed=SEP0_DATA_SEED, separation=0.0)
    train0 = data.WindowDataset(corpus0[:15])
    test0 = data.WindowDataset(corpus0[15:])
    res0 = training.train(RunConfig(seed=TRAIN_SEED, **RUN_ARCH), train0)
    preds0 = training.predict(res0.params, res0.model_cfg, test0)
    kappa0 = metrics.cohens_kappa(metrics.confusion(test0.labels, preds0))
    elapsed = time.time() - t0
    record(5, "training protocol learns separable data, stays at chance otherwise",
           f1 >= 0.85 and kappa >= 0.7 and -0.05 <= kappa0 <= 0.05 and elapsed < 600,
           f"sep=1 F1 {f1:.3f} kappa {kappa:.3f}; sep=0 kappa {kappa0:+.4f}; {elapsed:.0f}s")


def test_criterion_06_adaptive_scaling_effect():
    corpus = data.synth_generate(15, 500, seed=SEP1_DATA_SEED, separation=1.0)
    ds = data.WindowDataset(corpus)
    base = dict(epochs=9, seed=TRAIN_SEED, **RUN_ARCH)  # 9 epochs = 504 steps
    r_off = training.train(RunConfig(adaptive_scaling="off", **base), ds)
    r_on = training.train(RunConfig(adaptive_scaling="learned", **base), ds)
    g_off = float(np.mean(r_off.history.grad_norm_conv[:200]))
    g_on = float(np.mean(r_on.history.grad_norm_conv[:200]))
    ratio = g_on / g_off
    loss_on, loss_off = r_on.history.loss[499], r_off.history.loss[499]
    record(6, "adaptive scaling revives conv gradients and wins at step 500",
           ratio >= 10.0 and loss_on < loss_off,
           f"grad ratio {ratio:.1f}, step-500 loss {loss_on:.4f} vs {loss_off:.4f}")


def _brute_scores(cm):
    """Macro P/R/F1 and kappa from scalar arithmetic, no shared code."""
    k = len(cm)
    total = sum(cm[i][j] for i in range(k) for j in range(k))
    ps, rs, fs = [], [], []
    for c in range(k):
        col = sum(cm[i][c] for i in range(k))
        row = sum(cm[c][j] for j in range(k))
        p = cm[c][c] / col if col else 0.0
        r = cm[c][c] / row if row else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(f)
    po = sum(cm[c][c] for c in range(k)) / total
    pe = sum(sum(cm[c]) * sum(cm[i][c] for i in range(k)) for c in range(k)) / total**2
    kappa = (po - pe) / (1.0 - pe)
    return sum(ps) / k, sum(rs) / k, sum(fs) / k, kappa


def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        while True:
            cm = rng.integers(0, 31, size=(3, 3))
            if np.all(cm.sum(axis=0) > 0) and np.all(cm.sum(axis=1) > 0):
                break
        got = (*metrics.macro_prf(cm), metrics.cohens_kappa(cm))
        want = _brute_scores(cm.tolist())
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))

    diag_ok = all(
        abs(metrics.cohens_kappa(np.diag(rng.integers(1, 50, size=3))) - 1.0) < 1e-12
        for _ in range(20)
    )
    chance_worst = 0.0
    for _ in range(20):
        r = rng.integers(1, 20, size=3)
        c = rng.integers(1, 20, size=3)
        chance_worst = max(chance_worst, abs(metrics.cohens_kappa(np.outer(r, c))))
    record(7, "metrics match brute-force oracles, kappa pinned at 1 and 0",
           worst < 1e-12 and diag_ok and chance_worst < 1e-12,
           f"worst diff {worst:.1e}, chance kappa {chance_worst:.1e}")


def test_criterion_08_protocol_fidelity():
    folds = data.anchored_folds(list(range(1, 11)))
    folds_ok = len(folds) == 9 and all(
        f.train_days == tuple(range(1, k + 2)) and f.test_day == k + 2
        and f.test_day not in f.train_days
        for k, f in enumerate(folds)
    )

    rng = np.random.default_rng(88)
    window_ok = True
    for _ in range(50):
        w = int(rng.integers(2, 21))
        h = int(rng.integers(1, 16))
        n = int(rng.integers(max(2, w - 2), w + h + 50))
        series = data.FeatureSeries(
            1, rng.normal(size=(n, data.N_FEATURES)), np.abs(rng.normal(100, 1, n)) + 1
        )
        try:
            count = len(windowize(series, window=w, horizon=h)[1])
        except ValueError:
            count = 0  # too short for a single window
        brute = sum(1 for t in range(n) if t >= w - 1 and t + h <= n - 1)
        window_ok = window_ok and count == brute
    record(8, "anchored folds and window counts match brute enumeration",
           folds_ok and window_ok, "10 days -> 9 folds; 50 random stream lengths")


SMALL_TRAIN = dict(batch_size=16, n_codewords=8, conv_filters=8, conv_kernel=3, hidden=16)


def test_criterion_09_determinism_and_persistence(tmp_path):
    ds = data.WindowDataset(data.synth_generate(2, 80, seed=9))
    runs = [training.train(RunConfig(epochs=2, seed=11, **SMALL_TRAIN), ds)
            for _ in range(2)]
    deterministic = all(
        np.array_equal(runs[0].params[k], runs[1].params[k]) for k in runs[0].params
    ) and runs[0].history.loss == runs[1].history.loss

    # save, reload, take one step; reference: quantize every stored value
    # (Adam hyperparameters included) through f32 and take the same step
    result = runs[0]
    path = tmp_path / "model.tlnb"
    training.save_checkpoint(path, result.params, result.model_cfg, result.adam_state)
    loaded_params, cfg, loaded_state = training.load_checkpoint(path)

    def quant(arr):
        return np.asarray(arr, dtype="<f4").astype(np.float64)

    ref_params = {k: quant(v) for k, v in result.params.items()}
    ref_state = AdamState(
        m={k: quant(v) for k, v in result.adam_state.m.items()},
        v={k: quant(v) for k, v in result.adam_state.v.items()},
        t=result.adam_state.t,
        lr=float(quant(result.adam_state.lr)),
        beta1=float(quant(result.adam_state.beta1)),
        beta2=float(quant(result.adam_state.beta2)),
        eps=float(quant(result.adam_state.eps)),
    )
    x, y = ds.gather(np.arange(16))
    for params, state in ((loaded_params, loaded_state), (ref_params, ref_state)):
        _, ctx = network.forward_batch(x, params, cfg)
        grads = network.backward_batch(ctx, y)
        adam_step(params, {k: grads[k] for k in network.trainable_names(cfg)}, state)
    resumed = all(np.array_equal(loaded_params[k], ref_params[k]) for k in ref_params)
    record(9, "fixed-seed runs bit-identical; resume matches the f32-quantized run",
           deterministic and resumed)


def test_criterion_10_full_dataset_reference_range():
    dataset_dir = os.environ.get("TLNB_FI2010_DIR", "")
    if not dataset_dir:
        line = ("criterion 10: SKIP - full-dataset 9-fold reference check "
                "(set TLNB_FI2010_DIR to run)")
        ACCEPTANCE_LINES.append(line)
        print(line)
        pytest.skip("TLNB_FI2010_DIR not set")
    corpus = data.load_feature_dir(dataset_dir)
    by_id = {s.day_id: s for s in corpus}
    folds = data.anchored_folds([s.day_id for s in corpus][:10])
    per_fold = []
    for fold in folds:
        train_ds = data.WindowDataset([by_id[d] for d in fold.train_days])
        test_ds = data.WindowDataset([by_id[fold.test_day]])
        res = training.train(RunConfig(), train_ds)
        preds = training.predict(res.params, res.model_cfg, test_ds)
        per_fold.append(metrics.fold_scores(test_ds.labels, preds))
    summary = metrics.summarize(per_fold)
    f1_mean, kappa_mean = summary["f1"][0], summary["kappa"][0]
    record(10, "full-dataset anchored run lands in the reference band",
           48.0 <= f1_mean <= 58.0 and 0.23 <= kappa_mean <= 0.36,
           f"mean F1 {f1_mean:.2f}, mean kappa {kappa_mean:.4f} over {len(folds)} folds")
