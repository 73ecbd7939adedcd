"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criteria 5 and 6 train real models on the frozen synthetic corpora and
take a couple of minutes combined; everything else is fast.
"""

import math
import time

import numpy as np
import pytest

from dknn.cli import main as cli_main
from dknn.features import FeaturizerConfig, fit_featurizer
from dknn.harness import (
    ExperimentConfig,
    RowSpec,
    SyntheticSpec,
    ablation_suite,
    generate_synthetic,
    inject_noise,
    run_experiment,
    split,
)
from dknn.mathcore import is_distribution, sharpen, softmax_rows
from dknn.model import (
    LLConfig,
    ModelParams,
    classify,
    encode,
    model_fingerprint,
)
from dknn.rng import Rng
from dknn.stores import (
    InferenceConfig,
    RepresentationStore,
    StoreMetric,
    build_stores,
    load_store,
    predict,
    query,
    save_store,
)
from dknn.trainer import TrainConfig, train
from oracles import (
    gradients,
    kl_divergence,
    label_attention,
    label_similarity,
    scaled_label_matrix,
    total_loss,
)


def _report(num: int, name: str, t0: float) -> None:
    print(f"ACCEPTANCE {num} {name}: PASS ({time.time() - t0:.1f}s)")


# -- criterion 1: gradient correctness --------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    f, d, c = 20, 8, 5
    cfg = LLConfig()  # all three losses enabled
    h_step = 1e-5
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 100:
        seed += 1
        rng = Rng(seed * 7919)
        params = ModelParams(
            w1=rng.normals(f * d).reshape(f, d) * 0.5,
            b1=rng.normals(d) * 0.3,
            w2=rng.normals(d * c).reshape(d, c) * 0.5,
            b2=rng.normals(c) * 0.3,
            label_emb=rng.normals(c * d).reshape(c, d) * 0.5,
        )
        x = rng.normals(f) * 0.5
        y = rng.bounded(c)
        # skip instances within 1e-6 of a contrastive hinge kink
        hh = np.tanh(x @ params.w1 + params.b1)
        alpha = label_attention(hh, params.label_emb)
        m = label_similarity(scaled_label_matrix(alpha, params.label_emb))
        margins = np.abs(cfg.rho - np.diag(m)[:, None] + m)[~np.eye(c, dtype=bool)]
        if margins.min() <= 1e-6:
            continue

        analytic = np.concatenate(
            [t.ravel() for t in gradients(x, y, params, cfg).tensors().values()]
        )
        theta = np.concatenate([t.ravel() for t in params.tensors().values()])
        sizes = [(f, d), (d,), (d, c), (c,), (c, d)]

        def loss_at(vec):
            arrays = []
            i = 0
            for shape in sizes:
                size = int(np.prod(shape))
                arrays.append(vec[i : i + size].reshape(shape))
                i += size
            return total_loss(x, y, ModelParams(*arrays), cfg).total

        numeric = np.empty_like(theta)
        for i in range(theta.size):
            tp = theta.copy()
            tp[i] += h_step
            tm = theta.copy()
            tm[i] -= h_step
            numeric[i] = (loss_at(tp) - loss_at(tm)) / (2.0 * h_step)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        worst = max(worst, float(rel.max()))
        assert rel.max() <= 1e-4
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"  (100 instances, max relative error {worst:.2e})")
    _report(1, "gradient correctness", t0)


# -- criterion 2: kNN oracle equivalence -------------------------------------


def test_criterion_2_knn_oracle_equivalence():
    t0 = time.time()
    rng = Rng(20260810)
    for metric in (StoreMetric.L2, StoreMetric.KL):
        for trial in range(1000):
            n = 1 + rng.bounded(500)
            dim = 1 + rng.bounded(64)
            if metric == StoreMetric.L2:
                keys = rng.normals(n * dim).reshape(n, dim)
            else:
                raw = rng.uniforms(n * dim).reshape(n, dim) + 1e-3
                keys = raw / raw.sum(axis=1, keepdims=True)
            # every 5th store gets duplicated rows to force distance ties
            if trial % 5 == 0 and n >= 2:
                src = rng.bounded(n)
                for _ in range(min(4, n - 1)):
                    keys[rng.bounded(n)] = keys[src]
            labels = np.array([rng.bounded(7) for _ in range(n)], dtype=np.uint32)
            store = RepresentationStore(keys, labels, metric, 7, 0)
            if trial % 3 == 0:
                q = store.keys[rng.bounded(n)].astype(np.float64)
                if metric == StoreMetric.KL:
                    q = q / q.sum()
            elif metric == StoreMetric.L2:
                q = rng.normals(dim)
            else:
                raw = rng.uniforms(dim) + 1e-3
                q = raw / raw.sum()
            k = 1 + rng.bounded(n + 5)

            got = query(store, q, k)
            dist = store.distances(q)
            order = np.lexsort((np.arange(n), dist))[: min(k, n)]
            assert [nb.index for nb in got] == order.tolist()
            assert [nb.label for nb in got] == [int(labels[i]) for i in order]
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(2, "kNN oracle equivalence", t0)


# -- criterion 3: equation-pipeline oracle ------------------------------------


def test_criterion_3_equation_pipeline_oracle():
    t0 = time.time()
    from dknn.harness import Dataset

    texts = [
        "apple pear plum", "apple plum grape", "pear apple melon",
        "zebra lion tiger", "lion tiger rhino", "zebra rhino hyena",
    ]
    ds = Dataset(texts=texts, labels=[0, 0, 0, 1, 1, 1],
                 label_names=["fruit", "animal"])
    feat = fit_featurizer([], FeaturizerConfig(dim=64))
    rng = Rng(3)
    params = ModelParams(
        w1=rng.normals(64 * 4).reshape(64, 4) * 0.5,
        b1=rng.normals(4) * 0.2,
        w2=rng.normals(4 * 2).reshape(4, 2) * 0.5,
        b2=rng.normals(2) * 0.2,
        label_emb=rng.normals(2 * 4).reshape(2, 4) * 0.5,
    )
    s_text, s_pro = build_stores(params, feat, ds)
    k, lam, c = 3, 0.5, 2
    out = predict("apple tiger melon", params, feat, s_text, s_pro,
                  InferenceConfig(k=k, lam=lam))

    # scalar composition of the five inference equations over the raw stores
    h = encode(feat.transform("apple tiger melon"), params)
    p_model = classify(h, params)

    def d_l2(key, q):
        return math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(key, q)))

    def d_kl(key, q):
        eps = 1e-12
        a = [float(v) + eps for v in key]
        sa = sum(a)
        a = [v / sa for v in a]
        b = [float(v) + eps for v in q]
        sb = sum(b)
        b = [v / sb for v in b]
        return sum(x * (math.log(x) - math.log(y)) for x, y in zip(a, b))

    def knn_distribution(store, q, dist_fn):
        scored = sorted((dist_fn(store.keys[i], q), i) for i in range(store.n))[:k]
        mass = [0.0] * c
        for dval, i in scored:
            mass[int(store.labels[i])] += math.exp(-dval)
        total = sum(mass)
        return [v / total for v in mass]

    def sharpen_two_step(p):
        f = [v * v / sum(p) for v in p]
        s = sum(f)
        return [v / s for v in f]

    p_text = sharpen_two_step(knn_distribution(s_text, h, d_l2))
    p_pro = sharpen_two_step(knn_distribution(s_pro, p_model, d_kl))
    p_knn = [(a + b) / 2.0 for a, b in zip(p_text, p_pro)]
    p_final = [lam * a + (1.0 - lam) * b for a, b in zip(p_knn, p_model)]

    np.testing.assert_allclose(out.p_model, p_model, atol=1e-10)
    np.testing.assert_allclose(out.p_text_sharp, p_text, atol=1e-10)
    np.testing.assert_allclose(out.p_pro_sharp, p_pro, atol=1e-10)
    np.testing.assert_allclose(out.p_knn, p_knn, atol=1e-10)
    np.testing.assert_allclose(out.p_final, p_final, atol=1e-10)
    _report(3, "equation-pipeline oracle", t0)


# -- criterion 4: degeneracy identities ---------------------------------------


def test_criterion_4_degeneracy_identities():
    t0 = time.time()
    ds = generate_synthetic(SyntheticSpec(n=400, n_labels=4, n_groups=2, seed=5))
    train_set, test_set = split(ds, 0.7, 17)
    feat = fit_featurizer(train_set.texts, FeaturizerConfig(dim=128))
    cfg = TrainConfig(batch_size=32, epochs=5, embed_dim=8, seed=11,
                      ll=LLConfig(enable_kl=False, enable_cl=False))
    params, _ = train(train_set, None, feat, cfg)
    s_text, s_pro = build_stores(params, feat, train_set)
    fp = model_fingerprint(params)
    n = s_text.n

    for text in test_set.texts:
        lam0 = predict(text, params, feat, s_text, s_pro,
                       InferenceConfig(k=8, lam=0.0), fingerprint=fp)
        assert np.abs(lam0.p_final - lam0.p_model).max() == 0.0
        off = predict(text, params, feat, None, None,
                      InferenceConfig(k=8, lam=0.5, use_text_knn=False,
                                      use_pro_knn=False), fingerprint=fp)
        assert np.abs(off.p_final - off.p_model).max() == 0.0
        assert np.array_equal(lam0.p_model, off.p_model)

        exact = predict(text, params, feat, s_text, s_pro,
                        InferenceConfig(k=n, lam=0.5), fingerprint=fp)
        over = predict(text, params, feat, s_text, s_pro,
                       InferenceConfig(k=n + 37, lam=0.5), fingerprint=fp)
        assert np.array_equal(exact.p_text_sharp, over.p_text_sharp)
        assert np.array_equal(exact.p_pro_sharp, over.p_pro_sharp)
        assert np.array_equal(exact.p_knn, over.p_knn)
        assert np.array_equal(exact.p_final, over.p_final)
    _report(4, "degeneracy identities", t0)


# -- criterion 5: desk-scale ablation ordering --------------------------------

ABLATION_CORPUS = SyntheticSpec(
    n=2000, n_labels=10, n_groups=3, seed=42,
    n_templates=0, p_label=0.05, label_vocab=8,
    p_group=0.58, p_other_group=0.12,
)

NOISE_CORPUS = SyntheticSpec(
    n=2000, n_labels=10, n_groups=3, seed=42,
    n_templates=16, resample=0.5, p_label=0.03,
    p_group=0.60, p_other_group=0.12,
)


def _experiment_config(corpus: SyntheticSpec, lam: float, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=generate_synthetic(corpus),
        seed=777,
        repeats=5,
        featurizer=FeaturizerConfig(dim=512),
        train=TrainConfig(batch_size=128, epochs=60, learning_rate=3e-3,
                          embed_dim=64, ll=LLConfig()),
        inference=InferenceConfig(k=16, lam=lam),
        **kw,
    )


def test_criterion_5_ablation_ordering():
    t0 = time.time()
    report = ablation_suite(_experiment_config(ABLATION_CORPUS, lam=0.5))
    acc = {row.config: row.mean for row in report.rows}
    print(f"  base={acc['base']:.4f} base+dknn={acc['base+dknn']:.4f} "
          f"ll={acc['ll']:.4f} ll+dknn={acc['ll+dknn']:.4f}")
    assert acc["ll+dknn"] >= acc["base"] + 0.002
    assert acc["ll"] >= acc["base"] - 0.002
    assert acc["ll+dknn"] >= acc["base+dknn"] - 0.002
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(5, "ablation ordering", t0)


# -- criterion 6: noise-robustness trend --------------------------------------


def test_criterion_6_noise_robustness_trend():
    t0 = time.time()
    base_ll = LLConfig(enable_kl=False, enable_cl=False)
    improvements = {}
    for ratio in (0.0, 0.3, 0.5):
        cfg = _experiment_config(NOISE_CORPUS, lam=0.25, noise_ratio=ratio)
        cfg.train.ll = base_ll
        rows = [
            RowSpec("base", base_ll, None),
            RowSpec("base+dknn", base_ll, cfg.inference),
        ]
        report = run_experiment(cfg, rows)
        acc = {row.config: row.mean for row in report.rows}
        improvements[ratio] = acc["base+dknn"] - acc["base"]
        print(f"  noise={ratio}: base={acc['base']:.4f} "
              f"dknn improvement={improvements[ratio]:+.4f}")
    assert improvements[0.5] >= improvements[0.0] - 0.002
    _report(6, "noise-robustness trend", t0)


# -- criterion 7: invariant suites --------------------------------------------


def test_criterion_7_invariant_suites():
    t0 = time.time()
    rng = Rng(424242)

    # distribution invariants on 10,000 outputs of the model's softmax
    for _ in range(10000):
        c = 2 + rng.bounded(10)
        assert is_distribution(softmax_rows(rng.normals(c)[None, :] * 20.0)[0], tol=1e-9)

    # softmax shift invariance, 10,000 pairs
    for _ in range(10000):
        c = 2 + rng.bounded(10)
        v = rng.normals(c)[None, :] * 10.0
        shift = (rng.uniform() - 0.5) * 2000.0  # |shift| <= 1e3
        assert np.abs(softmax_rows(v) - softmax_rows(v + shift)).max() <= 1e-12

    # sharpen: argmax preserved, max never decreases, output is a distribution
    for _ in range(10000):
        c = 2 + rng.bounded(10)
        raw = rng.uniforms(c) + 1e-9
        p = raw / raw.sum()
        s = sharpen(p[None])[0]
        assert is_distribution(s, tol=1e-9)
        assert np.argmax(s) == np.argmax(p)
        assert s.max() >= p.max() - 1e-12

    # KL nonnegativity (Gibbs) and self-divergence, 10,000 pairs
    for _ in range(10000):
        c = 2 + rng.bounded(10)
        a_raw = rng.uniforms(c) + 1e-9
        b_raw = rng.uniforms(c) + 1e-9
        a = a_raw / a_raw.sum()
        b = b_raw / b_raw.sum()
        assert kl_divergence(a, b) >= -1e-9
    for _ in range(100):
        c = 2 + rng.bounded(10)
        a_raw = rng.uniforms(c) + 1e-9
        a = a_raw / a_raw.sum()
        assert kl_divergence(a, a) <= 1e-12

    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(7, "invariant suites", t0)


# -- criterion 8: determinism & persistence -----------------------------------


def test_criterion_8_determinism_and_persistence(tmp_path):
    t0 = time.time()
    data = tmp_path / "data.jsonl"
    assert cli_main(["gen-synth", "--out", str(data), "--n", "200",
                     "--labels", "4", "--groups", "2", "--seed", "13"]) == 0

    exp_args = lambda out: [
        "experiment", "--dataset", str(data), "--out", str(out),
        "--seed", "13", "--repeats", "2", "--epochs", "3",
        "--batch-size", "32", "--embed-dim", "8", "--feature-dim", "128",
    ]
    out_a, out_b = tmp_path / "runA", tmp_path / "runB"
    assert cli_main(exp_args(out_a)) == 0
    assert cli_main(exp_args(out_b)) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()

    model_dir = tmp_path / "model"
    assert cli_main([
        "train", "--dataset", str(data), "--out", str(model_dir), "--seed", "13",
        "--epochs", "2", "--batch-size", "32", "--embed-dim", "8",
        "--feature-dim", "128",
    ]) == 0
    assert cli_main([
        "build-store", "--checkpoint", str(model_dir / "checkpoint.dknm"),
        "--dataset", str(data), "--out", str(model_dir),
    ]) == 0

    from dknn.model import load_checkpoint, save_checkpoint

    ckpt = model_dir / "checkpoint.dknm"
    save_checkpoint(load_checkpoint(ckpt), tmp_path / "ckpt2.dknm")
    assert ckpt.read_bytes() == (tmp_path / "ckpt2.dknm").read_bytes()
    for name in ("store_text.dkns", "store_pro.dkns"):
        src = model_dir / name
        save_store(load_store(src), tmp_path / name)
        assert src.read_bytes() == (tmp_path / name).read_bytes()
    _report(8, "determinism & persistence", t0)


# -- criterion 9: inject_noise contract ---------------------------------------


def test_criterion_9_inject_noise_contract():
    t0 = time.time()
    ds = generate_synthetic(SyntheticSpec(n=1000, n_labels=10, n_groups=3, seed=21))
    assert ds.coarse_of_label is not None
    for ratio in (0.03, 0.06, 0.30, 0.50):
        noisy = inject_noise(ds, ratio, seed=31)
        changed = [
            (old, new) for old, new in zip(ds.labels, noisy.labels) if old != new
        ]
        assert len(changed) == int(ratio * ds.n)
        for old, new in changed:
            assert ds.coarse_of_label[old] == ds.coarse_of_label[new]
    _report(9, "inject_noise contract", t0)
