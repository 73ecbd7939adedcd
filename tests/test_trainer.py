import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dknn
from dknn import trainer as trainer_mod
from dknn.exceptions import NonFiniteError, ValidationError
from dknn.features import FeaturizerConfig, fit_featurizer
from dknn.harness import Dataset, SyntheticSpec, generate_synthetic, save_dataset
from dknn.mathcore import softmax_rows
from dknn.model import LLConfig, ModelParams
from dknn.rng import Rng
from dknn.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    init_params,
    save_history,
    train,
)
from oracles import dense_adam_step, dense_loss_and_gradients, densify

CLASS_TOKENS = [
    ["apple", "pear", "plum", "grape", "melon"],
    ["zebra", "lion", "tiger", "rhino", "hyena"],
]


def separable_dataset(n_per_class: int = 30, seed: int = 0) -> Dataset:
    """Two classes with disjoint vocabularies: linearly separable."""
    rng = Rng(seed)
    texts, labels = [], []
    for i in range(n_per_class * 2):
        label = i % 2
        tokens = [
            CLASS_TOKENS[label][rng.bounded(len(CLASS_TOKENS[label]))]
            for _ in range(8)
        ]
        texts.append(" ".join(tokens))
        labels.append(label)
    return Dataset(texts=texts, labels=labels, label_names=["fruit", "animal"])


def small_featurizer():
    return fit_featurizer([], FeaturizerConfig(dim=64))


def copied(grads: ModelParams) -> ModelParams:
    """A whole copy of ``grads``, for adam_step to consume."""
    return ModelParams(**{k: t.copy() for k, t in grads.tensors().items()})


def ce_only_config(**kw) -> TrainConfig:
    ll = LLConfig(enable_kl=False, enable_cl=False)
    return TrainConfig(batch_size=16, epochs=30, embed_dim=8, seed=7, ll=ll, **kw)


class TestAdam:
    def _params(self):
        return init_params(3, 2, 2, Rng(0))

    def test_zero_gradients_no_change(self):
        params = self._params()
        before = {k: t.copy() for k, t in params.tensors().items()}
        grads = ModelParams(**{k: np.zeros_like(t) for k, t in params.tensors().items()})
        adam_step(params, grads, AdamState.for_params(params), TrainConfig())
        for k, t in params.tensors().items():
            assert np.array_equal(t, before[k])

    def test_first_step_magnitude_is_learning_rate(self):
        params = self._params()
        before = params.w1.copy()
        grads = ModelParams(
            w1=np.full_like(params.w1, 0.37),
            b1=np.zeros_like(params.b1),
            w2=np.zeros_like(params.w2),
            b2=np.zeros_like(params.b2),
            label_emb=np.zeros_like(params.label_emb),
        )
        cfg = TrainConfig(learning_rate=1e-3)
        adam_step(params, grads, AdamState.for_params(params), cfg)
        delta = params.w1 - before
        # closed form first step: -lr * g / (|g| + eps)
        expected = -cfg.learning_rate * 0.37 / (0.37 + ADAM_EPS)
        np.testing.assert_allclose(delta, expected, rtol=1e-12)

    def test_non_finite_gradient_aborts_with_diagnostics(self):
        params = self._params()
        grads = ModelParams(**{k: np.zeros_like(t) for k, t in params.tensors().items()})
        grads.w2[0, 0] = np.nan
        state = AdamState.for_params(params)
        state.step = 41
        with pytest.raises(NonFiniteError, match="w2.*step 42"):
            adam_step(params, grads, state, TrainConfig())

    def test_live_rows_match_dense_adam_bitwise(self):
        """Rows of the w1 gradient go live at different steps; a -0.0 entry
        sits both in an all-zero row (row 4, never nonzero) and in a nonzero
        one. Params and both moments must equal dense Adam over every
        entry, bit for bit."""
        params = init_params(6, 3, 4, Rng(3))
        params.w1[5, 0] = -0.0
        ref = {k: t.copy() for k, t in params.tensors().items()}
        m_ref = {k: np.zeros_like(t) for k, t in ref.items()}
        v_ref = {k: np.zeros_like(t) for k, t in ref.items()}
        state = AdamState.for_params(params)
        cfg = TrainConfig(learning_rate=1e-2)
        live_rows = [[0, 2], [2], [1, 2], [0], [], [3, 1]]
        rng = Rng(8)
        for step, rows in enumerate(live_rows, 1):
            grads = ModelParams(**{
                k: rng.normals(t.size).reshape(t.shape) for k, t in ref.items()
            })
            mask = np.zeros(len(grads.w1), dtype=bool)
            mask[rows] = True
            grads.w1[~mask] = 0.0
            grads.w1[4, 1] = -0.0
            if rows:
                grads.w1[rows[0], 2] = -0.0
            grads.label_emb[1] = 0.0  # a row of another 2-D tensor stays zero
            adam_step(params, copied(grads), state, cfg)
            dense_adam_step(ref, grads.tensors(), m_ref, v_ref, step,
                            cfg.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
            for got, want in ((params.tensors(), ref), (state.m, m_ref), (state.v, v_ref)):
                for k in want:
                    assert np.array_equal(got[k], want[k]), (step, k)
                    assert np.array_equal(np.signbit(got[k]), np.signbit(want[k])), (step, k)

    def test_dead_zero_row_keeps_its_state_and_all_live_w1_matches_dense(self):
        """At step 1 rows 1 and 3 of the w1 gradient are all +-0: they must
        stay untouched with zero moments, while rows 0 and 2 update in
        place. Step 2 makes rows 1 and 3 live, and step 3 zeroes every row
        but row 0, so the others update with a +0.0 gradient, as dense Adam
        does."""
        params = init_params(4, 2, 2, Rng(4))
        ref = {k: t.copy() for k, t in params.tensors().items()}
        m_ref = {k: np.zeros_like(t) for k, t in ref.items()}
        v_ref = {k: np.zeros_like(t) for k, t in ref.items()}
        state = AdamState.for_params(params)
        cfg = TrainConfig(learning_rate=1e-2)
        rng = Rng(9)
        for step, nonzero in enumerate([[0, 2], [1, 3], [0]], 1):
            grads = ModelParams(**{
                k: rng.normals(t.size).reshape(t.shape) for k, t in ref.items()
            })
            dead = np.setdiff1d(np.arange(4), nonzero)
            grads.w1[dead] = 0.0
            if step == 1:
                grads.w1[1, 1] = -0.0
            w1_before = params.w1.copy()
            adam_step(params, copied(grads), state, cfg)
            dense_adam_step(ref, grads.tensors(), m_ref, v_ref, step,
                            cfg.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
            if step == 1:
                assert np.array_equal(params.w1[[1, 3]], w1_before[[1, 3]])
                assert not (params.w1[[0, 2]] == w1_before[[0, 2]]).any()
                assert not state.m["w1"][[1, 3]].any() and not state.v["w1"][[1, 3]].any()
            for got, want in ((params.tensors(), ref), (state.m, m_ref), (state.v, v_ref)):
                for k in want:
                    assert np.array_equal(got[k], want[k]), (step, k)
                    assert np.array_equal(np.signbit(got[k]), np.signbit(want[k])), (step, k)


class TestInit:
    def test_draw_order_prefix_property(self):
        # w1/w2 draws must not depend on label_emb being drawn afterwards
        a = init_params(5, 3, 2, Rng(11))
        rng = Rng(11)
        w1 = rng.normals(15).reshape(5, 3)
        w1 /= np.sqrt(5)
        w2 = rng.normals(6).reshape(3, 2)
        w2 /= np.sqrt(3)
        assert np.array_equal(a.w1, w1)
        assert np.array_equal(a.w2, w2)
        assert np.all(a.b1 == 0.0) and np.all(a.b2 == 0.0)

    def test_scales(self):
        params = init_params(400, 100, 10, Rng(12))
        assert abs(params.w1.std() - 1 / np.sqrt(400)) < 0.003
        assert abs(params.w2.std() - 1 / np.sqrt(100)) < 0.01


class TestTrain:
    def test_separable_reaches_high_train_accuracy(self):
        ds = separable_dataset()
        feat = small_featurizer()
        params, _ = train(ds, None, feat, ce_only_config())
        assert evaluate(params, feat, ds) >= 0.99

    def test_zero_epochs_returns_init(self):
        ds = separable_dataset()
        feat = small_featurizer()
        cfg = ce_only_config()
        cfg.epochs = 0
        params, history = train(ds, None, feat, cfg)
        expected = init_params(feat.dim, cfg.embed_dim, 2, Rng(cfg.seed))
        assert history == []
        for k, t in params.tensors().items():
            assert np.array_equal(t, expected.tensors()[k])

    def test_rows_outside_the_training_columns_keep_their_init_bits(self):
        """train works over the columns its training set uses. Every other
        w1 row leaves it as init_params drew it, bit for bit; every used row
        has moved, and each dev evaluation sees the trained rows."""
        ds = separable_dataset(n_per_class=20)
        dev = separable_dataset(n_per_class=5, seed=1)
        feat = fit_featurizer([], FeaturizerConfig(dim=512))
        cfg = TrainConfig(batch_size=16, epochs=3, embed_dim=8, seed=5)
        params, history = train(ds, dev, feat, cfg)
        init = init_params(feat.dim, cfg.embed_dim, 2, Rng(cfg.seed))
        used = np.flatnonzero(feat.transform_many(ds.texts).any(axis=0))
        outside = np.setdiff1d(np.arange(feat.dim), used)
        assert 0 < len(used) < feat.dim
        assert np.array_equal(params.w1[outside], init.w1[outside])
        assert np.array_equal(np.signbit(params.w1[outside]), np.signbit(init.w1[outside]))
        assert (params.w1[used] != init.w1[used]).any(axis=1).all()
        assert history[-1].dev_accuracy == evaluate(params, feat, dev)

    def test_same_seed_identical_runs(self):
        ds = separable_dataset()
        feat = small_featurizer()
        cfg = ce_only_config()
        cfg.epochs = 5
        p1, h1 = train(ds, ds, feat, cfg)
        p2, h2 = train(ds, ds, feat, cfg)
        for k in p1.tensors():
            assert np.array_equal(p1.tensors()[k], p2.tensors()[k])
        assert h1 == h2

    def test_history_shape_and_dev_accuracy(self):
        ds = separable_dataset()
        feat = small_featurizer()
        cfg = ce_only_config()
        cfg.epochs = 3
        _, history = train(ds, ds, feat, cfg)
        assert [r.epoch for r in history] == [1, 2, 3]
        for rec in history:
            assert rec.total == rec.ce + rec.kl + rec.cl
            assert rec.kl == 0.0 and rec.cl == 0.0
            assert 0.0 <= rec.dev_accuracy <= 1.0

    def test_empty_train_set_rejected(self):
        ds = Dataset(texts=[], labels=[], label_names=["a"])
        with pytest.raises(ValidationError):
            train(ds, None, small_featurizer(), ce_only_config())

    def test_monotone_ce_after_epoch_3_most_seeds(self):
        ds = separable_dataset()
        feat = small_featurizer()
        good = 0
        for seed in range(1, 6):
            cfg = ce_only_config()
            cfg.seed = seed
            cfg.epochs = 12
            _, history = train(ds, None, feat, cfg)
            ce = [r.ce for r in history]
            if all(ce[t + 1] <= ce[t] + 1e-12 for t in range(3, len(ce) - 1)):
                good += 1
        assert good >= 4

    @pytest.mark.parametrize("mode", ["hashing", "tfidf"])
    def test_matches_dense_batches_and_dense_adam_bitwise(self, monkeypatch, mode):
        """With both LL losses on, train equals a loop of the dense step over
        dense x[idx] batches with dense Adam. Each step gets the CSR slice of
        its own mini-batch over the columns the training set uses, whose
        dense form is x[idx] over those columns. Under tf-idf F is the
        training vocabulary, so the training set uses every column.

        Bit for bit when the dense step runs over the batch's nonzero
        columns, so both GEMMs have the same operands on any BLAS kernel;
        to 1e-12 when it runs over all F columns, whose zero terms some
        kernels group differently."""
        ds = separable_dataset(n_per_class=20)
        feat = fit_featurizer(ds.texts, FeaturizerConfig(mode=mode, dim=512))
        cfg = TrainConfig(batch_size=16, epochs=3, embed_dim=8, seed=5,
                          learning_rate=1e-2, ll=LLConfig())
        blocks = []
        step_fn = trainer_mod.batch_loss_and_gradients

        def recording_step(rows, y, params, ll):
            blocks.append(densify(rows, params.feature_dim))
            return step_fn(rows, y, params, ll)

        monkeypatch.setattr(trainer_mod, "batch_loss_and_gradients", recording_step)
        params, history = train(ds, None, feat, cfg)
        assert max(map(len, blocks)) <= cfg.batch_size
        assert len(blocks) == cfg.epochs * -(-ds.n // cfg.batch_size)

        x_all = feat.transform_many(ds.texts)
        y_all = np.asarray(ds.labels)
        used = np.flatnonzero(x_all.any(axis=0))
        assert mode == "hashing" or len(used) == feat.dim
        for live_only in (True, False):
            ref = init_params(feat.dim, cfg.embed_dim, 2, Rng(cfg.seed)).tensors()
            m = {k: np.zeros_like(t) for k, t in ref.items()}
            v = {k: np.zeros_like(t) for k, t in ref.items()}
            step = 0
            for epoch in range(cfg.epochs):
                order = Rng(cfg.seed ^ epoch).permutation(ds.n)
                for start in range(0, ds.n, cfg.batch_size):
                    xb = x_all[order[start : start + cfg.batch_size]]
                    yb = y_all[order[start : start + cfg.batch_size]]
                    assert np.array_equal(blocks[step], xb[:, used])
                    cols = np.flatnonzero(xb.any(axis=0)) if live_only else slice(None)
                    sub = ModelParams(**{**ref, "w1": ref["w1"][cols]})
                    _, g = dense_loss_and_gradients(xb[:, cols], yb, sub, cfg.ll)
                    grads = {**g.tensors(), "w1": np.zeros_like(ref["w1"])}
                    grads["w1"][cols] = g.w1
                    step += 1
                    dense_adam_step(ref, grads, m, v, step, cfg.learning_rate,
                                    ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
            for k, t in params.tensors().items():
                if live_only:
                    assert np.array_equal(t, ref[k]), k
                else:
                    assert np.abs(t - ref[k]).max() <= 1e-12, k
        assert all(0.0 < r.active_hinge_fraction <= 1.0 for r in history)
        assert all(r.grad_norm["w1"] > 0.0 for r in history)

    def test_history_observability_keys(self):
        ds = separable_dataset(n_per_class=10)
        feat = small_featurizer()
        cfg = ce_only_config()
        cfg.epochs = 2
        _, history = train(ds, None, feat, cfg)
        for rec in history:
            assert rec.active_hinge_fraction == 0.0
            assert list(rec.grad_norm) == ["w1", "b1", "w2", "b2", "label_emb"]
            assert rec.grad_norm["label_emb"] == 0.0  # no LL loss touches it
            assert all(np.isfinite(list(rec.grad_norm.values())))

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValidationError, match="learning_rate"):
            TrainConfig(learning_rate=lr).validate()

    def test_flags_off_matches_independent_ce_loop_bitwise(self):
        """Training with both LL losses off must equal a from-scratch CE-only
        implementation, including every Adam update."""
        ds = separable_dataset(n_per_class=12)
        feat = small_featurizer()
        cfg = ce_only_config()
        cfg.epochs = 4
        cfg.batch_size = 8
        params, _ = train(ds, None, feat, cfg)

        # independent plain-CE loop (no label-embedding machinery at all)
        x_all = feat.transform_many(ds.texts)
        y_all = np.asarray(ds.labels)
        f, d, c = feat.dim, cfg.embed_dim, 2
        rng = Rng(cfg.seed)
        w1 = rng.normals(f * d).reshape(f, d)
        w1 /= np.sqrt(f)
        b1 = np.zeros(d)
        w2 = rng.normals(d * c).reshape(d, c)
        w2 /= np.sqrt(d)
        b2 = np.zeros(c)
        m = {n: np.zeros_like(t) for n, t in zip("abcd", (w1, b1, w2, b2))}
        v = {n: np.zeros_like(t) for n, t in zip("abcd", (w1, b1, w2, b2))}
        step = 0
        for epoch in range(cfg.epochs):
            order = Rng(cfg.seed ^ epoch).permutation(ds.n)
            for start in range(0, ds.n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                xb, yb = x_all[idx], y_all[idx]
                nb = len(idx)
                z1 = xb @ w1 + b1
                h = np.tanh(z1)
                p = softmax_rows(h @ w2 + b2)
                onehot = np.zeros((nb, c))
                onehot[np.arange(nb), yb] = 1.0
                live = (p[np.arange(nb), yb] >= 1e-12)[:, None]
                dz2 = np.where(live, (p - onehot) * (1.0 / nb), 0.0)
                dh = dz2 @ w2.T
                dz1 = dh * (1.0 - h * h)
                grads = {
                    "a": xb.T @ dz1,
                    "b": dz1.sum(axis=0),
                    "c": h.T @ dz2,
                    "d": dz2.sum(axis=0),
                }
                step += 1
                bc1 = 1.0 - ADAM_BETA1**step
                bc2 = 1.0 - ADAM_BETA2**step
                for name, tensor in zip("abcd", (w1, b1, w2, b2)):
                    g = grads[name]
                    m[name] *= ADAM_BETA1
                    m[name] += (1.0 - ADAM_BETA1) * g
                    v[name] *= ADAM_BETA2
                    v[name] += (1.0 - ADAM_BETA2) * (g * g)
                    tensor -= cfg.learning_rate * (m[name] / bc1) / (
                        np.sqrt(v[name] / bc2) + ADAM_EPS
                    )

        # bitwise identical forward predictions
        h_pkg = np.tanh(x_all @ params.w1 + params.b1)
        p_pkg = softmax_rows(h_pkg @ params.w2 + params.b2)
        h_ref = np.tanh(x_all @ w1 + b1)
        p_ref = softmax_rows(h_ref @ w2 + b2)
        assert np.array_equal(p_pkg, p_ref)


class TestEvaluate:
    def _forced_params(self, winner: int) -> ModelParams:
        b2 = np.zeros(2)
        b2[winner] = 10.0
        return ModelParams(
            w1=np.zeros((64, 4)), b1=np.zeros(4), w2=np.zeros((4, 2)), b2=b2,
            label_emb=np.zeros((2, 4)),
        )

    def test_all_correct(self):
        ds = Dataset(texts=["x", "y"], labels=[0, 0], label_names=["a", "b"])
        assert evaluate(self._forced_params(0), small_featurizer(), ds) == 1.0

    def test_all_wrong(self):
        ds = Dataset(texts=["x", "y"], labels=[1, 1], label_names=["a", "b"])
        assert evaluate(self._forced_params(0), small_featurizer(), ds) == 0.0

    def test_half(self):
        ds = Dataset(texts=["x", "y"], labels=[0, 1], label_names=["a", "b"])
        assert evaluate(self._forced_params(0), small_featurizer(), ds) == 0.5

    def test_tie_breaks_to_lowest_index(self):
        ds = Dataset(texts=["x"], labels=[0], label_names=["a", "b"])
        params = self._forced_params(0)
        params.b2 = np.zeros(2)  # exact tie
        assert evaluate(params, small_featurizer(), ds) == 1.0

    def test_empty_dataset_rejected(self):
        ds = Dataset(texts=[], labels=[], label_names=["a"])
        with pytest.raises(ValidationError):
            evaluate(self._forced_params(0), small_featurizer(), ds)


def test_history_jsonl_round_trip(tmp_path):
    ds = separable_dataset(n_per_class=8)
    feat = small_featurizer()
    cfg = ce_only_config()
    cfg.epochs = 2
    _, history = train(ds, ds, feat, cfg)
    path = tmp_path / "history.jsonl"
    save_history(history, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    # the two observability keys come after the original six
    assert list(rec) == ["epoch", "ce", "kl", "cl", "total", "dev_accuracy",
                         "grad_norm", "active_hinge_fraction"]
    assert list(rec["grad_norm"]) == ["w1", "b1", "w2", "b2", "label_emb"]


def test_history_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Gradient norms sum in a fixed order, so ``dknn train`` writes the same
    history.jsonl at 1 and 2 BLAS threads. The w1 gradient, U x d entries,
    is above the 10,000 past which OpenBLAS splits a dot product across
    threads (a BLAS-dot norm changed 3 to 8 of these 16 records, by kernel).
    Every GEMM of the step stays at or below M*N*K = 262,144, where OpenBLAS
    runs a GEMM on one thread: above it, the Haswell, Zen and Prescott
    kernels change GEMM bits with the thread count. The batch is the whole
    set, so each record holds one step's norms, with no mean over steps to
    round a last-bit change away."""
    ds = generate_synthetic(SyntheticSpec(n=10, seed=11))
    data = tmp_path / "data.jsonl"
    save_dataset(ds, data)
    d = 96
    used = len(np.unique(fit_featurizer([], FeaturizerConfig()).transform_rows(ds.texts)[1]))
    assert used * d > 10_000 and ds.n * used * d <= 262_144
    histories = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(dknn.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"run{threads}"
        subprocess.run([sys.executable, "-m", "dknn.cli", "train", "--dataset", str(data),
                        "--out", str(out), "--batch-size", "16", "--epochs", "16",
                        "--embed-dim", str(d), "--dev-ratio", "0", "--seed", "11"],
                       check=True, capture_output=True, env=env, timeout=120)
        histories.append((out / "history.jsonl").read_bytes())
    assert histories[0].count(b"\n") == 16
    assert histories[0] == histories[1]
