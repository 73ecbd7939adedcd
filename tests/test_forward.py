"""The inference forward over CSR rows: batch invariance, its dense oracle,
and the callers that must use it instead of a dense feature matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dknn import features, model, stores, trainer
from dknn.features import FeaturizerConfig, fit_featurizer
from dknn.harness import Dataset
from dknn.model import ModelParams, classify, encode, forward_batch
from dknn.rng import Rng
from dknn.stores import InferenceConfig, build_stores, iter_predictions
from dknn.trainer import TrainConfig, evaluate, train
from oracles import dense_forward, densify

WORDS = [f"w{i}" for i in range(60)] + [
    "Apple", "apple,", "(pear)", "héllo", "--", "...", "!!", "zzz-unknown", "qqq",
]
# tf-idf is fitted on the first 30 words, so the rest are out of vocabulary
TFIDF_CORPUS = [" ".join(WORDS[i:i + 5]) for i in range(0, 30, 5)]

texts_strategy = st.lists(
    st.one_of(
        st.lists(st.sampled_from(WORDS), max_size=40).map(" ".join),
        st.sampled_from(["", "   ", "--- ... !!!"]),
    ),
    min_size=1,
    max_size=12,
)


def random_params(seed: int, f: int, d: int, c: int) -> ModelParams:
    rng = Rng(seed)
    return ModelParams(
        w1=rng.normals(f * d).reshape(f, d) * 0.5,
        b1=rng.normals(d) * 0.2,
        w2=rng.normals(d * c).reshape(d, c) * 0.5,
        b2=rng.normals(c) * 0.2,
        label_emb=rng.normals(c * d).reshape(c, d) * 0.5,
    )


def featurizer_for(mode: str):
    if mode == "tfidf":
        return fit_featurizer(TFIDF_CORPUS, FeaturizerConfig(mode="tfidf"))
    return fit_featurizer([], FeaturizerConfig(dim=int(mode.split("-")[1])))


def assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=150, deadline=None)
@given(
    texts=texts_strategy,
    mode=st.sampled_from(["hash-64", "hash-512", "tfidf"]),
    d=st.sampled_from([3, 16, 64]),
    c=st.sampled_from([1, 2, 10]),
    seed=st.integers(0, 2**16),
    cuts=st.lists(st.integers(0, 12), max_size=4),
)
def test_forward_of_any_split_equals_the_whole_batch(texts, mode, d, c, seed, cuts):
    feat = featurizer_for(mode)
    params = random_params(seed, feat.dim, d, c)
    rows = feat.transform_rows(texts)
    h, p = forward_batch(rows, params)

    h_dense, p_dense = dense_forward(densify(rows, feat.dim), params)
    assert np.abs(h - h_dense).max() <= 1e-15
    assert np.abs(p - p_dense).max() <= 1e-15

    bounds = sorted({0, len(texts), *(cut for cut in cuts if cut < len(texts))})
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        h_part, p_part = forward_batch(feat.transform_rows(texts[lo:hi]), params)
        assert_bits_equal(h_part, h[lo:hi])
        assert_bits_equal(p_part, p[lo:hi])
    for i, text in enumerate(texts):
        h_one, p_one = forward_batch(feat.transform_rows([text]), params)
        assert_bits_equal(h_one[0], h[i])
        assert_bits_equal(p_one[0], p[i])
        assert_bits_equal(encode(feat.transform(text), params), h[i])
        assert_bits_equal(classify(h[i], params), p[i])


def _words(seed: int, n: int) -> str:
    rng = Rng(seed)
    return " ".join(f"w{rng.bounded(60)}" for _ in range(n))


LONG = [_words(i, 5 + i % 50) for i in range(600)] + ["", "--- !!!"]


@pytest.mark.parametrize("block", [1, 7, 256, 1000])
def test_forward_bits_do_not_depend_on_the_block_size(monkeypatch, block):
    feat = fit_featurizer([], FeaturizerConfig(dim=512))
    params = random_params(5, 512, 64, 10)
    rows = feat.transform_rows(LONG)
    h_ref = np.stack([encode(feat.transform(t), params) for t in LONG])
    p_ref = np.stack([classify(h, params) for h in h_ref])
    monkeypatch.setattr(model, "FORWARD_BLOCK", block)
    h, p = forward_batch(rows, params)
    assert_bits_equal(h, h_ref)
    assert_bits_equal(p, p_ref)


def test_forward_of_no_rows():
    feat = fit_featurizer([], FeaturizerConfig(dim=16))
    h, p = forward_batch(feat.transform_rows([]), random_params(0, 16, 4, 3))
    assert h.shape == (0, 4) and p.shape == (0, 3)


def test_inference_callers_never_build_a_dense_feature_matrix(monkeypatch):
    """train, build_stores, evaluate, the dev accuracy and iter_predictions run
    on CSR rows; train hands the model one mini-batch slice at a time."""
    texts = LONG[:300]
    ds = Dataset(texts=texts, labels=[i % 3 for i in range(len(texts))],
                 label_names=["a", "b", "c"])
    feat = fit_featurizer([], FeaturizerConfig(dim=256))

    def forbidden(*args, **kwargs):
        raise AssertionError("dense featurization")

    monkeypatch.setattr(features.Featurizer, "transform_many", forbidden)
    monkeypatch.setattr(features.Featurizer, "transform", forbidden)
    batches = []
    step = trainer.batch_loss_and_gradients

    def batch_step(rows, y, params, ll):
        assert len(rows[0]) - 1 == len(y) <= 32
        batches.append(len(y))
        return step(rows, y, params, ll)

    monkeypatch.setattr(trainer, "batch_loss_and_gradients", batch_step)
    cfg = TrainConfig(batch_size=32, epochs=2, embed_dim=8, seed=1)
    params, history = train(ds.subset(range(200)), ds.subset(range(200, 300)), feat, cfg)
    assert sum(batches) == 2 * 200
    assert history[-1].dev_accuracy is not None

    s_text, s_pro = build_stores(params, feat, ds)
    assert 0.0 <= evaluate(params, feat, ds) <= 1.0
    out = list(iter_predictions(texts[:50], params, feat, s_text, s_pro, InferenceConfig(k=3)))
    assert len(out) == 50
    out = stores.predict(texts[0], params, feat, s_text, s_pro, InferenceConfig(k=3))
    assert out.label in (0, 1, 2)
