import dataclasses
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dknn import features
from dknn.exceptions import ValidationError
from dknn.features import (
    MAX_PIECES,
    Featurizer,
    FeaturizerConfig,
    _PieceColumns,
    fit_featurizer,
    fnv1a64,
    take_rows,
    tokenize,
)
from dknn.harness import SyntheticSpec, generate_synthetic
from dknn.rng import Rng
from oracles import dense_transform, densify


class TestFnv1a64:
    def test_published_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a64("foobar") == 0x85944171F73967E8

    def test_str_matches_utf8_bytes(self):
        assert fnv1a64("héllo") == fnv1a64("héllo".encode("utf-8"))


class TestTokenize:
    def test_whitespace_and_punctuation(self):
        assert tokenize("Hello, world!  foo\tbar\nbaz.") == [
            "hello", "world", "foo", "bar", "baz",
        ]

    def test_empty_after_strip_dropped(self):
        assert tokenize("--- ... x") == ["x"]

    def test_lowercase_flag(self):
        assert tokenize("ABC", lowercase=False) == ["ABC"]

    def test_unicode_whitespace(self):
        assert tokenize("a b") == ["a", "b"]


class TestHashingFeaturizer:
    def test_config_cannot_change_under_its_piece_map(self):
        f = fit_featurizer([], FeaturizerConfig(dim=64))
        f.transform_rows(["A b"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.config.dim = 128
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.config.lowercase = False

    def test_fit_ignores_corpus(self):
        f = fit_featurizer([], FeaturizerConfig(mode="hashing", dim=64))
        assert f.dim == 64
        assert f.vocabulary == {}

    def test_deterministic(self):
        f = fit_featurizer([], FeaturizerConfig(dim=256))
        a = f.transform("the cat sat on the mat")
        b = f.transform("the cat sat on the mat")
        assert np.array_equal(a, b)

    def test_empty_text_zero_vector(self):
        f = fit_featurizer([], FeaturizerConfig(dim=32))
        assert np.array_equal(f.transform(""), np.zeros(32))

    def test_repeated_token_same_unit_vector(self):
        f = fit_featurizer([], FeaturizerConfig(dim=128))
        np.testing.assert_allclose(f.transform("x x"), f.transform("x"), atol=0)

    def test_known_token_index(self):
        f = fit_featurizer([], FeaturizerConfig(dim=16))
        vec = f.transform("cat")
        expected = np.zeros(16)
        expected[fnv1a64("cat") % 16] = 1.0
        np.testing.assert_allclose(vec, expected, atol=0)

    def test_norm_is_zero_or_one(self):
        f = fit_featurizer([], FeaturizerConfig(dim=64))
        for text in ("", "a", "a b c", "a a a b", "x " * 50):
            n = np.linalg.norm(f.transform(text))
            assert n == 0.0 or abs(n - 1.0) <= 1e-9

    def test_many_distinct_tokens_no_error(self):
        f = fit_featurizer([], FeaturizerConfig(dim=4096))
        text = " ".join(f"tok{i}" for i in range(200))
        vec = f.transform(text)
        assert np.isfinite(vec).all()


class TestTfidfFeaturizer:
    def test_document_frequencies(self):
        f = fit_featurizer(["a b", "a"], FeaturizerConfig(mode="tfidf"))
        # vocabulary sorted lexicographically
        assert f.vocabulary == {"a": 0, "b": 1}
        n = 2
        idf_a = math.log((1 + n) / (1 + 2)) + 1.0
        idf_b = math.log((1 + n) / (1 + 1)) + 1.0
        np.testing.assert_allclose(f.idf, [idf_a, idf_b], atol=1e-15)

    def test_idf_is_one_when_token_everywhere(self):
        f = fit_featurizer(["a", "a", "a"], FeaturizerConfig(mode="tfidf"))
        assert f.idf[f.vocabulary["a"]] == pytest.approx(1.0)

    def test_empty_corpus_raises(self):
        with pytest.raises(ValidationError):
            fit_featurizer([], FeaturizerConfig(mode="tfidf"))

    def test_corpus_without_a_token_raises(self):
        with pytest.raises(ValidationError, match="no training text yields a token"):
            fit_featurizer(["!!!", "...", "", "?"], FeaturizerConfig(mode="tfidf"))

    def test_unknown_tokens_dropped(self):
        f = fit_featurizer(["a b c"], FeaturizerConfig(mode="tfidf"))
        assert np.array_equal(f.transform("zzz qqq"), np.zeros(f.dim))

    def test_output_dim_is_vocab_size(self):
        f = fit_featurizer(["a b", "c d e"], FeaturizerConfig(mode="tfidf"))
        assert f.dim == 5
        assert f.transform("a c").shape == (5,)


class TestSerialization:
    def test_hashing_round_trip(self):
        f = fit_featurizer([], FeaturizerConfig(dim=128, lowercase=False))
        g = Featurizer.from_dict(f.to_dict())
        text = "Round Trip Text"
        assert np.array_equal(f.transform(text), g.transform(text))

    def test_tfidf_round_trip(self):
        f = fit_featurizer(["a b c", "b c d"], FeaturizerConfig(mode="tfidf"))
        g = Featurizer.from_dict(f.to_dict())
        assert g.vocabulary == f.vocabulary
        assert np.array_equal(f.transform("a b d"), g.transform("a b d"))

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(idf=d["idf"][:2]),
        lambda d: d.update(idf=d["idf"] + [1.0]),
        lambda d: d.update(idf=[float("nan")] * len(d["idf"])),
        lambda d: d.update(idf=[float("inf")] + d["idf"][1:]),
        lambda d: d.update(idf=[0.0] + d["idf"][1:]),
        lambda d: d.update(idf=[-1.0] + d["idf"][1:]),
        lambda d: d.update(idf=[0.5] + d["idf"][1:]),
        lambda d: d.update(vocabulary=["a", "a"] + d["vocabulary"][2:]),
    ], ids=["short", "long", "nan", "inf", "zero", "negative", "below-one", "duplicate-token"])
    def test_bad_tfidf_idf_rejected(self, edit):
        d = fit_featurizer(["a b c", "b c d"], FeaturizerConfig(mode="tfidf")).to_dict()
        edit(d)
        with pytest.raises(ValidationError):
            Featurizer.from_dict(d)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError):
            fit_featurizer([], FeaturizerConfig(mode="w2v"))


OOV_CORPUS = ["alpha beta gamma", "beta gamma delta", "Gamma, delta; epsilon!"]
_rng = Rng(1)
# long rows over many idf values: on about half of them, a norm summed in
# another order (numpy's pairwise sum, a BLAS dot product) differs in the
# last bit from the left-to-right sum of transform_rows and the oracle
LONG_TEXTS = [
    " ".join(f"w{_rng.bounded(400)}" for _ in range(_rng.bounded(60) + 20))
    for _ in range(60)
]
EDGE_TEXTS = [
    "the cat sat on the mat",
    "",
    "   ",
    "--- ... !!!",
    "Hello, HELLO hello! world",
    "alpha alpha beta zzz-unknown qqq",
    "Gamma delta, (epsilon) epsilon epsilon",
    "héllo wörld héllo",
    " ".join(f"tok{i}" for i in range(300)),
] + LONG_TEXTS


@pytest.mark.parametrize(
    "featurizer",
    [
        fit_featurizer([], FeaturizerConfig(dim=4096)),
        fit_featurizer([], FeaturizerConfig(dim=64)),
        fit_featurizer([], FeaturizerConfig(dim=64, lowercase=False)),
        fit_featurizer(OOV_CORPUS, FeaturizerConfig(mode="tfidf")),
        fit_featurizer(OOV_CORPUS, FeaturizerConfig(mode="tfidf", lowercase=False)),
        fit_featurizer(OOV_CORPUS + LONG_TEXTS, FeaturizerConfig(mode="tfidf")),
    ],
    ids=["hash-4096", "hash-64", "hash-64-cased", "tfidf-oov", "tfidf-oov-cased",
         "tfidf-long"],
)
class TestTransformRows:
    def test_densified_rows_equal_dense_oracle_bitwise(self, featurizer):
        ref = np.stack([dense_transform(featurizer, t) for t in EDGE_TEXTS])
        for got in (
            densify(featurizer.transform_rows(EDGE_TEXTS), featurizer.dim),
            featurizer.transform_many(EDGE_TEXTS),
            np.stack([featurizer.transform(t) for t in EDGE_TEXTS]),
        ):
            assert got.shape == ref.shape and got.dtype == np.float64
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_csr_layout(self, featurizer):
        row_ptr, cols, vals = featurizer.transform_rows(EDGE_TEXTS)
        assert row_ptr.shape == (len(EDGE_TEXTS) + 1,) and row_ptr[0] == 0
        assert row_ptr[-1] == len(cols) == len(vals)
        assert np.all(np.diff(row_ptr) >= 0)
        for lo, hi in zip(row_ptr[:-1], row_ptr[1:]):
            assert np.all(np.diff(cols[lo:hi]) > 0)  # ascending, no duplicates
        assert np.all((cols >= 0) & (cols < featurizer.dim))
        # the empty and punctuation-only texts have no entries
        assert row_ptr[2] == row_ptr[1] == row_ptr[3] == row_ptr[4]

    def test_warm_hash_cache_gives_the_same_bits(self, featurizer):
        """A featurizer's second call reads every piece from its own map and
        gives the bits of a fresh featurizer; featurizers with another dim or
        case rule keep their own maps."""
        cold = Featurizer.from_dict(featurizer.to_dict()).transform_rows(EDGE_TEXTS)
        for other in (FeaturizerConfig(dim=7), FeaturizerConfig(dim=64, lowercase=False)):
            fit_featurizer([], other).transform_rows(EDGE_TEXTS)
        featurizer.transform_rows(EDGE_TEXTS)
        columns = dict(featurizer._columns)
        with mock.patch.object(_PieceColumns, "__missing__", side_effect=AssertionError):
            warm = featurizer.transform_rows(EDGE_TEXTS)
        assert featurizer._columns == columns
        for a, b in zip(cold, warm, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_densify_selected_rows_in_order(self, featurizer):
        """take_rows keeps the rows it is given, in that order, repeats
        included, under a row_ptr that starts at 0."""
        row_ptr, cols, vals = featurizer.transform_rows(EDGE_TEXTS)
        idx = np.array([5, 0, 3, 5, 8, 1])
        got_ptr, got_cols, got_vals = take_rows((row_ptr, cols, vals), idx)
        assert len(got_ptr) == len(idx) + 1 and got_ptr[0] == 0
        assert got_ptr[-1] == len(got_cols) == len(got_vals)
        for i, r in enumerate(idx):
            lo, hi = row_ptr[r], row_ptr[r + 1]
            assert np.array_equal(got_cols[got_ptr[i]:got_ptr[i + 1]], cols[lo:hi])
            assert np.array_equal(got_vals[got_ptr[i]:got_ptr[i + 1]], vals[lo:hi])


@pytest.mark.parametrize("mode", ["hashing", "tfidf"])
def test_piece_map_starts_over_at_its_bound(mode):
    """More than MAX_PIECES distinct pieces through one featurizer: its map
    never holds more than MAX_PIECES, and every row, read across the reset
    or after it, has the bytes of a fresh featurizer's."""
    texts = [" ".join(f"p{i}_{j}" for j in range(100)) for i in range(MAX_PIECES // 100 + 40)]
    featurizer = fit_featurizer(texts[::3], FeaturizerConfig(mode=mode))
    sizes = []
    for lo in range(0, len(texts), 50):
        featurizer.transform_rows(texts[lo:lo + 50])
        sizes.append(len(featurizer._columns))
    # one reset, then only the pieces read since
    assert max(sizes) <= MAX_PIECES and sizes[-1] == 100 * len(texts) - MAX_PIECES
    rows = featurizer.transform_rows(texts[:10] + EDGE_TEXTS)
    fresh = Featurizer.from_dict(featurizer.to_dict()).transform_rows(texts[:10] + EDGE_TEXTS)
    for a, b in zip(rows, fresh, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_threads_sharing_a_featurizer_read_its_bits_across_resets():
    """Four threads share one featurizer whose map starts over every 40
    pieces, so reads race clears; every row keeps a fresh featurizer's bits."""
    featurizer = fit_featurizer([], FeaturizerConfig(dim=64))
    texts = EDGE_TEXTS + LONG_TEXTS[:20]
    fresh = Featurizer.from_dict(featurizer.to_dict())
    want = [a.tobytes() for a in fresh.transform_rows(texts)]
    wrong = []

    def work():
        for _ in range(60):
            if [a.tobytes() for a in featurizer.transform_rows(texts)] != want:
                wrong.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(features, "MAX_PIECES", 40):
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not wrong
    assert len(featurizer._columns) <= 40


def test_transform_rows_of_no_texts():
    f = fit_featurizer([], FeaturizerConfig(dim=16))
    row_ptr, cols, vals = f.transform_rows([])
    assert row_ptr.tolist() == [0] and len(cols) == len(vals) == 0
    assert f.transform_many([]).shape == (0, 16)


# pieces whose tokens repeat, change case, drop out (punctuation only), fall
# out of the tf-idf vocabulary or change length when lowercased
PIECES = ["a", "A", "cat", "Cat", "CAT", "cat,", "(cat)", "dog", "dog!", "!!!", "...",
          "-", "x-y", "héllo", "HÉLLO", "ß", "İ", "ǅ", "w1", "w2", "oov", "OOV?"]
# str.split whitespace, ASCII and not
SEPARATORS = [" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1f"]
BATCH_TEXTS = st.lists(
    st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from(SEPARATORS)), max_size=10)
    .map(lambda parts: "".join(piece + sep for piece, sep in parts))
    | st.sampled_from(["", " \u3000 ", "!!! ...", "a a a a", "Cat cat CAT"]),
    max_size=12,
)
VOCAB_CORPUS = [" ".join(p for p in PIECES if "oov" not in p.lower())]


@pytest.mark.parametrize(
    "featurizer",
    [
        fit_featurizer([], FeaturizerConfig(dim=16)),
        fit_featurizer([], FeaturizerConfig(dim=4096, lowercase=False)),
        fit_featurizer(VOCAB_CORPUS, FeaturizerConfig(mode="tfidf")),
        fit_featurizer(VOCAB_CORPUS, FeaturizerConfig(mode="tfidf", lowercase=False)),
    ],
    ids=["hash-16", "hash-4096-cased", "tfidf", "tfidf-cased"],
)
@settings(max_examples=150, deadline=None)
@given(texts=BATCH_TEXTS, block=st.integers(1, 5))
def test_a_row_does_not_depend_on_its_batch(featurizer, texts, block):
    """Row i of a batch, cut into blocks of any size, has the bytes of the
    text featurized alone, which are the dense oracle's."""
    with mock.patch.object(features, "FEATURIZE_BLOCK", block):
        row_ptr, cols, vals = featurizer.transform_rows(texts)
    assert row_ptr.shape == (len(texts) + 1,) and row_ptr.dtype == np.int64
    for i, text in enumerate(texts):
        one_ptr, one_cols, one_vals = featurizer.transform_rows([text])
        lo, hi = row_ptr[i], row_ptr[i + 1]
        assert one_ptr.tolist() == [0, hi - lo]
        assert cols[lo:hi].tobytes() == one_cols.tobytes()
        assert vals[lo:hi].tobytes() == one_vals.tobytes()
        got = densify((one_ptr, one_cols, one_vals), featurizer.dim)[0]
        assert got.tobytes() == dense_transform(featurizer, text).tobytes()


def test_transform_rows_peak_memory_stays_near_its_output():
    """8,000 serve-shape texts: the output is about 3.7 MB of CSR arrays. A
    per-token loop that builds Python lists peaked at 2.1-2.2x its output,
    and one block of all the texts peaks at about 8x. Blocks keep the peak
    under 3x, within 1.5x of the per-token loop."""
    texts = generate_synthetic(SyntheticSpec(n=8000, seed=1)).texts
    featurizer = fit_featurizer([], FeaturizerConfig())
    tracemalloc.start()
    try:
        rows = featurizer.transform_rows(texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * sum(a.nbytes for a in rows)
