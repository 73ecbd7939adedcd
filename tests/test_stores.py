import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dknn.exceptions import (
    ArtifactMismatchError,
    CorruptArtifactError,
    ValidationError,
)
from dknn import stores
from dknn.features import FeaturizerConfig, fit_featurizer
from dknn.harness import Dataset
from dknn.model import (FORWARD_BLOCK, ModelParams, classify, encode, model_fingerprint,
                        save_checkpoint)
from dknn.rng import Rng
from oracles import heap_query, kl_divergence, loop_neighbor_distribution, row_breakdown
from dknn.stores import (
    SEARCH_BLOCK_BYTES,
    InferenceConfig,
    Neighbor,
    RepresentationStore,
    StoreMetric,
    build_stores,
    combine_knn,
    interpolate,
    iter_predictions,
    load_bundle,
    load_store,
    neighbor_distribution,
    predict,
    query,
    save_sidecar,
    save_store,
    search_block_rows,
    store_bytes,
)
from dknn.mathcore import KL_EPS
from dknn.stores import _f32_ceiling, _kl_query_rows, _kl_rows, _predict_blocks


def random_store(rng: Rng, n: int, dim: int, c: int, metric: StoreMetric,
                 fingerprint: int = 0) -> RepresentationStore:
    if metric == StoreMetric.L2:
        keys = rng.normals(n * dim).reshape(n, dim)
    else:
        raw = rng.uniforms(n * dim).reshape(n, dim) + 1e-3
        keys = raw / raw.sum(axis=1, keepdims=True)
    labels = np.array([rng.bounded(c) for _ in range(n)], dtype=np.uint32)
    return RepresentationStore(keys, labels, metric, c, fingerprint)


def brute_force_oracle(store: RepresentationStore, q: np.ndarray, k: int):
    """Full sort of every entry by (distance, index): the selection oracle."""
    dist = store.distances(q)
    order = np.lexsort((np.arange(store.n), dist))
    return [(int(i), float(dist[i])) for i in order[: min(k, store.n)]]


def tiny_params(f: int, d: int, c: int, seed: int = 0) -> ModelParams:
    rng = Rng(seed)
    return ModelParams(
        w1=rng.normals(f * d).reshape(f, d) * 0.5,
        b1=rng.normals(d) * 0.2,
        w2=rng.normals(d * c).reshape(d, c) * 0.5,
        b2=rng.normals(c) * 0.2,
        label_emb=rng.normals(c * d).reshape(c, d) * 0.5,
    )


class TestBuildStores:
    def _setup(self, n=3):
        texts = [f"tok{i} tok{i+1} shared" for i in range(n)]
        ds = Dataset(texts=texts, labels=[i % 2 for i in range(n)],
                     label_names=["a", "b"])
        feat = fit_featurizer([], FeaturizerConfig(dim=32))
        params = tiny_params(32, 4, 2)
        return ds, feat, params

    def test_sizes_match_dataset(self):
        ds, feat, params = self._setup(3)
        s_text, s_pro = build_stores(params, feat, ds)
        assert s_text.n == 3 and s_pro.n == 3
        assert s_text.metric == StoreMetric.L2
        assert s_pro.metric == StoreMetric.KL

    def test_pro_rows_are_distributions(self):
        ds, feat, params = self._setup(5)
        _, s_pro = build_stores(params, feat, ds)
        sums = s_pro.keys.astype(np.float64).sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-6

    def test_entries_match_independent_recompute(self):
        ds, feat, params = self._setup(4)
        s_text, s_pro = build_stores(params, feat, ds)
        for i, text in enumerate(ds.texts):
            h = encode(feat.transform(text), params)
            p = classify(h, params)
            np.testing.assert_array_equal(s_text.keys[i], h.astype(np.float32))
            np.testing.assert_array_equal(s_pro.keys[i], p.astype(np.float32))
            assert s_text.labels[i] == ds.labels[i]

    def test_empty_train_set_rejected(self):
        ds = Dataset(texts=[], labels=[], label_names=["a"])
        feat = fit_featurizer([], FeaturizerConfig(dim=8))
        with pytest.raises(ValidationError):
            build_stores(tiny_params(8, 2, 2), feat, ds)


class TestQuery:
    def test_query_of_stored_key_is_first_with_zero_distance(self):
        rng = Rng(1)
        store = random_store(rng, 20, 6, 3, StoreMetric.L2)
        q = store.keys[7].astype(np.float64)
        result = query(store, q, 3)
        assert result[0].index == 7
        assert abs(result[0].distance) <= 1e-9

    def test_k_at_least_n_returns_all_sorted(self):
        rng = Rng(2)
        store = random_store(rng, 10, 4, 3, StoreMetric.L2)
        result = query(store, rng.normals(4), 50)
        assert len(result) == 10
        dists = [nb.distance for nb in result]
        assert dists == sorted(dists)

    def test_matches_brute_force_oracle_small(self):
        rng = Rng(3)
        for metric in (StoreMetric.L2, StoreMetric.KL):
            store = random_store(rng, 5, 3, 2, metric)
            if metric == StoreMetric.L2:
                q = rng.normals(3)
            else:
                raw = rng.uniforms(3) + 1e-3
                q = raw / raw.sum()
            got = [(nb.index, nb.distance) for nb in query(store, q, 3)]
            assert got == brute_force_oracle(store, q, 3)

    def test_ties_break_by_store_index(self):
        keys = np.array([[1.0, 0.0], [0.5, 0.5], [1.0, 0.0], [1.0, 0.0]])
        store = RepresentationStore(
            keys, np.array([0, 1, 0, 1], np.uint32), StoreMetric.L2, 2, 0
        )
        result = query(store, np.array([1.0, 0.0]), 3)
        assert [nb.index for nb in result] == [0, 2, 3]

    def test_dim_mismatch(self):
        store = random_store(Rng(4), 5, 4, 2, StoreMetric.L2)
        with pytest.raises(ValidationError):
            query(store, np.zeros(3), 2)

    def test_empty_store(self):
        store = RepresentationStore(
            np.zeros((0, 2), np.float32), np.zeros(0, np.uint32), StoreMetric.L2, 2, 0
        )
        with pytest.raises(ValidationError):
            query(store, np.zeros(2), 1)

    def test_kl_store_requires_distribution_query(self):
        store = random_store(Rng(5), 5, 3, 2, StoreMetric.KL)
        with pytest.raises(ValidationError):
            query(store, np.array([2.0, 3.0, 4.0]), 2)

    def test_kl_block_is_checked_before_any_row_is_searched(self):
        store = random_store(Rng(5), 5, 3, 2, StoreMetric.KL)
        block = np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2], [2.0, 3.0, 4.0]])
        with mock.patch.object(stores, "_rank", side_effect=AssertionError("searched")):
            with pytest.raises(ValidationError, match="distribution query"):
                query(store, block, 2)

    def test_store_label_out_of_range_rejected(self):
        """RepresentationStore is the one check of label range: every label
        that neighbor_distribution sees comes from a store."""
        keys = np.full((3, 2), 0.5)
        for metric in (StoreMetric.L2, StoreMetric.KL):
            with pytest.raises(ValidationError, match="out of range for 2 classes"):
                RepresentationStore(keys, np.array([0, 2, 1], np.uint32), metric, 2, 0)

    def test_kl_store_rejects_non_distribution_keys(self):
        keys = np.array([[0.4, 0.4], [5.0, 5.0]], dtype=np.float32)
        with pytest.raises(ValidationError):
            RepresentationStore(keys, np.zeros(2, np.uint32), StoreMetric.KL, 2, 0)

    def test_kl_store_rejects_negative_keys(self):
        """A row that sums to 1 within the tolerance but holds a negative
        entry would take the log of a negative number after smoothing."""
        keys = np.array([[-1e-7, 1.0 + 1e-7]], dtype=np.float32)
        with pytest.raises(ValidationError, match="probability rows"):
            RepresentationStore(keys, np.zeros(1, np.uint32), StoreMetric.KL, 2, 0)

    @pytest.mark.parametrize("metric", [StoreMetric.L2, StoreMetric.KL])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_keys_rejected(self, metric, bad):
        keys = np.full((3, 2), 0.5)
        keys[1, 0] = bad
        with pytest.raises(ValidationError, match="finite"):
            RepresentationStore(keys, np.zeros(3, np.uint32), metric, 2, 0)

    def test_kl_distance_uses_key_first_argument_order(self):
        store = random_store(Rng(6), 4, 3, 2, StoreMetric.KL)
        q = np.array([0.7, 0.2, 0.1])
        dist = store.distances(q)
        for i in range(4):
            expected = kl_divergence(store.keys[i].astype(np.float64), q)
            assert dist[i] == pytest.approx(expected, abs=1e-12)


def candidate_sizes(store, queries, k):
    """How many candidates the search of each query row reranks."""
    sizes = []
    rank = stores._rank

    def counted(cand, *rest):
        sizes.append(cand.size)
        rank(cand, *rest)

    with mock.patch.object(stores, "_rank", counted):
        query(store, queries, k)
    return sizes


def _bits(neighbors):
    """Index, distance bits and label of every neighbor, in order."""
    return [(nb.index, nb.distance.hex(), nb.label) for nb in neighbors]


def _block_bits(store, found):
    """``_bits`` of each row of a block's (indices, distances) answer."""
    idx, dist = found
    assert idx.dtype == np.int64 and dist.dtype == np.float64 and idx.shape == dist.shape
    return [[(i, d.hex(), int(store.labels[i])) for i, d in zip(row_idx, row_dist)]
            for row_idx, row_dist in zip(idx.tolist(), dist.tolist())]


@st.composite
def search_cases(draw):
    """A store, a query and a k. Keys sit on a coarse integer grid, so exact
    distance ties and duplicate rows are common; L2 grids may sit at a large
    common offset with a fine step, where the expanded squared distance
    loses most of its digits."""
    metric = draw(st.sampled_from([StoreMetric.L2, StoreMetric.KL]))
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 8))
    top = draw(st.integers(1, 3))
    grid = st.lists(st.integers(0, top), min_size=dim, max_size=dim)
    rows = draw(st.lists(grid, min_size=n, max_size=n))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=4)):
        rows[dst] = rows[src]
    if draw(st.booleans()):
        q_row = rows[draw(st.integers(0, n - 1))]
    else:
        q_row = draw(grid)
    keys = np.array(rows, dtype=np.float64)
    q = np.array(q_row, dtype=np.float64)
    if metric == StoreMetric.L2:
        offset = draw(st.sampled_from([0.0, -3.0, 1e4]))
        step = draw(st.sampled_from([1.0, 0.25, 2.0**-10]))  # 2^-10: f32 ulp at 1e4
        keys = offset + step * keys
        q = offset + step * (q + draw(st.sampled_from([0.0, 0.5])))
    else:
        keys = (keys + 1.0) / (keys + 1.0).sum(axis=1, keepdims=True)
        q = (q + 1.0) / (q + 1.0).sum()
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                      dtype=np.uint32)
    store = RepresentationStore(keys, labels, metric, 4, 0)
    return store, q, draw(st.integers(1, n + 2))


@st.composite
def l2_scale_cases(draw):
    """An L2 store on a float32 grid at a scale from 1e-3 to 1e4, dim up to
    64, and a query off the grid by fractions no float32 holds. A grid at
    1e-3 may sit 1e4 from the origin, where its step is one float32 ulp and
    the scan's rounding errors dwarf the gaps between distances."""
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 64))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 37.0, 1e4]))
    offset = draw(st.sampled_from([0.0, 1e4])) if scale == 1e-3 else 0.0
    top = draw(st.integers(1, 4))
    rng = Rng(draw(st.integers(0, 2**32)))
    grid = np.floor(rng.uniforms(n * dim) * (2 * top + 1)) - top
    keys = (offset + scale * grid).reshape(n, dim).astype(np.float32)
    keys[rng.uniforms(n) < 0.2] = keys[0]  # duplicate rows tie exactly
    shift = np.array([0.0, 1.0 / 3.0, -0.1, 0.7])[np.floor(rng.uniforms(dim) * 4).astype(int)]
    q = keys[np.floor(rng.uniforms(dim) * n).astype(int), np.arange(dim)] + scale * shift
    store = RepresentationStore(keys, np.zeros(n, np.uint32), StoreMetric.L2, 1, 0)
    return store, q, draw(st.integers(1, n + 2))


@st.composite
def block_cases(draw):
    """A store, a (B, dim) block of queries and a k, with B in {1, 2, 63,
    300} (more than one search block) and N from 1 to k - 1, k, or 2,000.
    Keys sit on a coarse integer grid with duplicate rows, so ties fall at
    the k-th boundary. An L2 block may hold one row too large for float32."""
    metric = draw(st.sampled_from([StoreMetric.L2, StoreMetric.KL]))
    k = draw(st.integers(2, 20))
    n = draw(st.one_of(st.integers(1, k - 1), st.just(k), st.just(2000)))
    b = draw(st.sampled_from([1, 2, 63, 300]))
    dim = draw(st.integers(1, 8))
    top = draw(st.integers(1, 3))
    rng = Rng(draw(st.integers(0, 2**32)))
    keys = np.floor(rng.uniforms(n * dim) * (top + 1)).reshape(n, dim)
    keys[rng.uniforms(n) < 0.2] = keys[0]
    qs = keys[np.floor(rng.uniforms(b) * n).astype(int)]
    qs[rng.uniforms(b) < 0.5] += 0.5  # half the rows off the grid
    if metric == StoreMetric.L2:
        offset = draw(st.sampled_from([0.0, -3.0, 1e4]))
        step = draw(st.sampled_from([1.0, 0.25, 2.0**-10]))
        keys = offset + step * keys
        qs = offset + step * qs
        if draw(st.booleans()):
            qs[draw(st.integers(0, b - 1))] *= draw(st.sampled_from([1e30, 1e39]))
    else:
        keys = (keys + 1.0) / (keys + 1.0).sum(axis=1, keepdims=True)
        qs = (qs + 1.0) / (qs + 1.0).sum(axis=1, keepdims=True)
    labels = np.floor(rng.uniforms(n) * 4).astype(np.uint32)
    return RepresentationStore(keys, labels, metric, 4, 0), qs, k


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


@st.composite
def kl_block_cases(draw):
    """A KL store built to strain the float32 scan: peaked rows whose small
    entries sit at KL_EPS scale or are exact zeros, one-hot rows, and
    near-duplicate rows a float32 ulp apart; c from 2 to 12. A block of 1 to
    40 queries: stored rows, one-hot rows, near-duplicates of stored rows and
    fresh distributions. k runs from 1 to past N."""
    c = draw(st.integers(2, 12))
    n = draw(st.integers(1, 60))
    b = draw(st.integers(1, 40))
    rng = Rng(draw(st.integers(0, 2**32)))
    scale = draw(st.sampled_from([0.5, 3.0, 30.0]))
    keys = softmax_rows(scale * rng.normals(n * c).reshape(n, c))
    tiny = rng.uniforms(n * c).reshape(n, c) < 0.2
    tiny[np.arange(n), keys.argmax(axis=1)] = False
    keys[tiny] = np.floor(rng.uniforms(int(tiny.sum())) * 4) * KL_EPS  # 0 to 3 eps
    hot = rng.uniforms(n) < 0.15
    keys[hot] = np.eye(c)[np.floor(rng.uniforms(int(hot.sum())) * c).astype(int)]
    keys = (keys / keys.sum(axis=1, keepdims=True)).astype(np.float32)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)), max_size=6)):
        j = int(np.argmax(keys[src]))
        keys[dst] = keys[src]
        keys[dst, j] = np.nextafter(keys[src, j], np.float32(draw(st.sampled_from([0, 2]))))
    qs = softmax_rows(scale * rng.normals(b * c).reshape(b, c))
    pick = np.floor(rng.uniforms(b) * n).astype(int)
    kind = np.floor(rng.uniforms(b) * 4).astype(int)
    stored = keys[pick].astype(np.float64)
    qs[kind == 1] = stored[kind == 1]
    qs[kind == 2] = np.eye(c)[np.floor(rng.uniforms(b) * c).astype(int)][kind == 2]
    near = stored * (1.0 + 1e-7 * rng.normals(b * c).reshape(b, c))
    qs[kind == 3] = (near / near.sum(axis=1, keepdims=True))[kind == 3]
    labels = np.floor(rng.uniforms(n) * 3).astype(np.uint32)
    k = draw(st.one_of(st.integers(1, n), st.integers(n, n + 3)))
    return RepresentationStore(keys, labels, StoreMetric.KL, 3, 0), qs, k


class TestSearchMatchesHeapScan:
    @given(search_cases())
    @settings(max_examples=400, deadline=None)
    def test_indices_and_distance_bits_equal(self, case):
        store, q, k = case
        assert _bits(query(store, q, k)) == _bits(heap_query(store, q, k))

    @given(l2_scale_cases())
    @settings(max_examples=300, deadline=None)
    def test_float32_scan_at_every_scale(self, case):
        store, q, k = case
        assert _bits(query(store, q, k)) == _bits(heap_query(store, q, k))

    def test_f32_ceiling_rounds_to_no_less(self):
        rng = Rng(30)
        values = [0.0, -0.0, 1.0 + 2.0**-30, -1.0 - 2.0**-30, 2.0**-149, 3e-45, -3e-45,
                  1e-40, float(np.finfo(np.float32).tiny) * 1.1, 2.0**121 * (1.0 + 2.0**-30)]
        values += (rng.normals(2000) * 10.0 ** np.floor(rng.uniforms(2000) * 80 - 44)).tolist()
        for b in values:
            assert float(np.float32(_f32_ceiling(b))) >= b
            assert np.flatnonzero(np.array([b], np.float32) <= _f32_ceiling(b)).size == 1

    @pytest.mark.parametrize("key_scale, q_scale", [(1e30, 1.0), (1.0, 1e30)])
    def test_out_of_float32_range_ranks_every_key(self, key_scale, q_scale):
        keys = Rng(26).normals(50 * 4).reshape(50, 4) * key_scale
        store = RepresentationStore(keys, np.zeros(50, np.uint32), StoreMetric.L2, 1, 0)
        q = Rng(27).normals(4) * q_scale
        assert _bits(query(store, q, 5)) == _bits(heap_query(store, q, 5))

    @pytest.mark.parametrize("metric", [StoreMetric.L2, StoreMetric.KL])
    def test_all_rows_equal_returns_lowest_indices(self, metric):
        keys = np.full((200, 3), 1.0 / 3.0)
        store = RepresentationStore(keys, np.zeros(200, np.uint32), metric, 1, 0)
        q = np.array([0.5, 0.25, 0.25])
        for k in (1, 5, 17, 199):
            got = query(store, q, k)
            assert [nb.index for nb in got] == list(range(k))
            assert _bits(got) == _bits(heap_query(store, q, k))

    def test_large_offset_l2_where_expanded_form_picks_wrong_keys(self):
        """Keys 1e4 from the origin on a grid of one float32 ulp (2^-10):
        the expanded squared distance errs by about 1e-6, as much as the
        gaps between neighbors' squared distances, so it picks wrong keys;
        the search must still be exact."""
        rng = Rng(21)
        n, dim, k, step = 300, 8, 10, 2.0**-10
        grid = np.array([rng.bounded(4) for _ in range(n * dim)], dtype=np.float64)
        keys = 1e4 + step * grid.reshape(n, dim)
        store = RepresentationStore(keys, np.zeros(n, np.uint32), StoreMetric.L2, 1, 0)
        kf = store.keys.astype(np.float64)
        wrong = 0
        for _ in range(20):
            q = 1e4 + step * (rng.uniforms(dim) * 3.0)
            expanded = (kf * kf).sum(axis=1) - 2.0 * (kf @ q) + q @ q
            by_expanded = np.lexsort((np.arange(n), expanded))[:k]
            exact = heap_query(store, q, k)
            wrong += set(by_expanded.tolist()) != {nb.index for nb in exact}
            assert _bits(query(store, q, k)) == _bits(exact)
        assert wrong > 0

    @pytest.mark.parametrize("metric", [StoreMetric.L2, StoreMetric.KL])
    def test_column_major_keys_give_the_same_bits(self, metric):
        rows = random_store(Rng(24), 300, 40, 3, metric)
        store = RepresentationStore(np.asfortranarray(rows.keys), rows.labels,
                                    metric, 3, 0)
        q = rows.keys[5] if metric == StoreMetric.KL else Rng(25).normals(40)
        assert _bits(query(store, q, 9)) == _bits(heap_query(rows, q, 9))

    def test_tanh_range_store_reranks_fewer_than_2k_keys(self):
        """A bound that degrades to a full rerank stays exact but is slow."""
        rng = Rng(28)
        n, dim, k = 2000, 64, 16
        store = RepresentationStore(np.tanh(rng.normals(n * dim).reshape(n, dim)),
                                    np.zeros(n, np.uint32), StoreMetric.L2, 1, 0)
        queries = np.tanh(rng.normals(30 * dim).reshape(30, dim))
        queries = np.vstack([queries, store.keys[:10].astype(np.float64)])
        sizes = candidate_sizes(store, queries, k)
        assert len(sizes) == 40 and max(sizes) < 2 * k

    def test_model_like_kl_store_reranks_fewer_than_2k_keys(self):
        """The KL twin: peaked distributions over 10 classes, as a model's
        predictions are, and a bound of constant magnitude."""
        rng = Rng(35)
        n, c, k = 2000, 10, 16
        store = RepresentationStore(softmax_rows(6.0 * rng.normals(n * c).reshape(n, c)),
                                    np.zeros(n, np.uint32), StoreMetric.KL, 1, 0)
        queries = softmax_rows(6.0 * rng.normals(30 * c).reshape(30, c))
        queries = np.vstack([queries, store.keys[:10].astype(np.float64)])
        sizes = candidate_sizes(store, queries, k)
        assert len(sizes) == 40 and max(sizes) < 2 * k

    @given(block_cases())
    @settings(max_examples=60, deadline=None)
    def test_block_equals_heap_scan_per_row(self, case):
        store, qs, k = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = query(store, qs, k)
        assert _block_bits(store, got) == [_bits(heap_query(store, q, k)) for q in qs]

    @given(kl_block_cases())
    @settings(max_examples=200, deadline=None)
    def test_adversarial_kl_block_equals_heap_scan_per_row(self, case):
        store, qs, k = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = query(store, qs, k)
        assert _block_bits(store, got) == [_bits(heap_query(store, q, k)) for q in qs]

    @given(kl_block_cases(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_kl_distances_of_any_subset_keep_their_bits(self, case, data):
        """The KL kernel reduces each row on its own: a candidate subset, in
        any order and with repeats, gets the bits of the full vector."""
        store, qs, _ = case
        full = store.distances(qs[0])
        cand = np.array(data.draw(st.lists(st.integers(0, store.n - 1), min_size=1,
                                           max_size=2 * store.n)), dtype=np.int64)
        qx = _kl_query_rows(qs[:1])[0]
        assert _kl_rows(store._kl_terms[cand], qx).tobytes() == full[cand].tobytes()

    @pytest.mark.parametrize("scale", [1e30, 1e39, np.inf, np.nan])
    def test_out_of_range_row_leaves_its_block_alone(self, scale):
        """A row past float32's range scans as zeros and ranks every key; the
        other rows of its block keep their answers, and nothing warns."""
        store = random_store(Rng(31), 500, 6, 3, StoreMetric.L2)
        qs = Rng(32).normals(5 * 6).reshape(5, 6)
        qs[2] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _block_bits(store, query(store, qs, 7))
            alone = query(store, qs[2], 7)
        assert len(got) == 5 and got[2] == _bits(alone)
        rows = [0, 1, 3, 4] if np.isnan(scale) else range(5)
        assert all(got[i] == _bits(heap_query(store, qs[i], 7)) for i in rows)

    def test_search_holds_no_scan_above_the_block_budget(self):
        """256 queries over 2^15 keys would scan a 32 MiB (B, N) float32
        matrix in one block; split by search_block_rows, a block's scan and
        its partitioned copy stay within SEARCH_BLOCK_BYTES together, for
        either metric."""
        n, dim, b = 1 << 15, 4, 256
        assert b * n * 4 >= 4 * SEARCH_BLOCK_BYTES and search_block_rows(n) < b
        for metric in (StoreMetric.L2, StoreMetric.KL):
            rng = Rng(33)
            store = random_store(rng, n, dim, 1, metric)
            qs = random_store(rng, b, dim, 1, metric).keys.astype(np.float64)
            tracemalloc.start()
            try:
                idx, dist = query(store, qs, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * SEARCH_BLOCK_BYTES
            assert idx.shape == dist.shape == (b, 5)

    def test_block_rows_keep_the_scan_within_budget(self):
        assert search_block_rows(0) == search_block_rows(1) == FORWARD_BLOCK
        assert search_block_rows(1 << 15) == SEARCH_BLOCK_BYTES // (8 << 15)
        assert search_block_rows(SEARCH_BLOCK_BYTES) == 1
        for n in (1, 999, 8000, 1 << 15, 10**6):
            assert search_block_rows(n) * n * 8 <= max(SEARCH_BLOCK_BYTES, 8 * n)

    @pytest.mark.parametrize("metric", [StoreMetric.L2, StoreMetric.KL])
    def test_block_query_shape_checks(self, metric):
        store = random_store(Rng(34), 5, 3, 2, metric)
        idx, dist = query(store, np.zeros((0, 3)), 2)
        assert idx.shape == dist.shape == (0, 2)
        for bad in (np.zeros((2, 4)), np.zeros((1, 2, 3)), np.float64(0.5)):
            with pytest.raises(ValidationError):
                query(store, bad, 2)

    @pytest.mark.parametrize("metric", [StoreMetric.L2, StoreMetric.KL])
    def test_keys_are_held_once_as_float32(self, metric):
        store = random_store(Rng(29), 300, 12, 3, metric)
        q = store.keys[4].astype(np.float64)
        query(store, q, 5)
        store.distances(q)
        assert store.keys.dtype == np.float32
        held = [v for v in vars(store).values() if isinstance(v, np.ndarray)]
        held += [a for v in vars(store).values() if isinstance(v, tuple) for a in v]
        wide = store.keys.astype(np.float64)
        assert not any(a.dtype == np.float64 and a.shape == wide.shape
                       and np.array_equal(a, wide) for a in held)
        if metric == StoreMetric.L2:
            assert all(a.dtype != np.float64 for a in held)
            assert np.shares_memory(store.keys, store._scan)

    def test_l2_query_reranks_without_the_full_distance_scan(self, monkeypatch):
        store = random_store(Rng(22), 500, 6, 3, StoreMetric.L2)
        q = Rng(23).normals(6)
        expected = _bits(heap_query(store, q, 7))

        def no_scan(self, query_):
            raise AssertionError("L2 search called the full distance scan")

        monkeypatch.setattr(RepresentationStore, "distances", no_scan)
        assert _bits(query(store, q, 7)) == expected


# Prints the BLAS core OpenBLAS picked, then a digest of KL distances (from
# `distances` and from the pro neighbors of a search) and of p_final for a
# model of random weights: nothing it runs trains, so no step calls BLAS.
_KERNEL_PROBE = """
import ctypes, hashlib
from pathlib import Path
import numpy as np
from dknn import stores
from dknn.features import FeaturizerConfig, fit_featurizer
from dknn.harness import SyntheticSpec, generate_synthetic
from dknn.model import ModelParams
from dknn.rng import Rng

core = ""
for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
    get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
    if get is not None:
        get.restype = ctypes.c_char_p
        core = get().decode()
rng = Rng(7)
f, d, c = 256, 16, 10
params = ModelParams(w1=rng.normals(f * d).reshape(f, d), b1=rng.normals(d) * 0.2,
                     w2=rng.normals(d * c).reshape(d, c), b2=rng.normals(c) * 0.2,
                     label_emb=rng.normals(c * d).reshape(c, d))
data = generate_synthetic(SyntheticSpec(n=1200, seed=7))
feat = fit_featurizer([], FeaturizerConfig(dim=f))
s_text, s_pro = stores.build_stores(params, feat, data)
digest = hashlib.sha256()
texts = data.texts[:200] + ["unseen words only", ""]
for b in stores.iter_predictions(texts, params, feat, s_text, s_pro,
                                 stores.InferenceConfig(k=16)):
    digest.update(b.p_final.tobytes())
    digest.update(np.array([nb.distance for nb in b.pro_neighbors]).tobytes())
for i in range(0, s_pro.n, 97):
    digest.update(s_pro.distances(s_pro.keys[i].astype(np.float64)).tobytes())
print(core, digest.hexdigest())
"""


def test_kl_bits_do_not_depend_on_the_blas_kernel():
    """KL distances and p_final are the same bits under OpenBLAS's default
    kernels, its SSE3 (Prescott) ones and, where the CPU has AVX2 and FMA,
    its Haswell ones: the KL scan only picks candidates, and the rerank and
    `distances` sum each row in a fixed order."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as cpu
    cores = [None, "Prescott"] + (["Haswell"] if cpu["AVX2"] and cpu["FMA3"] else [])
    runs = []
    for core in cores:
        env = dict(os.environ, PYTHONPATH=str(Path(stores.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        out = subprocess.run([sys.executable, "-c", _KERNEL_PROBE], check=True,
                             capture_output=True, text=True, env=env, timeout=120).stdout
        runs.append(out.split())
    if len({name for name, _ in runs if name}) < 2:
        pytest.skip("OpenBLAS reports no choice of kernel here")
    assert len({digest for _, digest in runs}) == 1, runs


def one_row(neighbors, c):
    """neighbor_distribution of one Neighbor list, as a 1-row block."""
    dist = np.array([[nb.distance for nb in neighbors]])
    labels = np.array([[nb.label for nb in neighbors]], dtype=np.uint32)
    return neighbor_distribution(dist, labels, c)[0]


class TestNeighborDistribution:
    def test_matches_per_neighbor_loop_bitwise(self):
        rng = Rng(12)
        for _ in range(300):
            c = 1 + rng.bounded(6)
            n = 1 + rng.bounded(25)
            dist = rng.uniforms(n) * 4.0
            nbs = [Neighbor(i, float(dist[i]), rng.bounded(c)) for i in range(n)]
            assert np.array_equal(one_row(nbs, c), loop_neighbor_distribution(nbs, c))

    def test_single_neighbor_one_hot(self):
        out = one_row([Neighbor(0, 0.3, 2)], 4)
        np.testing.assert_allclose(out, [0, 0, 1, 0], atol=0)

    def test_equal_distances_two_labels(self):
        nbs = [Neighbor(0, 0.5, 0), Neighbor(1, 0.5, 1)]
        np.testing.assert_allclose(one_row(nbs, 2), [0.5, 0.5])

    def test_ln2_weight_ratio(self):
        nbs = [Neighbor(0, 0.0, 0), Neighbor(1, math.log(2.0), 1)]
        np.testing.assert_allclose(
            one_row(nbs, 2), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15
        )

    def test_same_label_mass_combines(self):
        nbs = [Neighbor(0, 0.0, 1), Neighbor(1, 0.0, 1), Neighbor(2, 0.0, 0)]
        np.testing.assert_allclose(
            one_row(nbs, 2), [1.0 / 3.0, 2.0 / 3.0], atol=1e-15
        )


class TestCombineInterpolate:
    def test_combine_identical_inputs(self):
        p = np.array([[0.2, 0.8]])
        np.testing.assert_allclose(combine_knn(p, p), p, atol=0)

    def test_combine_opposites(self):
        np.testing.assert_allclose(
            combine_knn(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])), [[0.5, 0.5]]
        )

    def test_interpolate_endpoints_exact(self):
        a = np.array([[0.9, 0.1]])
        b = np.array([[0.3, 0.7]])
        assert np.array_equal(interpolate(a, b, 0.0), b)
        assert np.array_equal(interpolate(a, b, 1.0), a)

    def test_interpolate_midpoint(self):
        np.testing.assert_allclose(
            interpolate(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.5), [[0.5, 0.5]]
        )


def assert_same_distributions(got, want):
    """Every distribution bit for bit (signs of zeros too) and the label."""
    for name in ("p_model", "p_text_sharp", "p_pro_sharp", "p_knn", "p_final"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.array_equal(a, b) and np.array_equal(
                np.signbit(a), np.signbit(b)), name
    assert got.label == want.label


def assert_same_breakdown(got, want):
    """Every distribution bit for bit, the label and both neighbor lists, as
    ``dknn predict --explain`` prints them."""
    assert_same_distributions(got, want)
    assert got.text_neighbors == want.text_neighbors
    assert got.pro_neighbors == want.pro_neighbors


def build_fixture(n=6, c=2):
    """Small end-to-end fixture: params, featurizer, dataset, stores."""
    texts = [
        "apple pear plum", "apple plum grape", "pear apple melon",
        "zebra lion tiger", "lion tiger rhino", "zebra rhino hyena",
    ][:n]
    labels = [0, 0, 0, 1, 1, 1][:n]
    ds = Dataset(texts=texts, labels=labels, label_names=["fruit", "animal"])
    feat = fit_featurizer([], FeaturizerConfig(dim=64))
    params = tiny_params(64, 4, c, seed=3)
    s_text, s_pro = build_stores(params, feat, ds)
    return params, feat, ds, s_text, s_pro


class TestPredict:
    def test_flags_off_returns_model_distribution(self):
        params, feat, ds, s_text, s_pro = build_fixture()
        cfg = InferenceConfig(k=3, lam=0.5, use_text_knn=False, use_pro_knn=False)
        out = predict("apple pear", params, feat, None, None, cfg)
        h = encode(feat.transform("apple pear"), params)
        assert np.array_equal(out.p_final, classify(h, params))
        assert out.p_knn is None and out.p_text_sharp is None and out.p_pro_sharp is None

    def test_zero_distance_retrieval_wins_at_lambda_one(self):
        params, feat, ds, s_text, s_pro = build_fixture()
        cfg = InferenceConfig(k=1, lam=1.0)
        out = predict(ds.texts[4], params, feat, s_text, s_pro, cfg)
        assert out.label == ds.labels[4]

    def test_single_module_ablation_uses_that_distribution(self):
        params, feat, ds, s_text, s_pro = build_fixture()
        cfg = InferenceConfig(k=3, lam=1.0, use_text_knn=True, use_pro_knn=False)
        out = predict("apple grape", params, feat, s_text, None, cfg)
        assert out.p_pro_sharp is None
        assert np.array_equal(out.p_knn, out.p_text_sharp)
        assert np.array_equal(out.p_final, out.p_text_sharp)

    def test_pipeline_matches_equation_oracle(self):
        """Step-by-step composition of the five inference equations, written
        out with scalar math against the raw store contents."""
        params, feat, ds, s_text, s_pro = build_fixture()
        k, lam = 3, 0.5
        cfg = InferenceConfig(k=k, lam=lam)
        text = "apple tiger melon"
        out = predict(text, params, feat, s_text, s_pro, cfg)

        h = encode(feat.transform(text), params)
        p_model = classify(h, params)
        c = 2

        def dist_l2(key, q):
            return math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(key, q)))

        def dist_kl(key, q):
            eps = 1e-12
            a = [float(v) + eps for v in key]
            sa = sum(a)
            a = [v / sa for v in a]
            b = [float(v) + eps for v in q]
            sb = sum(b)
            b = [v / sb for v in b]
            return sum(ai * (math.log(ai) - math.log(bi)) for ai, bi in zip(a, b))

        def knn_dist(store, q, dist_fn):
            scored = sorted(
                (dist_fn(store.keys[i], q), i) for i in range(store.n)
            )[:k]
            mass = [0.0] * c
            for d, i in scored:
                mass[int(store.labels[i])] += math.exp(-d)
            total = sum(mass)
            return [v / total for v in mass]

        def sharpen_eq(p):
            f = [v * v / sum(p) for v in p]
            s = sum(f)
            return [v / s for v in f]

        p_text = sharpen_eq(knn_dist(s_text, h, dist_l2))
        p_pro = sharpen_eq(knn_dist(s_pro, p_model, dist_kl))
        p_knn = [(a + b) / 2.0 for a, b in zip(p_text, p_pro)]
        p_final = [lam * a + (1.0 - lam) * b for a, b in zip(p_knn, p_model)]

        np.testing.assert_allclose(out.p_text_sharp, p_text, atol=1e-10)
        np.testing.assert_allclose(out.p_pro_sharp, p_pro, atol=1e-10)
        np.testing.assert_allclose(out.p_knn, p_knn, atol=1e-10)
        np.testing.assert_allclose(out.p_final, p_final, atol=1e-10)

    def test_breakdown_carries_each_store_neighbors(self):
        params, feat, ds, s_text, s_pro = build_fixture()
        text = "apple tiger melon"
        out = predict(text, params, feat, s_text, s_pro, InferenceConfig(k=4))
        h = encode(feat.transform(text), params)
        assert out.text_neighbors == query(s_text, h, 4)
        assert out.pro_neighbors == query(s_pro, classify(h, params), 4)
        cfg = InferenceConfig(k=4, use_pro_knn=False)
        out = predict(text, params, feat, s_text, None, cfg)
        assert out.text_neighbors == query(s_text, h, 4)
        assert out.pro_neighbors is None

    def test_lambda_out_of_range_rejected_before_search(self, monkeypatch):
        """InferenceConfig.validate is the one check of lambda: the tail's
        interpolate does not repeat it."""
        params, feat, ds, s_text, s_pro = build_fixture()
        monkeypatch.setattr(stores, "query", None)  # a search would raise TypeError
        for lam in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValidationError, match="lambda"):
                iter_predictions(["apple"], params, feat, s_text, s_pro,
                                 InferenceConfig(k=3, lam=lam))

    def test_fingerprint_mismatch_rejected(self):
        params, feat, ds, s_text, s_pro = build_fixture()
        other = tiny_params(64, 4, 2, seed=99)
        with pytest.raises(ArtifactMismatchError):
            predict("apple", other, feat, s_text, s_pro, InferenceConfig())

    @pytest.mark.parametrize(
        "text_knn, pro_knn", [(True, True), (True, False), (False, True), (False, False)]
    )
    def test_predict_many_equals_predict_per_text(self, text_knn, pro_knn):
        params, feat, ds, s_text, s_pro = build_fixture()
        texts = ds.texts + ["", "--- !!!", "apple tiger melon", "unseen words only"]
        cfg = InferenceConfig(k=4, lam=0.3, use_text_knn=text_knn, use_pro_knn=pro_knn)
        many = list(iter_predictions(texts, params, feat, s_text, s_pro, cfg))
        assert len(many) == len(texts)
        for text, got in zip(texts, many, strict=True):
            assert_same_breakdown(got, predict(text, params, feat, s_text, s_pro, cfg))
        assert list(iter_predictions([], params, feat, s_text, s_pro, cfg)) == []

    @pytest.mark.parametrize(
        "text_knn, pro_knn", [(True, True), (True, False), (False, True)]
    )
    def test_blocks_of_iter_predictions_equal_predict_per_text(
            self, monkeypatch, text_knn, pro_knn):
        """Two rows per search block of a text store: eleven texts make six
        blocks, each searched by one query call per enabled store. Without
        the text store there is no (B, N) scan and one block of eleven."""
        params, feat, ds, s_text, s_pro = build_fixture()
        texts = ds.texts + ["", "apple tiger melon", "pear lion", "zebra plum", "grape"]
        cfg = InferenceConfig(k=4, lam=0.3, use_text_knn=text_knn, use_pro_knn=pro_knn)
        want = [predict(text, params, feat, s_text, s_pro, cfg) for text in texts]
        monkeypatch.setattr(stores, "SEARCH_BLOCK_BYTES", 2 * 8 * s_text.n)
        blocks = []
        monkeypatch.setattr(stores, "query",
                            lambda store, q, k: blocks.append(len(q)) or query(store, q, k))
        got = iter_predictions(texts, params, feat, s_text, s_pro, cfg)
        assert blocks == []
        assert_same_breakdown(next(got), want[0])
        sizes = [2, 2, 2, 2, 2, 1] if text_knn else [11]
        assert blocks == [sizes[0]] * (text_knn + pro_knn)
        for a, b in zip(got, want[1:], strict=True):
            assert_same_breakdown(a, b)
        assert blocks == [n for n in sizes for _ in range(text_knn + pro_knn)]

    def test_iter_predictions_checks_stores_before_it_returns(self):
        params, feat, ds, s_text, s_pro = build_fixture()
        other = tiny_params(64, 4, 2, seed=99)
        with pytest.raises(ArtifactMismatchError):
            iter_predictions(["apple"], other, feat, s_text, s_pro, InferenceConfig())
        cfg = InferenceConfig(k=4)
        got = iter_predictions(ds.texts, params, feat, s_text, s_pro, cfg)
        assert [b.p_final.tobytes() for b in got] == [
            predict(t, params, feat, s_text, s_pro, cfg).p_final.tobytes() for t in ds.texts]

    @pytest.mark.parametrize("text_knn, pro_knn", [(True, True), (False, False)])
    def test_each_distribution_is_an_array_of_its_own(self, text_knn, pro_knn):
        """A caller that keeps one breakdown's p_final keeps that row alone,
        not its block's (B, c) arrays."""
        params, feat, ds, s_text, s_pro = build_fixture()
        cfg = InferenceConfig(k=3, use_text_knn=text_knn, use_pro_knn=pro_knn)
        got = list(iter_predictions(ds.texts, params, feat, s_text, s_pro, cfg))
        for b in got:
            fields = [getattr(b, name) for name in
                      ("p_model", "p_text_sharp", "p_pro_sharp", "p_knn", "p_final")]
            fields = [a for a in fields if a is not None]
            assert len(fields) == (5 if text_knn else 2)
            assert all(a.base is None and a.shape == (2,) for a in fields)
        assert got[0].p_final is not got[0].p_model

    def test_all_breakdown_fields_are_distributions(self):
        from dknn.mathcore import is_distribution

        params, feat, ds, s_text, s_pro = build_fixture()
        cfg = InferenceConfig(k=3, lam=0.5)
        for text in ds.texts:
            out = predict(text, params, feat, s_text, s_pro, cfg)
            for field in (out.p_model, out.p_text_sharp, out.p_pro_sharp,
                          out.p_knn, out.p_final):
                assert is_distribution(field, tol=1e-9)

    def test_lambda_affine_in_final_probability(self):
        params, feat, ds, s_text, s_pro = build_fixture()
        text = "pear lion"
        outs = {}
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = InferenceConfig(k=3, lam=lam)
            outs[lam] = predict(text, params, feat, s_text, s_pro, cfg).p_final
        p0, p1 = outs[0.0], outs[1.0]
        for lam in (0.25, 0.5, 0.75):
            expected = lam * p1 + (1.0 - lam) * p0
            assert np.abs(outs[lam] - expected).max() <= 1e-12


@st.composite
def tail_cases(draw):
    """Forward rows (h, p) of a block of B texts, a text and a pro store, an
    InferenceConfig and the rows per search block. Keys sit on a coarse grid
    with duplicate rows, and queries at keys or half a step off, so
    distances tie within and across labels; k runs past N."""
    c = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 6))
    b = draw(st.sampled_from([1, 2, 33]))
    top = draw(st.integers(1, 3))
    rng = Rng(draw(st.integers(0, 2**32)))
    text_keys = np.floor(rng.uniforms(n * dim) * (top + 1)).reshape(n, dim)
    pro_keys = np.floor(rng.uniforms(n * c) * (top + 1)).reshape(n, c) + 1.0
    dup = rng.uniforms(n) < 0.2
    text_keys[dup] = text_keys[0]
    pro_keys[dup] = pro_keys[0]
    pick = np.floor(rng.uniforms(b) * n).astype(int)
    h = text_keys[pick]
    h[rng.uniforms(b) < 0.5] += 0.5
    p = pro_keys[pick]
    p[rng.uniforms(b) < 0.5] += 0.5
    p /= p.sum(axis=1, keepdims=True)
    labels = np.floor(rng.uniforms(n) * c).astype(np.uint32)
    text_store = RepresentationStore(text_keys, labels, StoreMetric.L2, c, 0)
    pro_store = RepresentationStore(pro_keys / pro_keys.sum(axis=1, keepdims=True),
                                    labels[::-1], StoreMetric.KL, c, 0)
    cfg = InferenceConfig(
        k=draw(st.one_of(st.integers(1, n), st.integers(n, n + 3))),
        lam=draw(st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0])),
        use_text_knn=draw(st.booleans()), use_pro_knn=draw(st.booleans()))
    return h, p, text_store, pro_store, cfg, draw(st.sampled_from([1, 4, 256]))


class TestBlockTail:
    @given(tail_cases())
    @settings(max_examples=300, deadline=None)
    def test_block_tail_equals_per_row_oracle_bitwise(self, case):
        """Each breakdown of a block equals the per-row tail of
        ``oracles.row_breakdown`` over its row's 1-D query answers."""
        h, p, text_store, pro_store, cfg, rows = case
        text_on = text_store if cfg.use_text_knn else None
        pro_on = pro_store if cfg.use_pro_knn else None
        with mock.patch.object(stores, "SEARCH_BLOCK_BYTES", 8 * text_store.n * rows):
            got = list(_predict_blocks(h, p, text_on, pro_on, cfg))
        assert len(got) == len(p)
        for i, breakdown in enumerate(got):
            text = query(text_store, h[i], cfg.k) if text_on else None
            pro = query(pro_store, p[i], cfg.k) if pro_on else None
            assert_same_distributions(breakdown, row_breakdown(p[i], text, pro, cfg))
            assert breakdown.text_neighbors == text and breakdown.pro_neighbors == pro

    def test_unread_neighbor_fields_build_no_neighbor(self, monkeypatch):
        """A block of 100 texts makes no Neighbor unless a breakdown's
        neighbor fields are read; reading one gives exactly its row's
        1-D query answer."""
        params, feat, ds, s_text, s_pro = build_fixture()
        texts = [f"{ds.texts[i % ds.n]} w{i}" for i in range(100)]
        made = []

        class CountedNeighbor(Neighbor):
            def __init__(self, *args):
                made.append(1)
                super().__init__(*args)

        monkeypatch.setattr(stores, "Neighbor", CountedNeighbor)
        cfg = InferenceConfig(k=4)
        got = list(iter_predictions(texts, params, feat, s_text, s_pro, cfg))
        assert len(got) == 100 and made == []
        h, p = stores.forward_batch(feat.transform_rows(texts[7:8]), params)
        want = query(s_text, h[0], 4)
        made.clear()
        assert got[7].text_neighbors == want and len(made) == 4
        assert got[7].pro_neighbors == query(s_pro, p[0], 4)


class TestPersistence:
    def test_round_trip_byte_identical(self, tmp_path):
        params, feat, ds, s_text, s_pro = build_fixture()
        for name, store in (("text", s_text), ("pro", s_pro)):
            p1 = tmp_path / f"{name}1.dkns"
            p2 = tmp_path / f"{name}2.dkns"
            save_store(store, p1)
            loaded = load_store(p1)
            save_store(loaded, p2)
            assert p1.read_bytes() == p2.read_bytes()
            assert loaded.fingerprint == store.fingerprint
            assert np.array_equal(loaded.keys, store.keys)
            assert np.array_equal(loaded.labels, store.labels)

    def test_loaded_store_keeps_none_of_the_file_bytes(self, tmp_path):
        params, feat, ds, s_text, s_pro = build_fixture()
        for store in (s_text, s_pro):
            save_store(store, tmp_path / "s.dkns")
            loaded = load_store(tmp_path / "s.dkns")
            for a in (v for v in vars(loaded).values() if isinstance(v, np.ndarray)):
                while isinstance(a, np.ndarray) and a.base is not None:
                    a = a.base
                assert not isinstance(a, bytes)

    def test_header_layout(self):
        store = random_store(Rng(9), 4, 3, 2, StoreMetric.KL, fingerprint=0xDEAD)
        blob = store_bytes(store)
        assert blob[:4] == b"DKNS"
        assert len(blob) == 27 + 4 * 4 * 3 + 4 * 4

    def test_truncated_rejected(self, tmp_path):
        store = random_store(Rng(10), 4, 3, 2, StoreMetric.L2)
        path = tmp_path / "s.dkns"
        save_store(store, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptArtifactError):
            load_store(path)

    def test_bad_magic_rejected(self, tmp_path):
        store = random_store(Rng(11), 2, 2, 2, StoreMetric.L2)
        path = tmp_path / "s.dkns"
        blob = store_bytes(store)
        path.write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(CorruptArtifactError):
            load_store(path)

    def test_bundle_fingerprint_is_the_model_fingerprint(self, tmp_path):
        params, feat, ds, s_text, s_pro = build_fixture()
        save_checkpoint(params, tmp_path / "checkpoint.dknm")
        save_sidecar(feat, ds.label_names, tmp_path / "featurizer.json")
        save_store(s_text, tmp_path / "store_text.dkns")
        save_store(s_pro, tmp_path / "store_pro.dkns")
        for cfg in (InferenceConfig(), InferenceConfig(use_text_knn=False)):
            bundle = load_bundle(tmp_path / "checkpoint.dknm", cfg=cfg)
            assert bundle.fingerprint == model_fingerprint(params)
            assert bundle.fingerprint == model_fingerprint(bundle.params)
        assert load_bundle(tmp_path / "checkpoint.dknm").fingerprint is None

    def test_fingerprint_travels_through_file(self, tmp_path):
        params, feat, ds, s_text, _ = build_fixture()
        path = tmp_path / "s.dkns"
        save_store(s_text, path)
        assert load_store(path).fingerprint == model_fingerprint(params)
