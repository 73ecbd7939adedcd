"""Representation stores and the kNN-augmented prediction pipeline.

Two stores are built from the training set by one forward pass: text
embeddings under L2 distance and predicted distributions under KL
divergence (stored key first, query second). Inference retrieves the exact
top-k neighbors from each store, for a block of queries at a time, and
both metrics search alike: each store holds one (dim + 1, N) float32 scan
matrix, one float32 matrix product of the block with it estimates every
key's distance, a floating-point error bound per metric widens each row's
k-th smallest estimate into a candidate set, and the candidates are
reranked exactly with the fixed-order float64 kernel of
``RepresentationStore.distances``, which calls no BLAS routine. A block's
search gives each store's (B, k) neighbor indices and distances; the rest of
inference is row operations on that block: label distributions via softmax
over negative distances, sharpened, averaged over the two stores, and
interpolated with the model's own prediction. ``Neighbor`` lists are built
only for a 1-D ``query`` and when a breakdown's neighbor fields are read
(``dknn predict --explain``).

Store file format "DKNS" v1 (little-endian, no padding):
magic 4s | u16 version | u8 metric (0=L2, 1=KL) | u32 dim | u32 N | u32 c |
u64 model fingerprint | N*dim f32 keys row-major | N u32 labels.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import repeat
from pathlib import Path

import numpy as np

from .artifacts import pack_blocks, read_artifact, unpack_blocks, write_atomic
from .exceptions import ArtifactMismatchError, CorruptArtifactError, ValidationError
from .features import Featurizer
from .mathcore import KL_EPS, is_distribution, sharpen
from .model import (
    FORWARD_BLOCK,
    ModelParams,
    checkpoint_fingerprint,
    forward_batch,
    model_fingerprint,
    params_from_bytes,
)

STORE_MAGIC = b"DKNS"
STORE_VERSION = 1

_HEADER = struct.Struct("<4sHBIIIQ")  # magic, version, metric, dim, N, c, fingerprint


class StoreMetric(IntEnum):
    L2 = 0
    KL = 1


@dataclass
class Neighbor:
    index: int
    distance: float
    label: int


@dataclass
class InferenceConfig:
    k: int = 16
    lam: float = 0.5  # interpolation weight on the kNN distribution
    use_text_knn: bool = True
    use_pro_knn: bool = True

    def validate(self) -> None:
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError(f"lambda must be in [0, 1], got {self.lam}")


@dataclass
class PredictionBreakdown:
    """Every distribution on the way to the final call. Disabled kNN modules
    leave their fields None; with both disabled p_knn is None and p_final ==
    p_model. ``text_neighbors`` and ``pro_neighbors`` list what each enabled
    store returned, built from the row's search result when read."""

    p_model: np.ndarray
    p_text_sharp: np.ndarray | None
    p_pro_sharp: np.ndarray | None
    p_knn: np.ndarray | None
    p_final: np.ndarray
    label: int
    _text_found: tuple | None = field(default=None, repr=False)
    _pro_found: tuple | None = field(default=None, repr=False)

    @property
    def text_neighbors(self) -> list[Neighbor] | None:
        return _neighbor_list(self._text_found)

    @property
    def pro_neighbors(self) -> list[Neighbor] | None:
        return _neighbor_list(self._pro_found)


def _neighbor_list(found: tuple | None) -> list[Neighbor] | None:
    """A row's (indices, distances, labels) as Neighbors; None stays None."""
    if found is None:
        return None
    # positional arguments: keywords double the cost of each Neighbor
    return [Neighbor(i, d, y) for i, d, y in zip(*(a.tolist() for a in found))]


def _l2_rows(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of keys to the float64 query q: the
    L2 oracle kernel. Float32 keys are widened exactly by the subtraction,
    into a C-ordered difference whatever the layout of keys, so each row
    reduces on its own, in one order: a subset of rows gets the same bits."""
    diff = np.subtract(keys, q, order="C")
    return np.sqrt((diff * diff).sum(axis=1))


def _kl_rows(terms: np.ndarray, qx: np.ndarray) -> np.ndarray:
    """KL(key || q) for each row [k~ | sum k~ ln k~] of terms and the query's
    row qx = [-ln q~ | 1]: the KL oracle kernel. A row sum in a fixed order,
    with no BLAS call, so each row's bits depend neither on the other rows
    nor on the BLAS kernel."""
    return (terms * qx).sum(axis=1)


def _kl_query_rows(rows: np.ndarray) -> np.ndarray:
    """[-ln q~ | 1] for each distribution row q of a (B, c) block, with
    q~ = (q + KL_EPS) / s and s = sum(q + KL_EPS): -ln q~_j is taken as
    ln(s / (q_j + KL_EPS))."""
    qe = rows + KL_EPS
    qx = np.ones((len(qe), qe.shape[1] + 1))
    np.log(np.add.reduce(qe, axis=1, keepdims=True) / qe, out=qx[:, :-1])
    return qx


def _kl_terms(keys: np.ndarray) -> np.ndarray:
    """[k~ | sum k~ ln k~] in float64 for each float32 distribution row k,
    with k~ = (k + KL_EPS) / sum(k + KL_EPS)."""
    k = keys.astype(np.float64)
    k += KL_EPS
    k /= k.sum(axis=1, keepdims=True)
    terms = np.empty((k.shape[0], k.shape[1] + 1))
    terms[:, :-1] = k
    terms[:, -1] = (k * np.log(k)).sum(axis=1)
    return terms


# Above this, 2 max ||k||^2 + ||q||^2 may not fit the float32 scan's range,
# so an L2 query ranks every key instead.
_F32_SAFE = 2.0**120

# No |ln(s / (q_j + KL_EPS))| of a distribution query reaches this (see _kl_bound).
_KL_LOG_MAX = math.log(2.0 / KL_EPS)

# Keys per step of the L2 scan build: a tile of _TILE_ROWS keys is
# transposed while it sits in cache, and the squared norms of _NORM_ROWS
# keys are summed from one float64 copy.
_TILE_ROWS = 128
_NORM_ROWS = 1024

# Most bytes that one block of queries holds in its (rows, N) float32 scan
# and the copy that np.partition makes of it, together.
SEARCH_BLOCK_BYTES = 2 << 20


def search_block_rows(n: int) -> int:
    """Queries per search block for a store of n keys: at most FORWARD_BLOCK,
    and few enough that the block's two (rows, n) float32 arrays fit
    SEARCH_BLOCK_BYTES, but at least one."""
    return max(1, min(FORWARD_BLOCK, SEARCH_BLOCK_BYTES // (8 * max(n, 1))))


class RepresentationStore:
    """Immutable key/label memory extracted from the training set.

    Keys are held as float32, the precision of the store file. Either metric
    also holds one float32 scan matrix in column layout, (dim + 1, N), that
    ``query`` multiplies each block of queries by:

    - L2: the keys, transposed, then each key's squared norm, taken in
      float64 and rounded to float32. ``keys`` is a view of it, so the keys
      are held once.
    - KL: the smoothed keys k~ = (k + KL_EPS) / sum(k + KL_EPS), then each
      key's sum k~ ln k~. The float64 rows [k~ | sum k~ ln k~] are kept for
      the exact rerank and ``distances``."""

    def __init__(
        self,
        keys: np.ndarray,
        labels: np.ndarray,
        metric: StoreMetric,
        n_classes: int,
        fingerprint: int,
    ) -> None:
        keys = np.asarray(keys)
        labels = np.array(labels, dtype=np.uint32)  # a copy: never a view of a file's bytes
        metric = StoreMetric(metric)
        if keys.ndim != 2 or keys.shape[0] != labels.shape[0]:
            raise ValidationError("keys must be (N, dim) with one label per row")
        self._sq_max = self._kl_mag = 0.0
        self._kl_terms: np.ndarray | None = None
        if metric == StoreMetric.L2:
            self._scan, self._sq_max = _build_l2_scan(keys)
            keys = self._scan[:-1].T
            finite = math.isfinite(self._sq_max)
        else:
            keys = np.array(keys, dtype=np.float32, order="C")
            finite = bool(np.isfinite(keys).all())
        if not finite:
            raise ValidationError("store keys must be finite")
        if labels.size and int(labels.max()) >= n_classes:
            raise ValidationError(
                f"label {int(labels.max())} out of range for {n_classes} classes"
            )
        if metric == StoreMetric.KL:
            if keys.shape[0] and not is_distribution(keys, tol=1e-6):
                raise ValidationError("KL store keys must be probability rows")
            self._kl_terms = _kl_terms(keys)
            self._kl_mag = _KL_LOG_MAX + float(np.abs(self._kl_terms[:, -1]).max(initial=0.0))
            self._scan = np.array(self._kl_terms.T, dtype=np.float32, order="C")
        self.keys = keys
        self.labels = labels
        self.metric = metric
        self.n_classes = int(n_classes)
        self.fingerprint = int(fingerprint) & ((1 << 64) - 1)

    @property
    def n(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    def distances(self, query: np.ndarray) -> np.ndarray:
        """f64 distance from every stored key to the query: Euclidean for an
        L2 store, key-first KL(key || query) for a KL store. ``query``
        reranks its candidates with the same kernels, bit for bit."""
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValidationError(
                f"query dim {q.shape} does not match store dim {self.dim}"
            )
        if self.metric == StoreMetric.L2:
            return _l2_rows(self.keys, q)
        _check_kl_query(q)
        return _kl_rows(self._kl_terms, _kl_query_rows(q[None])[0])


def _build_l2_scan(keys: np.ndarray) -> tuple[np.ndarray, float]:
    """The L2 scan matrix of (N, dim) keys, and max ||k||^2 (not finite if a
    key is not). Built straight from keys, a few keys at a time, with no
    full copy: fl32(k) transposed, then ||fl32(k)||^2 summed in float64,
    clipped to _F32_SAFE (such stores' queries skip the scan) and rounded
    to float32."""
    n, dim = keys.shape
    scan = np.empty((dim + 1, n), dtype=np.float32)
    for lo in range(0, n, _TILE_ROWS):
        scan[:-1, lo:lo + _TILE_ROWS] = keys[lo:lo + _TILE_ROWS].T
    sq_max = 0.0
    for lo in range(0, n, _NORM_ROWS):
        wide = scan[:-1, lo:lo + _NORM_ROWS].astype(np.float64)
        wide *= wide
        sq = wide.sum(axis=0)
        sq_max = float(sq.max(initial=sq_max))  # NaN stays NaN
        scan[-1, lo:lo + _NORM_ROWS] = np.minimum(sq, _F32_SAFE)
    return scan, sq_max


def _check_kl_query(q: np.ndarray) -> None:
    """A KL store's query rule, for one query or a (B, c) block of them."""
    if not is_distribution(q, tol=1e-6):
        raise ValidationError("KL-metric store requires a distribution query")


def build_stores(
    params: ModelParams, featurizer: Featurizer, train_set
) -> tuple[RepresentationStore, RepresentationStore]:
    """One (embedding, label) and one (distribution, label) entry per training
    example, in dataset order."""
    if train_set.n == 0:
        raise ValidationError("cannot build stores from an empty training set")
    h, p = forward_batch(featurizer.transform_rows(train_set.texts), params)
    labels = np.asarray(train_set.labels, dtype=np.uint32)
    c = params.n_classes
    fp = model_fingerprint(params)
    s_text = RepresentationStore(h, labels, StoreMetric.L2, c, fp)
    s_pro = RepresentationStore(p, labels, StoreMetric.KL, c, fp)
    return s_text, s_pro


def query(store: RepresentationStore, q: np.ndarray,
          k: int) -> list[Neighbor] | tuple[np.ndarray, np.ndarray]:
    """Exact top-k by ascending (distance, store index).

    ``q`` is a (B, dim) block, answered with two (B, min(k, N)) arrays: each
    row's store indices (int64) and their distances, nearest first; or one
    (dim,) query, answered with its 1-row block as a ``list[Neighbor]``. The
    distances equal ``store.distances`` of their row, bit for bit; ties on
    distance resolve to the lower store index, and a row's answer does not
    depend on the rest of its block. Both metrics search alike: the block is
    split into blocks of ``search_block_rows(N)`` rows, and ``_search_block``
    takes each one's candidates from one float32 product with the store's
    scan matrix and reranks them with the exact kernel of ``distances``.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if store.n == 0:
        raise ValidationError("store is empty")
    rows = np.asarray(q, dtype=np.float64)
    single = rows.ndim == 1
    if single:
        rows = rows[None]
    if rows.ndim != 2 or rows.shape[1] != store.dim:
        raise ValidationError(
            f"query dim {np.shape(q)} does not match store dim {store.dim}"
        )
    if store.metric == StoreMetric.KL and len(rows):
        _check_kl_query(rows)
    limit = min(k, store.n)
    idx = np.empty((len(rows), limit), dtype=np.int64)
    dist = np.empty((len(rows), limit))
    step = search_block_rows(store.n) if len(rows) > 1 else 1
    for lo in range(0, len(rows), step):
        _search_block(store, rows[lo:lo + step], idx[lo:lo + step], dist[lo:lo + step])
    if single:
        return _neighbor_list((idx[0], dist[0], store.labels[idx[0]]))
    return idx, dist


def _search_block(store: RepresentationStore, rows: np.ndarray, idx: np.ndarray,
                  dist: np.ndarray) -> None:
    """Each float64 query row's exact top k, k = idx.shape[1], written into
    its row of idx and dist.

    One float32 product of the block's scan rows with the store's (dim + 1,
    N) scan matrix, a GEMV for one row, gives every key's scan value t, and
    one ``np.partition`` each row's k-th smallest t. A row's candidates are
    the keys with t within the metric's error bound of it (``_l2_bound``,
    ``_kl_bound``), and ``_rank`` orders them by the exact float64 kernel of
    ``distances``."""
    n, k = store.n, idx.shape[1]
    kl = store.metric == StoreMetric.KL
    if kl:
        rows = _kl_query_rows(rows)  # the rows the KL kernel takes
        qa = rows.astype(np.float32)
    else:
        qa, norms = _l2_scan_rows(store, rows)
    t = qa @ store._scan
    if k < n:
        part = t.copy()
        part.partition(k - 1, axis=1)
        kth = part[:, k - 1].tolist()
    else:
        kth = [math.inf] * len(t)
    for i, kth_i in enumerate(kth):
        if kl:
            cand = _at_most(t[i], _kl_bound(kth_i, store._kl_mag, store.dim))
            cand_dist = _kl_rows(store._kl_terms[cand], rows[i])
        else:
            cand = _at_most(t[i], _l2_bound(kth_i, *norms[i], store.dim))
            cand_dist = _l2_rows(store.keys[cand], rows[i])
        _rank(cand, cand_dist, idx[i], dist[i])


def _l2_scan_rows(store: RepresentationStore,
                  rows: np.ndarray) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """The float32 scan rows [fl32(-2q) | 1] of an L2 block, and each row's
    (||q||^2, M) with M = 2 max ||k||^2 + ||q||^2. A row whose M is not
    below _F32_SAFE scans as zeros, uncast, since float32 would overflow,
    and gets M = inf, which makes every key its candidate."""
    norms, far = [], []
    for i, row in enumerate(rows):
        qq = float(row @ row)
        m = 2.0 * store._sq_max + qq
        if not m < _F32_SAFE:
            far.append(i)
            m = math.inf
        norms.append((qq, m))
    qa = np.empty((len(rows), store.dim + 1), dtype=np.float32)
    qa[:, -1] = 1.0
    if far:
        rows = rows.copy()
        rows[far] = qa[far, -1] = 0.0
    qa[:, :-1] = -2.0 * rows
    return qa, norms


def _rank(cand: np.ndarray, cand_dist: np.ndarray, idx: np.ndarray, dist: np.ndarray) -> None:
    """Write the first len(idx) candidates by (distance, index) into the
    output row ``idx`` and their distances into ``dist``."""
    order = np.lexsort((cand, cand_dist))[:len(idx)]
    idx[:] = cand[order]
    dist[:] = cand_dist[order]


def _at_most(values: np.ndarray, bound: float) -> np.ndarray:
    """Indices of the values <= bound, ascending; every index when the bound
    is not finite (k covers the store, or an L2 row scans as zeros), so the
    rerank then orders the whole store as the full-sort oracle does."""
    if not math.isfinite(bound):
        return np.arange(values.size)
    return (values <= bound).nonzero()[0]


_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64


def _gamma(n: int, u: float = _U64) -> float:
    return n * u / (1.0 - n * u)


def _l2_bound(kth: float, qq: float, norms: float, dim: int) -> float:
    """Largest float32 scan value t that a true top-k key can have.

    Notation: u and v are the unit roundoffs of float32 and float64,
    g_n = n u / (1 - n u) and G_n = n v / (1 - n v); eta = 2^-150 is the
    most a float32 product or rounding adds when it underflows; d = dim.
    For a key k (float32 entries) and the float64 query q, D = ||k - q||^2
    and D' = D - ||q||^2 = ||k||^2 - 2 k.q, both exact; ``qq`` = ||q||^2 and
    ``norms`` = M = 2 max ||k||^2 + ||q||^2, which the caller has checked is
    below 2^120, so nothing in the scan overflows float32 (for a larger M it
    passes inf, and the bound is not finite). The scan computes
    t = fl32(x.y) with x = [k, s], s = fl32(fl64(||k||^2)) and y = [a, 1],
    a_j = fl32(-2 q_j). Let A = 2 sum|k_j q_j| + ||k||^2 <= 2 ||k|| ||q|| +
    ||k||^2 <= M.

    - Inputs: |a_j + 2 q_j| <= 2u|q_j| + eta. The squares of float32 values
      are exact in float64, so fl64(||k||^2) errs by at most G_d ||k||^2,
      and |s - ||k||^2| <= (u + 2G_d) ||k||^2 + eta. Together
      |x.y - D'| <= (u + 2G_d) A + eta (sum|k_j| + 1), and
      sum|x_j y_j| <= (1 + u + 2G_d) A + eta (sum|k_j| + 1).
    - Scan: a float32 dot product of d + 1 terms, in any order, with or
      without FMA, errs by at most g_(d+1) sum|x_j y_j| + (d + 1) eta
      (1 + g_(d+1)); a sum that underflows is exact.
    - So |t - D'| <= E = g_(d+4) M + (d + 2) 2^-147: u + g_(d+1)(1 + u) <=
      g_(d+2), sum|k_j| <= sqrt(d) ||k|| <= d + ||k||^2, and the G_d and
      eta ||k||^2 terms lie far below the spare u M.
    - The oracle's d nonnegative terms carry 3 roundings each and a sum of
      d of them, so o = fl64(sum fl64(k_j - q_j)^2) has |o - D| <= G_(d+2) D.

    Let T = ``kth``, the k-th smallest t. Those k keys have D' <= T + E, so
    D <= R = T + E + ||q||^2, and o <= (1 + G_(d+2)) R; R >= 0, since every
    t >= D' - E >= -||q||^2 - E. So the k-th smallest oracle distance r is at
    most fl(sqrt((1 + G_(d+2)) R)). A key in the answer has fl(sqrt(o)) <=
    r, so o <= (1 + G_(d+2)) R (1 + v)^2 / (1 - v)^2, D <= o / (1 - G_(d+2))
    <= (1 + G_(2d+10)) R, and its t <= D' + E <= T + 2E + G_(2d+10) R.

    The bound below takes g_(d+5) and G_(2d+16) in place of g_(d+4) and
    G_(2d+10): the spare terms absorb the float64 roundings of M and of the
    bound's own arithmetic, each a few v of a magnitude below 3M. The
    candidates are compared with it in float32, so it is returned through
    ``_f32_ceiling``.
    """
    err = _gamma(dim + 5, _U32) * norms + (dim + 2) * 2.0**-147
    return _f32_ceiling(kth + 2.0 * err + _gamma(2 * dim + 16) * (kth + err + qq))


def _kl_bound(kth: float, mag: float, dim: int) -> float:
    """Largest float32 scan value t that a true top-k key of a KL store can
    have.

    Notation as in ``_l2_bound``; c = dim. A key's stored float64 row is
    [k~ | s], k~ its smoothed distribution and s = sum k~ ln k~; the query's
    float64 row is [y | 1], y_j = fl64(ln(sigma / (q_j + eps))). Both are
    taken as exact, so the distance is D = sum k~_j y_j + s, exactly. Let
    S = max |s| over the store and Lam = ln(2 / eps); ``mag`` = M = Lam + S.

    - Magnitudes: q is a distribution within 1e-6 and c eps < 0.005, so the
      float64 sigma = sum(q + eps) < 1.01. Every q_j + eps is at least eps
      and at most sigma (1 + G_c), so |y_j| < ln(1.02 / eps) < Lam, with
      0.6 to spare for the error of ln. The stored k~_j sum to at most
      1 + G_(c+1). So sum |k~_j y_j| + |s| <= M' = (1 + G_(c+1)) Lam + S.
    - Oracle: o = fl64(sum fl64(k~_j y_j) + s), in any order, errs by at
      most G_(c+1) M' from D.
    - Inputs of the scan: x = [fl32(k~) | fl32(s)] and a = [fl32(y) | 1].
      Each rounding errs by at most u of its value; only fl32(s) can also
      underflow, by at most eta, since every k~_j > eps / 2 and every
      nonzero |y_j| > 2^-54. So |x.a - D| <= (2u + u^2) M' + eta and
      sum |x_j a_j| <= (1 + u)^2 M' + eta.
    - Scan: a float32 dot product of c + 1 terms, in any order, with or
      without FMA, errs by at most g_(c+1) sum |x_j a_j| + (c + 1) eta
      (1 + g_(c+1)). So |t - D| <= E = g_(c+3) M' + (c + 2) 2^-147, and
      E + G_(c+1) M' <= g_(c+4) M + (c + 2) 2^-147 = F: the G terms lie far
      below the spare u M.

    Let T = ``kth``, the k-th smallest t. Those k keys have D <= T + E, so o
    <= T + F, and the k-th smallest oracle distance r is at most T + F. A
    key in the answer has o <= r, so D <= T + F + G_(c+1) M', and its t <=
    T + 2F.

    The bound below takes g_(c+5) in place of g_(c+4): the spare term absorbs
    the float64 roundings of M and of the bound's own arithmetic, each a few
    v of a magnitude below 3M. The candidates are compared with it in
    float32, so it is returned through ``_f32_ceiling``.
    """
    return _f32_ceiling(kth + 2.0 * (_gamma(dim + 5, _U32) * mag + (dim + 2) * 2.0**-147))


def _f32_ceiling(b: float) -> float:
    """b raised by |b| 2^-22 + 2^-149, more than half a float32 spacing at b.

    NumPy rounds a Python float to the nearest float32 before it compares it
    with a float32 array; that rounding never takes the result below b."""
    return b + abs(b) * 2.0**-22 + 2.0**-149


def neighbor_distribution(dist: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Each row's softmax over negative neighbor distances, mass summed per
    label: (B, k) distances and store labels in, (B, n_classes) out.

    The common factor exp(min distance) cancels under normalization, so each
    row is shifted by its minimum before exponentiation for numerical range;
    its nearest neighbor then weighs exp(0) = 1, so every row sums to at
    least 1. Labels lie in [0, n_classes), as ``RepresentationStore`` checks.
    """
    b = len(dist)
    weights = np.exp(-(dist - dist.min(axis=1, keepdims=True)))
    # one bincount adds each row's weights in neighbor order, as a loop would
    slots = (np.arange(b)[:, None] * n_classes + labels).ravel()
    out = np.bincount(slots, weights=weights.ravel(), minlength=b * n_classes)
    out = out.reshape(b, n_classes)
    return out / out.sum(axis=1, keepdims=True)


def combine_knn(p_text_sharp: np.ndarray, p_pro_sharp: np.ndarray) -> np.ndarray:
    """Elementwise mean of two (B, c) blocks of sharpened kNN distributions."""
    return (p_text_sharp + p_pro_sharp) / 2.0


def interpolate(p_knn: np.ndarray, p_model: np.ndarray, lam: float) -> np.ndarray:
    """lam * p_knn + (1 - lam) * p_model for (B, c) blocks; exact at both
    endpoints. ``InferenceConfig.validate`` checks lam."""
    return lam * p_knn + (1.0 - lam) * p_model


def predict(
    text: str,
    params: ModelParams,
    featurizer: Featurizer,
    text_store: RepresentationStore | None,
    pro_store: RepresentationStore | None,
    cfg: InferenceConfig,
    fingerprint: int | None = None,
) -> PredictionBreakdown:
    """Full inference pipeline for one text: the 1-row case of
    iter_predictions."""
    return next(iter_predictions([text], params, featurizer, text_store, pro_store, cfg,
                                 fingerprint))


def iter_predictions(
    texts: list[str],
    params: ModelParams,
    featurizer: Featurizer,
    text_store: RepresentationStore | None,
    pro_store: RepresentationStore | None,
    cfg: InferenceConfig,
    fingerprint: int | None = None,
) -> Iterator[PredictionBreakdown]:
    """Breakdowns of every text, in order, made one at a time.

    The config and stores are checked, and the texts featurized and run
    through forward_batch, before this returns. The texts are then searched
    in blocks of ``search_block_rows(N)`` rows of the text store: each
    enabled store gets one ``query`` call per block, made when the block's
    first breakdown is asked for, and the block goes from neighbors to
    predictions in whole-row operations. Each breakdown equals ``predict``
    of its text alone, bit for bit. A caller that drops each breakdown
    before asking for the next, as ``dknn predict`` does, holds at most one
    block's arrays, and no ``Neighbor`` is made unless a breakdown's
    neighbor fields are read.

    With one kNN module disabled the combined distribution is the remaining
    module's sharpened distribution alone (no averaging against zeros); with
    both disabled the final prediction is the model distribution unchanged.
    Stores must carry the fingerprint of these params (pass a precomputed
    fingerprint to skip rehashing in hot loops).
    """
    cfg.validate()
    if fingerprint is None and (cfg.use_text_knn or cfg.use_pro_knn):
        fingerprint = model_fingerprint(params)
    if cfg.use_text_knn:
        _require_store(text_store, StoreMetric.L2, params, fingerprint, "text")
    if cfg.use_pro_knn:
        _require_store(pro_store, StoreMetric.KL, params, fingerprint, "pro")
    h, p = forward_batch(featurizer.transform_rows(texts), params)
    return _predict_blocks(h, p, text_store, pro_store, cfg)


def _predict_blocks(
    h: np.ndarray,
    p: np.ndarray,
    text_store: RepresentationStore | None,
    pro_store: RepresentationStore | None,
    cfg: InferenceConfig,
) -> Iterator[PredictionBreakdown]:
    """Search each block of forward rows, combine it as whole rows, then
    yield its breakdowns."""
    step = search_block_rows(text_store.n if cfg.use_text_knn else 0)
    off = (None, repeat(None))  # a disabled module: no distribution, no neighbors
    for lo in range(0, len(p), step):
        p_model = p[lo:lo + step]
        p_text, text_found = (_knn_block(text_store, h[lo:lo + step], cfg.k)
                              if cfg.use_text_knn else off)
        p_pro, pro_found = _knn_block(pro_store, p_model, cfg.k) if cfg.use_pro_knn else off
        sharp = [block for block in (p_text, p_pro) if block is not None]
        # with one module on, the mean of its distribution with itself is
        # that distribution, bit for bit
        p_knn = combine_knn(sharp[0], sharp[-1]) if sharp else None
        p_final = p_model if p_knn is None else interpolate(p_knn, p_model, cfg.lam)
        for row in zip(*map(_rows, (p_model, p_text, p_pro, p_knn, p_final)),
                       np.argmax(p_final, axis=1).tolist(), text_found, pro_found):
            yield PredictionBreakdown(*row)


def _knn_block(store: RepresentationStore, q: np.ndarray, k: int) -> tuple[np.ndarray, Iterator]:
    """One store's search of a block: its sharpened neighbor distributions
    and, per row, the (indices, distances, labels) of its neighbors."""
    idx, dist = query(store, q, k)
    labels = store.labels[idx]
    return sharpen(neighbor_distribution(dist, labels, store.n_classes)), zip(idx, dist, labels)


def _rows(block: np.ndarray | None):
    """Each row of a block as an array of its own, so that a caller who keeps
    one distribution keeps nothing else of its block; None for every row of
    a disabled module's."""
    return repeat(None) if block is None else map(np.ndarray.copy, block)


def _require_store(
    store: RepresentationStore | None,
    metric: StoreMetric,
    params: ModelParams,
    fingerprint: int,
    name: str,
) -> None:
    if store is None:
        raise ValidationError(f"{name}-kNN is enabled but no {name} store was given")
    if store.metric != metric:
        raise ArtifactMismatchError(
            f"{name} store has metric {store.metric.name}, expected {metric.name}"
        )
    if store.n_classes != params.n_classes:
        raise ArtifactMismatchError(
            f"{name} store was built for {store.n_classes} classes, "
            f"model has {params.n_classes}"
        )
    if store.fingerprint != fingerprint:
        raise ArtifactMismatchError(
            f"{name} store fingerprint {store.fingerprint:#018x} does not match "
            f"the model checkpoint {fingerprint:#018x}"
        )


# ---------------------------------------------------------------------------
# persistence


def _layout(fields: tuple) -> list[tuple]:
    """N*dim f32 keys row-major, then N u32 labels."""
    _metric, dim, n, _c, _fingerprint = fields
    return [("<f4", (n, dim)), ("<u4", (n,))]


def store_bytes(store: RepresentationStore) -> bytes:
    fields = (STORE_MAGIC, STORE_VERSION, int(store.metric), store.dim, store.n,
              store.n_classes, store.fingerprint)
    return pack_blocks(_HEADER, fields, [("<f4", store.keys), ("<u4", store.labels)])


def save_store(store: RepresentationStore, path) -> None:
    write_atomic(path, store_bytes(store))


def load_store(path) -> RepresentationStore:
    fields, (keys, labels) = unpack_blocks(read_artifact(path, "store"), path, "store",
                                           _HEADER, STORE_MAGIC, STORE_VERSION, _layout)
    metric, _dim, _n, c, fingerprint = fields
    try:  # an unknown metric tag is a ValueError of StoreMetric
        return RepresentationStore(keys, labels, metric, c, fingerprint)
    except ValueError as exc:
        raise CorruptArtifactError(f"{path}: {exc}") from exc


def save_sidecar(featurizer: Featurizer, label_names: list[str], path) -> None:
    """Write ``featurizer.json``: the featurizer and the model's class names,
    in class order."""
    doc = {"featurizer": featurizer.to_dict(), "label_names": label_names}
    write_atomic(path, json.dumps(doc, indent=2) + "\n")


@dataclass
class Bundle:
    """A checkpoint and its artifacts; ``fingerprint`` is None if no store was loaded."""

    params: ModelParams
    featurizer: Featurizer
    label_names: list[str]
    fingerprint: int | None
    text_store: RepresentationStore | None
    pro_store: RepresentationStore | None


def load_bundle(checkpoint, featurizer_file=None, text_store=None, pro_store=None,
                cfg: InferenceConfig | None = None) -> Bundle:
    """A checkpoint, its ``featurizer.json`` and the stores ``cfg`` enables,
    each by default from the checkpoint's directory. Raises ValidationError
    for a missing file, CorruptArtifactError for a malformed one and
    ArtifactMismatchError for files that do not belong together; whether the
    stores were built by this checkpoint is checked by ``iter_predictions``.
    The fingerprint is taken from the checkpoint bytes as read."""
    directory = Path(checkpoint).parent
    weights = read_artifact(checkpoint, "checkpoint")
    params = params_from_bytes(weights, source=str(checkpoint))
    sidecar = featurizer_file or directory / "featurizer.json"
    blob = read_artifact(sidecar, "featurizer file")  # missing: not corrupt
    try:
        doc = json.loads(blob)
        featurizer = Featurizer.from_dict(doc["featurizer"])
        names = doc["label_names"]
        if (type(names) is not list or not all(type(name) is str for name in names)
                or len(set(names)) != len(names)):
            raise ValidationError("label_names must be a list of distinct strings")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptArtifactError(f"{sidecar}: invalid featurizer file: {exc}") from exc
    if featurizer.dim != params.feature_dim:
        raise ArtifactMismatchError(
            f"featurizer dim {featurizer.dim} != checkpoint feature dim {params.feature_dim}")
    if len(names) != params.n_classes:
        raise ArtifactMismatchError(
            f"featurizer file has {len(names)} label names for {params.n_classes} classes")
    use_text = cfg is not None and cfg.use_text_knn
    use_pro = cfg is not None and cfg.use_pro_knn
    return Bundle(
        params, featurizer, names, checkpoint_fingerprint(weights) if use_text or use_pro else None,
        load_store(text_store or directory / "store_text.dkns") if use_text else None,
        load_store(pro_store or directory / "store_pro.dkns") if use_pro else None,
    )
