"""Representation stores and the kNN-augmented prediction pipeline.

Two stores are built from the training set by one forward pass: text
embeddings under L2 distance and predicted distributions under KL
divergence (stored key first, query second). Inference retrieves the exact
top-k neighbors from each store: candidates from one matrix-vector product
over all keys, then an exact rerank of the candidates with the distance
kernel of ``RepresentationStore.distances``. It turns them into label
distributions via softmax over negative distances, sharpens each, averages
the two, and interpolates with the model's own prediction.

Store file format "DKNS" v1 (little-endian, no padding):
magic 4s | u16 version | u8 metric (0=L2, 1=KL) | u32 dim | u32 N | u32 c |
u64 model fingerprint | N*dim f32 keys row-major | N u32 labels.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .artifacts import pack_blocks, read_artifact, unpack_blocks, write_atomic
from .exceptions import ArtifactMismatchError, CorruptArtifactError, ValidationError
from .features import Featurizer
from .mathcore import KL_EPS, is_distribution, sharpen
from .model import ModelParams, forward_batch, load_checkpoint, model_fingerprint

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
    """Every distribution on the way to the final call, and the neighbor
    lists each store returned. Disabled kNN modules leave their fields None;
    with both disabled p_knn is None and p_final == p_model."""

    p_model: np.ndarray
    p_text_sharp: np.ndarray | None
    p_pro_sharp: np.ndarray | None
    p_knn: np.ndarray | None
    p_final: np.ndarray
    label: int
    text_neighbors: list[Neighbor] | None = None
    pro_neighbors: list[Neighbor] | None = None


def _l2_rows(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of keys to the float64 query q: the
    L2 oracle kernel. Float32 keys are widened exactly by the subtraction.
    Each row reduces on its own, so a subset of rows gets the same bits."""
    diff = keys - q
    return np.sqrt((diff * diff).sum(axis=1))


# Above this, 2 max ||k||^2 + ||q||^2 may not fit the float32 scan's range,
# so an L2 query ranks every key instead.
_F32_SAFE = 2.0**120


class RepresentationStore:
    """Immutable key/label memory extracted from the training set.

    Keys are held once, as float32, the precision of the store file. An L2
    store holds them as the first ``dim`` columns of one (N, dim + 1)
    float32 matrix whose last column is each key's squared norm, taken in
    float64 and rounded to float32; ``keys`` is a view of it."""

    def __init__(
        self,
        keys: np.ndarray,
        labels: np.ndarray,
        metric: StoreMetric,
        n_classes: int,
        fingerprint: int,
    ) -> None:
        keys = np.array(keys, dtype=np.float32, order="C")
        labels = np.ascontiguousarray(labels, dtype=np.uint32)
        metric = StoreMetric(metric)
        if keys.ndim != 2 or keys.shape[0] != labels.shape[0]:
            raise ValidationError("keys must be (N, dim) with one label per row")
        if not np.isfinite(keys).all():
            raise ValidationError("store keys must be finite")
        if labels.size and int(labels.max()) >= n_classes:
            raise ValidationError(
                f"label {int(labels.max())} out of range for {n_classes} classes"
            )
        if metric == StoreMetric.KL and keys.shape[0]:
            sums = keys.sum(axis=1, dtype=np.float64)
            if keys.min() < 0.0 or np.abs(sums - 1.0).max() > 1e-6:
                raise ValidationError("KL store keys must be probability rows")
        self._l2_scan: np.ndarray | None = None
        self._sq_max = 0.0
        if metric == StoreMetric.L2:
            wide = keys.astype(np.float64)
            sq = np.einsum("ij,ij->i", wide, wide)
            self._sq_max = float(sq.max(initial=0.0))
            scan = np.empty((keys.shape[0], keys.shape[1] + 1), dtype=np.float32)
            scan[:, :-1] = keys
            # clipped norms belong to stores that _l2_candidates never scans
            scan[:, -1] = np.minimum(sq, _F32_SAFE)
            self._l2_scan = scan
            keys = scan[:, :-1]
        self.keys = keys
        self.labels = labels
        self.metric = metric
        self.n_classes = int(n_classes)
        self.fingerprint = int(fingerprint) & ((1 << 64) - 1)
        self._kl_cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    def _kl_terms(self) -> tuple[np.ndarray, np.ndarray]:
        # smoothed/renormalized keys, widened to float64, and sum(k~ ln k~), cached
        if self._kl_cache is None:
            k = self.keys.astype(np.float64)
            k += KL_EPS
            k /= k.sum(axis=1, keepdims=True)
            self._kl_cache = (k, (k * np.log(k)).sum(axis=1))
        return self._kl_cache

    def _checked_query(self, query: np.ndarray) -> np.ndarray:
        """The query as f64, after the dim check and, for a KL store, the
        distribution check."""
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValidationError(
                f"query dim {q.shape} does not match store dim {self.dim}"
            )
        if self.metric == StoreMetric.KL and not is_distribution(q, tol=1e-6):
            raise ValidationError("KL-metric store requires a distribution query")
        return q

    def distances(self, query: np.ndarray) -> np.ndarray:
        """f64 distance from every stored key to the query: Euclidean for an
        L2 store, key-first KL(key || query) for a KL store."""
        q = self._checked_query(query)
        if self.metric == StoreMetric.L2:
            return _l2_rows(self.keys, q)
        keys_n, self_term = self._kl_terms()
        qn = q + KL_EPS
        qn = qn / qn.sum()
        return self_term - keys_n @ np.log(qn)


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


def query(store: RepresentationStore, q: np.ndarray, k: int) -> list[Neighbor]:
    """Exact top-k by ascending (distance, store index).

    Returns min(k, N) neighbors with the distances of
    ``store.distances(q)``, bit for bit; ties on distance resolve to the
    lower store index. A KL store ranks its full distance vector, one GEMV.
    An L2 store takes candidates from one float32 GEMV, widened by a
    floating-point error bound, and reranks them with the L2 kernel.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if store.n == 0:
        raise ValidationError("store is empty")
    limit = min(k, store.n)
    if store.metric == StoreMetric.KL:
        dist = store.distances(q)
        idx = _at_most(dist, _kth_smallest(dist, limit))
        dist = dist[idx]
    else:
        qv = store._checked_query(q)
        idx = _l2_candidates(store, qv, limit)
        dist = _l2_rows(store.keys[idx], qv)
    order = np.lexsort((idx, dist))[:limit]
    idx = idx[order]
    # positional arguments: keywords double the cost of each Neighbor
    return [
        Neighbor(i, d, y)
        for i, d, y in zip(idx.tolist(), dist[order].tolist(),
                           store.labels[idx].tolist())
    ]


def _kth_smallest(values: np.ndarray, k: int) -> float:
    """The k-th smallest value; +inf when k covers every value."""
    if k >= values.size:
        return np.inf
    return float(np.partition(values, k - 1)[k - 1])


def _at_most(values: np.ndarray, bound: float) -> np.ndarray:
    """Indices of the values <= bound, ascending; every index when the bound
    is not finite (k covers the store), so the rerank then orders the whole
    store as the full-sort oracle does."""
    if not math.isfinite(bound):
        return np.arange(values.size)
    return np.flatnonzero(values <= bound)


def _l2_candidates(store: RepresentationStore, q: np.ndarray, k: int) -> np.ndarray:
    """Indices, ascending, of a superset of the exact top k of an L2 store.

    One float32 GEMV of the scan matrix ``[k | ||k||^2]`` against
    ``[-2q | 1]`` gives t ~ ||k||^2 - 2 k.q for every key; the candidates are
    the keys with t within ``_l2_bound`` of the k-th smallest t. A query
    too large for float32 (or not finite) makes every key a candidate."""
    qq = float(q @ q)
    norms = 2.0 * store._sq_max + qq
    if not norms < _F32_SAFE:
        return np.arange(store.n)
    qa = np.empty(store.dim + 1, dtype=np.float32)
    qa[:-1] = -2.0 * q
    qa[-1] = 1.0
    t = store._l2_scan @ qa
    return _at_most(t, _l2_bound(_kth_smallest(t, k), qq, norms, store.dim))


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
    below 2^120, so nothing in the scan overflows float32. The scan computes
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


def _f32_ceiling(b: float) -> float:
    """b raised by |b| 2^-22 + 2^-149, more than half a float32 spacing at b.

    NumPy rounds a Python float to the nearest float32 before it compares it
    with a float32 array; that rounding never takes the result below b."""
    return b + abs(b) * 2.0**-22 + 2.0**-149


def neighbor_distribution(neighbors: list[Neighbor], n_classes: int) -> np.ndarray:
    """Softmax over negative neighbor distances, mass summed per label.

    The common factor exp(min distance) cancels under normalization, so
    distances are shifted by their minimum before exponentiation for
    numerical range.
    """
    if not neighbors:
        raise ValidationError("neighbor list is empty")
    dist = np.array([nb.distance for nb in neighbors], dtype=np.float64)
    labels = np.array([nb.label for nb in neighbors], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValidationError(f"neighbor label out of range for {n_classes} classes")
    weights = np.exp(-(dist - dist.min()))
    # bincount adds the weights in list order, as a per-neighbor loop would
    out = np.bincount(labels, weights=weights, minlength=n_classes)
    return out / out.sum()


def combine_knn(p_text_sharp: np.ndarray, p_pro_sharp: np.ndarray) -> np.ndarray:
    """Elementwise mean of the two sharpened kNN distributions."""
    a = np.asarray(p_text_sharp, dtype=np.float64)
    b = np.asarray(p_pro_sharp, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError("kNN distributions must have equal length")
    return (a + b) / 2.0


def interpolate(p_knn: np.ndarray, p_model: np.ndarray, lam: float) -> np.ndarray:
    """lam * p_knn + (1 - lam) * p_model; exact at both endpoints."""
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda must be in [0, 1], got {lam}")
    a = np.asarray(p_knn, dtype=np.float64)
    b = np.asarray(p_model, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError("distributions must have equal length")
    return lam * a + (1.0 - lam) * b


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
    through forward_batch, before this returns; each text is then searched
    when its breakdown is asked for. Each breakdown equals ``predict`` of
    its text alone, bit for bit. A caller that drops each breakdown before
    asking for the next, as ``dknn predict`` does, holds one at a time: a
    long ``--file`` then piles up no neighbor lists for the garbage
    collector to promote and rescan.

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
    return (_predict_row(h_i, p_i, text_store, pro_store, cfg) for h_i, p_i in zip(h, p))


def _predict_row(
    h: np.ndarray,
    p_model: np.ndarray,
    text_store: RepresentationStore | None,
    pro_store: RepresentationStore | None,
    cfg: InferenceConfig,
) -> PredictionBreakdown:
    """Search, combine and interpolate for one row of the forward."""
    c = len(p_model)
    p_text_sharp = p_pro_sharp = None
    text_neighbors = pro_neighbors = None
    if cfg.use_text_knn:
        text_neighbors = query(text_store, h, cfg.k)
        p_text_sharp = sharpen(neighbor_distribution(text_neighbors, c))
    if cfg.use_pro_knn:
        pro_neighbors = query(pro_store, p_model, cfg.k)
        p_pro_sharp = sharpen(neighbor_distribution(pro_neighbors, c))

    if p_text_sharp is not None and p_pro_sharp is not None:
        p_knn = combine_knn(p_text_sharp, p_pro_sharp)
    elif p_text_sharp is not None:
        p_knn = p_text_sharp
    elif p_pro_sharp is not None:
        p_knn = p_pro_sharp
    else:
        p_knn = None

    if p_knn is None:
        p_final = p_model.copy()
    else:
        p_final = interpolate(p_knn, p_model, cfg.lam)
    return PredictionBreakdown(
        p_model=p_model,
        p_text_sharp=p_text_sharp,
        p_pro_sharp=p_pro_sharp,
        p_knn=p_knn,
        p_final=p_final,
        label=int(np.argmax(p_final)),
        text_neighbors=text_neighbors,
        pro_neighbors=pro_neighbors,
    )


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
    stores were built by this checkpoint is checked by ``iter_predictions``."""
    directory = Path(checkpoint).parent
    params = load_checkpoint(checkpoint)
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
        params, featurizer, names, model_fingerprint(params) if use_text or use_pro else None,
        load_store(text_store or directory / "store_text.dkns") if use_text else None,
        load_store(pro_store or directory / "store_pro.dkns") if use_pro else None,
    )
