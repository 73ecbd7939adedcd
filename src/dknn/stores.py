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

import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .artifacts import write_atomic
from .exceptions import ArtifactMismatchError, CorruptArtifactError, ValidationError
from .features import Featurizer
from .mathcore import KL_EPS, is_distribution, sharpen
from .model import ModelParams, forward_batch, model_fingerprint

STORE_MAGIC = b"DKNS"
STORE_VERSION = 1

_HEADER = struct.Struct("<4sHBIIIQ")


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
    """Euclidean distance from each row of keys to q: the L2 oracle kernel.
    Each row reduces on its own, so a subset of rows gets the same bits."""
    diff = keys - q
    return np.sqrt((diff * diff).sum(axis=1))


class RepresentationStore:
    """Immutable key/label memory extracted from the training set.

    Keys are rounded to float32, the precision of the store file, and held
    once, widened to float64 for the search kernels."""

    def __init__(
        self,
        keys: np.ndarray,
        labels: np.ndarray,
        metric: StoreMetric,
        n_classes: int,
        fingerprint: int,
    ) -> None:
        keys = np.asarray(keys, dtype=np.float32).astype(np.float64, order="C")
        labels = np.ascontiguousarray(labels, dtype=np.uint32)
        if keys.ndim != 2 or keys.shape[0] != labels.shape[0]:
            raise ValidationError("keys must be (N, dim) with one label per row")
        if not np.isfinite(keys).all():
            raise ValidationError("store keys must be finite")
        if labels.size and int(labels.max()) >= n_classes:
            raise ValidationError(
                f"label {int(labels.max())} out of range for {n_classes} classes"
            )
        if StoreMetric(metric) == StoreMetric.KL and keys.shape[0]:
            sums = keys.sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-6:
                raise ValidationError("KL store keys must be probability rows")
        self.keys = keys
        self.labels = labels
        self.metric = StoreMetric(metric)
        self.n_classes = int(n_classes)
        self.fingerprint = int(fingerprint) & ((1 << 64) - 1)
        self._l2_cache: tuple[np.ndarray, float] | None = None
        self._kl_cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    def _l2_terms(self) -> tuple[np.ndarray, float]:
        # squared key norms and their maximum, cached
        if self._l2_cache is None:
            sq = np.einsum("ij,ij->i", self.keys, self.keys)
            self._l2_cache = (sq, float(sq.max(initial=0.0)))
        return self._l2_cache

    def _kl_terms(self) -> tuple[np.ndarray, np.ndarray]:
        # smoothed/renormalized keys and sum(k~ ln k~), cached
        if self._kl_cache is None:
            k = self.keys + KL_EPS
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
    An L2 store takes candidates from the expanded squared distance, widened
    by a floating-point error bound, and reranks them with the L2 kernel.
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
        sq, sq_max = store._l2_terms()
        qq = qv @ qv
        approx = sq - 2.0 * (store.keys @ qv) + qq
        bound = _l2_bound(_kth_smallest(approx, limit), sq_max + qq, store.dim)
        idx = _at_most(approx, bound)
        dist = _l2_rows(store.keys[idx], qv)
    order = np.lexsort((idx, dist))[:limit]
    idx = idx[order]
    return [
        Neighbor(index=i, distance=d, label=y)
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
    is not finite (k covers the store, or a NaN or overflow upstream), so
    the rerank then orders the whole store as the full-sort oracle does."""
    if not np.isfinite(bound):
        return np.arange(values.size)
    return np.flatnonzero(values <= bound)


_U = np.finfo(np.float64).eps / 2.0  # unit roundoff of float64


def _gamma(n: int) -> float:
    return n * _U / (1.0 - n * _U)


def _l2_bound(kth: float, norms: float, dim: int) -> float:
    """Largest expanded squared distance a true top-k key can have.

    Write D = ||k - q||^2 exactly, s = fl(||k||^2 - 2 k.q + ||q||^2) as the
    candidate step computes it, o = fl(sum(fl(k - q)^2)) as the oracle does
    before its sqrt, u the unit roundoff, g_n = n u / (1 - n u), d = dim and
    S = max ||k||^2 + ||q||^2 >= ||k||^2 + ||q||^2 for every key.

    - Each dot product (two norms and the GEMV, any order, with or without
      FMA) errs by at most g_d * sum|a_j b_j|, and 2 sum|k_j q_j| <=
      2 ||k|| ||q|| <= S, so the three terms err by 2 g_d S together. The two additions err by u times a
      magnitude of at most 2S and 3S. So |s - D| <= g_(2d+6) S.
    - The oracle's d nonnegative terms carry 3 roundings each and a sum of
      d of them, so |o - D| <= g_(d+2) D <= g_(2d+4) S, using D <= 2S.

    B = g_(4d+10) S bounds both errors together. The k smallest s are at
    most kth, so k keys have o <= kth + B, and so the k-th smallest oracle
    distance r is at most fl(sqrt(kth + B)). A key in the answer has
    fl(sqrt(o)) <= r, so o <= (kth + B)(1 + u)^2 / (1 - u)^2
    <= (kth + B)(1 + g_5), and s <= o + B. kth + B >= 0, since every
    s >= D - B >= -B. The bound below uses g_8 and g_(4d+16) in place of
    g_5 and g_(4d+10): the spare terms absorb the roundings of S and of
    the bound's own arithmetic, which are second order in u.
    """
    slack = _gamma(4 * dim + 16) * norms
    return (kth + slack) * (1.0 + _gamma(8)) + slack


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
    """Full inference pipeline for one text: the 1-row case of predict_many."""
    return predict_many([text], params, featurizer, text_store, pro_store, cfg,
                        fingerprint)[0]


def predict_many(
    texts: list[str],
    params: ModelParams,
    featurizer: Featurizer,
    text_store: RepresentationStore | None,
    pro_store: RepresentationStore | None,
    cfg: InferenceConfig,
    fingerprint: int | None = None,
) -> list[PredictionBreakdown]:
    """Full inference pipeline for every text, in order: the list of
    iter_predictions."""
    return list(iter_predictions(texts, params, featurizer, text_store, pro_store, cfg,
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
        raise ValidationError(f"{name} store has metric {store.metric!r}")
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


def store_bytes(store: RepresentationStore) -> bytes:
    header = _HEADER.pack(
        STORE_MAGIC,
        STORE_VERSION,
        int(store.metric),
        store.dim,
        store.n,
        store.n_classes,
        store.fingerprint,
    )
    return header + store.keys.astype("<f4").tobytes() + store.labels.astype(
        "<u4"
    ).tobytes()


def save_store(store: RepresentationStore, path) -> None:
    write_atomic(path, store_bytes(store))


def load_store(path) -> RepresentationStore:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise CorruptArtifactError(f"{path}: truncated store header")
    magic, version, metric, dim, n, c, fingerprint = _HEADER.unpack_from(blob)
    if magic != STORE_MAGIC:
        raise CorruptArtifactError(f"{path}: bad magic {magic!r}")
    if version != STORE_VERSION:
        raise CorruptArtifactError(f"{path}: unsupported version {version}")
    if metric not in (0, 1):
        raise CorruptArtifactError(f"{path}: unknown metric tag {metric}")
    expected = _HEADER.size + 4 * n * dim + 4 * n
    if len(blob) != expected:
        raise CorruptArtifactError(f"{path}: size {len(blob)} != expected {expected}")
    offset = _HEADER.size
    keys = np.frombuffer(blob, dtype="<f4", count=n * dim, offset=offset).reshape(n, dim)
    offset += 4 * n * dim
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=offset)
    try:
        return RepresentationStore(keys, labels, StoreMetric(metric), c, fingerprint)
    except ValidationError as exc:
        raise CorruptArtifactError(f"{path}: {exc}") from exc
