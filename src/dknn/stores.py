"""Representation stores and the kNN-augmented prediction pipeline.

Two stores are built from the training set by one forward pass: text
embeddings under L2 distance and predicted distributions under KL
divergence (stored key first, query second). Inference retrieves top-k
neighbors from each store with an exact bounded-heap scan, turns them into
label distributions via softmax over negative distances, sharpens each,
averages the two, and interpolates with the model's own prediction.

Store file format "DKNS" v1 (little-endian, no padding):
magic 4s | u16 version | u8 metric (0=L2, 1=KL) | u32 dim | u32 N | u32 c |
u64 model fingerprint | N*dim f32 keys row-major | N u32 labels.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .exceptions import ArtifactMismatchError, CorruptArtifactError, ValidationError
from .features import Featurizer
from .mathcore import KL_EPS, is_distribution, sharpen
from .model import ModelParams, encode, classify, forward_batch, model_fingerprint

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
    """Every distribution on the way to the final call. Disabled kNN modules
    leave their fields None; with both disabled p_knn is None and
    p_final == p_model."""

    p_model: np.ndarray
    p_text_sharp: np.ndarray | None
    p_pro_sharp: np.ndarray | None
    p_knn: np.ndarray | None
    p_final: np.ndarray
    label: int


class RepresentationStore:
    """Immutable key/label memory extracted from the training set."""

    def __init__(
        self,
        keys: np.ndarray,
        labels: np.ndarray,
        metric: StoreMetric,
        n_classes: int,
        fingerprint: int,
    ) -> None:
        keys = np.ascontiguousarray(keys, dtype=np.float32)
        labels = np.ascontiguousarray(labels, dtype=np.uint32)
        if keys.ndim != 2 or keys.shape[0] != labels.shape[0]:
            raise ValidationError("keys must be (N, dim) with one label per row")
        if labels.size and int(labels.max()) >= n_classes:
            raise ValidationError(
                f"label {int(labels.max())} out of range for {n_classes} classes"
            )
        if StoreMetric(metric) == StoreMetric.KL and keys.shape[0]:
            sums = keys.astype(np.float64).sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-6:
                raise ValidationError("KL store keys must be probability rows")
        self.keys = keys
        self.labels = labels
        self.metric = StoreMetric(metric)
        self.n_classes = int(n_classes)
        self.fingerprint = int(fingerprint) & ((1 << 64) - 1)
        self._keys64: np.ndarray | None = None
        self._kl_cache: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def n(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]

    def keys_f64(self) -> np.ndarray:
        if self._keys64 is None:
            self._keys64 = self.keys.astype(np.float64)
        return self._keys64

    def _kl_terms(self) -> tuple[np.ndarray, np.ndarray]:
        # smoothed/renormalized keys and sum(k~ ln k~), cached
        if self._kl_cache is None:
            k = self.keys_f64() + KL_EPS
            k /= k.sum(axis=1, keepdims=True)
            self._kl_cache = (k, (k * np.log(k)).sum(axis=1))
        return self._kl_cache

    def distances(self, query: np.ndarray) -> np.ndarray:
        """f64 distance from every stored key to the query: Euclidean for an
        L2 store, key-first KL(key || query) for a KL store."""
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValidationError(
                f"query dim {q.shape} does not match store dim {self.dim}"
            )
        if self.metric == StoreMetric.L2:
            diff = self.keys_f64() - q
            return np.sqrt((diff * diff).sum(axis=1))
        if not is_distribution(q, tol=1e-6):
            raise ValidationError("KL-metric store requires a distribution query")
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
    x = featurizer.transform_many(train_set.texts)
    h, p = forward_batch(x, params)
    labels = np.asarray(train_set.labels, dtype=np.uint32)
    c = params.n_classes
    fp = model_fingerprint(params)
    s_text = RepresentationStore(h, labels, StoreMetric.L2, c, fp)
    s_pro = RepresentationStore(p, labels, StoreMetric.KL, c, fp)
    return s_text, s_pro


def query(store: RepresentationStore, q: np.ndarray, k: int) -> list[Neighbor]:
    """Exact top-k by ascending (distance, store index).

    Linear scan with a bounded max-heap of size k; returns min(k, N) items
    sorted ascending. Ties on distance resolve to the lower store index.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if store.n == 0:
        raise ValidationError("store is empty")
    dist = store.distances(q)
    limit = min(k, store.n)
    # max-heap via negation: heap[0] is the current worst of the kept set
    heap: list[tuple[float, int]] = []
    for idx in range(store.n):
        item = (-dist[idx], -idx)
        if len(heap) < limit:
            heapq.heappush(heap, item)
        elif item > heap[0]:
            heapq.heapreplace(heap, item)
    kept = sorted((-d, -i) for d, i in heap)
    return [
        Neighbor(index=int(i), distance=float(d), label=int(store.labels[i]))
        for d, i in kept
    ]


def neighbor_distribution(neighbors: list[Neighbor], n_classes: int) -> np.ndarray:
    """Softmax over negative neighbor distances, mass summed per label.

    The common factor exp(min distance) cancels under normalization, so
    distances are shifted by their minimum before exponentiation for
    numerical range.
    """
    if not neighbors:
        raise ValidationError("neighbor list is empty")
    dist = np.array([nb.distance for nb in neighbors], dtype=np.float64)
    weights = np.exp(-(dist - dist.min()))
    out = np.zeros(n_classes, dtype=np.float64)
    for nb, w in zip(neighbors, weights):
        out[nb.label] += w
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
    """Full inference pipeline for one text.

    With one kNN module disabled the combined distribution is the remaining
    module's sharpened distribution alone (no averaging against zeros); with
    both disabled the final prediction is the model distribution unchanged.
    Stores must carry the fingerprint of these params (pass a precomputed
    fingerprint to skip rehashing in hot loops).
    """
    cfg.validate()
    if fingerprint is None and (cfg.use_text_knn or cfg.use_pro_knn):
        fingerprint = model_fingerprint(params)

    x = featurizer.transform(text)
    h = encode(x, params)
    p_model = classify(h, params)

    p_text_sharp = None
    p_pro_sharp = None
    if cfg.use_text_knn:
        _require_store(text_store, StoreMetric.L2, params, fingerprint, "text")
        nbs = query(text_store, h, cfg.k)
        p_text_sharp = sharpen(neighbor_distribution(nbs, params.n_classes))
    if cfg.use_pro_knn:
        _require_store(pro_store, StoreMetric.KL, params, fingerprint, "pro")
        nbs = query(pro_store, p_model, cfg.k)
        p_pro_sharp = sharpen(neighbor_distribution(nbs, params.n_classes))

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
    with open(path, "wb") as fh:
        fh.write(store_bytes(store))


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
