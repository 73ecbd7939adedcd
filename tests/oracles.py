"""Single-example reference implementations used as test oracles.

The package computes everything through batched code paths (see
``dknn.model.batch_loss_and_gradients`` and ``dknn.stores``). These
functions restate the paper's equations one example at a time, and the kNN
search as a plain scan, so tests can check the batched results against an
independent, obviously-correct form. ``reference_loss_and_gradients`` keeps
the batched training step in its first, plainest form, and
``dense_loss_and_gradients`` keeps it over a dense (B, F) batch, as it ran
before it went over the batch's live columns. ``total_loss`` and
``gradients`` run the package's batched step on one dense example, so the
finite-difference and golden-loss checks test the code that trains.
``row_breakdown`` keeps the inference tail one row and one ``Neighbor``
list at a time, as it ran before it combined whole blocks. ``mix64`` and
``reference_stream`` restate the random stream one draw at a time in
Python integers, the form ``dknn.rng`` computes vectorized.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

from dknn.exceptions import ValidationError
from dknn.features import Featurizer, fnv1a64, tokenize
from dknn.mathcore import CE_EPS, KL_EPS, softmax_rows
from dknn.model import (
    LLConfig,
    LossBreakdown,
    ModelParams,
    _mirror,
    batch_loss_and_gradients,
)
from dknn.rng import Rng
from dknn.stores import InferenceConfig, Neighbor, PredictionBreakdown, RepresentationStore


def _as_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# features and optimizer, restated densely


def dense_transform(featurizer: Featurizer, text: str) -> np.ndarray:
    """Feature vector for one text, built token by token in a dense row:
    count, scale by idf (tf-idf), then divide by the L2 norm when nonzero.

    The norm is the square root of a fixed sum: the squares of the row's
    nonzero values, added one at a time from 0.0 in ascending column order.
    A BLAS dot product, or numpy's pairwise sum, may group the same squares
    otherwise and differ in the last bit."""
    tokens = tokenize(text, featurizer.config.lowercase)
    vec = np.zeros(featurizer.dim, dtype=np.float64)
    if featurizer.config.mode == "hashing":
        dim = featurizer.config.dim
        for tok in tokens:
            vec[fnv1a64(tok) % dim] += 1.0
    else:
        vocab = featurizer.vocabulary
        for tok in tokens:
            idx = vocab.get(tok)
            if idx is not None:
                vec[idx] += 1.0
        vec *= featurizer.idf
    sq = 0.0
    for v in vec[vec != 0.0].tolist():
        sq += v * v
    norm = math.sqrt(sq)
    if norm > 0.0:
        vec /= norm
    return vec


def dense_forward(x: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(H, P) for a dense batch of feature rows, as two GEMMs: the inference
    forward before it went over CSR rows. Its bits depend on the batch."""
    h = np.tanh(x @ params.w1 + params.b1)
    return h, softmax_rows(h @ params.w2 + params.b2)


def dense_adam_step(params: dict, grads: dict, m: dict, v: dict, step: int,
                    lr: float, b1: float, b2: float, eps: float) -> None:
    """Bias-corrected Adam over every entry of every tensor, in place; step
    is the 1-based index of this update."""
    bc1 = 1.0 - b1**step
    bc2 = 1.0 - b2**step
    for name, tensor in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * (g * g)
        tensor -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


# ---------------------------------------------------------------------------
# label-distribution-learning terms for one example


def softmax(v) -> np.ndarray:
    """Numerically stable softmax of one vector (max-subtraction)."""
    arr = _as_vector(v)
    e = np.exp(arr - arr.max())
    return e / e.sum()


def label_attention(h: np.ndarray, label_emb: np.ndarray) -> np.ndarray:
    """Compatibility of h with every label embedding: softmax(h . l_i)."""
    h = np.asarray(h, dtype=np.float64)
    label_emb = np.asarray(label_emb, dtype=np.float64)
    if label_emb.ndim != 2 or h.shape != (label_emb.shape[1],):
        raise ValueError("label_emb must be (c, d) with d matching h")
    return softmax(h @ label_emb.T)


def scaled_label_matrix(alpha: np.ndarray, label_emb: np.ndarray) -> np.ndarray:
    """Row i of the result is alpha_i * l_i."""
    alpha = np.asarray(alpha, dtype=np.float64)
    label_emb = np.asarray(label_emb, dtype=np.float64)
    if alpha.shape != (label_emb.shape[0],):
        raise ValueError("alpha length must equal the number of label rows")
    return alpha[:, None] * label_emb


def label_similarity(lprime: np.ndarray) -> np.ndarray:
    """Gram matrix of the scaled label rows, mirrored to exact symmetry."""
    lp = np.asarray(lprime, dtype=np.float64)
    if lp.ndim != 2:
        raise ValueError("lprime must be a 2-D matrix")
    return _mirror(lp @ lp.T)


def contrastive_loss(m: np.ndarray, rho: float) -> float:
    """Mean hinge over ordered label pairs i != j: max(0, rho - M_ii + M_ij).

    Defined as 0 for a single-class problem (no pairs to contrast).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("m must be square")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    c = m.shape[0]
    if c < 2:
        return 0.0
    diag = np.diag(m)
    hinge = rho - diag[:, None] + m
    off = ~np.eye(c, dtype=bool)
    return float(np.sum(np.maximum(hinge, 0.0)[off]) / (c * (c - 1)))


def contrastive_grad_m(m: np.ndarray, rho: float) -> np.ndarray:
    """Subgradient of contrastive_loss w.r.t. every entry of M.

    Off-diagonal (i,j): 1/(c(c-1)) when the (i,j) hinge is active, else 0.
    Diagonal (i,i): -(active count in row i)/(c(c-1)).
    """
    m = np.asarray(m, dtype=np.float64)
    c = m.shape[0]
    if c < 2:
        return np.zeros_like(m)
    kappa = 1.0 / (c * (c - 1))
    diag = np.diag(m)
    active = ((rho - diag[:, None] + m) > 0.0) & ~np.eye(c, dtype=bool)
    grad = active * kappa
    grad[np.arange(c), np.arange(c)] = -kappa * active.sum(axis=1)
    return grad


def soft_target(m: np.ndarray, y: int) -> np.ndarray:
    """Soft label distribution q = softmax(row y of M)."""
    m = np.asarray(m, dtype=np.float64)
    y = int(y)
    if not 0 <= y < m.shape[0]:
        raise ValueError(f"class index {y} out of range")
    return softmax(m[y])


# ---------------------------------------------------------------------------
# the batched training step, as first written


def reference_loss_and_gradients(
    x: np.ndarray,
    y: np.ndarray,
    params: ModelParams,
    cfg: LLConfig,
) -> tuple[LossBreakdown, ModelParams]:
    """The batched loss and gradients in their first form: every (B, c, c)
    term built by broadcasting, masked with ``np.where`` and contracted with
    ``einsum``. ``dknn.model.batch_loss_and_gradients`` must match it to
    1e-12, and bit for bit without the label-distribution losses.
    """
    cfg.validate()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != params.feature_dim:
        raise ValueError("x must be (B, feature_dim)")
    if y.shape != (x.shape[0],):
        raise ValueError("y must have one label per row of x")
    c = params.n_classes
    if np.any((y < 0) | (y >= c)):
        raise ValueError("label out of range")

    batch = x.shape[0]
    rows = np.arange(batch)
    lbl = params.label_emb

    z1 = x @ params.w1 + params.b1
    h = np.tanh(z1)
    p = softmax_rows(h @ params.w2 + params.b2)
    py = p[rows, y]
    ce_vec = -np.log(np.maximum(py, CE_EPS))
    ce = float(ce_vec.mean())

    kl_on = cfg.enable_kl and c >= 1
    cl_on = cfg.enable_cl and c >= 2
    ll_on = kl_on or cl_on

    alpha = gram = m_all = None
    if ll_on:
        alpha = softmax_rows(h @ lbl.T)
        gram = _mirror(lbl @ lbl.T)
        m_all = alpha[:, :, None] * alpha[:, None, :] * gram

    kl = 0.0
    q = qn = pn = sq = sp = kl_vec = None
    if kl_on:
        mrow = m_all[rows, y, :]
        q = softmax_rows(mrow)
        qs = q + KL_EPS
        sq = qs.sum(axis=1, keepdims=True)
        qn = qs / sq
        ps = p + KL_EPS
        sp = ps.sum(axis=1, keepdims=True)
        pn = ps / sp
        kl_vec = (qn * (np.log(qn) - np.log(pn))).sum(axis=1)
        kl = float(kl_vec.mean())

    cl = 0.0
    active = None
    kappa = 0.0
    active_fraction = 0.0
    if cl_on:
        kappa = 1.0 / (c * (c - 1))
        diag = m_all[:, np.arange(c), np.arange(c)]
        hinge = cfg.rho - diag[:, :, None] + m_all
        off = ~np.eye(c, dtype=bool)
        active = (hinge > 0.0) & off
        cl_vec = np.where(active, hinge, 0.0).sum(axis=(1, 2)) * kappa
        cl = float(cl_vec.mean())
        active_fraction = float(active.sum()) * kappa / batch

    breakdown = LossBreakdown(
        ce=ce, kl=kl, cl=cl, total=ce + kl + cl, active_hinge_fraction=active_fraction
    )

    # ----- backward -----
    onehot = np.zeros((batch, c))
    onehot[rows, y] = 1.0
    ce_scale = 1.0 / batch
    ce_live = (py >= CE_EPS)[:, None]  # clamped rows contribute no CE gradient
    dz2 = np.where(ce_live, (p - onehot) * ce_scale, 0.0)

    dmrow = None
    if kl_on:
        kl_scale = 1.0 / batch
        g_p = (1.0 - qn / pn) / sp * kl_scale
        dz2 += p * (g_p - (g_p * p).sum(axis=1, keepdims=True))
        g_q = (np.log(qn) - np.log(pn) - kl_vec[:, None]) / sq * kl_scale
        dmrow = q * (g_q - (g_q * q).sum(axis=1, keepdims=True))

    d_label = np.zeros_like(lbl)
    dh_att = 0.0
    if ll_on:
        dm = np.zeros((batch, c, c))
        if cl_on:
            cl_scale = kappa / batch
            dm += active * cl_scale
            dm[:, np.arange(c), np.arange(c)] -= cl_scale * active.sum(axis=2)
        if kl_on:
            dm[rows, y, :] += dmrow
        sym = dm + dm.transpose(0, 2, 1)
        dalpha = np.einsum("bij,ij,bj->bi", sym, gram, alpha)
        weights = alpha[:, :, None] * sym * alpha[:, None, :]
        d_label += np.einsum("bij,jd->id", weights, lbl)
        dt = alpha * (dalpha - (dalpha * alpha).sum(axis=1, keepdims=True))
        dh_att = dt @ lbl
        d_label += dt.T @ h

    dh = dz2 @ params.w2.T + dh_att
    dz1 = dh * (1.0 - h * h)
    # Only columns present in the batch get a w1 gradient; the rest stay
    # exactly 0. Each row reduces over the batch, so its bits equal x.T @ dz1.
    cols = np.flatnonzero(x.any(axis=0))
    d_w1 = np.zeros_like(params.w1)
    d_w1[cols] = x[:, cols].T @ dz1
    grads = ModelParams(
        w1=d_w1,
        b1=dz1.sum(axis=0),
        w2=h.T @ dz2,
        b2=dz2.sum(axis=0),
        label_emb=d_label,
    )
    return breakdown, grads


def csr_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR ``(row_ptr, cols, vals)`` of a dense batch: each row's nonzero
    entries in ascending column order, as ``Featurizer.transform_rows``
    returns them."""
    x = np.asarray(x, dtype=np.float64)
    row_idx, cols = np.nonzero(x)
    row_ptr = np.zeros(len(x) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_idx, minlength=len(x)), out=row_ptr[1:])
    return row_ptr, cols, x[row_idx, cols]


def densify(rows: tuple[np.ndarray, np.ndarray, np.ndarray], dim: int) -> np.ndarray:
    """Dense float64 (B, dim) block of CSR rows whose row_ptr starts at 0."""
    row_ptr, cols, vals = rows
    out = np.zeros((len(row_ptr) - 1, dim), dtype=np.float64)
    out[np.repeat(np.arange(len(out)), np.diff(row_ptr)), cols] = vals
    return out


def _one_example(x: np.ndarray, y: int, params: ModelParams, cfg: LLConfig):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.feature_dim,):
        raise ValueError(f"expected feature vector of length {params.feature_dim}")
    return batch_loss_and_gradients(csr_rows(x[None, :]), np.array([int(y)]), params, cfg)


def total_loss(x: np.ndarray, y: int, params: ModelParams, cfg: LLConfig) -> LossBreakdown:
    """Loss components of one dense feature vector: the 1-row case of
    ``dknn.model.batch_loss_and_gradients``."""
    return _one_example(x, y, params, cfg)[0]


def gradients(x: np.ndarray, y: int, params: ModelParams, cfg: LLConfig) -> ModelParams:
    """Analytic gradients of ``total_loss`` for one dense feature vector."""
    return _one_example(x, y, params, cfg)[1]


def dense_loss_and_gradients(
    x: np.ndarray,
    y: np.ndarray,
    params: ModelParams,
    cfg: LLConfig,
) -> tuple[LossBreakdown, ModelParams]:
    """The training step over a dense (B, F) batch, as it stood before it went
    over the batch's live columns: z1 = x @ W1 + b1 over all F columns, and
    dW1 as a whole (F, d) tensor, +0.0 outside the columns the batch uses.
    ``dknn.model.batch_loss_and_gradients`` must match it to 1e-12, and bit
    for bit where the full GEMM sums its F terms as the (B, L) block does.
    """
    cfg.validate()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != params.feature_dim:
        raise ValueError("x must be (B, feature_dim)")
    if y.shape != (x.shape[0],):
        raise ValueError("y must have one label per row of x")
    c = params.n_classes
    if np.any((y < 0) | (y >= c)):
        raise ValueError("label out of range")

    batch = x.shape[0]
    rows = np.arange(batch)
    lbl = params.label_emb

    z1 = x @ params.w1 + params.b1
    h = np.tanh(z1)
    p = softmax_rows(h @ params.w2 + params.b2)
    py = p[rows, y]
    ce_vec = -np.log(np.maximum(py, CE_EPS))
    ce = float(ce_vec.mean())

    kl_on = cfg.enable_kl and c >= 1
    cl_on = cfg.enable_cl and c >= 2
    ll_on = kl_on or cl_on

    if ll_on:
        alpha = softmax_rows(h @ lbl.T)
        gram = _mirror(lbl @ lbl.T)

    kl = 0.0
    if kl_on:
        # row y of M, with the same products as the full (B, c, c) tensor
        mrow = alpha[rows, y, None] * alpha * gram[y]
        q = softmax_rows(mrow)
        qs = q + KL_EPS
        sq = qs.sum(axis=1, keepdims=True)
        qn = qs / sq
        ps = p + KL_EPS
        sp = ps.sum(axis=1, keepdims=True)
        pn = ps / sp
        log_ratio = np.log(qn) - np.log(pn)
        kl_vec = (qn * log_ratio).sum(axis=1)
        kl = float(kl_vec.mean())

    cl = 0.0
    active_fraction = 0.0
    if cl_on:
        kappa = 1.0 / (c * (c - 1))
        diag_idx = np.arange(c)
        m_all = np.einsum("bi,bj->bij", alpha, alpha)  # one product per entry
        m_all *= gram
        margin = cfg.rho - m_all[:, diag_idx, diag_idx]
        hinge = np.add(margin[:, :, None], m_all, out=m_all)
        # i == j is no pair: a 0.0 there keeps it out of `active`, and its
        # +0.0 keeps a sum of folded inactive entries (-x * False = -0.0)
        # at +0.0, whatever value the reduction starts from.
        hinge[:, diag_idx, diag_idx] = 0.0
        active = hinge > 0.0
        hinge *= active
        cl_vec = hinge.sum(axis=(1, 2)) * kappa
        cl = float(cl_vec.mean())
        active_fraction = np.count_nonzero(active) * kappa / batch

    breakdown = LossBreakdown(
        ce=ce, kl=kl, cl=cl, total=ce + kl + cl, active_hinge_fraction=active_fraction
    )

    # ----- backward -----
    onehot = np.zeros((batch, c))
    onehot[rows, y] = 1.0
    ce_scale = 1.0 / batch
    ce_live = (py >= CE_EPS)[:, None]  # clamped rows contribute no CE gradient
    dz2 = np.where(ce_live, (p - onehot) * ce_scale, 0.0)

    d_label = np.zeros_like(lbl)
    dh_att = 0.0
    if ll_on:
        if cl_on:
            cl_scale = kappa / batch
            dm = active.astype(np.float64)
            # active counts per row, exact in float64
            counts = dm.reshape(-1, c) @ np.ones(c)
            dm *= cl_scale
            dm[:, diag_idx, diag_idx] -= cl_scale * counts.reshape(batch, c)
        else:
            dm = np.zeros((batch, c, c))
        if kl_on:
            kl_scale = 1.0 / batch
            g_p = (1.0 - qn / pn) / sp * kl_scale
            dz2 += p * (g_p - (g_p * p).sum(axis=1, keepdims=True))
            g_q = (log_ratio - kl_vec[:, None]) / sq * kl_scale
            dm[rows, y, :] += q * (g_q - (g_q * q).sum(axis=1, keepdims=True))
        # With s_ij = (dm_ij + dm_ji) alpha_j per example: dL/dalpha_i is
        # sum_j s_ij gram_ij, and label row i gets sum_j w_ij l_j with
        # w_ij = sum_b alpha_i s_ij. Both take row i of every example at
        # once: one matrix product per class i.
        s = dm + dm.transpose(0, 2, 1)
        s *= alpha[:, None, :]
        row_i = s.transpose(1, 0, 2)  # (c, B, c)
        dalpha = (row_i @ gram[:, :, None])[:, :, 0].T
        weights = (alpha.T[:, None, :] @ row_i)[:, 0, :]
        dt = alpha * (dalpha - (dalpha * alpha).sum(axis=1, keepdims=True))
        dh_att = dt @ lbl
        d_label = weights @ lbl + dt.T @ h

    dh = dz2 @ params.w2.T + dh_att
    dz1 = dh * (1.0 - h * h)
    # Only columns present in the batch get a w1 gradient; the rest stay
    # exactly 0. Each row reduces over the batch, so its bits equal x.T @ dz1.
    cols = np.flatnonzero(x.any(axis=0))
    d_w1 = np.zeros_like(params.w1)
    d_w1[cols] = x[:, cols].T @ dz1
    grads = ModelParams(
        w1=d_w1,
        b1=dz1.sum(axis=0),
        w2=h.T @ dz2,
        b2=dz2.sum(axis=0),
        label_emb=d_label,
    )
    return breakdown, grads


# ---------------------------------------------------------------------------
# distances, cross entropy and finite differences


def l2_distance(a, b) -> float:
    """Euclidean distance; symmetric, zero exactly when a == b bitwise."""
    av = _as_vector(a, "a")
    bv = _as_vector(b, "b")
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    d = av - bv
    return float(np.sqrt(np.dot(d, d)))


def kl_divergence(a, b, eps: float = KL_EPS) -> float:
    """KL divergence of a from b, sum(a~ * ln(a~/b~)).

    Both arguments are smoothed as (x + eps) and renormalized before the
    accumulation, so one-hot vectors are handled without log(0). Asymmetric;
    nonnegative up to roundoff (>= -1e-9).
    """
    av = _as_vector(a, "a")
    bv = _as_vector(b, "b")
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    at = av + eps
    at /= at.sum()
    bt = bv + eps
    bt /= bt.sum()
    return float(np.sum(at * (np.log(at) - np.log(bt))))


def cross_entropy(p, y: int) -> float:
    """-ln(p[y]) with the probability clamped below at 1e-12."""
    arr = _as_vector(p, "p")
    y = int(y)
    if not 0 <= y < arr.size:
        raise ValueError(f"class index {y} out of range for {arr.size} classes")
    return float(-np.log(max(arr[y], CE_EPS)))


def finite_diff_gradient(
    f: Callable[[np.ndarray], float], x, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient oracle: (f(x+h*e_i) - f(x-h*e_i)) / 2h."""
    xv = _as_vector(x, "x")
    if h <= 0.0:
        raise ValueError("h must be positive")
    grad = np.empty_like(xv)
    for i in range(xv.size):
        xp = xv.copy()
        xp[i] += h
        xm = xv.copy()
        xm[i] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value while perturbing coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# kNN search and neighbor distributions, one key or neighbor at a time


def heap_query(store: RepresentationStore, q: np.ndarray, k: int) -> list[Neighbor]:
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


def loop_neighbor_distribution(neighbors: list[Neighbor], n_classes: int) -> np.ndarray:
    """Softmax over negative neighbor distances, summed per label one
    neighbor at a time."""
    dist = np.array([nb.distance for nb in neighbors], dtype=np.float64)
    weights = np.exp(-(dist - dist.min()))
    out = np.zeros(n_classes, dtype=np.float64)
    for nb, w in zip(neighbors, weights):
        out[nb.label] += w
    return out / out.sum()


# ---------------------------------------------------------------------------
# the inference tail, one row at a time: the first forms of the functions of
# ``dknn.stores`` and ``dknn.mathcore.sharpen``, with the checks they made


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


def sharpen(p) -> np.ndarray:
    """Square-and-renormalize a distribution to boost high-confidence mass.

    Two-step form: f_j = p_j^2 / sum(p), then f / sum(f), so unnormalized
    nonnegative inputs are handled deterministically as well. Preserves the
    argmax and never decreases the maximum entry of a proper distribution.
    """
    arr = _as_vector(p, "p")
    if np.any(arr < 0.0):
        raise ValueError("sharpen input must be nonnegative")
    total = arr.sum()
    if total <= 0.0:
        raise ValueError("sharpen input must have a positive entry")
    f = (arr * arr) / total
    return f / f.sum()


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


def row_breakdown(
    p_model: np.ndarray,
    text_neighbors: list[Neighbor] | None,
    pro_neighbors: list[Neighbor] | None,
    cfg: InferenceConfig,
) -> PredictionBreakdown:
    """Combine and interpolate for one row of the forward and its neighbors:
    the per-row tail that ``dknn.stores`` ran before it combined whole
    blocks. The returned breakdown carries no neighbor lists."""
    c = len(p_model)
    p_text_sharp = p_pro_sharp = None
    if text_neighbors is not None:
        p_text_sharp = sharpen(neighbor_distribution(text_neighbors, c))
    if pro_neighbors is not None:
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
    )


# ---------------------------------------------------------------------------
# the random stream, one draw at a time


_MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 output function (finalizer) on a 64-bit value:
    z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
    z ^= z>>31, each product taken mod 2^64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def reference_stream(seed: int, n: int) -> list[int]:
    """The first n draws of ``Rng(seed)``: draw i (1-based) is
    ``mix64((seed + i * 0x9E3779B97F4A7C15) mod 2^64)``."""
    return [mix64((seed & _MASK64) + i * 0x9E3779B97F4A7C15) for i in range(1, n + 1)]


# ---------------------------------------------------------------------------
# first forms of the distribution check and of the shuffle


def reference_is_distribution(p, tol: float) -> bool:
    """Finite, nonnegative entries summing to 1 within tol, each checked on
    its own: the first form of ``mathcore.is_distribution``. A (B, c) block
    with a row passes when each of its rows passes on its own."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim == 2 and arr.size:
        return all(reference_is_distribution(row, tol) for row in arr)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        return False
    return bool(np.all(arr >= 0.0) and abs(arr.sum() - 1.0) <= tol)


def loop_permutation(rng: Rng, n: int) -> np.ndarray:
    """Fisher-Yates over range(n) converting one numpy draw per step: the
    first form of ``Rng.permutation``."""
    arr = list(range(n))
    if n > 1:
        draws = rng._bulk(n - 1)
        for t, i in enumerate(range(n - 1, 0, -1)):
            j = (int(draws[t]) * (i + 1)) >> 64
            arr[i], arr[j] = arr[j], arr[i]
    return np.array(arr, dtype=np.int64)
