"""Single-example reference implementations used as test oracles.

The package computes everything through batched code paths (see
``dknn.model.batch_loss_and_gradients`` and ``dknn.stores``). These
functions restate the paper's equations one example at a time, and the kNN
search as a plain scan, so tests can check the batched results against an
independent, obviously-correct form. ``reference_loss_and_gradients`` keeps
the batched training step in its first, plainest form.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from dknn.exceptions import ValidationError
from dknn.features import Featurizer, fnv1a64, tokenize
from dknn.mathcore import CE_EPS, KL_EPS, _as_vector, softmax, softmax_rows
from dknn.model import LLConfig, LossBreakdown, ModelParams, _mirror
from dknn.stores import Neighbor, RepresentationStore


# ---------------------------------------------------------------------------
# features and optimizer, restated densely


def dense_transform(featurizer: Featurizer, text: str) -> np.ndarray:
    """Feature vector for one text, built token by token in a dense row:
    count, scale by idf (tf-idf), then divide by the L2 norm when nonzero."""
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
    norm = np.sqrt(np.dot(vec, vec))
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
    with_grads: bool = True,
) -> tuple[LossBreakdown, ModelParams | None]:
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
    if not with_grads:
        return breakdown, None

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
