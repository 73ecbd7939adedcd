"""Classifier with a label-distribution-learning objective.

Architecture: feature vector x -> h = tanh(x W1 + b1) -> p = softmax(h W2 + b2),
plus a trainable label-embedding matrix (one row per class) used to build
per-example soft targets and a margin contrastive loss:

* attention:    alpha = softmax(h . l_i over classes)
* scaled rows:  lprime_i = alpha_i * l_i
* similarity:   M = lprime lprime^T  (mirrored to be exactly symmetric)
* contrastive:  mean over ordered pairs i != j of max(0, rho - M_ii + M_ij)
* soft target:  q = softmax(row y of M), pulled toward p with KL(q || p)

total = ce + kl + cl. The gradient of every parameter is analytic (hand
backprop); finite differences are only used as a test oracle.

Both passes take feature rows in CSR form. A training step
(batch_loss_and_gradients) works over the batch's live columns: the L
distinct columns its rows use (column_map), against F in all. It multiplies
the dense (B, L) block of the rows by those L rows of W1 and writes dW1
into those L rows of a zeroed array shaped like W1, so its products follow
L, not F. The inference forward (forward_batch) reduces each row over its
own entries in blocks of FORWARD_BLOCK rows, so a row's bits never depend
on the rest of its batch.
The dense first form of the step is kept in ``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .artifacts import pack_blocks, read_artifact, unpack_blocks, write_atomic
from .exceptions import CorruptArtifactError, ValidationError
from .mathcore import CE_EPS, KL_EPS, softmax_rows

CHECKPOINT_MAGIC = b"DKNM"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LLConfig:
    """Switches for the label-distribution-learning losses.

    rho is the contrastive margin in [0, 1]. The objective is the plain sum
    ce + kl + cl; enable_kl / enable_cl drop a term for ablations. Frozen, so
    a config is hashable and can key caches of trained models.
    """

    rho: float = 0.5
    enable_kl: bool = True
    enable_cl: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must be in [0, 1], got {self.rho}")


@dataclass
class ModelParams:
    """All trainable tensors, or their gradients (same names and shapes).
    Shapes: w1 (F,d), b1 (d,), w2 (d,c), b2 (c,), label_emb (c,d)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    label_emb: np.ndarray

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[1]

    def validate(self) -> None:
        f, d = self.w1.shape
        c = self.w2.shape[1]
        if self.b1.shape != (d,) or self.w2.shape != (d, c) or self.b2.shape != (c,):
            raise ValueError("inconsistent parameter shapes")
        if 0 in (f, d, c):
            raise ValueError(f"a model needs F, d and c >= 1, got F={f}, d={d}, c={c}")
        if self.label_emb.shape != (c, d):
            raise ValueError(
                f"label_emb shape {self.label_emb.shape} != ({c}, {d})"
            )
        for name, arr in self.tensors().items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "w1": self.w1,
            "b1": self.b1,
            "w2": self.w2,
            "b2": self.b2,
            "label_emb": self.label_emb,
        }


@dataclass
class LossBreakdown:
    ce: float
    kl: float
    cl: float
    total: float
    # share of off-diagonal label pairs with a positive hinge (0.0 without cl)
    active_hinge_fraction: float = 0.0


# ---------------------------------------------------------------------------
# forward operations


FORWARD_BLOCK = 256  # rows per block of forward_batch; no bit depends on it


def _embed_rows(row_ptr, cols, vals, params: ModelParams) -> np.ndarray:
    """h = tanh(b1 + sum_j vals_j W1[cols_j]) for every CSR row.

    Each row is reduced by ``np.add.reduceat`` over its own entries, so its
    bits depend on nothing else in the call. An empty row is b1 alone, since
    reduceat at equal offsets returns an element, not 0."""
    lo, hi = row_ptr[0], row_ptr[-1]
    starts = row_ptr[:-1] - lo
    g = params.w1[cols[lo:hi]]
    g *= vals[lo:hi, None]
    nonempty = row_ptr[1:] > row_ptr[:-1]
    if nonempty.all():
        z = np.add.reduceat(g, starts, axis=0)
    else:
        z = np.zeros((len(starts), params.embed_dim))
        z[nonempty] = np.add.reduceat(g, starts[nonempty], axis=0)
    z += params.b1
    return np.tanh(z, out=z)


def _head_rows(h: np.ndarray, params: ModelParams) -> np.ndarray:
    """p = softmax(h W2 + b2) per row, with h W2 summed over d in a fixed
    order (a GEMM picks its kernel, and so its bits, by batch shape)."""
    logits = np.add.reduce(h[:, :, None] * params.w2, axis=1)
    logits += params.b2
    return softmax_rows(logits)


def forward_batch(
    rows: tuple[np.ndarray, np.ndarray, np.ndarray], params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """(H, P) for CSR feature rows ``(row_ptr, cols, vals)``, as
    ``Featurizer.transform_rows`` returns them.

    The inference forward of every caller. It runs in blocks of
    FORWARD_BLOCK rows, and each row's bits depend only on its own entries,
    so any split of a batch gives the same bits as the whole."""
    row_ptr, cols, vals = rows
    n = len(row_ptr) - 1
    if n <= FORWARD_BLOCK:  # one block, returned without a copy
        h = _embed_rows(row_ptr, cols, vals, params)
        return h, _head_rows(h, params)
    h = np.empty((n, params.embed_dim))
    p = np.empty((n, params.n_classes))
    for lo in range(0, n, FORWARD_BLOCK):
        hi = min(lo + FORWARD_BLOCK, n)
        h[lo:hi] = _embed_rows(row_ptr[lo:hi + 1], cols, vals, params)
        p[lo:hi] = _head_rows(h[lo:hi], params)
    return h, p


def encode(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Text embedding h = tanh(x W1 + b1) of one dense feature vector: the
    1-row case of forward_batch, over the vector's nonzero entries."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.feature_dim,):
        raise ValueError(f"expected feature vector of length {params.feature_dim}")
    cols = np.flatnonzero(x)
    return _embed_rows(np.array([0, len(cols)]), cols, x[cols], params)[0]


def classify(h: np.ndarray, params: ModelParams) -> np.ndarray:
    """Predicted class distribution p = softmax(h W2 + b2) of one embedding:
    the 1-row case of forward_batch."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (params.embed_dim,):
        raise ValueError(f"expected embedding of length {params.embed_dim}")
    return _head_rows(h[None, :], params)[0]


def _mirror(m: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one: exact symmetry."""
    idx = np.arange(len(m))
    return np.where(idx[:, None] > idx, m.T, m)


# ---------------------------------------------------------------------------
# loss + analytic gradients of a batch


def column_map(cols: np.ndarray, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """``(used, compact)``: the distinct columns of ``cols``, ascending, and
    each entry's index into them, as ``np.unique(cols, return_inverse=True)``
    gives them, but ranked by a running count over [0, n_cols), not sorted."""
    if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError(f"feature column outside [0, {n_cols})")
    rank = np.zeros(n_cols, dtype=np.intp)
    rank[cols] = 1
    used = np.flatnonzero(rank)
    np.cumsum(rank, out=rank)
    return used, rank[cols] - 1


def _live_block(
    rows: tuple[np.ndarray, np.ndarray, np.ndarray], n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(live, x)`` for CSR rows over columns [0, n_cols): the L distinct
    columns the rows use, ascending, and the dense (B, L) block of the rows
    over those columns, so ``x`` scattered to columns ``live`` of a
    (B, n_cols) zero block is the dense block of the rows."""
    row_ptr, cols, vals = rows
    lo, hi = row_ptr[0], row_ptr[-1]
    live, at = column_map(cols[lo:hi], n_cols)
    x = np.zeros((len(row_ptr) - 1, len(live)))
    x[np.repeat(np.arange(len(x)), np.diff(row_ptr)), at] = vals[lo:hi]
    return live, x


def batch_loss_and_gradients(
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    y: np.ndarray,
    params: ModelParams,
    cfg: LLConfig,
) -> tuple[LossBreakdown, ModelParams]:
    """Mean loss over a batch of CSR feature rows ``(row_ptr, cols, vals)``,
    as forward_batch takes them, and its analytic gradients.

    The first layer runs over the batch's L live columns (see the module
    docstring): every other row of the w1 gradient is exactly +0.0.
    Per-example quantities (alpha, M, q) are computed for every row; the
    batch loss is the arithmetic mean of per-example losses and gradients
    are the matching means.
    """
    cfg.validate()
    y = np.asarray(y, dtype=np.int64)
    live, x = _live_block(rows, params.feature_dim)
    if y.shape != (x.shape[0],):
        raise ValueError("y must have one label per row")
    c = params.n_classes
    if np.any((y < 0) | (y >= c)):
        raise ValueError("label out of range")

    batch = x.shape[0]
    ex = np.arange(batch)  # example index, to pick each row's label entry
    lbl = params.label_emb

    z1 = x @ params.w1[live] + params.b1
    h = np.tanh(z1)
    p = softmax_rows(h @ params.w2 + params.b2)
    py = p[ex, y]
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
        mrow = alpha[ex, y, None] * alpha * gram[y]
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
    onehot[ex, y] = 1.0
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
            dm[ex, y, :] += q * (g_q - (g_q * q).sum(axis=1, keepdims=True))
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
    d_w1 = np.zeros_like(params.w1)
    d_w1[live] = x.T @ dz1
    grads = ModelParams(
        w1=d_w1,
        b1=dz1.sum(axis=0),
        w2=h.T @ dz2,
        b2=dz2.sum(axis=0),
        label_emb=d_label,
    )
    return breakdown, grads


# ---------------------------------------------------------------------------
# checkpoint serialization

_HEADER = struct.Struct("<4sHIII")  # magic, version, F, d, c


def _layout(fields: tuple) -> list[tuple]:
    """The f32 blocks w1 (F,d), b1 (d), w2 (d,c), b2 (c), label_emb (c,d)."""
    f, d, c = fields
    return [("<f4", shape) for shape in ((f, d), (d,), (d, c), (c,), (c, d))]


def checkpoint_bytes(params: ModelParams) -> bytes:
    """Serialize params: magic, u16 version, u32 F/d/c, then f32 LE blocks
    w1, b1, w2, b2, label_emb in row-major order."""
    params.validate()
    fields = (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *params.w1.shape, params.n_classes)
    return pack_blocks(_HEADER, fields, [("<f4", a) for a in params.tensors().values()])


def model_fingerprint(params: ModelParams) -> int:
    """64-bit fingerprint of the serialized checkpoint."""
    return checkpoint_fingerprint(checkpoint_bytes(params))


def checkpoint_fingerprint(blob: bytes) -> int:
    """64-bit fingerprint of checkpoint bytes (blake2b-8 digest). The bytes
    of a valid checkpoint equal ``checkpoint_bytes`` of the params they load
    to, since float32 -> float64 -> float32 is exact (signed zeros and
    subnormals too), so this is ``model_fingerprint`` of those params."""
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(), "little")


def save_checkpoint(params: ModelParams, path) -> None:
    write_atomic(path, checkpoint_bytes(params))


def load_checkpoint(path) -> ModelParams:
    return params_from_bytes(read_artifact(path, "checkpoint"), source=str(path))


def params_from_bytes(blob: bytes, source: str = "<bytes>") -> ModelParams:
    _, arrays = unpack_blocks(blob, source, "checkpoint", _HEADER, CHECKPOINT_MAGIC,
                              CHECKPOINT_VERSION, _layout)
    params = ModelParams(*(a.astype(np.float64) for a in arrays))
    try:
        params.validate()
    except ValueError as exc:
        raise CorruptArtifactError(f"{source}: {exc}") from exc
    return params
