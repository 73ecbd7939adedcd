"""Analytic gradients vs the central finite-difference oracle."""

import numpy as np
import pytest

from dknn.model import (
    LLConfig,
    ModelParams,
    batch_loss_and_gradients,
    gradients,
    total_loss,
)
from dknn.rng import Rng
from oracles import label_attention, label_similarity, scaled_label_matrix

FD_H = 1e-5
REL_TOL = 1e-4
KINK_MARGIN = 1e-6


def pack(params: ModelParams) -> np.ndarray:
    return np.concatenate([t.ravel() for t in params.tensors().values()])


def unpack(theta: np.ndarray, f: int, d: int, c: int) -> ModelParams:
    sizes = [(f, d), (d,), (d, c), (c,), (c, d)]
    arrays = []
    i = 0
    for shape in sizes:
        size = int(np.prod(shape))
        arrays.append(theta[i : i + size].reshape(shape).copy())
        i += size
    return ModelParams(*arrays)


def fd_gradient(x, y, theta, f, d, c, cfg) -> np.ndarray:
    out = np.zeros_like(theta)
    for i in range(theta.size):
        tp = theta.copy()
        tp[i] += FD_H
        tm = theta.copy()
        tm[i] -= FD_H
        lp = total_loss(x, y, unpack(tp, f, d, c), cfg).total
        lm = total_loss(x, y, unpack(tm, f, d, c), cfg).total
        out[i] = (lp - lm) / (2.0 * FD_H)
    return out


def hinge_margins(x, params: ModelParams, cfg: LLConfig) -> np.ndarray:
    """Distance of every ordered pair from the contrastive hinge kink."""
    h = np.tanh(np.asarray(x) @ params.w1 + params.b1)
    alpha = label_attention(h, params.label_emb)
    m = label_similarity(scaled_label_matrix(alpha, params.label_emb))
    c = m.shape[0]
    vals = cfg.rho - np.diag(m)[:, None] + m
    return np.abs(vals[~np.eye(c, dtype=bool)])


def random_instance(seed: int, f=20, d=8, c=5):
    rng = Rng(seed)
    params = ModelParams(
        w1=rng.normals(f * d).reshape(f, d) * 0.5,
        b1=rng.normals(d) * 0.3,
        w2=rng.normals(d * c).reshape(d, c) * 0.5,
        b2=rng.normals(c) * 0.3,
        label_emb=rng.normals(c * d).reshape(c, d) * 0.5,
    )
    x = rng.normals(f) * 0.5
    y = rng.bounded(c)
    return params, x, y


@pytest.mark.parametrize(
    "cfg",
    [
        LLConfig(),
        LLConfig(enable_cl=False),
        LLConfig(enable_kl=False),
        LLConfig(enable_kl=False, enable_cl=False),
    ],
    ids=["all-on", "kl-only", "cl-only", "ce-only"],
)
def test_gradcheck_configurations(cfg):
    checked = 0
    seed = 0
    while checked < 5:
        seed += 1
        params, x, y = random_instance(seed * 31 + 7)
        if cfg.enable_cl and hinge_margins(x, params, cfg).min() <= KINK_MARGIN:
            continue
        analytic = np.concatenate(
            [t.ravel() for t in gradients(x, y, params, cfg).tensors().values()]
        )
        numeric = fd_gradient(x, y, pack(params), 20, 8, 5, cfg)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        assert rel.max() <= REL_TOL
        checked += 1


def test_label_gradient_zero_without_ll_losses():
    params, x, y = random_instance(99)
    params.w2 = np.zeros_like(params.w2)
    cfg = LLConfig(enable_kl=False, enable_cl=False)
    g = gradients(x, y, params, cfg)
    assert np.all(g.label_emb == 0.0)


def test_batch_gradient_is_mean_of_singles():
    rng = Rng(5)
    params, _, _ = random_instance(123)
    x = rng.normals(4 * 20).reshape(4, 20) * 0.5
    y = np.array([rng.bounded(5) for _ in range(4)])
    cfg = LLConfig()
    _, batch = batch_loss_and_gradients(x, y, params, cfg)
    singles = [gradients(x[i], int(y[i]), params, cfg) for i in range(4)]
    for name, tensor in batch.tensors().items():
        mean = np.mean([s.tensors()[name] for s in singles], axis=0)
        np.testing.assert_allclose(tensor, mean, atol=1e-12)


def test_gradients_finite_on_extreme_inputs():
    params, x, y = random_instance(7)
    params.w2 *= 50.0  # saturate softmax
    g = gradients(x, y, params, LLConfig())
    for tensor in g.tensors().values():
        assert np.all(np.isfinite(tensor))


def test_w1_gradient_rows_of_absent_columns_are_zero():
    rng = Rng(21)
    params, _, _ = random_instance(31)
    x = rng.normals(6 * 20).reshape(6, 20) * 0.5
    absent = [0, 3, 7, 19]
    x[:, absent] = 0.0
    y = np.array([rng.bounded(5) for _ in range(6)])
    _, grads = batch_loss_and_gradients(x, y, params, LLConfig())
    assert np.all(grads.w1[absent] == 0.0)
    assert not np.any(np.signbit(grads.w1[absent]))
    present = np.setdiff1d(np.arange(20), absent)
    assert np.all(np.any(grads.w1[present] != 0.0, axis=1))


def test_single_example_w1_gradient_is_outer_product():
    params, x, y = random_instance(17)
    x = x.copy()
    x[[2, 5]] = 0.0
    _, grads = batch_loss_and_gradients(x[None, :], np.array([y]), params, LLConfig())
    assert np.array_equal(grads.w1, np.outer(x, grads.b1))
