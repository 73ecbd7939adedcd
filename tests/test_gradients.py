"""Analytic gradients vs the central finite-difference oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dknn.features import FeaturizerConfig, fit_featurizer
from dknn.harness import Dataset
from dknn.model import LLConfig, ModelParams, batch_loss_and_gradients
from dknn.rng import Rng
from dknn.trainer import TrainConfig, save_history, train
from oracles import (
    csr_rows,
    gradients,
    label_attention,
    label_similarity,
    reference_loss_and_gradients,
    scaled_label_matrix,
    total_loss,
)

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
    _, batch = batch_loss_and_gradients(csr_rows(x), y, params, cfg)
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
    """The step writes dW1 into the batch's live rows of a zeroed (F, d)
    array: every other row is +0.0, with no -0.0, and every live row is
    nonzero."""
    rng = Rng(21)
    params, _, _ = random_instance(31)
    x = rng.normals(6 * 20).reshape(6, 20) * 0.5
    absent = [0, 3, 7, 19]
    x[:, absent] = 0.0
    y = np.array([rng.bounded(5) for _ in range(6)])
    _, grads = batch_loss_and_gradients(csr_rows(x), y, params, LLConfig())
    present = np.setdiff1d(np.arange(20), absent)
    assert grads.w1.shape == params.w1.shape
    assert np.all(np.any(grads.w1[present] != 0.0, axis=1))
    assert np.all(grads.w1[absent] == 0.0)
    assert not np.any(np.signbit(grads.w1[absent]))


def test_single_example_w1_gradient_is_outer_product():
    params, x, y = random_instance(17)
    x = x.copy()
    x[[2, 5]] = 0.0
    _, grads = batch_loss_and_gradients(csr_rows(x[None, :]), np.array([y]), params,
                                        LLConfig())
    assert np.array_equal(grads.w1, np.outer(x, grads.b1))


# ---------------------------------------------------------------------------
# the batched step against its first form (tests/oracles.py)

LOSS_FIELDS = ("ce", "kl", "cl", "total", "active_hinge_fraction")


@settings(max_examples=200, deadline=None)
@given(
    kl=st.booleans(),
    cl=st.booleans(),
    c=st.sampled_from([1, 2, 10]),
    batch=st.sampled_from([1, 7, 128]),
    rho=st.sampled_from([0.0, 0.5, 1.0]),
    label_scale=st.sampled_from([0.0, 0.5, 3.0]),
    seed=st.integers(0, 2**16),
)
def test_step_matches_reference(kl, cl, c, batch, rho, label_scale, seed):
    f, d = 24, 8
    rng = Rng(seed)
    params = ModelParams(
        w1=rng.normals(f * d).reshape(f, d) * 0.5,
        b1=rng.normals(d) * 0.3,
        w2=rng.normals(d * c).reshape(d, c) * 0.5,
        b2=rng.normals(c) * 0.3,
        label_emb=rng.normals(c * d).reshape(c, d) * label_scale,
    )
    x = rng.normals(batch * f).reshape(batch, f)
    x[rng.normals(batch * f).reshape(batch, f) < 0.5] = 0.0  # sparse rows
    y = np.array([rng.bounded(c) for _ in range(batch)])
    cfg = LLConfig(rho=rho, enable_kl=kl, enable_cl=cl)

    got, step = batch_loss_and_gradients(csr_rows(x), y, params, cfg)
    want, ref = reference_loss_and_gradients(x, y, params, cfg)
    for name in LOSS_FIELDS:
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12
    for name, tensor in step.tensors().items():
        expected = ref.tensors()[name]
        assert tensor.shape == expected.shape
        assert np.all(np.abs(tensor - expected) <= 1e-12 * (1.0 + np.abs(expected))), name
    if not (kl or cl):
        # Bit for bit against the first form over the batch's live columns.
        # Dropping all-zero columns changes the math of nothing, but it can
        # change how a 1-row GEMV groups its F-term sums. Rows of dW1 outside
        # the live columns are +0.0.
        live = np.flatnonzero(x.any(axis=0))
        dead = np.setdiff1d(np.arange(f), live)
        assert np.all(step.w1[dead] == 0.0) and not np.any(np.signbit(step.w1[dead]))
        sub = ModelParams(**{**params.tensors(), "w1": params.w1[live]})
        want, ref = reference_loss_and_gradients(x[:, live], y, sub, cfg)
        assert got == want
        for name, tensor in {**step.tensors(), "w1": step.w1[live]}.items():
            expected = ref.tensors()[name]
            assert np.array_equal(tensor, expected), name
            assert np.array_equal(np.signbit(tensor), np.signbit(expected)), name


def _is_negative_zero(v) -> bool:
    return v == 0.0 and math.copysign(1.0, v) < 0.0


@pytest.mark.parametrize("label_emb", ["zero", "orthogonal"])
@pytest.mark.parametrize("kl", [False, True])
def test_no_active_hinge_reads_positive_zero(label_emb, kl):
    # rho = 0 with orthogonal label rows makes every off-diagonal hinge
    # -M_ii < 0, so each folds to -0.0; a zero label_emb makes them all 0.0
    c, d, f = 4, 6, 10
    params, x, _ = random_instance(3, f=f, d=d, c=c)
    params.label_emb = np.zeros((c, d)) if label_emb == "zero" else 2.0 * np.eye(c, d)
    xb = np.stack([x, -x, 0.5 * x])
    out, _ = batch_loss_and_gradients(csr_rows(xb), np.array([0, 1, 3]), params,
                                      LLConfig(rho=0.0, enable_kl=kl))
    assert out.cl == 0.0 and not _is_negative_zero(out.cl)
    assert out.active_hinge_fraction == 0.0
    assert not _is_negative_zero(out.active_hinge_fraction)


def test_history_prints_no_negative_zero(tmp_path):
    texts = [f"tok{i % 5} tok{(i * 3) % 7} w{i % 2}" for i in range(24)]
    ds = Dataset(texts=texts, labels=[i % 3 for i in range(24)], label_names=["a", "b", "c"])
    cfg = TrainConfig(batch_size=8, epochs=3, embed_dim=4, seed=1, ll=LLConfig(rho=0.0))
    _, history = train(ds, ds, fit_featurizer([], FeaturizerConfig(dim=32)), cfg)
    save_history(history, tmp_path / "history.jsonl")
    lines = (tmp_path / "history.jsonl").read_text("utf-8").splitlines()
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        values = [v for k, v in rec.items() if k != "grad_norm"] + list(rec["grad_norm"].values())
        assert not any(_is_negative_zero(v) for v in values if v is not None), line
        assert "-0.0," not in line and "-0.0}" not in line
