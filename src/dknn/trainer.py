"""Deterministic mini-batch training with Adam.

Reproducibility contract: (dataset, config, seed) fully determines the
trained parameters on a given machine. All randomness comes from the
package's own generator (see rng.py). Initialization draw order is fixed:
w1 row-major, then w2 row-major, then label_emb row-major, each tensor
filled by one normals() call; biases start at zero. The shuffle for epoch e
(0-based) uses a fresh generator seeded with ``seed XOR e``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_atomic
from .exceptions import NonFiniteError, ValidationError
from .features import Featurizer, densify
from .model import LLConfig, ModelParams, batch_loss_and_gradients, forward_batch
from .rng import Rng


@dataclass
class TrainConfig:
    batch_size: int = 128
    epochs: int = 30
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    embed_dim: int = 64
    seed: int = 0
    ll: LLConfig = field(default_factory=LLConfig)

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValidationError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.embed_dim < 1:
            raise ValidationError("embed_dim must be >= 1")
        self.ll.validate()


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    ce: float
    kl: float
    cl: float
    total: float
    dev_accuracy: float | None
    grad_norm: dict[str, float]  # per tensor: mean over the epoch's steps of ||g||
    active_hinge_fraction: float  # per-example mean; 0.0 without the cl loss

    def to_json(self) -> str:
        return json.dumps(
            {
                "epoch": self.epoch,
                "ce": self.ce,
                "kl": self.kl,
                "cl": self.cl,
                "total": self.total,
                "dev_accuracy": self.dev_accuracy,
                "grad_norm": self.grad_norm,
                "active_hinge_fraction": self.active_hinge_fraction,
            }
        )


TrainHistory = list[EpochRecord]


def save_history(history: TrainHistory, path) -> None:
    """One epoch per line, JSON."""
    write_atomic(path, "".join(rec.to_json() + "\n" for rec in history))


@dataclass
class AdamState:
    """Adam moments per tensor. ``live`` marks, per 2-D tensor, the rows that
    have ever had a nonzero gradient; a tensor without an entry is all live.
    ``scratch`` holds two work arrays per tensor, made on first use, so a
    step allocates no full-size temporaries."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    live: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        tensors = params.tensors()
        return cls(
            m={k: np.zeros_like(t) for k, t in tensors.items()},
            v={k: np.zeros_like(t) for k, t in tensors.items()},
            live={k: np.zeros(len(t), dtype=bool) for k, t in tensors.items() if t.ndim == 2},
        )


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState, config: TrainConfig
) -> tuple[ModelParams, AdamState]:
    """Standard bias-corrected Adam update, applied in place to params/state.

    Rows that have never had a nonzero gradient are skipped. That is exact:
    their m and v are 0 and their gradient is +-0, so the dense update would
    subtract lr * 0 / (0 + eps) = 0. A row updates every step once it has
    gone live, so the trajectory is that of dense Adam, bit for bit.
    """
    gtensors = grads.tensors()
    for name, grad in gtensors.items():
        if not np.all(np.isfinite(grad)):
            raise NonFiniteError(
                f"non-finite gradient in tensor {name!r} at step {state.step + 1}"
            )
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, tensor in params.tensors().items():
        g = gtensors[name]
        m = state.m[name]
        v = state.v[name]
        scratch = state.scratch.get(name)
        if scratch is None:
            scratch = state.scratch[name] = (np.empty_like(m), np.empty_like(m))
        live = state.live.get(name)
        if live is not None and not live.all():
            live |= g.any(axis=1)
            rows = np.flatnonzero(live)
            tensor_r, m_r, v_r = tensor[rows], m[rows], v[rows]
            num, den = (s[: len(rows)] for s in scratch)
            _adam_update(tensor_r, g[rows], m_r, v_r, bc1, bc2, config, num, den)
            tensor[rows], m[rows], v[rows] = tensor_r, m_r, v_r
        else:
            _adam_update(tensor, g, m, v, bc1, bc2, config, *scratch)
    return params, state


def _adam_update(
    tensor, g, m, v, bc1: float, bc2: float, config: TrainConfig, num, den
) -> None:
    """tensor -= lr * (m / bc1) / (sqrt(v / bc2) + eps) after the moment
    updates, with every intermediate in the work arrays ``num`` and ``den``
    and every operation in the order of that expression, so the bits are
    those of the plain form (``tests/oracles.py::dense_adam_step``)."""
    b1, b2 = config.beta1, config.beta2
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=num)
    v *= b2
    np.multiply(g, g, out=den)
    den *= 1.0 - b2
    v += den
    np.divide(m, bc1, out=num)
    num *= config.learning_rate
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += config.adam_eps
    num /= den
    tensor -= num


def init_params(
    feature_dim: int, embed_dim: int, n_classes: int, rng: Rng
) -> ModelParams:
    """Fresh parameters; see module docstring for the exact draw order."""
    w1 = rng.normals(feature_dim * embed_dim).reshape(feature_dim, embed_dim)
    w1 /= np.sqrt(feature_dim)
    w2 = rng.normals(embed_dim * n_classes).reshape(embed_dim, n_classes)
    w2 /= np.sqrt(embed_dim)
    label_emb = rng.normals(n_classes * embed_dim).reshape(n_classes, embed_dim)
    label_emb /= np.sqrt(embed_dim)
    return ModelParams(
        w1=w1,
        b1=np.zeros(embed_dim),
        w2=w2,
        b2=np.zeros(n_classes),
        label_emb=label_emb,
    )


def _accuracy(params: ModelParams, rows, y: np.ndarray) -> float:
    """Share of CSR feature rows whose argmax prediction is the label."""
    _, p = forward_batch(rows, params)
    # np.argmax already breaks ties by lowest index
    return float(np.mean(np.argmax(p, axis=1) == y))


def train(
    train_set,
    dev_set,
    featurizer: Featurizer,
    config: TrainConfig,
) -> tuple[ModelParams, TrainHistory]:
    """Train on a dataset (see harness.Dataset), evaluating dev each epoch.

    Returns the parameters after the final epoch plus per-epoch records of
    the mean training loss (running mean over the batches of that epoch,
    weighted by batch size) and dev accuracy.
    """
    config.validate()
    if train_set.n == 0:
        raise ValidationError("training set is empty")
    n_classes = train_set.num_labels
    if n_classes < 1:
        raise ValidationError("label vocabulary is empty")

    # CSR rows; each mini-batch is densified on its own (see features.densify)
    rows = featurizer.transform_rows(train_set.texts)
    y = np.asarray(train_set.labels, dtype=np.int64)
    if np.any(y >= n_classes):
        raise ValidationError("label index outside the dataset vocabulary")
    dev_rows = y_dev = None
    if dev_set is not None and dev_set.n > 0:
        dev_rows = featurizer.transform_rows(dev_set.texts)
        y_dev = np.asarray(dev_set.labels, dtype=np.int64)

    rng = Rng(config.seed)
    params = init_params(featurizer.dim, config.embed_dim, n_classes, rng)
    state = AdamState.for_params(params)
    history: TrainHistory = []
    n = train_set.n

    for epoch in range(config.epochs):
        order = Rng(config.seed ^ epoch).permutation(n)
        sums = np.zeros(4)  # ce, kl, cl, active hinge fraction, per example
        norm_sums = np.zeros(len(state.m))  # per-step gradient norm per tensor
        steps = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            breakdown, grads = batch_loss_and_gradients(
                densify(rows, featurizer.dim, idx), y[idx], params, config.ll
            )
            if not np.isfinite(breakdown.total):
                raise NonFiniteError(
                    f"non-finite loss at epoch {epoch + 1}, batch start {start}"
                )
            adam_step(params, grads, state, config)
            sums += np.array(
                [breakdown.ce, breakdown.kl, breakdown.cl, breakdown.active_hinge_fraction]
            ) * len(idx)
            norm_sums += [np.linalg.norm(g) for g in grads.tensors().values()]
            steps += 1
        ce, kl, cl, active = (sums / n).tolist()
        dev_acc = None
        if dev_rows is not None:
            dev_acc = _accuracy(params, dev_rows, y_dev)
        history.append(
            EpochRecord(
                epoch=epoch + 1, ce=ce, kl=kl, cl=cl, total=ce + kl + cl,
                dev_accuracy=dev_acc,
                grad_norm=dict(zip(state.m, (norm_sums / steps).tolist())),
                active_hinge_fraction=active,
            )
        )
    return params, history


def evaluate(params: ModelParams, featurizer: Featurizer, dataset) -> float:
    """Fraction of examples whose argmax prediction matches the gold label."""
    if dataset.n == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    y = np.asarray(dataset.labels, dtype=np.int64)
    if np.any(y >= params.n_classes):
        raise ValidationError("dataset labels exceed the model's class count")
    return _accuracy(params, featurizer.transform_rows(dataset.texts), y)
