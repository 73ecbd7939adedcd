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
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonFiniteError, ValidationError
from .features import Featurizer
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
        if self.learning_rate <= 0.0:
            raise ValidationError("learning_rate must be positive")
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "epoch": self.epoch,
                "ce": self.ce,
                "kl": self.kl,
                "cl": self.cl,
                "total": self.total,
                "dev_accuracy": self.dev_accuracy,
            }
        )


TrainHistory = list[EpochRecord]


def save_history(history: TrainHistory, path) -> None:
    """One epoch per line, JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in history:
            fh.write(rec.to_json() + "\n")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={k: np.zeros_like(t) for k, t in params.tensors().items()},
            v={k: np.zeros_like(t) for k, t in params.tensors().items()},
        )


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState, config: TrainConfig
) -> tuple[ModelParams, AdamState]:
    """Standard bias-corrected Adam update, applied in place to params/state."""
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
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        tensor -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.adam_eps)
    return params, state


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


def _accuracy(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    _, p = forward_batch(x, params)
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

    x = featurizer.transform_many(train_set.texts)
    y = np.asarray(train_set.labels, dtype=np.int64)
    if np.any(y >= n_classes):
        raise ValidationError("label index outside the dataset vocabulary")
    x_dev = y_dev = None
    if dev_set is not None and dev_set.n > 0:
        x_dev = featurizer.transform_many(dev_set.texts)
        y_dev = np.asarray(dev_set.labels, dtype=np.int64)

    rng = Rng(config.seed)
    params = init_params(featurizer.dim, config.embed_dim, n_classes, rng)
    state = AdamState.for_params(params)
    history: TrainHistory = []
    n = train_set.n

    for epoch in range(config.epochs):
        order = Rng(config.seed ^ epoch).permutation(n)
        sums = np.zeros(3)  # ce, kl, cl accumulated per example
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            breakdown, grads = batch_loss_and_gradients(
                x[idx], y[idx], params, config.ll
            )
            if not np.isfinite(breakdown.total):
                raise NonFiniteError(
                    f"non-finite loss at epoch {epoch + 1}, batch start {start}"
                )
            adam_step(params, grads, state, config)
            sums += np.array([breakdown.ce, breakdown.kl, breakdown.cl]) * len(idx)
        ce, kl, cl = (sums / n).tolist()
        dev_acc = None
        if x_dev is not None:
            dev_acc = _accuracy(params, x_dev, y_dev)
        history.append(
            EpochRecord(
                epoch=epoch + 1, ce=ce, kl=kl, cl=cl, total=ce + kl + cl,
                dev_accuracy=dev_acc,
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
    x = featurizer.transform_many(dataset.texts)
    return _accuracy(params, x, y)
