"""Deterministic mini-batch training with Adam.

Reproducibility contract: (dataset, config, seed) fully determines the
trained parameters on a given machine. All randomness comes from the
package's own generator (see rng.py). Initialization draw order is fixed:
w1 row-major, then w2 row-major, then label_emb row-major, each tensor
filled by one normals() call; biases start at zero. The shuffle for epoch e
(0-based) uses a fresh generator seeded with ``seed XOR e``.

The training set stays in CSR form, renumbered by model.column_map to the U
columns of F that it uses, in order. The loop trains a U-row copy of w1
that shares the other tensors and goes back into the full w1 before each
dev evaluation and at the end; the other rows keep their initial bits, as
dense Adam leaves them. Each mini-batch goes to the model as the CSR of its
own rows (features.take_rows), in shuffled order, so no step allocates or
reads an F x d array.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .artifacts import write_atomic
from .exceptions import NonFiniteError, ValidationError
from .features import Featurizer, take_rows
from .model import (
    LLConfig,
    ModelParams,
    batch_loss_and_gradients,
    column_map,
    forward_batch,
)
from .rng import Rng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    batch_size: int = 128
    epochs: int = 30
    learning_rate: float = 1e-3
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
        # the checkpoint header stores d as u32
        if not 1 <= self.embed_dim < 2**32:
            raise ValidationError(f"embed_dim must be in [1, 2^32), got {self.embed_dim}")
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
        return json.dumps(asdict(self))


TrainHistory = list[EpochRecord]


def save_history(history: TrainHistory, path) -> None:
    """One epoch per line, JSON."""
    write_atomic(path, "".join(rec.to_json() + "\n" for rec in history))


@dataclass
class AdamState:
    """Adam moments per tensor. ``adam_step`` consumes the gradients it is
    given: each becomes the work array of its own update."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        tensors = params.tensors()
        return cls(
            m={k: np.zeros_like(t) for k, t in tensors.items()},
            v={k: np.zeros_like(t) for k, t in tensors.items()},
        )


def adam_step(
    params: ModelParams, grads: ModelParams, state: AdamState, config: TrainConfig
) -> None:
    """Standard bias-corrected Adam update, applied in place to params/state.

    Every tensor updates whole. The step consumes ``grads``: each gradient
    array is overwritten as its update's numerator, so a caller that needs
    a gradient afterwards passes a copy. A row whose gradient has been +-0
    at every step keeps its bits: its m and v stay +0.0, and the row loses
    +0.0. Under train, w1 is U x d.
    """
    gtensors = grads.tensors()
    for name, grad in gtensors.items():
        if not np.all(np.isfinite(grad)):
            raise NonFiniteError(
                f"non-finite gradient in tensor {name!r} at step {state.step + 1}"
            )
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for name, tensor in params.tensors().items():
        _adam_update(tensor, gtensors[name], state.m[name], state.v[name],
                     bc1, bc2, config.learning_rate)


def _adam_update(tensor, g, m, v, bc1: float, bc2: float, lr: float) -> None:
    """tensor -= lr * (m / bc1) / (sqrt(v / bc2) + eps) after the moment
    updates, with ``g`` as the numerator's work array, one temporary for the
    denominator and every operation in the order of that expression, so the
    bits are those of the plain form (``tests/oracles.py::dense_adam_step``)."""
    den = g * g
    g *= 1.0 - ADAM_BETA1
    m *= ADAM_BETA1
    m += g
    v *= ADAM_BETA2
    den *= 1.0 - ADAM_BETA2
    v += den
    np.divide(m, bc1, out=g)
    g *= lr
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += ADAM_EPS
    g /= den
    tensor -= g


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
    train_set.validate()  # every label in [0, num_labels)
    if train_set.n == 0:
        raise ValidationError("training set is empty")
    n_classes = train_set.num_labels

    row_ptr, cols, vals = featurizer.transform_rows(train_set.texts)
    y = np.asarray(train_set.labels, dtype=np.int64)
    dev_rows = y_dev = None
    if dev_set is not None and dev_set.n > 0:
        dev_rows = featurizer.transform_rows(dev_set.texts)
        y_dev = np.asarray(dev_set.labels, dtype=np.int64)

    used, compact = column_map(cols, featurizer.dim)
    if len(used) == 0:
        raise ValidationError("no training text yields a feature")
    rng = Rng(config.seed)
    params = init_params(featurizer.dim, config.embed_dim, n_classes, rng)
    rows = (row_ptr, compact, vals)
    work = ModelParams(**{**params.tensors(), "w1": params.w1[used]})
    state = AdamState.for_params(work)
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
                take_rows(rows, idx), y[idx], work, config.ll
            )
            if not np.isfinite(breakdown.total):
                raise NonFiniteError(
                    f"non-finite loss at epoch {epoch + 1}, batch start {start}"
                )
            # norms first: Adam overwrites the gradients
            norm_sums += [math.sqrt((g * g).sum()) for g in grads.tensors().values()]
            adam_step(work, grads, state, config)
            del grads  # so the next step's gradients do not sit beside these
            sums += np.array(
                [breakdown.ce, breakdown.kl, breakdown.cl, breakdown.active_hinge_fraction]
            ) * len(idx)
            steps += 1
        ce, kl, cl, active = (sums / n).tolist()
        dev_acc = None
        if dev_rows is not None:
            params.w1[used] = work.w1
            dev_acc = _accuracy(params, dev_rows, y_dev)
        history.append(
            EpochRecord(
                epoch=epoch + 1, ce=ce, kl=kl, cl=cl, total=ce + kl + cl,
                dev_accuracy=dev_acc,
                grad_norm=dict(zip(state.m, (norm_sums / steps).tolist())),
                active_hinge_fraction=active,
            )
        )
    params.w1[used] = work.w1
    return params, history


def evaluate(params: ModelParams, featurizer: Featurizer, dataset) -> float:
    """Fraction of examples whose argmax prediction matches the gold label."""
    if dataset.n == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    y = np.asarray(dataset.labels, dtype=np.int64)
    if np.any(y >= params.n_classes):
        raise ValidationError("dataset labels exceed the model's class count")
    return _accuracy(params, featurizer.transform_rows(dataset.texts), y)
