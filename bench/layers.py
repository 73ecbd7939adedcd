"""Which dknn functions the traced run wraps, and the per-layer metrics.

Span names reuse the stage vocabulary of the ROADMAP, so an in-program
timer can later report under the same names.
"""

from __future__ import annotations

import numpy as np

from dknn import cli, features, harness, mathcore, model, stores, trainer
from tracer import NAME, PARENT, PHASE

SPANS = [
    "features.featurize",
    "model.forward",
    "model.loss_backward",
    "model.fingerprint",
    "model.load",
    "stores.load",
    "trainer.adam",
    "trainer.train",
    "stores.build_store",
    "stores.search.l2",
    "stores.search.kl",
    "stores.distance.l2",
    "stores.distance.kl",
    "stores.combine",
    "stores.predict",
    "harness.experiment",
    "harness.generate",
    "cli.main",
]


def _count_featurize(tracer, args, result) -> None:
    tracer.counters["featurize.texts"] += 1
    tracer.counters["featurize.nonzeros"] += int(np.count_nonzero(result))
    tracer.seen.add(args[1])


def _count_search(tracer, args, result) -> None:
    tracer.counters["search.keys"] += args[0].n


def _search_name(store, *args) -> str:
    return f"stores.search.{store.metric.name.lower()}"


def _distance_name(store, *args) -> str:
    return f"stores.distance.{store.metric.name.lower()}"


def targets() -> list[tuple]:
    """``(owner, attribute, span name, counter hook)`` for Tracer.installed."""
    return [
        (features.Featurizer, "transform", "features.featurize", _count_featurize),
        (features.Featurizer, "transform_many", "features.featurize", None),
        (model, "forward_batch", "model.forward", None),
        (model, "encode", "model.forward", None),
        (model, "classify", "model.forward", None),
        (model, "batch_loss_and_gradients", "model.loss_backward", None),
        (model, "model_fingerprint", "model.fingerprint", None),
        (model, "load_checkpoint", "model.load", None),
        (stores, "load_store", "stores.load", None),
        (trainer, "adam_step", "trainer.adam", None),
        (trainer, "train", "trainer.train", None),
        (stores, "build_stores", "stores.build_store", None),
        (stores, "query", _search_name, _count_search),
        (stores.RepresentationStore, "distances", _distance_name, None),
        (stores, "neighbor_distribution", "stores.combine", None),
        (mathcore, "sharpen", "stores.combine", None),
        (stores, "combine_knn", "stores.combine", None),
        (stores, "interpolate", "stores.combine", None),
        (stores, "predict", "stores.predict", None),
        (harness, "ablation_suite", "harness.experiment", None),
        (harness, "generate_synthetic", "harness.generate", None),
        (cli, "main", "cli.main", None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fingerprints_per_text(tracer, phase: str | None = None) -> float:
    """Fingerprint spans directly under a stores.predict span, per predict
    call: the per-text rehash. ``phase`` limits the count to one phase."""
    spans = tracer.spans
    predicts = rehashes = 0
    for s in spans:
        if phase is not None and s[PHASE] != phase:
            continue
        if s[NAME] == "stores.predict":
            predicts += 1
        elif (s[NAME] == "model.fingerprint" and s[PARENT] >= 0
              and spans[s[PARENT]][NAME] == "stores.predict"):
            rehashes += 1
    return _ratio(rehashes, predicts)


def per_layer(tracer, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    values: dict[str, float] = {}
    for name, entry in tracer.summary(SPANS).items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]
    c = tracer.counters
    texts = c["featurize.texts"]
    values["features.featurize.distinct_ratio"] = _ratio(len(tracer.seen), texts)
    values["features.nnz_per_row"] = _ratio(c["featurize.nonzeros"], texts)
    values["stores.search.keys_scanned"] = c["search.keys"]
    values["model.fingerprint.per_text"] = fingerprints_per_text(tracer)
    values["model.fingerprint.per_text.stream"] = fingerprints_per_text(tracer, "stream")
    values["model.fingerprint.per_text.file"] = fingerprints_per_text(tracer, "file")
    values["trace.overhead_ratio"] = _ratio(traced_wall_s, untraced_wall_s)
    values["trace.unattributed_s"] = traced_wall_s - tracer.top_level_s()
    return values
