"""Dataset handling and the experiment protocols.

Experiments repeat R times; repeat r (1-based) derives its seeds from the
master seed as ``split = seed + r`` and then xor tags for training and noise
(so every report row sees identical partitions: paired repeats). Reports
carry per-row accuracy lists plus mean and sample standard deviation, and
serialize to a stable JSON document and an aligned plaintext table; wall
clock time is kept in memory only so identical runs emit identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cache
from pathlib import Path
from statistics import stdev

import numpy as np

from .artifacts import read_artifact, write_atomic
from .exceptions import ValidationError
from .features import FeaturizerConfig, fit_featurizer, fnv1a64
from .model import LLConfig, ModelParams, model_fingerprint
from .rng import Rng
from .stores import InferenceConfig, build_stores, predict
from .trainer import TrainConfig, evaluate, train

TAG_TRAIN = 0x545241494E  # "TRAIN"
TAG_NOISE = 0x4E4F495345  # "NOISE"
TAG_NOISE_TEST = 0x4E54455354  # "NTEST"


@dataclass
class Dataset:
    """Labeled texts with a label vocabulary and optional coarse grouping.

    coarse_of_label maps a label index to its group id; it exists iff every
    source record carried a coarse field.
    """

    texts: list[str]
    labels: list[int]
    label_names: list[str]
    coarse_of_label: list[int] | None = None
    coarse_names: list[str] | None = None

    @property
    def n(self) -> int:
        return len(self.texts)

    @property
    def num_labels(self) -> int:
        return len(self.label_names)

    def validate(self) -> None:
        if len(self.labels) != len(self.texts):
            raise ValidationError("texts and labels differ in length")
        c = self.num_labels
        if any(not 0 <= lab < c for lab in self.labels):
            raise ValidationError("label index outside the vocabulary")
        if self.coarse_of_label is not None:
            if len(self.coarse_of_label) != c:
                raise ValidationError("coarse mapping must cover every label")

    def subset(self, indices) -> "Dataset":
        return Dataset(
            texts=[self.texts[i] for i in indices],
            labels=[self.labels[i] for i in indices],
            label_names=self.label_names,
            coarse_of_label=self.coarse_of_label,
            coarse_names=self.coarse_names,
        )

    def group_members(self) -> dict[int, list[int]]:
        """group id -> sorted label indices (requires coarse grouping)."""
        assert self.coarse_of_label is not None
        members: dict[int, list[int]] = {}
        for lab, grp in enumerate(self.coarse_of_label):
            members.setdefault(grp, []).append(lab)
        return members


# ---------------------------------------------------------------------------
# loading


def _read_records(path: Path, raw: io.BytesIO, fmt: str) -> list[tuple[str, str, str | None]]:
    """(text, label, coarse or None) per record of a JSONL or CSV file's
    bytes, decoded and split into lines as ``open`` would do it."""
    records: list[tuple[str, str, str | None]] = []
    if fmt == "jsonl":
        for lineno, line in enumerate(io.TextIOWrapper(raw, encoding="utf-8"), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
                raise ValidationError(
                    f"{path}:{lineno}: record must have 'text' and 'label'"
                )
            text, label, coarse = obj["text"], obj["label"], obj.get("coarse")
            if type(text) is not str:
                raise ValidationError(f"{path}:{lineno}: 'text' must be a string")
            for key, value in (("label", label), ("coarse", coarse)):
                # bool is an int subclass, so the types are compared exactly
                if type(value) not in (str, int) and (key == "label" or value is not None):
                    raise ValidationError(
                        f"{path}:{lineno}: '{key}' must be a string or an integer"
                    )
            records.append((text, str(label), None if coarse is None else str(coarse)))
    else:
        reader = csv.reader(io.TextIOWrapper(raw, encoding="utf-8", newline=""))
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        cols = [h.strip() for h in header]
        if cols[:2] != ["text", "label"] or (
            len(cols) > 2 and cols[2] != "coarse"
        ) or len(cols) > 3:
            raise ValidationError(
                f"{path}:1: header must be text,label[,coarse], got {header}"
            )
        has_coarse = len(cols) == 3
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(cols):
                raise ValidationError(
                    f"{path}:{lineno}: expected {len(cols)} fields, got {len(row)}"
                )
            records.append(
                (row[0], row[1], row[2] if has_coarse else None)
            )
    return records


def _dataset_format(path: Path, fmt: str | None) -> str:
    """``fmt`` if given, else "csv" for a .csv suffix and "jsonl" otherwise."""
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise ValidationError(f"unknown dataset format {fmt!r}")
    return fmt


def load_dataset(path, fmt: str | None = None) -> Dataset:
    """Read JSONL ({"text","label","coarse"?}) or CSV (header text,label[,coarse]).

    The label vocabulary is built in first-occurrence order. The coarse
    mapping is populated iff every record carries a coarse value, and a label
    must map to the same coarse value everywhere.
    """
    path = Path(path)
    fmt = _dataset_format(path, fmt)

    raw = io.BytesIO(read_artifact(path, "dataset"))
    try:
        records = _read_records(path, raw, fmt)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8: {exc}") from None
    if not records:
        raise ValidationError(f"{path}: no records")

    with_coarse = sum(1 for _, _, coarse in records if coarse is not None)
    if 0 < with_coarse < len(records):
        raise ValidationError(
            f"{path}: coarse field present on {with_coarse} of {len(records)} records;"
            " it must be on all or none"
        )

    label_ids: dict[str, int] = {}
    label_names: list[str] = []
    coarse_ids: dict[str, int] = {}
    coarse_names: list[str] = []
    coarse_of_label: dict[int, int] = {}
    texts: list[str] = []
    labels: list[int] = []
    for text, label, coarse in records:
        if label not in label_ids:
            label_ids[label] = len(label_names)
            label_names.append(label)
        lab = label_ids[label]
        texts.append(text)
        labels.append(lab)
        if with_coarse:
            if coarse not in coarse_ids:
                coarse_ids[coarse] = len(coarse_names)
                coarse_names.append(coarse)
            grp = coarse_ids[coarse]
            if lab in coarse_of_label and coarse_of_label[lab] != grp:
                raise ValidationError(
                    f"{path}: label {label!r} appears under two coarse groups"
                )
            coarse_of_label[lab] = grp

    dataset = Dataset(
        texts=texts,
        labels=labels,
        label_names=label_names,
        coarse_of_label=(
            [coarse_of_label[i] for i in range(len(label_names))] if with_coarse else None
        ),
        coarse_names=coarse_names if with_coarse else None,
    )
    dataset.validate()
    return dataset


def save_dataset(dataset: Dataset, path, fmt: str | None = None) -> None:
    """Write JSONL or CSV (by ``fmt``, else by suffix) through write_atomic,
    so a failed write leaves any old file as it was."""
    path = Path(path)
    fmt = _dataset_format(path, fmt)
    cols = ["text", "label"] + (["coarse"] if dataset.coarse_of_label is not None else [])
    # encoded as it is written, so only the file's bytes are held at once
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="")
    writer = csv.writer(out)
    if fmt == "csv":
        writer.writerow(cols)
    for text, lab in zip(dataset.texts, dataset.labels):
        row = {"text": text, "label": dataset.label_names[lab]}
        if dataset.coarse_of_label is not None:
            row["coarse"] = dataset.coarse_names[dataset.coarse_of_label[lab]]
        if fmt == "jsonl":
            out.write(json.dumps(row) + "\n")
        else:
            writer.writerow([row[col] for col in cols])
    out.flush()
    write_atomic(path, buf.getvalue())


# ---------------------------------------------------------------------------
# splitting and label noise


def split(dataset: Dataset, train_ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then prefix split at floor(ratio * N)."""
    if not 0.0 < train_ratio < 1.0:
        raise ValidationError("train_ratio must be strictly between 0 and 1")
    n = dataset.n
    cut = int(train_ratio * n)
    if cut == 0 or cut == n:
        raise ValidationError(
            f"split of {n} examples at ratio {train_ratio} leaves an empty side"
        )
    perm = Rng(seed).permutation(n)
    return dataset.subset(perm[:cut]), dataset.subset(perm[cut:])


def _check_noise_ratio(ratio: float) -> None:
    if not 0.0 <= ratio <= 1.0:
        raise ValidationError("noise_ratio must be in [0, 1]")


def inject_noise(dataset: Dataset, noise_ratio: float, seed: int) -> Dataset:
    """Relabel floor(ratio * N) examples chosen uniformly without replacement.

    Each victim receives a uniformly random different label from its coarse
    group (or from all other labels when no grouping exists). Pure function:
    the input dataset is never modified. Draw order: one permutation selects
    the victims (prefix, in permutation order), then one bounded draw per
    victim chooses the replacement from the sorted candidate list.
    """
    _check_noise_ratio(noise_ratio)
    n = dataset.n
    count = int(noise_ratio * n)
    labels = list(dataset.labels)
    rng = Rng(seed)
    victims = rng.permutation(n)[:count]
    grouped = dataset.coarse_of_label is not None
    members = dataset.group_members() if grouped else None
    c = dataset.num_labels
    for idx in victims:
        old = labels[idx]
        if grouped:
            pool = members[dataset.coarse_of_label[old]]
            candidates = [lab for lab in pool if lab != old]
            if not candidates:
                raise ValidationError(
                    f"cannot mislabel within a single-label coarse group "
                    f"(label {dataset.label_names[old]!r})"
                )
        else:
            candidates = [lab for lab in range(c) if lab != old]
            if not candidates:
                raise ValidationError("cannot inject noise with a single label")
        labels[idx] = candidates[rng.bounded(len(candidates))]
    return replace(dataset, texts=list(dataset.texts), labels=labels)


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class SyntheticSpec:
    """Corpus generator: fine labels partitioned into coarse groups, with
    heavy token overlap inside a group and weak overlap across groups.

    Each label owns n_templates prototype token bags drawn from its mixture;
    a document copies one prototype slot by slot, resampling each slot from
    the mixture with probability `resample`. Prototype mates are therefore
    near-duplicates (a strong retrieval signal), while per-token label
    evidence stays weak. n_templates=0 draws every token independently.
    """

    n: int = 2000
    n_labels: int = 10
    n_groups: int = 3
    seed: int = 0
    min_len: int = 20
    max_len: int = 50
    label_vocab: int = 12
    group_vocab: int = 40
    common_vocab: int = 30
    p_label: float = 0.05
    p_group: float = 0.58
    p_other_group: float = 0.12  # leakage from other groups' vocabularies
    n_templates: int = 12
    resample: float = 0.35

    def validate(self) -> None:
        if self.n < 1 or self.n_labels < 2 or self.n_groups < 1:
            raise ValidationError("synthetic spec needs n >= 1 and >= 2 labels")
        if self.n_groups > self.n_labels:
            raise ValidationError("more groups than labels")
        if not 0 < self.min_len <= self.max_len:
            raise ValidationError("bad document length range")
        if self.p_label + self.p_group + self.p_other_group > 1.0:
            raise ValidationError("token mixture probabilities exceed 1")
        if self.n_templates < 0 or not 0.0 <= self.resample <= 1.0:
            raise ValidationError("bad template parameters")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset (labels assigned round-robin)."""
    spec.validate()
    rng = Rng(spec.seed)
    group_of = [lab * spec.n_groups // spec.n_labels for lab in range(spec.n_labels)]
    label_pool = [
        [f"l{lab}w{j}" for j in range(spec.label_vocab)] for lab in range(spec.n_labels)
    ]
    group_pool = [
        [f"g{grp}w{j}" for j in range(spec.group_vocab)] for grp in range(spec.n_groups)
    ]
    common_pool = [f"c{j}" for j in range(spec.common_vocab)]
    other_groups = [
        [g for g in range(spec.n_groups) if g != grp] for grp in range(spec.n_groups)
    ]

    def draw_token(lab: int, grp: int) -> str:
        r = rng.uniform()
        if r < spec.p_label:
            pool = label_pool[lab]
        elif r < spec.p_label + spec.p_group:
            pool = group_pool[grp]
        elif r < spec.p_label + spec.p_group + spec.p_other_group and other_groups[grp]:
            other = other_groups[grp][rng.bounded(len(other_groups[grp]))]
            pool = group_pool[other]
        else:
            pool = common_pool
        return pool[rng.bounded(len(pool))]

    span = spec.max_len - spec.min_len + 1
    templates: list[list[list[str]]] = []
    if spec.n_templates > 0:
        for lab in range(spec.n_labels):
            grp = group_of[lab]
            templates.append(
                [
                    [draw_token(lab, grp) for _ in range(spec.min_len + rng.bounded(span))]
                    for _ in range(spec.n_templates)
                ]
            )

    texts: list[str] = []
    labels: list[int] = []
    for i in range(spec.n):
        lab = i % spec.n_labels
        grp = group_of[lab]
        if spec.n_templates > 0:
            base = templates[lab][rng.bounded(spec.n_templates)]
            tokens = [
                draw_token(lab, grp) if rng.uniform() < spec.resample else tok
                for tok in base
            ]
        else:
            tokens = [
                draw_token(lab, grp) for _ in range(spec.min_len + rng.bounded(span))
            ]
        texts.append(" ".join(tokens))
        labels.append(lab)
    return Dataset(
        texts=texts,
        labels=labels,
        label_names=[f"label{lab}" for lab in range(spec.n_labels)],
        coarse_of_label=group_of,
        coarse_names=[f"group{g}" for g in range(spec.n_groups)],
    )


# ---------------------------------------------------------------------------
# experiment engine


@dataclass
class ExperimentConfig:
    dataset: Dataset
    seed: int = 0
    repeats: int = 5
    train_ratio: float = 0.7
    featurizer: FeaturizerConfig = field(default_factory=FeaturizerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    noise_ratio: float = 0.0
    noise_test: bool = False

    def validate(self) -> None:
        if self.repeats < 1:
            raise ValidationError("repeats must be >= 1")
        _check_noise_ratio(self.noise_ratio)
        self.featurizer.validate()
        self.train.validate()
        self.inference.validate()
        self.dataset.validate()


@dataclass
class ReportRow:
    config: str
    mean: float
    std: float
    repeats: list[float]


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    meta: dict
    wall_clock: float  # seconds; in-memory only, not serialized

    def to_json(self) -> str:
        doc = {"rows": [asdict(r) for r in self.rows], "meta": self.meta}
        return json.dumps(doc, indent=2) + "\n"

    def to_table(self) -> str:
        width = max([len("config")] + [len(r.config) for r in self.rows])
        out = io.StringIO()
        header = f"{'config':<{width}}  {'mean':>8}  {'std':>8}  repeats"
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for r in self.rows:
            reps = " ".join(f"{v:.4f}" for v in r.repeats)
            out.write(f"{r.config:<{width}}  {r.mean:8.4f}  {r.std:8.4f}  {reps}\n")
        return out.getvalue()

    def save(self, out_dir) -> tuple[Path, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        json_path = out_dir / "report.json"
        table_path = out_dir / "report.txt"
        write_atomic(json_path, self.to_json())
        write_atomic(table_path, self.to_table())
        return json_path, table_path

    def row(self, config_id: str) -> ReportRow:
        for r in self.rows:
            if r.config == config_id:
                return r
        raise KeyError(config_id)


def _row_stats(config_id: str, values: list[float]) -> ReportRow:
    mean = float(np.mean(values))
    std = float(stdev(values)) if len(values) > 1 else 0.0
    return ReportRow(config=config_id, mean=mean, std=std, repeats=values)


@dataclass
class RowSpec:
    """One report row: which training variant and which inference mode."""

    config_id: str
    ll: LLConfig
    inference: InferenceConfig | None  # None = pure model evaluation
    noise_ratio: float | None = None  # None = use the experiment default


def _split_hash(train_set: Dataset, test_set: Dataset) -> int:
    parts = []
    for part in (train_set, test_set):
        parts.append("\x1f".join(part.texts))
        parts.append(",".join(map(str, part.labels)))
    return fnv1a64("\x1e".join(parts))


def _run_repeat(
    cfg: ExperimentConfig, rows: list[RowSpec], r: int
) -> tuple[int, list[float]]:
    """The split hash of repeat r (1-based) and the accuracy of every row.
    Paired discipline: the split/noise/train seeds depend only on
    (master seed, r)."""
    split_seed = cfg.seed + r
    train_seed = split_seed ^ TAG_TRAIN
    base_train, base_test = split(cfg.dataset, cfg.train_ratio, split_seed)

    featurizer = fit_featurizer(base_train.texts, cfg.featurizer)

    @cache
    def noisy_sets(ratio: float) -> tuple[Dataset, Dataset]:
        tr, te = base_train, base_test
        if ratio > 0.0:
            tr = inject_noise(tr, ratio, split_seed ^ TAG_NOISE)
            if cfg.noise_test:
                te = inject_noise(te, ratio, split_seed ^ TAG_NOISE_TEST)
        return tr, te

    @cache
    def get_model(ll: LLConfig, ratio: float) -> tuple[ModelParams, int]:
        tr, _ = noisy_sets(ratio)
        tcfg = replace(cfg.train, seed=train_seed, ll=ll)
        params, _hist = train(tr, None, featurizer, tcfg)
        return params, model_fingerprint(params)

    @cache
    def get_stores(ll: LLConfig, ratio: float):
        params, _fp = get_model(ll, ratio)
        tr, _ = noisy_sets(ratio)
        return build_stores(params, featurizer, tr)

    accuracies: list[float] = []
    for row in rows:
        ratio = cfg.noise_ratio if row.noise_ratio is None else row.noise_ratio
        params, fp = get_model(row.ll, ratio)
        _, test_set = noisy_sets(ratio)
        if row.inference is None or not (
            row.inference.use_text_knn or row.inference.use_pro_knn
        ):
            accuracies.append(evaluate(params, featurizer, test_set))
        else:
            s_text, s_pro = get_stores(row.ll, ratio)
            hits = 0
            for text, gold in zip(test_set.texts, test_set.labels):
                breakdown = predict(
                    text, params, featurizer, s_text, s_pro, row.inference,
                    fingerprint=fp,
                )
                hits += int(breakdown.label == gold)
            accuracies.append(hits / test_set.n)
    return _split_hash(base_train, base_test), accuracies


def _execute(cfg: ExperimentConfig, rows: list[RowSpec]) -> ExperimentReport:
    cfg.validate()
    for row in rows:  # every row, before the first repeat trains a model
        row.ll.validate()
        if row.inference is not None:
            row.inference.validate()
        if row.noise_ratio is not None:
            _check_noise_ratio(row.noise_ratio)
    started = time.monotonic()
    per_repeat = [_run_repeat(cfg, rows, r) for r in range(1, cfg.repeats + 1)]

    report_rows = []
    for i, row in enumerate(rows):
        values = [accuracies[i] for _, accuracies in per_repeat]
        report_rows.append(_row_stats(row.config_id, values))

    meta = {
        "seed": cfg.seed,
        "repeats": cfg.repeats,
        "train_ratio": cfg.train_ratio,
        "dataset_size": cfg.dataset.n,
        "num_labels": cfg.dataset.num_labels,
        "noise_ratio": cfg.noise_ratio,
        "split_hashes": [f"{split_hash:016x}" for split_hash, _ in per_repeat],
    }
    return ExperimentReport(
        rows=report_rows, meta=meta, wall_clock=time.monotonic() - started
    )


def run_experiment(
    cfg: ExperimentConfig, rows: list[RowSpec] | None = None
) -> ExperimentReport:
    """Default report: the pure model and the kNN-augmented model, sharing
    splits and training across rows."""
    if rows is None:
        rows = [
            RowSpec("model", cfg.train.ll, None),
            RowSpec("dknn", cfg.train.ll, cfg.inference),
        ]
    return _execute(cfg, rows)


def ablation_suite(cfg: ExperimentConfig) -> ExperimentReport:
    """The eight standard rows: base and label-distribution training, each
    with/without retrieval, single-module retrieval, and single-loss runs."""
    base = replace(cfg.train.ll, enable_kl=False, enable_cl=False)
    ll = replace(cfg.train.ll, enable_kl=True, enable_cl=True)
    kl_only = replace(cfg.train.ll, enable_kl=True, enable_cl=False)
    cl_only = replace(cfg.train.ll, enable_kl=False, enable_cl=True)
    inf = cfg.inference
    both = replace(inf, use_text_knn=True, use_pro_knn=True)
    text_only = replace(inf, use_text_knn=True, use_pro_knn=False)
    pro_only = replace(inf, use_text_knn=False, use_pro_knn=True)
    rows = [
        RowSpec("base", base, None),
        RowSpec("base+dknn", base, both),
        RowSpec("ll", ll, None),
        RowSpec("ll+dknn", ll, both),
        RowSpec("ll+dknn-wo-pro", ll, text_only),
        RowSpec("ll+dknn-wo-text", ll, pro_only),
        RowSpec("ce+kl", kl_only, None),
        RowSpec("ce+cl", cl_only, None),
    ]
    return _execute(cfg, rows)


SWEEP_PARAMS = ("k", "lambda", "noise_ratio")


def sweep(cfg: ExperimentConfig, parameter: str, values: list[float]) -> ExperimentReport:
    """One row per value, paired across values. k=0 and lambda=0 rows are the
    pure-model evaluation."""
    if parameter not in SWEEP_PARAMS:
        raise ValidationError(f"unknown sweep parameter {parameter!r}")
    if not values:
        raise ValidationError("sweep needs at least one value")
    rows = []
    for value in values:
        if parameter == "k":
            if not float(value).is_integer():
                raise ValidationError(f"k must be a whole number, got {value}")
            k = int(value)
            if k < 0:
                raise ValidationError("k must be >= 0")
            inference = replace(cfg.inference, k=k) if k else None
            rows.append(RowSpec(f"k={k}", cfg.train.ll, inference))
        elif parameter == "lambda":
            lam = float(value) or 0.0  # -0.0 names the lambda=0 row too
            inference = replace(cfg.inference, lam=lam) if lam else None
            rows.append(RowSpec(f"lambda={lam:g}", cfg.train.ll, inference))
        else:
            ratio = float(value)
            rows.append(RowSpec(f"noise={ratio:g}", cfg.train.ll, cfg.inference,
                                noise_ratio=ratio))
    return _execute(cfg, rows)
