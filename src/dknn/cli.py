"""Command-line interface.

Commands: train, build-store, predict, experiment, ablate, sweep, noise,
export-store, gen-synth. Every option can also come from a flat key=value
config file (``--config``); precedence is built-in default < config file <
command-line flag, last occurrence wins. Lines starting with '#' and blank
lines are ignored; keys are the long flag names with '-' replaced by '_'.

All randomness flows from --seed: each command derives its working seed as
``seed XOR fnv1a64(command-name)`` so different subcommands draw from
unrelated streams of the same user seed.

Exit codes: 0 success, 2 usage/validation error, 3 inconsistent artifacts
(e.g. stale store fingerprint), 4 corrupt file. The environment variable
DKNN_THREADS caps worker parallelism for repeated experiments.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .artifacts import write_atomic
from .exceptions import (
    ArtifactMismatchError,
    CorruptArtifactError,
    DknnError,
    NonFiniteError,
    ValidationError,
)
from .features import Featurizer, FeaturizerConfig, fit_featurizer, fnv1a64
from .harness import (
    Dataset,
    ExperimentConfig,
    SyntheticSpec,
    ablation_suite,
    generate_synthetic,
    load_dataset,
    run_experiment,
    save_dataset,
    split,
    sweep,
)
from .model import (
    LLConfig,
    ModelParams,
    load_checkpoint,
    save_checkpoint,
)
from .stores import InferenceConfig, build_stores, iter_predictions, load_store, save_store
from .trainer import TrainConfig, save_history, train


def _sub_seed(seed: int, command: str) -> int:
    return (seed ^ fnv1a64(command)) & ((1 << 64) - 1)


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ValidationError(f"config key {key!r}: cannot parse boolean from {raw!r}")


def _read_utf8(path: Path) -> str:
    try:
        return path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8: {exc}") from None


def load_config_file(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(_read_utf8(path).splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


class Option:
    """One merged option: CLI flag + config-file key + typed default."""

    def __init__(self, name, default=None, kind="str", help=""):
        self.name = name  # long flag without leading dashes
        self.key = name.replace("-", "_")
        self.default = default
        self.kind = kind  # str | int | float | bool | flag | floats
        self.help = help

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        flag = "--" + self.name
        if self.kind == "flag":
            parser.add_argument(flag, dest=self.key, action="store_const", const=True,
                                default=None, help=self.help)
        else:
            parser.add_argument(flag, dest=self.key, default=None, help=self.help)

    def convert(self, raw):
        if raw is None or isinstance(raw, bool):
            return raw
        if self.kind == "int":
            return self._number(int, raw)
        if self.kind == "float":
            return self._number(float, raw)
        if self.kind in ("bool", "flag"):
            return _parse_bool(str(raw), self.key)
        if self.kind == "floats":
            if isinstance(raw, (list, tuple)):
                return [self._number(float, v) for v in raw]
            parts = [p for p in str(raw).split(",") if p.strip() != ""]
            if not parts:
                raise ValidationError(f"{self.key}: empty value list")
            return [self._number(float, p) for p in parts]
        return str(raw)

    def _number(self, kind, raw):
        try:
            return kind(raw)
        except (TypeError, ValueError):
            raise ValidationError(
                f"{self.key}: cannot parse {kind.__name__} from {raw!r}"
            ) from None


_COMMON = [
    Option("config", None, "str", "flat key=value config file"),
    Option("seed", 0, "int", "master seed; all randomness derives from it"),
]

_TRAINING = [
    Option("epochs", 30, "int"),
    Option("batch-size", 128, "int"),
    Option("learning-rate", 1e-3, "float"),
    Option("embed-dim", 64, "int"),
    Option("featurizer", "hashing", "str", "hashing | tfidf"),
    Option("feature-dim", 4096, "int", "hashing dimension"),
    Option("no-lowercase", False, "flag"),
    Option("ll", True, "bool", "on|off: enable both label-distribution losses"),
    Option("kl", None, "bool", "override the KL loss alone"),
    Option("cl", None, "bool", "override the contrastive loss alone"),
    Option("rho", 0.5, "float", "contrastive margin in [0,1]"),
]

_INFERENCE = [
    Option("k", 16, "int", "neighbors per store"),
    Option("lambda", 0.5, "float", "weight on the kNN distribution"),
    Option("no-text-knn", False, "flag"),
    Option("no-pro-knn", False, "flag"),
]

_EXPERIMENT = [
    Option("dataset", None, "str"),
    Option("format", None, "str", "jsonl | csv (default: by extension)"),
    Option("out", None, "str"),
    Option("repeats", 5, "int"),
    Option("train-ratio", 0.7, "float"),
    Option("noise-ratio", 0.0, "float"),
    Option("noise-test", False, "flag", "also corrupt test labels"),
]

_OPTIONS: dict[str, list[Option]] = {
    "train": _COMMON
    + _TRAINING
    + [
        Option("dataset", None, "str"),
        Option("format", None, "str"),
        Option("out", None, "str"),
        Option("dev-ratio", 0.1, "float", "held-out fraction for per-epoch accuracy"),
    ],
    "build-store": _COMMON
    + [
        Option("checkpoint", None, "str"),
        Option("featurizer-file", None, "str", "sidecar JSON (default: next to checkpoint)"),
        Option("dataset", None, "str"),
        Option("format", None, "str"),
        Option("out", None, "str"),
    ],
    "predict": _COMMON
    + _INFERENCE
    + [
        Option("checkpoint", None, "str"),
        Option("featurizer-file", None, "str"),
        Option("text-store", None, "str"),
        Option("pro-store", None, "str"),
        Option("text", None, "str"),
        Option("file", None, "str", "one input text per line"),
        Option("explain", False, "flag",
               "add each store's neighbors as [index, distance, label]"),
    ],
    "experiment": _COMMON + _TRAINING + _INFERENCE + _EXPERIMENT,
    "ablate": _COMMON + _TRAINING + _INFERENCE + _EXPERIMENT,
    "sweep": _COMMON
    + _TRAINING
    + _INFERENCE
    + _EXPERIMENT
    + [
        Option("param", None, "str", "k | lambda | noise_ratio"),
        Option("values", None, "floats", "comma-separated sweep values"),
    ],
    "noise": _COMMON
    + _TRAINING
    + _INFERENCE
    + _EXPERIMENT
    + [Option("ratios", None, "floats", "comma-separated noise ratios")],
    "export-store": _COMMON
    + [Option("store", None, "str"), Option("out", None, "str", "TSV path (default stdout)")],
    "gen-synth": _COMMON
    + [
        Option("out", None, "str"),
        Option("format", None, "str"),
        Option("n", 2000, "int"),
        Option("labels", 10, "int"),
        Option("groups", 3, "int"),
    ],
}


def _effective(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < CLI flags, with type conversion + validation."""
    options = {opt.key: opt for opt in _OPTIONS[command]}
    merged = {key: opt.default for key, opt in options.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = load_config_file(Path(config_path))
        for key, raw in file_values.items():
            if key not in options:
                raise ValidationError(f"config key {key!r} is not valid for {command}")
            merged[key] = options[key].convert(raw)
        merged["config"] = str(config_path)
    for key, opt in options.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            merged[key] = opt.convert(cli_value)
    return merged


def _echo_config(cfg: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{key}={cfg[key]}" for key in sorted(cfg)]
    write_atomic(out_dir / "effective_config.txt", "\n".join(lines) + "\n")


def _require(cfg: dict, key: str) -> object:
    if cfg.get(key) in (None, ""):
        raise ValidationError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _load_dataset(cfg: dict) -> Dataset:
    path = Path(str(_require(cfg, "dataset")))
    if not path.is_file():
        raise ValidationError(f"dataset file not found: {path}")
    return load_dataset(path, cfg.get("format"))


def _ll_config(cfg: dict) -> LLConfig:
    on = bool(cfg["ll"])
    kl = cfg["kl"] if cfg.get("kl") is not None else on
    cl = cfg["cl"] if cfg.get("cl") is not None else on
    ll = LLConfig(rho=float(cfg["rho"]), enable_kl=bool(kl), enable_cl=bool(cl))
    ll.validate()
    return ll


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    tcfg = TrainConfig(
        batch_size=int(cfg["batch_size"]),
        epochs=int(cfg["epochs"]),
        learning_rate=float(cfg["learning_rate"]),
        embed_dim=int(cfg["embed_dim"]),
        seed=seed,
        ll=_ll_config(cfg),
    )
    tcfg.validate()
    return tcfg


def _featurizer_config(cfg: dict) -> FeaturizerConfig:
    fcfg = FeaturizerConfig(
        mode=str(cfg["featurizer"]),
        dim=int(cfg["feature_dim"]),
        lowercase=not bool(cfg["no_lowercase"]),
    )
    fcfg.validate()
    return fcfg


def _inference_config(cfg: dict) -> InferenceConfig:
    icfg = InferenceConfig(
        k=int(cfg["k"]),
        lam=float(cfg["lambda"]),
        use_text_knn=not bool(cfg["no_text_knn"]),
        use_pro_knn=not bool(cfg["no_pro_knn"]),
    )
    icfg.validate()
    return icfg


def _save_featurizer(featurizer: Featurizer, label_names: list[str], path: Path) -> None:
    doc = {"featurizer": featurizer.to_dict(), "label_names": label_names}
    write_atomic(path, json.dumps(doc, indent=2) + "\n")


def _load_featurizer(path: Path) -> tuple[Featurizer, list[str]]:
    if not path.is_file():
        raise ValidationError(f"featurizer file not found: {path}")
    try:
        doc = json.loads(path.read_text("utf-8"))
        return Featurizer.from_dict(doc["featurizer"]), list(doc["label_names"])
    except (KeyError, ValueError, TypeError) as exc:
        raise CorruptArtifactError(f"{path}: invalid featurizer file: {exc}") from exc


def _load_model(cfg: dict) -> tuple[Path, ModelParams, Featurizer, list[str]]:
    """Checkpoint plus its featurizer sidecar (default: next to the
    checkpoint), checked to agree on the feature dimension."""
    ckpt_path = Path(str(_require(cfg, "checkpoint")))
    if not ckpt_path.is_file():
        raise ValidationError(f"checkpoint not found: {ckpt_path}")
    params = load_checkpoint(ckpt_path)
    feat_path = Path(str(cfg["featurizer_file"] or ckpt_path.parent / "featurizer.json"))
    featurizer, label_names = _load_featurizer(feat_path)
    if featurizer.dim != params.feature_dim:
        raise ArtifactMismatchError(
            f"featurizer dim {featurizer.dim} != checkpoint feature dim "
            f"{params.feature_dim}"
        )
    return ckpt_path, params, featurizer, label_names


# ---------------------------------------------------------------------------
# commands


def _cmd_train(cfg: dict) -> int:
    out_dir = Path(str(_require(cfg, "out")))
    dataset = _load_dataset(cfg)
    seed = _sub_seed(int(cfg["seed"]), "train")
    tcfg = _train_config(cfg, seed)
    fcfg = _featurizer_config(cfg)
    dev_ratio = float(cfg["dev_ratio"])
    if not 0.0 <= dev_ratio < 1.0:
        raise ValidationError("dev-ratio must be in [0, 1)")
    _echo_config(cfg, out_dir)

    if dev_ratio > 0.0 and dataset.n >= 2:
        train_set, dev_set = split(dataset, 1.0 - dev_ratio, seed)
    else:
        train_set, dev_set = dataset, None
    featurizer = fit_featurizer(train_set.texts, fcfg)
    params, history = train(train_set, dev_set, featurizer, tcfg)
    save_checkpoint(params, out_dir / "checkpoint.dknm")
    save_history(history, out_dir / "history.jsonl")
    _save_featurizer(featurizer, dataset.label_names, out_dir / "featurizer.json")
    final = history[-1] if history else None
    if final is not None:
        acc = "n/a" if final.dev_accuracy is None else f"{final.dev_accuracy:.4f}"
        print(
            f"trained {tcfg.epochs} epochs; final loss {final.total:.4f}, dev acc {acc}"
        )
    print(f"wrote {out_dir / 'checkpoint.dknm'}")
    return 0


def _cmd_build_store(cfg: dict) -> int:
    out_dir = Path(str(_require(cfg, "out")))
    dataset = _load_dataset(cfg)
    _, params, featurizer, _names = _load_model(cfg)
    if dataset.num_labels > params.n_classes:
        raise ArtifactMismatchError(
            f"dataset has {dataset.num_labels} labels, model only {params.n_classes}"
        )
    _echo_config(cfg, out_dir)
    s_text, s_pro = build_stores(params, featurizer, dataset)
    save_store(s_text, out_dir / "store_text.dkns")
    save_store(s_pro, out_dir / "store_pro.dkns")
    print(f"wrote {out_dir / 'store_text.dkns'} and {out_dir / 'store_pro.dkns'} (N={s_text.n})")
    return 0


def _breakdown_json(text: str, breakdown, label_names: list[str], explain: bool) -> str:
    def listify(arr):
        return None if arr is None else [float(v) for v in arr]

    doc = {"text": text, "label": breakdown.label}
    if breakdown.label < len(label_names):
        doc["label_name"] = label_names[breakdown.label]
    doc["p_model"] = listify(breakdown.p_model)
    if breakdown.p_text_sharp is not None:
        doc["p_text_sharp"] = listify(breakdown.p_text_sharp)
    if breakdown.p_pro_sharp is not None:
        doc["p_pro_sharp"] = listify(breakdown.p_pro_sharp)
    if breakdown.p_knn is not None:
        doc["p_knn"] = listify(breakdown.p_knn)
    doc["p_final"] = listify(breakdown.p_final)
    if explain:
        doc["neighbors"] = {
            name: [[nb.index, nb.distance, nb.label] for nb in nbs]
            for name, nbs in (("text", breakdown.text_neighbors),
                              ("pro", breakdown.pro_neighbors))
            if nbs is not None
        }
    return json.dumps(doc)


def _cmd_predict(cfg: dict) -> int:
    ckpt_path, params, featurizer, label_names = _load_model(cfg)
    icfg = _inference_config(cfg)

    text_store = pro_store = None
    if icfg.use_text_knn:
        store_path = Path(str(cfg["text_store"] or ckpt_path.parent / "store_text.dkns"))
        if not store_path.is_file():
            raise ValidationError(f"text store not found: {store_path}")
        text_store = load_store(store_path)
    if icfg.use_pro_knn:
        store_path = Path(str(cfg["pro_store"] or ckpt_path.parent / "store_pro.dkns"))
        if not store_path.is_file():
            raise ValidationError(f"pro store not found: {store_path}")
        pro_store = load_store(store_path)

    if cfg.get("text") is not None:
        texts = [str(cfg["text"])]
    elif cfg.get("file"):
        input_path = Path(str(cfg["file"]))
        if not input_path.is_file():
            raise ValidationError(f"input file not found: {input_path}")
        texts = [ln for ln in _read_utf8(input_path).splitlines() if ln.strip()]
    else:
        raise ValidationError("predict needs --text or --file")

    breakdowns = iter_predictions(texts, params, featurizer, text_store, pro_store, icfg)
    for text, breakdown in zip(texts, breakdowns):
        print(_breakdown_json(text, breakdown, label_names, bool(cfg["explain"])))
    return 0


def _experiment_config(cfg: dict) -> ExperimentConfig:
    dataset = _load_dataset(cfg)
    seed = _sub_seed(int(cfg["seed"]), "experiment")
    ecfg = ExperimentConfig(
        dataset=dataset,
        seed=seed,
        repeats=int(cfg["repeats"]),
        train_ratio=float(cfg["train_ratio"]),
        featurizer=_featurizer_config(cfg),
        train=_train_config(cfg, seed),
        inference=_inference_config(cfg),
        noise_ratio=float(cfg["noise_ratio"]),
        noise_test=bool(cfg["noise_test"]),
    )
    ecfg.validate()
    return ecfg


def _finish_report(report, cfg: dict) -> int:
    out_dir = Path(str(_require(cfg, "out")))
    _echo_config(cfg, out_dir)
    json_path, table_path = report.save(out_dir)
    sys.stdout.write(report.to_table())
    print(f"wrote {json_path} and {table_path}")
    print(f"wall clock: {report.wall_clock:.1f}s", file=sys.stderr)
    return 0


def _cmd_experiment(cfg: dict) -> int:
    return _finish_report(run_experiment(_experiment_config(cfg)), cfg)


def _cmd_ablate(cfg: dict) -> int:
    return _finish_report(ablation_suite(_experiment_config(cfg)), cfg)


def _cmd_sweep(cfg: dict) -> int:
    param = str(_require(cfg, "param"))
    values = cfg.get("values")
    if not values:
        raise ValidationError("missing required option --values")
    return _finish_report(sweep(_experiment_config(cfg), param, list(values)), cfg)


def _cmd_noise(cfg: dict) -> int:
    ratios = cfg.get("ratios")
    if not ratios:
        raise ValidationError("missing required option --ratios")
    return _finish_report(
        sweep(_experiment_config(cfg), "noise_ratio", list(ratios)), cfg
    )


def _cmd_export_store(cfg: dict) -> int:
    store_path = Path(str(_require(cfg, "store")))
    if not store_path.is_file():
        raise ValidationError(f"store file not found: {store_path}")
    store = load_store(store_path)
    out = cfg.get("out")
    lines = ["\t".join(["label"] + [f"k{i}" for i in range(store.dim)])]
    for i in range(store.n):
        fields = [str(int(store.labels[i]))]
        fields += [repr(float(v)) for v in store.keys[i]]
        lines.append("\t".join(fields))
    body = "\n".join(lines) + "\n"
    if out:
        write_atomic(str(out), body)
        print(f"wrote {out} ({store.n} rows)")
    else:
        sys.stdout.write(body)
    return 0


def _cmd_gen_synth(cfg: dict) -> int:
    out_path = Path(str(_require(cfg, "out")))
    spec = SyntheticSpec(
        n=int(cfg["n"]),
        n_labels=int(cfg["labels"]),
        n_groups=int(cfg["groups"]),
        seed=_sub_seed(int(cfg["seed"]), "gen-synth"),
    )
    dataset = generate_synthetic(spec)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out_path, cfg.get("format"))
    print(f"wrote {out_path} ({dataset.n} examples, {dataset.num_labels} labels)")
    return 0


_HANDLERS = {
    "train": _cmd_train,
    "build-store": _cmd_build_store,
    "predict": _cmd_predict,
    "experiment": _cmd_experiment,
    "ablate": _cmd_ablate,
    "sweep": _cmd_sweep,
    "noise": _cmd_noise,
    "export-store": _cmd_export_store,
    "gen-synth": _cmd_gen_synth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dknn",
        description="dual-kNN augmented text classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        cmd_parser = sub.add_parser(command)
        for opt in options:
            opt.add_to(cmd_parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective(args.command, args)
        return _HANDLERS[args.command](cfg)
    except (ValidationError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArtifactMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CorruptArtifactError as exc:
        print(f"error: corrupt store or checkpoint: {exc}", file=sys.stderr)
        return 4
    except DknnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
