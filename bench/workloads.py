"""The benchmark workloads: serve and ablate.

Each workload is one closed-loop caller in one process: it issues the next
call only when the last one has returned. A workload body runs against a
``Pass``, which times its phases, checks every operation into a ``Ledger``
and collects metric values, output digests and measured traffic.

Every workload reports every end-to-end metric (the benchmark contract asks
for that), measured on that workload's own calls:

* serve:  ``dknn train`` at CLI-default shape (F=4096, 2 epochs on 8,000
  docs) and ``dknn build-store`` (N=8000) in set-up, then rounds of the
  ``stream`` and ``file`` predict phases. Search dominates.
* ablate: rounds of a one-repeat ``ablation_suite`` at F=512, with predict
  and training timed at the harness's own calls, and of ``file``, which
  serves the first repeat's ``ll`` model from files.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import io
import json
import math
import statistics
from pathlib import Path
from time import perf_counter as clock
from typing import NamedTuple

import numpy as np

from dknn import cli, features, harness, model, stores
from dknn.exceptions import DknnError
from dknn.features import FeaturizerConfig
from dknn.harness import ExperimentConfig, SyntheticSpec
from dknn.model import LLConfig
from dknn.stores import InferenceConfig
from dknn.trainer import TrainConfig
from tracer import swapped

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups per run
CHUNK = 100  # texts per stream batch and per `predict --file` call
P99_TEXTS = 1000  # 10 samples lie beyond the p99
ORACLE_SAMPLE = 8  # texts whose neighbor lists are checked per store

SERVE_DOCS = 10_000
SERVE_EPOCHS = 2

# The acceptance suite's ABLATION_CORPUS and experiment settings; only the
# seeds come from the run.
ABLATION_SPEC = dict(n=2000, n_labels=10, n_groups=3, n_templates=0,
                     p_label=0.05, label_vocab=8, p_group=0.58, p_other_group=0.12)
ABLATION_ROWS = ["base", "base+dknn", "ll", "ll+dknn", "ll+dknn-wo-pro",
                 "ll+dknn-wo-text", "ce+kl", "ce+cl"]


class BenchError(Exception):
    """A workload could not run to the end."""


def derive(seed: int, tag: str) -> int:
    """Per-workload seed derived from the run seed."""
    raw = hashlib.blake2b(f"{tag}:{seed}".encode(), digest_size=4).digest()
    return int.from_bytes(raw, "little") & 0x7FFFFFFF


def digest(*blobs: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_cli(argv: list[str]) -> str:
    """In-process ``dknn`` call; returns its stdout, raises on a nonzero exit."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise BenchError(f"dknn {argv[0]} exited {code}")
    return out.getvalue()


def reloads(blob: bytes) -> bool:
    """The checkpoint bytes parse and hold finite, consistent tensors."""
    try:
        model.params_from_bytes(blob).validate()
    except (ValueError, DknnError):
        return False
    return True


def is_prediction(p_final, label: int) -> bool:
    p = np.asarray(p_final, dtype=np.float64)
    return bool(np.all(np.isfinite(p)) and np.all(p >= 0.0)
                and abs(p.sum() - 1.0) <= 1e-9 and label == int(np.argmax(p)))


_PROBE_KEYS = np.linspace(-1.0, 1.0, 2000 * 64).reshape(2000, 64)


def host_probe() -> float:
    """Seconds for a fixed mix of numpy and interpreter work, recorded per
    round so that a run's figures can be read against the host's speed."""
    start = clock()
    for _ in range(10):
        dist = np.sqrt(((_PROBE_KEYS - 0.25) ** 2).sum(axis=1))
        best = heapq.nsmallest(16, zip(dist.tolist(), range(len(dist))))
    del best
    return clock() - start


class Ledger:
    """Checks made and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class Pass:
    """One execution of a workload body.

    An end-to-end pass repeats set-up and fills each phase's share of
    ``seconds``. A traced pass replays the unit counts of an untraced pass,
    so both do the same work and their digests must agree.
    """

    def __init__(self, seed, seconds, workdir: Path, ledger: Ledger,
                 end_to_end=True, tracer=None, replay=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.ledger = ledger
        self.end_to_end = end_to_end
        self.tracer = tracer
        self.replay = replay
        self.unit_s: dict[str, list[float]] = {}
        self.setup_s: list[float] = []
        self.probe_s: list[float] = []
        self._rerun = None  # (make, artifact digest) until rounds() reruns set-up
        self.phase_s: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.traffic: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        workdir.mkdir(parents=True, exist_ok=True)

    @property
    def wall_s(self) -> float:
        return sum(self.phase_s.values())

    @contextlib.contextmanager
    def phase(self, name: str):
        if self.tracer is not None:
            self.tracer.phase = name
            self.tracer.enabled = True
        start = clock()
        try:
            yield
        finally:
            self.phase_s[name] = self.phase_s.get(name, 0.0) + clock() - start
            if self.tracer is not None:
                self.tracer.enabled = False

    def setup(self, make):
        """Run ``make() -> (state, artifact digest)`` and return the state.

        In an end-to-end pass the next ``rounds`` call reruns it
        SETUP_REPEATS - 1 more times, spread over its window, and setup_s is
        the median of all set-ups.
        """
        state, artifacts = self._timed_setup(make)
        if self.end_to_end:
            self._rerun = (make, artifacts)
        return state

    def _timed_setup(self, make):
        with self.phase("setup"):
            start = clock()
            state, artifacts = make()
            self.setup_s.append(clock() - start)
        self.values["setup_s"] = statistics.median(self.setup_s)
        return state, artifacts

    def _setup_again(self, rerun) -> None:
        make, artifacts = rerun
        self.ledger.check(self._timed_setup(make)[1] == artifacts,
                          "set-up reruns give identical artifacts")

    def rounds(self, units, share: float, minimum: int = 1) -> list[list[float]]:
        """Run rounds of ``units``, ``(phase, unit)`` pairs, calling
        ``unit(i)`` in its phase for round i, until the phases' share of the
        run has passed and at least ``minimum`` rounds ran. A replaying pass
        runs exactly the recorded rounds. Returns each unit's wall times.

        Interleaving lets every phase sample the whole window: the host's
        speed drifts by tens of percent over seconds, and consecutive phases
        would each see a different part of that drift.
        """
        walls = [self.unit_s.setdefault(name, []) for name, _ in units]
        if self.replay is not None:
            count = len(self.replay[units[0][0]])
        else:
            count = minimum if self.end_to_end else 1
        window = share * self.seconds
        start = clock()
        deadline = start + window
        rerun, self._rerun = self._rerun, None
        due = ([start + window * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
               if rerun else [])
        i = 0
        while i < count or (self.replay is None and clock() < deadline):
            if due and clock() >= due[0]:
                due.pop(0)
                self._setup_again(rerun)
            self.probe_s.append(host_probe())
            for (name, unit), times in zip(units, walls):
                with self.phase(name):
                    t0 = clock()
                    unit(i)
                    times.append(clock() - t0)
            i += 1
        for _ in due:
            self._setup_again(rerun)
        return walls

    def record_traffic(self, texts: list[str], featurizer, store_n: int) -> None:
        tokens = [features.tokenize(t) for t in texts]
        sample = texts[:500]
        self.traffic.update(
            texts=len(texts),
            mean_tokens_per_text=sum(map(len, tokens)) / len(texts),
            distinct_tokens=len({tok for toks in tokens for tok in toks}),
            nonzeros_per_row=sum(int(np.count_nonzero(featurizer.transform(t)))
                                 for t in sample) / len(sample),
            store_n=store_n,
        )


# ---------------------------------------------------------------------------
# shared serving phases


class Served(NamedTuple):
    params: object
    featurizer: object
    label_names: list
    text_store: object
    pro_store: object
    fingerprint: int


def load_served(run_dir: Path) -> Served:
    """The artifacts `dknn predict` loads from a run directory."""
    params = model.load_checkpoint(run_dir / "checkpoint.dknm")
    doc = json.loads((run_dir / "featurizer.json").read_text("utf-8"))
    return Served(
        params=params,
        featurizer=features.Featurizer.from_dict(doc["featurizer"]),
        label_names=list(doc["label_names"]),
        text_store=stores.load_store(run_dir / "store_text.dkns"),
        pro_store=stores.load_store(run_dir / "store_pro.dkns"),
        fingerprint=model.model_fingerprint(params),
    )


def write_chunks(texts: list[str], run_dir: Path) -> list[Path]:
    paths = []
    for c in range(len(texts) // CHUNK):
        path = run_dir / f"queries{c}.txt"
        path.write_text("\n".join(texts[c * CHUNK:(c + 1) * CHUNK]) + "\n", "utf-8")
        paths.append(path)
    return paths


def neighbors_match(store, q: np.ndarray, k: int) -> bool:
    """query() against a full lexsort of store.distances, lower index first on ties."""
    got = stores.query(store, q, k)
    dist = store.distances(q)
    order = np.lexsort((np.arange(store.n), dist))[:k]
    return ([nb.index for nb in got] == order.tolist()
            and [nb.distance for nb in got] == dist[order].tolist())


def serve_phases(p: Pass, served: Served, run_dir: Path, texts: list[str],
                 gold: list[int], chunk_paths: list[Path]) -> list[float]:
    """Rounds of the `stream` phase (stores.predict per text, precomputed
    fingerprint) and the `file` phase (`dknn predict --file` over the same
    texts). Returns the stream's per-batch wall times."""
    params, featurizer, _, text_store, pro_store, fingerprint = served
    cfg = InferenceConfig()  # CLI defaults: k=16, lambda=0.5, both stores
    latencies, outputs = [], []

    def stream_unit(i: int) -> None:
        for j in range(i * CHUNK, (i + 1) * CHUNK):
            text = texts[j % len(texts)]
            t0 = clock()
            b = stores.predict(text, params, featurizer, text_store, pro_store, cfg,
                               fingerprint=fingerprint)
            latencies.append(clock() - t0)
            outputs.append((b.p_final, b.label))

    file_outputs = []

    def file_unit(i: int) -> None:
        # the texts of stream batch i
        file_outputs.append(run_cli(["predict", "--checkpoint", run_dir / "checkpoint.dknm",
                                     "--file", chunk_paths[i % len(chunk_paths)]]))

    batch_s, file_s = p.rounds([("stream", stream_unit), ("file", file_unit)], 1.0,
                               minimum=P99_TEXTS // CHUNK)

    check = p.ledger.check
    for j, (p_final, label) in enumerate(outputs):
        check(is_prediction(p_final, label), f"stream text {j}: bad p_final or label")
    for i, out in enumerate(file_outputs):
        lines = out.splitlines()
        check(len(lines) == CHUNK, f"file call {i}: {len(lines)} lines")
        for k, line in enumerate(lines):
            doc = json.loads(line)
            j = i * CHUNK + k
            check(is_prediction(doc["p_final"], doc["label"])
                  and doc["label"] == outputs[j][1],
                  f"file text {j}: label differs from the stream phase")
    for text in texts[:: max(1, len(texts) // ORACLE_SAMPLE)][:ORACLE_SAMPLE]:
        h = model.encode(featurizer.transform(text), params)
        for store, q in ((text_store, h), (pro_store, model.classify(h, params))):
            check(neighbors_match(store, q, cfg.k),
                  f"{store.metric.name} neighbors differ from the lexsort oracle")

    first = outputs[:P99_TEXTS]
    p.digests["p_final"] = digest(*(pf.tobytes() for pf, _ in first))
    p.samples.update(predict_texts=len(latencies), file_calls=len(file_s),
                     file_texts=CHUNK * len(file_s))
    p.values.update(
        predict_texts_per_s=statistics.median(CHUNK / s for s in batch_s),
        predict_p50_ms=percentile(latencies, 50) * 1e3,
        predict_p99_ms=percentile(latencies, 99) * 1e3,
        file_texts_per_s=statistics.median(CHUNK / s for s in file_s),
        accuracy=sum(label == gold[j] for j, (_, label) in enumerate(first)) / len(first),
    )
    return batch_s


# ---------------------------------------------------------------------------
# workloads


def serve(p: Pass) -> None:
    seed = derive(p.seed, "serve")
    run_dir = p.workdir
    data = run_dir / "train.jsonl"

    train_s, histories = [], []

    def make():
        corpus = harness.generate_synthetic(SyntheticSpec(n=SERVE_DOCS, seed=seed))
        train_set, held = harness.split(corpus, 0.8, seed)
        harness.save_dataset(train_set, data)
        start = clock()
        run_cli(["train", "--dataset", data, "--out", run_dir, "--seed", seed,
                 "--epochs", SERVE_EPOCHS, "--dev-ratio", 0])
        train_s.append(clock() - start)
        histories.append((run_dir / "history.jsonl").read_text("utf-8"))
        run_cli(["build-store", "--checkpoint", run_dir / "checkpoint.dknm",
                 "--dataset", data, "--out", run_dir])
        served = load_served(run_dir)
        chunks = write_chunks(held.texts, run_dir)
        artifacts = digest(*(run_dir.joinpath(f).read_bytes() for f in
                             ("checkpoint.dknm", "store_text.dkns", "store_pro.dkns")))
        return (corpus, held, served, chunks), artifacts

    corpus, held, served, chunks = p.setup(make)
    gold = [served.label_names.index(corpus.label_names[lab]) for lab in held.labels]
    batch_s = serve_phases(p, served, run_dir, held.texts, gold, chunks)
    check = p.ledger.check
    for i, history in enumerate(histories):
        losses = [json.loads(line)["total"] for line in history.splitlines()]
        check(len(losses) == SERVE_EPOCHS and all(map(math.isfinite, losses)),
              f"set-up {i}: missing or non-finite epoch losses")
    check(reloads((run_dir / "checkpoint.dknm").read_bytes()), "checkpoint does not reload")
    p.digests["checkpoint_fingerprint"] = f"{served.fingerprint:016x}"
    n_train = SERVE_DOCS - held.n
    p.values["train_examples_per_s"] = statistics.median(
        SERVE_EPOCHS * n_train / s for s in train_s)
    p.values["repeat_s"] = statistics.median(batch_s)
    p.record_traffic(corpus.texts, served.featurizer, served.text_store.n)


def ablate(p: Pass) -> None:
    seed = derive(p.seed, "ablate")
    run_dir = p.workdir

    def make():
        dataset = harness.generate_synthetic(SyntheticSpec(seed=seed, **ABLATION_SPEC))
        cfg = ExperimentConfig(
            dataset=dataset, seed=seed, repeats=1,
            featurizer=FeaturizerConfig(dim=512),
            train=TrainConfig(batch_size=128, epochs=60, learning_rate=3e-3,
                              embed_dim=64, ll=LLConfig()),
            inference=InferenceConfig(k=16, lam=0.5),
        )
        return cfg, digest("\n".join(dataset.texts).encode())

    cfg = p.setup(make)
    reports, trained, latencies, outputs, built = [], [], [], [], []
    train_fn, predict_fn, build_fn = harness.train, harness.predict, harness.build_stores

    def timed_train(train_set, dev_set, featurizer, config):
        start = clock()
        result = train_fn(train_set, dev_set, featurizer, config)
        trained.append((config.epochs * train_set.n, clock() - start))
        return result

    def timed_predict(*args, **kwargs):
        start = clock()
        b = predict_fn(*args, **kwargs)
        latencies.append(clock() - start)
        outputs.append((b.p_final, b.label))
        return b

    def captured_build(params, featurizer, train_set):
        result = build_fn(params, featurizer, train_set)
        built.append((params, featurizer, result))
        return result

    _, test_set = harness.split(cfg.dataset, cfg.train_ratio, cfg.seed + 1)
    test_path = run_dir / "test.txt"
    test_path.write_text("\n".join(test_set.texts) + "\n", "utf-8")
    file_outputs = []

    def repeat_unit(i: int) -> None:
        reports.append(harness.ablation_suite(cfg))

    def file_unit(i: int) -> None:
        if i == 0:
            # Serve the first repeat's ll model, its last store build.
            params, featurizer, (text_store, pro_store) = built[-1]
            model.save_checkpoint(params, run_dir / "checkpoint.dknm")
            (run_dir / "featurizer.json").write_text(json.dumps(
                {"featurizer": featurizer.to_dict(), "label_names": cfg.dataset.label_names}))
            stores.save_store(text_store, run_dir / "store_text.dkns")
            stores.save_store(pro_store, run_dir / "store_pro.dkns")
        file_outputs.append(run_cli(["predict", "--checkpoint", run_dir / "checkpoint.dknm",
                                     "--file", test_path]))

    with swapped(harness, "train", timed_train), \
            swapped(harness, "predict", timed_predict), \
            swapped(harness, "build_stores", captured_build):
        repeat_s, file_s = p.rounds([("repeat", repeat_unit), ("file", file_unit)], 1.0)

    check = p.ledger.check
    texts = [r.to_json() for r in reports]
    for i, text in enumerate(texts):
        doc = json.loads(text)
        check([row["config"] for row in doc["rows"]] == ABLATION_ROWS,
              f"ablation repeat {i}: report rows {len(doc['rows'])}")
        check(text == texts[0], f"ablation repeat {i}: report bytes differ")
    for j, (p_final, label) in enumerate(outputs):
        check(is_prediction(p_final, label), f"harness predict {j}: bad p_final or label")
    ll_knn = reports[0].row("ll+dknn").repeats[0]
    for i, out in enumerate(file_outputs):
        docs = [json.loads(line) for line in out.splitlines()]
        hits = sum(d["label"] == gold for d, gold in zip(docs, test_set.labels))
        check(len(docs) == test_set.n
              and all(is_prediction(d["p_final"], d["label"]) for d in docs)
              and hits / test_set.n == ll_knn,
              f"file call {i}: predictions differ from the ll+dknn row")

    p.digests["report_json"] = digest(texts[-1].encode())
    p.samples.update(predict_texts=len(latencies), file_calls=len(file_s),
                     file_texts=test_set.n * len(file_s), repeats=len(repeat_s))
    p.values.update(
        repeat_s=statistics.median(repeat_s),
        accuracy=statistics.fmean(r.mean for r in reports[-1].rows),
        train_examples_per_s=sum(n for n, _ in trained) / sum(s for _, s in trained),
        predict_texts_per_s=len(latencies) / sum(latencies),
        predict_p50_ms=percentile(latencies, 50) * 1e3,
        predict_p99_ms=percentile(latencies, 99) * 1e3,
        file_texts_per_s=statistics.median(test_set.n / s for s in file_s),
    )
    _, featurizer, (text_store, _) = built[-1]
    p.record_traffic(cfg.dataset.texts, featurizer, text_store.n)


WORKLOADS = {"serve": serve, "ablate": ablate}
