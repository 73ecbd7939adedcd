"""Atomic artifact writes: a write that fails partway leaves the old file.
Binary artifacts: a file that is not exactly header plus blocks is corrupt."""

import contextlib
import os
import resource
import signal

import numpy as np
import pytest

from dknn import artifacts, cli
from dknn.features import FeaturizerConfig, fit_featurizer
from dknn.harness import Dataset, ExperimentReport, ReportRow, save_dataset
from dknn.exceptions import CorruptArtifactError
from dknn.model import ModelParams, load_checkpoint, save_checkpoint
from dknn.stores import (RepresentationStore, StoreMetric, load_store, save_sidecar,
                         save_store)
from dknn.trainer import EpochRecord, save_history


def _params(scale: float) -> ModelParams:
    return ModelParams(
        w1=np.full((4, 3), scale), b1=np.zeros(3), w2=np.full((3, 2), scale),
        b2=np.zeros(2), label_emb=np.full((2, 3), scale),
    )


def _history(loss: float) -> list[EpochRecord]:
    return [EpochRecord(epoch=1, ce=loss, kl=0.0, cl=0.0, total=loss, dev_accuracy=None,
                        grad_norm={"w1": 1.0}, active_hinge_fraction=0.0)]


def _store(value: float) -> RepresentationStore:
    return RepresentationStore(np.full((3, 2), value), np.array([0, 1, 0]), StoreMetric.L2,
                               n_classes=2, fingerprint=7)


def _dataset(value: float) -> Dataset:
    return Dataset(texts=[f"text {value}", "a, \"quoted\"\nline"], labels=[0, 1],
                   label_names=["a", "b"], coarse_of_label=[0, 0], coarse_names=["g"])


def _report(mean: float) -> ExperimentReport:
    return ExperimentReport(rows=[ReportRow("a", mean, 0.0, [mean])], meta={}, wall_clock=0.0)


# file name -> writer(path, value); every writer names its file by `path`
SAVERS = {
    "checkpoint.dknm": lambda path, v: save_checkpoint(_params(v), path),
    "store.dkns": lambda path, v: save_store(_store(v), path),
    "history.jsonl": lambda path, v: save_history(_history(v), path),
    "featurizer.json": lambda path, v: save_sidecar(
        fit_featurizer([], FeaturizerConfig(dim=16)), [f"label {v}"], path),
    "effective_config.txt": lambda path, v: cli._echo_config({"v": v}, path.parent),
    "report.json": lambda path, v: _report(v).save(path.parent),
    "dataset.jsonl": lambda path, v: save_dataset(_dataset(v), path),
    "dataset.csv": lambda path, v: save_dataset(_dataset(v), path),
}


def _files(directory) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


@contextlib.contextmanager
def _file_size_limit(nbytes: int):
    """Writes past nbytes fail with EFBIG in this process: a real partial
    write, as on a full disk."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


@pytest.mark.parametrize("name", sorted(SAVERS))
@pytest.mark.parametrize("fault", ["partial-write", "replace"])
def test_failed_write_keeps_previous_artifact(tmp_path, monkeypatch, name, fault):
    path = tmp_path / name
    SAVERS[name](path, 0.25)
    before = {f: (tmp_path / f).read_bytes() for f in _files(tmp_path)}
    if fault == "partial-write":
        with _file_size_limit(len(path.read_bytes()) // 2), pytest.raises(OSError):
            SAVERS[name](path, 0.5)
    else:
        def fail_replace(src, dst):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(artifacts.os, "replace", fail_replace)
        with pytest.raises(OSError):
            SAVERS[name](path, 0.5)
    assert {f: (tmp_path / f).read_bytes() for f in _files(tmp_path)} == before


@pytest.mark.parametrize("name", sorted(SAVERS))
def test_write_replaces_whole_file(tmp_path, name):
    path = tmp_path / name
    SAVERS[name](path, 0.25)
    first = path.read_bytes()
    files = _files(tmp_path)
    SAVERS[name](path, 0.5)
    assert path.read_bytes() != first
    SAVERS[name](path, 0.25)
    assert path.read_bytes() == first
    assert _files(tmp_path) == files


def test_new_file_gets_umask_permissions(tmp_path):
    path = tmp_path / "artifact.txt"
    artifacts.write_atomic(path, "x")
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def _damaged(blob: bytes) -> dict[str, bytes]:
    """Every prefix shorter than ``blob``, ``blob`` plus a byte, and ``blob``
    with the u16 version after the magic set to 2."""
    versioned = bytearray(blob)
    versioned[4:6] = (2).to_bytes(2, "little")
    cases = {f"prefix-{n}": blob[:n] for n in range(len(blob))}
    return {**cases, "trailing-byte": blob + b"\0", "version-2": bytes(versioned)}


@pytest.mark.parametrize("name, load", [("checkpoint.dknm", load_checkpoint),
                                        ("store.dkns", load_store)])
def test_damaged_binary_artifact_is_corrupt(tmp_path, name, load):
    path = tmp_path / name
    SAVERS[name](path, 0.25)
    blob = path.read_bytes()
    load(path)
    served = []  # cases that load, or fail without naming the file
    for case, damaged in _damaged(blob).items():
        path.write_bytes(damaged)
        try:
            load(path)
        except CorruptArtifactError as exc:
            if not str(exc).startswith(f"{path}: "):
                served.append(case)
        else:
            served.append(case)
    assert served == []
