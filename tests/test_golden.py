"""Golden bytes for the random stream and for everything built from it.

The stream's formulas (``dknn/rng.py``) and the draw order of each consumer
are part of the reproducibility contract: corpora, splits, noise patterns
and initializations must keep their bytes across commits, not only within
one run. Each case below is hashed with blake2b (8-byte digest) over
little-endian bytes, and compared with the digest it had at commit
``139c3cb``, where scalar draws still ran through their own big-int
finalizer. A change that moves any digest changes the data every seeded
experiment runs on.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from dknn.harness import SyntheticSpec, generate_synthetic, inject_noise, split
from dknn.rng import Rng
from dknn.trainer import init_params
from test_acceptance import ABLATION_CORPUS, NOISE_CORPUS

SEEDS = (0, 1, 2**64 - 1)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _u64(values) -> bytes:
    return np.asarray(values, dtype="<u8").tobytes()


def _i64(values) -> bytes:
    return np.asarray(values, dtype="<i8").tobytes()


def _f64(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def _data(ds) -> bytes:
    return json.dumps([ds.texts, ds.labels]).encode()


def _interleaved(rng: Rng) -> list[bytes]:
    # 255 scalar draws leave one read-ahead draw unread; the bulk call must
    # drop it, and the bounded draws then cross a refill
    return [
        _u64([rng.next_u64() for _ in range(255)]),
        _f64(rng.uniforms(3)),
        _i64([rng.bounded(7) for _ in range(300)]),
        _f64(rng.normals(5)),
        _f64([rng.uniform() for _ in range(10)]),
        _u64(rng._bulk(2)),
    ]


STREAMS = {
    "next_u64": lambda rng: [_u64([rng.next_u64() for _ in range(1000)])],
    "uniforms": lambda rng: [_f64(rng.uniforms(1001))],
    "normals": lambda rng: [_f64(rng.normals(1001))],
    "permutation": lambda rng: [_i64(rng.permutation(1400))],
    "interleaved": _interleaved,
}

STREAM_DIGESTS = {
    ("next_u64", 0): "baa13f554749cdab",
    ("next_u64", 1): "4ca20ae2e0dadf23",
    ("next_u64", 2**64 - 1): "bac43add656ac649",
    ("uniforms", 0): "1f35de4e28fdbded",
    ("uniforms", 1): "ce4a6d3d24d82a59",
    ("uniforms", 2**64 - 1): "34cfe3a4334aa447",
    ("normals", 0): "bed9242cdf35a4eb",
    ("normals", 1): "a5b8fe2a8f32f8b9",
    ("normals", 2**64 - 1): "85332338b691be63",
    ("permutation", 0): "ebd70c73dc01e3cf",
    ("permutation", 1): "fbef1a4b0196e995",
    ("permutation", 2**64 - 1): "26132cccfca22d0d",
    ("interleaved", 0): "69c8976cf7d41454",
    ("interleaved", 1): "8e6b95336966945c",
    ("interleaved", 2**64 - 1): "c6a629081b25bcab",
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(STREAMS))
def test_stream_bytes(case, seed):
    assert _digest(*STREAMS[case](Rng(seed))) == STREAM_DIGESTS[case, seed]


@pytest.fixture(scope="module")
def noise_corpus():
    return generate_synthetic(NOISE_CORPUS)


def test_serve_corpus_bytes():
    ds = generate_synthetic(SyntheticSpec(n=10_000, seed=1))
    assert _digest(_data(ds)) == "064e2a168dce33bd"


def test_ablation_corpus_bytes():
    assert _digest(_data(generate_synthetic(ABLATION_CORPUS))) == "66b33be6eccc736e"


def test_noise_corpus_bytes(noise_corpus):
    assert _digest(_data(noise_corpus)) == "d9be4f9ffc166c26"


def test_inject_noise_bytes(noise_corpus):
    assert noise_corpus.coarse_of_label is not None
    assert _digest(_data(inject_noise(noise_corpus, 0.3, seed=5))) == "9752d9748e194743"


def test_split_bytes(noise_corpus):
    train, test = split(noise_corpus, 0.7, seed=5)
    assert _digest(_data(train), _data(test)) == "5f8efeba00b38eee"


def test_init_params_bytes():
    p = init_params(512, 64, 10, Rng(7))
    assert _digest(*map(_f64, (p.w1, p.b1, p.w2, p.b2, p.label_emb))) == "236793e8c3ca0d16"
