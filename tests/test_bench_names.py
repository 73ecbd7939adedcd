"""Every package name the benchmark wraps or swaps at run time exists.

``bench/layers.py::targets()`` lists the ``(owner, attribute)`` pairs the
traced run wraps, and the ``ablate`` workload swaps ``harness.train``,
``harness.predict`` and ``harness.build_stores``. A renamed or deleted one
would only show as a ``KeyError`` in a traced bench run. Some of them
(``Featurizer.transform_many``, ``model.encode``, ``model.classify``) have
no other caller in the package.
"""

import importlib
from pathlib import Path

from dknn import harness

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_name_the_bench_wraps_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    wrapped = [(owner, attr) for owner, attr, *_ in layers.targets()]
    swapped = [(harness, "train"), (harness, "predict"), (harness, "build_stores")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in wrapped + swapped
               if attr not in vars(owner)]
    assert missing == []
