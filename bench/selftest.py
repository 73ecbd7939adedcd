"""Self-test of the span tracer: nesting, self times and patching.

    python3 bench/selftest.py

A fake clock makes the expected self times exact. Every traced benchmark
run calls ``problems()`` too, checks the same invariants on its real spans,
and checks that wrapping leaves the workload's output digests unchanged.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

from tracer import Tracer


def _span_bookkeeping() -> list[str]:
    found = []
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda: None, "leaf")

    def body() -> None:
        leaf()
        leaf()

    def fail() -> None:
        raise ValueError("expected")

    outer = tracer.wrap(body, "outer")
    failing = tracer.wrap(fail, "failing")
    tracer.enabled = True
    outer()  # ticks 0..5, leaves at 1-2 and 3-4
    try:
        failing()  # ticks 6..7
    except ValueError:
        pass
    tracer.enabled = False
    outer()  # disabled: records nothing
    got = tracer.summary(["outer", "leaf", "failing"])
    want = {"outer": {"calls": 1, "self_s": 3.0},
            "leaf": {"calls": 2, "self_s": 2.0},
            "failing": {"calls": 1, "self_s": 1.0}}
    if got != want:
        found.append(f"summary {got} != {want}")
    if tracer.problems(wall_s=7.0):
        found.append(f"valid spans flagged: {tracer.problems(wall_s=7.0)}")
    if not tracer.problems(wall_s=5.0):
        found.append("self times above the wall time went unnoticed")
    tracer.spans = [["parent", 0.0, 1.0, -1, ""], ["child", 0.5, 2.0, 0, ""]]
    if not tracer.problems(wall_s=10.0):
        found.append("a child ending after its parent went unnoticed")
    return found


def _patching() -> list[str]:
    from dknn import harness, stores

    found = []
    original = stores.predict
    with Tracer().installed([(stores, "predict", "stores.predict", None)]):
        if harness.predict is original or harness.predict is not stores.predict:
            found.append("a from-import binding was not wrapped")
    if harness.predict is not original or stores.predict is not original:
        found.append("wrapped functions were not restored")
    return found


def problems() -> list[str]:
    """Every failed self-test expectation; empty when the tracer is sound."""
    return _span_bookkeeping() + _patching()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    found = problems()
    for problem in found:
        print(f"FAIL: {problem}")
    print("tracer self-test:", "failed" if found else "ok")
    sys.exit(1 if found else 0)
