"""Span tracer that times dknn's modules from outside the package.

Nothing under ``src/`` knows about it: at run time every module attribute
bound to a target function (including names copied in with
``from .x import y``) and every target class attribute is swapped for a
timing wrapper, and swapped back when the ``installed`` context ends.

Spans live in memory as ``[name, start, end, parent, phase]`` lists and are
summarised and written out when the run ends. A span's self time is its
duration minus the durations of its direct children; the package is
single-threaded here, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager

NAME, START, END, PARENT, PHASE = range(5)

# Tolerance for float rounding when comparing sums of clock differences.
_EPS = 1e-9


def _dknn_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if n == "dknn" or n.startswith("dknn.")]


@contextmanager
def swapped(owner, attr: str, replacement):
    """Set ``owner.attr`` to ``replacement`` for the duration of the block."""
    original = owner.__dict__[attr]
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def swapped_everywhere(original, replacement):
    """Rebind every dknn module attribute that is ``original``."""
    with ExitStack() as stack:
        for module in _dknn_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    stack.enter_context(swapped(module, attr, replacement))
        yield


class Tracer:
    """In-memory span recorder. ``clock`` is injectable for the self-test."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.enabled = False
        self.phase = ""
        self.counters: Counter = Counter()
        self.seen: set = set()  # distinct inputs, for useful-work ratios
        self._stack: list[int] = []

    def wrap(self, fn, name, on_return=None):
        """Timing wrapper; ``name`` is a string or a function of the call's
        arguments. ``on_return(tracer, args, result)`` updates counters."""
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name_of(*args) if name_of else name, 0.0, 0.0,
                    self._stack[-1] if self._stack else -1, self.phase]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = self.clock()
                self._stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block.

        ``targets`` is a list of ``(owner, attr, name, on_return)``. A class
        owner patches that class only; a module owner patches every dknn
        module binding of the same function.
        """
        with ExitStack() as stack:
            for owner, attr, name, on_return in targets:
                fn = owner.__dict__[attr]
                wrapper = self.wrap(fn, name, on_return)
                if isinstance(owner, type):
                    stack.enter_context(swapped(owner, attr, wrapper))
                else:
                    stack.enter_context(swapped_everywhere(fn, wrapper))
            yield self

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self, names, phase: str | None = None) -> dict[str, dict[str, float]]:
        """``{name: {"calls": n, "self_s": seconds}}`` for every name, over
        all spans or those of one phase."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in names}
        for span, own in zip(self.spans, self.self_times()):
            if phase is not None and span[PHASE] != phase:
                continue
            entry = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
        return out

    def top_level_s(self) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def problems(self, wall_s: float) -> list[str]:
        """Invariant violations: spans outside their parents, negative self
        time, or self times summing to more than the traced wall time."""
        found = []
        for i, s in enumerate(self.spans):
            if s[END] < s[START]:
                found.append(f"span {i} {s[NAME]} ends before it starts")
            if s[PARENT] >= 0:
                p = self.spans[s[PARENT]]
                if not (p[START] <= s[START] and s[END] <= p[END]):
                    found.append(f"span {i} {s[NAME]} lies outside parent {p[NAME]}")
        own = self.self_times()
        negative = [i for i, v in enumerate(own) if v < -_EPS]
        if negative:
            found.append(f"{len(negative)} spans have negative self time")
        if sum(own) > wall_s + _EPS:
            found.append(f"self times sum to {sum(own):.6f}s > wall {wall_s:.6f}s")
        return found

    def write(self, path) -> None:
        """One span per line: index, parent, phase, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tphase\tname\tstart\tend\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[PHASE]}\t{s[NAME]}\t"
                         f"{s[START]!r}\t{s[END]!r}\n")
