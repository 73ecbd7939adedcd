"""Self-contained deterministic random number generator.

The whole package draws randomness from this one generator so that runs are
reproducible from a single integer seed, independent of numpy's global state
or version. The algorithm is a counter-based splitmix64 stream, fixed and
documented so it can be reproduced in any language:

* draw i (1-based) of the stream for seed s is ``mix64((s + i * G) mod 2^64)``
  with G = 0x9E3779B97F4A7C15 and mix64 the splitmix64 finalizer
  (z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
  z ^= z>>31);
* uniform doubles in [0, 1): top 53 bits, ``(x >> 11) * 2**-53``;
* standard normals: Box-Muller pairs ``(r*cos(2*pi*u2), r*sin(2*pi*u2))`` with
  ``r = sqrt(-2*ln(1-u1))``, where u1/u2 are consecutive uniforms; a request
  for an odd count generates one extra pair member and discards it;
* bounded integers in [0, n): multiply-shift ``(x * n) >> 64``;
* permutations: Fisher-Yates, iterating i = n-1 .. 1 and swapping with
  ``j = bounded(i + 1)``.

Being counter-based, draw i depends only on (s, i), so the stream has one
implementation, vectorized: scalar draws pop from a read-ahead of bulk draws,
and a bulk call drops what is unread and continues from the draws consumed.
``tests/oracles.py::mix64`` is the finalizer restated one value at a time.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_DOUBLE = 2.0 ** -53
_READ_AHEAD = 256  # draws computed per refill of the scalar read-ahead


class Rng:
    """Counter-based splitmix64 stream (see module docstring)."""

    __slots__ = ("_seed", "_counter", "_ahead")

    def __init__(self, seed: int) -> None:
        self._seed = seed & _MASK64
        self._counter = 0  # draws consumed
        self._ahead: list[int] = []  # unread draws computed ahead, next one last

    def next_u64(self) -> int:
        """The next draw: the 1-draw case of _bulk, read ahead."""
        if not self._ahead:
            self._ahead = self._bulk(_READ_AHEAD)[::-1].tolist()
            self._counter -= _READ_AHEAD  # computed, not yet consumed
        self._counter += 1
        return self._ahead.pop()

    def _bulk(self, n: int) -> np.ndarray:
        """The next n draws as a uint64 array, after any unread read-ahead
        is dropped: draw i depends only on (seed, i)."""
        self._ahead = []
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            z = np.uint64(self._seed) + idx * np.uint64(_GOLDEN)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            return z ^ (z >> np.uint64(31))

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _TO_DOUBLE

    def uniforms(self, n: int) -> np.ndarray:
        return (self._bulk(n) >> np.uint64(11)).astype(np.float64) * _TO_DOUBLE

    def normals(self, n: int) -> np.ndarray:
        """n standard normal draws via Box-Muller (see module docstring)."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1 = u[0::2]
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = (2.0 * math.pi) * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def bounded(self, n: int) -> int:
        """Integer in [0, n) via multiply-shift."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * n) >> 64

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        arr = list(range(n))
        if n > 1:
            for draw, i in zip(self._bulk(n - 1).tolist(), range(n - 1, 0, -1)):
                j = (draw * (i + 1)) >> 64
                arr[i], arr[j] = arr[j], arr[i]
        return np.array(arr, dtype=np.int64)
