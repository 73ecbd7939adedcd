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

Being counter-based, bulk draws vectorize exactly (the scalar and bulk paths
produce identical sequences).
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_DOUBLE = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 output function (finalizer) on a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Counter-based splitmix64 stream (see module docstring)."""

    __slots__ = ("_seed", "_counter")

    def __init__(self, seed: int) -> None:
        self._seed = seed & _MASK64
        self._counter = 0

    def next_u64(self) -> int:
        self._counter += 1
        return mix64(self._seed + self._counter * _GOLDEN)

    def _bulk(self, n: int) -> np.ndarray:
        """n consecutive draws as a uint64 array (identical to n next_u64 calls)."""
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
