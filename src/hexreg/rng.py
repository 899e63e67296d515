"""Deterministic counter-based random number generation.

Every random draw in this package comes from the generator defined here so
that datasets, augmentations, initializations and training runs reproduce
byte-identically from a single integer seed, in any language that follows
this recipe:

* ``mix64`` is the SplitMix64 finalizer:
  ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2**64).
* A stream is a 64-bit ``key``. Its i-th raw output (i = 0, 1, ...) is
  ``mix64(key + (i + 1) * PHI)`` with ``PHI = 0x9E3779B97F4A7C15``.
* Child streams: ``child_key = mix64((key ^ SPLIT) + (label + 1) * PHI)``
  with ``SPLIT = 0xD6E8FEB86659FD93``. Distinct labels give independent
  streams; deriving children never consumes parent outputs, so adding
  draws in one stream cannot perturb any other.
* uniform(i) = (raw(i) >> 11) * 2**-53, in [0, 1).
* The k-th Gaussian consumes uniforms at counters 2k and 2k + 1 via the
  Box-Muller transform: ``sqrt(-2 ln(1 - u_{2k})) * cos(2 pi u_{2k+1})``.
  The sine branch is deliberately discarded: each Gaussian maps to a fixed
  pair of counters, which keeps the stream stateless and trivially
  resumable.
* ``randbelow(n)`` maps the next uniform u to ``min(floor(u * n), n - 1)``.
* ``shuffle`` is Fisher-Yates from the high index down:
  ``for i = n-1 .. 1: j = randbelow(i + 1); swap(items[i], items[j])``,
  so a list of n items consumes exactly n - 1 uniforms (none for n < 2).
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_SPLIT = 0xD6E8FEB86659FD93
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_TWO53 = float(1 << 53)


def mix64(x: int) -> int:
    z = x & _M64
    z = (z ^ (z >> 30)) * _MUL1 & _M64
    z = (z ^ (z >> 27)) * _MUL2 & _M64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


class Rng:
    """A splittable counter-based stream: a key plus a draw counter."""

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0):
        self.key = key & _M64
        self.counter = counter

    @classmethod
    def from_seed(cls, seed: int) -> "Rng":
        # Offset before mixing so that seed 0 does not map to key 0
        # (mix64(0) == 0, a fixed point of the finalizer).
        return cls(mix64((seed + _PHI) & _M64))

    def child(self, label: int) -> "Rng":
        return Rng(mix64(((self.key ^ _SPLIT) + (label + 1) * _PHI) & _M64))

    # -- scalar draws (pure Python integers, exact) ----------------------

    def u64(self) -> int:
        v = mix64((self.key + (self.counter + 1) * _PHI) & _M64)
        self.counter += 1
        return v

    def uniform(self) -> float:
        return (self.u64() >> 11) * (1.0 / _TWO53)

    def gauss(self) -> float:
        # Single draw through the vectorized kernel so scalar and batched
        # consumers of one stream see bitwise-identical values.
        return float(self.gauss_array(1)[0])

    def randbelow(self, n: int) -> int:
        """Integer in [0, n) via the uniform mapping (documented, portable)."""
        return min(int(self.uniform() * n), n - 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates from the high index down.

        For n items, draws the same n - 1 uniforms and indices as calling
        ``randbelow`` once per swap, all at once; only the swaps run in
        Python."""
        bound = np.arange(len(items), 1, -1)
        js = np.minimum((self.uniform_array(bound.size) * bound).astype(np.intp),
                        bound - 1)
        for i, j in zip(range(len(items) - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]

    # -- vectorized draws (bitwise identical to the scalar path) ---------

    def _raw_array(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        return _mix64_array(np.uint64(self.key) + idx * np.uint64(_PHI))

    def uniform_array(self, n: int) -> np.ndarray:
        return (self._raw_array(n) >> np.uint64(11)).astype(np.float64) / _TWO53

    def gauss_array(self, n: int) -> np.ndarray:
        u = self.uniform_array(2 * n)
        u1 = u[0::2]
        u2 = u[1::2]
        return np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)
