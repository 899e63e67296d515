"""Deterministic counter-based random number generation.

Every random draw in this package comes from the generator defined here so
that datasets, augmentations, initializations and training runs reproduce
byte-identically from a single integer seed, in any language that follows
this recipe:

* ``mix64`` is the SplitMix64 finalizer:
  ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2**64).
* ``from_seed(seed)`` is the stream with key ``mix64(seed + PHI)``.
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
  A shuffle stopped after k swaps consumes k uniforms (at most n - 1).

The row-wise functions ``seed_keys``, ``child_keys``, ``uniform_rows`` and
``box_muller`` are the single implementation of this recipe. Each works on
many streams at once, as ``uint64`` or ``float64`` arrays; the ``Rng``
methods are one-row calls into them. ``data.generate`` draws its
superclass, class and sample streams through them with the same stream
layout, and the same bits, as one ``Rng`` per stream.
"""

from __future__ import annotations

import numpy as np

_M64 = (1 << 64) - 1
_PHI = np.uint64(0x9E3779B97F4A7C15)
_SPLIT = 0xD6E8FEB86659FD93
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_TWO53 = float(1 << 53)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` of each element, in place; z must be a uint64 array that
    the caller owns."""
    z ^= z >> np.uint64(30)
    z *= _MUL1
    z ^= z >> np.uint64(27)
    z *= _MUL2
    z ^= z >> np.uint64(31)
    return z


def seed_keys(seeds) -> np.ndarray:
    """Key of ``from_seed(s)`` for each seed s, as a uint64 array."""
    return _mix64_array(np.asarray(seeds, dtype=np.uint64).reshape(-1) + _PHI)


def child_keys(key: int, count: int, first: int = 0) -> np.ndarray:
    """Keys of the child streams ``first .. first + count - 1`` of stream
    ``key``, as a uint64 array."""
    labels = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    return _mix64_array(np.uint64(key ^ _SPLIT) + labels * _PHI)


def uniform_rows(keys, m: int, counter: int = 0) -> np.ndarray:
    """A (len(keys), m) block of uniforms: row i holds stream ``keys[i]``'s
    draws at counters ``counter .. counter + m - 1``."""
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
    idx = np.arange(counter + 1, counter + m + 1, dtype=np.uint64)
    raw = _mix64_array(keys + idx * _PHI)
    return (raw >> np.uint64(11)).astype(np.float64) / _TWO53


def box_muller(u: np.ndarray) -> np.ndarray:
    """One Gaussian per consecutive pair of uniforms along the last axis,
    which must have even length."""
    return np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2])) * np.cos(
        2.0 * np.pi * u[..., 1::2])


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
        return cls(int(seed_keys(seed & _M64)[0]))

    def child(self, label: int) -> "Rng":
        return Rng(int(child_keys(self.key, 1, label)[0]))

    # -- draws: one-row calls into the row-wise recipe ------------------

    def uniform(self) -> float:
        return float(self.uniform_array(1)[0])

    def randbelow(self, n: int) -> int:
        """Integer in [0, n) via the uniform mapping (documented, portable)."""
        return min(int(self.uniform() * n), n - 1)

    def shuffle(self, items: list, k: int | None = None) -> None:
        """In-place Fisher-Yates from the high index down; with k, only
        its first k swaps.

        For n items, draws the same n - 1 uniforms and indices (min(k,
        n - 1) with k) as calling ``randbelow`` once per swap, all at once;
        only the swaps run in Python. Position i is final after the swap
        at i, so the last k items are those the full shuffle of the stream
        leaves there: a draw of k items without replacement in k swaps.
        Each ``diagnostics.subset_rank_curve`` subset is drawn so from its
        own stream; the KNN holdout split and each epoch's batch order take
        the full shuffle."""
        bound = np.arange(len(items), 1, -1)[:k]
        js = np.minimum((self.uniform_array(bound.size) * bound).astype(np.intp),
                        bound - 1)
        for i, j in zip(range(len(items) - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]

    def uniform_array(self, n: int) -> np.ndarray:
        u = uniform_rows(self.key, n, self.counter)[0]
        self.counter += n
        return u
