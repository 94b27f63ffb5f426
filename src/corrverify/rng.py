"""Deterministic seeding helpers.

All randomness in the package flows from one explicit master seed.  Derived
seeds are produced by hashing the master seed together with a name path
(e.g. ``derive_seed(seed, "benchmark", "query", 7)``), which keeps every
component reproducible and independent of generation order or platform.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

_MASK64 = (1 << 64) - 1


def _integer(value, name: str) -> int:
    """value as an int; ValueError naming it unless it is an integer
    (numbers.Integral, not bool): int() would truncate 1.7 and True, parse "5"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str):
    """value unchanged; ValueError naming it unless it is a real number
    (numbers.Real, not bool): comparing "3" or None would raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def derive_seed(master_seed: int, *path) -> int:
    """Stable 64-bit seed for the component named by ``path``; master_seed
    must be an integer (numbers.Integral, not bool) in [0, 2**64), else
    ValueError."""
    seed = _integer(master_seed, "seed")
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must lie in [0, 2**64)")
    h = hashlib.sha256()
    h.update(seed.to_bytes(8, "little", signed=False))
    for part in path:
        h.update(b"/")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def generator(master_seed: int, *path) -> np.random.Generator:
    """numpy Generator seeded from the named derivation path."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, *path)))


class Lcg64:
    """Minimal 64-bit linear congruential generator.

    Used where bit-portable sampling matters (RANSAC hypothesis draws):
    the stream depends only on integer arithmetic, never on numpy version.
    Constants are Knuth's MMIX multiplier/increment.  The seed is any
    integer (numbers.Integral, not bool), else ValueError.
    """

    MUL = 6364136223846793005
    INC = 1442695040888963407

    def __init__(self, seed: int):
        self.state = (_integer(seed, "seed") ^ 0x9E3779B97F4A7C15) & _MASK64
        # one warm-up step decorrelates small seeds
        self._step()

    def _step(self) -> int:
        self.state = (self.state * self.MUL + self.INC) & _MASK64
        return self.state

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection of the biased tail; n is at
        most 2**32, the range of one draw."""
        if not 0 < n <= 1 << 32:
            raise ValueError("bound must lie in [1, 2**32]")
        lim = (1 << 32) - ((1 << 32) % n)
        while True:
            # top bits have the longest period
            v = self._step() >> 32
            if v < lim:
                return v % n

    def sample_distinct(self, n: int, k: int) -> list:
        """k distinct indices in [0, n), order of first draw; k must be an
        integer (numbers.Integral, not bool) in [0, n], else ValueError."""
        if _integer(k, "k") > n:
            raise ValueError("cannot draw more distinct values than the range")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        out = []
        while len(out) < k:
            v = self.below(n)
            if v not in out:
                out.append(v)
        return out
