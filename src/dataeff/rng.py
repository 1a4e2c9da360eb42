"""Deterministic 64-bit PRNG used for every random draw in the toolkit.

The generator is SplitMix64: state advances by the golden-ratio constant
0x9E3779B97F4A7C15 and each output is the finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

with all arithmetic mod 2**64. It is pure integer math, so identical seeds
produce identical draws on every platform and Python version, which is what
makes subsets and ledgers byte-reproducible. The one shuffle, shuffle_prefix,
is front-to-back Fisher-Yates, each position's draw an unbiased integer by
modulo rejection.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def combine(*keys: int) -> int:
    """Fold several integer keys into one 64-bit stream seed.

    Order-sensitive: combine(a, b) != combine(b, a) in general. Strings and
    floats must be converted by the caller (see string_key / float_key).
    """
    h = _GOLDEN
    for k in keys:
        h = _finalize(((h ^ (k & _MASK)) + _GOLDEN) & _MASK)
    return h


def string_key(text: str) -> int:
    """Stable 64-bit key for a string (UTF-8 bytes folded through the mixer)."""
    h = 0
    for byte in text.encode("utf-8"):
        h = _finalize(((h ^ byte) + _GOLDEN) & _MASK)
    return h


def float_key(value: float) -> int:
    """Stable 64-bit key for a float: its IEEE-754 bit pattern."""
    import struct

    return struct.unpack("<Q", struct.pack("<d", float(value)))[0]


class SplitMix64:
    """Sequential SplitMix64 stream seeded with a 64-bit value."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return _finalize(self.state)

    def unit(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gauss(self, sigma: float = 1.0) -> float:
        """One Normal(0, sigma^2) draw via Box-Muller (two uniforms consumed)."""
        u1 = 1.0 - self.unit()  # in (0, 1]
        u2 = self.unit()
        return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def shuffle_prefix(self, items: list, m: int) -> list:
        """First m entries of a Fisher-Yates shuffle of items (in-place, returned).

        Positions are filled front to back: position i swaps with i + z % b, where
        b = len - i and z is the first output below (2**64 // b) * b (modulo
        rejection, so no bias). m == len(items) is a full shuffle.
        """
        n = len(items)
        if not 0 <= m <= n:
            raise ValueError(f"prefix length {m} out of range for {n} items")
        for i in range(m):
            bound = n - i
            while True:
                z = self.next_u64()
                r = z % bound
                if z - r <= _MASK + 1 - bound:  # z below the largest multiple of bound
                    break
            j = i + r
            items[i], items[j] = items[j], items[i]
        return items[:m]
