"""Hashing over a prime field for the sketching substrate.

The ℓ₀-samplers need k-wise independent hash functions; we use the
classical construction — a random degree-(k-1) polynomial over the field
``GF(p)`` with the Mersenne prime ``p = 2^61 - 1`` — which is k-wise
independent and cheap to evaluate.
"""

from __future__ import annotations

import random
from functools import lru_cache

__all__ = ["PRIME", "KWiseHash", "fingerprint_power", "trailing_zeros"]

PRIME = (1 << 61) - 1


class KWiseHash:
    """A k-wise independent hash function ``h: Z -> [0, PRIME)``."""

    __slots__ = ("coefficients",)

    def __init__(self, k: int, rng: random.Random) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        coefficients = [rng.randrange(1, PRIME)]
        coefficients.extend(rng.randrange(PRIME) for _ in range(k - 1))
        self.coefficients = tuple(coefficients)

    def __call__(self, x: int) -> int:
        # Horner evaluation of the random polynomial at x, mod PRIME.
        # Reduce x once up front so every Horner step multiplies two
        # sub-61-bit residues instead of dragging a large x through.
        x %= PRIME
        acc = 0
        for coefficient in self.coefficients:
            acc = (acc * x + coefficient) % PRIME
        return acc


@lru_cache(maxsize=1 << 16)
def fingerprint_power(z: int, index: int) -> int:
    """Cached ``z ** index mod PRIME``.

    Decoding retries the same candidate index across every copy, phase and
    Borůvka round, so the modular exponentiation is recomputed many times
    for identical arguments; a small shared cache removes the repeats.
    """
    return pow(z, index, PRIME)


def trailing_zeros(value: int) -> int:
    """Number of trailing zero bits (the geometric level of an item)."""
    if value == 0:
        return 61
    return (value & -value).bit_length() - 1
