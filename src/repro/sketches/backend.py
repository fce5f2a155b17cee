"""Array kernels of the sketch bank: arithmetic mod ``p = 2^61 - 1`` on uint64.

Every heavy step of :class:`~repro.sketches.bank.SketchBank` is one of
these kernels, applied to whole stacks of samplers at once:

* :func:`mulmod` -- exact ``a * b mod p``.  Products of two 61-bit
  residues need 122 bits, so operands are split into 32-bit limbs and
  folded with the Mersenne identity ``2^61 ≡ 1 (mod p)``; every
  intermediate fits in uint64.
* :func:`poly_eval` -- Horner evaluation of every sampler's k-wise hash
  polynomial at every edge, one ``(samplers, edges)`` array per step.
* :func:`trailing_zeros` -- geometric level depths.
* :class:`PowerTables` -- baby-step/giant-step tables for a stack of
  bases, built by doubling: every power is two gathers and one mulmod.

The results are bit-identical to Python-int arithmetic; the pure-Python
reference kernels live in the test suite as the oracle.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .field import PRIME

__all__ = [
    "NumpyBackend",
    "get_backend",
    "mulmod",
    "addmod",
    "poly_eval",
    "trailing_zeros",
    "PowerTables",
]

P = np.uint64(PRIME)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK29 = np.uint64((1 << 29) - 1)


def mulmod(a, b):
    """Exact ``a * b mod p`` on uint64 operands ``< 2^61`` (broadcasting).

    32-bit limb split: ``a*b = (ah*bh)<<64 + (ah*bl + al*bh)<<32 + al*bl``
    where every partial product fits in uint64, then Mersenne folding with
    ``2^61 ≡ 1``: ``x<<64 ≡ x<<3`` and
    ``mid<<32 ≡ (mid>>29) + ((mid & (2^29-1))<<32)``.
    """
    u = np.uint64
    a_lo = a & _MASK32
    a_hi = a >> u(32)
    b_lo = b & _MASK32
    b_hi = b >> u(32)
    hi = a_hi * b_hi
    mid = a_hi * b_lo + a_lo * b_hi
    lo = a_lo * b_lo
    res = (
        (lo >> u(61))
        + (lo & P)
        + (mid >> u(29))
        + ((mid & _MASK29) << u(32))
        + (hi << u(3))
    )
    return _reduce_once((res >> u(61)) + (res & P))


def _reduce_once(values):
    """``values mod p`` for ``values < 2p``: below ``p``, ``values - p``
    wraps past ``2^63`` and the minimum keeps ``values``."""
    return np.minimum(values, values - P)


def addmod(a, b):
    """``a + b mod p`` for residues ``a, b < p`` (one conditional ``-p``)."""
    return _reduce_once(a + b)


def poly_eval(coefficients, xs):
    """Every polynomial at every point: ``out[j, e] = poly_j(xs[e]) mod p``.

    *coefficients* is a ``(polys, k)`` uint64 array, highest degree first
    (the :class:`~repro.sketches.field.KWiseHash` order); *xs* are uint64
    residues.
    """
    acc = coefficients[:, :1]
    for column in coefficients.T[1:]:
        acc = addmod(mulmod(acc, xs), column[:, None])
    return np.broadcast_to(acc, (len(coefficients), len(xs)))


def trailing_zeros(values):
    """Trailing zero bits of each uint64 value (61 for zero, as in
    :func:`~repro.sketches.field.trailing_zeros`).  The lowest set bit is
    an exact power of two, so its float64 exponent is exact."""
    lowest = values & (~values + np.uint64(1))
    exponent = np.frexp(lowest.astype(np.float64))[1] - 1
    return np.where(values == 0, 61, exponent)


def _power_table(bases, length: int):
    """``out[i, r] = bases[i] ** r mod p`` for ``r < length``: the table
    doubles in width per step, ``log2(length)`` stacked mulmods in all."""
    table = np.ones((len(bases), 1), dtype=np.uint64)
    step = bases  # bases ** (table width)
    while table.shape[1] < length:
        more = min(table.shape[1], length - table.shape[1])
        table = np.concatenate((table, mulmod(table[:, :more], step[:, None])), axis=1)
        step = mulmod(step, step)
    return table


class PowerTables:
    """``bases[i] ** e mod p`` lookups for exponents ``0 <= e <= max_exponent``.

    ``baby[i, r] = bases[i] ** r`` and ``giant[i, q] = bases[i] ** (q*b)``
    with block ``b = isqrt(max_exponent) + 1``, so ``b^2 > max_exponent``
    and each power is ``giant[i, e // b] * baby[i, e % b]``.
    """

    def __init__(self, bases, max_exponent: int) -> None:
        z = np.array(bases, dtype=np.uint64)
        self.block = isqrt(max(max_exponent, 1)) + 1
        self.baby = _power_table(z, self.block)
        self.giant = _power_table(mulmod(self.baby[:, -1], z), self.block)

    def powers(self, points, exponents):
        """``bases[points] ** exponents mod p``, elementwise."""
        quotient, remainder = np.divmod(exponents, self.block)
        return mulmod(self.giant[points, quotient], self.baby[points, remainder])


class NumpyBackend:
    """Handle naming the sketch kernels in run reports; there is one set."""

    name = "numpy"


_BACKEND = NumpyBackend()


def get_backend(backend: object = None) -> NumpyBackend:
    """The sketch kernel handle.  ``None``, ``"numpy"`` and ``"auto"`` all
    name the array kernels, and an instance is returned as is; any other
    name is an error (pure-Python kernels exist only as the test suite's
    oracle)."""
    if isinstance(backend, NumpyBackend):
        return backend
    if backend is None or str(backend).strip().lower() in ("numpy", "auto"):
        return _BACKEND
    raise ValueError(f"unknown sketch backend {backend!r} (only 'numpy' exists)")
