"""Rigorous dyadic interval arithmetic for evaluating real cyclotomic numbers.

Endpoints are Fractions whose denominators are powers of two, so every ring
operation on endpoints is exact; rounding happens only when an endpoint is
pushed onto a coarser dyadic grid, and it is always outward.  An enclosure
computed here, a (lo, hi) pair of dyadic Fractions, therefore genuinely
contains the real number it approximates, which is what makes the sign
certification in `cyclotomic` a proof rather than a heuristic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def floor_dyadic(x: Fraction, bits: int) -> Fraction:
    """Largest multiple of 2^-bits that is <= x."""
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def ceil_dyadic(x: Fraction, bits: int) -> Fraction:
    """Smallest multiple of 2^-bits that is >= x."""
    return Fraction(-(((-x.numerator) << bits) // x.denominator), 1 << bits)


def _atan_inv(x: int, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of atan(1/x) for an integer x >= 2 (alternating series)."""
    tol = Fraction(1, 1 << (bits + 8))
    x2 = x * x
    pw = Fraction(1, x)
    s = Fraction(0)
    j = 0
    while True:
        term = pw / (2 * j + 1)
        if term < tol:
            # remainder of an alternating series with decreasing terms
            return s - term, s + term
        s += term if j % 2 == 0 else -term
        pw = Fraction(pw.numerator, pw.denominator * x2)
        j += 1


@lru_cache(maxsize=None)
def pi_interval(bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure of pi via Machin's formula."""
    w = bits + 16
    al, ah = _atan_inv(5, w)
    bl, bh = _atan_inv(239, w)
    lo = 16 * al - 4 * bh
    hi = 16 * ah - 4 * bl
    return floor_dyadic(lo, bits), ceil_dyadic(hi, bits)


@lru_cache(maxsize=None)
def cos_2pi(num: int, den: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure of cos(2*pi*num/den), 0 <= num < den, gcd(num, den) = 1.

    Taylor series at a dyadic midpoint; the Lagrange remainder after the
    degree-(2J-1) partial sum is bounded by the first omitted term, and the
    argument uncertainty contributes at most its own radius (|cos'| <= 1).
    """
    w = bits + 16
    pl, ph = pi_interval(w)
    f = Fraction(2 * num, den)
    tl, th = pl * f, ph * f
    mid = floor_dyadic((tl + th) / 2, w)
    rad = max(th - mid, mid - tl)
    tol = Fraction(1, 1 << (bits + 8))
    x2 = mid * mid
    s = Fraction(0)
    term = Fraction(1)
    j = 0
    while abs(term) >= tol:
        s += term
        j += 1
        term = -term * x2 / ((2 * j - 1) * (2 * j))
    err = abs(term) + rad
    return floor_dyadic(s - err, bits), ceil_dyadic(s + err, bits)


def real_enclosure(order: int, items, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure of Re(sum a_k zeta_order^k) = sum a_k cos(2*pi*k/order)."""
    w = bits + 8 + max(4, order.bit_length())
    lo = Fraction(0)
    hi = Fraction(0)
    for k, v in items:
        k %= order
        g = math.gcd(k, order)
        cl, ch = cos_2pi(k // g, order // g, w)
        if v >= 0:
            lo += v * cl
            hi += v * ch
        else:
            lo += v * ch
            hi += v * cl
    return floor_dyadic(lo, bits), ceil_dyadic(hi, bits)
