"""Rigorous dyadic interval arithmetic for evaluating real cyclotomic numbers.

Series are summed in fixed point on ints, every floor counted into an
explicit error bound, and results are (lo, hi) pairs of dyadic Fractions
rounded outward, so an enclosure computed here genuinely contains the real
number it approximates, which is what makes the sign certification in
`cyclotomic` a proof rather than a heuristic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _atan_inv(x: int, w: int) -> tuple[int, int]:
    """(s, e) with |atan(1/x) 2^w - s| <= e, x >= 2: each p_j ~ 2^w / x^(2j+1) is
    low by < 4/3, each term by < 7/3, and the tail from the first p_J = 0 is < 4/3."""
    x2 = x * x
    p = (1 << w) // x
    s = j = 0
    while p:
        t = p // (2 * j + 1)
        s += -t if j & 1 else t
        p //= x2
        j += 1
    return s, 3 * j + 2


@lru_cache(maxsize=None)
def _pi_fixed(w: int) -> tuple[int, int]:
    """(lo, hi) ints with lo <= pi 2^w <= hi, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239) at w + g bits, rounded outward."""
    g = w.bit_length() + 8
    s5, e5 = _atan_inv(5, w + g)
    s239, e239 = _atan_inv(239, w + g)
    mid, err = 16 * s5 - 4 * s239, 16 * e5 + 4 * e239
    return (mid - err) >> g, -((-mid - err) >> g)


@lru_cache(maxsize=None)
def cos_2pi(num: int, den: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure (lo, hi) of cos(2*pi*num/den), num any integer and
    den > 0, with hi - lo < 3 * 2^-bits.

    By symmetry x = 2 pi a/b lies in [0, pi/2], up to the sign of the result;
    the fraction need not be in lowest terms, since scaling a and b by the same
    factor leaves every floor below unchanged.
    With x_m the midpoint of x's enclosure on the 2^-W grid, W = bits + G, and
    q = floor(x_m^2 2^W), the Taylor terms m_j = floor(m_{j-1} q / ((2j-1)(2j)
    2^W)), m_0 = 2^W, are each at most 1.25 * 2^W (x_m^2 < 2.5) and low by
    less than 2; the alternating tail from the first m_J = 0 is below 2, and
    |cos'| <= 1 adds the radius rad <= 3 of x's enclosure.  So the sum is
    within err = 2J + 2 + rad units of 2^-W, J <= W, and G = bits.bit_length()
    + 8 makes 2 err 2^-W < 2^-bits; rounding outward adds less than 2^(1-bits).
    """
    a, b, sign = num % den, den, 1
    if 2 * a > b:
        a = b - a
    if 4 * a > b:
        a, b, sign = b - 2 * a, 2 * b, -1
    if a == 0:
        return Fraction(sign), Fraction(sign)
    g = bits.bit_length() + 8
    w = bits + g
    pl, ph = _pi_fixed(w)
    xl, xh = (2 * a * pl) // b, -((-2 * a * ph) // b)
    x = (xl + xh) >> 1
    q = (x * x) >> w
    s = m = 1 << w
    j = 0
    while m:
        j += 1
        m = (m * q) // ((2 * j - 1) * (2 * j) << w)
        s += -m if j & 1 else m
    err = 2 * j + 2 + max(x - xl, xh - x)
    lo, hi = (s - err) >> g, -((-s - err) >> g)
    if sign < 0:
        lo, hi = -hi, -lo
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


@lru_cache(maxsize=None)
def _cos_units(num: int, den: int, bits: int) -> tuple[int, int]:
    """`cos_2pi(num, den, bits)` as ints in units of 2^-bits."""
    return tuple(c.numerator << (bits + 1 - c.denominator.bit_length())
                 for c in cos_2pi(num, den, bits))


def real_enclosure(order: int, items, bits: int) -> tuple[Fraction, Fraction]:
    """Enclosure (lo, hi) of Re(sum a_k zeta_order^k) = sum a_k cos(2*pi*k/order)
    on the 2^-bits grid, items the (k, a_k) pairs with int a_k.

    Width: each cosine is enclosed at w >= bits + 12 bits, narrower than
    3 * 2^-w, the sum is taken exactly in units of 2^-w and rounded outward
    once, so hi - lo < (S / 1024 + 2) 2^-bits, S = sum |a_k|; below
    2^(L+1-bits) for S < 2^L.
    """
    w = bits + 8 + max(4, order.bit_length())
    lo = hi = 0
    for k, v in items:
        cl, ch = _cos_units(k, order, w)
        if v >= 0:
            lo += v * cl
            hi += v * ch
        else:
            lo += v * ch
            hi += v * cl
    return Fraction(lo >> (w - bits), 1 << bits), Fraction(-(-hi >> (w - bits)), 1 << bits)
