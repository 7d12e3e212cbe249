"""Closed-form structure of the dihedral and binary dihedral invariants.

Both families split into 2p diagonal and 2p (resp. p and p) anti-diagonal
matrices, which turns Phi into a three-term combination of a single bivariate
polynomial evaluated at diagonal and anti-diagonal arguments:

    Phi_Delta_p  = f(x, y) + f(u, v) - f(x, y) f(u, v),   f = f_{p,p-1}
    Phi_Lambda_p = g(x, y) + g(u, -v) - g(x, y) g(u, -v), g = f_{2p,2p-1}

with x = z1 zbar1, y = z2 zbar2, u = z2 zbar1, v = z1 zbar2.  Collecting the
result in invariant-polynomial blocks gives diagonal matrices whose entries
(the coefficients c_{p,j}, E_k, d_k computed here) have known signs, plus one
2x2 block with negative determinant; the closed-form signature pairs follow
by counting, and the tests assemble those block lists from the coefficients.
Everything in this module is an independent prediction that the exact
engine cross-checks; nothing here feeds back into it.  Univariate
polynomials are lists of int coefficients indexed by degree, without trailing
zeros; `fpq.even_binomial` expands E_n(u) = sum_m C(n, 2m) u^m, which gives
both the d_k generating identity and the auxiliary polynomial P(z).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import Cyclotomic, rational
from .fpq import c_closed, even_binomial, fpq
from .intervals import cos_2pi
from .invariant import HermitianPolynomial, pack_key
from .signature import SignaturePair


class ClosedFormCheckFailed(ArithmeticError):
    """A proven property of a closed-form coefficient failed (internal bug)."""


def _trim(coeffs: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place and return the list."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _pmul(a: list[int], b: list[int]) -> list[int]:
    """Product of two int coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _subst_terms(f: dict[tuple[int, int], int], anti: bool,
                 negate_y: bool) -> dict[int, Cyclotomic]:
    """Map f(x, y) into Hermitian-polynomial keys.

    Diagonal arguments send x^r y^s to z1^r z2^s zbar1^r zbar2^s; anti-diagonal
    arguments send it to z1^s z2^r zbar1^r zbar2^s, optionally with (-1)^s.
    """
    out = {}
    for (r, s), c in f.items():
        if anti:
            key = pack_key(s, r, r, s)
            val = -c if (negate_y and s % 2) else c
        else:
            key = pack_key(r, s, r, s)
            val = c
        out[key] = rational(val)
    return out


def _three_term_phi(f: dict[tuple[int, int], int], negate_y: bool) -> HermitianPolynomial:
    A = HermitianPolynomial(_subst_terms(f, False, False))
    B = HermitianPolynomial(_subst_terms(f, True, negate_y))
    return A + B - A * B


def phi_delta_decomposed(p: int) -> HermitianPolynomial:
    """Phi of the dihedral group built from f_{p,p-1} by substitution only."""
    return _three_term_phi(fpq(p, p - 1), negate_y=False)


def phi_lambda_decomposed(p: int) -> HermitianPolynomial:
    """Phi of the binary dihedral group built from f_{2p,2p-1} by substitution only."""
    return _three_term_phi(fpq(2 * p, 2 * p - 1), negate_y=True)


# -- dihedral blocks ----------------------------------------------------------


def e_coeffs(p: int) -> list[int]:
    """E_k for 1 <= k <= 2*floor(p/2): convolution of the c_{p,*}, plus 2 c_{p,k} low."""
    half = p // 2
    out = []
    for k in range(1, 2 * half + 1):
        total = sum(c_closed(p, a) * c_closed(p, k - a)
                    for a in range(max(1, k - half), min(half, k - 1) + 1))
        if k <= half:
            total += 2 * c_closed(p, k)
        out.append(total)
    return out


def delta_counts(p: int) -> tuple[int, int]:
    """(N, N+) for the dihedral group of order 2p: closed form."""
    return p + p // 2 + 2, p // 2 + p // 4 + 2


def delta_signature_closed(p: int) -> SignaturePair:
    """(floor(p/2) + floor(p/4) + 2, floor(3(p+1)/4))."""
    return SignaturePair(p // 2 + p // 4 + 2, 3 * (p + 1) // 4)


def delta_ratio(p: int) -> Fraction:
    """Positivity ratio of the dihedral group by residue of p mod 4."""
    if p < 3:
        raise ValueError("closed form asserted for p >= 3")
    base = Fraction(1, 2)
    res = p % 4
    if res == 0:
        return base + Fraction(2, 3 * p + 4)
    if res == 1:
        return base + Fraction(1, 3 * p + 3)
    if res == 2:
        return base + Fraction(1, 3 * p + 4)
    return base


# -- binary dihedral blocks ---------------------------------------------------


def d_coeff_closed(p: int, j: int) -> int:
    """d_j by direct convolution of the c_{2p,*} coefficients (1 <= j <= p)."""
    c = lambda m: c_closed(2 * p, m)
    total = (-1) ** (j - 1) * c(j) ** 2
    total += 2 * sum((-1) ** (k - 1) * c(k) * c(2 * j - k)
                     for k in range(j + 1, min(2 * j - 1, p) + 1))
    if 2 * j <= p:
        total -= 2 * c(2 * j)
    return total


def d_poly(p: int) -> list[int]:
    """D_p(t) = sum d_k t^(2k) extracted from the decomposed Phi_Lambda_p."""
    P = phi_lambda_decomposed(p)
    coeffs = [0] * (4 * p + 1)
    for k in range(1, p + 1):
        c = P.terms.get(pack_key(2 * k, 2 * k, 2 * k, 2 * k))
        if c is not None:
            coeffs[2 * k] = int(c.as_fraction())
    return _trim(coeffs)


def d_poly_closed(p: int) -> list[int]:
    """D_p(t) from the generating identity D_p(t) = 1 - 4^(1-2p) E_{2p}(1-4t) E_{2p}(1+4t).

    (The product of the four sign variants of (1 +- a)(1 +- b), a^2 = 1-4t,
    b^2 = 1+4t, collapses to 4 E_{2p}(a^2) E_{2p}(b^2).)
    """
    prod = _pmul(even_binomial(2 * p, 1, -4), even_binomial(2 * p, 1, 4))
    coeffs = []
    for k, c in enumerate(prod):
        d, rem = divmod(c, 4 ** (2 * p - 1))
        if rem:
            raise ClosedFormCheckFailed(f"D_{p} coefficient of t^{k} is not an integer")
        coeffs.append(-d)
    coeffs[0] += 1
    return _trim(coeffs)


def d_sign_check(p: int) -> bool:
    """d_k > 0 for odd k, d_k < 0 for even k, and extraction == closed form
    == the convolution of the c_{2p,*} (`d_coeff_closed`)."""
    ext = d_poly(p)
    if ext != d_poly_closed(p):
        return False
    if len(ext) != 2 * p + 1 or any(ext[1::2]):
        return False
    for k in range(1, p + 1):
        d = ext[2 * k]
        if d != d_coeff_closed(p, k):
            return False
        if k % 2 and d <= 0:
            return False
        if k % 2 == 0 and d >= 0:
            return False
    return True


def lambda_signature_closed(p: int) -> SignaturePair:
    """(2 + p + floor(p/2), 1 + floor((p-1)/2)) for the order-4p group."""
    return SignaturePair(2 + p + p // 2, 1 + (p - 1) // 2)


# -- the auxiliary even-binomial polynomial -----------------------------------


def p_poly(p: int) -> list[int]:
    """P(z) = 2 E_{2p}(z) = 2 sum_k C(2p, 2k) z^k."""
    return [2 * c for c in even_binomial(2 * p, 0, 1)]


def p_poly_roots_check(p: int) -> bool:
    """P has p simple real roots, one near each -tan((2j+1)pi/4p)^2, j < p, and
    |P(x+iy)|^2 has positive coefficients everywhere on its support; both exact.

    Roots: -tan^2 = (c - 1)/(c + 1) with c = cos(2 pi (2j+1)/(4p)) is increasing
    in c, so `cos_2pi`'s 64-bit enclosure of c maps to an interval around it.
    If the p intervals are disjoint and P, evaluated exactly at their rational
    endpoints, changes sign across each, then each holds a root, and as P has
    degree p these are all of its roots, each simple and real.  False means a
    property fails or the roots were not located at 64 bits.
    """
    poly = p_poly(p)
    if len(poly) != p + 1:
        return False

    def sign_at(x: Fraction) -> int:
        v = 0
        for c in reversed(poly):
            v = v * x + c
        return (v > 0) - (v < 0)

    roots = []
    for j in range(p):
        lo, hi = (Fraction(c, 1 << 64) for c in cos_2pi(2 * j + 1, 4 * p, 64))
        if lo <= -1:
            return False
        roots.append(((lo - 1) / (lo + 1), (hi - 1) / (hi + 1)))
    roots.sort()
    if any(a[1] >= b[0] for a, b in zip(roots, roots[1:])):
        return False
    if any(sign_at(lo) * sign_at(hi) >= 0 for lo, hi in roots):
        return False
    # exact part: expand P(x+iy) over Z[i], then multiply by its conjugate
    gauss: dict[int, tuple[int, int]] = {}
    for k, c in enumerate(poly):
        if not c:
            continue
        # (x+iy)^k: C(k, m) x^(k-m) (iy)^m
        for m in range(k + 1):
            w = c * math.comb(k, m)
            re_im = (0, w) if m % 2 else (w, 0)
            sgn = -1 if m % 4 in (2, 3) else 1
            key = (k - m, m)
            cur = gauss.get(key, (0, 0))
            gauss[key] = (cur[0] + sgn * re_im[0], cur[1] + sgn * re_im[1])
    sq: dict[tuple[int, int], int] = {}
    for (x1, y1), (re1, im1) in gauss.items():
        for (x2, y2), (re2, im2) in gauss.items():
            key = (x1 + x2, y1 + y2)
            sq[key] = sq.get(key, 0) + re1 * re2 + im1 * im2
    for (dx, dy), c in sq.items():
        if dy % 2 == 1 and c != 0:
            return False
    # every monomial with even y-degree and total degree <= 2p must be positive
    for dy in range(0, 2 * p + 1, 2):
        for dx in range(0, 2 * p + 1 - dy):
            if sq.get((dx, dy), 0) <= 0:
                return False
    return True
