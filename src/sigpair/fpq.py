"""The bivariate integer polynomials f_{p,q} and their sign combinatorics.

f_{p,q}(x, y) = 1 - prod_{j=0}^{p-1} (1 - w^j x - w^{qj} y), w a primitive
p-th root of unity.  Writing P for the product, log P collapses over the
root-of-unity sums to a rational series supported on the weight lattice
{(r, s): r + q s = 0 mod p}, with (r+s) * [log P](r,s) = -p * C(r+s, r).
The Euler-operator recurrence

    (r+s) P[r, s] = sum_{(i,k) on the lattice} (-p C(i+k, i)) P[r-i, s-k]

then reconstructs P with pure integer arithmetic (each division is exact
because the coefficients are integers), which keeps the large sweeps cheap.
The exact Phi engine builds the product of every diagonal group with its
own copy of this recurrence (`invariant._diagonal_product`), kept apart on
purpose so each checks the other; the routes independent of both are a
brute-force expansion over Q(zeta_p) and the engine's element-wise fold,
the oracles of the test suite.

A polynomial here is a plain dict {(r, s): coefficient of x^r y^s} with no
zero values.  Also here: the weight of a monomial, the gcd sign rule, weight
censuses with their integer bounds, the closed forms for q = p-1, the
even-binomial polynomial E_n behind them (shared with `closedforms`), and the
asymptotic positivity ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .signature import SignaturePair


class NonIntegerCoefficient(ArithmeticError):
    """Internal-consistency failure: an f_{p,q} coefficient was not an integer."""


class IndexOutOfRange(ValueError):
    """Closed-form coefficient index outside 1..floor(p/2)."""


class CensusBoundViolation(AssertionError):
    """A proven support or weight-census property failed (internal bug)."""


def lattice_points(p: int, q: int) -> list[tuple[int, int]]:
    """All (r, s) >= 0 with r + q*s = 0 mod p and 0 < r + s <= p.

    For each y-degree s there is at most one admissible r (candidates differ
    by p), plus the extra point (p, 0).
    """
    qn = q % p
    pts = []
    for s in range(p + 1):
        r = (-qn * s) % p
        if (r, s) != (0, 0) and r + s <= p:
            pts.append((r, s))
    pts.append((p, 0))
    return sorted(pts, key=lambda m: (m[0] + m[1], m[1]))


def fpq(p: int, q: int) -> dict[tuple[int, int], int]:
    """Exact f_{p,q} as {(r, s): coefficient of x^r y^s}, zero terms omitted.

    Every division of the recurrence is checked to be exact and every term to
    lie on the weight lattice.
    """
    if p < 1:
        raise ValueError("p must be positive")
    pts = lattice_points(p, q)
    # Euler-weighted log coefficients: (i+k) * S[i,k] = -p * C(i+k, i)
    ws = {(i, k): -p * math.comb(i + k, i) for i, k in pts}
    prod: dict[tuple[int, int], int] = {(0, 0): 1}
    for (r, s) in pts:
        d = r + s
        acc = 0
        for (i, k), w in ws.items():
            if i <= r and k <= s:
                prev = prod.get((r - i, s - k))
                if prev is not None:
                    acc += w * prev
        coef, rem = divmod(acc, d)
        if rem:
            raise NonIntegerCoefficient(f"f_{{{p},{q}}} coefficient at {(r, s)}")
        prod[(r, s)] = coef
    poly = {m: -c for m, c in prod.items() if m != (0, 0) and c}
    for (r, s) in poly:
        if (r + (q % p) * s) % p or not 0 < r + s <= p:
            raise CensusBoundViolation(f"f_{{{p},{q}}} has the off-lattice term x^{r} y^{s}")
    return poly


def weight(r: int, s: int, p: int, q: int):
    """The weight k with r + q*s = k*p, or None when p does not divide."""
    k, rem = divmod(r + q * s, p)
    return k if rem == 0 else None


def lww_sign(r: int, s: int, w: int) -> int:
    """Sign of the coefficient at x^r y^s of weight w: +1 iff gcd(r, s, w) is odd."""
    return 1 if math.gcd(r, s, w) % 2 else -1


def c_closed(p: int, j: int) -> int:
    """Closed-form coefficient magnitude (p/(p-j)) * C(p-j, j) for f_{p,p-1}."""
    if not 1 <= j <= p // 2:
        raise IndexOutOfRange(f"j={j} outside 1..{p // 2}")
    num = p * math.comb(p - j, j)
    c, rem = divmod(num, p - j)
    if rem:
        raise NonIntegerCoefficient(f"c_{{{p},{j}}} = {num}/{p - j}")
    return c


def f_closed_pminus1(p: int) -> dict[tuple[int, int], int]:
    """x^p + y^p + sum_j (-1)^(j-1) c_{p,j} (xy)^j, the closed form of f_{p,p-1}."""
    terms = {(p, 0): 1, (0, p): 1}
    for j in range(1, p // 2 + 1):
        terms[(j, j)] = (-1) ** (j - 1) * c_closed(p, j)
    return terms


def even_binomial(n: int, a: int, c: int) -> list[int]:
    """Coefficients in t of E_n(a + c t), where E_n(u) = sum_m C(n, 2m) u^m.

    E_n(a^2) = ((1 + a)^n + (1 - a)^n) / 2.  The square-root formula for
    f_{p,p-1}, the generating identity of the binary dihedral d_k and the
    auxiliary polynomial P(z) are all written with E_n.
    """
    out = [0] * (n // 2 + 1)
    for m in range(n // 2 + 1):
        b = math.comb(n, 2 * m)
        for i in range(m + 1):
            out[i] += b * math.comb(m, i) * a ** (m - i) * c ** i
    return out


def verify_exact_formula(p: int) -> bool:
    """Check the square-root formula for f_{p,p-1}.

    ((1+a)/2)^p + ((1-a)/2)^p with a^2 = 1 - 4t is 2^(1-p) E_p(1 - 4t); the
    formula states f_{p,p-1} = x^p + y^p + 1 - 2^(1-p) E_p(1 - 4xy), so in
    particular every coefficient of E_p(1 - 4t) is divisible by 2^(p-1).
    """
    expect = {(p, 0): 1, (0, p): 1, (0, 0): 1}
    for i, g in enumerate(even_binomial(p, 1, -4)):
        c, rem = divmod(g, 1 << (p - 1))
        if rem:
            return False
        expect[(i, i)] = expect.get((i, i), 0) - c
    return {m: c for m, c in expect.items() if c} == fpq(p, p - 1)


class WeightReport(NamedTuple):
    """Per-weight term counts of f_{p,q} plus the per-term sign records."""

    p: int
    q: int
    per_k: dict[int, int]
    n_odd: int
    n_even: int
    n_total: int
    records: list[tuple[int, int, int, int]]  # (r, s, weight, sign)


def weight_census(p: int, q: int) -> WeightReport:
    """Exact weight census of f_{p,q}; the proven integer bounds are re-verified."""
    poly = fpq(p, q)
    per_k: dict[int, int] = {}
    records = []
    for (r, s), c in sorted(poly.items()):
        k = weight(r, s, p, q)
        if k is None:
            raise CensusBoundViolation(f"f_{{{p},{q}}} has the off-lattice term x^{r} y^{s}")
        per_k[k] = per_k.get(k, 0) + 1
        records.append((r, s, k, 1 if c > 0 else -1))
    n_total = len(poly)
    n_odd = sum(n for k, n in per_k.items() if k % 2)
    n_even = n_total - n_odd
    # bounds: N_1 = floor(p/q) + 1, N_q = 1 (q >= 2; for q = 1 all weights are 1),
    # |N_k - (q-k)/(q-1) * p/q| <= 1, |N - p/2| <= q
    if q >= 2 and per_k.get(q, 0) != 1:
        raise CensusBoundViolation(f"N_q != 1 for (p,q)=({p},{q})")
    if 1 <= q and per_k.get(1, 0) != p // q + 1:
        raise CensusBoundViolation(f"N_1 mismatch for (p,q)=({p},{q})")
    if q >= 2:
        for k in range(1, q + 1):
            nk = per_k.get(k, 0)
            if abs(nk * q * (q - 1) - (q - k) * p) > q * (q - 1):
                raise CensusBoundViolation(f"N_{k} bound fails for (p,q)=({p},{q})")
        if abs(2 * n_total - p) > 2 * q:
            raise CensusBoundViolation(f"total bound fails for (p,q)=({p},{q})")
    return WeightReport(p, q, per_k, n_odd, n_even, n_total, records)


def signature_cyclic(p: int, q: int) -> SignaturePair:
    """Sign census of the f_{p,q} coefficients (the diagonal group's signature)."""
    poly = fpq(p, q)
    pos = sum(1 for c in poly.values() if c > 0)
    return SignaturePair(pos, len(poly) - pos)


def signature_cyclic_closed(p: int) -> SignaturePair:
    """Closed form (floor((p+2)/4) + 2, floor(p/4)) for the SU(2) case q = p-1."""
    return SignaturePair((p + 2) // 4 + 2, p // 4)


def T_closed(q: int) -> Fraction:
    """Asymptotic positivity ratio of the weight-q family as an exact rational."""
    if q < 1:
        raise ValueError("q must be positive")
    if q % 2:
        return Fraction(3 * q + 1, 4 * q)
    return Fraction(3 * q - 2, 4 * (q - 1))


def mirror_check(p: int, q: int) -> bool:
    """Coefficient magnitudes of f_{p,q} and f_{p,p-q+1} agree, matched by y-degree.

    Each y-degree s carries at most one monomial of f_{p,q} (admissible
    x-degrees differ by p), so matching terms by s is the canonical
    correspondence; the x-degrees themselves move between the two families.
    """
    if not 1 <= q <= p:
        raise ValueError("need 1 <= q <= p")
    f1 = fpq(p, q)
    f2 = fpq(p, p - q + 1)
    by_s1 = {s: abs(c) for (r, s), c in f1.items()}
    by_s2 = {s: abs(c) for (r, s), c in f2.items()}
    if len(by_s1) != len(f1) or len(by_s2) != len(f2):
        raise CensusBoundViolation(
            f"two terms of f_{{{p},{q}}} or f_{{{p},{p - q + 1}}} share a y-degree")
    return by_s1 == by_s2


# -- text rendering -----------------------------------------------------------


def _sorted_for_display(poly: dict[tuple[int, int], int], p: int, q: int):
    return sorted(poly.items(), key=lambda it: (weight(it[0][0], it[0][1], p, q), it[0][1]))


def _monomial_text(r: int, s: int) -> str:
    parts = []
    if r:
        parts.append("x" if r == 1 else f"x^{r}")
    if s:
        parts.append("y" if s == 1 else f"y^{s}")
    return "".join(parts) or "1"


def format_fpq(poly: dict[tuple[int, int], int], p: int, q: int, latex: bool = False) -> str:
    """Render in the conventional order: ascending weight, then ascending y-degree."""
    parts = []
    for (r, s), c in _sorted_for_display(poly, p, q):
        if latex:
            mono = ("x" if r == 1 else f"x^{{{r}}}" if r else "") + \
                   ("y" if s == 1 else f"y^{{{s}}}" if s else "")
        else:
            mono = _monomial_text(r, s)
            if mono == "1":
                mono = ""
        mag = abs(c)
        body = mono if mag == 1 and mono else f"{mag}{mono}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{body}")
    return "".join(parts) or "0"


def family_table(q: int, p_max: int, latex: bool = False) -> list[str]:
    """Rows 'f_{p,q}(x,y) = ...' for 1 <= p <= p_max."""
    rows = []
    for p in range(1, p_max + 1):
        body = format_fpq(fpq(p, q), p, q, latex=latex)
        if latex:
            rows.append(f"$f_{{{p},{q}}}(x,y)$ & = ${body}$ \\\\")
        else:
            rows.append(f"f_{{{p},{q}}}(x,y) = {body}")
    return rows


def even_odd_table() -> list[str]:
    """The four residue cases of lim (N_even/N, N_odd/N) as formula rows."""
    rows = ["q mod 4 | lim N_even/N | lim N_odd/N"]
    for res, (ev, od) in (
        (0, ("(q-2)/(2(q-1))", "q/(2(q-1))")),
        (1, ("(q-1)/(2q)", "(q+1)/(2q)")),
        (2, ("(q-2)/(2(q-1))", "q/(2(q-1))")),
        (3, ("(q-1)/(2q)", "(q+1)/(2q)")),
    ):
        rows.append(f"{res} | {ev} | {od}")
    return rows
