"""Expansion of the group-invariant Hermitian polynomial.

The central object is Phi_G(z, zbar) = 1 - prod_{g in G} (1 - <gz, z>),
expanded exactly as a sparse polynomial in (z1, z2, zbar1, zbar2).  The fold
over group elements is the dominant cost for the large groups, so it runs on
scaled integer coordinate vectors in Z[x]/(x^n - 1) (n the common cyclotomic
order of all matrix entries) and converts to canonical field elements once at
the end: denominators are cleared per factor, multiplication of coefficients
is a cyclic convolution of small integer vectors, and zero vectors are
dropped eagerly.

Monomial keys pack the exponent quadruple (a1, a2, b1, b2) of
z1^a1 z2^a2 zbar1^b1 zbar2^b2 into one integer, 16 bits per slot, so the
product of two monomials is the sum of their keys while every exponent stays
below 2^16.  Every exponent of Phi_G is at most |G|, hence the order limit
of 65535.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import Cyclotomic, rational
from .group import FiniteMatrixGroup, Matrix2

_SHIFT = (0, 16, 32, 48)
_MASK = 0xFFFF


class GroupTooLarge(ValueError):
    """Group order beyond what the packed exponent keys can hold."""


class InvariantCheckFailed(ArithmeticError):
    """An expansion broke an identity that every exact expansion satisfies."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise InvariantCheckFailed(what)


def pack_key(a1: int, a2: int, b1: int, b2: int) -> int:
    return a1 | (a2 << 16) | (b1 << 32) | (b2 << 48)


def unpack_key(key: int) -> tuple[int, int, int, int]:
    return (key & _MASK, (key >> 16) & _MASK, (key >> 32) & _MASK, (key >> 48) & _MASK)


def _accumulate(out: dict, key: int, value: Cyclotomic) -> None:
    """out[key] += value, dropping the key when the sum cancels."""
    s = out.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


class HermitianPolynomial:
    """Sparse polynomial in z1, z2, zbar1, zbar2: packed key -> coefficient.

    Coefficients are exact Cyclotomic values.  `phi` returns Hermitian ones,
    with c(beta, alpha) = conj(c(alpha, beta)); a holomorphic polynomial is
    one whose zbar exponents are all zero (`holomorphic`).
    """

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms: dict[int, Cyclotomic] | None = None):
        self.terms = {} if terms is None else terms

    @classmethod
    def holomorphic(cls, terms: dict[tuple[int, int], object]) -> "HermitianPolynomial":
        """sum of c z1^a1 z2^a2 over {(a1, a2): c}; c may be int, Fraction or Cyclotomic."""
        out = {}
        for (a1, a2), c in terms.items():
            c = c if isinstance(c, Cyclotomic) else rational(c)
            if not c.is_zero():
                out[pack_key(a1, a2, 0, 0)] = c
        return cls(out)

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def support(self) -> list[tuple[int, int]]:
        """Sorted distinct monomials occurring as alpha or beta (graded order)."""
        mons = set()
        for key in self.terms:
            a1, a2, b1, b2 = unpack_key(key)
            mons.add((a1, a2))
            mons.add((b1, b2))
        return sorted(mons, key=lambda m: (m[0] + m[1], m[0], m[1]))

    def coeff(self, a1: int, a2: int, b1: int, b2: int) -> Cyclotomic:
        return self.terms.get(pack_key(a1, a2, b1, b2), rational(0))

    def is_diagonal(self) -> bool:
        """True iff every stored term has alpha = beta."""
        for key in self.terms:
            a1, a2, b1, b2 = unpack_key(key)
            if a1 != b1 or a2 != b2:
                return False
        return True

    def check_hermitian(self) -> bool:
        for key, c in self.terms.items():
            a1, a2, b1, b2 = unpack_key(key)
            mirror = self.terms.get(pack_key(b1, b2, a1, a2))
            if mirror is None or mirror != c.conj():
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, HermitianPolynomial):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(other.terms[k] == c for k, c in self.terms.items())

    def key(self) -> tuple:
        """Exact hashable identity (for orbit deduplication)."""
        return tuple(sorted((k, c.order, c.items) for k, c in self.terms.items()))

    def diagonal_restriction(self) -> dict[tuple[int, int], Fraction]:
        """For diagonal polynomials: coefficients of x^a y^b with x=|z1|^2, y=|z2|^2."""
        if not self.is_diagonal():
            raise ValueError("polynomial has off-diagonal terms")
        out = {}
        for key, c in self.terms.items():
            a1, a2, _, _ = unpack_key(key)
            out[(a1, a2)] = c.as_fraction()
        return out

    def compose(self, M: Matrix2) -> "HermitianPolynomial":
        """Exact substitution z -> Mz (and zbar -> conj(M) zbar), re-expanded.

        Quadratic blowup; intended for small groups: the invariance checks and
        the group action on holomorphic polynomials.
        """
        rows = ((M.a, M.b), (M.c, M.d))
        zp = _power_table(rows, 0, self._max_exp(0), self._max_exp(1))
        conj_rows = tuple(tuple(e.conj() for e in row) for row in rows)
        wp = _power_table(conj_rows, 2, self._max_exp(2), self._max_exp(3))
        out: dict[int, Cyclotomic] = {}
        for key, c in self.terms.items():
            a1, a2, b1, b2 = unpack_key(key)
            for k, v in (zp[(a1, a2)] * wp[(b1, b2)]).terms.items():
                _accumulate(out, k, c * v)
        return HermitianPolynomial(out)

    def _max_exp(self, slot: int) -> int:
        return max((key >> _SHIFT[slot]) & _MASK for key in self.terms) if self.terms else 0

    def __mul__(self, other) -> "HermitianPolynomial":
        if not isinstance(other, HermitianPolynomial):
            c = other if isinstance(other, Cyclotomic) else rational(other)
            if c.is_zero():
                return HermitianPolynomial()
            return HermitianPolynomial({k: v * c for k, v in self.terms.items()})
        out: dict[int, Cyclotomic] = {}
        for ka, u in self.terms.items():
            for kb, v in other.terms.items():
                _accumulate(out, ka + kb, u * v)
        return HermitianPolynomial(out)

    def __add__(self, other: "HermitianPolynomial") -> "HermitianPolynomial":
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        return HermitianPolynomial(out)

    def __neg__(self) -> "HermitianPolynomial":
        return HermitianPolynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "HermitianPolynomial") -> "HermitianPolynomial":
        return self + (-other)

    def csv_rows(self):
        """Rows 'a1,a2,b1,b2,coeff-json' sorted lexicographically."""
        import json as _json

        for quad in sorted(unpack_key(k) for k in self.terms):
            c = self.terms[pack_key(*quad)]
            yield ",".join(str(x) for x in quad) + "," + _json.dumps(c.to_json_dict(), sort_keys=True)

    def __repr__(self):
        return f"HermitianPolynomial(<{len(self.terms)} terms>)"


def _power_table(rows, slot: int, max1: int, max2: int) -> dict:
    """(e1, e2) -> l1^e1 * l2^e2 for all needed exponent pairs.

    l_i = rows[i][0] * v1 + rows[i][1] * v2, with v1, v2 the variables in
    `slot` and `slot + 1` (0 for z1, z2; 2 for zbar1, zbar2).
    """
    powers = []
    for row, top in zip(rows, (max1, max2)):
        linear = HermitianPolynomial({1 << _SHIFT[slot + k]: e
                                      for k, e in enumerate(row) if not e.is_zero()})
        p = [HermitianPolynomial({0: rational(1)})]
        for _ in range(top):
            p.append(p[-1] * linear)
        powers.append(p)
    p1, p2 = powers
    return {(a, b): p1[a] * p2[b] for a in range(max1 + 1) for b in range(max2 + 1)}


def _fold_product(factors, n: int, progress=None):
    """prod of (d + sum of scaled monomial terms) over Z[x]/(x^n - 1) vectors."""
    prod = {0: [1] + [0] * (n - 1)}
    rng = range(n)
    for idx, (d, terms) in enumerate(factors):
        out: dict[int, list[int]] = {}
        for key, vec in prod.items():
            acc = out.get(key)
            if acc is None:
                out[key] = [d * v for v in vec]
            else:
                for i in rng:
                    acc[i] += d * vec[i]
            for delta, coefs in terms:
                k2 = key + delta
                acc = out.get(k2)
                if acc is None:
                    acc = [0] * n
                    out[k2] = acc
                for e, c in coefs:
                    for i in rng:
                        v = vec[i]
                        if v:
                            j = i + e
                            acc[j if j < n else j - n] += c * v
        prod = {k: v for k, v in out.items() if any(v)}
        if progress is not None:
            progress(idx + 1, len(factors))
    return prod


def _expand(G: FiniteMatrixGroup, row, progress=None) -> HermitianPolynomial:
    """1 - prod_{g in G}(1 - sum of c * monomial over row(g)), exactly.

    row(g) lists (key_delta, c) pairs: the packed key of a monomial and its
    Cyclotomic coefficient.  Each factor is scaled by the lcm d of its
    coefficients' denominators, so the fold runs on integers.
    """
    if G.order > _MASK:
        raise GroupTooLarge(f"group order {G.order} exceeds the packed-exponent limit {_MASK}")
    n = G.field_order()
    factors = []
    for M in G.elements:
        placed = [(delta, (c if c.order == n else c.promote(n)).items)
                  for delta, c in row(M) if not c.is_zero()]
        d = math.lcm(1, *(v.denominator for _, items in placed for _, v in items))
        factors.append((d, [(delta, [(e, -(v * d).numerator) for e, v in items])
                            for delta, items in placed]))
    scale = math.prod(d for d, _ in factors)
    terms = {0: rational(1)}
    for key, vec in _fold_product(factors, n, progress=progress).items():
        c = Cyclotomic(n, {e: Fraction(v, scale) for e, v in enumerate(vec) if v})
        _accumulate(terms, key, -c)
    _require(0 not in terms, "constant term must vanish")
    return HermitianPolynomial(terms)


def phi(G: FiniteMatrixGroup, progress=None) -> HermitianPolynomial:
    """Exact expansion of Phi_G = 1 - prod_{g in G}(1 - <gz, z>)."""
    # <gz, z> = sum_{j,k} g[j][k] z_k zbar_j
    out = _expand(G, lambda M: [(pack_key(1, 0, 1, 0), M.a), (pack_key(0, 1, 1, 0), M.b),
                                (pack_key(1, 0, 0, 1), M.c), (pack_key(0, 1, 0, 1), M.d)],
                  progress)
    _require(out.check_hermitian(), "expansion lost Hermitian symmetry")
    _require(all(x <= G.order for key in out.terms for x in unpack_key(key)),
             "degree bound exceeded")
    return out


def polarized_at_ones(G: FiniteMatrixGroup, progress=None) -> HermitianPolynomial:
    """1 - prod_{g in G}(1 - (gz)_1 - (gz)_2), a holomorphic polynomial."""
    return _expand(G, lambda M: [(pack_key(1, 0, 0, 0), M.a + M.c),
                                 (pack_key(0, 1, 0, 0), M.b + M.d)], progress)
