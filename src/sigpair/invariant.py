"""Expansion of the group-invariant Hermitian polynomial.

The central object is Phi_G(z, zbar) = 1 - prod_{g in G} (1 - <gz, z>),
expanded exactly as a sparse polynomial in (z1, z2, zbar1, zbar2).

The product runs over the left cosets of the diagonal subgroup
H = {g in G : g.b = g.c = 0}.  For h = diag(alpha, beta),
<ghz, z> = alpha X_g + beta Y_g with X_g = z1 (g.a zbar1 + g.c zbar2) and
Y_g = z2 (g.b zbar1 + g.d zbar2), so each coset gH contributes one factor

    prod_{h in H} (1 - <ghz, z>) = 1 - F_H(X_g, Y_g),
    F_H(X, Y) = 1 - prod_{h in H} (1 - alpha X - beta Y).

H is every diagonal element of G, the largest subgroup the identity applies
to, so the fold runs over [G:H] factors instead of |G| linear ones.  For a
diagonal cyclic group Gamma(p, q), F_H is f_{p,q} and the index is 1; the
dihedral and binary dihedral groups have index 2, the binary polyhedral
groups 6 (T, O) or 12 (I).  The identity coset's factor is not folded: with
X_I = z1 zbar1 and Y_I = z2 zbar2 it is 1 - F_H(X, Y) itself, an integer
polynomial that `_diagonal_product` builds from power sums.  Reading each
diagonal entry as zeta_N^a (N = lcm(2, n)), character orthogonality gives
sum_h alpha_h^i beta_h^j = |H| on the weight lattice of H and 0 off it, so

    log prod_h (1 - alpha_h X - beta_h Y) = sum_lattice -|H| C(i+j, i) X^i Y^j / (i+j),

and the Euler operator turns the exponential into an integer recurrence
(D'Angelo-Lichtblau; `fpq` runs the cyclic case on its own).  The fold
continues from that factor over the other cosets.  H = {I} gives
F_H = X + Y, the element-wise fold.  The polarization
1 - prod_{g in G}(1 - (gz)_1 - (gz)_2) is Phi_G at zbar = (1, 1): its
terms with the zbar exponents dropped, summed.

The fold runs on scaled integer coordinate vectors (n the common cyclotomic
order of all matrix entries) and converts to canonical field elements once
at the end: each factor is scaled by the lcm of its coefficients'
denominators, multiplication of coefficients is a cyclic convolution of
small integer vectors in Z[x]/(x^n - 1), and after every factor each vector
is reduced modulo the cyclotomic polynomial Phi_n and dropped if it
vanishes there.  The reduction keeps vectors short and drops monomials
whose coefficient is zero in Q(zeta_n) but not in Z[x]/(x^n - 1); it is
`cyclotomic.reduce_vector`, the one that canonical field elements are
reduced with, so a reduced vector over the product of the scales becomes a
field element by one gcd (`Cyclotomic.from_reduced`).  Group
elements are compared with `Matrix2.key`, exact by value because a group
stores all its entries at one field order.

Monomial keys pack the exponent quadruple (a1, a2, b1, b2) of
z1^a1 z2^a2 zbar1^b1 zbar2^b2 into one integer, 16 bits per slot, so the
product of two monomials is the sum of their keys while every exponent stays
below 2^16.  Every exponent of Phi_G is at most |G|, hence the order limit
of 65535.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import Cyclotomic, rational, reduce_vector, root_items
from .group import FiniteMatrixGroup, Matrix2

_SHIFT = (0, 16, 32, 48)
_MASK = 0xFFFF
_Z_SLOTS = (1 << _SHIFT[2]) - 1


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


# the monomials of <gz, z> = g.a z1 zbar1 + g.b z2 zbar1 + g.c z1 zbar2 + g.d z2 zbar2
_Z1W1, _Z2W1, _Z1W2, _Z2W2 = (pack_key(1, 0, 1, 0), pack_key(0, 1, 1, 0),
                              pack_key(1, 0, 0, 1), pack_key(0, 1, 0, 1))


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
        return tuple(sorted((k, c.key()) for k, c in self.terms.items()))

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
        conj_rows = tuple(tuple(e.conj() for e in row) for row in rows)
        zp = _power_table([_linear(row, 0) for row in rows],
                          {unpack_key(key)[:2] for key in self.terms})
        wp = _power_table([_linear(row, 2) for row in conj_rows],
                          {unpack_key(key)[2:] for key in self.terms})
        out: dict[int, Cyclotomic] = {}
        for key, c in self.terms.items():
            a1, a2, b1, b2 = unpack_key(key)
            for k, v in (zp[(a1, a2)] * wp[(b1, b2)]).terms.items():
                _accumulate(out, k, c * v)
        return HermitianPolynomial(out)

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


def _linear(row, slot: int) -> HermitianPolynomial:
    """row[0] * v1 + row[1] * v2, with v1, v2 the variables in `slot` and
    `slot + 1` (0 for z1, z2; 2 for zbar1, zbar2)."""
    return HermitianPolynomial({1 << _SHIFT[slot + k]: e
                                for k, e in enumerate(row) if not e.is_zero()})


def _power_table(bases, pairs) -> dict:
    """(e1, e2) -> bases[0]^e1 * bases[1]^e2 for every exponent pair in `pairs`."""
    powers = []
    for k, base in enumerate(bases):
        p = [HermitianPolynomial({0: rational(1)})]
        for _ in range(max((pair[k] for pair in pairs), default=0)):
            p.append(p[-1] * base)
        powers.append(p)
    p1, p2 = powers
    return {(a, b): p1[a] * p2[b] for a, b in pairs}


def _fold_product(factors, n: int, progress=None, prod=None):
    """prod (default 1) times the (d + sum of scaled monomial terms) factors.

    Coefficients are integer vectors multiplied in Z[x]/(x^n - 1) and reduced
    modulo Phi_n after every factor, so a vector is dropped exactly when its
    coefficient vanishes in Q(zeta_n).
    """
    if prod is None:
        prod = {0: [1] + [0] * (n - 1)}
    for idx, (d, terms) in enumerate(factors):
        out: dict[int, list[int]] = {}
        for key, vec in prod.items():
            nonzero = [(i, v) for i, v in enumerate(vec) if v]
            acc = out.get(key)
            if acc is None:
                out[key] = [d * v for v in vec]
            else:
                for i, v in nonzero:
                    acc[i] += d * v
            for delta, coefs in terms:
                k2 = key + delta
                acc = out.get(k2)
                if acc is None:
                    acc = [0] * n
                    out[k2] = acc
                for e, c in coefs:
                    for i, v in nonzero:
                        j = i + e
                        acc[j if j < n else j - n] += c * v
        prod = {key: vec for key, vec in out.items() if any(reduce_vector(vec, n))}
        if progress is not None:
            progress(idx + 1, len(factors))
    return prod


def _integer_factor(terms, n: int):
    """1 + sum of c * monomial over the (key, c) pairs, scaled by the lcm d of
    the coefficients' denominators: (d, [(key, [(exponent, integer)])])."""
    placed = [(key, c.promote(n)) for key, c in terms if not c.is_zero()]
    d = math.lcm(1, *(c.den for _, c in placed))
    return d, [(key, [(e, v * (d // c.den)) for e, v in c.items]) for key, c in placed]


def _is_diagonal(M: Matrix2) -> bool:
    return M.b.is_zero() and M.c.is_zero()


def _poly(*terms) -> HermitianPolynomial:
    """sum of c * monomial over the (packed key, c) pairs with c nonzero."""
    return HermitianPolynomial({key: c for key, c in terms if not c.is_zero()})


def _root_exponents(n: int) -> dict:
    """The canonical numerators of every root of unity +-zeta_n^k in Q(zeta_n)
    (den 1, `root_items`), mapped to the exponent a with value zeta_N^a,
    N = lcm(2, n); the rationals +-1, stored at order 1, have the numerators
    of k = 0."""
    N = math.lcm(2, n)
    table = {}
    for k, items in enumerate(root_items(n)):
        a = k * (N // n)
        table[items] = a
        table[tuple((i, -c) for i, c in items)] = (a + N // 2) % N
    return table


def _log_weights(exponents: set, N: int, order: int) -> dict:
    """(i, j) -> (i + j) [log P](i, j) = -order C(i+j, i) for P the product
    over the group of exponent pairs `exponents`, on its weight lattice
    {(i, j): 0 < i + j <= order, a i + b j = 0 mod N for every (a, b)},
    in ascending degree; off the lattice the power sums vanish."""
    chars = [(a, b) for a, b in exponents if a or b]
    return {(i, d - i): -order * math.comb(d, i)
            for d in range(1, order + 1) for i in range(d, -1, -1)
            if all((a * i + b * (d - i)) % N == 0 for a, b in chars)}


def _diagonal_product(H: list[Matrix2], n: int) -> dict[tuple[int, int], int]:
    """prod_{h in H}(1 - alpha_h X - beta_h Y) as {(r, s): int}, zero terms
    omitted, for H a group of diag(alpha_h, beta_h) with entries in Q(zeta_n).

    Each entry is read exactly as zeta_N^a, N = lcm(2, n); then the Euler
    recurrence (r+s) P[r, s] = sum_{(i,j)} w(i, j) P[r-i, s-j] over the
    weight lattice rebuilds the product in plain ints.  The recurrence holds
    only for a group, so an entry that is not a root of unity, a repeated
    element, a set not closed under products or an inexact division raises
    `InvariantCheckFailed`.
    """
    N = math.lcm(2, n)
    table = _root_exponents(n)

    def exponent(e: Cyclotomic) -> int:
        a = table.get(e.items) if e.den == 1 and e.order in (1, n) else None
        if a is None:
            raise InvariantCheckFailed(f"diagonal entry {e} is not a root of unity in Q(zeta_{n})")
        return a

    exponents = {(exponent(h.a), exponent(h.d)) for h in H}
    _require(len(exponents) == len(H)
             and all(((a + c) % N, (b + d) % N) in exponents
                     for a, b in exponents for c, d in exponents),
             f"the {len(H)} diagonal elements are not a group")
    weights = _log_weights(exponents, N, len(H))
    prod = {(0, 0): 1}
    for r, s in weights:
        acc = 0
        for (i, j), w in weights.items():
            if i <= r and j <= s:
                prev = prod.get((r - i, s - j))
                if prev is not None:
                    acc += w * prev
        coef, rem = divmod(acc, r + s)
        if rem:
            raise InvariantCheckFailed(f"Euler recurrence: {acc} at {(r, s)} "
                                       f"is not a multiple of {r + s}")
        if coef:
            prod[(r, s)] = coef
    return prod


def _product(G: FiniteMatrixGroup, n: int, progress=None):
    """prod_{g in G}(1 - <gz, z>) as (integer vectors, scale), folded by cosets.

    The identity coset's factor 1 - F_H(X_I, Y_I) is `_diagonal_product` of
    the diagonal elements H, its term X^i Y^j the monomial z1^i z2^j zbar1^i
    zbar2^j.  Every other left coset gH contributes 1 - F_H(X_g, Y_g), with
    X_g = z1 (g.a zbar1 + g.c zbar2) and Y_g = z2 (g.b zbar1 + g.d zbar2).
    `progress(done, [G:H])` follows each coset, the identity's first.
    """
    H = [M for M in G.elements if _is_diagonal(M)]
    reps, covered = [], set()
    for g in G.elements:
        if not _is_diagonal(g) and g.key() not in covered:
            reps.append(g)
            covered.update((g * h).key() for h in H)
    _require((1 + len(reps)) * len(H) == G.order,
             f"Lagrange identity: {1 + len(reps)} cosets of the {len(H)} diagonal "
             f"elements do not make up {G.order} elements")
    identity_factor = _diagonal_product(H, n)
    prod = {pack_key(r, s, r, s): [c] + [0] * (n - 1) for (r, s), c in identity_factor.items()}
    if progress is not None:
        progress(1, 1 + len(reps))
    if not reps:
        return prod, 1
    # (i, j) -> coefficient of X^i Y^j in -F_H, the non-constant part of 1 - F_H
    minus_f = {ij: rational(c) for ij, c in identity_factor.items() if ij != (0, 0)}
    factors = []
    for g in reps:
        table = _power_table([_poly((_Z1W1, g.a), (_Z1W2, g.c)),
                              _poly((_Z2W1, g.b), (_Z2W2, g.d))], minus_f)
        factor: dict[int, Cyclotomic] = {}
        for ij, c in minus_f.items():
            for key, v in table[ij].terms.items():
                _accumulate(factor, key, c * v)
        factors.append(_integer_factor(factor.items(), n))
    report = None if progress is None else (lambda done, total: progress(1 + done, 1 + total))
    prod = _fold_product(factors, n, report, prod)
    return prod, math.prod(d for d, _ in factors)


def phi(G: FiniteMatrixGroup, progress=None) -> HermitianPolynomial:
    """Exact expansion of Phi_G = 1 - prod_{g in G}(1 - <gz, z>)."""
    if G.order > _MASK:
        raise GroupTooLarge(f"group order {G.order} exceeds the packed-exponent limit {_MASK}")
    n = G.field_order()
    prod, scale = _product(G, n, progress)
    terms = {key: Cyclotomic.from_reduced(n, vec, -scale) for key, vec in prod.items()}
    _accumulate(terms, 0, rational(1))
    _require(0 not in terms, "constant term must vanish")
    out = HermitianPolynomial(terms)
    _require(out.check_hermitian(), "expansion lost Hermitian symmetry")
    _require(all(x <= G.order for key in out.terms for x in unpack_key(key)),
             "degree bound exceeded")
    return out


def polarized_at_ones(G: FiniteMatrixGroup, progress=None) -> HermitianPolynomial:
    """1 - prod_{g in G}(1 - (gz)_1 - (gz)_2), a holomorphic polynomial:
    Phi_G at zbar = (1, 1)."""
    out: dict[int, Cyclotomic] = {}
    for key, c in phi(G, progress).terms.items():
        _accumulate(out, key & _Z_SLOTS, c)
    return HermitianPolynomial(out)
