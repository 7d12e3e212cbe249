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
F_H = X + Y, the element-wise fold.

The product is commutative, so the coset order changes no coefficient, only
how large the partial products grow.  H permutes the non-identity cosets by
left multiplication, gH -> hgH, and the fold takes them orbit by orbit
(the double cosets HgH), largest orbit first, so the singletons (cosets in
the normalizer of H), whose factors are sparse, come last.  The substitution
z -> kz, k in H, maps the factor of gH to that of k^-1 gH, since
<x k z, k z> = <k^-1 x k z, z> and k^-1 x k ranges over k^-1 gH as x ranges
over gH.  A product over a whole orbit of a subgroup K of H is therefore
invariant under z -> kz: a term z^a zbar^b with k = diag(alpha, beta)
gains alpha^(a1-b1) beta^(a2-b2), so the product's support lies on K's
weight lattice, and the factors after it multiply fewer terms.  Inside an
H-orbit the cosets follow a chain {I} = K_0 < K_1 < ... = H, each step of
least index, with every orbit of every K_t contiguous (`_coset_orbits`): the
prefix completes a K_1-orbit, then a K_2-orbit, and so on.  Taking `O`'s
five cosets this way halves its term products (146,600 -> 75,649) and
matches the least over all 120 orders.  The polarization
1 - prod_{g in G}(1 - (gz)_1 - (gz)_2) is Phi_G at zbar = (1, 1): its
terms with the zbar exponents dropped, summed.

The fold runs on scaled integer coordinate vectors (n the common cyclotomic
order of all matrix entries) and converts to canonical field elements once
at the end: each factor is scaled by the lcm of its coefficients'
denominators, and after every factor each vector is reduced modulo the
cyclotomic polynomial Phi_n and dropped if it vanishes there, so vectors
stay phi(n) long and monomials whose coefficient is zero in Q(zeta_n) go at
once.  Within a factor step each vector v travels as the one int v(2^w),
w bits per signed slot (Kronecker substitution): multiplying two
coefficients is one int product, and reducing a sum modulo Phi_n is one
int remainder modulo Phi_n(2^w), after which its phi(n) slots are the
reduced vector.  The width w is measured per step from the prefix's largest
coordinate and the factor's l1 norm, a proven bound that makes both steps
exact (`_fold_product`).  A reduced vector over the product of the scales
becomes a field element by one gcd (`Cyclotomic.from_reduced`).  Group
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
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import lshift

from .cyclotomic import (Cyclotomic, _place, cyclotomic_polynomial, euler_phi, rational,
                         root_items)
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
        """c(beta, alpha) == conj(c(alpha, beta)) for every stored term,
        each unordered pair compared once."""
        terms = self.terms
        for key, c in terms.items():
            mirror_key = (key >> _SHIFT[2]) | ((key & _Z_SLOTS) << _SHIFT[2])  # (beta, alpha)
            if mirror_key < key and mirror_key in terms:
                continue  # the pair was compared from its mirror
            mirror = terms.get(mirror_key)
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


@lru_cache(maxsize=None)
def _reduction_norm(n: int, span: int) -> int:
    """max_i sum_{k < span} |[x^k mod Phi_n]_i|: reducing modulo Phi_n a
    polynomial of degree below `span` whose coefficients are at most B in
    absolute value leaves coordinates at most B times this.  x^k mod Phi_n is
    the `root_items` row of zeta_n^(k mod n)."""
    roots = root_items(n)
    norm = [0] * euler_phi(n)
    for k in range(span):
        for i, c in roots[k % n]:
            norm[i] += abs(c)
    return max(norm)


def _slot_width(n: int, top: int, l1: int, span: int) -> int:
    """The least w with 2^w > 2 A + C, A = top * l1 * `_reduction_norm` and
    C the largest |coefficient| of Phi_n: the slot width that makes a fold
    step exact (see `_fold_product`)."""
    bound = top * l1 * _reduction_norm(n, span)
    return (2 * bound + max(map(abs, cyclotomic_polynomial(n)))).bit_length()


def _fold_product(factors, n: int, progress=None, prod=None):
    """prod (default 1) times the (d + sum of scaled monomial terms) factors.

    A coefficient, an integer vector v reduced modulo Phi_n, is packed into
    the one int v(2^w), w bits per signed slot (Kronecker substitution), so a
    term pair costs one int product.  After each factor every packed sum
    s(2^w) is reduced modulo N = Phi_n(2^w): its balanced residue is r(2^w)
    for r = s mod Phi_n, and the phi(n) slots of that residue are the reduced
    vector r, dropped when it is zero.  Every coefficient of s is at most
    top * l1 in absolute value, top the largest coordinate of the prefix
    (read as its vectors are unpacked) and l1 = |d| + sum |c| the factor's
    norm, because each factor term meets each output key at most once.  So
    every |r_i| is at most A (`_slot_width`), and 2^w > 2 A + C gives
    |r(2^w)| < N / 2 and |r_i| < 2^(w-1): the residue and its slots are
    exact.  A packed sum outside the range of its signed w-bit slots raises
    `InvariantCheckFailed`.  `progress(step, steps, terms, w)` follows each
    factor with the prefix's term count and the slot width.
    """
    if prod is None:
        prod = {0: [1] + [0] * (n - 1)}
    phi = euler_phi(n)
    pad = [0] * (n - phi)
    prod = {key: _place([0] * phi, n, n, [(k, v) for k, v in enumerate(vec) if v], 1) + pad
            for key, vec in prod.items()}
    modulus = cyclotomic_polynomial(n)
    top = max((max(max(vec), -min(vec)) for vec in prod.values()), default=0)
    for idx, (d, terms) in enumerate(factors):
        span = phi + max((e for _, coefs in terms for e, _ in coefs), default=0)
        l1 = abs(d) + sum(abs(c) for _, coefs in terms for _, c in coefs)
        w = _slot_width(n, top, l1, span)
        packed = [(0, d)] + [(delta, sum(c << w * e for e, c in coefs)) for delta, coefs in terms]
        shifts = range(0, w * phi, w)
        out: dict[int, int] = {}
        get = out.get
        for key, vec in prod.items():
            x = sum(map(lshift, vec, shifts))
            for delta, c in packed:
                k2 = key + delta
                out[k2] = get(k2, 0) + x * c
        half, mask = 1 << (w - 1), (1 << w) - 1
        # s(2^w) with every |s_k| < 2^(w-1) lies in [low, low + 2^(w span))
        low = -sum(half << s for s in range(0, w * span, w))
        high = low + (1 << w * span)
        N = sum(c << w * i for i, c in enumerate(modulus))
        half_n = N >> 1
        bias = sum(half << s for s in shifts)
        prod, top = {}, 0
        for key, x in out.items():
            if not low <= x < high:
                raise InvariantCheckFailed(f"a packed sum overflows its {span} slots of {w} bits")
            x %= N
            if x:
                if x > half_n:
                    x -= N
                x += bias
                vec = [((x >> s) & mask) - half for s in shifts]
                prod[key] = vec + pad
                top = max(top, max(vec), -min(vec))
        if progress is not None:
            progress(idx + 1, len(factors), len(prod), w)
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


def _diagonal_exponents(H: list[Matrix2], n: int) -> list[tuple[int, int]]:
    """(a, b) with h = diag(zeta_N^a, zeta_N^b), N = lcm(2, n), for each h in
    H, whose entries lie in Q(zeta_n); an entry that is not a root of unity
    raises `InvariantCheckFailed`."""
    table = _root_exponents(n)

    def exponent(e: Cyclotomic) -> int:
        a = table.get(e.items) if e.den == 1 and e.order in (1, n) else None
        if a is None:
            raise InvariantCheckFailed(f"diagonal entry {e} is not a root of unity in Q(zeta_{n})")
        return a

    return [(exponent(h.a), exponent(h.d)) for h in H]


def _diagonal_product(exponents: list[tuple[int, int]], n: int) -> dict[tuple[int, int], int]:
    """prod_{h in H}(1 - alpha_h X - beta_h Y) as {(r, s): int}, zero terms
    omitted, for H a group of diag(alpha_h, beta_h) = diag(zeta_N^a, zeta_N^b)
    over the (a, b) in `exponents` (`_diagonal_exponents`), N = lcm(2, n).

    The Euler recurrence (r+s) P[r, s] = sum_{(i,j)} w(i, j) P[r-i, s-j] over
    the weight lattice rebuilds the product in plain ints.  The recurrence
    holds only for a group, so a repeated element, a set not closed under
    products or an inexact division raises `InvariantCheckFailed`.
    """
    N = math.lcm(2, n)
    distinct = set(exponents)
    _require(len(distinct) == len(exponents)
             and all(((a + c) % N, (b + d) % N) in distinct
                     for a, b in distinct for c, d in distinct),
             f"the {len(exponents)} diagonal elements are not a group")
    weights = _log_weights(distinct, N, len(exponents))
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


def _cosets(G: FiniteMatrixGroup):
    """(H, reps, coset): the diagonal elements H of G, one representative g
    of each non-identity left coset gH in enumeration order, and the map from
    each element key of those cosets to its representative's index."""
    H = [M for M in G.elements if _is_diagonal(M)]
    reps, coset = [], {}
    for g in G.elements:
        if not _is_diagonal(g) and g.key() not in coset:
            coset.update(((g * h).key(), len(reps)) for h in H)
            reps.append(g)
    _require((1 + len(reps)) * len(H) == G.order,
             f"Lagrange identity: {1 + len(reps)} cosets of the {len(H)} diagonal "
             f"elements do not make up {G.order} elements")
    return H, reps, coset


def _chain(exponents: list[tuple[int, int]], N: int) -> list[int]:
    """Indices i_1, i_2, ... into `exponents`, the group H of exponent pairs
    modulo N, with K_0 = {0} < K_1 < ... = H for K_t generated by K_(t-1)
    and exponents[i_t], each step of least index [K_t : K_(t-1)] (the first
    such element in order).  The least index is the least prime m dividing
    [H : K_(t-1)] (Cauchy), so the step is the first element outside K_(t-1)
    whose m-th multiple lies in it: one pass over H per step."""
    K, chain = {(0, 0)}, []
    while len(K) < len(exponents):
        q = len(exponents) // len(K)
        m = next(p for p in range(2, q + 1) if q % p == 0)
        i = next(i for i, (a, b) in enumerate(exponents)
                 if (a, b) not in K and (m * a % N, m * b % N) in K)
        a, b = exponents[i]
        K = {((x + k * a) % N, (y + k * b) % N) for x, y in K for k in range(m)}
        chain.append(i)
    return chain


def _coset_orbits(H: list[Matrix2], exponents: list[tuple[int, int]], n: int,
                  reps: list[Matrix2], coset: dict) -> list[list[int]]:
    """The orbits of H, acting by left multiplication, on the non-identity
    cosets (indices into `reps`), in fold order: largest orbit first, ties in
    enumeration order.  Inside an orbit the cosets are sorted so that every
    orbit of every subgroup K_t of `_chain` is contiguous.

    A generator h of the chain permutes the cosets by gH -> hgH, one matrix
    product per coset; the K_t-orbit of a coset is the union of the
    K_(t-1)-orbits along its cycle under h_t, because H is abelian.  A scalar
    fixes every coset, so an H of scalars, or at most one coset, keeps the
    enumeration order without a case of its own.
    """
    label = list(range(len(reps)))  # the least coset of each orbit of K_t
    levels = []
    for i in _chain(exponents, math.lcm(2, n)):
        perm = [coset[(H[i] * g).key()] for g in reps]
        new = []
        for j, least in enumerate(label):
            k = perm[j]
            while k != j:
                least, k = min(least, label[k]), perm[k]
            new.append(least)
        label = new
        levels.append(label)
    size = Counter(label)
    order = sorted(range(len(reps)), key=lambda j: (-size[label[j]],) + tuple(
        level[j] for level in reversed(levels)) + (j,))
    return [list(orbit) for _, orbit in groupby(order, key=label.__getitem__)]


def _product(G: FiniteMatrixGroup, n: int, progress=None, stats=None):
    """prod_{g in G}(1 - <gz, z>) as (integer vectors, scale), folded by cosets.

    The identity coset's factor 1 - F_H(X_I, Y_I) is `_diagonal_product` of
    the diagonal elements H, its term X^i Y^j the monomial z1^i z2^j zbar1^i
    zbar2^j.  Every other left coset gH contributes 1 - F_H(X_g, Y_g), with
    X_g = z1 (g.a zbar1 + g.c zbar2) and Y_g = z2 (g.b zbar1 + g.d zbar2),
    folded in the order of `_coset_orbits`.
    `progress(done, [G:H], terms, width)` follows each coset, the identity's
    first with width None (its factor is not folded); terms is the product's
    term count so far and width the fold step's slot width in bits.  `stats`,
    a dict, receives `cosets` (the factors folded), `orbits` (their H-orbits),
    `peak_terms` (the largest prefix) and `term_pairs` (the fold's int
    products, prefix terms times factor terms plus one, summed over steps).
    """
    H, reps, coset = _cosets(G)
    exponents = _diagonal_exponents(H, n)
    identity_factor = _diagonal_product(exponents, n)
    prod = {pack_key(r, s, r, s): [c] + [0] * (n - 1) for (r, s), c in identity_factor.items()}
    orbits = _coset_orbits(H, exponents, n, reps, coset)
    prefix = [len(prod)]

    def report(done, total, terms, width):
        prefix.append(terms)
        if progress is not None:
            progress(done + 1, total + 1, terms, width)

    if progress is not None:
        progress(1, 1 + len(reps), len(prod), None)
    factors = []
    if reps:
        # (i, j) -> coefficient of X^i Y^j in -F_H, the non-constant part of 1 - F_H
        minus_f = {ij: rational(c) for ij, c in identity_factor.items() if ij != (0, 0)}
        for g in (reps[j] for orbit in orbits for j in orbit):
            table = _power_table([_poly((_Z1W1, g.a), (_Z1W2, g.c)),
                                  _poly((_Z2W1, g.b), (_Z2W2, g.d))], minus_f)
            factor: dict[int, Cyclotomic] = {}
            for ij, c in minus_f.items():
                for key, v in table[ij].terms.items():
                    _accumulate(factor, key, c * v)
            factors.append(_integer_factor(factor.items(), n))
        prod = _fold_product(factors, n, report, prod)
    if stats is not None:
        stats.update(cosets=len(reps), orbits=len(orbits), peak_terms=max(prefix),
                     term_pairs=sum(p * (1 + len(terms)) for p, (_, terms) in zip(prefix, factors)))
    return prod, math.prod(d for d, _ in factors)


def check_order(order: int) -> None:
    """Raise `GroupTooLarge` unless `phi` can expand a group of this order."""
    if order > _MASK:
        raise GroupTooLarge(f"group order {order} exceeds the packed-exponent limit {_MASK}")


def phi(G: FiniteMatrixGroup, progress=None, stats=None) -> HermitianPolynomial:
    """Exact expansion of Phi_G = 1 - prod_{g in G}(1 - <gz, z>).

    `progress` and `stats` follow the fold as `_product` describes."""
    check_order(G.order)
    n = G.field_order()
    prod, scale = _product(G, n, progress, stats)
    terms = {key: Cyclotomic.from_reduced(n, vec, -scale) for key, vec in prod.items()}
    _accumulate(terms, 0, rational(1))
    _require(0 not in terms, "constant term must vanish")
    out = HermitianPolynomial(terms)
    _require(out.check_hermitian(), "expansion lost Hermitian symmetry")
    _require(all(x <= G.order for key in out.terms for x in unpack_key(key)),
             "degree bound exceeded")
    return out


def polarized_at_ones(G: FiniteMatrixGroup) -> HermitianPolynomial:
    """1 - prod_{g in G}(1 - (gz)_1 - (gz)_2), a holomorphic polynomial:
    Phi_G at zbar = (1, 1)."""
    out: dict[int, Cyclotomic] = {}
    for key, c in phi(G).terms.items():
        _accumulate(out, key & _Z_SLOTS, c)
    return HermitianPolynomial(out)
