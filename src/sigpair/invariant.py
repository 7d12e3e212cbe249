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
(D'Angelo-Lichtblau; `fpq` runs the cyclic case on its own).  The weight
lattice L = {(i, j): a i + b j = 0 mod N for every (a, b) in H} needs only
generators of H: the elements of `_chain`, the one walk over H, which also
checks that H is a group and orders the coset fold below.  Z^2 / L is the
character group of H, so L has index |H| and a basis (d1, c), (0, d2) with
d1 d2 = |H|, from which `_log_weights` lists the about |H| / 2 lattice
points of degree at most |H|.  Each step of the recurrence visits only the
product's nonzero terms of lower degree.  The fold continues from that
factor, each coefficient c entering as the one-slot vector [c], over the
other cosets.  H = {I} gives F_H = X + Y, the element-wise fold.

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
weight lattice, and the factors after it multiply fewer terms.
`_coset_plan` grows each H-orbit from its least coset along the `_chain`
{I} = K_0 < K_1 < ... = H, the generator of K_t mapping the K_(t-1)-orbit
listed so far to its images until one repeats, so the prefix completes a
K_1-orbit, then a K_2-orbit, and so on.  A step that completes an orbit of
two or more cosets under K, the largest K_t whose orbits the folded cosets
fill, multiplies only the pairs whose product lands on K's weight lattice
L_K: the product after the step is K-invariant, so every sum off L_K
vanishes exactly.  The class of
z^a zbar^b modulo L_K is that of (a1 - b1, a2 - b2), and each prefix key
meets only the factor terms whose -delta shares its class.  Taking `O`'s
five cosets this way cuts its term products from 146,600 to 33,427 (75,649
with every pair multiplied), the least over all 120 orders.  The polarization
1 - prod_{g in G}(1 - (gz)_1 - (gz)_2) is Phi_G at zbar = (1, 1): its
terms with the zbar exponents dropped, summed.

The fold runs on scaled integer coordinate vectors (n = `G.field_order()`,
the least order the group stores its entries at) and converts to canonical
field elements once at the end: each factor is scaled by the lcm of its
coefficients' denominators, and after every factor each vector is reduced
modulo the cyclotomic polynomial Phi_n and dropped if it vanishes there, so
vectors stay at most phi(n) long (a missing slot is zero) and monomials
whose coefficient is zero in Q(zeta_n) go at once.  From the first factor
to the last each vector v is kept as the one int v(2^w), w bits per signed
slot (Kronecker substitution): multiplying two coefficients is one int
product, and reducing a sum modulo Phi_n is one int remainder modulo
Phi_n(2^w), whose balanced residue is the reduced vector packed for the next
factor.  The width w is a proven bound from a bound on the prefix's
coordinates and the factor's l1 norm, rounded up to whole bytes; the
coordinate bound comes from a range test on the packed ints, and a step
that needs wider slots repacks the prefix through its bytes
(`_fold_product`).  A reduced vector over the product of the scales becomes
a field element by one gcd (`Cyclotomic.from_reduced`).  Group elements are
compared with `Matrix2.key`, exact by value because a group stores all its
entries at one field order.

Monomial keys pack the exponent quadruple (a1, a2, b1, b2) of
z1^a1 z2^a2 zbar1^b1 zbar2^b2 into one integer, 16 bits per slot, so the
product of two monomials is the sum of their keys while every exponent stays
below 2^16.  Every exponent of Phi_G is at most |G|, hence the order limit
of 65535.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice
from operator import lshift

from .cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi, rational, root_items
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
        mons = {m for quad in map(unpack_key, self.terms) for m in (quad[:2], quad[2:])}
        return sorted(mons, key=lambda m: (m[0] + m[1], m[0], m[1]))

    def coeff(self, a1: int, a2: int, b1: int, b2: int) -> Cyclotomic:
        return self.terms.get(pack_key(a1, a2, b1, b2), rational(0))

    def is_diagonal(self) -> bool:
        """True iff every stored term has alpha = beta."""
        return all(key >> _SHIFT[2] == key & _Z_SLOTS for key in self.terms)

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

    def compose(self, M: Matrix2) -> "HermitianPolynomial":
        """Exact substitution z -> Mz (and zbar -> conj(M) zbar), re-expanded.

        Quadratic blowup; intended for small groups: the invariance checks and
        the group action on holomorphic polynomials.
        """
        z1, z2, w1, w2 = (1 << shift for shift in _SHIFT)
        rows = ((M.a, M.b), (M.c, M.d))
        zp = _power_table([_poly((z1, a), (z2, b)) for a, b in rows],
                          {unpack_key(key)[:2] for key in self.terms})
        wp = _power_table([_poly((w1, a.conj()), (w2, b.conj())) for a, b in rows],
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


def _slot_width(n: int, bound: int) -> int:
    """The least multiple w of 8 with 2^w > 2 A + C, A = `bound` and C the
    largest |coefficient| of Phi_n: the whole-byte slot width that makes a
    fold step exact (see `_fold_product`)."""
    bits = (2 * bound + max(map(abs, cyclotomic_polynomial(n)))).bit_length()
    return -(-bits // 8) * 8


def _slots_below(packed, w: int, slots: int, k: int) -> bool:
    """Whether every signed w-bit slot of every packed int lies in
    [-2^k, 2^k), for k <= w - 2 and slots in (-2^(w-1), 2^(w-1)).

    Adding 2^k to every slot maps that range onto [0, 2^(k+1)), which leaves
    bits k+1 .. w-1 of each slot clear.  Take the lowest slot outside it: the
    slots below carry nothing, so a slot at 2^k or above sets one of those
    bits, and one below -2^k borrows and sets bit w - 1."""
    ones = sum(1 << s for s in range(0, w * slots, w))
    offset, mask = ones << k, ((1 << w) - (2 << k)) * ones
    return not any(map(mask.__and__, map(offset.__add__, packed)))


def _widen(prod: dict, slots: int, w: int, w2: int) -> None:
    """Repack prod's ints, in place, from signed w-bit slots to w2-bit ones
    (w < w2, both whole bytes).

    Each slot biased by 2^(w-1) is an unsigned w-bit number, so the ints'
    bytes, laid end to end, hold every slot one after another, and one
    strided slice copy per byte of a slot places them in a zeroed buffer of
    w2-bit slots; subtracting the bias spread to the wider slots restores
    the signs.  Keys go 256 at a time, which keeps the buffers small."""
    b, b2 = w // 8, w2 // 8
    size = b2 * slots
    bias = sum(1 << s for s in range(w - 1, w * slots, w))
    spread = sum(1 << s for s in range(w - 1, w2 * slots, w2))
    keys = iter(prod)
    while chunk := list(islice(keys, 256)):
        raw = b"".join([(prod[key] + bias).to_bytes(b * slots, "little") for key in chunk])
        buf = bytearray(len(chunk) * size)
        for j in range(b):
            buf[j::b2] = raw[j::b]
        buf = bytes(buf)
        for key, start in zip(chunk, range(0, len(buf), size)):
            prod[key] = int.from_bytes(buf[start:start + size], "little") - spread


def _fold_product(factors, n: int, progress=None, prod=None, lattices=None):
    """prod (default 1) times the (d + sum of scaled monomial terms) factors.

    Coefficients are integer vectors reduced modulo Phi_n: at most phi(n)
    slots in the prefix (a missing slot is zero), phi(n) in the result.
    Between the first factor and the last, a vector v is kept as the one int
    v(2^w), w bits per signed slot (Kronecker substitution), so a term pair
    costs one int product.  After each factor every packed sum s(2^w) is
    reduced modulo N = Phi_n(2^w): its balanced residue is r(2^w) for
    r = s mod Phi_n, the reduced vector already packed for the next factor,
    and dropped when it is zero.  Every coefficient of s is at most top * l1
    in absolute value, top a bound on the prefix's coordinates and
    l1 = |d| + sum |c| the factor's norm, because each factor term meets each
    output key at most once.  So every |r_i| is at most A (`_slot_width`),
    and 2^w > 2 A + C gives |r(2^w)| < N / 2 and |r_i| < 2^(w-1): the residue
    and its slots are exact.  A packed sum outside the range of its signed
    w-bit slots raises `InvariantCheckFailed`.

    The first top is the prefix's largest coordinate.  After each step the
    next is min(A, 2^k) for the least k, searched upward from the last
    bound, at which `_slots_below` passes, or A when none below A's bit
    length does; so it is under twice the largest coordinate unless that
    coordinate shrank.  Widths are whole bytes and never narrow: a wider
    step is repacked by `_widen`, and the vectors are unpacked once, after
    the last factor.

    `lattices[idx]`, when given and not None, is the basis of a weight
    lattice that the product after factor idx is known to lie on; that step
    multiplies only the pairs whose product lands on it (`_lattice_pairs`).
    `progress(step, steps, terms, w, pairs)` follows each factor with the
    prefix's term count, the slot width and the int products made.
    """
    if prod is None:
        prod = {0: [1]}
    if not factors:
        return prod
    phi = euler_phi(n)
    modulus = cyclotomic_polynomial(n)
    top = max((max(max(vec), -min(vec)) for vec in prod.values()), default=0)
    width = 0
    for idx, (d, terms) in enumerate(factors):
        span = phi + max((e for _, coefs in terms for e, _ in coefs), default=0)
        l1 = abs(d) + sum(abs(c) for _, coefs in terms for _, c in coefs)
        bound = top * l1 * _reduction_norm(n, span)
        w = max(width, _slot_width(n, bound))
        if not width:
            shifts = range(0, w * phi, w)
            prod = {key: sum(map(lshift, vec, shifts)) for key, vec in prod.items()}
        elif w > width:
            _widen(prod, phi, width, w)
        width = w
        packed = [(0, d)] + [(delta, sum(c << w * e for e, c in coefs)) for delta, coefs in terms]
        basis = lattices[idx] if lattices else None
        groups = [(prod.items(), packed)] if basis is None else _lattice_pairs(prod, packed, basis)
        out: dict[int, int] = {}
        get = out.get
        for items, pairs in groups:
            for key, x in items:
                for delta, c in pairs:
                    k2 = key + delta
                    out[k2] = get(k2, 0) + x * c
        made = sum(len(items) * len(pairs) for items, pairs in groups)
        del groups
        # s(2^w) with every |s_k| < 2^(w-1) lies in [low, low + 2^(w span))
        low = -sum(1 << s for s in range(w - 1, w * span, w))
        high = low + (1 << w * span)
        N = sum(c << w * i for i, c in enumerate(modulus))
        half_n = N >> 1
        for key, x in out.items():
            if not low <= x < high:
                raise InvariantCheckFailed(f"a packed sum overflows its {span} slots of {w} bits")
            x %= N
            out[key] = x - N if x > half_n else x
        prod = {key: x for key, x in out.items() if x}
        del out
        start = max(top - 1, 0).bit_length()
        top = bound
        for k in range(start, bound.bit_length()):
            if _slots_below(prod.values(), w, phi, k):
                top = min(bound, 1 << k)
                break
        if progress is not None:
            progress(idx + 1, len(factors), len(prod), w, made)
    half, mask = 1 << (width - 1), (1 << width) - 1
    shifts = range(0, width * phi, width)
    bias = sum(half << s for s in shifts)
    return {key: [((x >> s) & mask) - half for s in shifts]
            for key, x in zip(prod, map(bias.__add__, prod.values()))}


def _lattice_pairs(prod, packed, basis):
    """[(prefix items, factor terms)]: the prefix keys split by their class
    modulo the lattice with basis (d1, c), (0, d2), each with the factor
    terms whose product with it lands on the lattice.

    The class of z^a zbar^b is that of (i, j) = (a1 - b1, a2 - b2): i modulo
    d1, then j - c (i // d1) modulo d2.  A key meets the terms whose -delta
    shares its class, and the constant d has delta 0."""
    d1, c, d2 = basis

    def classes(pairs, sign):
        out = {}
        for pair in pairs:
            key = pair[0]
            q, i = divmod(sign * ((key & _MASK) - (key >> 32 & _MASK)), d1)
            j = sign * ((key >> 16 & _MASK) - (key >> 48))
            out.setdefault((i, (j - q * c) % d2), []).append(pair)
        return out

    terms = classes(packed, -1)
    return [(items, terms[k]) for k, items in classes(prod.items(), 1).items() if k in terms]


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


@lru_cache(maxsize=None)
def _root_exponents(n: int) -> dict:
    """The canonical numerators of every root of unity +-zeta_n^k in Q(zeta_n)
    (den 1, `root_items`), mapped to the exponent a with value zeta_N^a,
    N = lcm(2, n); the rationals +-1, stored at order 1, have the numerators
    of k = 0.  Cached per order and read-only."""
    N = math.lcm(2, n)
    table = {}
    for k, items in enumerate(root_items(n)):
        a = k * (N // n)
        table[items] = a
        table[tuple((i, -c) for i, c in items)] = (a + N // 2) % N
    return table


def _lattice_basis(gens: list[tuple[int, int]], N: int, order: int) -> tuple[int, int, int]:
    """(d1, c, d2): the basis (d1, c), (0, d2) of the weight lattice
    L = {(i, j): a i + b j = 0 mod N for every (a, b) in `gens`} of the group
    K of exponent pairs modulo N that `gens` generate, of `order` elements.

    Z^2 / L is the character group of K, of `order` elements, so d1 d2 =
    order: d2 is the least j > 0 with (0, j) in L, the lcm of N / gcd(N, b)
    over the generators, and c the one residue modulo d2 with (d1, c) in L,
    found in at most d2 membership tests.  A generator set whose lattice has
    no such basis raises `InvariantCheckFailed`."""
    d2 = math.lcm(1, *(N // math.gcd(N, b) for _, b in gens))
    d1 = order // d2
    c = next((c for c in range(d2) if all((a * d1 + b * c) % N == 0 for a, b in gens)), None)
    _require(d1 * d2 == order and c is not None,
             f"no weight lattice of index {order} for the generators {gens}")
    return d1, c, d2


def _log_weights(gens: list[tuple[int, int]], N: int, order: int) -> dict:
    """(i, j) -> (i + j) [log P](i, j) = -order C(i+j, i) for P the product
    over the group H of exponent pairs modulo N generated by `gens`, of
    `order` elements, on its weight lattice (`_lattice_basis`) in
    0 < i + j <= order, in ascending degree, then descending i; off the
    lattice the power sums vanish."""
    d1, c, d2 = _lattice_basis(gens, N, order)
    points = [(i, j) for k in range(order // d1 + 1) for i in (k * d1,)
              for j in range(c * k % d2, order - i + 1, d2) if i or j]
    points.sort(key=lambda ij: (ij[0] + ij[1], -ij[0]))
    return {(i, j): -order * math.comb(i + j, i) for i, j in points}


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


def _chain(exponents: list[tuple[int, int]], N: int) -> list[tuple[int, int]]:
    """The chain {0} = K_0 < K_1 < ... = H as pairs (i_t, |K_t|), t >= 1:
    K_t is generated by K_(t-1) and exponents[i_t], for `exponents` a list of
    exponent pairs modulo N, each step of least index [K_t : K_(t-1)] (the
    first such element in list order); `InvariantCheckFailed` if the list is
    no group H.

    The least index is the least prime m dividing [H : K_(t-1)] (Cauchy), so
    the step is the first element e outside K_(t-1) whose m-th multiple lies
    in it, and K_t adds the cosets K_(t-1) + k e, 0 < k < m, each element made
    once and looked up in the list.  A list of distinct elements that holds 0
    and that the walk exhausts is the group K."""
    listed, order = set(exponents), len(exponents)
    ok = len(listed) == order and (0, 0) in listed
    K, chain = dict.fromkeys([(0, 0)]), []
    while ok and len(K) < order and order % len(K) == 0:
        rest = order // len(K)
        m = next(p for p in range(2, rest + 1) if rest % p == 0)
        i = next((i for i, (a, b) in enumerate(exponents)
                  if (a, b) not in K and (m * a % N, m * b % N) in K), None)
        if i is None:
            break
        a, b = exponents[i]
        grown = [((x + k * a) % N, (y + k * b) % N) for k in range(1, m) for x, y in K]
        ok = listed.issuperset(grown)
        K.update(dict.fromkeys(grown))
        chain.append((i, len(K)))
    _require(ok and len(K) == order, f"the {order} diagonal elements are not a group")
    return chain


def _diagonal_product(gens: list[tuple[int, int]], order: int, n: int) -> dict:
    """prod_{h in H}(1 - alpha_h X - beta_h Y) as {(r, s): int}, zero terms
    omitted, for H the group of `order` elements diag(zeta_N^a, zeta_N^b),
    N = lcm(2, n), generated by the (a, b) in `gens` (`_chain`'s elements).

    The Euler recurrence (r+s) P[r, s] = sum_{(i,j)} w(i, j) P[r-i, s-j] over
    the weight lattice rebuilds the product in plain ints; it holds only for
    a group, and an inexact division raises `InvariantCheckFailed`.  `prod`
    fills in ascending degree; the sum at (r, s) runs over its terms (a, b)
    of lower degree with a <= r, b <= s, whose difference is a lattice point.
    """
    weights = _log_weights(gens, math.lcm(2, n), order)
    prod = {(0, 0): 1}
    for r, s in weights:
        acc = 0
        for (a, b), prev in prod.items():
            if a + b >= r + s:
                break
            if a <= r and b <= s:
                acc += weights[r - a, s - b] * prev
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
    H, rest = [], []
    for g in G.elements:
        (H if _is_diagonal(g) else rest).append(g)
    reps, coset = [], {}
    for g in rest:
        if g.key() not in coset:
            coset.update(((g * h).key(), len(reps)) for h in H)
            reps.append(g)
    _require((1 + len(reps)) * len(H) == G.order,
             f"Lagrange identity: {1 + len(reps)} cosets of the {len(H)} diagonal "
             f"elements do not make up {G.order} elements")
    return H, reps, coset


def _coset_plan(H: list[Matrix2], exponents: list[tuple[int, int]],
                chain: list[tuple[int, int]], N: int, reps: list[Matrix2],
                coset: dict) -> tuple[list[list[int]], list | None]:
    """(orbits, lattices): the orbits of H, acting by gH -> hgH on the
    non-identity cosets (indices into `reps`), largest first, ties by least
    coset, and for each coset in that order the `_lattice_basis` its fold
    step is restricted to, or None; lattices is None with fewer than two
    cosets.

    Each orbit grows from its least coset along the `_chain`: a non-scalar
    generator h_t maps the list built so far to the blocks h_t x, h_t^2 x,
    ... up to the first block whose first coset is listed, as orbits are
    equal or disjoint; a scalar fixes every coset.  Every K_t-orbit is then
    contiguous and, H being abelian, of s_t cosets, the list's length after
    step t, so position p completes one when s_t divides p + 1: each block
    repeats the marks of the list it maps.  The largest such K_t with
    s_t > 1 gives the lattice.  Each h_t maps every coset of the list, the
    last block's included, and `InvariantCheckFailed` when some hgH is none
    of the cosets, which a group rules out.
    """
    def image(h, j):
        k = coset.get((h * reps[j]).key())
        _require(k is not None, "the elements are not a group: a diagonal element maps "
                 f"one of the {len(reps) + 1} cosets to none of them")
        return k

    placed, plans = set(), []
    for start in range(len(reps)):
        if start in placed:
            continue
        orbit, steps = [start], [None]
        for t, h in enumerate(H[i] for i, _ in chain):
            block, marks = orbit, steps
            while h.a != h.d and (block := [image(h, j) for j in block])[0] not in orbit:
                orbit, steps = orbit + block, steps + marks
            if len(orbit) > 1:
                steps[-1] = t  # the list is one K_t-orbit
        placed.update(orbit)
        plans.append((orbit, steps))
    plans.sort(key=lambda plan: -len(plan[0]))
    orbits = [orbit for orbit, _ in plans]
    if len(reps) < 2:
        return orbits, None
    bases = {t: _lattice_basis([exponents[i] for i, _ in chain[:t + 1]], N, chain[t][1])
             for _, steps in plans for t in steps if t is not None}
    return orbits, [bases.get(t) for _, steps in plans for t in steps]


def _product(G: FiniteMatrixGroup, n: int, progress=None, stats=None):
    """prod_{g in G}(1 - <gz, z>) as (integer vectors, scale), folded by cosets.

    One `_chain` walk over the diagonal elements H.  The identity coset's
    factor 1 - F_H(X_I, Y_I) is `_diagonal_product` of H, its term c X^i Y^j
    the monomial z1^i z2^j zbar1^i zbar2^j with the vector [c], so a G with
    no other coset gives one-slot vectors, a fold phi(n)-slot ones.  Every
    other left coset gH contributes 1 - F_H(X_g, Y_g), with
    X_g = z1 (g.a zbar1 + g.c zbar2) and Y_g = z2 (g.b zbar1 + g.d zbar2),
    folded in the order of `_coset_plan`, whose lattices restrict the steps
    that complete an orbit of a non-scalar subgroup of the chain.
    `progress(done, [G:H], terms, width)` follows each coset, the identity's
    first with width None (its factor is not folded); terms is the product's
    term count so far and width the fold step's slot width in bits.  `stats`,
    a dict, receives `cosets` (the factors folded), `orbits` (their H-orbits),
    `peak_terms` (the largest prefix) and `term_pairs` (the int products the
    fold made, summed over steps).
    """
    H, reps, coset = _cosets(G)
    exponents = _diagonal_exponents(H, n)
    N = math.lcm(2, n)
    chain = _chain(exponents, N)
    identity_factor = _diagonal_product([exponents[i] for i, _ in chain], len(H), n)
    prod = {pack_key(r, s, r, s): [c] for (r, s), c in identity_factor.items()}
    orbits, lattices = _coset_plan(H, exponents, chain, N, reps, coset)
    order = [j for orbit in orbits for j in orbit]
    prefix, pairs = [len(prod)], []

    def report(done, total, terms, width, made):
        prefix.append(terms)
        pairs.append(made)
        if progress is not None:
            progress(done + 1, total + 1, terms, width)

    if progress is not None:
        progress(1, 1 + len(reps), len(prod), None)
    factors = []
    if reps:
        # (i, j) -> coefficient of X^i Y^j in -F_H, the non-constant part of 1 - F_H
        minus_f = {ij: rational(c) for ij, c in identity_factor.items() if ij != (0, 0)}
        for g in (reps[j] for j in order):
            table = _power_table([_poly((_Z1W1, g.a), (_Z1W2, g.c)),
                                  _poly((_Z2W1, g.b), (_Z2W2, g.d))], minus_f)
            factor: dict[int, Cyclotomic] = {}
            for ij, c in minus_f.items():
                for key, v in table[ij].terms.items():
                    _accumulate(factor, key, c * v)
            factors.append(_integer_factor(factor.items(), n))
        prod = _fold_product(factors, n, report, prod, lattices)
    if stats is not None:
        stats.update(cosets=len(reps), orbits=len(orbits), peak_terms=max(prefix),
                     term_pairs=sum(pairs))
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
    _require(max(map(max, map(unpack_key, out.terms)), default=0) <= G.order,
             "degree bound exceeded")
    # each factor <gz, z> has bidegree (1, 1), so every term z^a zbar^b has |a| = |b|
    _require(all(a1 + a2 == b1 + b2 for a1, a2, b1, b2 in map(unpack_key, out.terms)),
             "a term's bidegree is not (k, k)")
    return out


def polarized_at_ones(G: FiniteMatrixGroup) -> HermitianPolynomial:
    """1 - prod_{g in G}(1 - (gz)_1 - (gz)_2), a holomorphic polynomial:
    Phi_G at zbar = (1, 1)."""
    out: dict[int, Cyclotomic] = {}
    for key, c in phi(G).terms.items():
        _accumulate(out, key & _Z_SLOTS, c)
    return HermitianPolynomial(out)
