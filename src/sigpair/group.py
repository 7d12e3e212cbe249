"""Finite subgroups of U(2) with exact cyclotomic entries.

Provides 2x2 unitary matrices over cyclotomic fields, breadth-first closure
from generator sets, and constructors for the families studied here: the
diagonal cyclic groups, dihedral and binary dihedral groups, and the binary
tetrahedral / octahedral / icosahedral groups in their Springer matrix form.

Element equality is exact coordinate equality after canonical reduction, so
group closure never depends on numeric precision.  A group keeps every
irrational entry at one field order, the least that `_least_field` finds
for its entries (rationals stay at order 1), so `Matrix2.key` tells its
elements, and their products, apart by value.  All values are immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import Cyclotomic, MAX_JSON_ORDER, MalformedJSON, rational, root_of_unity


class NotUnitary(ValueError):
    """A matrix expected to be unitary is not (exact check)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class CapExceeded(RuntimeError):
    """Closure grew past the element cap or met an element of infinite order."""


class OrderMismatch(ArithmeticError):
    """A family constructor built a group of the wrong order."""


def _check_order(g: "FiniteMatrixGroup", expected: int) -> "FiniteMatrixGroup":
    if g.order != expected:
        raise OrderMismatch(f"{g.label}: got order {g.order}, expected {expected}")
    return g


class Matrix2:
    """A 2x2 matrix with Cyclotomic entries (a b / c d)."""

    __slots__ = ("a", "b", "c", "d")
    __hash__ = None

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = _entry(a), _entry(b), _entry(c), _entry(d)

    @property
    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def dagger(self) -> "Matrix2":
        """Conjugate transpose."""
        return Matrix2(self.a.conj(), self.c.conj(), self.b.conj(), self.d.conj())

    def det(self) -> Cyclotomic:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Matrix2":
        det = self.det()
        inv = det.inverse()
        return Matrix2(self.d * inv, -self.b * inv, -self.c * inv, self.a * inv)

    def is_identity(self) -> bool:
        return self.a == 1 and self.d == 1 and self.b.is_zero() and self.c.is_zero()

    def is_unitary(self) -> bool:
        return (self * self.dagger()).is_identity()

    def key(self):
        """Hashable exact identity of the matrix (`Cyclotomic.key` per entry).

        Keys of matrices whose entries share one field order (as every
        group's elements and their products do) are equal iff the values are.
        """
        return tuple(e.key() for e in self.entries)

    def field_order(self) -> int:
        return math.lcm(*(e.order for e in self.entries))

    def __eq__(self, other):
        if not isinstance(other, Matrix2):
            return NotImplemented
        return all(x == y for x, y in zip(self.entries, other.entries))

    def __pow__(self, e: int) -> "Matrix2":
        if e < 0:
            return self.inverse() ** (-e)
        acc = identity()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def __neg__(self) -> "Matrix2":
        return Matrix2(-self.a, -self.b, -self.c, -self.d)

    def __repr__(self):
        return f"Matrix2([{self.a}, {self.b}; {self.c}, {self.d}])"


def _entry(x) -> Cyclotomic:
    return x if isinstance(x, Cyclotomic) else rational(x)


def _least_field(matrices: list[Matrix2]) -> tuple[int, list[Matrix2]]:
    """(n, matrices) with every irrational entry stored at one order n.

    The entries are promoted to their lcm order and divided down by d, the
    gcd of that order and of every exponent there: zeta_n^(dj) = zeta_(n/d)^j,
    and j < phi(n/d), so the items are already canonical at n/d.  When p^2
    divides n, Phi_n(x) = Phi_(n/p)(x^p): the entries lie in Q(zeta_(n/p))
    exactly when p divides every exponent.  A prime dividing n once may stay."""
    n = math.lcm(1, *{e.order for m in matrices for e in m.entries})
    # rationals are canonical at order 1 whatever field they came from
    matrices = [m if all(e.order in (1, n) for e in m.entries)
                else Matrix2(*(e if e.order in (1, n) else e.promote(n) for e in m.entries))
                for m in matrices]
    d = n
    for m in matrices:
        d = math.gcd(d, *(k for e in m.entries for k, _ in e.items))
        if d == 1:
            return n, matrices
    return n // d, [Matrix2(*(e if e.order == 1 else Cyclotomic._make(
        n // d, tuple((k // d, v) for k, v in e.items), e.den) for e in m.entries))
        for m in matrices]


def identity() -> Matrix2:
    return Matrix2(1, 0, 0, 1)


def diag(x, y) -> Matrix2:
    return Matrix2(x, 0, 0, y)


def antidiag(x, y) -> Matrix2:
    return Matrix2(0, x, y, 0)


class FiniteMatrixGroup:
    """An explicit finite subgroup of U(2): ordered element list, identity first."""

    def __init__(self, elements: list[Matrix2], label: str):
        self._field_order, self.elements = _least_field(elements)
        self.label = label

    @property
    def order(self) -> int:
        return len(self.elements)

    def field_order(self) -> int:
        """The one cyclotomic order every irrational entry is stored at (`_least_field`)."""
        return self._field_order

    def element_keys(self) -> set:
        return {m.key() for m in self.elements}

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"FiniteMatrixGroup({self.label!r}, order={self.order})"


def closure(generators: list[Matrix2], cap: int = 10000, label: str = "closure") -> FiniteMatrixGroup:
    """Breadth-first closure of a generator set under matrix product.

    Element order is deterministic: BFS from the identity, multiplying on the
    right by the generators in their declared order.  A finite subsemigroup of
    a group is a group, so inverses and the identity are always present.
    The generators are first stored at one order (`_least_field`), so every
    product is too and `key` compares elements by value.  An element of
    finite order has a trace that is a sum of two roots of unity, an
    algebraic integer, whose canonical numerators have denominator 1; a
    generator or product whose trace has another denominator is of infinite
    order and raises `CapExceeded` at once, before the cap is reached.
    """
    for i, g in enumerate(generators):
        if not g.is_unitary():
            raise NotUnitary(f"generator {i} is not unitary", index=i)
    generators = _least_field(generators)[1]
    elems = [identity()]
    seen = {elems[0].key()}
    i = 0
    while i < len(elems):
        for g in generators:
            m = elems[i] * g
            k = m.key()
            if k not in seen:
                if (m.a + m.d).den != 1:
                    raise CapExceeded(f"closure met {m!r} of infinite order: its trace "
                                      f"{m.a + m.d} is not an algebraic integer")
                if len(elems) >= cap:
                    raise CapExceeded(f"closure exceeded cap {cap}")
                seen.add(k)
                elems.append(m)
        i += 1
    return FiniteMatrixGroup(elems, label)


def _listed(n: int, q: int, shift: int | None, label: str) -> FiniteMatrixGroup:
    """diag(zeta_n^j, zeta_n^(qj)) for 0 <= j < n, identity first, then, when
    `shift` is given, antidiag(zeta_n^j, zeta_n^(shift - j)) for each j."""
    roots, z = [root_of_unity(n, j) for j in range(n)], rational(0)
    elems = [Matrix2(roots[j], z, z, roots[q * j % n]) for j in range(n)]
    if shift is not None:
        elems += [Matrix2(z, roots[j], roots[(shift - j) % n], z) for j in range(n)]
    return FiniteMatrixGroup(elems, label)


def cyclic_gamma(p: int, q: int) -> FiniteMatrixGroup:
    """The diagonal cyclic group generated by diag(zeta_p, zeta_p^q); order p."""
    if p < 1:
        raise ValueError("p must be positive")
    return _listed(p, q, None, f"Gamma({p},{q})")


def dihedral(p: int) -> FiniteMatrixGroup:
    """Dihedral group of order 2p: the rotations diag(w^j, w^-j), w = zeta_p,
    and the reflections antidiag(w^j, w^-j)."""
    if p < 1:
        raise ValueError("p must be positive")
    return _listed(p, -1, 0, f"Delta({p})")


def binary_dihedral(p: int) -> FiniteMatrixGroup:
    """Binary dihedral group of order 4p inside SU(2): diag(w^j, w^-j) and
    antidiag(w^j, -w^-j) = antidiag(w^j, w^(p - j)), w = zeta_2p."""
    if p < 1:
        raise ValueError("p must be positive")
    return _listed(2 * p, -1, p, f"Lambda({p})")


def springer_generators(kind: str) -> tuple[Matrix2, Matrix2, Matrix2]:
    """The (r, s, t) matrix triple underlying the binary polyhedral groups.

    r and t lie in Q(zeta_8), 1/sqrt(2) = (zeta_8 + zeta_8^-1)/2, and so does
    O; T's elements lie in Q(i) = Q(zeta_4), the order `closure` stores it at.
    For I the entries lie in Q(zeta_5) once the sign of r is absorbed.
    """
    s = antidiag(1, -1)
    if kind in ("T", "O"):
        eps = root_of_unity(8, 1)
        inv_sqrt2 = (eps + eps ** 7) * Fraction(1, 2)
        r = diag(eps, eps ** 7)
        t = Matrix2(inv_sqrt2 * eps ** 7, inv_sqrt2 * eps ** 7,
                    -(inv_sqrt2 * eps), inv_sqrt2 * eps)
        return r, s, t
    if kind == "I":
        eps = root_of_unity(5, 1)
        r = diag(-(eps ** 3), -(eps ** 2))
        c = eps + eps ** 4
        scale = (eps ** 2 - eps ** 3).inverse()
        t = Matrix2(scale * c, scale, scale, -(scale * c))
        return r, s, t
    raise ValueError(f"unknown kind {kind!r}")


def binary_polyhedral(kind: str) -> FiniteMatrixGroup:
    """Binary tetrahedral (order 24), octahedral (48) or icosahedral (120) group."""
    r, s, t = springer_generators(kind)
    if kind == "T":
        gens = [s * t.inverse(), t]
        expected = 24
    elif kind == "O":
        gens = [r * t, t]
        expected = 48
    elif kind == "I":
        gens = [r, r ** 4 * t * s]
        expected = 120
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return _check_order(closure(gens, label=kind), expected)


def conjugate(G: FiniteMatrixGroup, U: Matrix2) -> FiniteMatrixGroup:
    """Element-wise U g U^-1; U must be unitary, so U^-1 = U*."""
    if not U.is_unitary():
        raise NotUnitary("conjugator is not unitary")
    ud = U.dagger()
    elems = [U * g * ud for g in G.elements]
    return FiniteMatrixGroup(elems, f"{G.label}^conj")


def trivial_group() -> FiniteMatrixGroup:
    return FiniteMatrixGroup([identity()], "trivial")


def load_generators(data) -> FiniteMatrixGroup:
    """Build a group from the JSON generator-file format.

    Format: {"generators": [[[c, c], [c, c]], ...], "cap": n} where each c is
    a Cyclotomic JSON object {"order": n, "coords": [[k, "num/den"], ...]} and
    cap > 0 is optional.  Data of another shape, or entries whose common field
    order (the lcm `closure` promotes them to) exceeds `MAX_JSON_ORDER`, raises
    `MalformedJSON`.
    """
    if isinstance(data, (str, bytes)):
        import json

        data = json.loads(data)
    matrices = data.get("generators") if isinstance(data, dict) else None
    if not isinstance(matrices, list):
        raise MalformedJSON("a generator file must be an object with a \"generators\" list")
    gens = []
    for i, rows in enumerate(matrices):
        if not (isinstance(rows, list) and len(rows) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in rows)):
            raise MalformedJSON(f"generator {i} is not a 2x2 matrix")
        gens.append(Matrix2(*(Cyclotomic.from_json_dict(x) for row in rows for x in row)))
    n = math.lcm(1, *(g.field_order() for g in gens))
    if n > MAX_JSON_ORDER:
        raise MalformedJSON(f"the generators' common field order must be at most "
                            f"{MAX_JSON_ORDER}, got {n}")
    cap = data.get("cap", 10000)
    if type(cap) is not int or cap < 1:
        raise MalformedJSON(f"\"cap\" must be a positive integer, got {cap!r}")
    return closure(gens, cap=cap, label="custom")
