"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is a sparse integer coordinate vector over the power basis
1, zeta_n, ..., zeta_n^(phi(n)-1), fully reduced modulo the n-th
cyclotomic polynomial, over one positive denominator.  Canonical form is
unique, so equality of values in one field is a comparison of numerators
and denominator; operands of unequal order are promoted to the lcm order
first.  Elements whose support is {0} are normalised to order 1, so
rationals always live in Q(zeta_1) no matter how they arose.

Ring operations run on ints and end in `reduce_vector` and one gcd.  The
fold in `invariant` reduces packed integers modulo Phi_n(2^w) instead and
takes from `reduce_vector` the row norms that bound that step.
Fractions appear only at the edges: the constructor, `coords`,
`as_fraction`, JSON and the extended Euclid inside `inverse`.

Values are immutable and operations are pure; the module-level caches of
cyclotomic polynomials and reduction rows are read-only after first use, so
everything is safe to share across threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from . import intervals

# Largest field order a JSON element may name: Q(zeta_n) costs Phi_n and
# about (n - phi(n)) phi(n) reduction-table entries before any arithmetic.
MAX_JSON_ORDER = 4096


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element."""


class NotReal(ValueError):
    """sign() applied to an element not fixed by conjugation."""


class IncompatibleOrder(ValueError):
    """promote() target is not a multiple of the element's order."""


class CyclotomicCheckFailed(ArithmeticError):
    """An exact computation broke an identity that holds in every cyclotomic field."""


class MalformedJSON(ValueError):
    """A JSON value does not have the documented shape."""


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree: x^n - 1 divided by
    Phi_d for every proper divisor d of n."""
    if n == 1:
        return (-1, 1)
    f = [-1] + [0] * (n - 1) + [1]
    for d in (d for d in range(1, n) if n % d == 0):
        den = cyclotomic_polynomial(d)
        q, r = _pdivmod(f, den)
        if any(r):
            raise CyclotomicCheckFailed(f"dividing x^{n} - 1 by Phi_{d} left a remainder")
        f = q[:len(f) - len(den) + 1]
    return tuple(f)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """(j, x^j mod Phi_n) for phi(n) <= j < n, ascending j, each residue a
    sparse integer row ((i, c), ...) with i < phi(n)."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    cur = base = [-c for c in phi[:-1]]
    rows = []
    for j in range(d, n):
        rows.append((j, tuple((i, c) for i, c in enumerate(cur) if c)))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c + top * b for c, b in zip(cur, base)]
    return tuple(rows)


def reduce_vector(vec: list[int], n: int) -> list[int]:
    """Reduce vec, vec[k] the int coefficient of zeta_n^k for k < n, modulo
    Phi_n in place: every entry from phi(n) on becomes zero.  Returns vec."""
    for j, row in _reduction_rows(n):
        v = vec[j]
        if v:
            vec[j] = 0
            for i, c in row:
                vec[i] += v * c
    return vec


def _pdeg(p: list[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _pdivmod(a: list[Fraction], b: list[Fraction]):
    """(quotient, remainder) of a / b; integer inputs stay integer when b is monic."""
    a = list(a)
    db = _pdeg(b)
    lead = b[db]
    q = [0] * max(1, len(a))
    for i in range(_pdeg(a), db - 1, -1):
        if a[i]:
            c = a[i] if lead == 1 else a[i] / lead
            q[i - db] = c
            for k in range(db + 1):
                a[k + i - db] -= c * b[k]
    return q, a


class Cyclotomic:
    """An exact element of Q(zeta_order) in canonical form.

    The value is sum(v * zeta_order^k for k, v in items) / den: `items` is a
    sorted tuple of (exponent, nonzero int) pairs with exponents below
    phi(order), and `den` is a positive int coprime to them all.  Instances
    are immutable; use the arithmetic operators.  Unhashable on purpose:
    canonical form is per-order, so containers key on `key()` at a fixed
    ambient order.
    """

    __slots__ = ("order", "items", "den")
    __hash__ = None

    def __init__(self, order: int, coords=()):
        if order < 1:
            raise ValueError("order must be a positive integer")
        raw = {int(k): Fraction(v) for k, v in dict(coords).items()}
        if all(k % order == 0 for k in raw):
            # a rational lives at order 1: build no table of Q(zeta_order)
            c = rational(sum(raw.values()))
        else:
            den = math.lcm(1, *(v.denominator for v in raw.values()))
            vec = [0] * order
            for k, v in raw.items():
                vec[k % order] += v.numerator * (den // v.denominator)
            c = _canonical(order, vec, den)
        self.order, self.items, self.den = c.order, c.items, c.den

    @classmethod
    def _make(cls, order: int, items, den: int) -> "Cyclotomic":
        obj = object.__new__(cls)
        obj.order = order
        obj.items = items
        obj.den = den
        return obj

    @classmethod
    def from_reduced(cls, order: int, vec: list[int], den: int) -> "Cyclotomic":
        """sum(vec[k] * zeta_order^k) / den, for an int vector already reduced
        modulo Phi_order (see `reduce_vector`) and a nonzero int den."""
        items = tuple((k, v) for k, v in enumerate(vec) if v)
        if not items:
            return zero()
        g = math.gcd(den, *(v for _, v in items))
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            items = tuple((k, v // g) for k, v in items)
        return cls._make(1 if len(items) == 1 and items[0][0] == 0 else order, items, den)

    # -- inspection ------------------------------------------------------

    @property
    def coords(self) -> dict[int, Fraction]:
        return {k: Fraction(v, self.den) for k, v in self.items}

    def key(self) -> tuple:
        """Exact hashable identity; equal keys at one order mean equal values."""
        return (self.order, self.items, self.den)

    def is_zero(self) -> bool:
        return not self.items

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.items[0][1], self.den) if self.items else Fraction(0)

    def is_real(self) -> bool:
        return self.conj() == self

    # -- ring/field structure -------------------------------------------

    def _add_to(self, vec: list[int], scale: int = 1) -> list[int]:
        """vec += scale * numerators, vec a dense vector at an order that self.order divides."""
        step = len(vec) // self.order
        for k, v in self.items:
            vec[k * step] += v * scale
        return vec

    def promote(self, m: int) -> "Cyclotomic":
        """The same value represented in Q(zeta_m); requires order | m."""
        if m % self.order:
            raise IncompatibleOrder(f"order {self.order} does not divide {m}")
        return _canonical(m, self._add_to([0] * m), self.den)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return self.key() == other.key()
        m = math.lcm(self.order, other.order)
        return self.promote(m).key() == other.promote(m).key()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = math.lcm(self.order, other.order)
        den = math.lcm(self.den, other.den)
        vec = other._add_to(self._add_to([0] * m, den // self.den), den // other.den)
        return _canonical(m, vec, den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._make(self.order, tuple((k, -v) for k, v in self.items), self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = math.lcm(self.order, other.order)
        sa, sb = m // self.order, m // other.order
        vec = [0] * m
        for ka, va in self.items:
            ka *= sa
            for kb, vb in other.items:
                k = ka + kb * sb
                vec[k if k < m else k - m] += va * vb
        return _canonical(m, vec, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.order == 1:
            return rational(Fraction(self.den, self.items[0][1]))
        n = self.order
        a = [Fraction(0)] * euler_phi(n)
        for k, v in self.items:
            a[k] = Fraction(v)
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        # extended Euclid on the numerators: s1 * a == r1 (mod Phi_n); Phi_n irreducible over Q
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _pdeg(r1) > 0:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            qs = _pmul(q, s1)
            s0, s1 = s1, [x - y for x, y in zip_longest(s0, qs, fillvalue=0)]
        c = r1[0]
        if not c:
            raise CyclotomicCheckFailed(f"gcd of {self} with the irreducible Phi_{n} vanished")
        return Cyclotomic(n, {i: v * self.den / c for i, v in enumerate(s1) if v})

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, zeta^k -> zeta^(n-k); an involution."""
        if self.order == 1:
            return self
        n = self.order
        vec = [0] * n
        for k, v in self.items:
            vec[(n - k) % n] = v
        return _canonical(n, vec, self.den)

    # -- real evaluation -------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a real element: -1, 0 or +1.

        Zero is decided syntactically from canonical form.  Otherwise y =
        den * self, a nonzero algebraic integer of the same sign, is enclosed
        at 64 bits, doubling up to B = phi(order) L + 1 bits, L the bit length
        of the sum S of the absolute numerators.  The norm of y, the product
        of its phi(order) conjugates, each at most S < 2^L, is a nonzero
        integer, so |y| > 2^(-L(phi-1)); an enclosure is narrower than
        2^(L+1-bits) (`real_enclosure`), so at B bits it excludes zero, or
        `CyclotomicCheckFailed` reports a broken invariant.
        """
        if not self.is_real():
            raise NotReal(f"sign() of non-real element {self}")
        if self.is_zero():
            return 0
        if self.order == 1:
            return 1 if self.items[0][1] > 0 else -1
        bound = euler_phi(self.order) * sum(abs(v) for _, v in self.items).bit_length() + 1
        bits = 64
        while True:
            lo, hi = intervals.real_enclosure(self.order, self.items, bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if bits >= bound:
                raise CyclotomicCheckFailed(f"{self} straddles zero at {bits} bits, bound {bound}")
            bits = min(2 * bits, bound)

    def approx_float(self) -> float:
        """Float estimate of a real element, for pivot-size heuristics only."""
        if self.order == 1:
            mid = self.as_fraction()
        else:
            lo, hi = intervals.real_enclosure(self.order, self.coords.items(), 64)
            mid = (lo + hi) / 2
        try:
            return float(mid)
        except OverflowError:
            return math.inf if mid > 0 else -math.inf

    def approx_complex(self) -> complex:
        """Uncertified complex float value (debugging and float cross-checks)."""
        z = 0j
        for k, v in self.items:
            z += v / self.den * complex(math.cos(2 * math.pi * k / self.order),
                                        math.sin(2 * math.pi * k / self.order))
        return z

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coords": [[k, f"{v.numerator}/{v.denominator}"] for k, v in self.coords.items()],
        }

    @classmethod
    def from_json_dict(cls, data) -> "Cyclotomic":
        """Inverse of `to_json_dict`; `MalformedJSON` names the fault of data
        of another shape, with an order above `MAX_JSON_ORDER`, or with two
        exponents equal modulo the order."""
        order = data.get("order") if isinstance(data, dict) else None
        if type(order) is not int or order < 1:
            raise MalformedJSON(f"a field element needs a positive integer order, got {data!r}")
        if order > MAX_JSON_ORDER:
            raise MalformedJSON(f"a field element's order must be at most {MAX_JSON_ORDER}, "
                                f"got {order}")
        pairs = data.get("coords", [])
        coords = {}
        for pair in pairs if isinstance(pairs, list) else [pairs]:
            k, v = pair if isinstance(pair, list) and len(pair) == 2 else (None, None)
            if type(k) is not int or not (type(v) is int or isinstance(v, str)
                                          and _RATIONAL.fullmatch(v)):
                raise MalformedJSON(f"coordinate {pair!r} is not [exponent, \"num/den\"], den > 0")
            if k % order in coords:
                raise MalformedJSON(f"exponent {k} repeats an earlier one modulo {order}")
            coords[k % order] = Fraction(v)
        return cls(order, coords)

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self.coords!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, v in self.coords.items():
            if k == 0:
                parts.append(str(v))
            elif v == 1:
                parts.append(f"z{self.order}^{k}")
            else:
                parts.append(f"({v})*z{self.order}^{k}")
        return " + ".join(parts)


def _canonical(order: int, vec: list[int], den: int) -> Cyclotomic:
    """sum(vec[k] * zeta_order^k) / den in canonical form, for a dense int
    vector of length order (reduced in place) and a nonzero int den."""
    return Cyclotomic.from_reduced(order, reduce_vector(vec, order), den)


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Product of dense coefficient lists; integer inputs stay integer."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _coerce(x):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return rational(x)
    return NotImplemented


def rational(x) -> Cyclotomic:
    """Embed an int or Fraction as an order-1 element."""
    f = Fraction(x)
    return Cyclotomic._make(1, ((0, f.numerator),) if f else (), f.denominator)


def zero() -> Cyclotomic:
    return Cyclotomic._make(1, (), 1)


def one() -> Cyclotomic:
    return rational(1)


@lru_cache(maxsize=None)
def root_items(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The canonical numerators (den 1) of zeta_n^k in Q(zeta_n), indexed by
    0 <= k < n: the basis vector k for k < phi(n), the reduction row of x^k
    modulo Phi_n from there on."""
    return tuple(((k, 1),) for k in range(euler_phi(n))) + tuple(
        row for _, row in _reduction_rows(n))


def root_of_unity(n: int, k: int) -> Cyclotomic:
    """zeta_n^k in canonical form."""
    if n < 1:
        raise ValueError("n must be positive")
    items = root_items(n)[k % n]
    return Cyclotomic._make(1 if items[0][0] == 0 and len(items) == 1 else n, items, 1)


def multiplicative_order(a: Cyclotomic, bound: int = 10000) -> int:
    """Order of a root of unity (small helper used by tests)."""
    acc = a
    for m in range(1, bound + 1):
        if acc == 1:
            return m
        acc = acc * a
    raise ValueError("order exceeds bound")
