"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is a sparse integer coordinate vector over the power basis
1, zeta_n, ..., zeta_n^(phi(n)-1), fully reduced modulo the n-th
cyclotomic polynomial, over one positive denominator.  Canonical form is
unique, so equality of values in one field is a comparison of numerators
and denominator; operands of unequal order are promoted to the lcm order
first.  Elements whose support is {0} are normalised to order 1, so
rationals always live in Q(zeta_1) no matter how they arose.

Ring operations run on ints and end in one gcd; a sum or product with a
zero operand, always the canonical order-1 zero, returns at once with the
same value and key.  Rationals build no vector: a sum, product, `sub_mul`
or `inverse` whose operands all sit at order 1 is a few int products over
one gcd, a product with one rational operand scales the other's
numerators, and `sign` reads a rational's numerator.  The one reduction
table is `root_items(n)`, the canonical numerators of zeta_n^k for
0 <= k < n: a basis vector below phi(n), the row of x^k mod Phi_n from
there on.  Every
result collects into one phi(n)-long vector, and only an exponent at or
above phi(n) goes through its row: linearly in `_place` (the constructor,
`promote`, sums and `conj`, which takes no gcd) and bilinearly in
`_mul_into` (`__mul__` and the fused `sub_mul`, a - b*c, the update of both
eliminations in `signature`).  `inverse` uses both: it places each
conjugate of the numerators and multiplies them into the norm.  The fold
in `invariant` reduces packed integers modulo Phi_n(2^w) instead and takes
from the same rows the norms that bound that step.  Fractions appear only
at the edges: the constructor, `coords`, `as_fraction` and JSON.

Values are immutable and operations are pure; the module-level caches of
cyclotomic polynomials and root rows are read-only after first use, so
everything is safe to share across threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

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
            vec = _place([0] * euler_phi(order), order, order, (
                (k % order, v.numerator * (den // v.denominator)) for k, v in raw.items()), 1)
            c = Cyclotomic.from_reduced(order, vec, den)
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
        modulo Phi_order (at most phi(order) long, as `_place` and `_mul_into`
        leave it, or zero from there on) and a nonzero int den."""
        items = [(k, v) for k, v in enumerate(vec) if v]
        if not items:
            return zero()
        g = math.gcd(den, *vec)
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            items = [(k, v // g) for k, v in items]
        return cls._make(1 if len(items) == 1 and items[0][0] == 0 else order, tuple(items), den)

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

    def promote(self, m: int) -> "Cyclotomic":
        """The same value represented in Q(zeta_m); requires order | m."""
        if m % self.order:
            raise IncompatibleOrder(f"order {self.order} does not divide {m}")
        return Cyclotomic.from_reduced(
            m, _place([0] * euler_phi(m), m, self.order, self.items, 1), self.den)

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
        if not other.items:
            return self
        if not self.items:
            return other
        if self.order == other.order == 1:
            return _ratio(self.items[0][1] * other.den + other.items[0][1] * self.den,
                          self.den * other.den)
        m = math.lcm(self.order, other.order)
        den = math.lcm(self.den, other.den)
        vec = _place([0] * euler_phi(m), m, self.order, self.items, den // self.den)
        return Cyclotomic.from_reduced(
            m, _place(vec, m, other.order, other.items, den // other.den), den)

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
        if not (self.items and other.items):
            return zero()
        if self.order == 1 or other.order == 1:
            r, x = (self, other) if self.order == 1 else (other, self)
            p, den = r.items[0][1], r.den * x.den
            if x.order == 1:
                return _ratio(p * x.items[0][1], den)
            # x's support is unchanged, so it stays at x's order; the gcd
            # covers every numerator, not just p
            items = [(k, v * p) for k, v in x.items]
            g = math.gcd(den, *(v for _, v in items))
            return Cyclotomic._make(x.order, tuple((k, v // g) for k, v in items), den // g)
        m = math.lcm(self.order, other.order)
        vec = _mul_into([0] * euler_phi(m), m, self, other, 1)
        return Cyclotomic.from_reduced(m, vec, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """1/self from the norm.  With x = numerators / den at order n, each
        conjugate sigma_k(numerators), zeta_n -> zeta_n^k for a unit k != 1
        mod n, is one `_place`, and their product adj (`__mul__`) times the
        numerators is the norm N, an int; it is positive, the conjugates
        pairing off under complex conjugation (n >= 3).  1/self = adj * den / N."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.order == 1:
            v = self.items[0][1]
            return Cyclotomic._make(1, ((0, self.den if v > 0 else -self.den),), abs(v))
        n = self.order
        adj = one()
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                vec = _place([0] * euler_phi(n), n, n, ((e * k % n, v) for e, v in self.items), 1)
                adj = adj * Cyclotomic.from_reduced(n, vec, 1)
        norm = adj * Cyclotomic._make(n, self.items, 1)
        if norm.order != 1 or not norm.items or norm.items[0][1] < 0:
            raise CyclotomicCheckFailed(f"the norm of {self} is {norm}, not a positive integer")
        # den / N need not be in lowest terms: the product takes one gcd over all of it
        return adj * Cyclotomic._make(1, ((0, self.den),), norm.items[0][1])

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
        """Complex conjugation, zeta^k -> zeta^(n-k); an involution.

        Each exponent n - k is placed onto the phi(n) slots (`_place`).
        Conjugation is an automorphism of the Z-module Z[zeta_n], so the
        numerators keep their gcd with `den` and no gcd is taken."""
        if self.order == 1:
            return self
        n = self.order
        vec = _place([0] * euler_phi(n), n, n, (((n - k) % n, v) for k, v in self.items), 1)
        return Cyclotomic._make(n, tuple((k, v) for k, v in enumerate(vec) if v), self.den)

    # -- real evaluation -------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a real element: -1, 0 or +1.

        A rational, zero included, is read from its numerator before the
        conj-and-compare of the real check.  Otherwise y =
        den * self, a nonzero algebraic integer of the same sign, is enclosed
        at 64 bits, doubling up to B = phi(order) L + 1 bits, L the bit length
        of the sum S of the absolute numerators.  The norm of y, the product
        of its phi(order) conjugates, each at most S < 2^L, is a nonzero
        integer, so |y| > 2^(-L(phi-1)); an enclosure is narrower than
        2^(L+1-bits) (`real_enclosure`), so at B bits it excludes zero, or
        `CyclotomicCheckFailed` reports a broken invariant.
        """
        if self.order == 1:
            return 0 if not self.items else 1 if self.items[0][1] > 0 else -1
        if not self.is_real():
            raise NotReal(f"sign() of non-real element {self}")
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


def _place(vec: list[int], m: int, order: int, items, scale: int) -> list[int]:
    """vec += scale * sum(v * zeta_order^k for k, v in items) modulo Phi_m,
    vec a phi(m)-long int vector, order dividing m and 0 <= k < order.  A
    slot below phi(m) is added in place; one at or above goes through its
    `root_items` row.  Returns vec."""
    phi = len(vec)
    roots = root_items(m)
    step = m // order
    for k, v in items:
        k *= step
        if k < phi:
            vec[k] += v * scale
        else:
            v *= scale
            for i, r in roots[k]:
                vec[i] += v * r
    return vec


def _mul_into(vec: list[int], m: int, b: Cyclotomic, c: Cyclotomic, scale: int) -> list[int]:
    """vec += scale * b.numerators * c.numerators modulo Phi_m, vec a
    phi(m)-long int vector and b.order, c.order dividing m.  A product slot
    below phi(m) is added in place; one at or above goes through its
    `root_items` row.  Returns vec."""
    phi = len(vec)
    roots = root_items(m)
    sb, sc = m // b.order, m // c.order
    citems = [(kc * sc, vc) for kc, vc in c.items]
    for kb, vb in b.items:
        kb *= sb
        vb *= scale
        for kc, vc in citems:
            k = kb + kc
            if k >= m:
                k -= m
            if k < phi:
                vec[k] += vb * vc
            else:
                x = vb * vc
                for i, r in roots[k]:
                    vec[i] += x * r
    return vec


def sub_mul(a: Cyclotomic, b: Cyclotomic, c: Cyclotomic) -> Cyclotomic:
    """a - b*c in canonical form, the same element and key as `a - b * c`.

    Three rationals combine on ints over one gcd.  Otherwise one
    phi(m)-long vector at m = lcm of the three orders collects the
    product (`_mul_into`) and a's numerators (`_place`) over the common
    denominator; one gcd follows.  `a` itself comes back when b or c is zero."""
    if not (b.items and c.items):
        return a
    if a.order == b.order == c.order == 1:
        bc_den = b.den * c.den
        return _ratio((a.items[0][1] * bc_den if a.items else 0)
                      - b.items[0][1] * c.items[0][1] * a.den, a.den * bc_den)
    m = math.lcm(a.order, b.order, c.order)
    bc_den = b.den * c.den
    den = math.lcm(a.den, bc_den)
    vec = _mul_into([0] * euler_phi(m), m, b, c, -(den // bc_den))
    if m != a.order and not any(vec[1:]):
        # a rational b*c leaves a - b*c at a's order
        return a + Cyclotomic.from_reduced(1, vec[:1], den)
    return Cyclotomic.from_reduced(m, _place(vec, m, a.order, a.items, den // a.den), den)


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
    if type(x) is int:
        return Cyclotomic._make(1, ((0, x),) if x else (), 1)
    f = Fraction(x)
    return Cyclotomic._make(1, ((0, f.numerator),) if f else (), f.denominator)


def _ratio(num: int, den: int) -> Cyclotomic:
    """num / den at order 1 in canonical form, for den > 0: one gcd."""
    if not num:
        return zero()
    g = math.gcd(num, den)
    return Cyclotomic._make(1, ((0, num // g),), den // g)


def zero() -> Cyclotomic:
    return Cyclotomic._make(1, (), 1)


def one() -> Cyclotomic:
    return rational(1)


@lru_cache(maxsize=None)
def root_items(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The canonical numerators (den 1) of zeta_n^k in Q(zeta_n), indexed by
    0 <= k < n: the basis vector k for k < phi(n), and from there on the
    sparse row ((i, c), ...) of x^k mod Phi_n, each row the one before times
    x, reduced once.  The only reduction table of the package."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rows = [((k, 1),) for k in range(d)]
    cur = base = [-c for c in phi[:-1]]
    for _ in range(d, n):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c + top * b for c, b in zip(cur, base)]
    return tuple(rows)


def root_of_unity(n: int, k: int) -> Cyclotomic:
    """zeta_n^k in canonical form."""
    if n < 1:
        raise ValueError("n must be positive")
    items = root_items(n)[k % n]
    return Cyclotomic._make(1 if items[0][0] == 0 and len(items) == 1 else n, items, 1)

