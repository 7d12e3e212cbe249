"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is a sparse rational coordinate vector over the power basis
1, zeta_n, ..., zeta_n^(phi(n)-1), i.e. fully reduced modulo the n-th
cyclotomic polynomial.  Canonical form is unique, so equality of values in
one field is a coordinate comparison; operands of unequal order are promoted
to the lcm order first.  Elements whose support is {0} are normalised to
order 1, so rationals always live in Q(zeta_1) no matter how they arose.

Values are immutable and operations are pure; the module-level caches of
cyclotomic polynomials and reduction rows are read-only after first use, so
everything is safe to share across threads.  The reduction rows (x^j mod
Phi_n for phi(n) <= j < n) are also the table the fold in `invariant`
reduces its integer coefficient vectors with.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache

from . import intervals

Rational = Fraction

DEFAULT_PRECISION_CAP = 65536
PRECISION_ENV = "SIG_MAX_PRECISION_BITS"


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element."""


class NotReal(ValueError):
    """sign() applied to an element not fixed by conjugation."""


class PrecisionExceeded(RuntimeError):
    """Interval refinement hit the hard precision cap (internal bug)."""


class IncompatibleOrder(ValueError):
    """promote() target is not a multiple of the element's order."""


class CyclotomicCheckFailed(ArithmeticError):
    """An exact computation broke an identity that holds in every cyclotomic field."""


class InvalidPrecisionCap(ValueError):
    """SIG_MAX_PRECISION_BITS is not an integer of at least 64 (the first
    precision sign() tries)."""


def precision_cap() -> int:
    """The precision cap for sign(): SIG_MAX_PRECISION_BITS, else the default."""
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return DEFAULT_PRECISION_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 64:
        raise InvalidPrecisionCap(f"{PRECISION_ENV}={raw!r} is not an integer of at least 64")
    return cap


def _divisors(n: int) -> list[int]:
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree: x^n - 1 divided by
    Phi_d for every proper divisor d of n."""
    if n == 1:
        return (-1, 1)
    f = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
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
def _reduction_rows(n: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """x^j mod Phi_n as sparse integer rows ((i, c), ...), i < phi(n), for
    phi(n) <= j < n, ascending j."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    cur = base = [-c for c in phi[:-1]]
    rows = {}
    for j in range(d, n):
        rows[j] = tuple((i, c) for i, c in enumerate(cur) if c)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c + top * b for c, b in zip(cur, base)]
    return rows


def _canonical(order: int, raw: dict[int, Fraction]):
    """Reduce a raw exponent->coefficient map to canonical (order, items)."""
    if order == 1:
        total = sum(raw.values(), Fraction(0))
        return (1, ((0, total),) if total else ())
    folded: dict[int, Fraction] = {}
    for k, v in raw.items():
        if v:
            k %= order
            folded[k] = folded.get(k, Fraction(0)) + v
    d = euler_phi(order)
    if any(k >= d for k in folded):
        rows = _reduction_rows(order)
        out = [Fraction(0)] * d
        for k, v in folded.items():
            if not v:
                continue
            if k < d:
                out[k] += v
            else:
                for i, r in rows[k]:
                    out[i] += v * r
        items = tuple((i, c) for i, c in enumerate(out) if c)
    else:
        items = tuple(sorted((k, v) for k, v in folded.items() if v))
    if not items:
        return (1, ())
    if len(items) == 1 and items[0][0] == 0:
        return (1, items)
    return (order, items)


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

    `items` is a sorted tuple of (exponent, Fraction) pairs with exponents
    below phi(order).  Instances are immutable; use the arithmetic operators.
    Unhashable on purpose: canonical form is per-order, so containers must
    key on explicit (order, items) data at a fixed ambient order.
    """

    __slots__ = ("order", "items")
    __hash__ = None

    def __init__(self, order: int, coords=()):
        if order < 1:
            raise ValueError("order must be a positive integer")
        raw = coords if isinstance(coords, dict) else dict(coords)
        raw = {int(k): Fraction(v) for k, v in raw.items()}
        self.order, self.items = _canonical(order, raw)

    @classmethod
    def _make(cls, order: int, items) -> "Cyclotomic":
        obj = object.__new__(cls)
        obj.order = order
        obj.items = items
        return obj

    # -- inspection ------------------------------------------------------

    @property
    def coords(self) -> dict[int, Fraction]:
        return dict(self.items)

    def is_zero(self) -> bool:
        return not self.items

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise ValueError(f"{self!r} is not rational")
        return self.items[0][1] if self.items else Fraction(0)

    def is_real(self) -> bool:
        return self.conj() == self

    # -- ring/field structure -------------------------------------------

    def _promote_raw(self, m: int) -> dict[int, Fraction]:
        step = m // self.order
        return {k * step: v for k, v in self.items}

    def promote(self, m: int) -> "Cyclotomic":
        """The same value represented in Q(zeta_m); requires order | m."""
        if m % self.order:
            raise IncompatibleOrder(f"order {self.order} does not divide {m}")
        return Cyclotomic._make(*_canonical(m, self._promote_raw(m)))

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == other.order:
            return self.items == other.items
        m = math.lcm(self.order, other.order)
        return _canonical(m, self._promote_raw(m)) == _canonical(m, other._promote_raw(m))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return rational(self.as_fraction() + other.as_fraction())
        m = math.lcm(self.order, other.order)
        raw = self._promote_raw(m)
        for k, v in other._promote_raw(m).items():
            raw[k] = raw.get(k, Fraction(0)) + v
        return Cyclotomic._make(*_canonical(m, raw))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._make(self.order, tuple((k, -v) for k, v in self.items))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1:
            if not self.items:
                return zero()
            c = self.items[0][1]
            return Cyclotomic._make(*_canonical(other.order, {k: v * c for k, v in other.items}))
        if other.order == 1:
            return other * self
        m = math.lcm(self.order, other.order)
        a = list(self._promote_raw(m).items())
        b = list(other._promote_raw(m).items())
        raw: dict[int, Fraction] = {}
        for ka, va in a:
            for kb, vb in b:
                k = ka + kb
                raw[k] = raw.get(k, Fraction(0)) + va * vb
        return Cyclotomic._make(*_canonical(m, raw))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.order == 1:
            return rational(1 / self.as_fraction())
        n = self.order
        d = euler_phi(n)
        a = [Fraction(0)] * d
        for k, v in self.items:
            a[k] = v
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        # extended Euclid: s1 * a == r1 (mod Phi_n); Phi_n irreducible over Q
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _pdeg(r1) > 0:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            qs = _pmul(q, s1)
            s0, s1 = s1, _psub(s0, qs)
        c = r1[0]
        if not c:
            raise CyclotomicCheckFailed(f"gcd of {self} with the irreducible Phi_{n} vanished")
        return Cyclotomic(n, {i: v / c for i, v in enumerate(s1) if v})

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero element")
        if self.order == 1 and other.order == 1:
            return rational(self.as_fraction() / other.as_fraction())
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

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
        return Cyclotomic._make(*_canonical(n, {(n - k) % n: v for k, v in self.items}))

    # -- real evaluation -------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a real element: -1, 0 or +1.

        Zero is decided syntactically from canonical form; otherwise the value
        is evaluated by interval arithmetic at doubling precision until the
        enclosure excludes zero, which must happen since the value is nonzero.
        """
        if not self.is_real():
            raise NotReal(f"sign() of non-real element {self}")
        if self.is_zero():
            return 0
        if self.order == 1:
            f = self.items[0][1]
            return 1 if f > 0 else -1
        cap = precision_cap()
        bits = 64
        while bits <= cap:
            lo, hi = intervals.real_enclosure(self.order, self.items, bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
        raise PrecisionExceeded(f"sign undecided at {cap} bits for nonzero element")

    def approx_float(self) -> float:
        """Float estimate of a real element, for pivot-size heuristics only."""
        if self.order == 1:
            f = self.items[0][1] if self.items else Fraction(0)
            try:
                return float(f)
            except OverflowError:
                return math.inf if f > 0 else -math.inf
        lo, hi = intervals.real_enclosure(self.order, self.items, 64)
        mid = (lo + hi) / 2
        try:
            return float(mid)
        except OverflowError:
            return math.inf if mid > 0 else -math.inf

    def approx_complex(self) -> complex:
        """Uncertified complex float value (debugging and float cross-checks)."""
        z = 0j
        for k, v in self.items:
            z += float(v) * complex(math.cos(2 * math.pi * k / self.order),
                                    math.sin(2 * math.pi * k / self.order))
        return z

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "coords": [[k, f"{v.numerator}/{v.denominator}"] for k, v in self.items],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Cyclotomic":
        coords = {int(k): Fraction(str(v)) for k, v in data.get("coords", [])}
        return cls(int(data["order"]), coords)

    def __repr__(self):
        return f"Cyclotomic({self.order}, {dict(self.items)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, v in self.items:
            if k == 0:
                parts.append(str(v))
            elif v == 1:
                parts.append(f"z{self.order}^{k}")
            else:
                parts.append(f"({v})*z{self.order}^{k}")
        return " + ".join(parts)


def _pmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Product of dense coefficient lists; integer inputs stay integer."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _psub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _coerce(x):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return rational(x)
    return NotImplemented


def rational(x) -> Cyclotomic:
    """Embed an int or Fraction as an order-1 element."""
    f = Fraction(x)
    return Cyclotomic._make(1, ((0, f),) if f else ())


def zero() -> Cyclotomic:
    return Cyclotomic._make(1, ())


def one() -> Cyclotomic:
    return rational(1)


def root_of_unity(n: int, k: int) -> Cyclotomic:
    """zeta_n^k in canonical form."""
    if n < 1:
        raise ValueError("n must be positive")
    return Cyclotomic(n, {k % n: Fraction(1)})


def multiplicative_order(a: Cyclotomic, bound: int = 10000) -> int:
    """Order of a root of unity (small helper used by tests)."""
    acc = a
    for m in range(1, bound + 1):
        if acc == 1:
            return m
        acc = acc * a
    raise ValueError("order exceeds bound")
