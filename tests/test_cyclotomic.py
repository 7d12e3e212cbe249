"""Field arithmetic, canonical forms and certified signs in Q(zeta_n)."""

import json
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigpair
from sigpair import cyclotomic, intervals
from sigpair.cyclotomic import (Cyclotomic, CyclotomicCheckFailed,
                                DivisionByZero, IncompatibleOrder,
                                MAX_JSON_ORDER, MalformedJSON, NotReal,
                                cyclotomic_polynomial, euler_phi,
                                multiplicative_order, one,
                                rational, root_of_unity, sub_mul, zero)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(20) == 8


def test_roots_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(4, 1) ** 2 == root_of_unity(2, 1)
    # multiplicative order is n / gcd(n, k)
    for n, k in [(12, 8), (9, 6), (8, 2), (7, 3)]:
        assert multiplicative_order(root_of_unity(n, k)) == n // math.gcd(n, k)


def test_arith_examples():
    z3 = root_of_unity(3, 1)
    assert z3 + z3 ** 2 + 1 == 0
    assert root_of_unity(8, 1) * root_of_unity(8, 7) == 1
    # norm of 1 - zeta_5: the product over conjugates is 5
    z5 = root_of_unity(5, 1)
    prod = one()
    for k in range(1, 5):
        prod = prod * (1 - z5 ** k)
    assert prod == 5
    # float cross-check of the same product
    approx = 1 + 0j
    for k in range(1, 5):
        approx *= 1 - (z5 ** k).approx_complex()
    assert abs(approx - 5) < 1e-9


def test_conj_examples():
    assert root_of_unity(8, 1).conj() == root_of_unity(8, 7)
    assert rational(Fraction(3, 2)).conj() == Fraction(3, 2)
    z5 = root_of_unity(5, 1)
    real_elt = z5 + z5 ** 4
    assert real_elt.conj() == real_elt
    assert real_elt.is_real()
    assert not root_of_unity(8, 1).is_real()
    assert zero().is_real()


def test_conj_is_involution_and_automorphism():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 25)
        a = _random_element(rng, n)
        b = _random_element(rng, n)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        norm = a * a.conj()
        assert norm.is_real()
        assert norm.sign() in (0, 1)
        assert (norm.sign() == 0) == a.is_zero()


def _random_element(rng, n, span=9):
    coords = {k: Fraction(rng.randint(-span, span), rng.randint(1, 4))
              for k in rng.sample(range(n), k=min(n, rng.randrange(1, 4)))}
    return Cyclotomic(n, coords)


def test_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 25)
        a, b, c = (_random_element(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == 1


def _reference(n, raw):
    """Fraction coordinates of sum(v x^k) modulo Phi_n by polynomial remainder:
    a route that shares no code with the kernel's reduction rows."""
    poly = [Fraction(0)] * (max(raw, default=0) + 1)
    for k, v in raw.items():
        poly[k] += v
    _, rem = cyclotomic._pdivmod(poly, [Fraction(c) for c in cyclotomic_polynomial(n)])
    return {k: v for k, v in enumerate(rem) if v}


def _lifted(c, m):
    """c's Fraction coordinates as exponents at order m (order | m), unreduced."""
    step = m // c.order
    return {k * step: v for k, v in c.coords.items()}


def _value(c, m):
    return _reference(m, _lifted(c, m))


def _times(x, y):
    """Product of two exponent -> coefficient maps, exponents added unreduced."""
    out = {}
    for ka, va in x.items():
        for kb, vb in y.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return out


def _assert_canonical(c):
    nums = [v for _, v in c.items]
    assert c.den > 0 and math.gcd(c.den, *nums) == 1
    assert all(isinstance(v, int) and v for v in nums)
    assert [k for k, _ in c.items] == sorted({k for k, _ in c.items})
    assert all(0 <= k < euler_phi(c.order) for k, _ in c.items)
    if c.is_zero():
        assert (c.order, c.den) == (1, 1)
    assert (c.order == 1) == (c.is_zero() or [k for k, _ in c.items] == [0])


_KERNEL_ORDERS = (1, 3, 5, 8, 12, 24, 40)


@pytest.mark.parametrize("orders", [(n, n) for n in _KERNEL_ORDERS]
                         + [(1, 8), (3, 8), (5, 12), (8, 12), (12, 40), (24, 5)],
                         ids=lambda o: f"{o[0]}x{o[1]}")
def test_kernel_matches_fraction_reference(orders):
    rng = random.Random(sum(orders) * 101 + orders[0])
    n1, n2 = orders
    m = math.lcm(n1, n2)
    for _ in range(25):
        a = _random_element(rng, n1, span=40)
        b = _random_element(rng, n2, span=40)
        for c in (a, b):
            _assert_canonical(c)
            assert _value(c, c.order) == c.coords
        total, prod = a + b, a * b
        for c in (total, prod, a.conj(), a.promote(m), b.promote(m)):
            _assert_canonical(c)
        summed = _lifted(a, m)
        for k, v in _lifted(b, m).items():
            summed[k] = summed.get(k, 0) + v
        assert _value(total, m) == _reference(m, summed)
        assert _value(prod, m) == _reference(m, _times(_lifted(a, m), _lifted(b, m)))
        assert _value(a.conj(), n1) == _reference(n1, {(n1 - k) % n1: v
                                                       for k, v in a.coords.items()})
        assert _value(a.promote(m), m) == _value(a, m)
        if not a.is_zero():
            inv = a.inverse()
            _assert_canonical(inv)
            assert _reference(n1, _times(a.coords, _lifted(inv, n1))) == {0: 1}


def _reference_inverse(c):
    """1/c by the extended Euclid on Fraction polynomials."""
    if c.order == 1:
        return rational(1 / c.as_fraction())
    n = c.order
    a = [Fraction(0)] * euler_phi(n)
    for k, v in c.items:
        a[k] = Fraction(v)
    r0, r1 = [Fraction(x) for x in cyclotomic_polynomial(n)], a
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while cyclotomic._pdeg(r1) > 0:
        q, r = cyclotomic._pdivmod(r0, r1)
        r0, r1 = r1, r
        qs = cyclotomic._pmul(q, s1)
        s0, s1 = s1, [x - y for x, y in zip_longest(s0, qs, fillvalue=0)]
    return Cyclotomic(n, {i: v * c.den / r1[0] for i, v in enumerate(s1) if v})


def _reference_element(n, raw):
    """sum(v * zeta_n^k for k, v in raw.items()) with a gcd, reduced by long
    division by Phi_n (`_reference`), so no reduction row of the kernel is
    read: the constructor sees exponents below phi(n) only."""
    return Cyclotomic(n, _reference(n, raw))


def _reference_conj(c):
    """Conjugation with a gcd: zeta^k -> zeta^(n-k), reduced by long division."""
    if c.order == 1:
        return c
    n = c.order
    return _reference_element(n, {(n - k) % n: v for k, v in c.coords.items()})


_ORDERS = (1, 2, 3, 4, 5, 8, 12, 30, 40)


def _coords(draw, top):
    exps = draw(st.lists(st.integers(0, top), max_size=min(top + 1, 6), unique=True))
    return {k: Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from((1, 2, 3, 12))))
            for k in exps}


@st.composite
def _elements(draw):
    n = draw(st.sampled_from(_ORDERS))
    return Cyclotomic(n, _coords(draw, n - 1))


@st.composite
def _raw_coords(draw):
    """(n, coords) with exponents up to 3n - 1, most past phi(n) and many past n."""
    n = draw(st.sampled_from(_ORDERS))
    return n, _coords(draw, 3 * n - 1)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(a=_elements(), b=_elements(), c=_elements(),
       shape=st.sampled_from(("any", "zero b", "zero c", "rational b*c", "zero result",
                              "rational result")),
       raw=_raw_coords())
def test_kernel_matches_the_reference_operations(a, b, c, shape, raw):
    # sub_mul against a - b*c; conj, sums, promote and the constructor against
    # long division by Phi_n; inverse against the Euclid on Fractions: mixed
    # orders, order 1, zero operands, and results that collapse to a rational
    # or to zero, compared by key
    if shape == "zero b":
        b = zero()
    elif shape == "zero c":
        c = zero()
    elif shape == "rational b*c" and not b.is_zero():
        c = b.inverse() * Fraction(-3, 7)
    elif shape == "zero result":
        a = b * c
    elif shape == "rational result":
        a = b * c + Fraction(5, 2)
    got = sub_mul(a, b, c)
    _assert_canonical(got)
    assert got.key() == (a - b * c).key()
    if b.is_zero() or c.is_zero():
        assert got is a
    for x in (a, b, c, got):
        assert x.conj().key() == _reference_conj(x).key()
        _assert_canonical(x.conj())
        if not x.is_zero():
            assert x.inverse().key() == _reference_inverse(x).key()
    m = math.lcm(a.order, b.order)
    summed = _lifted(a, m)
    for k, v in _lifted(b, m).items():
        summed[k] = summed.get(k, 0) + v
    assert (a + b).key() == _reference_element(m, summed).key()
    m = math.lcm(a.order, b.order, c.order)
    assert a.promote(m).key() == _reference_element(m, _lifted(a, m)).key()
    n, coords = raw
    assert Cyclotomic(n, coords).key() == _reference_element(n, coords).key()


def test_json_strings_are_stable():
    z5 = root_of_unity(5, 1)
    elts = [
        root_of_unity(20, 3) * Fraction(7, 6) - Fraction(1, 2),
        Cyclotomic(12, {0: Fraction(1, 3), 5: Fraction(-2, 9), 7: 4, 11: Fraction(5, 6)}),
        (z5 + z5 ** 4) * Fraction(1, 10 ** 30) + Fraction(1, 10 ** 60),
        (z5 ** 2 - z5 ** 3).inverse(),
        (root_of_unity(8, 1) + 3).inverse() / 7,
        Cyclotomic(40, {39: Fraction(-4, 15), 17: Fraction(9, 10), 2: 6}),
        root_of_unity(3, 1) + root_of_unity(3, 2),
        rational(Fraction(-3, 7)),
        zero(),
    ]
    expected = [
        '{"coords": [[0, "-1/2"], [3, "7/6"]], "order": 20}',
        '{"coords": [[0, "1/3"], [1, "-53/18"], [3, "-19/18"]], "order": 12}',
        '{"coords": [[0, "-999999999999999999999999999999/' + "1" + "0" * 60 + '"], '
        '[2, "-1/1' + "0" * 30 + '"], [3, "-1/1' + "0" * 30 + '"]], "order": 5}',
        '{"coords": [[0, "-1/5"], [1, "-2/5"], [2, "-3/5"], [3, "1/5"]], "order": 5}',
        '{"coords": [[0, "27/574"], [1, "-9/574"], [2, "3/574"], [3, "-1/574"]], "order": 8}',
        '{"coords": [[1, "-9/10"], [2, "6/1"], [3, "-4/15"], [5, "9/10"], [7, "4/15"], '
        '[9, "-9/10"], [11, "-4/15"], [13, "9/10"], [15, "4/15"]], "order": 40}',
        '{"coords": [[0, "-1/1"]], "order": 1}',
        '{"coords": [[0, "-3/7"]], "order": 1}',
        '{"coords": [], "order": 1}',
    ]
    assert [json.dumps(e.to_json_dict(), sort_keys=True) for e in elts] == expected
    assert all(Cyclotomic.from_json_dict(e.to_json_dict()) == e for e in elts)


def test_sign_examples():
    z5 = root_of_unity(5, 1)
    sqrt5 = 2 * (z5 + z5 ** 4) + 1
    assert sqrt5.sign() == 1
    assert abs(sqrt5.approx_complex() - math.sqrt(5)) < 1e-9
    assert rational(Fraction(-3, 7)).sign() == -1
    z3 = root_of_unity(3, 1)
    reduced = z3 + z3 ** 2
    assert reduced == -1
    assert reduced.order == 1  # canonical form collapses to a rational
    assert reduced.sign() == -1
    assert zero().sign() == 0
    # small but nonzero real element certifies too
    tiny = (z5 + z5 ** 4) * Fraction(1, 10 ** 30) + Fraction(1, 10 ** 60)
    assert tiny.sign() == 1


def test_sign_requires_real():
    with pytest.raises(NotReal):
        root_of_unity(8, 1).sign()


def test_division_errors():
    with pytest.raises(DivisionByZero):
        one() / zero()
    with pytest.raises(DivisionByZero):
        zero().inverse()


def test_inexact_cyclotomic_division_is_a_typed_error(monkeypatch):
    # the checks are exceptions, not asserts, so they also hold under python -O
    exact = cyclotomic._pdivmod

    def with_remainder(a, b):
        q, r = exact(a, b)
        return q, [r[0] + 1] + r[1:]

    monkeypatch.setattr(cyclotomic, "_pdivmod", with_remainder)
    with pytest.raises(CyclotomicCheckFailed, match="remainder"):
        cyclotomic_polynomial.__wrapped__(12)  # bypass the cache


def test_vanishing_inverse_gcd_is_a_typed_error(monkeypatch):
    # a Euclid step whose remainder vanishes means a common factor with Phi_n
    monkeypatch.setattr(cyclotomic, "_prem", lambda r0, s0, r1, s1: ([0] * len(r0), s0))
    with pytest.raises(CyclotomicCheckFailed, match="gcd"):
        root_of_unity(5, 1).inverse()


def test_promote_and_roundtrip():
    assert Cyclotomic(2, {1: 1}).promote(8) == root_of_unity(8, 4)
    assert zero().promote(12) == 0
    assert root_of_unity(3, 1).promote(12) == root_of_unity(12, 4)
    with pytest.raises(IncompatibleOrder):
        root_of_unity(8, 1).promote(12)
    a = _random_element(random.Random(3), 6)
    assert a.promote(24) == a


def test_canonical_uniqueness_many_routes():
    # (zeta_8 + zeta_8^-1)^2 = 2
    s = root_of_unity(8, 1) + root_of_unity(8, 7)
    assert s * s == 2
    # zeta_6 = -zeta_3^2
    assert root_of_unity(6, 1) == -(root_of_unity(3, 1) ** 2)
    # golden-ratio identity: (1 + sqrt5)/2 satisfies x^2 = x + 1
    z5 = root_of_unity(5, 1)
    gold = (1 + (2 * (z5 + z5 ** 4) + 1)) / 2
    assert gold * gold == gold + 1
    # same element from different arithmetic routes has identical coordinates:
    # (z + z^2)(z^3 + z^4) = z^4 + z^5 + z^5 + z^6 = z^4 + z + 2
    a = (z5 + z5 ** 2) * (z5 ** 3 + z5 ** 4)
    b = z5 ** 4 + z5 + 2
    assert a.order == b.order and a.items == b.items


def test_sign_agrees_with_float_oracle():
    rng = random.Random(2024)
    checked = 0
    with mpmath.workprec(200):
        while checked < 1000:
            n = rng.randrange(2, 25)
            a = _random_element(rng, n)
            elt = a + a.conj()  # guaranteed real
            if elt.is_zero():
                continue
            val = mpmath.mpf(0)
            for k, v in elt.coords.items():
                val += mpmath.mpf(v.numerator) / v.denominator * mpmath.cos(
                    2 * mpmath.pi * k / elt.order)
            if abs(val) < mpmath.mpf(2) ** -150:
                continue  # too close for the float oracle itself
            assert elt.sign() == (1 if val > 0 else -1)
            checked += 1


def test_real_enclosure_intervals():
    import math as _math

    from sigpair import intervals

    # enclosures genuinely contain the float value, at several precisions
    for num, den in ((0, 1), (1, 3), (2, 5), (3, 8), (7, 24)):
        for bits in (64, 128):
            lo, hi = intervals.cos_2pi(num, den, bits)
            true = _math.cos(2 * _math.pi * num / den)
            assert float(lo) - 1e-12 <= true <= float(hi) + 1e-12
            assert hi - lo <= Fraction(1, 1 << (bits - 8))
    z7 = root_of_unity(7, 1)
    elt = z7 + z7 ** 6
    lo, hi = intervals.real_enclosure(elt.order, elt.items, 96)
    assert 0 < lo <= hi
    assert abs(float((lo + hi) / 2) - 2 * _math.cos(2 * _math.pi / 7)) < 1e-12


def test_json_round_trip():
    z = root_of_unity(20, 3) * Fraction(7, 6) - Fraction(1, 2)
    data = z.to_json_dict()
    assert data["order"] == 20
    assert all(isinstance(k, int) and "/" in s for k, s in data["coords"])
    assert Cyclotomic.from_json_dict(data) == z


def test_json_order_bound():
    top = Cyclotomic.from_json_dict({"order": MAX_JSON_ORDER, "coords": [[1, "1"]]})
    assert top == root_of_unity(MAX_JSON_ORDER, 1)
    with pytest.raises(MalformedJSON, match=f"at most {MAX_JSON_ORDER}, got {MAX_JSON_ORDER + 1}"):
        Cyclotomic.from_json_dict({"order": MAX_JSON_ORDER + 1, "coords": [[0, "1"]]})


def test_rational_at_a_large_order_builds_no_table():
    # 3795 = 3 * 5 * 11 * 23: Phi_3795 and its root rows take 0.6 s and 230 MB (2-core VM)
    cyclotomic.root_items.cache_clear()
    cyclotomic.cyclotomic_polynomial.cache_clear()
    for coords in ({0: 1}, {3795: Fraction(-2, 3)}, {0: 1, 7590: -1}):
        x = Cyclotomic(3795, coords)
        assert x.order == 1 and x == sum(coords.values())
    assert Cyclotomic.from_json_dict({"order": 3795, "coords": [[0, "1"]]}) == 1
    assert cyclotomic.root_items.cache_info().misses == 0
    assert cyclotomic.cyclotomic_polynomial.cache_info().misses == 0


def _psi():
    """1 - golden ratio = (1 - sqrt5)/2 in Q(zeta_5), about -0.618."""
    z5 = root_of_unity(5, 1)
    return 1 + z5 ** 2 + z5 ** 3


def _sign_bound(x: Cyclotomic) -> int:
    """The last precision sign() may try: phi(order) * L + 1."""
    return euler_phi(x.order) * sum(abs(v) for _, v in x.items).bit_length() + 1


@pytest.mark.parametrize("k", [1, 2, 51, 200, 999, 1000])
def test_sign_of_tiny_powers(k):
    # |psi^k| and (sqrt2 - 1)^k shrink like 2^(-0.69k) and 2^(-1.27k) while
    # their numerators grow as fast: k = 1000 needs 2048 and 4096 bits
    z8 = root_of_unity(8, 1)
    cases = [(_psi() ** k, (-1) ** k), ((z8 + z8 ** 7 - 1).promote(40) ** k, 1)]
    for x, expected in cases:
        assert x.order in (5, 40)
        assert x.sign() == expected
        assert (-x).sign() == -expected


def test_sign_of_large_powers_is_fast():
    z8 = root_of_unity(8, 1)
    elements = [_psi() ** 1000, (z8 + z8 ** 7 - 1).promote(40) ** 1000]
    intervals.cos_2pi.cache_clear()
    intervals._pi_fixed.cache_clear()
    start = time.perf_counter()
    assert [x.sign() for x in elements] == [1, 1]
    assert time.perf_counter() - start < 2.0


def _mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


@pytest.mark.parametrize("bits", [1, 8, 64, 200, 1024, 4096])
def test_cos_2pi_contains_the_value(bits):
    # mpmath at twice the precision: its value is within 2^(4 - 2 bits) of the truth
    dens = range(1, 25) if bits <= 1024 else (1, 2, 3, 4, 5, 7, 8, 12, 24, 31, 40, 3795)
    with mpmath.workprec(2 * bits + 16):
        eps = mpmath.mpf(2) ** (4 - 2 * bits)
        for den in dens:
            nums = [n for n in range(den) if math.gcd(n, den) == 1]
            for num in nums if den < 100 else nums[:12] + nums[-12:]:
                lo, hi = intervals.cos_2pi(num, den, bits)
                assert lo.denominator <= 1 << bits and hi.denominator <= 1 << bits
                assert hi - lo < Fraction(3, 1 << bits)
                val = mpmath.cos(2 * mpmath.pi * num / den)
                assert _mp(lo) - eps <= val <= _mp(hi) + eps, (num, den, bits)


def test_cos_2pi_takes_any_fraction():
    # num need not lie in [0, den) nor be coprime to den: the same enclosure
    for den in (1, 3, 5, 8, 24):
        for num in range(den):
            for m, shift in ((1, -2), (2, 0), (3, 5), (6, -1)):
                assert (intervals.cos_2pi(m * (num + shift * den), m * den, 64)
                        == intervals.cos_2pi(num, den, 64)), (num, den, m, shift)


@pytest.mark.parametrize("bits", [64, 256, 1024, 4096])
def test_real_enclosure_contains_the_value(bits):
    rng = random.Random(bits)
    with mpmath.workprec(2 * bits + 64):
        for order in (3, 5, 7, 8, 12, 15, 40, 120):
            a = _random_element(rng, order) * rng.randrange(1, 10 ** 6)
            x = a + a.conj()
            if x.order == 1:
                continue
            lo, hi = intervals.real_enclosure(x.order, x.items, bits)
            s = sum(abs(v) for _, v in x.items)
            assert hi - lo < Fraction(s, 1 << (bits + 10)) + Fraction(2, 1 << bits)
            val = sum(v * mpmath.cos(2 * mpmath.pi * k / x.order) for k, v in x.items)
            eps = s * mpmath.mpf(2) ** (4 - 2 * bits)
            assert _mp(lo) - eps <= val <= _mp(hi) + eps, (order, bits)


def test_straddling_enclosure_fails_within_the_bound(monkeypatch):
    # an enclosure that never excludes zero contradicts the norm bound: after
    # at most ceil(log2(B / 64)) + 2 tries sign() refuses rather than guessing
    calls = []

    def straddle(order, items, bits):
        calls.append(bits)
        return Fraction(-1, 1 << bits), Fraction(1, 1 << bits)

    monkeypatch.setattr(intervals, "real_enclosure", straddle)
    z5 = root_of_unity(5, 1)
    for x in (z5 + z5 ** 4, _psi() ** 1000, (z5 + z5 ** 4) * Fraction(1, 3) + 5):
        bound = _sign_bound(x)
        calls.clear()
        with pytest.raises(CyclotomicCheckFailed, match=f"bound {bound}"):
            x.sign()
        assert calls[0] == 64 and calls[-1] == max(64, bound)
        assert len(calls) <= math.ceil(math.log2(max(bound, 64) / 64)) + 2


def test_straddling_enclosure_fails_under_python_O():
    script = textwrap.dedent("""
        from fractions import Fraction
        from sigpair import cyclotomic, intervals
        calls = []

        def straddle(order, items, bits):
            calls.append(bits)
            return Fraction(-1), Fraction(1)

        intervals.real_enclosure = straddle
        z5 = cyclotomic.root_of_unity(5, 1)
        try:
            (1 + z5 ** 2 + z5 ** 3).__pow__(1000).sign()
        except cyclotomic.CyclotomicCheckFailed as exc:
            print("raised:", calls)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(sigpair.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    bound = _sign_bound(_psi() ** 1000)
    assert done.stdout.splitlines() == [f"raised: [64, 128, 256, 512, 1024, 2048, {bound}]"]


def test_root_of_unity_reads_the_shared_table():
    for n in (1, 2, 3, 4, 8, 12, 15, 40):
        for k in range(-n, 2 * n):
            z = root_of_unity(n, k)
            assert z.key() == Cyclotomic(n, {k % n: 1}).key()
            assert z.den == 1
    assert root_of_unity(6, 3).key() == (1, ((0, -1),), 1)
    assert root_of_unity(7, 14).key() == one().key()
