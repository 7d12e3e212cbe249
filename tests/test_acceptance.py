"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 2's order-120 exact computation runs here too
(about 20 s, nearly all of it expanding Phi); everything else is desk-scale.
"""

import time
from fractions import Fraction

import pytest

from sigpair.chern import chern_sum_as_fpq, verify_chern_identity
from sigpair.closedforms import (d_sign_check, delta_counts, delta_ratio,
                                 delta_signature_closed, e_coeffs,
                                 lambda_signature_closed, p_poly_roots_check,
                                 phi_delta_decomposed, phi_lambda_decomposed)
from sigpair.cyclotomic import root_of_unity
from sigpair.fpq import (T_closed, format_fpq, fpq, lww_sign, signature_cyclic,
                         signature_cyclic_closed, weight, weight_census)
from sigpair.group import (binary_dihedral, binary_polyhedral, conjugate,
                           cyclic_gamma, dihedral)
from sigpair.invariant import phi, unpack_key
from sigpair.signature import (coefficient_matrix, gauss_rank, inertia_exact,
                               inertia_numeric, signature_pair)

from helpers import closed_dihedral

_START = {}


def _done(cid: str, detail: str = ""):
    elapsed = time.monotonic() - _START[cid]
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {cid}] PASS in {elapsed:.1f}s{suffix}")


def _begin(cid: str):
    _START[cid] = time.monotonic()


@pytest.fixture(scope="module")
def octahedral_matrix():
    return coefficient_matrix(phi(binary_polyhedral("O")))


@pytest.fixture(scope="module")
def tetrahedral_matrix():
    return coefficient_matrix(phi(binary_polyhedral("T")))


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


def test_criterion_01_q4_family_table():
    """The nine q=4 polynomials, coefficient-exact and byte-exact as text."""
    _begin("1")
    for p, text in TABLE_Q4.items():
        assert format_fpq(fpq(p, 4), p, 4) == text, p
    _done("1", "9 polynomials")


def test_criterion_02_su2_signatures_fast(tetrahedral_matrix, octahedral_matrix):
    """Signature pairs for the SU(2) families: cyclic, binary dihedral, T, O."""
    _begin("2")
    for p in range(2, 41):
        closed = signature_cyclic_closed(p)
        assert signature_cyclic(p, p - 1) == closed, p
        assert signature_pair(cyclic_gamma(p, p - 1)) == closed, p
    for p in range(2, 9):
        assert signature_pair(binary_dihedral(p)) == lambda_signature_closed(p), p
    rt = inertia_exact(tetrahedral_matrix)
    assert (rt.n_plus, rt.n_minus) == (9, 5)
    assert inertia_numeric(tetrahedral_matrix, 256, 1e-30) == rt
    ro = inertia_exact(octahedral_matrix)
    assert (ro.n_plus, ro.n_minus) == (17, 9)
    assert ro.rank == 26
    assert gauss_rank(octahedral_matrix) == 26
    assert inertia_numeric(octahedral_matrix, 256, 1e-30) == ro
    _done("2", "cyclic p<=40, binary dihedral p<=8, T, O")


def test_criterion_02_icosahedral_exact():
    """The order-120 exact run: S = (40, 22), rank 62 by two routes, and the
    256-bit numeric oracle agrees with the exact inertia."""
    _begin("2-slow")
    M = coefficient_matrix(phi(binary_polyhedral("I")))
    res = inertia_exact(M)
    assert (res.n_plus, res.n_minus) == (40, 22)
    assert res.rank == 62
    assert gauss_rank(M) == 62
    assert inertia_numeric(M, 256, 1e-30) == res
    _done("2-slow", f"dim {M.dimension}")


def test_criterion_03_dihedral_closed_forms():
    """Dihedral signatures: engine equality p<=12, ratio closed form p<=200."""
    _begin("3")
    for p in range(3, 13):
        assert signature_pair(dihedral(p)) == delta_signature_closed(p), p
    for p in range(3, 201):
        n, npos = delta_counts(p)
        assert (npos, n - npos) == tuple(delta_signature_closed(p)), p
        assert delta_ratio(p) == Fraction(npos, n), p
    _done("3")


def test_criterion_04_binary_dihedral_worked_example():
    """The order-8 case: the full 18-term expansion, S = (5,1), certified signs."""
    _begin("4")
    expected = {
        (4, 0, 4, 0): 1, (0, 4, 4, 0): 1, (4, 4, 8, 0): -1,
        (5, 1, 5, 1): 4, (1, 5, 5, 1): -4, (2, 2, 2, 2): 12,
        (6, 2, 6, 2): 2, (2, 6, 6, 2): 2, (4, 0, 0, 4): 1,
        (0, 4, 0, 4): 1, (8, 0, 4, 4): -1, (4, 4, 4, 4): -4,
        (0, 8, 4, 4): -1, (5, 1, 1, 5): -4, (1, 5, 1, 5): 4,
        (6, 2, 2, 6): 2, (2, 6, 2, 6): 2, (4, 4, 0, 8): -1,
    }
    P = phi(binary_dihedral(2))
    got = {unpack_key(k): v for k, v in P.terms.items()}
    assert len(got) == len(expected)
    for quad, c in expected.items():
        assert got[quad] == c, quad
    assert signature_pair(binary_dihedral(2)) == (5, 1)
    z5 = root_of_unity(5, 1)
    sqrt5 = 1 + 2 * (z5 + z5 ** 4)
    assert sqrt5 * sqrt5 == 5
    assert (-2 + sqrt5).sign() == 1
    assert (-2 - sqrt5).sign() == -1
    _done("4", f"{len(expected)} terms checked")


def test_criterion_05_gcd_sign_rule():
    """Every coefficient sign matches gcd(r, s, w) parity, p <= 60."""
    _begin("5")
    cases = 0
    for p in range(1, 61):
        for q in (2, 3, 4, 5, 7, 8):
            for (r, s), c in fpq(p, q).items():
                w = weight(r, s, p, q)
                assert w is not None, (p, q, r, s)
                assert (1 if c > 0 else -1) == lww_sign(r, s, w), (p, q, r, s)
                cases += 1
    _done("5", f"{cases} coefficients")


def test_criterion_06_weight_census_bounds():
    """Census identities and integer bounds for p <= 200, 2 <= q <= 12."""
    _begin("6")
    for p in range(1, 201):
        for q in range(2, 13):
            rep = weight_census(p, q)  # raises on any bound violation
            assert rep.per_k.get(q, 0) == 1
            assert rep.per_k.get(1, 0) == p // q + 1
            assert abs(2 * rep.n_total - p) <= 2 * q
    _done("6", "2189 censuses")


def test_criterion_07_asymptotic_ratio():
    """Closed-form ratio sequence, pairing, monotonicity, tail, convergence."""
    _begin("7")
    listed = [Fraction(1), Fraction(1), Fraction(5, 6), Fraction(5, 6),
              Fraction(4, 5), Fraction(4, 5), Fraction(11, 14), Fraction(11, 14),
              Fraction(7, 9)]
    assert [T_closed(q) for q in range(1, 10)] == listed
    for r in range(1, 5001):
        assert T_closed(2 * r - 1) == T_closed(2 * r)
    for q in range(1, 10 ** 4):
        assert T_closed(q) >= T_closed(q + 1)
    assert abs(T_closed(10 ** 6) - Fraction(3, 4)) < Fraction(1, 10 ** 5)
    # empirical convergence is a policy tolerance: warn, never fail
    warnings = []
    for q in (3, 4, 5):
        for p in (100, 200, 400):
            npos, nneg = signature_cyclic(p, q)
            drift = abs(Fraction(npos, npos + nneg) - T_closed(q))
            if drift > Fraction(5, p):
                warnings.append((p, q, drift))
    for w in warnings:
        print(f"[criterion 7] warning: convergence drift {w}")
    _done("7", f"{len(warnings)} warnings")


def test_criterion_08_decomposition_identities():
    """Substitution decompositions equal the engine expansion term-for-term."""
    _begin("8")
    for p in range(1, 11):
        assert phi_delta_decomposed(p) == phi(dihedral(p)), p
    for p in range(1, 7):
        assert phi_lambda_decomposed(p) == phi(binary_dihedral(p)), p
    _done("8")


def test_criterion_09_sign_structure():
    """d_k alternation p<=12, E_k positivity p<=20, |P(x+iy)|^2 positivity p<=8."""
    _begin("9")
    for p in range(1, 13):
        assert d_sign_check(p), p
    for p in range(3, 21):
        assert all(e > 0 for e in e_coeffs(p)), p
    for p in range(1, 9):
        assert p_poly_roots_check(p), p
    _done("9")


def test_criterion_10_orbit_class_identity():
    """Alternating class sum equals the polarized invariant; restriction is f_{p,q}."""
    _begin("10")
    for p in range(1, 9):
        for q in range(1, p + 1):
            G = cyclic_gamma(p, q)
            assert verify_chern_identity(G), (p, q)
            assert chern_sum_as_fpq(G) == fpq(p, q), (p, q)
    _done("10", "36 groups")


def test_criterion_11_conjugation_invariance():
    """Signature pairs are invariant under unitary conjugation (5 conjugators each)."""
    _begin("11")
    import random

    rng = random.Random(41)
    pool = (list(binary_polyhedral("O").elements[1:13])
            + list(closed_dihedral(10, -1).elements[1:9])
            + list(closed_dihedral(6, 1).elements[1:7]))
    groups = [cyclic_gamma(5, 2), cyclic_gamma(8, 3), dihedral(3), dihedral(5),
              binary_dihedral(2), binary_dihedral(3), binary_polyhedral("T")]
    assert all(g.order <= 24 for g in groups)
    cases = 0
    for g in groups:
        base = signature_pair(g)
        for u in rng.sample(pool, 5):
            assert signature_pair(conjugate(g, u)) == base, (g.label,)
            cases += 1
    _done("11", f"{cases} conjugations")


def test_criterion_12_oracle_agreement(tetrahedral_matrix, octahedral_matrix):
    """inertia_numeric == inertia_exact for the built-in groups of order <= 48.

    Full dihedral (p <= 24) and binary dihedral (p <= 12) families, the
    diagonal cyclic groups up to p = 16 (all q), and the order-24/48 groups.
    The order-120 group `I` is checked the same way in criterion 2.
    """
    _begin("12")
    matrices = []
    for p in range(1, 17):
        for q in range(1, p + 1):
            matrices.append(coefficient_matrix(phi(cyclic_gamma(p, q))))
    for p in range(1, 25):
        matrices.append(coefficient_matrix(phi(dihedral(p))))
    for p in range(1, 13):
        matrices.append(coefficient_matrix(phi(binary_dihedral(p))))
    matrices.append(tetrahedral_matrix)
    matrices.append(octahedral_matrix)
    for M in matrices:
        assert inertia_numeric(M, 256, 1e-30) == inertia_exact(M)
    _done("12", f"{len(matrices)} matrices")
