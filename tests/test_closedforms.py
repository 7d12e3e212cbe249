"""Dihedral and binary dihedral closed forms against the exact engine."""

from fractions import Fraction
from typing import NamedTuple

import pytest

from sigpair import closedforms
from sigpair.closedforms import (ClosedFormCheckFailed, d_coeff_closed, d_poly,
                                 d_poly_closed, d_sign_check, delta_counts,
                                 delta_ratio, delta_signature_closed, e_coeffs,
                                 lambda_signature_closed,
                                 p_poly, p_poly_roots_check,
                                 phi_delta_decomposed, phi_lambda_decomposed)
from sigpair.cyclotomic import root_of_unity
from sigpair.group import binary_dihedral, dihedral
from sigpair.invariant import phi
from sigpair.signature import Inertia, SignaturePair, signature_pair


class DiagonalBlockSummary(NamedTuple):
    """One block of the nearly-diagonal invariant matrix and its inertia share."""

    label: str
    entry_values: list
    contribution: Inertia


def _diagonal(label, values):
    return DiagonalBlockSummary(
        label, values, Inertia(sum(v > 0 for v in values), sum(v < 0 for v in values), 0))


def delta_blocks(p):
    """Predicted block data of the dihedral invariant matrix, from the closed
    coefficients alone.

    Blocks: [1]; diag((-1)^j c_{p,j}) for j = 1..floor(p/2); diag((-1)^(k+1) E_k)
    for k = 1..p-1; and the 2x2 tail pairing (z1 z2)^p with z1^(2p)+z2^(2p),
    [[0, -1], [-1, 0]] for odd p and [[-E_p, -1], [-1, 0]] for even p.
    """
    if p < 3:
        raise ValueError("block derivation needs p >= 3")
    ev = closedforms.e_coeffs(p)
    a2 = [(-1) ** (k + 1) * ev[k - 1] for k in range(1, p)]
    if 0 in a2:
        raise ClosedFormCheckFailed(f"an E_k of the dihedral p = {p} vanishes")
    corner = 0 if p % 2 else -ev[p - 1]
    return [DiagonalBlockSummary("A_1", [1], Inertia(1, 0, 0)),
            _diagonal("A_p1", [(-1) ** j * closedforms.c_closed(p, j)
                               for j in range(1, p // 2 + 1)]),
            _diagonal("A_p2", a2),
            DiagonalBlockSummary("A_p3", [corner, -1], Inertia(1, 1, 0))]


def lambda_blocks(p):
    """Predicted block data of the binary dihedral invariant matrix.

    Blocks: [1]; diag(c_{2p,j}) for j = 1..p (all positive); diag(d_j) for
    j = 1..p-1 (alternating, odd positive); and [[d_p, -1], [-1, 0]] with
    negative determinant.
    """
    if p < 2:
        raise ValueError("block derivation needs p >= 2")
    e1 = [closedforms.c_closed(2 * p, j) for j in range(1, p + 1)]
    if min(e1) <= 0:
        raise ClosedFormCheckFailed(f"a c_{{{2 * p},j}} is not positive")
    e2 = [closedforms.d_coeff_closed(p, j) for j in range(1, p)]
    if 0 in e2:
        raise ClosedFormCheckFailed(f"a d_j of the binary dihedral p = {p} vanishes")
    return [DiagonalBlockSummary("E_1", [1], Inertia(1, 0, 0)),
            DiagonalBlockSummary("E_p1", e1, Inertia(p, 0, 0)),
            _diagonal("E_p2", e2),
            DiagonalBlockSummary("E_p3", [closedforms.d_coeff_closed(p, p), -1],
                                 Inertia(1, 1, 0))]


def blocks_signature(blocks):
    return SignaturePair(sum(b.contribution.n_plus for b in blocks),
                         sum(b.contribution.n_minus for b in blocks))


def test_delta_decomposition_identity():
    for p in range(1, 11):
        assert phi_delta_decomposed(p) == phi(dihedral(p)), p


def test_lambda_decomposition_identity():
    for p in range(1, 7):
        assert phi_lambda_decomposed(p) == phi(binary_dihedral(p)), p


def test_lambda_decomposition_known_coefficients():
    P = phi_lambda_decomposed(2)
    assert P.coeff(4, 4, 4, 4) == -4
    assert P.coeff(2, 2, 2, 2) == 12


def test_delta_counts():
    assert delta_counts(3) == (6, 3)
    assert delta_signature_closed(3) == SignaturePair(3, 3)
    assert delta_signature_closed(4) == SignaturePair(5, 3)
    assert delta_counts(8) == (14, 8)
    # the two count formulas agree with the signature formula
    for p in range(3, 60):
        n, npos = delta_counts(p)
        assert (npos, n - npos) == tuple(delta_signature_closed(p)), p


def test_delta_ratio_cases():
    assert delta_ratio(7) == Fraction(1, 2)
    assert delta_ratio(4) == Fraction(1, 2) + Fraction(2, 16)
    assert delta_ratio(5) == Fraction(1, 2) + Fraction(1, 18)
    assert delta_ratio(6) == Fraction(1, 2) + Fraction(1, 22)
    for p in range(3, 201):
        n, npos = delta_counts(p)
        assert delta_ratio(p) == Fraction(npos, n), p
    with pytest.raises(ValueError):
        delta_ratio(2)


def test_delta_closed_vs_engine():
    for p in range(3, 13):
        assert tuple(signature_pair(dihedral(p))) == tuple(delta_signature_closed(p)), p


def test_delta_blocks_vs_engine():
    for p in range(3, 11):
        blocks = delta_blocks(p)
        assert blocks_signature(blocks) == delta_signature_closed(p), p
        labels = [b.label for b in blocks]
        assert labels == ["A_1", "A_p1", "A_p2", "A_p3"]
        sizes = [len(b.entry_values) for b in blocks]
        assert sum(sizes) == delta_counts(p)[0]


def test_lambda_closed_vs_engine():
    for p in range(2, 9):
        assert tuple(signature_pair(binary_dihedral(p))) == tuple(lambda_signature_closed(p)), p


def test_lambda_closed_values():
    assert lambda_signature_closed(2) == SignaturePair(5, 1)
    assert lambda_signature_closed(3) == SignaturePair(6, 2)
    assert lambda_signature_closed(10) == SignaturePair(17, 5)
    np_, nm = lambda_signature_closed(10)
    assert Fraction(np_, np_ + nm) == Fraction(17, 22)


def test_lambda_asymptotic_ratio():
    # closed-form ratio approaches 3/4
    np_, nm = lambda_signature_closed(10 ** 6)
    assert abs(Fraction(np_, np_ + nm) - Fraction(3, 4)) < Fraction(1, 10 ** 5)


def test_lambda_blocks():
    for p in range(2, 9):
        blocks = lambda_blocks(p)
        assert blocks_signature(blocks) == lambda_signature_closed(p), p
    b2 = lambda_blocks(2)
    # tail block [[d_2, -1], [-1, 0]] = [[-4, -1], [-1, 0]]
    assert b2[-1].entry_values == [-4, -1]


def test_small_p_edge_policy():
    # below the asserted range the engine is still available and well defined
    assert tuple(signature_pair(dihedral(1))) == (2, 1)
    assert tuple(signature_pair(dihedral(2))) == (3, 2)
    assert tuple(signature_pair(binary_dihedral(1))) == (3, 1)
    with pytest.raises(ValueError):
        delta_blocks(2)
    with pytest.raises(ValueError):
        lambda_blocks(1)
    # the closed count formulas happen to extend to the degenerate small cases,
    # even though the block derivation does not; record rather than rely on it
    for p in (1, 2):
        engine = tuple(signature_pair(dihedral(p)))
        closed = tuple(delta_signature_closed(p))
        if engine != closed:
            print(f"note: dihedral p={p}: engine {engine} vs closed {closed}")
    assert tuple(signature_pair(binary_dihedral(1))) == tuple(lambda_signature_closed(1))


def test_d_poly_extraction():
    dp = d_poly(2)
    assert dp[2] == 12
    assert dp[4] == -4
    dp1 = d_poly(1)
    assert dp1 == d_poly_closed(1)
    assert dp1[2] == 4  # single coefficient, k = 1 odd, positive


def test_d_poly_closed_matches_extraction():
    for p in range(1, 9):
        assert d_poly(p) == d_poly_closed(p), p


def test_d_coeff_closed_matches_poly():
    for p in range(1, 9):
        dp = d_poly_closed(p)
        for j in range(1, p + 1):
            assert dp[2 * j] == d_coeff_closed(p, j), (p, j)


def test_d_sign_alternation():
    for p in range(1, 13):
        assert d_sign_check(p), p


def test_e_coeffs_positive():
    for p in range(3, 21):
        ev = e_coeffs(p)
        assert len(ev) == 2 * (p // 2)
        assert all(e > 0 for e in ev), p


def test_e_coeffs_example():
    # order-8 case: E_1 = 2 c_{4,1}? no: dihedral E_k uses c_{p,*}: for p = 4,
    # E_1 = 2 c_{4,1} = 8 and E_2 = c_{4,1}^2 + 2 c_{4,2} = 20
    ev = e_coeffs(4)
    assert ev[0] == 8 and ev[1] == 20


def test_p_poly():
    assert p_poly(1) == [2, 2]
    assert p_poly(2) == [2, 12, 2]


def test_p_poly_roots():
    for p in range(1, 9):
        assert p_poly_roots_check(p), p


@pytest.mark.parametrize("p", range(2, 9))
def test_p_poly_roots_check_rejects_a_perturbed_coefficient(monkeypatch, p):
    # |P(x+iy)|^2 keeps positive coefficients under each of these changes, so
    # only the located roots can reject them
    for i in range(p + 1):
        for delta in (1, -1):
            poly = p_poly(p)
            poly[i] += delta
            monkeypatch.setattr(closedforms, "p_poly", lambda _, poly=poly: poly)
            assert not p_poly_roots_check(p), (i, delta)


def test_sqrt5_block_sign_certificates():
    # eigenvalues of [[-4, -1], [-1, 0]] are -2 +- sqrt(5); certify the signs
    z5 = root_of_unity(5, 1)
    sqrt5 = 1 + 2 * (z5 + z5 ** 4)
    assert (sqrt5 * sqrt5) == 5
    assert (-2 + sqrt5).sign() == 1
    assert (-2 - sqrt5).sign() == -1


def test_vanishing_e_coefficient_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(closedforms, "e_coeffs", lambda p: [1, 0, 1, 1])
    with pytest.raises(ClosedFormCheckFailed):
        delta_blocks(5)


def test_non_integral_d_poly_is_a_typed_error(monkeypatch):
    even_binomial = closedforms.even_binomial
    monkeypatch.setattr(closedforms, "even_binomial",
                        lambda n, a, c: [v + 1 for v in even_binomial(n, a, c)])
    with pytest.raises(ClosedFormCheckFailed):
        d_poly_closed(3)


def test_nonpositive_c_coefficient_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(closedforms, "c_closed", lambda p, j: -1)
    with pytest.raises(ClosedFormCheckFailed):
        lambda_blocks(3)


def test_vanishing_d_coefficient_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(closedforms, "d_coeff_closed", lambda p, j: 0)
    with pytest.raises(ClosedFormCheckFailed):
        lambda_blocks(3)


def test_block_summary_shape():
    b = delta_blocks(5)[0]
    assert isinstance(b, DiagonalBlockSummary)
    assert b.contribution.n_plus == 1
