"""Expansion of the invariant polynomial: worked examples and invariance."""

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigpair
from sigpair import invariant
from sigpair.cyclotomic import (Cyclotomic, _pdivmod, cyclotomic_polynomial, euler_phi,
                                rational, root_of_unity)
from sigpair.fpq import fpq
from sigpair.group import (FiniteMatrixGroup, antidiag, binary_dihedral,
                           binary_polyhedral, closure, conjugate, cyclic_gamma,
                           diag, dihedral, identity, springer_generators,
                           trivial_group)
from sigpair.invariant import (GroupTooLarge, HermitianPolynomial,
                               InvariantCheckFailed, pack_key, phi,
                               polarized_at_ones, unpack_key)

# the full hand-checkable expansion of the order-8 binary dihedral invariant
LAMBDA2_TERMS = {
    (4, 0, 4, 0): 1, (0, 4, 4, 0): 1, (4, 4, 8, 0): -1,
    (5, 1, 5, 1): 4, (1, 5, 5, 1): -4, (2, 2, 2, 2): 12,
    (6, 2, 6, 2): 2, (2, 6, 6, 2): 2, (4, 0, 0, 4): 1,
    (0, 4, 0, 4): 1, (8, 0, 4, 4): -1, (4, 4, 4, 4): -4,
    (0, 8, 4, 4): -1, (5, 1, 1, 5): -4, (1, 5, 1, 5): 4,
    (6, 2, 2, 6): 2, (2, 6, 2, 6): 2, (4, 4, 0, 8): -1,
}


def test_trivial_group():
    P = phi(trivial_group())
    assert P.term_count() == 2
    assert P.coeff(1, 0, 1, 0) == 1
    assert P.coeff(0, 1, 0, 1) == 1
    assert P.is_diagonal()


def test_binary_dihedral_2_full_expansion():
    P = phi(binary_dihedral(2))
    got = {unpack_key(k): v for k, v in P.terms.items()}
    assert len(got) == len(LAMBDA2_TERMS) == 18
    for quad, c in LAMBDA2_TERMS.items():
        assert got[quad] == c, quad


def test_dihedral_3_known_terms():
    P = phi(dihedral(3))
    assert P.coeff(1, 1, 1, 1) == 6
    assert P.coeff(2, 2, 2, 2) == -9
    assert P.coeff(3, 0, 3, 0) == 1
    assert P.coeff(3, 3, 6, 0) == -1
    assert P.coeff(4, 1, 4, 1) == -3
    assert not P.is_diagonal()
    assert P.term_count() == 14


def test_diagonal_detection():
    assert phi(cyclic_gamma(7, 3)).is_diagonal()
    assert not phi(dihedral(3)).is_diagonal()


def test_term_counts():
    assert phi(cyclic_gamma(8, 4)).term_count() == 7
    assert len(phi(cyclic_gamma(8, 4)).support()) == 7


def test_hermitian_symmetry_all_builtins():
    for g in (cyclic_gamma(5, 2), dihedral(4), binary_dihedral(3),
              binary_polyhedral("T")):
        assert phi(g).check_hermitian()


@pytest.mark.parametrize("terms", [
    {pack_key(1, 0, 0, 1): rational(2)},                   # the larger key of its pair, alone
    {pack_key(0, 1, 1, 0): rational(2)},                   # the smaller key, alone
    {pack_key(1, 1, 1, 1): root_of_unity(8, 1)},           # a non-real diagonal entry
    {pack_key(1, 0, 0, 1): root_of_unity(8, 1),
     pack_key(0, 1, 1, 0): root_of_unity(8, 1)},           # a mirror that is not the conjugate
], ids=["larger-key-alone", "smaller-key-alone", "diagonal-not-real", "mirror-not-conjugate"])
def test_non_hermitian_terms_are_rejected(terms):
    from sigpair.signature import NotHermitian, coefficient_matrix

    assert pack_key(1, 0, 0, 1) > pack_key(0, 1, 1, 0)
    P = HermitianPolynomial(dict(terms))
    assert not P.check_hermitian()
    with pytest.raises(NotHermitian):
        coefficient_matrix(P)


def test_degree_bound():
    g = binary_dihedral(3)
    P = phi(g)
    for key in P.terms:
        assert all(e <= g.order for e in unpack_key(key))


def test_group_invariance_by_substitution():
    for g in (cyclic_gamma(4, 3), dihedral(3), binary_dihedral(2),
              cyclic_gamma(6, 2), binary_dihedral(3)):
        P = phi(g)
        for m in g.elements:
            assert P.compose(m) == P, (g.label, m)


def test_substitution_by_nongroup_element_changes_phi():
    from sigpair.group import springer_generators

    _, _, t = springer_generators("T")
    P = phi(cyclic_gamma(3, 2))
    assert P.compose(t) != P


def test_diagonal_restriction_matches_fpq():
    for p, q in ((2, 4), (5, 4), (6, 4), (8, 4), (7, 3), (9, 2)):
        restrict = phi(cyclic_gamma(p, q)).diagonal_restriction()
        expect = {m: Fraction(c) for m, c in fpq(p, q).items()}
        assert restrict == expect, (p, q)


def test_polarized_at_ones():
    pol = polarized_at_ones(trivial_group())
    assert pol == HermitianPolynomial.holomorphic({(1, 0): 1, (0, 1): 1})
    # cyclic p, q=1 gives the full binomial power (x+y)^p
    import math

    for p in (2, 3):
        pol = polarized_at_ones(cyclic_gamma(p, 1))
        expect = HermitianPolynomial.holomorphic({(r, p - r): math.comb(p, r)
                                                  for r in range(p + 1)})
        assert pol == expect


def test_csv_dump_sorted():
    rows = list(phi(cyclic_gamma(2, 4)).csv_rows())
    assert len(rows) == 3
    quads = [tuple(int(x) for x in r.split(",")[:4]) for r in rows]
    assert quads == sorted(quads)
    assert '"order": 1' in rows[0]


def test_polynomial_algebra_helpers():
    one_term = HermitianPolynomial({pack_key(1, 0, 1, 0): rational(1)})
    other = HermitianPolynomial({pack_key(0, 1, 0, 1): rational(2)})
    s = one_term + other
    assert s.term_count() == 2
    assert (s - other) == one_term
    prod = one_term * other
    assert prod.coeff(1, 1, 1, 1) == 2


def test_packed_key_holds_exponents_past_255():
    assert unpack_key(pack_key(300, 299, 1, 300)) == (300, 299, 1, 300)
    holo = HermitianPolynomial.holomorphic
    prod = holo({(200, 0): 1}) * holo({(100, 0): 1})
    assert [unpack_key(k) for k in prod.terms] == [(300, 0, 0, 0)]
    assert prod == holo({(300, 0): 1})


def test_order_limit_is_a_typed_error():
    # checked before any arithmetic, so the identity repeated is enough
    big = FiniteMatrixGroup([identity()] * 65536, "big")
    for expand in (phi, polarized_at_ones):
        with pytest.raises(GroupTooLarge, match="65535"):
            expand(big)


def test_polarized_is_phi_at_zbar_ones():
    for g in (binary_polyhedral("T"), dihedral(4), binary_dihedral(3),
              cyclic_gamma(7, 3)):
        at_ones = HermitianPolynomial()
        for key, c in phi(g).terms.items():
            a1, a2, _, _ = unpack_key(key)
            at_ones = at_ones + HermitianPolynomial.holomorphic({(a1, a2): c})
        assert at_ones == polarized_at_ones(g), g.label


def _phi_row(M):
    return [(pack_key(1, 0, 1, 0), M.a), (pack_key(0, 1, 1, 0), M.b),
            (pack_key(1, 0, 0, 1), M.c), (pack_key(0, 1, 0, 1), M.d)]


def _polarized_row(M):
    return [(pack_key(1, 0, 0, 0), M.a + M.c), (pack_key(0, 1, 0, 0), M.b + M.d)]


def _reference_fold(factors, n, prod=None):
    """`invariant._fold_product` by list convolution: the oracle for its
    packed kernel.

    Coefficients are integer vectors multiplied in Z[x]/(x^n - 1) and reduced
    modulo Phi_n by long division after every factor, so a vector is dropped
    exactly when its coefficient vanishes in Q(zeta_n).
    """
    if prod is None:
        prod = {0: [1] + [0] * (n - 1)}
    for d, terms in factors:
        out = {}
        for key, vec in prod.items():
            nonzero = [(i, v) for i, v in enumerate(vec) if v]
            acc = out.get(key)
            if acc is None:
                out[key] = [d * v for v in vec]
            else:
                for i, v in nonzero:
                    acc[i] += d * v
            for delta, coefs in terms:
                k2 = key + delta
                acc = out.get(k2)
                if acc is None:
                    acc = [0] * n
                    out[k2] = acc
                for e, c in coefs:
                    for i, v in nonzero:
                        j = i + e
                        acc[j if j < n else j - n] += c * v
        prod = {}
        for key, vec in out.items():
            _, rem = _pdivmod(vec, cyclotomic_polynomial(n))
            if any(rem):
                prod[key] = rem
    return prod


def _elementwise(G, row):
    """1 - prod_{g in G}(1 - row(g)) with one linear factor per element.

    The oracle for the coset engine: no subgroup, no cosets, and the list
    convolution `_reference_fold` in place of the packed kernel.  Diagonal
    elements go first, which keeps the intermediates of the monomial groups
    small; the product does not depend on the order.
    """
    n = G.field_order()
    factors = []
    for M in sorted(G.elements, key=lambda M: not (M.b.is_zero() and M.c.is_zero())):
        placed = [(key, c.promote(n).coords.items()) for key, c in row(M) if not c.is_zero()]
        d = math.lcm(1, *(v.denominator for _, items in placed for _, v in items))
        factors.append((d, [(key, [(e, -(v * d).numerator) for e, v in items])
                            for key, items in placed]))
    scale = math.prod(d for d, _ in factors)
    out = {key: Cyclotomic(n, {e: Fraction(-v, scale) for e, v in enumerate(vec) if v})
           for key, vec in _reference_fold(factors, n).items()}
    out[0] = out.get(0, rational(0)) + 1
    return HermitianPolynomial({key: c for key, c in out.items() if not c.is_zero()})


def _conjugated_by_icosahedral(k):
    r, s, t = springer_generators("I")
    u = r ** k * (r ** 4 * t * s) ** 2
    out = []
    for G in (cyclic_gamma(8, 3), dihedral(6), binary_dihedral(3), binary_polyhedral("T")):
        out.append(conjugate(G, u))
        out[-1].label = f"{G.label}^u{k}"
    return out


def _oracle_groups():
    yield binary_polyhedral("T")
    yield binary_polyhedral("O")
    yield from (dihedral(p) for p in range(1, 25))
    yield from (binary_dihedral(p) for p in range(1, 13))
    yield from (cyclic_gamma(p, q) for p, q in ((1, 1), (5, 2), (9, 4), (12, 7), (16, 15), (40, 39)))
    for k in (0, 2):
        yield from _conjugated_by_icosahedral(k)
    # the diagonal subgroup is the Klein four group {diag(+-1, +-1)}, not cyclic
    yield closure([diag(-1, 1), antidiag(1, 1)], label="klein")
    # the diagonal subgroup is {I}: every coset factor is linear
    yield closure([antidiag(1, 1)], label="swap")
    # generators of orders 3, 15 and 1: coset representatives compare by value
    yield closure([diag(root_of_unity(3, 1), 1), diag(root_of_unity(15, 1), root_of_unity(15, 14)),
                   antidiag(1, 1)], label="mixed")
    # diagonal, not cyclic, at the odd field order 3 with -1 entries (exponents mod 6)
    yield closure([diag(-1, 1), diag(1, -1), diag(root_of_unity(3, 1), 1)], label="mu6xmu2")


@pytest.mark.parametrize("G", list(_oracle_groups()), ids=lambda G: G.label)
def test_coset_fold_matches_elementwise_fold(G):
    assert phi(G) == _elementwise(G, _phi_row)
    assert polarized_at_ones(G) == _elementwise(G, _polarized_row)


def _mu3_octahedral():
    r, s, t = springer_generators("O")
    z3 = root_of_unity(3, 1)
    return closure([r * t, t, diag(z3, z3)], label="mu3O")


def _fold_order(G):
    """(H, exponents, reps, coset, orbits) of G's coset fold."""
    n = G.field_order()
    H, reps, coset = invariant._cosets(G)
    exponents = invariant._diagonal_exponents(H, n)
    return H, exponents, reps, coset, invariant._coset_orbits(H, exponents, n, reps, coset)


def _enumeration_order(H, exponents, n, reps, coset):
    return [[j] for j in range(len(reps))]


def _orbit(K, j, reps, coset):
    """The cosets k g_j H, k in K, of the coset g_j H."""
    return {coset[(k * reps[j]).key()] for k in K}


@pytest.mark.parametrize("G", list(_oracle_groups()) + [_mu3_octahedral()], ids=lambda G: G.label)
def test_coset_order_keeps_every_chain_orbit_contiguous(G):
    H, exponents, reps, coset, orbits = _fold_order(G)
    order = [j for orbit in orbits for j in orbit]
    assert sorted(order) == list(range(len(reps)))
    # the H-orbits, largest first
    assert [set(orbit) for orbit in orbits] == [_orbit(H, orbit[0], reps, coset) for orbit in orbits]
    sizes = [len(orbit) for orbit in orbits]
    assert sizes == sorted(sizes, reverse=True)
    # K_t is generated by the first t chain elements; each index [K_t : K_(t-1)]
    # is the least prime dividing |H| / |K_(t-1)|
    N = math.lcm(2, G.field_order())
    K = {(0, 0)}
    for i in invariant._chain(exponents, N):
        a, b = exponents[i]
        grown = {((x + k * a) % N, (y + k * b) % N) for x, y in K for k in range(len(H))}
        rest = len(H) // len(K)
        assert len(grown) // len(K) == min(p for p in range(2, rest + 1) if rest % p == 0)
        K = grown
        members = [h for h, e in zip(H, exponents) if e in K]
        for j in range(len(reps)):
            at = sorted(order.index(k) for k in _orbit(members, j, reps, coset))
            assert at == list(range(at[0], at[0] + len(at))), (G.label, len(K), j)
    assert len(K) == len(H)


def test_central_diagonal_subgroups_keep_the_enumeration_order():
    # the conjugates by a non-monomial element have H = {+-1}, swap has H = {I}
    groups = [G for G in _oracle_groups() if G.label == "swap" or G.label.endswith(("^u0", "^u2"))]
    assert len(groups) == 9
    for G in groups:
        *_, reps, _, orbits = _fold_order(G)
        assert orbits == [[j] for j in range(len(reps))], G.label


@pytest.mark.parametrize("G", list(_oracle_groups()), ids=lambda G: G.label)
def test_enumeration_order_folds_the_same_phi_with_no_fewer_term_pairs(G, monkeypatch):
    stats, plain = {}, {}
    P = phi(G, stats=stats)
    monkeypatch.setattr(invariant, "_coset_orbits", _enumeration_order)
    assert phi(G, stats=plain).key() == P.key()
    assert plain["term_pairs"] >= stats["term_pairs"]
    assert plain["cosets"] == stats["cosets"]


@pytest.mark.parametrize("label, counters", [
    ("T", {"cosets": 5, "orbits": 3, "peak_terms": 471, "term_pairs": 11621}),
    ("O", {"cosets": 5, "orbits": 2, "peak_terms": 1585, "term_pairs": 75649}),
])
def test_fold_counters_of_the_binary_polyhedral_groups(label, counters):
    # enumeration order: T 772 peak terms and 19,027 term pairs, O 2,745 and 146,600
    stats = {}
    phi(binary_polyhedral(label), stats=stats)
    assert stats == counters


@pytest.mark.slow
def test_mu3_octahedral_same_phi_in_orbit_and_enumeration_order(monkeypatch):
    # H has order 24 and a chain of four steps, two of them scalar
    G = _mu3_octahedral()
    stats, plain = {}, {}
    P = phi(G, stats=stats)
    assert stats["peak_terms"] <= 13591
    monkeypatch.setattr(invariant, "_coset_orbits", _enumeration_order)
    assert phi(G, stats=plain).key() == P.key()
    assert plain["term_pairs"] >= stats["term_pairs"]


# 5, 7 and 9 are the orders whose products reach past x^n (2 phi(n) - 1 > n)
KERNEL_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 24, 30, 40)
_COEFFICIENT = st.one_of(st.integers(-3, 3), st.integers(-2 ** 256, 2 ** 256))


@st.composite
def _fold_inputs(draw):
    """(factors, n, prefix) with small keys, so that products meet on one key.

    A drawn term may come with its negation at the same key, and a factor may
    be zero, so sums cancel exactly; a random prefix may replace the default 1.
    """
    n = draw(st.sampled_from(KERNEL_ORDERS))
    phi = euler_phi(n)
    coefs = st.lists(st.tuples(st.integers(0, phi - 1), _COEFFICIENT), min_size=1, max_size=3)
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.lists(st.tuples(st.integers(0, 6), coefs), max_size=4))
        if terms and draw(st.booleans()):
            delta, cs = terms[0]
            terms.append((delta, [(e, -c) for e, c in cs]))
        factors.append((draw(st.one_of(st.just(0), _COEFFICIENT)), terms))
    prefix = None
    if draw(st.booleans()):
        vectors = st.lists(_COEFFICIENT, min_size=n, max_size=n)
        prefix = draw(st.dictionaries(st.integers(0, 6), vectors, min_size=1, max_size=4))
    return factors, n, prefix


def _copy(prefix):
    return None if prefix is None else {key: list(vec) for key, vec in prefix.items()}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_fold_inputs())
def test_packed_fold_matches_reference_fold(case):
    factors, n, prefix = case
    got = invariant._fold_product(factors, n, prod=_copy(prefix))
    assert got == _reference_fold(factors, n, _copy(prefix))


def test_mod_phi_cancellation_drops_the_term():
    # x * x + 1 vanishes in Q(i) but not in Z[x]/(x^4 - 1)
    prefix = {0: [0, 1, 0, 0], 1: [1, 0, 0, 0]}
    factors = [(1, [(1, [(1, 1)])])]
    expect = {0: [0, 1, 0, 0], 2: [0, 1, 0, 0]}
    assert invariant._fold_product(factors, 4, prod=_copy(prefix)) == expect
    assert _reference_fold(factors, 4, _copy(prefix)) == expect


def _at(n, e, v):
    """v x^e as a coefficient vector of length n."""
    vec = [0] * n
    vec[e] = v
    return vec


@pytest.mark.parametrize("n, prefix, factor", [
    # the reduced coordinate is top * l1 itself, the bound A at n = 1 and 2
    (1, {0: [2 ** 70 - 1]}, (2 ** 40 + 1, [])),
    (2, {0: _at(2, 0, -(2 ** 70 - 1))}, (0, [(1, [(0, 2 ** 40 + 1)])])),
    # both terms meet on key 2 with one sign: the top slot, 2 (phi(n) - 1), of
    # the product is top * l1; at n = 5 it wraps onto x
    (5, {0: _at(5, 3, 2 ** 64 + 3), 1: _at(5, 3, 2 ** 64 + 3)},
     (0, [(2, [(3, 5)]), (1, [(3, 7), (3, 11)])])),
    (40, {0: _at(40, 15, -(2 ** 50)), 1: _at(40, 15, -(2 ** 50))},
     (0, [(2, [(15, -9)]), (1, [(15, -4), (15, -6)])])),
])
def test_slot_at_the_bound_unpacks_exactly(n, prefix, factor):
    factors = [factor]
    got = invariant._fold_product(factors, n, prod=_copy(prefix))
    assert got == _reference_fold(factors, n, _copy(prefix))
    top = max(abs(v) for vec in prefix.values() for v in vec)
    l1 = abs(factor[0]) + sum(abs(c) for _, coefs in factor[1] for _, c in coefs)
    assert max(abs(v) for vec in got.values() for v in vec) == top * l1


def test_narrow_slots_raise(monkeypatch):
    # one slot holding top * l1 = 2^110 - 1 (n = 1) overflows a slot one bit short
    slot_width = invariant._slot_width
    factors = [(2 ** 40 + 1, [])]
    monkeypatch.setattr(invariant, "_slot_width", lambda *args: slot_width(*args) - 1)
    with pytest.raises(InvariantCheckFailed, match="overflows"):
        invariant._fold_product(factors, 1, prod={0: [2 ** 70 - 1]})
    # slots too narrow for T's coefficients break the fold or a check behind it
    monkeypatch.setattr(invariant, "_slot_width", lambda *args: slot_width(*args) // 2)
    with pytest.raises(InvariantCheckFailed):
        phi(binary_polyhedral("T"))


@pytest.mark.parametrize("n", KERNEL_ORDERS)
def test_reduction_norm_matches_root_coordinates(n):
    # the coordinates of zeta_n^k in the power basis, read from canonical elements
    phi_n = euler_phi(n)
    span = 2 * phi_n - 1
    norm = [0] * phi_n
    for k in range(span):
        for i, v in root_of_unity(n, k).promote(n).items:
            norm[i] += abs(v)
    assert invariant._reduction_norm(n, span) == max(norm)


def _diagonal_groups():
    yield from (cyclic_gamma(p, q) for p in range(1, 17) for q in range(1, p + 1))
    yield cyclic_gamma(40, 39)


def test_diagonal_product_matches_elementwise_fold():
    for G in _diagonal_groups():
        n = G.field_order()
        prod = invariant._diagonal_product(invariant._diagonal_exponents(G.elements, n), n)
        got = HermitianPolynomial({pack_key(r, s, r, s): rational(c) for (r, s), c in prod.items()})
        assert got == HermitianPolynomial({0: rational(1)}) - _elementwise(G, _phi_row), G.label


def _unit(re, im):
    """re + i im in Q(zeta_4)."""
    return Cyclotomic(4, {0: re, 1: im})


@pytest.mark.parametrize("elements, what", [
    # {0, 1} mod 4 is not closed: the power sums of the recurrence would be wrong
    ([identity(), diag(root_of_unity(4, 1), 1)], "not a group"),
    ([identity(), diag(_unit(Fraction(3, 5), Fraction(4, 5)), _unit(Fraction(3, 5), Fraction(-4, 5)))],
     "not a root of unity"),
], ids=["not-closed", "not-root-of-unity"])
def test_diagonal_stage_rejects_a_non_group(elements, what):
    bogus = FiniteMatrixGroup(elements, "not a group")
    for expand in (phi, polarized_at_ones):
        with pytest.raises(InvariantCheckFailed, match=what):
            expand(bogus)


def test_inexact_euler_division_fails_its_check(monkeypatch):
    log_weights = invariant._log_weights

    def perturbed(*args):
        # one more at the lowest lattice point of degree 2 or more leaves a remainder there
        weights = log_weights(*args)
        ij = next(ij for ij in weights if sum(ij) > 1)
        weights[ij] += 1
        return weights

    monkeypatch.setattr(invariant, "_log_weights", perturbed)
    for G in (cyclic_gamma(40, 39), dihedral(3), binary_polyhedral("T")):
        with pytest.raises(InvariantCheckFailed, match="Euler recurrence"):
            phi(G)


def test_lagrange_check_rejects_a_non_group():
    # the diagonal elements {I, diag(1, -1)} give 2 cosets of 2 for 3 elements
    bogus = FiniteMatrixGroup([identity(), antidiag(1, 1), diag(1, -1)], "not a group")
    for expand in (phi, polarized_at_ones):
        with pytest.raises(InvariantCheckFailed, match="Lagrange"):
            expand(bogus)


def _double_constant(prod, order):
    prod[0] = [2 * v for v in prod[0]]


def _double_off_diagonal(prod, order):
    key = pack_key(3, 3, 6, 0)  # coefficient -1 in Phi of dihedral(3)
    prod[key] = [2 * v for v in prod[key]]


def _past_degree_bound(prod, order):
    prod[pack_key(order + 1, 0, order + 1, 0)] = list(prod[0])


@pytest.mark.parametrize("expand, corrupt, what", [
    (phi, _double_constant, "constant term"),
    (polarized_at_ones, _double_constant, "constant term"),
    (phi, _double_off_diagonal, "Hermitian symmetry"),
    (phi, _past_degree_bound, "degree bound"),
])
def test_corrupted_fold_fails_its_check(monkeypatch, expand, corrupt, what):
    # corrupt the full product, the one phi converts to field coefficients
    g = dihedral(3)
    product = invariant._product

    def corrupted(*args, **kwargs):
        prod, scale = product(*args, **kwargs)
        corrupt(prod, g.order)
        return prod, scale

    monkeypatch.setattr(invariant, "_product", corrupted)
    with pytest.raises(InvariantCheckFailed, match=what):
        expand(g)


def test_checks_hold_under_python_O():
    script = textwrap.dedent("""
        from sigpair import cyclotomic, group, invariant
        product = invariant._product

        def corrupted(*args, **kwargs):
            prod, scale = product(*args, **kwargs)
            prod[0] = [2 * v for v in prod[0]]
            return prod, scale

        invariant._product = corrupted
        not_closed = group.FiniteMatrixGroup(
            [group.identity(), group.diag(cyclotomic.root_of_unity(4, 1), 1)], "not closed")
        for G in (group.dihedral(3), not_closed):
            try:
                invariant.phi(G)
            except invariant.InvariantCheckFailed as exc:
                print("raised:", exc)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(sigpair.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["raised: constant term must vanish",
                                        "raised: the 2 diagonal elements are not a group"]
