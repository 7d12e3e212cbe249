"""Expansion of the invariant polynomial: worked examples and invariance."""

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sigpair
from sigpair import invariant
from sigpair.cyclotomic import (Cyclotomic, cyclotomic_polynomial, euler_phi, rational,
                                root_of_unity)
from sigpair.fpq import fpq
from sigpair.group import (FiniteMatrixGroup, Matrix2, antidiag, binary_dihedral,
                           binary_polyhedral, closure, conjugate, cyclic_gamma,
                           diag, dihedral, identity, springer_generators,
                           trivial_group)
from sigpair.invariant import (GroupTooLarge, HermitianPolynomial,
                               InvariantCheckFailed, pack_key, phi,
                               polarized_at_ones, unpack_key)
from sigpair.signature import coefficient_matrix, signature_pair
from helpers import elementwise, icosahedral_conjugator, phi_row, reference_fold

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


@pytest.mark.parametrize("build", [
    lambda: binary_polyhedral("T"), lambda: binary_polyhedral("O"),
    lambda: conjugate(binary_polyhedral("T"), icosahedral_conjugator(2)),
    lambda: dihedral(5), lambda: binary_dihedral(3), lambda: cyclic_gamma(8, 3),
], ids=["T", "O", "T^u2", "Delta_5", "Lambda_3", "Gamma_8_3"])
def test_every_component_lies_in_one_degree(build):
    # the blocks of the signature routes each lie in one total degree k
    M = coefficient_matrix(phi(build()))
    for comp in M.components():
        assert len({sum(M.basis[i]) for i in comp}) == 1, comp


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


def diagonal_restriction(P):
    """For diagonal polynomials: coefficients of x^a y^b with x=|z1|^2, y=|z2|^2."""
    assert P.is_diagonal()
    return {unpack_key(key)[:2]: c.as_fraction() for key, c in P.terms.items()}


def test_diagonal_restriction_matches_fpq():
    for p, q in ((2, 4), (5, 4), (6, 4), (8, 4), (7, 3), (9, 2)):
        restrict = diagonal_restriction(phi(cyclic_gamma(p, q)))
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


def _polarized_row(M):
    return [(pack_key(1, 0, 0, 0), M.a + M.c), (pack_key(0, 1, 0, 0), M.b + M.d)]


def _conjugated_by_icosahedral(k):
    """(G^u, m) for the certify groups G conjugated by u = r^k (r^4 t s)^2 in
    I, m the lcm order of the entries of G's generators and u."""
    u = icosahedral_conjugator(k)
    out = []
    for G, m in ((cyclic_gamma(8, 3), 40), (dihedral(6), 30), (binary_dihedral(3), 30),
                 (binary_polyhedral("T"), 40)):
        out.append((conjugate(G, u), m))
        out[-1][0].label = f"{G.label}^u{k}"
    return out


def _tetrahedral_with_an_order_6_element_diagonal():
    """T conjugated by A = [[a, -conj(b)], [b, conj(a)]], (a, b) the
    eigenvector of an element g of order 6 (trace 1) for zeta_6, so that g
    is diagonal: A* A = c I with c = |a|^2 + |b|^2, and x -> A* x A / c."""
    T = binary_polyhedral("T")
    g = next(x for x in T if x.a + x.d == 1)
    a, b = g.b, root_of_unity(6, 1) - g.a
    A = Matrix2(a, -b.conj(), b, a.conj())
    scale = (a * a.conj() + b * b.conj()).inverse()
    return FiniteMatrixGroup([Matrix2(*(e * scale for e in (A.dagger() * x * A).entries))
                              for x in T], "T^eig6")


def _oracle_cases():
    """(G, m): the groups the coset engine is checked on, each with the lcm
    order m of its generators' entries, the order G was stored at before
    groups moved to their least field."""
    yield binary_polyhedral("T"), 8
    yield binary_polyhedral("O"), 8
    yield from ((dihedral(p), p) for p in range(1, 25))
    yield from ((binary_dihedral(p), 2 * p) for p in range(1, 13))
    yield from ((cyclic_gamma(p, q), p)
                for p, q in ((1, 1), (5, 2), (9, 4), (12, 7), (16, 15), (40, 39)))
    for k in (0, 2):
        yield from _conjugated_by_icosahedral(k)
    # the diagonal subgroup has order 6: the one chain step of index 3 is not scalar
    yield _tetrahedral_with_an_order_6_element_diagonal(), 12
    # the diagonal subgroup is the Klein four group {diag(+-1, +-1)}, not cyclic
    yield closure([diag(-1, 1), antidiag(1, 1)], label="klein"), 1
    # the diagonal subgroup is {I}: every coset factor is linear
    yield closure([antidiag(1, 1)], label="swap"), 1
    # generators of orders 3, 15 and 1: coset representatives compare by value
    yield closure([diag(root_of_unity(3, 1), 1), diag(root_of_unity(15, 1), root_of_unity(15, 14)),
                   antidiag(1, 1)], label="mixed"), 15
    # diagonal, not cyclic, at the odd field order 3 with -1 entries (exponents mod 6)
    yield closure([diag(-1, 1), diag(1, -1), diag(root_of_unity(3, 1), 1)], label="mu6xmu2"), 3


def _oracle_groups():
    return (G for G, _ in _oracle_cases())


@pytest.mark.parametrize("G, m", [
    pytest.param(G, m, id=G.label) for G, m in [
        *_oracle_cases(),
        # T^u for the other conjugators of the certify workload
        *(_conjugated_by_icosahedral(k)[-1] for k in (1, 3, 4))]])
def test_coset_fold_matches_elementwise_fold(G, m):
    assert phi(G) == elementwise(G, phi_row, m)
    assert polarized_at_ones(G) == elementwise(G, _polarized_row, m)


def _mu3_octahedral():
    r, s, t = springer_generators("O")
    z3 = root_of_unity(3, 1)
    return closure([r * t, t, diag(z3, z3)], label="mu3O")


def _fold_order(G):
    """(H, exponents, reps, coset, orbits) of G's coset fold."""
    n = G.field_order()
    H, reps, coset = invariant._cosets(G)
    exponents = invariant._diagonal_exponents(H, n)
    N = math.lcm(2, n)
    chain = invariant._chain(exponents, N)
    return H, exponents, reps, coset, invariant._coset_plan(H, exponents, chain, N, reps, coset)[0]


def _enumeration_order(H, exponents, chain, N, reps, coset):
    """`_coset_plan` for the enumeration order, every step unrestricted."""
    return [[j] for j in range(len(reps))], None


def _unrestricted(plan):
    """`plan` with every step unrestricted, to compare orders on equal terms."""
    return lambda *args: (plan(*args)[0], None)


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
    for i, size in invariant._chain(exponents, N):
        a, b = exponents[i]
        grown = {((x + k * a) % N, (y + k * b) % N) for x, y in K for k in range(len(H))}
        rest = len(H) // len(K)
        assert len(grown) // len(K) == min(p for p in range(2, rest + 1) if rest % p == 0)
        assert len(grown) == size
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
    P = phi(G)
    monkeypatch.setattr(invariant, "_coset_plan", _unrestricted(invariant._coset_plan))
    assert phi(G, stats=stats).key() == P.key()
    monkeypatch.setattr(invariant, "_coset_plan", _enumeration_order)
    assert phi(G, stats=plain).key() == P.key()
    assert plain["term_pairs"] >= stats["term_pairs"]
    assert plain["cosets"] == stats["cosets"]


@pytest.mark.parametrize("label, counters", [
    ("T", {"cosets": 5, "orbits": 3, "peak_terms": 471, "term_pairs": 7369}),
    ("O", {"cosets": 5, "orbits": 2, "peak_terms": 1585, "term_pairs": 33427}),
])
def test_fold_counters_of_the_binary_polyhedral_groups(label, counters):
    # enumeration order: T 772 peak terms and 12,851 term pairs, O 2,745 and 78,638;
    # with every pair multiplied, the orbit order makes T 11,621 and O 75,649
    stats = {}
    phi(binary_polyhedral(label), stats=stats)
    assert stats == counters


def _fold_call(G, monkeypatch):
    """(factors, n, prefix, lattices) as `_product` hands them to
    `_fold_product`, or None for a G with no coset to fold."""
    calls = []
    fold = invariant._fold_product

    def recorded(factors, n, progress=None, prod=None, lattices=None):
        calls.append((factors, n, _copy(prod), lattices))
        return fold(factors, n, progress, prod, lattices)

    monkeypatch.setattr(invariant, "_fold_product", recorded)
    invariant._product(G, G.field_order())
    return calls[0] if calls else None


@pytest.mark.parametrize("G", list(_oracle_groups()), ids=lambda G: G.label)
def test_restricted_steps_drop_only_sums_that_vanish(G, monkeypatch):
    # a step that completes an orbit, run on every pair by the list-convolution
    # oracle, leaves no sum off its weight lattice, and the restricted step
    # gives the same product; only T and O have such steps here (the other
    # groups have at most one coset or an H of scalars)
    call = _fold_call(G, monkeypatch)
    restricted = 0
    if call is not None:
        factors, n, prefix, lattices = call
        for factor, basis in zip(factors, lattices or [None] * len(factors)):
            step = invariant._fold_product([factor], n, prod=_copy(prefix), lattices=[basis])
            if basis is not None:
                d1, c, d2 = basis
                full = reference_fold([factor], n, _copy(prefix))
                for a1, a2, b1, b2 in map(unpack_key, full):
                    i, j = a1 - b1, a2 - b2
                    assert i % d1 == 0 and (j - c * (i // d1)) % d2 == 0, (G.label, i, j)
                assert step == full, G.label
                restricted += 1
            prefix = step
    assert restricted == {"T": 2, "O": 2, "T^eig6": 1}.get(G.label, 0)


def test_an_index_3_chain_step_restricts_the_fold(monkeypatch):
    # the 3 cosets of T^eig6 form one orbit under the index-3 step, which
    # the third fold step completes: H's lattice, j = i mod 6
    G = _tetrahedral_with_an_order_6_element_diagonal()
    assert G.field_order() == 12
    assert sum(1 for x in G if x.b.is_zero()) == 6
    stats = {}
    phi(G, stats=stats)
    assert stats == {"cosets": 3, "orbits": 1, "peak_terms": 418, "term_pairs": 8076}
    assert _fold_call(G, monkeypatch)[-1] == [None, None, (1, 1, 6)]
    assert tuple(signature_pair(G)) == (9, 5)


def test_restricted_steps_count_fewer_term_pairs(monkeypatch):
    # the term pairs of O's steps, restricted and with every pair multiplied
    factors, n, prefix, lattices = _fold_call(binary_polyhedral("O"), monkeypatch)
    counts = {}
    for key in ("restricted", "full"):
        steps = []
        invariant._fold_product(factors, n, lambda *step: steps.append(step[-1]), _copy(prefix),
                                lattices if key == "restricted" else None)
        counts[key] = steps
    assert sum(counts["restricted"]) == 33427 and sum(counts["full"]) == 75649
    assert [r < f for r, f in zip(counts["restricted"], counts["full"])] == [
        basis is not None for basis in lattices]


def test_mu3_octahedral_same_phi_in_orbit_and_enumeration_order(monkeypatch):
    # H has order 24 and a chain of four steps, two of them scalar
    G = _mu3_octahedral()
    stats, orbit, plain = {}, {}, {}
    P = phi(G, stats=stats)
    assert stats["peak_terms"] <= 13591
    monkeypatch.setattr(invariant, "_coset_plan", _unrestricted(invariant._coset_plan))
    assert phi(G, stats=orbit).key() == P.key()
    monkeypatch.setattr(invariant, "_coset_plan", _enumeration_order)
    assert phi(G, stats=plain).key() == P.key()
    assert plain["term_pairs"] >= orbit["term_pairs"]


# 5, 7 and 9 are the orders whose products reach past x^n (2 phi(n) - 1 > n)
KERNEL_ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 24, 30, 40)
_COEFFICIENT = st.one_of(st.integers(-3, 3), st.integers(-2 ** 256, 2 ** 256))


@st.composite
def _fold_inputs(draw):
    """(factors, n, prefix) with small keys, so that products meet on one key.

    A drawn term may come with its negation at the same key, and a factor may
    be zero, so sums cancel exactly; a random prefix of reduced vectors, each
    at most phi(n) slots long, may replace the default 1.
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
        vectors = st.lists(_COEFFICIENT, min_size=1, max_size=phi)
        prefix = draw(st.dictionaries(st.integers(0, 6), vectors, min_size=1, max_size=4))
    return factors, n, prefix


def _copy(prefix):
    return None if prefix is None else {key: list(vec) for key, vec in prefix.items()}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_fold_inputs())
def test_packed_fold_matches_reference_fold(case):
    factors, n, prefix = case
    got = invariant._fold_product(factors, n, prod=_copy(prefix))
    assert got == reference_fold(factors, n, _copy(prefix))


def test_mod_phi_cancellation_drops_the_term():
    # x * x + 1 vanishes in Q(i) but not in Z[x]/(x^4 - 1)
    prefix = {0: [0, 1], 1: [1]}
    factors = [(1, [(1, [(1, 1)])])]
    expect = {0: [0, 1], 2: [0, 1]}
    assert invariant._fold_product(factors, 4, prod=_copy(prefix)) == expect
    assert reference_fold(factors, 4, _copy(prefix)) == expect


def _at(n, e, v):
    """v x^e as a reduced coefficient vector of phi(n) slots."""
    vec = [0] * euler_phi(n)
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
    assert got == reference_fold(factors, n, _copy(prefix))
    top = max(abs(v) for vec in prefix.values() for v in vec)
    l1 = abs(factor[0]) + sum(abs(c) for _, coefs in factor[1] for _, c in coefs)
    assert max(abs(v) for vec in got.values() for v in vec) == top * l1


def test_narrow_slots_raise(monkeypatch):
    # one slot holding top * l1 = 2^110 - 1 (n = 1) needs 112 bits, a whole
    # byte, so the least width is the bound itself; a byte short overflows
    slot_width = invariant._slot_width
    factors = [(2 ** 40 + 1, [])]
    assert slot_width(1, (2 ** 70 - 1) * (2 ** 40 + 1)) == 112
    monkeypatch.setattr(invariant, "_slot_width", lambda *args: slot_width(*args) - 8)
    with pytest.raises(InvariantCheckFailed, match="overflows"):
        invariant._fold_product(factors, 1, prod={0: [2 ** 70 - 1]})
    # slots half as many bytes wide as T's coefficients need break the fold
    # or a check behind it
    monkeypatch.setattr(invariant, "_slot_width", lambda *args: slot_width(*args) // 16 * 8)
    with pytest.raises(InvariantCheckFailed):
        phi(binary_polyhedral("T"))


def _pack(vec, w):
    return sum(v << w * i for i, v in enumerate(vec))


@st.composite
def _slot_vectors(draw, w, k=None):
    """Vectors of signed w-bit slots in (-2^(w-1), 2^(w-1)), drawn mostly at
    the edges: the ends of that range and, given k, -2^k - 1 .. 2^k."""
    cap = (1 << w - 1) - 1
    edges = [-cap, cap, 0]
    if k is not None:
        edges += [-(1 << k) - 1, -(1 << k), (1 << k) - 1, 1 << k]
    value = st.one_of(st.sampled_from(edges), st.integers(-cap, cap))
    slots = draw(st.integers(1, 8))
    return draw(st.lists(st.lists(value, min_size=slots, max_size=slots), min_size=1, max_size=4))


@st.composite
def _range_cases(draw):
    w = draw(st.integers(2, 80))
    k = draw(st.one_of(st.just(w - 2), st.integers(0, w - 2)))
    return w, k, draw(_slot_vectors(w, k))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_range_cases())
# at k = 3 of 8-bit slots: 2^k is one above the range and -2^k - 1 one below
# it, and a negative top slot borrows past the last slot
@example((8, 3, [[7, -8, 0]]))
@example((8, 3, [[8, 0, 0]]))
@example((8, 3, [[0, -9, 0]]))
@example((8, 3, [[0, 0, -9]]))
@example((8, 3, [[0, 0, -8]]))
# k = w - 2, the widest range the test takes: [-64, 64) of (-128, 128)
@example((8, 6, [[-64, 63, -64]]))
@example((8, 6, [[0, 64, 0]]))
@example((8, 6, [[0, 0, -65]]))
@example((8, 6, [[127, 0, 0], [0, 0, -127]]))
def test_range_test_passes_exactly_when_every_slot_is_inside(case):
    w, k, vecs = case
    inside = all(-(1 << k) <= v < 1 << k for vec in vecs for v in vec)
    assert invariant._slots_below([_pack(vec, w) for vec in vecs], w, len(vecs[0]), k) == inside


@st.composite
def _widen_cases(draw):
    w = 8 * draw(st.integers(1, 8))
    w2 = w + 8 * draw(st.integers(1, 4))
    return w, w2, draw(_slot_vectors(w))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_widen_cases())
def test_widen_repacks_as_packing_at_the_wider_width(case):
    w, w2, vecs = case
    prod = {key: _pack(vec, w) for key, vec in enumerate(vecs)}
    invariant._widen(prod, len(vecs[0]), w, w2)
    assert prod == {key: _pack(vec, w2) for key, vec in enumerate(vecs)}


def test_fold_of_no_factors_returns_the_prefix():
    prefix = {0: [3], 5: [1, -2 ** 90]}
    assert invariant._fold_product([], 8, prod=prefix) is prefix
    assert prefix == {0: [3], 5: [1, -2 ** 90]}


@pytest.mark.parametrize("G", [binary_polyhedral("T"), binary_polyhedral("O"),
                               _conjugated_by_icosahedral(4)[-1][0]], ids=lambda G: G.label)
def test_fold_widths_are_whole_bytes_within_a_byte_of_the_least(G, monkeypatch):
    # each width against the least whole-byte width proven from the reference
    # prefix's exact top: the range test's top is under twice that, one bit
    # more, so the width is at most a byte wider
    factors, n, prefix, lattices = _fold_call(G, monkeypatch)
    widths = []
    got = invariant._fold_product(factors, n, lambda *step: widths.append(step[3]),
                                  _copy(prefix), lattices)
    assert len(widths) == len(factors)
    C = max(map(abs, cyclotomic_polynomial(n)))
    for (d, terms), w in zip(factors, widths):
        top = max(abs(v) for vec in prefix.values() for v in vec)
        span = euler_phi(n) + max(e for _, coefs in terms for e, _ in coefs)
        l1 = abs(d) + sum(abs(c) for _, coefs in terms for _, c in coefs)
        bits = (2 * top * l1 * invariant._reduction_norm(n, span) + C).bit_length()
        least = -(-bits // 8) * 8
        assert w % 8 == 0 and least <= w <= least + 8, (G.label, w, least)
        prefix = reference_fold([(d, terms)], n, prefix)
    assert got == prefix


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
        exponents = invariant._diagonal_exponents(G.elements, n)
        gens = [exponents[i] for i, _ in invariant._chain(exponents, math.lcm(2, n))]
        prod = invariant._diagonal_product(gens, G.order, n)
        got = HermitianPolynomial({pack_key(r, s, r, s): rational(c) for (r, s), c in prod.items()})
        # Gamma(p, q) has order p, the lcm order of its entries
        oracle = elementwise(G, phi_row, G.order)
        assert got == HermitianPolynomial({0: rational(1)}) - oracle, G.label


def _reference_log_weights(exponents, N, order):
    """The weight lattice by filtering every (i, j) with 0 < i + j <= order
    against every character: the route `_log_weights` replaced."""
    chars = [(a, b) for a, b in exponents if a or b]
    return {(i, d - i): -order * math.comb(d, i)
            for d in range(1, order + 1) for i in range(d, -1, -1)
            if all((a * i + b * (d - i)) % N == 0 for a, b in chars)}


def _lattice_cases():
    """(label, n, exponents) of the diagonal subgroups the lattice is checked on."""
    for p in range(1, 41):
        for q in range(p):
            G = cyclic_gamma(p, q)
            n = G.field_order()
            yield G.label, n, invariant._diagonal_exponents(G.elements, n)
    for G in [*_oracle_groups(), binary_polyhedral("I"), _mu3_octahedral()]:
        n = G.field_order()
        H, _, _ = invariant._cosets(G)
        yield G.label, n, invariant._diagonal_exponents(H, n)


def test_weight_lattice_from_its_basis_matches_the_filter():
    cases = 0
    for label, n, exponents in _lattice_cases():
        N = math.lcm(2, n)
        gens = [exponents[i] for i, _ in invariant._chain(exponents, N)]
        got = invariant._log_weights(gens, N, len(exponents))
        want = _reference_log_weights(set(exponents), N, len(exponents))
        assert list(got.items()) == list(want.items()), label
        cases += 1
    assert cases == 820 + 57 + 2


def _generated(gens, N):
    """The subgroup of (Z/N)^2 generated by `gens`, by plain closure."""
    K = {(0, 0)}
    while True:
        grown = K | {((x + a) % N, (y + b) % N) for x, y in K for a, b in gens}
        if grown == K:
            return K
        K = grown


@st.composite
def _exponent_lists(draw):
    """(N, list): a subgroup of (Z/N)^2 in a random order, sometimes with one
    element dropped, repeated or added."""
    N = draw(st.integers(1, 12))
    pair = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))
    exponents = draw(st.permutations(sorted(_generated(draw(st.lists(pair, max_size=3)), N))))
    edit = draw(st.sampled_from(["none", "drop", "repeat", "add"]))
    if edit == "drop":
        exponents.pop(draw(st.integers(0, len(exponents) - 1)))
    elif edit == "repeat":
        exponents.append(draw(st.sampled_from(exponents)))
    elif edit == "add":
        exponents.insert(draw(st.integers(0, len(exponents))), draw(pair))
    return N, exponents


@settings(max_examples=300, deadline=None)
@given(_exponent_lists())
def test_group_check_accepts_exactly_the_groups(case):
    N, exponents = case
    S = set(exponents)
    is_group = (len(S) == len(exponents) and (0, 0) in S
                and all(((a + c) % N, (b + d) % N) in S for a, b in S for c, d in S))
    if not is_group:
        with pytest.raises(InvariantCheckFailed, match="not a group"):
            invariant._chain(exponents, N)
        return
    chain = invariant._chain(exponents, N)
    gens = [exponents[i] for i, _ in chain]
    assert _generated(gens, N) == S
    # each step is the first listed element that grows K_(t-1) by the least
    # index, the least prime dividing |H| / |K_(t-1)|, and carries |K_t|
    K = {(0, 0)}
    for t, (i, size) in enumerate(chain):
        rest = len(S) // len(K)
        least = min(p for p in range(2, rest + 1) if rest % p == 0)
        steps = [j for j, e in enumerate(exponents)
                 if len(_generated([*gens[:t], e], N)) == least * len(K)]
        assert i == steps[0]
        K = _generated(gens[:t + 1], N)
        assert size == len(K)
    assert K == S


def test_product_vectors_have_at_most_phi_slots():
    # the identity coset's integer factor enters as one-slot vectors, which a
    # diagonal group keeps; a coset fold leaves phi(n) slots
    for G in (cyclic_gamma(9, 4), cyclic_gamma(40, 39), dihedral(5), binary_polyhedral("T")):
        n = G.field_order()
        prod, _ = invariant._product(G, n)
        slots = 1 if G.order == len(invariant._cosets(G)[0]) else euler_phi(n)
        assert {len(vec) for vec in prod.values()} == {slots}, G.label


def test_phi_scales_to_order_1000_cyclic_groups():
    # fpq is the independent cyclic route: Phi restricted to |z1|^2, |z2|^2
    for q in (1, 999):
        restrict = diagonal_restriction(phi(cyclic_gamma(1000, q)))
        assert restrict == {m: Fraction(c) for m, c in fpq(1000, q).items()}, q


def _unit(re, im):
    """re + i im in Q(zeta_4)."""
    return Cyclotomic(4, {0: re, 1: im})


@pytest.mark.parametrize("elements, what", [
    # {0, 1} mod 4 is not closed: the power sums of the recurrence would be wrong
    ([identity(), diag(root_of_unity(4, 1), 1)], "not a group"),
    ([identity(), identity()], "not a group"),
    # {1, 2, 3} mod 4 is closed up to the missing identity
    ([diag(root_of_unity(4, k), 1) for k in (1, 2, 3)], "not a group"),
    ([identity(), diag(_unit(Fraction(3, 5), Fraction(4, 5)), _unit(Fraction(3, 5), Fraction(-4, 5)))],
     "not a root of unity"),
], ids=["not-closed", "repeated", "no-identity", "not-root-of-unity"])
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


def test_coset_check_rejects_a_non_group():
    # T with one non-diagonal coset cH replaced by gH, g in O but not in T:
    # 24 elements in 6 cosets of H, but H maps some coset outside them
    T = binary_polyhedral("T")
    H, reps, _ = invariant._cosets(T)
    in_T = {M.key() for M in T.elements}
    g = next(M for M in binary_polyhedral("O").elements if M.key() not in in_T)
    dropped = {(reps[0] * h).key() for h in H}
    bogus = FiniteMatrixGroup([M for M in T.elements if M.key() not in dropped]
                              + [g * h for h in H], "not a group")
    for expand in (phi, polarized_at_ones):
        with pytest.raises(InvariantCheckFailed, match="not a group: a diagonal element maps"):
            expand(bogus)


def _double_constant(prod, order):
    prod[0] = [2 * v for v in prod[0]]


def _double_off_diagonal(prod, order):
    key = pack_key(3, 3, 6, 0)  # coefficient -1 in Phi of dihedral(3)
    prod[key] = [2 * v for v in prod[key]]


def _past_degree_bound(prod, order):
    prod[pack_key(order + 1, 0, order + 1, 0)] = list(prod[0])


def _off_bidegree(prod, order):
    # z1^2 zbar1 and its mirror z1 zbar1^2: a Hermitian pair within the degree bound
    prod[pack_key(2, 0, 1, 0)] = list(prod[0])
    prod[pack_key(1, 0, 2, 0)] = list(prod[0])


@pytest.mark.parametrize("expand, corrupt, what", [
    (phi, _double_constant, "constant term"),
    (polarized_at_ones, _double_constant, "constant term"),
    (phi, _double_off_diagonal, "Hermitian symmetry"),
    (phi, _past_degree_bound, "degree bound"),
    (phi, _off_bidegree, "bidegree"),
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
        repeated = group.FiniteMatrixGroup([group.identity(), group.identity()], "repeated")
        for G in (group.dihedral(3), not_closed, repeated):
            try:
                invariant.phi(G)
            except invariant.InvariantCheckFailed as exc:
                print("raised:", exc)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(sigpair.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["raised: constant term must vanish",
                                        "raised: the 2 diagonal elements are not a group",
                                        "raised: the 2 diagonal elements are not a group"]
