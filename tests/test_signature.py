"""Coefficient matrices, exact inertia, and the numeric oracle."""

import functools
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigpair import intervals, signature
from sigpair.cyclotomic import Cyclotomic, rational, root_of_unity
from sigpair.group import (binary_dihedral, binary_polyhedral, closure, conjugate,
                           cyclic_gamma, diag, dihedral, springer_generators,
                           trivial_group)
from sigpair.invariant import phi
from sigpair.signature import (EmptySpectrum, HermitianMatrix, Inertia,
                               InsufficientPrecision, NotHermitian,
                               SignatureCheckFailed, SignaturePair,
                               coefficient_matrix, gauss_rank, inertia_exact,
                               inertia_numeric, positivity_ratio,
                               positivity_ratio_from, signature_pair)

from helpers import approx_complex, closed_dihedral, permuted


def _hm(diag_vals=(), offdiag=()):
    n = len(diag_vals)
    entries = {}
    for i, v in enumerate(diag_vals):
        if v:
            entries[(i, i)] = rational(v)
    for i, j, v in offdiag:
        c = v if isinstance(v, Cyclotomic) else rational(v)
        entries[(i, j)] = c
        entries[(j, i)] = c.conj()
        n = max(n, i + 1, j + 1)
    basis = [(k, 0) for k in range(n)]
    return HermitianMatrix(basis, entries)


def test_coefficient_matrix_trivial():
    M = coefficient_matrix(phi(trivial_group()))
    assert M.dimension == 2
    assert M.basis == [(0, 1), (1, 0)]
    assert M.entry(0, 0) == 1 and M.entry(1, 1) == 1
    assert M.entry(0, 1).is_zero()


def test_coefficient_matrix_cyclic_2_4():
    M = coefficient_matrix(phi(cyclic_gamma(2, 4)))
    assert M.dimension == 3
    vals = sorted(int(M.entry(i, i).as_fraction()) for i in range(3))
    assert vals == [-1, 1, 2]
    assert all(M.entry(i, j).is_zero() for i in range(3) for j in range(3) if i != j)


def test_coefficient_matrix_dihedral_3():
    P = phi(dihedral(3))
    M = coefficient_matrix(P)
    assert M.dimension == 9
    idx = {m: i for i, m in enumerate(M.basis)}
    assert M.entry(idx[(1, 1)], idx[(1, 1)]) == 6
    assert M.entry(idx[(2, 2)], idx[(2, 2)]) == -9
    assert M.entry(idx[(3, 3)], idx[(6, 0)]) == -1
    assert M.entry(idx[(3, 0)], idx[(3, 0)]) == 1


def test_inertia_antidiagonal_block():
    assert inertia_exact(_hm(offdiag=[(0, 1, -1)])) == Inertia(1, 1, 0)


def test_inertia_diagonal():
    assert inertia_exact(_hm((1, 2, -1))) == Inertia(2, 1, 0)


def test_inertia_rank1_psd():
    ones = {(i, j): rational(1) for i in range(3) for j in range(3)}
    M = HermitianMatrix([(i, 0) for i in range(3)], ones)
    assert inertia_exact(M) == Inertia(1, 0, 2)
    assert gauss_rank(M) == 1


def test_inertia_complex_offdiagonal():
    # [[0, i], [-i, 0]] has eigenvalues +-1
    i = root_of_unity(4, 1)
    M = _hm(diag_vals=(0, 0), offdiag=[(0, 1, i)])
    assert inertia_exact(M) == Inertia(1, 1, 0)
    assert inertia_numeric(M) == Inertia(1, 1, 0)


def test_inertia_requires_hermitian():
    with pytest.raises(NotHermitian):
        HermitianMatrix([(0, 0), (1, 0)], {(0, 1): rational(1)})


def test_inertia_basis_permutation_invariant():
    rng = random.Random(5)
    P = phi(binary_dihedral(2))
    M = coefficient_matrix(P)
    base = inertia_exact(M)
    for _ in range(5):
        perm = list(range(M.dimension))
        rng.shuffle(perm)
        assert inertia_exact(permuted(M, perm)) == base


def test_signature_pairs_small_groups():
    assert signature_pair(binary_dihedral(2)) == SignaturePair(5, 1)
    assert signature_pair(dihedral(3)) == SignaturePair(3, 3)
    assert signature_pair(cyclic_gamma(5, 4)) == SignaturePair(3, 1)
    assert signature_pair(trivial_group()) == SignaturePair(2, 0)


def test_signature_tetrahedral():
    assert signature_pair(binary_polyhedral("T")) == SignaturePair(9, 5)


def test_positivity_ratios():
    assert positivity_ratio(dihedral(3)) == Fraction(1, 2)
    assert positivity_ratio(binary_polyhedral("T")) == Fraction(9, 14)
    assert positivity_ratio(trivial_group()) == 1
    with pytest.raises(EmptySpectrum):
        positivity_ratio_from(Inertia(0, 0, 3))


def test_diagonal_phi_inertia_is_sign_census():
    for p, q in ((6, 4), (9, 2), (8, 3)):
        M = coefficient_matrix(phi(cyclic_gamma(p, q)))
        res = inertia_exact(M)
        signs = [M.entry(i, i).sign() for i in range(M.dimension)]
        assert res.n_plus == signs.count(1)
        assert res.n_minus == signs.count(-1)
        assert res.n_zero == signs.count(0) == 0


def test_sylvester_invariance_under_conjugation():
    rng = random.Random(17)
    pool = (list(binary_polyhedral("O").elements[:12])
            + list(closed_dihedral(10, -1).elements[:8]))
    for g in (cyclic_gamma(5, 2), dihedral(3), binary_dihedral(2),
              binary_polyhedral("T")):
        base = signature_pair(g)
        for u in rng.sample(pool, 5):
            assert signature_pair(conjugate(g, u)) == base, (g.label,)


def test_rank_agreement_between_routes():
    for g in (cyclic_gamma(7, 2), dihedral(5), binary_dihedral(3),
              binary_polyhedral("T")):
        M = coefficient_matrix(phi(g))
        res = inertia_exact(M)
        assert res.rank == gauss_rank(M), g.label


def test_numeric_oracle_agreement_small():
    for g in (cyclic_gamma(6, 3), dihedral(4), binary_dihedral(2),
              binary_polyhedral("T")):
        M = coefficient_matrix(phi(g))
        assert inertia_numeric(M, 256, 1e-30) == inertia_exact(M), g.label


def test_numeric_oracle_random_rational_matrices():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randrange(2, 6)
        entries = {}
        for i in range(n):
            v = rng.randint(-4, 4)
            if v:
                entries[(i, i)] = rational(v)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    v = rational(rng.randint(-3, 3))
                    if not v.is_zero():
                        entries[(i, j)] = v
                        entries[(j, i)] = v
        M = HermitianMatrix([(i, 0) for i in range(n)], entries)
        assert inertia_exact(M) == inertia_numeric(M, 128, 1e-20)


def _full_matrix_inertia(M, bits=256, zero_threshold=1e-30):
    """Reference route for inertia_numeric: one eighe of the whole matrix,
    every entry and every root of unity evaluated on its own."""
    dim = M.dimension
    with mpmath.workprec(bits):
        A = mpmath.zeros(dim, dim)
        for (i, j), c in M.entries.items():
            A[i, j] = sum((mpmath.mpf(v.numerator) / v.denominator
                           * mpmath.expjpi(mpmath.mpf(2 * k) / c.order)
                           for k, v in c.coords.items()), mpmath.mpc(0))
        eigs = mpmath.mp.eighe(A, eigvals_only=True) if dim else []
        thresh = mpmath.mpf(zero_threshold)
        pos = sum(1 for e in eigs if e > thresh)
        neg = sum(1 for e in eigs if e < -thresh)
    return Inertia(pos, neg, dim - pos - neg)


def _dense(rows):
    return HermitianMatrix([(i, 0) for i in range(len(rows))],
                           {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row)})


def _random_element(rng, order):
    exps = rng.sample(range(order), rng.randint(1, 3))
    return Cyclotomic(order, {k: rng.randint(-3, 3) for k in exps})


def _random_hermitian(rng, order, n):
    rows = [[rational(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rational(rng.randint(-4, 4))
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                rows[i][j] = _random_element(rng, order)
                rows[j][i] = rows[i][j].conj()
    return rows


def _random_low_rank(rng, order, n):
    """sum of 1-3 signed outer products v v*: mostly zero eigenvalues."""
    rows = [[rational(0)] * n for _ in range(n)]
    for _ in range(rng.randint(1, 3)):
        v = [_random_element(rng, order) if rng.random() < 0.7 else rational(0)
             for _ in range(n)]
        sign = rng.choice((1, -1))
        for i in range(n):
            for j in range(n):
                rows[i][j] = rows[i][j] + sign * v[i] * v[j].conj()
    return rows


def _with_zero_rows(rng, rows):
    for i in rng.sample(range(len(rows)), rng.randint(1, max(1, len(rows) // 3))):
        for j in range(len(rows)):
            rows[i][j] = rows[j][i] = rational(0)
    return rows


def _with_a_few_ulps(rng, order, rows, bits):
    """rows with entry (0, 1) a few units of 2^-bits: the leading entry of
    the first reflector's column, whose phase must still have modulus one."""
    rows[0][1] = _random_element(rng, order) * Fraction(1, 2 ** bits)
    rows[1][0] = rows[0][1].conj()
    return rows


@pytest.mark.parametrize("bits, threshold", [(256, 1e-30), (128, 1e-20)])
@pytest.mark.parametrize("order", [5, 8, 40])
def test_numeric_oracle_matches_full_matrix_on_random_matrices(order, bits, threshold):
    rng = random.Random(order * 1000 + bits)
    kinds = (_random_hermitian, _random_low_rank,
             lambda rng, order, n: _with_zero_rows(rng, _random_hermitian(rng, order, n)))
    for kind in kinds:
        for _ in range(8):
            M = _dense(kind(rng, order, rng.randint(2, 12)))
            expected = _full_matrix_inertia(M, bits, threshold)
            assert inertia_numeric(M, bits, threshold) == expected
            assert expected == inertia_exact(M)
    # a few-ulp entry can add an eigenvalue far below the threshold, which
    # only the exact route sees
    for _ in range(12):
        rows = _random_hermitian(rng, order, rng.randint(2, 12))
        M = _dense(_with_a_few_ulps(rng, order, rows, bits))
        assert inertia_numeric(M, bits, threshold) == _full_matrix_inertia(M, bits, threshold)


def test_numeric_oracle_few_ulp_leading_entry():
    # e = (1 - i) 2^-256 is one unit of 2^-256 in each part and leads the
    # first reflector's column; the reflector's phase e/|e| must take |e| to
    # 2 x 256 bits: with |e| rounded to 256 bits the phase has modulus 1.13
    # and the oracle gave (2, 1, 0)
    i = root_of_unity(4, 1)
    M = _hm(diag_vals=(-2, 0, 2), offdiag=[(0, 1, (1 - i) * Fraction(1, 2 ** 256)), (0, 2, 3)])
    assert inertia_numeric(M, 256, 1e-30) == _full_matrix_inertia(M) == Inertia(1, 1, 1)


def _rational_reflection(v):
    vv = sum(x * x for x in v)
    return [[Fraction(int(i == j)) - Fraction(2 * v[i] * v[j], vv) for j in range(len(v))]
            for i in range(len(v))]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


@pytest.mark.parametrize("bits, threshold", [(256, 1e-30), (128, 1e-20)])
def test_numeric_oracle_near_the_threshold(bits, threshold):
    # eigenvalues at +-3 and +-1/2 times the threshold, hidden by a rational
    # orthogonal conjugation: the first pair counts as signed, the second as zero
    rng = random.Random(bits)
    thr = Fraction(threshold)
    for _ in range(6):
        eigs = [3 * thr, -3 * thr, thr / 2, -thr / 2, Fraction(0)]
        eigs += [Fraction(rng.choice((-2, -1, 1, 3))) for _ in range(rng.randint(0, 4))]
        rng.shuffle(eigs)
        n = len(eigs)
        Q = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(2):
            Q = _matmul(Q, _rational_reflection([rng.randint(-3, 3) or 1 for _ in range(n)]))
        A = _matmul(_matmul(Q, [[eigs[i] if i == j else 0 for j in range(n)] for i in range(n)]),
                    [list(col) for col in zip(*Q)])
        M = _dense([[rational(a) for a in row] for row in A])
        expected = Inertia(sum(e > thr for e in eigs), sum(e < -thr for e in eigs),
                           sum(abs(e) <= thr for e in eigs))
        assert _full_matrix_inertia(M, bits, threshold) == expected
        assert inertia_numeric(M, bits, threshold) == expected


def test_numeric_oracle_computes_no_eigenvalue(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the numeric oracle called an eigenvalue routine")

    for name in ("eig", "eigh", "eighe", "eigsy"):
        monkeypatch.setattr(mpmath.mp, name, refuse)
        monkeypatch.setattr(mpmath, name, refuse)
    M = coefficient_matrix(phi(binary_polyhedral("T")))
    assert inertia_numeric(M, 256, 1e-30) == Inertia(9, 5, 45)


def test_oracle_roots_lie_within_2_units_of_mpmath(monkeypatch):
    # the scales the oracle works at on T's matrix, for the field orders of
    # T, O and I (4, 8 and 5) and of the certify conjugates (20, 30 and 40)
    root_fixed = signature._root_fixed
    scales = set()

    def spy(n, k, scale):
        scales.add(scale)
        return root_fixed(n, k, scale)

    monkeypatch.setattr(signature, "_root_fixed", spy)
    M = coefficient_matrix(phi(binary_polyhedral("T")))
    for bits in (128, 256, 1024):
        assert inertia_numeric(M, bits, 1e-30) == Inertia(9, 5, 45)
    assert len(scales) == 3
    for n in sorted({binary_polyhedral(name).field_order() for name in "TOI"} | {20, 30, 40}):
        for scale in scales:
            with mpmath.workprec(scale + 32):
                for k in range(n):
                    z = mpmath.expjpi(mpmath.mpf(2 * k) / n)
                    c, s = root_fixed(n, k, scale)
                    assert abs(c - mpmath.ldexp(z.real, scale)) < 2, (n, k, scale)
                    assert abs(s - mpmath.ldexp(z.imag, scale)) < 2, (n, k, scale)


def _conjugated_matrix(G):
    """Phi_G's matrix for G conjugated by r (r^4 t s)^2, a non-monomial element of I."""
    r, s, t = springer_generators("I")
    w = r ** 4 * t * s
    return coefficient_matrix(phi(conjugate(G, r * w * w)))


@pytest.mark.parametrize("build", [lambda: binary_polyhedral("T"), lambda: dihedral(6),
                                   lambda: binary_dihedral(3), lambda: cyclic_gamma(8, 3)],
                         ids=["T", "Delta_6", "Lambda_3", "Gamma_8_3"])
def test_blockwise_oracle_matches_full_matrix(build):
    M = _conjugated_matrix(build())
    expected = _full_matrix_inertia(M)
    assert inertia_numeric(M, 256, 1e-30) == expected
    perm = list(range(M.dimension))
    random.Random(M.dimension).shuffle(perm)
    assert inertia_numeric(permuted(M, perm), 256, 1e-30) == expected


@pytest.mark.parametrize("route", [inertia_exact, gauss_rank,
                                   lambda M: inertia_numeric(M, 256, 1e-30)],
                         ids=["exact", "rank", "numeric"])
@pytest.mark.parametrize("case", ["split", "dropped", "repeated", "out-of-range"])
def test_every_route_checks_the_partition(monkeypatch, route, case):
    # every route reads its blocks from one checked pass: a split component
    # leaves an entry joining two blocks, and a dropped, repeated or unknown
    # index leaves the components no partition of the basis
    M = coefficient_matrix(phi(binary_polyhedral("T")))
    comps = M.components()
    big = max(comps, key=len)
    rest = [c for c in comps if c is not big]
    broken = {"split": rest + [big[:1], big[1:]], "dropped": rest,
              "repeated": comps + [big[:1]], "out-of-range": comps + [[M.dimension]]}[case]
    monkeypatch.setattr(HermitianMatrix, "components", lambda self: broken)
    match = "joins two components" if case == "split" else "partition"
    with pytest.raises(SignatureCheckFailed, match=match):
        route(M)


def test_numeric_oracle_precision_floor():
    M = _hm(diag_vals=(1, -1))
    for bits, threshold in ((127, 1e-30), (0, 1e-30), (-5, 1e-30), (64, 1e-20),
                            (256, 0.0)):
        with pytest.raises(InsufficientPrecision):
            inertia_numeric(M, bits, threshold)
    assert inertia_numeric(M, 128, 1e-30) == Inertia(1, 1, 0)
    assert inertia_numeric(M, 95, 1e-20) == Inertia(1, 1, 0)


def test_numeric_oracle_at_a_huge_threshold():
    # at threshold 1e10 the floors allow precisions down to -17 bits for
    # entries of size 1; the entry size is measured before any rounding
    assert inertia_numeric(_hm(diag_vals=(1, -1)), -5, 1e10) == Inertia(0, 0, 2)
    assert inertia_numeric(_hm(diag_vals=(2 ** 40, -1)), 64, 1e10) == Inertia(1, 0, 1)
    with pytest.raises(InsufficientPrecision, match="entries up to 2\\^40.0, .* least 23 bits"):
        inertia_numeric(_hm(diag_vals=(2 ** 40, -1)), 2, 1e10)


def test_numeric_oracle_floor_grows_with_the_entries():
    # T's matrix scaled by 2^60: 128 bits gave (21, 19) and 160 bits (17, 12)
    # before the floor; with it, both are refused and 192 bits are right
    M = coefficient_matrix(phi(binary_polyhedral("T")) * 2 ** 60)
    for bits in (128, 160):
        with pytest.raises(InsufficientPrecision, match="entries up to 2\\^71"):
            inertia_numeric(M, bits, 1e-30)
    for bits in (192, 256):
        assert inertia_numeric(M, bits, 1e-30) == Inertia(9, 5, 45)


@pytest.mark.parametrize("kind, scale, size, floor",
                         [("T", 60, "71.2", 187), ("T", 100, "111.2", 227), ("O", 40, "62.0", 178)])
def test_numeric_oracle_precision_sweep(kind, scale, size, floor):
    # every precision from 128 bits up to the matrix floor is refused with the
    # entry-size message; from the floor to 256 bits the inertia is exact
    M = coefficient_matrix(phi(binary_polyhedral(kind)) * 2 ** scale)
    exact = inertia_exact(M)
    message = f"entries up to 2\\^{re.escape(size)}, so .* at least {floor} bits"
    for bits in range(128, floor):
        with pytest.raises(InsufficientPrecision, match=message):
            inertia_numeric(M, bits, 1e-30)
    for bits in range(floor, 257, 3):
        assert inertia_numeric(M, bits, 1e-30) == exact, bits


@functools.lru_cache(maxsize=None)
def _mu3_octahedral_matrix():
    r, s, t = springer_generators("O")
    z3 = root_of_unity(3, 1)
    G = closure([r * t, t, diag(z3, z3)])
    assert G.order == 144
    return coefficient_matrix(phi(G))


@pytest.mark.slow
def test_scalar_extension_mu3_octahedral_numeric_route():
    # mu_3 O, order 144, has entries near 2^68.5: its exact pair against the
    # block-wise oracle, at a precision above the floor and one below it
    M = _mu3_octahedral_matrix()
    exact = inertia_exact(M)
    assert (exact.n_plus, exact.n_minus) == (59, 25)
    assert inertia_numeric(M, 256, 1e-30) == exact
    with pytest.raises(InsufficientPrecision):
        inertia_numeric(M, 128, 1e-30)


@pytest.mark.slow
def test_numeric_oracle_near_its_floor_on_large_groups():
    # I's floor is 171 bits and mu_3 O's 185
    M = coefficient_matrix(phi(binary_polyhedral("I")))
    exact = inertia_exact(M)
    assert (exact.n_plus, exact.n_minus) == (40, 22)
    for bits in (172, 256):
        assert inertia_numeric(M, bits, 1e-30) == exact, bits
    M = _mu3_octahedral_matrix()
    assert inertia_numeric(M, 186, 1e-30) == inertia_exact(M)


def test_irrational_pivot_signs():
    # the 2x2 tail block of the order-8 binary dihedral case has eigenvalues
    # -2 +- sqrt(5); elimination certifies one positive and one negative
    M = _hm(diag_vals=(-4, 0), offdiag=[(0, 1, -1)])
    assert inertia_exact(M) == Inertia(1, 1, 0)


def test_elimination_evaluates_reals_only_through_sign(monkeypatch):
    # pivots are taken in index order, not ranked by size, so no real number
    # is enclosed outside the certified sign of each pivot
    M = _conjugated_matrix(binary_polyhedral("T"))
    depth, inside, outside = [0], [0], [0]
    sign, enclosure = Cyclotomic.sign, intervals.real_enclosure

    def counted_sign(self):
        depth[0] += 1
        try:
            return sign(self)
        finally:
            depth[0] -= 1

    def counted_enclosure(*args):
        (inside if depth[0] else outside)[0] += 1
        return enclosure(*args)

    monkeypatch.setattr(Cyclotomic, "sign", counted_sign)
    monkeypatch.setattr(intervals, "real_enclosure", counted_enclosure)
    assert inertia_exact(M) == Inertia(9, 5, 135)
    assert outside[0] == 0
    assert inside[0] > 0  # the pivots include irrational ones


def test_result_record_schema():
    from sigpair.signature import result_records

    rec, = result_records(cyclic_gamma(5, 4))
    assert rec["group"] == "Gamma(5,4)"
    assert rec["order"] == 5
    assert (rec["N_plus"], rec["N_minus"]) == (3, 1)
    assert rec["N"] == 4 and rec["rank"] == 4
    assert rec["ratio"] == "3/4"
    assert rec["method"] == "exact"
    assert isinstance(rec["elapsed_ms"], int)


def test_inertia_exact_reports_blocks_and_pivots():
    # Delta_p with p odd has one component whose diagonal is zero once it is
    # reached, so it takes one shift; no other group here takes one
    for G, shifts in ([(dihedral(p), p % 2) for p in range(2, 16)]
                      + [(binary_polyhedral("T"), 0), (binary_dihedral(3), 0)]):
        M = coefficient_matrix(phi(G))
        stats = {}
        inertia_exact(M, stats)
        comps = M.components()
        assert stats == {"blocks": len(comps), "max_block": max(map(len, comps)),
                         "shifts": shifts}, G.label
    stats = {}
    assert inertia_exact(_hm(diag_vals=(0, 0, 5), offdiag=[(0, 1, 2)]), stats) == Inertia(2, 1, 0)
    assert stats == {"blocks": 2, "max_block": 2, "shifts": 1}


@pytest.mark.parametrize("order", [5, 8])
def test_shift_after_a_pivot_with_an_irrational_entry(order):
    # pivoting on index 0 leaves the diagonal of indices 1-4 zero; the shift
    # then takes i = 1 and j = 3 with an irrational a = A_13, and adds a
    # times row 3 to row 1 on both sides of j: at 2 (a conj(A_23)) and at 4.
    # The matrix is singular, so a shift that made A_11 = a conj(a), not
    # twice that, would leave a wrong Schur complement of rank 2, not 1
    z = root_of_unity(order, 1)
    a, b, c = z + z ** 2, 1 - z ** 3, z ** 2 - 2
    rows = [[rational(0)] * 5 for _ in range(5)]
    rows[0][0] = rows[0][1] = rows[1][0] = rows[1][1] = rational(1)
    for i, j, x in ((1, 3, a), (2, 3, b), (3, 4, c)):
        rows[i][j], rows[j][i] = x, x.conj()
    M = _dense(rows)
    expected = _reference_inertia(M)
    assert expected == Inertia(2, 1, 2)
    assert inertia_exact(M) == expected
    assert gauss_rank(M) == expected.rank
    upper = [[e if i <= j else None for j, e in enumerate(row)] for i, row in enumerate(rows)]
    assert signature._eliminate_block(upper) == (expected, 1)


def _mixed_rows(rng):
    """Rows of a Hermitian matrix whose dense components (connected by a
    nonzero superdiagonal, some diagonal entries zero) sit among isolated
    indices with positive, negative, irrational or no diagonal entry, all
    at shuffled indices; with the number of components and the largest."""
    sqrt2 = root_of_unity(8, 1) + root_of_unity(8, 7)
    isolated = [rational(3), rational(-2), sqrt2, -sqrt2, sqrt2 - 2, rational(0), rational(0)]
    pieces = [[[c]] for c in rng.choices(isolated, k=rng.randint(3, 8))]
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(2, 5)
        block = _random_hermitian(rng, rng.choice((4, 5, 8)), m)
        for i in range(m):
            if rng.random() < 0.4:
                block[i][i] = rational(0)
            if i + 1 < m and block[i][i + 1].is_zero():
                block[i][i + 1] = block[i + 1][i] = rational(1)
        pieces.append(block)
    n = sum(map(len, pieces))
    at = rng.sample(range(n), n)
    rows = [[rational(0)] * n for _ in range(n)]
    for piece in pieces:
        idx, at = at[:len(piece)], at[len(piece):]
        for p, i in enumerate(idx):
            for r, j in enumerate(idx):
                rows[i][j] = piece[p][r]
    return rows, len(pieces), max(map(len, pieces))


def test_blockwise_routes_match_one_dense_block(monkeypatch):
    # the routes read each component's block, a 1x1 one from its entry with
    # one sign() if it is nonzero; the whole matrix eliminated as one dense
    # block must agree on the inertia, the counters and the sign() calls
    calls = []
    sign = Cyclotomic.sign
    monkeypatch.setattr(Cyclotomic, "sign", lambda self: calls.append(self) or sign(self))
    for seed in range(30):
        rows, blocks, largest = _mixed_rows(random.Random(seed))
        M = _dense(rows)
        calls.clear()
        whole, shifts = signature._eliminate_block([row[:] for row in rows])
        whole_signs = len(calls)
        calls.clear()
        stats = {}
        assert inertia_exact(M, stats) == whole, seed
        assert len(calls) == whole_signs, seed
        assert stats == {"blocks": blocks, "max_block": largest, "shifts": shifts}, seed
        assert gauss_rank(M) == whole.rank, seed


def test_components_are_found_once_per_matrix(monkeypatch):
    found = []
    union_find = signature._components
    monkeypatch.setattr(signature, "_components",
                        lambda *args: found.append(args) or union_find(*args))
    for G in (dihedral(6), cyclic_gamma(8, 3)):
        M = coefficient_matrix(phi(G))
        found.clear()
        inertia_exact(M)
        gauss_rank(M)
        inertia_numeric(M, 256, 1e-30)
        assert len(found) == 1


def test_hermitian_matrix_entries_are_read_only():
    M = _hm(diag_vals=(1, 2), offdiag=[(0, 1, 3)])
    with pytest.raises(TypeError):
        M.entries[(0, 0)] = rational(5)
    with pytest.raises(TypeError):
        del M.entries[(0, 1)]
    assert M.entry(0, 0) == 1 and M.entry(1, 0) == 3


@pytest.mark.parametrize("entries", [
    {(0, 1): rational(1)},                                     # (1, 0) missing
    {(1, 0): rational(1)},                                     # (0, 1) missing: the larger key alone
    {(0, 0): root_of_unity(4, 1)},                             # a non-real diagonal entry
    {(0, 1): root_of_unity(8, 1), (1, 0): root_of_unity(8, 1)},  # mirror not the conjugate
], ids=["smaller-key-alone", "larger-key-alone", "diagonal-not-real", "mirror-not-conjugate"])
def test_hermitian_matrix_rejects(entries):
    with pytest.raises(NotHermitian):
        HermitianMatrix([(0, 0), (1, 0)], entries)


# -- the eliminations before the upper-triangle storage and the fused update,
#    kept as the oracles of the current ones


def _reference_dense_block(M, idxs):
    z = rational(0)
    pos = {g: i for i, g in enumerate(idxs)}
    block = [[z] * len(idxs) for _ in idxs]
    for (i, j), c in M.entries.items():
        if i in pos and j in pos:
            block[pos[i]][pos[j]] = c
    return block


def _reference_eliminate(block):
    """Congruence elimination on the full block, one conj per update."""
    m = len(block)
    active = list(range(m))
    pos = neg = 0
    while active:
        piv = None
        best = -1.0
        for i in active:
            d = block[i][i]
            if not d.is_zero():
                est = abs(approx_complex(d))
                if est > best:
                    best, piv = est, i
        if piv is not None:
            d = block[piv][piv]
            if d.sign() > 0:
                pos += 1
            else:
                neg += 1
            active.remove(piv)
            cols = [i for i in active if not block[i][piv].is_zero()]
            if cols:
                dinv = d.inverse()
                ratio = {i: block[i][piv] * dinv for i in cols}
                for x, i in enumerate(cols):
                    ri = ratio[i]
                    row_p = block[piv]
                    for j in cols[x:]:
                        upd = ri * row_p[j]
                        val = block[i][j] - upd
                        block[i][j] = val
                        if i != j:
                            block[j][i] = val.conj()
        else:
            pair = None
            for x, i in enumerate(active):
                for j in active[x + 1:]:
                    if not block[i][j].is_zero():
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break  # remaining block is zero
            i0, j0 = pair
            pos += 1
            neg += 1
            active.remove(i0)
            active.remove(j0)
            a = block[i0][j0]
            inv_a = a.inverse()
            inv_ac = a.conj().inverse()
            ks = [k for k in active
                  if not block[k][i0].is_zero() or not block[k][j0].is_zero()]
            for x, k in enumerate(ks):
                bi = block[k][i0]
                bj = block[k][j0]
                for l in ks[x:]:
                    upd = bj * block[i0][l] * inv_a + bi * block[j0][l] * inv_ac
                    val = block[k][l] - upd
                    block[k][l] = val
                    if k != l:
                        block[l][k] = val.conj()
    return Inertia(pos, neg, m - pos - neg)


def _reference_inertia(M):
    pos = neg = zero_ct = 0
    for comp in M.components():
        res = _reference_eliminate(_reference_dense_block(M, comp))
        pos += res.n_plus
        neg += res.n_minus
        zero_ct += res.n_zero
    return Inertia(pos, neg, zero_ct)


def _reference_gauss_rank(M):
    """Gaussian elimination with the row update as three field operations."""
    rank = 0
    for comp in M.components():
        block = _reference_dense_block(M, comp)
        m = len(block)
        row = 0
        for col in range(m):
            pr = None
            for i in range(row, m):
                if not block[i][col].is_zero():
                    pr = i
                    break
            if pr is None:
                continue
            block[row], block[pr] = block[pr], block[row]
            inv = block[row][col].inverse()
            for i in range(row + 1, m):
                if not block[i][col].is_zero():
                    factor = block[i][col] * inv
                    block[i] = [block[i][j] - factor * block[row][j] for j in range(m)]
            row += 1
            rank += 1
            if row == m:
                break
    return rank


@st.composite
def _hermitian_rows(draw):
    """A dense Hermitian matrix: random entries or a sum of 1-3 terms
    s v v*, entries with denominators, and some or all diagonals set to
    zero, so that shifts with complex entries occur."""
    order = draw(st.sampled_from((1, 4, 5, 8, 30, 40)))
    n = draw(st.integers(1, 12))

    def element(p_zero):
        if draw(st.floats(0, 1)) < p_zero:
            return rational(0)
        exps = draw(st.lists(st.integers(0, order - 1), min_size=1, max_size=3, unique=True))
        return Cyclotomic(order, {k: Fraction(draw(st.integers(-3, 3)),
                                              draw(st.sampled_from((1, 1, 2, 3))))
                                  for k in exps})

    rows = [[rational(0)] * n for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = rational(Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 4)))))
            for j in range(i + 1, n):
                rows[i][j] = element(0.4)
                rows[j][i] = rows[i][j].conj()
    else:
        for _ in range(draw(st.integers(1, 3))):
            s = Fraction(draw(st.sampled_from((1, -1, 2, -3))), draw(st.sampled_from((1, 5))))
            v = [element(0.3) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    rows[i][j] = rows[i][j] + s * v[i] * v[j].conj()
    zeros = draw(st.sampled_from(("some", "all")))
    for i in range(n) if zeros == "all" else draw(st.lists(st.integers(0, n - 1), max_size=n)):
        rows[i][i] = rational(0)
    return rows


@settings(derandomize=True, deadline=None, max_examples=100)
@given(rows=_hermitian_rows())
def test_elimination_matches_reference_routes(rows):
    M = _dense(rows)
    expected = _reference_inertia(M)
    assert inertia_exact(M) == expected
    assert gauss_rank(M) == _reference_gauss_rank(M) == expected.rank
    # the elimination never touches the lower triangle
    upper = [[c if i <= j else None for j, c in enumerate(row)] for i, row in enumerate(rows)]
    assert signature._eliminate_block(upper)[0] == expected


@pytest.mark.parametrize("build", [lambda: binary_polyhedral("T"), lambda: dihedral(6),
                                   lambda: binary_dihedral(3), lambda: cyclic_gamma(8, 3)],
                         ids=["T", "Delta_6", "Lambda_3", "Gamma_8_3"])
def test_elimination_conj_count_is_linear_per_pivot(monkeypatch, build):
    # a pivot of a size-m block reads its row with at most m conj (none of
    # these matrices takes a shift), and sign() takes one more: at most
    # largest block x (rank + 1) in all, a bound the full-matrix route, with
    # its conj per update, exceeds (T: 243 against 2030, bound 375)
    M = _conjugated_matrix(build())
    calls = []
    conj = Cyclotomic.conj

    def counted(self):
        calls.append(self)
        return conj(self)

    monkeypatch.setattr(Cyclotomic, "conj", counted)
    res = inertia_exact(M)
    bound = max(map(len, M.components())) * (res.rank + 1)
    assert len(calls) <= bound
    calls.clear()
    assert _reference_inertia(M) == res
    assert len(calls) > bound
