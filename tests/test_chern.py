"""Group action on polynomials, orbits, and the alternating class-sum identity."""

import random
from fractions import Fraction

import pytest

from sigpair import chern
from sigpair.chern import (Orbit, act, alternating_sum, chern_classes,
                           chern_sum_as_fpq, orbit, set_multiset_relation,
                           verify_chern_identity)
from sigpair.cyclotomic import root_of_unity
from sigpair.fpq import fpq
from sigpair.group import (FiniteMatrixGroup, Matrix2, antidiag, binary_dihedral,
                           closure, cyclic_gamma, diag, dihedral, identity,
                           trivial_group)
from sigpair.invariant import HermitianPolynomial, InvariantCheckFailed

holo = HermitianPolynomial.holomorphic
H = holo({(1, 0): 1, (0, 1): 1})  # z1 + z2


def test_act_examples():
    assert act(identity(), H) == H
    assert act(Matrix2(-1, 0, 0, -1), H) == holo({(1, 0): -1, (0, 1): -1})
    z3 = root_of_unity(3, 1)
    assert act(diag(z3, z3), H) == H * (z3 ** 2)


def test_action_axioms_randomized():
    rng = random.Random(13)
    groups = [cyclic_gamma(6, 2), dihedral(3), binary_dihedral(2)]
    monos = [holo({(1, 0): 1}), holo({(2, 1): 1}), holo({(0, 3): 1}),
             holo({(1, 1): 1, (2, 0): 1})]
    for g in groups:
        for h in monos:
            assert act(identity(), h) == h
            for _ in range(4):
                g1 = rng.choice(g.elements)
                g2 = rng.choice(g.elements)
                assert act(g1 * g2, h) == act(g1, act(g2, h))


def test_orbit_examples():
    orb = orbit(cyclic_gamma(2, 1), H)
    assert len(orb.elements) == 2
    assert len(orb.distinct) == 2
    assert orb.stabilizer_order == 1
    # the orbit of -(z1+z2) under the diagonal group: all -w^j z1 - w^(qj) z2
    p, q = 5, 3
    orb2 = orbit(cyclic_gamma(p, q), -H)
    w = root_of_unity(p, 1)
    expect = {holo({(1, 0): -(w ** j), (0, 1): -(w ** (q * j))}).key()
              for j in range(p)}
    assert {e.key() for e in orb2.elements} == expect


def test_orbit_multiset_invariants():
    orb = orbit(binary_dihedral(2), H)
    assert len(orb.elements) == 8
    assert orb.stabilizer_order * len(orb.distinct) == 8


def test_chern_classes_examples():
    cls = chern_classes(orbit(cyclic_gamma(2, 1), H))
    assert cls[0].is_zero()
    assert cls[1] == -(H * H)
    cls3 = chern_classes(orbit(cyclic_gamma(3, 1), H))
    assert cls3[0].is_zero() and cls3[1].is_zero()
    assert cls3[2] == H * H * H
    fixed = orbit(trivial_group(), holo({(2, 1): 1}))
    assert chern_classes(fixed)[0] == holo({(2, 1): 1})


def test_classes_are_invariant():
    for g in (cyclic_gamma(4, 2), dihedral(3), binary_dihedral(2)):
        for c in chern_classes(orbit(g, H)):
            if c.is_zero():
                continue
            for m in g.elements:
                assert act(m, c) == c, g.label


def test_identity_cyclic_all():
    for p in range(1, 9):
        for q in range(1, p + 1):
            assert verify_chern_identity(cyclic_gamma(p, q)), (p, q)


def test_identity_restriction_is_fpq():
    for p in range(1, 9):
        for q in range(1, p + 1):
            assert chern_sum_as_fpq(cyclic_gamma(p, q)) == fpq(p, q), (p, q)


def test_identity_beyond_cyclic():
    assert verify_chern_identity(dihedral(3))
    assert verify_chern_identity(binary_dihedral(2))


def test_set_vs_multiset():
    fixed = holo({(1, 1): 1})  # z1 z2 is fixed by -I
    g = cyclic_gamma(2, 1)
    orb = orbit(g, fixed)
    assert orb.stabilizer_order == 2
    assert set_multiset_relation(g, fixed)
    # trivial stabilizer: the relation degenerates to equality
    assert set_multiset_relation(cyclic_gamma(3, 1), H)
    # with a nontrivial stabilizer the set convention breaks the identity:
    # too few classes to reach the group order
    cls_set = chern_classes(orb, use_multiset=False)
    assert len(cls_set) == 1
    from sigpair.invariant import polarized_at_ones

    lhs = alternating_sum(chern_classes(orbit(g, H), use_multiset=False))
    assert lhs == polarized_at_ones(g)  # here the stabilizer is trivial, so fine


def test_multiset_required_when_stabilizer_nontrivial():
    # the scalar subgroup {I, -I} fixes z1*z2, so the set orbit polynomial has
    # one class where the multiset one has two: only the latter can reach the
    # group order on the right side of the identity
    g = cyclic_gamma(2, 1)
    fixed = holo({(1, 1): 1})
    orb = orbit(g, fixed)
    assert orb.stabilizer_order == 2
    multi = chern_classes(orb, use_multiset=True)
    sett = chern_classes(orb, use_multiset=False)
    assert len(multi) == 2 and len(sett) == 1


def test_orbit_in_mixed_order_group():
    # generators of orders 3, 15 and 1; translates are compared by value
    g = closure([diag(root_of_unity(3, 1), 1), diag(root_of_unity(15, 1), root_of_unity(15, 14)),
                 antidiag(1, 1)])
    assert g.order == 90
    fixed = holo({(1, 1): 1})
    orb = orbit(g, fixed)
    assert len(orb.distinct) == 3 and orb.stabilizer_order == 30
    assert set_multiset_relation(g, fixed)


def test_class_sum_must_be_integral(monkeypatch):
    # the check is an exception, not an assert, so it also holds under python -O
    monkeypatch.setattr(chern, "alternating_sum", lambda classes: holo({(1, 0): Fraction(1, 2)}))
    with pytest.raises(InvariantCheckFailed, match="non-integer"):
        chern_sum_as_fpq(cyclic_gamma(3, 1))


def test_orbit_dataclass():
    orb = orbit(trivial_group(), H)
    assert isinstance(orb, Orbit)
    assert orb.elements[0] == H


def test_orbit_size_not_dividing_order_raises():
    # three "elements" with a two-polynomial orbit: not a group
    flip = diag(1, -1)
    with pytest.raises(InvariantCheckFailed, match="orbit size"):
        orbit(FiniteMatrixGroup([identity(), flip, flip], "not a group"), holo({(0, 1): 1}))
