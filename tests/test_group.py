"""Group constructors: orders, unitarity, closure behaviour, Springer relations."""

import json
import time
from fractions import Fraction

import pytest

from sigpair import group
from sigpair.cyclotomic import root_of_unity
from sigpair.group import (CapExceeded, FiniteMatrixGroup, Matrix2, NotUnitary,
                           OrderMismatch, antidiag,
                           binary_dihedral, binary_polyhedral, closure,
                           conjugate, cyclic_gamma, diag, dihedral,
                           identity, load_generators,
                           springer_generators, trivial_group)
from helpers import dump_generators, icosahedral_conjugator, is_su2

NEG_I = Matrix2(-1, 0, 0, -1)


def test_closure_of_minus_identity():
    g = closure([NEG_I])
    assert g.order == 2
    assert g.elements[0].is_identity()


def test_closure_requires_unitary():
    with pytest.raises(NotUnitary) as err:
        closure([diag(1, 1), diag(2, 1)])
    assert err.value.index == 1


def test_closure_cap():
    # an order-20 group does not fit below a cap of 10
    with pytest.raises(CapExceeded):
        closure([diag(root_of_unity(20, 1), root_of_unity(20, 19))], cap=10)


@pytest.mark.parametrize("generators", [
    # a rotation of infinite order: its trace 6/5 is no algebraic integer
    [Matrix2(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))],
    # two reflections of order 2 whose product has trace 8/5
    [Matrix2(Fraction(3, 5), Fraction(4, 5), Fraction(4, 5), Fraction(-3, 5)), antidiag(1, 1)],
], ids=["rotation", "reflections"])
def test_closure_stops_at_an_element_of_infinite_order(generators):
    # both used to run to the cap; at the default cap the rotation took 71.5 s and 148 MB
    t0 = time.monotonic()
    with pytest.raises(CapExceeded, match="infinite order"):
        closure(generators, cap=1000)
    assert time.monotonic() - t0 < 1


def test_closure_generator_order_independence():
    r, s, t = springer_generators("T")
    a, b = s * t.inverse(), t
    assert closure([a, b]).element_keys() == closure([b, a]).element_keys()


def test_closure_idempotent_on_groups():
    g = cyclic_gamma(6, 5)
    again = closure(g.elements)
    assert again.element_keys() == g.element_keys()
    assert again.order == g.order


def test_cyclic_gamma():
    assert cyclic_gamma(1, 1).order == 1
    g2 = cyclic_gamma(2, 1)
    assert g2.order == 2 and g2.elements[1] == NEG_I
    g54 = cyclic_gamma(5, 4)
    assert g54.order == 5
    assert all(m.det() == 1 for m in g54)
    assert all(m.b.is_zero() and m.c.is_zero() for m in g54)


def test_dihedral():
    assert dihedral(1).order == 2
    assert dihedral(3).order == 6
    d4 = dihedral(4)
    assert d4.order == 8
    assert not is_su2(d4)  # reflections have determinant -1
    assert any(m.det() == -1 for m in d4)


def test_binary_dihedral():
    assert binary_dihedral(1).order == 4
    b1 = binary_dihedral(1)
    j = antidiag(1, -1)
    assert b1.element_keys() == {identity().key(), NEG_I.key(), j.key(), (-j).key()}
    assert binary_dihedral(2).order == 8
    b3 = binary_dihedral(3)
    assert b3.order == 12
    assert is_su2(b3)


def test_group_axioms_all_families():
    for g in (cyclic_gamma(6, 2), dihedral(5), binary_dihedral(3),
              binary_polyhedral("T")):
        keys = g.element_keys()
        assert len(keys) == g.order
        assert g.elements[0].is_identity()
        for m in g:
            assert m.is_unitary()
            assert (m.dagger()).key() in keys  # inverse is a member
        # closed under product: every pair, as the listed families put their
        # diagonal elements first and a slice would miss the antidiagonal ones
        assert all((m * w).key() in keys for m in g for w in g)


def test_binary_polyhedral_orders_and_su2():
    for kind, order in (("T", 24), ("O", 48), ("I", 120)):
        g = binary_polyhedral(kind)
        assert g.order == order
        assert is_su2(g)


def test_closure_compares_elements_by_value():
    # conjugating by an icosahedral element puts entries of Q(zeta_5) into
    # products computed at order 30; they must still match earlier elements
    r, s, t = springer_generators("I")
    u = r ** 2 * (r ** 4 * t * s) ** 2
    rot, refl = diag(root_of_unity(6, 1), root_of_unity(6, 5)), antidiag(1, 1)
    g = closure([u * m * u.dagger() for m in (rot, refl)])
    assert g.order == 12
    assert len({m.key() for m in g}) == 12


def _mixed_order_groups():
    # generators of orders 3, 15 and 1: products meet values such as zeta_3
    # both as order-3 and as order-15 entries
    yield closure([diag(root_of_unity(3, 1), 1), diag(root_of_unity(15, 1), root_of_unity(15, 14)),
                   antidiag(1, 1)])
    # listed by hand, not closed: zeta_15^k written at order 3 or 5 where it can be
    yield FiniteMatrixGroup([diag(root_of_unity(3, k // 5) if k % 5 == 0 else
                                  root_of_unity(5, k // 3) if k % 3 == 0 else
                                  root_of_unity(15, k), 1) for k in range(15)], "Z15")


@pytest.mark.parametrize("g", list(_mixed_order_groups()), ids=lambda g: g.label)
def test_keys_compare_by_value_in_mixed_order_groups(g):
    assert g.field_order() == 15
    assert all(e.order in (1, 15) for m in g for e in m.entries)
    keys = g.element_keys()
    assert len(keys) == g.order
    assert all((m * w).key() in keys for m in g for w in g)


def _least_field_cases():
    """(label, generators, m, n): m the lcm order of the generators' entries,
    the order a group used to be stored at, and n the least order it is
    stored at now."""
    r, s, t = springer_generators("T")
    tetra = [s * t.inverse(), t]
    yield "T", tetra, 8, 4
    yield "O", [r * t, t], 8, 8
    r5, s5, t5 = springer_generators("I")
    yield "I", [r5, r5 ** 4 * t5 * s5], 5, 5
    for k in range(5):
        u = icosahedral_conjugator(k)
        yield f"T^u{k}", [u * g * u.dagger() for g in tetra], 40, 20
    u = icosahedral_conjugator(0)
    for label, gens, m in (
            ("Gamma(8,3)^u", [diag(root_of_unity(8, 1), root_of_unity(8, 3))], 40),
            ("Delta(6)^u", [diag(root_of_unity(6, 1), root_of_unity(6, 5)), antidiag(1, 1)], 30),
            ("Lambda(3)^u", [diag(root_of_unity(6, 1), root_of_unity(6, 5)), antidiag(1, -1)], 30)):
        yield label, [u * g * u.dagger() for g in gens], m, m
    yield "Z15", [diag(root_of_unity(3, 1), 1), diag(root_of_unity(15, 1), root_of_unity(15, 14)),
                  antidiag(1, 1)], 15, 15


def _closure_keys_at(generators, m):
    """Element keys of the closure of `generators`, every entry promoted to
    Q(zeta_m) first, so every product is multiplied out at order m."""
    gens = [Matrix2(*(e.promote(m) for e in g.entries)) for g in generators]
    elems = [identity()]
    keys = {elems[0].key()}
    for x in elems:
        for g in gens:
            y = x * g
            if y.key() not in keys:
                keys.add(y.key())
                elems.append(y)
    return keys


@pytest.mark.parametrize("label, gens, m, n", list(_least_field_cases()),
                         ids=[case[0] for case in _least_field_cases()])
def test_groups_are_stored_at_their_least_field_with_unchanged_values(label, gens, m, n):
    g = closure(gens, label=label)
    assert g.field_order() == n
    assert all(e.order in (1, n) for x in g for e in x.entries)
    # each stored entry, promoted back to m, is the element multiplied out at m
    stored = [tuple(e.promote(m).key() for e in x.entries) for x in g]
    assert len(set(stored)) == g.order
    assert set(stored) == _closure_keys_at(gens, m)


def test_conjugates_and_element_lists_move_to_their_least_field():
    T = binary_polyhedral("T")
    assert T.field_order() == 4
    for k in range(5):
        assert conjugate(T, icosahedral_conjugator(k)).field_order() == 20
    # an element list written at order 8 whose entries lie in Q(i)
    listed = FiniteMatrixGroup([Matrix2(*(e.promote(8) for e in x.entries)) for x in T], "T8")
    assert listed.field_order() == 4
    assert [x.key() for x in listed] == [x.key() for x in T]
    # zeta_9^(3j) = zeta_3^j: Phi_9(x) = Phi_3(x^3), so the exponents at 9 are multiples of 3
    mu3 = FiniteMatrixGroup([diag(root_of_unity(9, 3 * j), 1) for j in range(3)], "mu3")
    assert mu3.field_order() == 3
    assert [x.a.key() for x in mu3] == [root_of_unity(3, j).key() for j in range(3)]


def test_constructor_order_check_is_a_typed_error(monkeypatch):
    # the check is an exception, not an assert, so it also holds under python -O
    full = group.closure

    def lossy(*args, **kwargs):
        g = full(*args, **kwargs)
        return FiniteMatrixGroup(g.elements[:-1], g.label)

    monkeypatch.setattr(group, "closure", lossy)
    with pytest.raises(OrderMismatch, match="expected 24"):
        binary_polyhedral("T")


@pytest.mark.parametrize("p", range(1, 13))
def test_listed_families_are_the_closures_of_their_generators(p):
    # the classical generators: diag(w, w^-1) with w = zeta_p (Delta) or zeta_2p
    # (Lambda) and the reflection antidiag(1, +-1); diag(zeta_p, zeta_p^q)
    rotation = [diag(root_of_unity(m, 1), root_of_unity(m, m - 1)) for m in (p, 2 * p)]
    for G, gens in ((dihedral(p), [rotation[0], antidiag(1, 1)]),
                    (binary_dihedral(p), [rotation[1], antidiag(1, -1)]),
                    *((cyclic_gamma(p, q), [diag(root_of_unity(p, 1), root_of_unity(p, q))])
                      for q in range(p))):
        closed = closure(gens)
        assert G.elements[0].is_identity(), G.label
        assert [x.key() for x in G] == list(dict.fromkeys(x.key() for x in G)), G.label
        assert G.element_keys() == closed.element_keys(), G.label
        assert G.field_order() == closed.field_order(), G.label


def test_tetrahedral_relations():
    r, s, t = springer_generators("T")
    a, b = s * t.inverse(), t
    assert a ** 3 == b ** 3 == (a * b) ** 2
    assert a ** 3 == NEG_I


def test_octahedral_relations():
    r, s, t = springer_generators("O")
    assert (r * t) ** 4 == NEG_I
    assert t ** 3 == NEG_I
    assert (r * t * t) ** 2 == NEG_I


def test_icosahedral_relations_and_enumeration():
    r, s, t = springer_generators("I")
    assert r ** 5 == NEG_I
    # the printed generator relation holds with s and t composed this way
    # round; both b = r^4 t s and b = r^4 s t generate the same group
    assert (r ** 4 * s * t) ** 3 == NEG_I
    assert (r ** 5 * t * s) ** 2 == NEG_I
    g = binary_polyhedral("I")
    keys = set()
    for h in range(10):
        keys.add((r ** h).key())
        keys.add((s * r ** h).key())
        for j in range(5):
            keys.add((r ** h * t * r ** j).key())
            keys.add((r ** h * t * s * r ** j).key())
    assert len(keys) == 120
    assert keys == g.element_keys()


def test_su2_membership_by_family():
    for p in range(1, 8):
        assert is_su2(cyclic_gamma(p, p - 1))
        assert is_su2(binary_dihedral(p))
    assert not is_su2(dihedral(4))


def test_conjugate():
    g = cyclic_gamma(3, 2)
    assert conjugate(g, identity()).element_keys() == g.element_keys()
    swapped = conjugate(g, antidiag(1, 1))
    assert swapped.order == 3
    # conjugating by the swap exchanges the diagonal exponents
    assert {(m.a.items, m.d.items) for m in swapped} == {(m.d.items, m.a.items) for m in g}
    u = diag(root_of_unity(8, 1), root_of_unity(8, 7))
    h = conjugate(binary_dihedral(2), u)
    assert h.order == 8
    assert closure(h.elements).order == 8  # still closed
    with pytest.raises(NotUnitary):
        conjugate(g, diag(2, 1))


def test_trivial_group():
    assert trivial_group().order == 1


def test_generator_file_round_trip(tmp_path):
    data = dump_generators([NEG_I], cap=100)
    text = json.dumps(data)
    g = load_generators(text)
    assert g.order == 2
    # through a real file, as the CLI consumes it
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(dump_generators([diag(root_of_unity(4, 1),
                                                     root_of_unity(4, 3))])))
    g2 = load_generators(json.loads(path.read_text()))
    assert g2.order == 4


def test_load_generators_rejects_nonunitary():
    bad = dump_generators([diag(2, 1)])
    with pytest.raises(NotUnitary):
        load_generators(bad)
