"""Orbit polynomials and orbit Chern classes.

The group acts on C[z1, z2] by (g . h)(z) = h(g^-1 z).  The orbit polynomial
of the full multiset of group translates of h is prod_{g in G} (X + g . h);
its coefficients (elementary symmetric polynomials of the translates) are the
orbit Chern classes, each invariant under the action.  The alternating sum
sum_j (-1)^(j-1) c_j of the classes of z1 + z2 equals the polarized invariant
polynomial evaluated at w = (1, 1), which `verify_chern_identity` checks
against the independent product expansion.

The orbit as a *set* gives a different polynomial whenever the stabilizer is
nontrivial; then the set-based polynomial raised to the stabilizer order
recovers the multiset one (`set_multiset_relation`).
"""

from __future__ import annotations

from typing import NamedTuple

from .group import FiniteMatrixGroup, Matrix2
from .invariant import (HermitianPolynomial, InvariantCheckFailed, polarized_at_ones,
                        unpack_key)


class Orbit(NamedTuple):
    """Group translates of a polynomial: full multiset, distinct set, stabilizer."""

    elements: list[HermitianPolynomial]
    distinct: list[HermitianPolynomial]
    stabilizer_order: int


def act(g: Matrix2, h: HermitianPolynomial) -> HermitianPolynomial:
    """(g . h)(z) = h(g^-1 z), expanded exactly; g must be unitary."""
    return h.compose(g.dagger())


def orbit(G: FiniteMatrixGroup, h: HermitianPolynomial) -> Orbit:
    """All group translates of h in group element order, deduplicated exactly."""
    elements = [act(g, h) for g in G.elements]
    seen = {}
    for e in elements:
        seen.setdefault(e.key(), e)
    distinct = list(seen.values())
    stab, rem = divmod(G.order, len(distinct))
    if rem:
        raise InvariantCheckFailed("orbit size must divide the group order")
    return Orbit(elements, distinct, stab)


def _orbit_polynomial(polys: list[HermitianPolynomial]) -> list[HermitianPolynomial]:
    """Elementary symmetric polynomials e_0..e_m of the given polynomials."""
    es = [HermitianPolynomial.holomorphic({(0, 0): 1})]
    for b in polys:
        nxt = [es[0]]
        for a in range(1, len(es)):
            nxt.append(es[a] + es[a - 1] * b)
        nxt.append(es[-1] * b)
        es = nxt
    return es


def chern_classes(orb: Orbit, use_multiset: bool = True) -> list[HermitianPolynomial]:
    """Orbit Chern classes c_1..c_m (c_0 = 1 omitted)."""
    polys = orb.elements if use_multiset else orb.distinct
    return _orbit_polynomial(polys)[1:]


def alternating_sum(classes: list[HermitianPolynomial]) -> HermitianPolynomial:
    out = HermitianPolynomial()
    for j, c in enumerate(classes, start=1):
        out = out + (c if j % 2 else -c)
    return out


def verify_chern_identity(G: FiniteMatrixGroup) -> bool:
    """sum_j (-1)^(j-1) c_j of the orbit of z1+z2 equals the polarized invariant."""
    orb = orbit(G, HermitianPolynomial.holomorphic({(1, 0): 1, (0, 1): 1}))
    lhs = alternating_sum(chern_classes(orb))
    return lhs == polarized_at_ones(G)


def chern_sum_as_fpq(G: FiniteMatrixGroup) -> dict[tuple[int, int], int]:
    """The alternating class sum of cyclic Gamma(p,q) read as an integer polynomial
    {(a1, a2): coefficient of z1^a1 z2^a2}, comparable with `fpq.fpq`."""
    orb = orbit(G, HermitianPolynomial.holomorphic({(1, 0): 1, (0, 1): 1}))
    total = alternating_sum(chern_classes(orb))
    out = {}
    for key, c in total.terms.items():
        a1, a2, _, _ = unpack_key(key)
        f = c.as_fraction()
        if f.denominator != 1:
            raise InvariantCheckFailed(f"alternating class sum has the non-integer coefficient {f}")
        out[(a1, a2)] = int(f)
    return out


def set_multiset_relation(G: FiniteMatrixGroup, h: HermitianPolynomial) -> bool:
    """Set-based orbit polynomial ** stabilizer_order == multiset-based one.

    The power is the orbit polynomial of the distinct translates, each taken
    stabilizer_order times.
    """
    orb = orbit(G, h)
    return (_orbit_polynomial(orb.distinct * orb.stabilizer_order)
            == _orbit_polynomial(orb.elements))
