"""Property tests: conjugating a group by a random element of the binary
octahedral group O changes neither its signature pair nor the agreement of
the three inertia routes, and its generator file closes to the same group.

The conjugators are products of 1-3 elements of O, so they are unitary with
entries in Q(zeta_8), and the conjugated groups are dense (non-monomial).
Hypothesis runs derandomized, so the cases are the same on every run.
"""

import json
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from sigpair.cyclotomic import root_of_unity
from sigpair.group import (antidiag, binary_polyhedral, closure, conjugate,
                           diag, load_generators)
from sigpair.invariant import phi
from sigpair.signature import (coefficient_matrix, gauss_rank, inertia_exact,
                               inertia_numeric)
from helpers import dump_generators


def _rotation(n, k):
    return diag(root_of_unity(n, 1), root_of_unity(n, k))


GENERATORS = {
    "Gamma(5,2)": [_rotation(5, 2)],
    "Gamma(8,3)": [_rotation(8, 3)],
    "Delta_3": [_rotation(3, 2), antidiag(1, 1)],
    "Delta_4": [_rotation(4, 3), antidiag(1, 1)],
    "Lambda_2": [_rotation(4, 3), antidiag(1, -1)],
    "Lambda_3": [_rotation(6, 5), antidiag(1, -1)],
}


@lru_cache(maxsize=None)
def _octahedral():
    return binary_polyhedral("O").elements


@lru_cache(maxsize=None)
def _base(name):
    """The unconjugated group and its signature pair."""
    G = closure(GENERATORS[name])
    inertia = inertia_exact(coefficient_matrix(phi(G)))
    return G, (inertia.n_plus, inertia.n_minus)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(name=st.sampled_from(sorted(GENERATORS)),
       word=st.lists(st.integers(0, 47), min_size=1, max_size=3))
def test_conjugation_properties(name, word):
    elements = _octahedral()
    U = elements[word[0]]
    for i in word[1:]:
        U = U * elements[i]
    base, pair = _base(name)
    G = conjugate(base, U)
    gens = [U * g * U.dagger() for g in GENERATORS[name]]
    assert load_generators(json.dumps(dump_generators(gens))).order == G.order == base.order
    M = coefficient_matrix(phi(G))
    inertia = inertia_exact(M)
    assert (inertia.n_plus, inertia.n_minus) == pair
    assert inertia_numeric(M, 256, 1e-30) == inertia
    assert gauss_rank(M) == inertia.rank
