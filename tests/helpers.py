"""Uncertified helpers that only the tests use."""

import math
from fractions import Fraction

from sigpair.cyclotomic import (Cyclotomic, cyclotomic_polynomial, euler_phi, rational,
                                root_of_unity)
from sigpair.group import FiniteMatrixGroup, Matrix2, antidiag, closure, diag, springer_generators
from sigpair.invariant import HermitianPolynomial, pack_key
from sigpair.signature import HermitianMatrix


def poly_degree(p) -> int:
    """Degree of an ascending coefficient list; -1 for the zero polynomial."""
    return max((i for i, c in enumerate(p) if c), default=-1)


def poly_divmod(a, b):
    """(quotient, remainder) of ascending coefficient lists a / b by long
    division, b nonzero; the remainder keeps a's length.  Int lists stay int
    when b is monic, and Fractions work throughout."""
    a = list(a)
    db = poly_degree(b)
    lead = b[db]
    q = [0] * max(1, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            c = a[i] if lead == 1 else a[i] / lead
            q[i - db] = c
            for k in range(db + 1):
                a[i - db + k] -= c * b[k]
    return q, a


def poly_mul(a, b):
    """Product of ascending coefficient lists: each nonzero coefficient of
    the sparser one scales a slice of the other."""
    if sum(map(bool, a)) > sum(map(bool, b)):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + len(b)] = [o + x * y for o, y in zip(out[i:i + len(b)], b)]
    return out


def approx_complex(c) -> complex:
    """Complex float value of a `Cyclotomic` (float cross-checks only)."""
    z = 0j
    for k, v in c.items:
        z += v / c.den * complex(math.cos(2 * math.pi * k / c.order),
                                 math.sin(2 * math.pi * k / c.order))
    return z


def multiplicative_order(a, bound: int = 10000) -> int:
    """Order of a root of unity `a`, by repeated multiplication."""
    acc = a
    for m in range(1, bound + 1):
        if acc == 1:
            return m
        acc = acc * a
    raise ValueError("order exceeds bound")


def permuted(M: HermitianMatrix, perm: list[int]) -> HermitianMatrix:
    """M with rows and columns reordered by perm."""
    inv = {old: new for new, old in enumerate(perm)}
    basis = [M.basis[old] for old in perm]
    entries = {(inv[i], inv[j]): c for (i, j), c in M.entries.items()}
    return HermitianMatrix(basis, entries)


def closed_dihedral(n: int, sign: int) -> FiniteMatrixGroup:
    """Delta_n (sign 1) or Lambda_(n/2) (sign -1) closed from diag(zeta_n,
    zeta_n^-1) and antidiag(1, sign), in `closure`'s breadth-first order,
    which interleaves the diagonal and antidiagonal elements that the listed
    `dihedral` and `binary_dihedral` keep apart."""
    return closure([diag(root_of_unity(n, 1), root_of_unity(n, n - 1)), antidiag(1, sign)])


def is_su2(G: FiniteMatrixGroup) -> bool:
    """Every element of G has determinant 1."""
    return all(m.det() == 1 for m in G.elements)


def dump_generators(matrices: list[Matrix2], cap: int = 10000) -> dict:
    """Inverse of `load_generators`, for writing generator files."""
    return {
        "generators": [
            [[m.a.to_json_dict(), m.b.to_json_dict()], [m.c.to_json_dict(), m.d.to_json_dict()]]
            for m in matrices
        ],
        "cap": cap,
    }


def icosahedral_conjugator(k: int) -> Matrix2:
    """u = r^k (r^4 t s)^2 in I, the certify workload's conjugators."""
    r, s, t = springer_generators("I")
    return r ** k * (r ** 4 * t * s) ** 2


def phi_row(M):
    """The linear factor <Mz, z> of Phi as (packed key, coefficient) pairs."""
    return [(pack_key(1, 0, 1, 0), M.a), (pack_key(0, 1, 1, 0), M.b),
            (pack_key(1, 0, 0, 1), M.c), (pack_key(0, 1, 0, 1), M.d)]


def reference_fold(factors, n, prod=None):
    """`invariant._fold_product` by list convolution: the oracle for its
    packed kernel.

    Coefficients are integer vectors, padded to n slots, multiplied in
    Z[x]/(x^n - 1) and reduced modulo Phi_n by long division after every
    factor, so a vector is dropped exactly when its coefficient vanishes in
    Q(zeta_n).  The reduced vectors are returned on their phi(n) slots.
    """
    if prod is None:
        prod = {0: [1]}
    prod = {key: vec + [0] * (n - len(vec)) for key, vec in prod.items()}
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
            _, rem = poly_divmod(vec, cyclotomic_polynomial(n))
            if any(rem):
                prod[key] = rem
    return {key: vec[:euler_phi(n)] for key, vec in prod.items()}


def elementwise(G, row, m):
    """1 - prod_{g in G}(1 - row(g)) with one linear factor per element, in
    Q(zeta_m), m a multiple of the order G stores its entries at.

    The oracle for the coset engine: no subgroup, no cosets, and the list
    convolution `reference_fold` in place of the packed kernel.  Every entry
    is promoted to m, the lcm order of the generators' entries, so the
    oracle does not share the group's least-field representation.  Diagonal
    elements go first, which keeps the intermediates of the monomial groups
    small; the product does not depend on the order.
    """
    factors = []
    for M in sorted(G.elements, key=lambda M: not (M.b.is_zero() and M.c.is_zero())):
        placed = [(key, c.promote(m).coords.items()) for key, c in row(M) if not c.is_zero()]
        d = math.lcm(1, *(v.denominator for _, items in placed for _, v in items))
        factors.append((d, [(key, [(e, -(v * d).numerator) for e, v in items])
                            for key, items in placed]))
    scale = math.prod(d for d, _ in factors)
    out = {key: Cyclotomic(m, {e: Fraction(-v, scale) for e, v in enumerate(vec) if v})
           for key, vec in reference_fold(factors, m).items()}
    out[0] = out.get(0, rational(0)) + 1
    return HermitianPolynomial({key: c for key, c in out.items() if not c.is_zero()})
