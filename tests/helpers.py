"""Uncertified helpers that only the tests use."""

import math

from sigpair.signature import HermitianMatrix


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
