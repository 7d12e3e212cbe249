"""Coefficient matrices of Hermitian polynomials and their exact inertia.

The inertia (n+, n-, n0) is computed by congruence elimination, never by
characteristic polynomials: the first remaining index whose diagonal entry
is nonzero is the pivot and contributes its certified sign; if every
remaining diagonal entry of a nonzero block vanishes, a shift, the
congruence e_i -> e_i + conj(a) e_j at the first nonzero entry a = A_ij,
first turns A_ii into the pivot 2 a conj(a) > 0.  All arithmetic stays in the
cyclotomic field, where every congruence is exact, so by Sylvester's law
any nonzero pivot keeps the inertia and none is chosen by size: the
elimination evaluates no real number except through `Cyclotomic.sign`.
Matrices arising from invariant polynomials split into many small connected
components, which the elimination exploits; inertia is additive across
components, found once per matrix.  A 1x1 component is certified from its
entry (one sign, rank 1 or 0); the dense block of each larger one is built
in turn from one pass over the entries.  The elimination stores only the
upper triangle of a block, reading a pivot's row and column once per
pivot, and each update of the Schur complement is one fused field
operation, `sub_mul(a, b, c)` = a - b*c.
`gauss_rank`, the independent rank route, eliminates full rows with the
same fused update.

A numeric oracle (inertia_numeric) stands in for the original
high-precision eigenvalue workflow; it is advisory only and never feeds
certified results.  It too works block by block, after checking that the
components partition the basis and that no nonzero entry joins two of them,
but computes no eigenvalue: each block is reduced to a real tridiagonal
matrix by Householder reflections in integer fixed point, and two Sturm
counts per block give the eigenvalues above and below the zero threshold.
The roots of unity come from the proven cosine enclosures of `intervals`.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import lru_cache
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from .cyclotomic import Cyclotomic, rational, sub_mul
from .group import FiniteMatrixGroup
from .intervals import cos_2pi
from .invariant import HermitianPolynomial, unpack_key, phi


class NotHermitian(ValueError):
    """Matrix fails the exact Hermitian-symmetry check."""


class EmptySpectrum(ValueError):
    """Positivity ratio of an identically-zero polynomial."""


class InsufficientPrecision(ValueError):
    """Too few bits for the numeric oracle's zero threshold."""


class SignatureCheckFailed(ArithmeticError):
    """The numeric oracle's blocks do not partition the matrix: an index is
    missing or repeated, or a nonzero entry joins two blocks."""


class Inertia(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def dimension(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero


class SignaturePair(NamedTuple):
    n_plus: int
    n_minus: int


class HermitianMatrix:
    """Sparse Hermitian matrix over a cyclotomic field, with a monomial basis.

    The constructor checks the symmetry exactly and raises `NotHermitian`, so
    every instance is Hermitian; `entries` is a read-only view, so neither
    that check nor the cached `components()` can go stale.
    """

    def __init__(self, basis: list[tuple[int, int]], entries: dict[tuple[int, int], Cyclotomic]):
        self.basis = list(basis)
        self._components = None
        entries = {k: v for k, v in entries.items() if not v.is_zero()}
        for (i, j), c in entries.items():
            if j < i and (j, i) in entries:
                continue  # the pair was checked from (j, i)
            mirror = entries.get((j, i))
            if mirror is None or mirror != c.conj():
                raise NotHermitian(f"entry ({i},{j}) has no conjugate partner")
        self.entries = MappingProxyType(entries)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def entry(self, i: int, j: int) -> Cyclotomic:
        return self.entries.get((i, j), rational(0))

    def components(self) -> list[list[int]]:
        """Connected components of the off-diagonal support graph, found once."""
        if self._components is None:
            self._components = _components(self.dimension, self.entries)
        return self._components


def _components(dimension: int, entries) -> list[list[int]]:
    """The union-find behind `HermitianMatrix.components`."""
    parent = list(range(dimension))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in entries:
        if i != j:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(dimension):
        groups.setdefault(find(i), []).append(i)
    return [sorted(g) for g in sorted(groups.values())]


def coefficient_matrix(P: HermitianPolynomial) -> HermitianMatrix:
    """Underlying matrix of a Hermitian polynomial in its sorted monomial basis."""
    basis = P.support()
    index = {m: i for i, m in enumerate(basis)}
    entries = {}
    for key, c in P.terms.items():
        a1, a2, b1, b2 = unpack_key(key)
        entries[(index[(a1, a2)], index[(b1, b2)])] = c
    return HermitianMatrix(basis, entries)


def _dense_blocks(M: HermitianMatrix):
    """The dense block of each component of M of two or more indices, built
    one at a time after one pass that buckets the entries by component."""
    comps = [comp for comp in M.components() if len(comp) > 1]
    where = {i: (b, at) for b, comp in enumerate(comps) for at, i in enumerate(comp)}
    buckets = [[] for _ in comps]
    for (i, j), c in M.entries.items():
        if i in where:
            b, p = where[i]
            buckets[b].append((p, where[j][1], c))
    z = rational(0)
    for comp, bucket in zip(comps, buckets):
        block = [[z] * len(comp) for _ in comp]
        for p, r, c in bucket:
            block[p][r] = c
        yield block


def _isolated(M: HermitianMatrix) -> list[Cyclotomic]:
    """The nonzero entry of each 1x1 component of M: rank 1, the entry's sign."""
    return [M.entries[i, i] for i, *rest in M.components() if not rest and (i, i) in M.entries]


def _pivot_line(block, p: int, active: list[int]) -> list[tuple[int, Cyclotomic, Cyclotomic]]:
    """(j, block[j][p], block[p][j]) for the active j whose entry is nonzero,
    ascending j, each pair read from the upper triangle with one conj."""
    line = []
    for j in active:
        if j < p:
            c = block[j][p]
            if not c.is_zero():
                line.append((j, c, c.conj()))
        else:
            c = block[p][j]
            if not c.is_zero():
                line.append((j, c.conj(), c))
    return line


def _eliminate_block(block: list[list[Cyclotomic]]) -> tuple[Inertia, int]:
    """Inertia of a dense Hermitian block and its number of shifts.

    Each pivot is the first remaining nonzero diagonal entry; when none is
    left, a shift makes one (see the module docstring).  Only the upper
    triangle, block[i][j] with i <= j, is read or written; an entry below it
    is the conj of its mirror.  Each pivot's row and column are read once
    (`_pivot_line`), and each update of the Schur complement is one fused
    `sub_mul`, so a pivot costs O(m) conj, not O(m^2)."""
    m = len(block)
    active = list(range(m))
    pos = neg = shifts = 0
    while active:
        piv = next((i for i in active if not block[i][i].is_zero()), None)
        if piv is None:
            for i in active:
                if line := _pivot_line(block, i, active):
                    break
            else:
                break  # remaining block is zero
            # row i += a row j (a = A_ij) puts a conj(a) at A_ii; column i +=
            # conj(a) column j, kept only at A_ii, adds it again.  Each other
            # k of row j is past i, as the rows before i are zero
            j, _, a = line[0]
            neg_a, row_i = -a, block[i]
            for k, _, row in _pivot_line(block, j, active):
                row_i[k] = sub_mul(row_i[k], neg_a, row)
            row_i[i] += row_i[i]
            shifts += 1
            piv = i
        d = block[piv][piv]
        if d.sign() > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        line = _pivot_line(block, piv, active)
        if line:
            dinv = d.inverse()
            for x, (i, col, _) in enumerate(line):
                ratio = col * dinv
                row_i = block[i]
                for j, _, row in line[x:]:
                    row_i[j] = sub_mul(row_i[j], ratio, row)
    return Inertia(pos, neg, m - pos - neg), shifts


def inertia_exact(M: HermitianMatrix, stats: dict | None = None) -> Inertia:
    """Certified inertia by Hermitian congruence elimination.

    When given, `stats` receives deterministic counters of the run:
    `blocks`, `max_block` (the largest component's size) and `shifts`; the
    pivots are as many as the rank."""
    signs = [c.sign() for c in _isolated(M)]
    pos, neg, shifts = signs.count(1), signs.count(-1), 0
    for block in _dense_blocks(M):
        res, s = _eliminate_block(block)
        pos += res.n_plus
        neg += res.n_minus
        shifts += s
    if stats is not None:
        comps = M.components()
        stats.update(blocks=len(comps), max_block=max(map(len, comps), default=0),
                     shifts=shifts)
    return Inertia(pos, neg, M.dimension - pos - neg)


def gauss_rank(M: HermitianMatrix) -> int:
    """Rank by ordinary (non-symmetric) Gaussian elimination on full rows, a
    nonzero 1x1 component counting 1; shares with inertia_exact only the
    field kernel and the components."""
    rank = len(_isolated(M))
    for block in _dense_blocks(M):
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
            prow = block[row]
            inv = None  # inverted only when a row below needs it
            for i in range(row + 1, m):
                if not block[i][col].is_zero():
                    if inv is None:
                        inv = prow[col].inverse()
                    factor = block[i][col] * inv
                    block[i] = [sub_mul(a, factor, p) for a, p in zip(block[i], prow)]
            row += 1
            rank += 1
            if row == m:
                break
    return rank


def check_numeric_precision(precision_bits: int, zero_threshold: float = 1e-30) -> None:
    """Raise `InsufficientPrecision` unless 2^(28 - precision_bits) <= zero_threshold.

    The numeric oracle rounds every entry and every step of its reduction to
    precision_bits fraction bits.  With fewer bits than this floor the
    rounding reaches the zero threshold and zero eigenvalues get counted as
    signed ones: at the default 1e-30, 112 bits gave a wrong inertia for `O`.
    This floor needs no matrix; `inertia_numeric` adds one per matrix that
    grows with the entries.
    """
    if not zero_threshold > 0:
        raise InsufficientPrecision(f"zero threshold must be positive, got {zero_threshold:g}")
    floor = 28 - math.log2(zero_threshold)
    if precision_bits < floor:
        raise InsufficientPrecision(
            f"the numeric oracle needs at least {math.ceil(floor)} bits at zero threshold "
            f"{zero_threshold:g}, got {precision_bits}")


def _div(a: int, b: int) -> int:
    """a / b rounded to the nearest int, for b > 0."""
    return (2 * a + b) // (2 * b)


def _tridiagonal(re: list[list[int]], im: list[list[int]], bits: int):
    """Householder tridiagonalisation of a Hermitian block in fixed point.

    re[i][j] + i im[i][j] is entry (i, j) times 2^bits, both halves stored;
    the lists are overwritten.  Returns the diagonal d (times 2^bits) and
    the squared subdiagonal moduli e2 (times 2^(2 bits)), each exactly the
    squared norm of the column it eliminates, so no square root enters the
    result.  Each reflector I - 2uu* is built from its column shifted to
    full width, one exponent per reflector, so a column that earlier steps
    shrank to a few units keeps its direction.  u is a unit vector to
    2^-bits: the phase x0/|x0| takes |x0| to `bits` places below the unit of
    x0, so a few-unit x0 still gives a phase of modulus one, and |v| comes
    from v itself, not from a formula in |x| and |x0|.
    """
    n = len(re)
    d, e2 = [], []
    width = bits + 4
    for k in range(n - 1):
        lo = k + 1
        d.append(re[k][k])
        xr = [re[i][k] for i in range(lo, n)]
        xi = [im[i][k] for i in range(lo, n)]
        e2.append(sum(map(mul, xr, xr)) + sum(map(mul, xi, xi)))
        if not any(xr[1:]) and not any(xi[1:]):
            continue  # column k is already tridiagonal
        shift = width - max(map(abs, xr + xi)).bit_length()
        xr = [a << shift if shift >= 0 else a >> -shift for a in xr]
        xi = [a << shift if shift >= 0 else a >> -shift for a in xi]
        norm = math.isqrt(sum(map(mul, xr, xr)) + sum(map(mul, xi, xi)))
        a0, b0 = xr[0], xi[0]
        if a0 or b0:
            # v = x + |x| x0/|x0| e1, so that H x = -|x| x0/|x0| e1
            m0 = math.isqrt((a0 * a0 + b0 * b0) << (2 * bits))
            xr[0] = a0 + _div((a0 * norm) << bits, m0)
            xi[0] = b0 + _div((b0 * norm) << bits, m0)
        else:
            xr[0] = norm
        nv = math.isqrt(sum(map(mul, xr, xr)) + sum(map(mul, xi, xi)))
        ur = [_div(a << bits, nv) for a in xr]
        ui = [_div(b << bits, nv) for b in xi]
        # p = 2Bu, K = u*p, w = p - Ku, then B <- B - uw* - wu* on rows lo..n-1
        pr, pi = [], []
        for i in range(lo, n):
            rr, ri = re[i][lo:], im[i][lo:]
            pr.append((sum(map(mul, rr, ur)) - sum(map(mul, ri, ui))) >> (bits - 1))
            pi.append((sum(map(mul, rr, ui)) + sum(map(mul, ri, ur))) >> (bits - 1))
        K = (sum(map(mul, ur, pr)) + sum(map(mul, ui, pi))) >> bits
        wr = [p - ((K * u) >> bits) for p, u in zip(pr, ur)]
        wi = [p - ((K * u) >> bits) for p, u in zip(pi, ui)]
        for i in range(n - lo):
            uri, uii, wri, wii = ur[i], ui[i], wr[i], wi[i]
            rr, ri = re[lo + i], im[lo + i]
            for j in range(i):
                urj, uij, wrj, wij = ur[j], ui[j], wr[j], wi[j]
                x = rr[lo + j] - ((uri * wrj + uii * wij + wri * urj + wii * uij) >> bits)
                y = ri[lo + j] - ((uii * wrj - uri * wij + wii * urj - wri * uij) >> bits)
                rr[lo + j] = re[lo + j][lo + i] = x
                ri[lo + j] = y
                im[lo + j][lo + i] = -y
            rr[lo + i] -= (uri * wri + uii * wii) >> (bits - 1)
    d.append(re[n - 1][n - 1])
    return d, e2


def _count_below(d: list[int], e2: list[int], x: int) -> int:
    """Sturm count of the tridiagonal (d, e2) from `_tridiagonal`: the
    number of eigenvalues below x (times 2^bits), a zero pivot counting as a
    tiny negative one (Kahan's count, as in LAPACK's dstebz)."""
    count = 0
    q = 1
    for k, dk in enumerate(d):
        q = dk - x - (e2[k - 1] // q if k else 0)
        if q <= 0:
            count += 1
            q = q or -1
    return count


@lru_cache(maxsize=None)
def _root_fixed(n: int, k: int, scale: int) -> tuple[int, int]:
    """cos(2 pi k/n) and sin(2 pi k/n) = cos(2 pi (n - 4k)/(4n)) times 2^scale,
    each the midpoint of a `cos_2pi` enclosure narrower than 3 units, rounded
    half to even, so within 2 units of the true value."""
    return tuple((s + (s >> 1 & 1)) >> 1
                 for s in (sum(cos_2pi(k, n, scale)), sum(cos_2pi(n - 4 * k, 4 * n, scale))))


def inertia_numeric(M: HermitianMatrix, precision_bits: int = 256,
                    zero_threshold: float = 1e-30) -> Inertia:
    """Numeric inertia oracle: advisory only, never used for certified results.

    Works block by block on the components of `M.components()` and adds the
    per-block counts; an eigenvalue counts as zero when its absolute value is
    at most `zero_threshold`.  Before any arithmetic the components must
    partition the basis and hold both ends of every nonzero entry, or
    `SignatureCheckFailed` is raised.  No eigenvalue is computed: each block
    is reduced to a real tridiagonal matrix by complex Householder
    reflections in integer fixed point with precision_bits fraction bits,
    and two Sturm counts give the eigenvalues below -zero_threshold and at
    most +zero_threshold.  Each entry is converted once, its mirror being its
    conjugate, from root-of-unity values on a grid with at least 32 guard
    bits, each within 2 units of that grid (`_root_fixed`).

    Rounding grows with the entries, so it also raises
    `InsufficientPrecision`, before the reduction, unless precision_bits >=
    16 - log2(zero_threshold) + log2(max(1, max |a_ij|)): 127 bits for `T`,
    138 for `O` and 171 for `I` at the default threshold.
    """
    check_numeric_precision(precision_bits, zero_threshold)
    comps = M.components()
    where = {i: (b, at) for b, comp in enumerate(comps) for at, i in enumerate(comp)}
    if sum(map(len, comps)) != M.dimension or set(where) != set(range(M.dimension)):
        raise SignatureCheckFailed("components do not partition the basis")
    for (i, j) in M.entries:
        if where[i][0] != where[j][0]:
            raise SignatureCheckFailed(f"entry ({i},{j}) joins two components")
    bits = max(precision_bits, 1)  # the shifts below need a positive width
    upper = [(i, j, c) for (i, j), c in M.entries.items() if i <= j]
    # guard bits cover coordinates larger than the entry they sum to
    guard = 32 + max([0] + [sum(abs(v) for _, v in c.items).bit_length() - c.den.bit_length()
                            for _, _, c in upper])
    scale = bits + guard
    re = [[[0] * len(comp) for _ in comp] for comp in comps]
    im = [[[0] * len(comp) for _ in comp] for comp in comps]
    size = 0.0  # log2(max(1, max |a_ij|)), from the entries before rounding to bits
    for i, j, c in upper:
        zr = zi = 0
        for k, v in c.items:
            w = _root_fixed(c.order, k, scale)
            zr += v * w[0]
            zi += v * w[1]
        q = c.den << guard
        if zr or zi:
            size = max(size, math.log2(zr * zr + zi * zi) / 2 - math.log2(q) - bits)
        zr, zi = _div(zr, q), (_div(zi, q) if i != j else 0)
        b, p = where[i]
        r = where[j][1]
        re[b][p][r] = re[b][r][p] = zr
        im[b][p][r], im[b][r][p] = zi, -zi
    floor = 16 - math.log2(zero_threshold) + size
    if precision_bits < floor:
        raise InsufficientPrecision(
            f"the matrix has entries up to 2^{size:.1f}, so the numeric oracle needs at "
            f"least {math.ceil(floor)} bits at zero threshold {zero_threshold:g}, "
            f"got {precision_bits}")
    thresh = math.floor(Fraction(zero_threshold) * 2 ** bits)
    pos = neg = 0
    for bre, bim in zip(re, im):
        d, e2 = _tridiagonal(bre, bim, bits)
        neg += _count_below(d, e2, -thresh)
        pos += len(d) - _count_below(d, e2, thresh)
    return Inertia(pos, neg, M.dimension - pos - neg)


def signature_pair(G: FiniteMatrixGroup) -> SignaturePair:
    """The pair (N+, N-) for Phi_G."""
    inertia = inertia_exact(coefficient_matrix(phi(G)))
    return SignaturePair(inertia.n_plus, inertia.n_minus)


def positivity_ratio_from(inertia) -> Fraction:
    n = inertia.n_plus + inertia.n_minus
    if n == 0:
        raise EmptySpectrum("polynomial has no nonzero eigenvalues")
    return Fraction(inertia.n_plus, n)


def positivity_ratio(G: FiniteMatrixGroup) -> Fraction:
    """Exact N+ / (N+ + N-) for Phi_G."""
    return positivity_ratio_from(signature_pair(G))


def result_records(G: FiniteMatrixGroup, methods=("exact",), precision_bits: int = 256,
                   poly: HermitianPolynomial | None = None,
                   stats: dict | None = None) -> list[dict]:
    """The JSON result records of one group, one per method in `methods`.

    One coefficient matrix serves every method.  With "numeric" among them,
    the numeric inertia is computed first, so too few bits for the matrix
    raise `InsufficientPrecision` before the exact elimination starts; the
    records still follow `methods`.  `poly` is Phi_G when the caller has
    already expanded it; `elapsed_ms` then leaves the expansion out, and
    counts the shared matrix and the method's own work.  `stats` goes to
    `inertia_exact`.
    """
    t0 = time.monotonic()
    M = coefficient_matrix(phi(G) if poly is None else poly)
    shared = time.monotonic() - t0
    found = {}
    for method in sorted(methods, key=lambda m: m != "numeric"):
        t0 = time.monotonic()
        if method == "exact":
            inertia = inertia_exact(M, stats)
        elif method == "numeric":
            inertia = inertia_numeric(M, precision_bits, 1e-30)
        else:
            raise ValueError(f"unknown method {method!r}")
        found[method] = inertia, shared + time.monotonic() - t0
    records = []
    for method in methods:
        inertia, elapsed = found[method]
        ratio = positivity_ratio_from(inertia)
        records.append({
            "group": G.label,
            "order": G.order,
            "N": inertia.n_plus + inertia.n_minus,
            "N_plus": inertia.n_plus,
            "N_minus": inertia.n_minus,
            "rank": inertia.rank,
            "ratio": f"{ratio.numerator}/{ratio.denominator}",
            "method": method,
            "elapsed_ms": int(elapsed * 1000),
        })
    return records
