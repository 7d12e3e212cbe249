"""Seeded inputs of the benchmark workloads and the closed loop that runs them.

A workload is a list of jobs.  Each job builds one group and says which
independent route its certified pair is checked against.  The modules are
looked up at call time (`group.dihedral`, not a bound name), so the wrappers
that `tracing` installs on them see every call.  `sigpair.fpq` is imported as
a module by name because the package attribute `sigpair.fpq` is the function.
"""

from __future__ import annotations

import importlib
import random
from typing import Callable, NamedTuple

group = importlib.import_module("sigpair.group")
invariant = importlib.import_module("sigpair.invariant")
signature = importlib.import_module("sigpair.signature")
fpq = importlib.import_module("sigpair.fpq")
closedforms = importlib.import_module("sigpair.closedforms")

NUMERIC_BITS = 256
NUMERIC_ZERO = 1e-30
# Certified pairs of the binary polyhedral groups (README table).
KNOWN = {"T": (9, 5), "O": (17, 9)}


class Job(NamedTuple):
    label: str
    build: Callable[[], object]
    # ("cyclic", p, q) | ("delta", p) | ("lambda", p) | ("known", kind)
    reference: tuple
    numeric: bool


def _base(reference: tuple):
    """Constructor call for the unconjugated group a reference describes."""
    kind = reference[0]
    if kind == "cyclic":
        return lambda: group.cyclic_gamma(reference[1], reference[2])
    if kind == "delta":
        return lambda: group.dihedral(reference[1])
    if kind == "lambda":
        return lambda: group.binary_dihedral(reference[1])
    return lambda: group.binary_polyhedral(reference[1])


def _conjugated(base, u):
    return lambda: group.conjugate(base(), u)


def _label(reference: tuple) -> str:
    return reference[0] + ":" + ",".join(str(x) for x in reference[1:])


def conjugator(seed: int):
    """A non-monomial element r^k (r^4 t s)^2 of the binary icosahedral group.

    The seed picks k.  All choices lie in one coset of the diagonal subgroup
    <r>, so the conjugated groups differ only by a diagonal phase twist: the
    same supports, block sizes and fold work, with different exact entries.
    Other cosets change the work by up to 2x, which would make the seed, not
    the program, set the timing.  r^5 = -1, so k ranges over 0..4.
    """
    r, s, t = group.springer_generators("I")
    w = r ** 4 * t * s
    return r ** random.Random(seed).randrange(5) * w * w


def build(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass, in a seed-shuffled order.

    `T` in polyhedral and `Gamma(40,39)` in families also run the numeric
    oracle, so every timed layer is called on every workload.
    """
    rng = random.Random(seed)
    if workload == "polyhedral":
        refs = [("known", "T"), ("known", "O")]
        jobs = [Job(_label(ref), _base(ref), ref, ref == ("known", "T")) for ref in refs]
    elif workload == "families":
        refs = [("cyclic", p, q) for p in range(1, 17) for q in range(1, p + 1)]
        refs.append(("cyclic", 40, 39))
        refs += [("delta", p) for p in (8, 16, 24)]
        refs += [("lambda", p) for p in (4, 8, 12)]
        jobs = [Job(_label(ref), _base(ref), ref, ref == ("cyclic", 40, 39)) for ref in refs]
    elif workload == "certify":
        u = conjugator(seed)
        refs = [("cyclic", 8, 3), ("delta", 6), ("lambda", 3), ("known", "T")]
        jobs = [Job(_label(ref) + "^u", _conjugated(_base(ref), u), ref, True) for ref in refs]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def expected_pair(reference: tuple) -> tuple[int, int]:
    """The pair from a route independent of the fold and the elimination."""
    kind = reference[0]
    if kind == "cyclic":
        pair = fpq.signature_cyclic(reference[1], reference[2])
    elif kind == "delta":
        pair = closedforms.delta_signature_closed(reference[1])
    elif kind == "lambda":
        pair = closedforms.lambda_signature_closed(reference[1])
    else:
        pair = KNOWN[reference[1]]
    return tuple(pair)


def run_job(job: Job) -> str | None:
    """Certify one group's pair and check it; None when every check agrees."""
    G = job.build()
    M = signature.coefficient_matrix(invariant.phi(G))
    inertia = signature.inertia_exact(M)
    pair = (inertia.n_plus, inertia.n_minus)
    rank = signature.gauss_rank(M)
    if rank != inertia.rank:
        return f"gauss_rank {rank} != exact rank {inertia.rank}"
    if job.numeric:
        numeric = signature.inertia_numeric(M, NUMERIC_BITS, NUMERIC_ZERO)
        if numeric != inertia:
            return f"numeric inertia {tuple(numeric)} != exact {tuple(inertia)}"
    expected = expected_pair(job.reference)
    if pair != expected:
        return f"pair {pair} != reference {expected}"
    return None
