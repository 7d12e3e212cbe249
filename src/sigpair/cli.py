"""Command-line front end.

Subcommands:
  signature   exact (and/or numeric-oracle) signature pair of a named group
  fpq         print one f_{p,q}, the family table, or the even/odd limit table
  verify      run a named verification sweep; exits 4 on a counterexample
  ratio       positivity-ratio tables for the cyclic, dihedral and binary
              dihedral families
  family-csv  closed-form (p, N, N+, N-, ratio) table of the dihedral or
              binary dihedral family

Results go to stdout (JSON, CSV, LaTeX or text); diagnostics go to stderr.
Exit codes: 0 success, 2 bad arguments (including a malformed group spec
or generator file, a --precision below the numeric oracle's floor, a --p
outside a family's range, a range that leaves a `ratio`, `family-csv` or
`fpq --table` with no rows or a verify sweep with no cases, a --p-max given
to a sweep with no p, a --format that an `fpq` table does not print, or a
--dump-poly path that cannot be written), 3 invalid group input, 4 failed
verification.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction

from . import chern, closedforms, signature as sig_mod
from .fpq import (T_closed, even_odd_table, f_closed_pminus1, family_table,
                  format_fpq, fpq, lww_sign, signature_cyclic,
                  signature_cyclic_closed, verify_exact_formula, weight,
                  weight_census)
from .group import (CapExceeded, FiniteMatrixGroup, NotUnitary, binary_dihedral,
                    binary_polyhedral, cyclic_gamma, dihedral, load_generators)
from .invariant import GroupTooLarge, check_order, phi


def _error(message, code: int = 2) -> int:
    """Report one `error:` line on stderr; returns the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _unread(args, mode: str, flags, **defaults) -> int | None:
    """Exit 2 naming the first of `flags` that was given, since `mode` does
    not read it; else None, after giving each flag in `defaults` that was
    left at None its documented default."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False:
            return _error(f"{mode} does not read {flag}")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    return None


# constructor, spec shape, and the group's order as a multiple of P
_FAMILIES = {"cyclic": (cyclic_gamma, "cyclic:P,Q", 1), "dihedral": (dihedral, "dihedral:P", 2),
             "binary-dihedral": (binary_dihedral, "binary-dihedral:P", 4)}

# constructor, closed-form pair (N+, N-), least p that `ratio` accepts, first p
# of `ratio`'s default range
_DIHEDRAL = {"dihedral": (dihedral, closedforms.delta_signature_closed, 3, 3),
             "binary-dihedral": (binary_dihedral, closedforms.lambda_signature_closed, 1, 2)}


def _parse_group(spec: str) -> FiniteMatrixGroup:
    if spec in ("T", "O", "I"):
        return binary_polyhedral(spec)
    kind, colon, rest = spec.partition(":")
    if kind == "file" and colon:
        with open(rest, "r", encoding="utf-8") as f:
            return load_generators(json.load(f))
    if kind in _FAMILIES and colon:
        build, shape, per_p = _FAMILIES[kind]
        try:
            params = [int(x) for x in rest.split(",")]
        except ValueError:
            params = []
        if len(params) != shape.count(",") + 1:
            raise ValueError(f"malformed group spec {spec!r}: expected {shape} with integers")
        check_order(per_p * params[0])  # before building a group phi cannot expand
        return build(*params)
    raise ValueError(f"unrecognized group spec {spec!r}")


def _emit_records(records: list, fmt: str, stable: bool):
    """Print the records as JSON lines, one CSV table, or text lines."""
    if stable:
        records = [{k: v for k, v in rec.items() if k != "elapsed_ms"} for rec in records]
    keys = sorted(records[0])
    if fmt == "csv":
        out = csv.writer(sys.stdout, lineterminator="\n")  # quotes a label such as Gamma(8,3)
        out.writerow(keys)
        out.writerows([rec[k] for k in keys] for rec in records)
    elif fmt == "json":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    else:
        for rec in records:
            print(", ".join(f"{k}={rec[k]}" for k in keys))


def cmd_signature(args) -> int:
    try:
        G = _parse_group(args.group)
    except (NotUnitary, CapExceeded, GroupTooLarge) as exc:
        return _error(exc, 3)
    except (ValueError, OSError, RecursionError) as exc:
        return _error(exc)
    methods = ["exact", "numeric"] if args.method == "both" else [args.method]
    try:
        if "numeric" in methods:
            sig_mod.check_numeric_precision(args.precision)  # before the expansion
    except sig_mod.InsufficientPrecision as exc:
        return _error(exc)
    if not args.dump_poly:
        return _signature_records(args, G, methods, None)
    # opened before the expansion, for appending, so that a run that fails
    # leaves the path as it found it
    created = not os.path.exists(args.dump_poly)
    try:
        dump = open(args.dump_poly, "a", encoding="utf-8")
    except OSError as exc:
        return _error(f"cannot write --dump-poly {args.dump_poly}: {exc.strerror or exc}")
    code = 1
    try:
        with dump:
            code = _signature_records(args, G, methods, dump)
    finally:
        if code and created:
            os.remove(args.dump_poly)
    return code


def _signature_records(args, G, methods, dump) -> int:
    """Expand Phi_G and print one record per method; on success `dump`, if
    given, is emptied and receives the polynomial as CSV."""
    t0 = time.monotonic()
    try:
        fold = {}
        P = phi(G, progress=_progress(args.verbose, G), stats=fold)
        expand_ms = int((time.monotonic() - t0) * 1000)
        if args.verbose:
            print(f"{G.label}: fold, {fold['cosets']} cosets in {fold['orbits']} orbits, "
                  f"peak {fold['peak_terms']} terms, {fold['term_pairs']} term pairs",
                  file=sys.stderr)
        stats = {}
        records = sig_mod.result_records(G, methods, args.precision, P, stats)
    except GroupTooLarge as exc:
        return _error(exc, 3)
    except sig_mod.InsufficientPrecision as exc:
        return _error(exc)
    if args.verbose and stats:
        print(f"{G.label}: elimination, {stats['blocks']} blocks, largest {stats['max_block']}, "
              f"{stats['shifts']} shifts", file=sys.stderr)
    if dump:
        dump.truncate(0)
        dump.writelines(row + "\n" for row in P.csv_rows())
    for rec in records:
        rec["elapsed_ms"] += expand_ms
    _emit_records(records, args.format, args.stable_output)
    return 0


def _progress(verbose: bool, G):
    if not verbose:
        return None

    def report(done, total, terms, width):
        if done % 10 == 0 or done == total:
            slots = "" if width is None else f", {width}-bit slots"
            print(f"{G.label}: factor {done}/{total}, {terms} terms{slots}", file=sys.stderr)

    return report


def cmd_fpq(args) -> int:
    latex = args.format == "latex"
    if args.table2:
        if (code := _unread(args, "fpq --table2", ("--table", "--p", "--q", "--p-max"))):
            return code
        if args.format != "text":
            return _error(f"fpq --table2 prints text only, not --format {args.format}")
        for row in even_odd_table():
            print(row)
        return 0
    if not args.table and args.p is None:
        return _error("--p required unless --table/--table2")
    if args.q is None:
        return _error(f"--q required with {'--table' if args.table else '--p'}")
    mode, unread = ("fpq --table", ("--p",)) if args.table else ("fpq --p", ("--p-max",))
    if (code := _unread(args, mode, unread, p_max=9)):
        return code
    if args.table:
        if args.format not in ("text", "latex"):
            return _error(f"fpq --table prints text or latex only, not --format {args.format}")
        if args.p_max < 1:
            return _error(f"fpq --table --p-max {args.p_max} leaves no p; it must be at least 1")
        for row in family_table(args.q, args.p_max, latex=latex):
            print(row)
        return 0
    if args.p < 1:
        return _error(f"p must be at least 1, got {args.p}")
    poly = fpq(args.p, args.q)
    if args.format == "json":
        print(json.dumps({f"{r},{s}": c for (r, s), c in sorted(poly.items())}, sort_keys=True))
    elif args.format == "csv":
        print("r,s,coefficient")
        for (r, s), c in sorted(poly.items()):
            print(f"{r},{s},{c}")
    else:
        print(format_fpq(poly, args.p, args.q, latex=latex))
    return 0


def cmd_ratio(args) -> int:
    mode = f"ratio --family {args.family}"
    if args.family == "cyclic-T":
        unread = ("--p", "--p-max", "--engine-max")
    elif args.p is None:
        unread = ("--q-max",)
    else:
        mode, unread = f"{mode} --p", ("--q-max", "--p-max")
    if (code := _unread(args, mode, unread, p_max=12, q_max=9, engine_max=8)):
        return code
    if args.family == "cyclic-T":
        rows = [(q, T_closed(q), None) for q in range(1, args.q_max + 1)]
        header, bound = "q,T(q),engine", f"--q-max {args.q_max}"
    else:
        build, closed, least, first = _DIHEDRAL[args.family]
        if args.p is not None and args.p < least:
            return _error(f"p must be at least {least}, got {args.p}")
        rows = []
        for p in [args.p] if args.p is not None else range(first, args.p_max + 1):
            npos, nneg = closed(p)
            engine = sig_mod.positivity_ratio(build(p)) if p <= args.engine_max else None
            rows.append((p, Fraction(npos, npos + nneg), engine))
        header, bound = "p,ratio,engine", f"--p-max {args.p_max}"
    if not rows:
        return _error(f"ratio --family {args.family} {bound} leaves no rows")
    if args.format == "csv":
        print(header)
        for idx, val, eng in rows:
            print(f"{idx},{val},{eng if eng is not None else ''}")
    elif args.format == "latex":
        for idx, val, eng in rows:
            tail = f" & ${eng}$" if eng is not None else ""
            print(f"${idx}$ & ${val}${tail} \\\\")
    else:
        for idx, val, eng in rows:
            tail = f"  engine={eng}" if eng is not None else ""
            print(f"{idx}: {val}{tail}")
    return 0


def _family_csv(args) -> int:
    """(p, N, N+, N-, ratio) rows for a closed-form family."""
    closed = _DIHEDRAL[args.family][1]
    if args.p_min < 1:
        return _error(f"p must be at least 1, got {args.p_min}")
    if args.p_max < args.p_min:
        return _error(f"family-csv --p-max {args.p_max} is below --p-min {args.p_min}: no rows")
    print("p,N,N_plus,N_minus,ratio")
    for p in range(args.p_min, args.p_max + 1):
        npos, nneg = closed(p)
        n = npos + nneg
        print(f"{p},{n},{npos},{nneg},{Fraction(npos, n)}")
    return 0


# -- verification sweeps -------------------------------------------------------


def _sweep(name, cases, check) -> dict:
    """Run check(case) over cases: the report {theorem, cases_run,
    cases_passed, first_counterexample, elapsed_ms}, the first failing case
    (with the exception a crash raised) as the counterexample."""
    t0 = time.monotonic()
    passed = 0
    first = None
    done = 0
    for case in cases:
        done += 1
        try:
            ok = check(case)
        except Exception as exc:  # a crash is a counterexample with a reason
            ok = False
            first = first or f"{case!r}: {exc}"
        if ok:
            passed += 1
        elif first is None:
            first = repr(case)
    return {"theorem": name, "cases_run": done, "cases_passed": passed,
            "first_counterexample": first, "elapsed_ms": int((time.monotonic() - t0) * 1000)}


def _verify_thm_su2(args) -> dict:
    cases = [("cyclic", p) for p in range(2, args.p_max + 1)]
    cases += [("binary-dihedral", p) for p in range(2, 9)]
    cases += [(kind, 0) for kind in ("T", "O", "I")]
    expected = {"T": (9, 5, 14), "O": (17, 9, 26), "I": (40, 22, 62)}

    def check(case):
        kind, p = case
        if kind == "cyclic":
            return (signature_cyclic(p, p - 1) == signature_cyclic_closed(p)
                    and sig_mod.signature_pair(cyclic_gamma(p, p - 1))
                    == signature_cyclic_closed(p))
        if kind == "binary-dihedral":
            return sig_mod.signature_pair(binary_dihedral(p)) == closedforms.lambda_signature_closed(p)
        records = sig_mod.result_records(binary_polyhedral(kind), ("exact", "numeric"))
        return all((r["N_plus"], r["N_minus"], r["rank"]) == expected[kind] for r in records)

    return _sweep("thm-su2-signatures", cases, check)


def _verify_limit(args) -> dict:
    listed = [Fraction(x) for x in
              (1, 1, Fraction(5, 6), Fraction(5, 6), Fraction(4, 5), Fraction(4, 5),
               Fraction(11, 14), Fraction(11, 14), Fraction(7, 9))]

    def check(case):
        kind, val = case
        if kind == "listed":
            return T_closed(val + 1) == listed[val]
        if kind == "pair":
            return T_closed(2 * val - 1) == T_closed(2 * val)
        if kind == "monotone":
            return T_closed(val) >= T_closed(val + 1)
        if kind == "tail":
            return abs(T_closed(10 ** 6) - Fraction(3, 4)) < Fraction(1, 10 ** 5)
        if kind == "empirical":
            p, q = val
            ratio = sig_mod.positivity_ratio_from(
                sig_mod.Inertia(*signature_cyclic(p, q), 0))
            if abs(ratio - T_closed(q)) > Fraction(5, p):
                print(f"warning: |L(Gamma({p},{q})) - T({q})| > 5/{p}", file=sys.stderr)
            return True  # policy tolerance: warn, never fail
        raise ValueError(kind)

    cases = [("listed", i) for i in range(9)]
    cases += [("pair", r) for r in range(1, 5001)]
    cases += [("monotone", q) for q in range(1, 10 ** 4)]
    cases += [("tail", 0)]
    cases += [("empirical", (p, q)) for q in (3, 4, 5) for p in (100, 200, 400)]
    return _sweep("asymptotic-ratio", cases, check)


def _verify_dihedral(args) -> dict:
    def check(p):
        if p <= 12:
            if sig_mod.signature_pair(dihedral(p)) != closedforms.delta_signature_closed(p):
                return False
        n, npos = closedforms.delta_counts(p)
        if (npos, n - npos) != tuple(closedforms.delta_signature_closed(p)):
            return False
        return closedforms.delta_ratio(p) == Fraction(npos, n)

    return _sweep("thm-dihedral", list(range(3, args.p_max + 1)), check)


def _verify_cyclic_closed(args) -> dict:
    def check(p):
        if not verify_exact_formula(p):
            return False
        if f_closed_pminus1(p) != fpq(p, p - 1):
            return False
        return signature_cyclic(p, p - 1) == signature_cyclic_closed(p)

    return _sweep("thm-cyclic-closed", list(range(1, args.p_max + 1)), check)


def _verify_lww(args) -> dict:
    cases = [(p, q) for p in range(1, args.p_max + 1) for q in (2, 3, 4, 5, 7, 8)]

    def check(case):
        p, q = case
        poly = fpq(p, q)
        for (r, s), c in poly.items():
            w = weight(r, s, p, q)
            if w is None or (1 if c > 0 else -1) != lww_sign(r, s, w):
                return False
        return True

    return _sweep("lww-signs", cases, check)


def _verify_census(args) -> dict:
    cases = [(p, q) for p in range(1, args.p_max + 1) for q in range(2, 13)]

    def check(case):
        weight_census(*case)  # raises on any bound violation
        return True

    return _sweep("weight-census", cases, check)


def _verify_quaternion(args) -> dict:
    def check(p):
        return closedforms.phi_lambda_decomposed(p) == phi(binary_dihedral(p))

    return _sweep("quaternion-decomp", list(range(1, args.p_max + 1)), check)


def _verify_dihedral_decomp(args) -> dict:
    def check(p):
        return closedforms.phi_delta_decomposed(p) == phi(dihedral(p))

    return _sweep("dihedral-decomp", list(range(1, args.p_max + 1)), check)


def _verify_dk(args) -> dict:
    cases = [("dk", p) for p in range(1, 13)]
    cases += [("ek", p) for p in range(3, 21)]
    cases += [("ppoly", p) for p in range(1, 9)]

    def check(case):
        kind, p = case
        if kind == "dk":
            return closedforms.d_sign_check(p)
        if kind == "ek":
            return all(e > 0 for e in closedforms.e_coeffs(p))
        return closedforms.p_poly_roots_check(p)

    return _sweep("dk-signs", cases, check)


def _verify_chern(args) -> dict:
    cases = [(p, q) for p in range(1, args.p_max + 1) for q in range(1, p + 1)]

    def check(case):
        p, q = case
        G = cyclic_gamma(p, q)
        return chern.verify_chern_identity(G) and chern.chern_sum_as_fpq(G) == fpq(p, q)

    return _sweep("chern-identity", cases, check)


# theorem -> (sweep, default --p-max); None for a sweep with no p to bound
_VERIFIERS = {
    "thm1.1": (_verify_thm_su2, 40),
    "thm1.2-limit": (_verify_limit, None),
    "thm1.3": (_verify_dihedral, 200),
    "thm3.1": (_verify_cyclic_closed, 40),
    "lww": (_verify_lww, 60),
    "census": (_verify_census, 200),
    "quaternion-decomp": (_verify_quaternion, 6),
    "dihedral-decomp": (_verify_dihedral_decomp, 10),
    "dk-signs": (_verify_dk, None),
    "chern": (_verify_chern, 8),
}


def cmd_verify(args) -> int:
    runner, default_pmax = _VERIFIERS[args.theorem]
    if args.p_max is None:
        args.p_max = default_pmax
    elif default_pmax is None:
        return _error(f"verify {args.theorem} has no p to bound; drop --p-max {args.p_max}")
    report = runner(args)
    if report["cases_run"] == 0:
        return _error(f"verify {args.theorem} --p-max {args.p_max} has no cases to run")
    if args.stable_output:
        report.pop("elapsed_ms")
    print(json.dumps(report, sort_keys=True))
    if report["cases_passed"] != report["cases_run"]:
        print(f"counterexample: {report['first_counterexample']}", file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sig",
                                 description="Signature pairs of group-invariant Hermitian polynomials")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("signature", help="signature pair of one group")
    sp.add_argument("--group", required=True,
                    help="cyclic:p,q | dihedral:p | binary-dihedral:p | T | O | I | file:PATH")
    sp.add_argument("--method", choices=("exact", "numeric", "both"), default="exact")
    sp.add_argument("--precision", type=int, default=256, help="bits for the numeric oracle (at least 128)")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sp.add_argument("--stable-output", action="store_true",
                    help="omit timing fields so identical runs are byte-identical")
    sp.add_argument("--dump-poly", metavar="PATH", help="write the expanded polynomial as CSV")
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="report progress on stderr, one step per coset of the diagonal subgroup, "
                         "with the product's term count and the fold's slot width, then the "
                         "fold's cosets, orbits, peak term count and term products, then the "
                         "exact elimination's blocks, largest block and shifts")
    sp.set_defaults(func=cmd_signature)

    fp = sub.add_parser("fpq", help="the bivariate polynomials f_{p,q}")
    fp.add_argument("--p", type=int)
    fp.add_argument("--q", type=int, help="required with --p and with --table")
    fp.add_argument("--p-max", type=int, help="largest p of --table (default 9)")
    fp.add_argument("--table", action="store_true", help="print f_{p,q} for 1 <= p <= p-max")
    fp.add_argument("--table2", action="store_true", help="print the even/odd weight limit table")
    fp.add_argument("--format", choices=("text", "latex", "json", "csv"), default="text",
                    help="--table prints text or latex, --table2 text only")
    fp.set_defaults(func=cmd_fpq)

    vp = sub.add_parser("verify", help="run a verification sweep")
    vp.add_argument("theorem", choices=sorted(_VERIFIERS))
    vp.add_argument("--p-max", type=int, default=None,
                    help="largest p of the sweep (for thm1.1 it bounds only the cyclic cases); "
                         "dk-signs and thm1.2-limit have no p and refuse it")
    vp.add_argument("--stable-output", action="store_true")
    vp.set_defaults(func=cmd_verify)

    rp = sub.add_parser("ratio", help="positivity-ratio tables")
    rp.add_argument("--family", choices=("cyclic-T", "dihedral", "binary-dihedral"),
                    required=True)
    rp.add_argument("--p", type=int, help="one row of a dihedral family")
    rp.add_argument("--p-max", type=int, help="a dihedral family's last p (default 12)")
    rp.add_argument("--q-max", type=int, help="cyclic-T's last q (default 9)")
    rp.add_argument("--engine-max", type=int,
                    help="largest p with an engine value, dihedral families only (default 8)")
    rp.add_argument("--format", choices=("text", "csv", "latex"), default="text")
    rp.set_defaults(func=cmd_ratio)

    fc = sub.add_parser("family-csv", help="(p, N, N+, N-, ratio) closed-form family table")
    fc.add_argument("--family", choices=("dihedral", "binary-dihedral"), required=True)
    fc.add_argument("--p-min", type=int, default=3)
    fc.add_argument("--p-max", type=int, default=20)
    fc.set_defaults(func=_family_csv)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
