"""CLI contract: outputs, exit codes, determinism."""

import json
import time
from fractions import Fraction

import pytest

from sigpair import cli, closedforms, invariant, signature
from sigpair.cli import main
from sigpair.cyclotomic import Cyclotomic, root_of_unity
from sigpair.group import (antidiag, binary_dihedral, binary_polyhedral, closure, cyclic_gamma,
                           diag, dihedral, FiniteMatrixGroup, identity, Matrix2,
                           springer_generators)
from sigpair.invariant import pack_key
from helpers import dump_generators, elementwise, icosahedral_conjugator, phi_row


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_signature_tetrahedral(capsys):
    code, out, err = run_cli(capsys, "signature", "--group", "T", "--stable-output")
    assert code == 0
    rec = json.loads(out)
    assert rec["N_plus"] == 9 and rec["N_minus"] == 5
    assert rec["order"] == 24
    assert "elapsed_ms" not in rec


def test_signature_cyclic(capsys):
    code, out, _ = run_cli(capsys, "signature", "--group", "cyclic:5,4")
    assert code == 0
    rec = json.loads(out)
    assert (rec["N_plus"], rec["N_minus"]) == (3, 1)
    assert "elapsed_ms" in rec


def test_signature_both_methods(capsys):
    code, out, _ = run_cli(capsys, "signature", "--group", "binary-dihedral:2",
                           "--method", "both", "--stable-output")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    recs = [json.loads(line) for line in lines]
    assert {r["method"] for r in recs} == {"exact", "numeric"}
    assert all((r["N_plus"], r["N_minus"]) == (5, 1) for r in recs)


def test_signature_from_file(capsys, tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(dump_generators([Matrix2(-1, 0, 0, -1)])))
    code, out, _ = run_cli(capsys, "signature", "--group", f"file:{path}")
    assert code == 0
    rec = json.loads(out)
    assert (rec["N_plus"], rec["N_minus"]) == (3, 0)


def test_signature_file_not_unitary(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dump_generators([diag(2, 1)])))
    code, out, err = run_cli(capsys, "signature", "--group", f"file:{path}")
    assert code == 3
    assert out == ""
    assert "unitary" in err


@pytest.mark.parametrize("generators", [
    [Matrix2(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))],
    [Matrix2(Fraction(3, 5), Fraction(4, 5), Fraction(4, 5), Fraction(-3, 5)), antidiag(1, 1)],
], ids=["rotation", "reflections"])
def test_generator_file_of_infinite_order_exit_3(capsys, tmp_path, generators):
    # a rotation of infinite order and two reflections whose product is one:
    # closure used to run to the default cap, 71.5 s and 7.9 s, before exit 3
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(dump_generators(generators)))
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "signature", "--group", f"file:{path}")
    assert time.monotonic() - t0 < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "infinite order" in err


def test_signature_group_too_large_exit_3(capsys, monkeypatch):
    big = FiniteMatrixGroup([identity()] * 65536, "big")
    monkeypatch.setattr(cli, "_parse_group", lambda spec: big)
    code, out, err = run_cli(capsys, "signature", "--group", "big")
    assert code == 3
    assert out == ""
    assert "65535" in err


@pytest.mark.parametrize("spec, order", [("cyclic:70000,1", 70000), ("dihedral:40000", 80000),
                                         ("binary-dihedral:20000", 80000),
                                         ("dihedral:32768", 65536)])
def test_family_spec_above_the_order_limit_exit_3_unbuilt(capsys, monkeypatch, spec, order):
    # the order is read from the spec, so no group is built
    kind = spec.partition(":")[0]
    _, shape, per_p = cli._FAMILIES[kind]

    def unbuilt(*params):
        raise AssertionError(f"{spec} was built")

    monkeypatch.setitem(cli._FAMILIES, kind, (unbuilt, shape, per_p))
    code, out, err = run_cli(capsys, "signature", "--group", spec)
    assert (code, out) == (3, "")
    assert err == f"error: group order {order} exceeds the packed-exponent limit 65535\n"


def test_signature_expands_phi_once(capsys, monkeypatch, tmp_path):
    calls = []

    def counted(G, progress=None, stats=None):
        calls.append(G.label)
        return invariant.phi(G, progress=progress, stats=stats)

    monkeypatch.setattr(cli, "phi", counted)
    monkeypatch.setattr(signature, "phi", counted)
    code, out, _ = run_cli(capsys, "signature", "--group", "binary-dihedral:2",
                           "--method", "both", "--dump-poly", str(tmp_path / "poly.csv"))
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    assert len(calls) == 1


def test_both_methods_build_one_matrix_and_check_the_precision_floor_first(capsys, monkeypatch):
    built = []

    def counted(P):
        built.append(P.term_count())
        return coefficient_matrix(P)

    coefficient_matrix = signature.coefficient_matrix
    monkeypatch.setattr(signature, "coefficient_matrix", counted)
    code, out, _ = run_cli(capsys, "signature", "--group", "T", "--method", "both")
    assert (code, len(out.splitlines()), len(built)) == (0, 2, 1)

    # Gamma(1000,1)'s matrix needs 1111 bits for the numeric oracle: the run
    # fails at the default 256 before the exact elimination starts
    def not_called(*args, **kwargs):
        raise AssertionError("the exact elimination ran")

    monkeypatch.setattr(signature, "inertia_exact", not_called)
    code, out, err = run_cli(capsys, "signature", "--group", "cyclic:1000,1", "--method", "both")
    assert (code, out) == (2, "")
    assert err == ("error: the matrix has entries up to 2^994.7, so the numeric oracle needs at "
                   "least 1111 bits at zero threshold 1e-30, got 256\n")


@pytest.mark.parametrize("spec, last, fold", [
    ("cyclic:40,39", "factor 1/1", "0 cosets in 0 orbits, peak 23 terms, 0 term pairs"),
    ("O", "factor 6/6", "5 cosets in 2 orbits, peak 1585 terms, 33427 term pairs"),
], ids=["cyclic:40,39-factor 1/1", "O-factor 6/6"])
def test_verbose_progress_counts_cosets(capsys, spec, last, fold):
    # one step per coset of the diagonal subgroup, the diagonal product first;
    # the fold's counters follow the last step, and the elimination's line them
    code, _, err = run_cli(capsys, "signature", "--group", spec, "-v", "--stable-output")
    assert code == 0
    label = cli._parse_group(spec).label
    assert err.splitlines()[-3].startswith(f"{label}: {last}, ")
    assert err.splitlines()[-2] == f"{label}: fold, {fold}"
    assert err.splitlines()[-1].startswith(f"{label}: elimination, ")


def _elimination_line(G):
    stats = {}
    signature.inertia_exact(signature.coefficient_matrix(invariant.phi(G)), stats)
    return (f"{G.label}: elimination, {stats['blocks']} blocks, largest {stats['max_block']}, "
            f"{stats['shifts']} shifts")


@pytest.mark.parametrize("spec", ["cyclic:40,39", "O", "dihedral:6"])
def test_verbose_progress_reports_terms_and_slot_width(capsys, spec):
    # each line carries the product's term count and, once a coset factor is
    # folded, the slot width of that fold step; stdout does not change
    G = cli._parse_group(spec)
    steps, fold = [], {}
    invariant.phi(G, progress=lambda *step: steps.append(step), stats=fold)
    code, out, err = run_cli(capsys, "signature", "--group", spec, "-v", "--stable-output")
    assert code == 0
    expect = [f"{G.label}: factor {done}/{total}, {terms} terms"
              + ("" if width is None else f", {width}-bit slots")
              for done, total, terms, width in steps if done % 10 == 0 or done == total]
    expect.append(f"{G.label}: fold, {fold['cosets']} cosets in {fold['orbits']} orbits, "
                  f"peak {fold['peak_terms']} terms, {fold['term_pairs']} term pairs")
    assert err.splitlines() == expect + [_elimination_line(G)]
    # the product's constant 1 is the one term that Phi drops
    assert steps[-1][2] == invariant.phi(G).term_count() + 1
    assert [width is None for *_, width in steps] == [True] + [False] * (len(steps) - 1)
    assert run_cli(capsys, "signature", "--group", spec, "--stable-output") == (0, out, "")


@pytest.mark.parametrize("spec, line", [
    ("T", "T: elimination, 13 blocks, largest 7, 0 shifts"),
    ("dihedral:3", "Delta(3): elimination, 5 blocks, largest 3, 1 shifts"),
])
def test_verbose_reports_the_elimination(capsys, spec, line):
    # one stderr line after the exact elimination; stdout is the same as without -v
    code, out, err = run_cli(capsys, "signature", "--group", spec, "--method", "both",
                             "-v", "--stable-output")
    assert code == 0
    assert err.splitlines()[-1] == line
    assert [ln for ln in err.splitlines() if ": elimination, " in ln] == [line]
    assert run_cli(capsys, "signature", "--group", spec, "--method", "both",
                   "--stable-output") == (0, out, "")


@pytest.fixture
def conjugated_dihedral_file(tmp_path):
    """Generators of Delta_6 conjugated by r^2 (r^4 t s)^2 from the icosahedral group."""
    r, s, t = springer_generators("I")
    u = r ** 2 * (r ** 4 * t * s) ** 2
    rot, refl = diag(root_of_unity(6, 1), root_of_unity(6, 5)), antidiag(1, 1)
    path = tmp_path / "delta6u.json"
    path.write_text(json.dumps(dump_generators([u * g * u.dagger() for g in (rot, refl)])))
    return path


def test_default_precision_cap_certifies(capsys, conjugated_dihedral_file):
    # sign() derives its precision bound from each element; no setting caps it
    code, out, _ = run_cli(capsys, "signature", "--group", f"file:{conjugated_dihedral_file}",
                           "--stable-output")
    assert code == 0
    rec = json.loads(out)
    assert rec["order"] == 12
    assert (rec["N_plus"], rec["N_minus"]) == tuple(closedforms.delta_signature_closed(6))


@pytest.mark.parametrize("bits", ["0", "-5", "8", "64"])
def test_numeric_precision_below_floor_exit_2(capsys, monkeypatch, bits):
    computed = []
    monkeypatch.setattr(cli, "phi", lambda *args, **kwargs: computed.append(args))
    code, out, err = run_cli(capsys, "signature", "--group", "T", "--method", "numeric",
                             f"--precision={bits}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert computed == []


def test_numeric_precision_floor_certifies(capsys):
    code, out, _ = run_cli(capsys, "signature", "--group", "T", "--method", "numeric",
                           "--precision", "128", "--stable-output")
    assert code == 0
    rec = json.loads(out)
    assert (rec["N_plus"], rec["N_minus"]) == (9, 5)


def test_numeric_precision_below_the_matrix_floor_exit_2(capsys, monkeypatch):
    scaled = invariant.phi(binary_polyhedral("T")) * 2 ** 60
    monkeypatch.setattr(cli, "phi", lambda G, progress=None, stats=None: scaled)
    code, out, err = run_cli(capsys, "signature", "--group", "T", "--method", "numeric",
                             "--precision", "128")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "2^71" in err


_ONE = {"order": 1, "coords": [[0, "1/1"]]}
_ZERO = {"order": 1, "coords": []}


def _diag_roots(p, q):
    """diag(zeta_p, 1) and diag(1, zeta_q) as a generator file."""
    root = [{"order": m, "coords": [[1, "1/1"]]} for m in (p, q)]
    return {"generators": [[[root[0], _ZERO], [_ZERO, _ONE]], [[_ONE, _ZERO], [_ZERO, root[1]]]]}


@pytest.mark.parametrize("data, fault", [
    ({"generators": [[1, 2]]}, "2x2"),
    ({"generators": [[[{"order": 1, "coords": [[0, "1/0"]]}, _ZERO], [_ZERO, _ONE]]]},
     "den > 0"),
    ([[[_ONE, _ZERO], [_ZERO, _ONE]]], "must be an object"),
    ({"generators": [[[_ONE, _ZERO], [_ZERO, _ONE]]], "cap": None}, "cap"),
    ({"generators": [[[{"order": 2.5, "coords": [[1, "1/1"]]}, _ZERO], [_ZERO, _ONE]]]},
     "order"),
    ({"generators": [[[{"order": 4, "coords": [[1, "1/2"], [1, "1/2"]]}, _ZERO],
                      [_ZERO, {"order": 4, "coords": [[3, "1/1"]]}]]]}, "repeats"),
    ('{"generators": ' + "[" * 100000 + "]" * 100000 + "}", "recursion"),
    # diag(1, 1) written in Q(zeta_55440): building that field took minutes
    ({"generators": [[[{"order": 55440, "coords": [[0, "1/1"]]}, _ZERO],
                      [_ZERO, _ONE]]]}, "order must be at most 4096, got 55440"),
    # each order is allowed alone, but closure would promote both generators
    # to Q(zeta_pq): unchecked, (101, 103) ran 99 s before exiting 3, and
    # (997, 991) was still building Phi_988027 after 60 s
    (_diag_roots(101, 103), "common field order must be at most 4096, got 10403"),
    (_diag_roots(997, 991), "common field order must be at most 4096, got 988027"),
], ids=["row-not-a-matrix", "zero-denominator", "top-level-array", "null-cap",
        "fractional-order", "repeated-exponent", "deep-nesting", "huge-order",
        "common-order-10403", "common-order-988027"])
def test_malformed_generator_file_exit_2(capsys, tmp_path, data, fault):
    path = tmp_path / "gens.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "signature", "--group", f"file:{path}")
    assert time.monotonic() - t0 < 1  # rejected before any group is built
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and fault in err


def test_signature_bad_spec(capsys):
    code, out, err = run_cli(capsys, "signature", "--group", "nonsense:1")
    assert code == 2
    assert out == ""
    assert err


@pytest.mark.parametrize("spec, shape", [("cyclic:3", "cyclic:P,Q"), ("cyclic:1,2,3", "cyclic:P,Q"),
                                         ("cyclic:3,x", "cyclic:P,Q"), ("dihedral:", "dihedral:P")])
def test_malformed_group_spec_exit_2(capsys, spec, shape):
    code, out, err = run_cli(capsys, "signature", "--group", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(spec) in err and shape in err


def test_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["signature"])
    assert err.value.code == 2


def test_fpq_single(capsys):
    code, out, _ = run_cli(capsys, "fpq", "--p", "6", "--q", "4")
    assert code == 0
    assert out.strip() == "x^6+6x^2y-3x^4y^2+2y^3+3x^2y^4-y^6"
    code, out, _ = run_cli(capsys, "fpq", "--p", "2", "--q", "1")
    assert out.strip() == "x^2+2xy+y^2"


def test_fpq_table_matches_family(capsys):
    code, out, _ = run_cli(capsys, "fpq", "--table", "--q", "4", "--p-max", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert lines[0] == "f_{1,4}(x,y) = x+y"
    assert lines[7] == "f_{8,4}(x,y) = x^8+8x^4y+4y^2+8x^4y^3-6y^4+4y^6-y^8"


def test_fpq_missing_p(capsys):
    code, out, err = run_cli(capsys, "fpq", "--q", "4")
    assert code == 2 and err


def test_fpq_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "fpq", "--p", "2", "--q", "4", "--format", "csv")
    assert out.splitlines()[0] == "r,s,coefficient"
    code, out, _ = run_cli(capsys, "fpq", "--p", "2", "--q", "4", "--format", "json")
    assert json.loads(out) == {"0,1": 2, "0,2": -1, "2,0": 1}


def test_ratio_cyclic_T(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--family", "cyclic-T", "--q-max", "9")
    vals = [line.split(": ")[1] for line in out.strip().splitlines()]
    assert vals == ["1", "1", "5/6", "5/6", "4/5", "4/5", "11/14", "11/14", "7/9"]


def test_ratio_dihedral(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--family", "dihedral", "--p", "7")
    assert out.strip().startswith("7: 1/2")


def test_ratio_binary_dihedral(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--family", "binary-dihedral", "--p", "10",
                           "--engine-max", "0")
    assert out.strip() == "10: 17/22"


def test_family_csv(capsys):
    code, out, _ = run_cli(capsys, "family-csv", "--family", "dihedral",
                           "--p-min", "3", "--p-max", "4")
    lines = out.strip().splitlines()
    assert lines[0] == "p,N,N_plus,N_minus,ratio"
    assert lines[1] == "3,6,3,3,1/2"
    assert lines[2] == "4,8,5,3,5/8"


@pytest.mark.parametrize("argv", [
    ("fpq", "--p", "0", "--q", "2"),
    ("fpq", "--p", "-3", "--q", "2"),
    ("ratio", "--family", "dihedral", "--p", "2"),
    ("ratio", "--family", "binary-dihedral", "--p", "0"),
    ("family-csv", "--family", "dihedral", "--p-min", "-5"),
    ("family-csv", "--family", "binary-dihedral", "--p-min", "0"),
])
def test_p_out_of_range_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_family_csv_from_p_1_matches_the_engine(capsys):
    for family, build in (("dihedral", dihedral), ("binary-dihedral", binary_dihedral)):
        code, out, _ = run_cli(capsys, "family-csv", "--family", family,
                               "--p-min", "1", "--p-max", "4")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
        for p, _, npos, nneg, _ in rows:
            assert signature.signature_pair(build(int(p))) == (int(npos), int(nneg))


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "thm3.1", "--p-max", "12",
                           "--stable-output")
    assert code == 0
    rep = json.loads(out)
    assert rep["cases_passed"] == rep["cases_run"] == 12
    assert rep["first_counterexample"] is None


@pytest.mark.parametrize("theorem, p_max", [("thm3.1", "-1"), ("census", "0")])
def test_verify_empty_sweep_exit_2(capsys, theorem, p_max):
    code, out, err = run_cli(capsys, "verify", theorem, "--p-max", p_max, "--stable-output")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert theorem in err and f"--p-max {p_max}" in err


def test_verify_fixed_cases_need_no_p_max(capsys):
    # thm1.2-limit's cases do not depend on p
    code, out, _ = run_cli(capsys, "verify", "thm1.2-limit", "--stable-output")
    assert code == 0
    assert json.loads(out)["cases_run"] > 0


@pytest.mark.parametrize("theorem", ["dk-signs", "thm1.2-limit"])
def test_verify_p_max_on_a_sweep_with_no_p_exit_2(capsys, theorem):
    code, out, err = run_cli(capsys, "verify", theorem, "--p-max", "0", "--stable-output")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert theorem in err and "--p-max 0" in err


@pytest.mark.parametrize("theorem, p_max, cases", [
    ("thm1.3", "5", 3),                 # p = 3..5
    ("chern", "3", 6),                  # (p, q), 1 <= q <= p <= 3
    ("quaternion-decomp", "2", 2),      # p = 1, 2
    ("dihedral-decomp", "3", 3),        # p = 1..3
])
def test_verify_p_max_bounds_the_sweep(capsys, theorem, p_max, cases):
    code, out, _ = run_cli(capsys, "verify", theorem, "--p-max", p_max, "--stable-output")
    assert code == 0
    rep = json.loads(out)
    assert rep["cases_passed"] == rep["cases_run"] == cases


def test_verify_help_says_p_max_bounds_only_thm1_1_cyclic_cases(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "for thm1.1 it bounds only the cyclic cases" in help_text


def test_verify_quaternion(capsys):
    code, out, _ = run_cli(capsys, "verify", "quaternion-decomp", "--stable-output")
    assert code == 0
    assert json.loads(out)["cases_passed"] == 6


def test_verify_unknown_theorem_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "thm9.9"])
    assert err.value.code == 2


def test_determinism_stable_output(capsys):
    args = ("signature", "--group", "binary-dihedral:3", "--stable-output")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_dump_poly(capsys, tmp_path):
    path = tmp_path / "poly.csv"
    code, _, _ = run_cli(capsys, "signature", "--group", "cyclic:2,4",
                         "--dump-poly", str(path), "--stable-output")
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("0,1,0,1,")


def test_dump_poly_of_a_conjugated_tetrahedral_file_is_written_at_the_least_field(capsys,
                                                                                 tmp_path):
    # T conjugated by r^4 (r^4 t s)^2 in I: the file is written at order 40,
    # the group's entries lie in Q(zeta_20), and so do Phi's coefficients
    u = icosahedral_conjugator(4)
    r, s, t = springer_generators("T")
    gens = [u * g * u.dagger() for g in (s * t.inverse(), t)]
    assert {e.order for g in gens for e in g.entries} == {40}
    source, path = tmp_path / "tu.json", tmp_path / "poly.csv"
    source.write_text(json.dumps(dump_generators(gens)))
    code, out, _ = run_cli(capsys, "signature", "--group", f"file:{source}", "--method", "both",
                           "--stable-output", "--dump-poly", str(path))
    assert code == 0
    assert out == "".join(
        '{"N": 14, "N_minus": 5, "N_plus": 9, "group": "custom", "method": "%s", '
        '"order": 24, "rank": 14, "ratio": "9/14"}\n' % method for method in ("exact", "numeric"))
    rows = {}
    for line in path.read_text().splitlines():
        *quad, coeff = line.split(",", 4)
        rows[tuple(map(int, quad))] = coeff
    # zeta_40^8 = zeta_20^4 and zeta_40^12 = zeta_20^6
    assert rows[0, 6, 0, 6] == ('{"coords": [[0, "84/125"], [4, "-12/125"], [6, "12/125"]], '
                                '"order": 20}')
    coeffs = {pack_key(*quad): Cyclotomic.from_json_dict(json.loads(c)) for quad, c in rows.items()}
    assert {c.order for c in coeffs.values()} <= {1, 20}
    # the element-wise fold at the lcm order 40 of the file's entries
    oracle = elementwise(closure(gens), phi_row, 40)
    assert coeffs.keys() == oracle.terms.keys()
    assert all(coeffs[key] == c for key, c in oracle.terms.items())


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_dump_poly_to_an_unwritable_path_exit_2_before_the_expansion(capsys, monkeypatch, tmp_path,
                                                                     where):
    path = tmp_path / "missing" / "poly.csv" if where == "missing-directory" else tmp_path
    monkeypatch.setattr(cli, "phi", lambda *args, **kwargs: pytest.fail("expanded Phi"))
    code, out, err = run_cli(capsys, "signature", "--group", "T", "--dump-poly", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("argv, bound", [
    (["ratio", "--family", "dihedral", "--p-max", "2"], "--p-max 2"),
    (["ratio", "--family", "binary-dihedral", "--p-max", "1"], "--p-max 1"),
    (["ratio", "--family", "cyclic-T", "--q-max", "0"], "--q-max 0"),
    (["family-csv", "--family", "dihedral", "--p-min", "5", "--p-max", "3"], "--p-max 3"),
    (["fpq", "--q", "3", "--table", "--p-max", "0"], "--p-max 0"),
])
def test_empty_range_exit_2(capsys, argv, bound):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bound in err


@pytest.mark.parametrize("before", [None, "kept\n"])
def test_dump_poly_of_a_failed_run_leaves_the_path_as_it_was(capsys, monkeypatch, tmp_path, before):
    # a Phi whose matrix needs more bits than --precision fails after the expansion
    path = tmp_path / "poly.csv"
    if before is not None:
        path.write_text(before)
    scaled = invariant.phi(binary_polyhedral("T")) * 2 ** 60
    monkeypatch.setattr(cli, "phi", lambda G, progress=None, stats=None: scaled)
    code, _, _ = run_cli(capsys, "signature", "--group", "T", "--method", "numeric",
                         "--precision", "128", "--dump-poly", str(path))
    assert code == 2
    assert (path.read_text() if path.exists() else None) == before


def test_dump_poly_replaces_an_existing_file(capsys, tmp_path):
    path = tmp_path / "poly.csv"
    path.write_text("old\n" * 100)
    code, _, _ = run_cli(capsys, "signature", "--group", "cyclic:2,4", "--dump-poly", str(path))
    assert code == 0
    assert path.read_text().splitlines() == list(invariant.phi(cyclic_gamma(2, 4)).csv_rows())
