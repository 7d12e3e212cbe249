"""Tests of the benchmark itself: its contract file, the correctness gate,
span accounting and the deterministic counter fingerprints.

    python3 -m pytest perfbench/tests -q      # about two minutes

The fingerprint tests run traced passes of the real workloads, so they check
exactly the counts that later changes may rest count claims on.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads
from tracing import Tracer
from worker import run_pass

BENCH_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_reports():
    assert BENCH_JSON["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCH_JSON["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH_JSON["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH_JSON["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCH_JSON["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _tiny_job(reference=("cyclic", 5, 4)):
    return workloads.Job("tiny", workloads._base(reference), reference, True)


def test_gate_accepts_a_correct_pair():
    assert workloads.run_job(_tiny_job()) is None


def test_gate_reports_a_wrong_reference(monkeypatch):
    monkeypatch.setattr(workloads, "expected_pair", lambda ref: (0, 0))
    assert "reference" in workloads.run_job(_tiny_job())


def test_gate_reports_numeric_disagreement(monkeypatch):
    real = workloads.signature.inertia_numeric
    monkeypatch.setattr(workloads.signature, "inertia_numeric",
                        lambda M, bits, zero: real(M, bits, zero)._replace(n_zero=-1))
    assert "numeric" in workloads.run_job(_tiny_job())


def test_pass_counts_an_exception_as_a_failure(capsys):
    def broken():
        raise ValueError("no group")

    jobs = [_tiny_job(), workloads.Job("broken", broken, ("cyclic", 1, 1), False)]
    result = run_pass(workloads, jobs)
    assert result["attempted"] == 2
    assert result["failures"] == ["broken: ValueError: no group"]


def test_conjugators_are_non_monomial_elements_of_I():
    elements = workloads.group.binary_polyhedral("I").element_keys()
    seen = set()
    for seed in range(20):
        u = workloads.conjugator(seed)
        assert u.key() in elements
        assert not any(e.is_zero() for e in u.entries)
        seen.add(u.key())
    assert len(seen) == 5


def test_self_time_and_outermost_layer_time():
    tracer = Tracer()
    outer = tracer.begin("group.binary_polyhedral")
    inner = tracer.begin("group.closure")
    tracer.end(inner)
    tracer.end(outer)
    tracer.spans[outer][1:3] = [0.0, 3.0]
    tracer.spans[inner][1:3] = [1.0, 2.0]
    assert tracer.self_times() == [2.0, 1.0]
    assert tracer.layer_seconds()["group.construct"] == 3.0


def test_tracer_uninstall_restores_the_program():
    before = (workloads.invariant.phi, workloads.group.closure)
    tracer = Tracer()
    tracer.install(workloads)
    assert workloads.invariant.phi is not before[0]
    tracer.uninstall()
    assert (workloads.invariant.phi, workloads.group.closure) == before


def _traced_fingerprint(workload, seed):
    result = run.Runner(workload, seed, time.monotonic() + run.RUN_LIMIT_S).child("--trace")
    assert result["failures"] == []
    return run.fingerprint(result["counters"])


@pytest.mark.parametrize("workload", ["polyhedral", "families", "certify"])
def test_fingerprint_repeats_across_runs_and_seeds(workload):
    # Certify's seed only twists the conjugator by a diagonal phase, which
    # keeps supports, blocks and pivots, so no fingerprint depends on the seed.
    assert _traced_fingerprint(workload, 1) == _traced_fingerprint(workload, 2)


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "families",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
