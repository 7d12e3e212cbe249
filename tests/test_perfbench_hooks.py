"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracing.py` wraps public functions of the package by name, so a
refactor that renames one breaks the benchmark; this test breaks first.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("tracing")


def test_tracer_installs_and_uninstalls_its_hooks(bench):
    workloads, tracing = bench
    tracer = tracing.Tracer()
    originals = {}
    tracer.install(workloads)
    try:
        for owner, attr, original in tracer._installed:
            originals[owner, attr] = original
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert len(originals) == 14
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr


def test_traced_families_pass_keeps_its_fingerprint_counters(bench):
    # the six counters of the benchmark's families fingerprint (seed 53): a
    # fast path that skips a sign() call or miscounts a block fails here first
    workloads, tracing = bench
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        failures = [(job.label, workloads.run_job(job)) for job in workloads.build("families", 53)]
    finally:
        tracer.uninstall()
    assert [f for f in failures if f[1] is not None] == []
    counters = {name: tracer.counters[name] for name in (
        "invariant.factors", "invariant.phi_terms", "signature.dim", "signature.blocks",
        "signature.max_block", "cyclotomic.sign_calls")}
    assert counters == {"invariant.factors": 1728, "invariant.phi_terms": 1490,
                        "signature.dim": 1370, "signature.blocks": 1304,
                        "signature.max_block": 3, "cyclotomic.sign_calls": 1310}


def test_traced_polyhedral_pass_keeps_its_fingerprint_counters(bench):
    # T and O in Springer form (seed 53): every coefficient and matrix entry
    # is rational, so a rational fast path that skips a sign() call fails here
    workloads, tracing = bench
    tracer = tracing.Tracer()
    tracer.install(workloads)
    try:
        failures = [(job.label, workloads.run_job(job))
                    for job in workloads.build("polyhedral", 53)]
    finally:
        tracer.uninstall()
    assert [f for f in failures if f[1] is not None] == []
    counters = {name: tracer.counters[name] for name in (
        "invariant.factors", "invariant.phi_terms", "signature.dim", "signature.blocks",
        "signature.max_block", "cyclotomic.sign_calls")}
    assert counters == {"invariant.factors": 72, "invariant.phi_terms": 1432,
                        "signature.dim": 194, "signature.blocks": 31,
                        "signature.max_block": 13, "cyclotomic.sign_calls": 40}
