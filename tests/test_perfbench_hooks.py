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
