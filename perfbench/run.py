"""Benchmark of certified signature pairs: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload polyhedral --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 0    # every workload, untraced
    python3 perfbench/run.py --workload all --trace 1    # per-layer metrics, overhead

Every pass runs in a fresh interpreter (`worker.py`), as each `sig` call
does, so every pass pays the `lru_cache` fill of `sigpair.cyclotomic` and
reports its own peak RSS.  Passes repeat while the next one is expected to
end within --seconds; there is always at least one.  Untraced runs report
the medians of wall time, CPU time, peak RSS and set-up time.  Traced runs
first time one untraced pass, then traced passes, and report layer times,
the deterministic counters and the tracing overhead.  The last line of
stdout is one JSON object; the exit code is 1 if any group failed its checks
or the counters did not repeat, and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("polyhedral", "families", "certify")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "group.construct_s": "s",
    "invariant.phi_s": "s",
    "invariant.factors": "count",
    "invariant.phi_terms": "count",
    "invariant.phi_rss_rise_mb": "MB",
    "signature.coefficient_matrix_s": "s",
    "signature.inertia_exact_s": "s",
    "signature.gauss_rank_s": "s",
    "signature.inertia_numeric_s": "s",
    "signature.dim": "count",
    "signature.blocks": "count",
    "signature.max_block": "count",
    "cyclotomic.sign_calls": "count",
    "cyclotomic.sign_irrational_calls": "count",
    "cyclotomic.max_sign_bits": "bits",
    "cyclotomic.sign_s": "s",
    "reference.check_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
FINGERPRINT = ("invariant.factors", "invariant.phi_terms", "signature.dim",
               "signature.blocks", "signature.max_block", "cyclotomic.sign_calls")
SETUP_PROBES = 5
# A run must end within 180 s; no child may outlive this share of it.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, a crashed or stuck pass)."""


def fingerprint(counters: dict) -> str:
    data = json.dumps({k: counters[k] for k in FINGERPRINT}, sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()[:16]


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                        PYTHONPATH=os.pathsep.join(
                            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.setups: list[float] = []

    def child(self, *flags: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload}: pass exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{self.workload}: worker exited with {proc.returncode}\n{proc.stderr}")
        sys.stderr.write(proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setups.append(result["ready"] - spawned)
        return result

    def passes(self, seconds: float, flags=lambda i: ()) -> list[dict]:
        """Passes while the next is expected to end within `seconds`; at least one."""
        start = time.monotonic()
        out = []
        while True:
            t0 = time.monotonic()
            out.append(self.child(*flags(len(out))))
            took = time.monotonic() - t0
            if time.monotonic() + took - start > seconds:
                return out


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


class Outcome:
    def __init__(self, metrics: dict, results: list[dict], fingerprint: str | None = None):
        self.metrics = metrics  # name -> (value, unit)
        self.attempted = sum(r["attempted"] for r in results)
        self.failures = [f for r in results for f in r["failures"]]
        self.fingerprint = fingerprint


def measure_untraced(runner: Runner, seconds: float) -> Outcome:
    for _ in range(SETUP_PROBES):
        runner.child("--setup-only")
    results = runner.passes(seconds)
    metrics = {name: (_median(results, name), unit)
               for name, unit in END_TO_END.items() if name != "setup_s"}
    metrics["setup_s"] = (statistics.median(runner.setups), "s")
    return Outcome(metrics, results)


def measure_traced(runner: Runner, seconds: float) -> Outcome:
    """One untraced pass for the overhead baseline, then traced passes."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    start = time.monotonic()
    baseline = runner.child()
    stem = f"spans-{runner.workload}-seed{runner.seed}"
    traced = runner.passes(seconds - (time.monotonic() - start),
                           lambda i: ("--trace", "--spans", str(out_dir / f"{stem}-pass{i}.json")))
    values = dict(traced[0]["counters"])
    for layer in traced[0]["layers"]:
        values[layer + "_s"] = statistics.median(r["layers"][layer] for r in traced)
    values["invariant.phi_rss_rise_mb"] = _median(traced, "phi_rss_rise_mb")
    values["trace.wall_s"] = _median(traced, "wall_s")
    values["trace.overhead_s"] = values["trace.wall_s"] - baseline["wall_s"]
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    prints = {fingerprint(r["counters"]) for r in traced}
    outcome = Outcome(metrics, [baseline] + traced, min(prints))
    if len(prints) > 1:
        outcome.failures.append(f"counters differ between passes: {sorted(prints)}")
    return outcome


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sigpair" / "__init__.py").is_file():
        print(f"no sigpair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failures = {}, 0, []
    for workload in names:
        runner = Runner(workload, args.seed, time.monotonic() + RUN_LIMIT_S)
        try:
            outcome = (measure_traced if args.trace else measure_untraced)(runner, args.seconds)
        except BenchError as exc:
            print(exc, file=sys.stderr)
            return 2
        for failure in outcome.failures:
            print(f"FAILED {workload} {failure}", file=sys.stderr)
        attempted += outcome.attempted
        failures += outcome.failures
        for name, (value, unit) in outcome.metrics.items():
            print(f"{workload:<11} {name:<32} {value:>14.6f} {unit}")
            metrics[name if len(names) == 1 else f"{workload}.{name}"] = {"value": value, "unit": unit}
        print(f"{workload:<11} {'failed_frac':<32} {len(outcome.failures) / outcome.attempted:>14.6f} frac")
        if outcome.fingerprint:
            print(f"{workload:<11} fingerprint {outcome.fingerprint} "
                  + json.dumps({k: outcome.metrics[k][0] for k in FINGERPRINT}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
