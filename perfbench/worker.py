"""One pass of one workload, in the fresh interpreter `run.py` starts for it.

A pass is the closed loop of `workloads.run_job` over the workload's groups:
one caller, and the next group starts only after the previous group's pair
is certified and checked.  The pass prints one JSON line: the monotonic time
at which set-up ended (so the parent can time interpreter start, `import
sigpair` and input building), then wall and CPU time of the loop, peak RSS,
the failures and, with --trace, the layer times and counters.

    python3 perfbench/worker.py --workload families --seed 1 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def run_pass(workloads, jobs, tracer=None) -> dict:
    failures = []
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for i, job in enumerate(jobs):
        if tracer:
            tracer.group_id = i
            span = tracer.begin("bench.group")
        try:
            error = workloads.run_job(job)
        except Exception as exc:  # a failed group is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end(span)
        if error:
            failures.append(f"{job.label}: {error}")
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(jobs),
        "failures": failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans to this file")
    args = ap.parse_args(argv)

    import workloads

    jobs = workloads.build(args.workload, args.seed)
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(workloads)
        result.update(run_pass(workloads, jobs, tracer))
        if tracer:
            tracer.uninstall()
            result["layers"] = tracer.layer_seconds()
            result["counters"] = tracer.counters
            result["phi_rss_rise_mb"] = tracer.phi_rss_rise_mb
            if args.spans:
                tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
