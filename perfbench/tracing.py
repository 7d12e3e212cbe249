"""Layer spans and counters, recorded from outside by wrapping public functions.

Only a traced pass installs a `Tracer`, so no wrapper exists in an untraced
pass.  Each wrapped call appends one span (name, start, end, parent
span, group id) to an in-memory list; the list is written out once, at the
end, with every span's self time (its duration minus its children's).
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time

from workloads import group, invariant, signature

cyclotomic = importlib.import_module("sigpair.cyclotomic")
intervals = importlib.import_module("sigpair.intervals")

# span name -> layer; a layer's time is the time of its outermost spans.
LAYERS = {
    "group.cyclic_gamma": "group.construct",
    "group.dihedral": "group.construct",
    "group.binary_dihedral": "group.construct",
    "group.binary_polyhedral": "group.construct",
    "group.closure": "group.construct",
    "group.conjugate": "group.construct",
    "invariant.phi": "invariant.phi",
    "signature.coefficient_matrix": "signature.coefficient_matrix",
    "signature.inertia_exact": "signature.inertia_exact",
    "signature.gauss_rank": "signature.gauss_rank",
    "signature.inertia_numeric": "signature.inertia_numeric",
    "cyclotomic.sign": "cyclotomic.sign",
    "reference.expected_pair": "reference.check",
}
TIMED_LAYERS = tuple(dict.fromkeys(LAYERS.values()))
COUNTERS = ("invariant.factors", "invariant.phi_terms", "signature.dim",
            "signature.blocks", "signature.max_block", "cyclotomic.sign_calls",
            "cyclotomic.sign_irrational_calls", "cyclotomic.max_sign_bits")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, group_id]
        self.stack: list[int] = []
        self.group_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.phi_rss_rise_mb = 0.0
        self._installed: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.group_id])
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            idx = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(idx)
            if after:
                after(args, result, state)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    # -- counters --------------------------------------------------------

    def _after_phi(self, args, poly, rss_before):
        self.counters["invariant.factors"] += args[0].order
        self.counters["invariant.phi_terms"] += poly.term_count()
        self.phi_rss_rise_mb = max(self.phi_rss_rise_mb, _maxrss_mb() - rss_before)

    def _after_matrix(self, args, M, _state):
        comps = M.components()
        self.counters["signature.dim"] += M.dimension
        self.counters["signature.blocks"] += len(comps)
        self.counters["signature.max_block"] = max(
            self.counters["signature.max_block"], max(map(len, comps), default=0))

    def _before_sign(self, args):
        c = args[0]
        self.counters["cyclotomic.sign_calls"] += 1
        if c.order != 1 and not c.is_zero():
            self.counters["cyclotomic.sign_irrational_calls"] += 1

    def _count_bits(self, original):
        @functools.wraps(original)
        def counted(order, items, bits):
            if self.stack and self.spans[self.stack[-1]][0] == "cyclotomic.sign":
                self.counters["cyclotomic.max_sign_bits"] = max(
                    self.counters["cyclotomic.max_sign_bits"], bits)
            return original(order, items, bits)
        return counted

    def install(self, workloads_module):
        for fn in ("cyclic_gamma", "dihedral", "binary_dihedral", "binary_polyhedral",
                   "closure", "conjugate"):
            self.wrap(group, fn, "group." + fn)
        self.wrap(invariant, "phi", "invariant.phi",
                  before=lambda args: _maxrss_mb(), after=self._after_phi)
        self.wrap(signature, "coefficient_matrix", "signature.coefficient_matrix",
                  after=self._after_matrix)
        for fn in ("inertia_exact", "gauss_rank", "inertia_numeric"):
            self.wrap(signature, fn, "signature." + fn)
        self.wrap(cyclotomic.Cyclotomic, "sign", "cyclotomic.sign", before=self._before_sign)
        self.wrap(workloads_module, "expected_pair", "reference.expected_pair")
        original = intervals.real_enclosure
        intervals.real_enclosure = self._count_bits(original)
        self._installed.append((intervals, "real_enclosure", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_seconds(self) -> dict[str, float]:
        """Per layer, the summed duration of spans with no ancestor in the same layer."""
        totals = dict.fromkeys(TIMED_LAYERS, 0.0)
        for name, start, end, parent, _ in self.spans:
            layer = LAYERS.get(name)
            if layer is None:
                continue
            p = parent
            while p >= 0 and LAYERS.get(self.spans[p][0]) != layer:
                p = self.spans[p][3]
            if p < 0:
                totals[layer] += end - start
        return totals

    def write(self, path):
        selfs = self.self_times()
        rows = [{"name": n, "start": s, "end": e, "parent": p, "group": g, "self": st}
                for (n, s, e, p, g), st in zip(self.spans, selfs)]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
