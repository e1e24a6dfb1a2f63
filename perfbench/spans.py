"""Spans around hgforge's layer boundaries, recorded from outside the package.

Tracer.install replaces each traced function in the module namespaces
where its callers look it up, so the package itself is unchanged.  Every
call appends one span (name, start, end, parent span, request id, work)
to an in-memory list; the list is written out once, when the run ends.
Self time is a span's duration minus the time covered by its children;
calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

# names replaced wherever one of these modules holds them
TRACED = (
    "is_commutative",
    "is_associative_matrix",
    "is_associative_bruteforce",
    "satisfies_condition_A",
    "check_corollaries",
    "validate_cube",
    "derive_cube",
    "degeneracy_check",
    "random_nondegenerate_measure",
    "cayley_table",
    "verify_group_axioms",
    "canonical_form",
    "recover",
    "load_cube",
    "serialize",
    "main",
)
# the benchmark's own calls go through the package namespace
NAMESPACES = ("", ".cli", ".recovery", ".sampling", ".groups", ".formats", ".derivation")

ROUTES = ("checks.is_associative_matrix", "checks.is_associative_bruteforce")
CALLS_AND_BUSY = (
    "checks.is_associative_matrix",
    "checks.is_associative_bruteforce",
    "checks.check_corollaries",
    "checks.satisfies_condition_A",
    "checks.is_commutative",
    "core.validate_cube",
    "core.RationalMatrix.rank",
    "recovery.recover",
    "groups.cayley_table",
    "groups.verify_group_axioms",
    "groups.canonical_form",
    "derivation.derive_cube",
    "derivation.degeneracy_check",
    "sampling.random_nondegenerate_measure",
    "formats.load_cube",
    "formats.serialize",
    "cli.main",
)
WITH_SELF = ("recovery.recover", "cli.main")
WITH_BYTES = ("formats.load_cube", "formats.serialize")


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = "setup"
        self.stats = {}  # cube stats of the current request's input
        self.file_sizes = {}  # input path -> bytes
        self._stack = []
        self._work = {
            "checks.is_associative_matrix": lambda args, result: self.stats["matrix"],
            "checks.is_associative_bruteforce": lambda args, result: self.stats["brute"],
            "formats.load_cube": lambda args, result: self.file_sizes[args[0]],
            "formats.serialize": lambda args, result: len(result),
        }

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        spans, stack, work = self.spans, self._stack, self._work.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request, None)
            if work is not None:
                spans[index] = (name, start, end, parent, self.request, work(args, result))
            return result

        return traced

    def install(self, hg):
        """Wrap every traced function in the namespaces that look it up."""
        wrappers = {}
        for suffix in NAMESPACES:
            module = hg if not suffix else getattr(hg, suffix[1:])
            for attr in TRACED:
                fn = getattr(module, attr, None)
                if fn is not None:
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self.wrap(fn)
                    setattr(module, attr, wrappers[id(fn)])
        matrix = hg.core.RationalMatrix
        matrix.rank = self.wrap(matrix.rank)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request, work) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent,
                          "request": request, "work": work}
                handle.write(json.dumps(record) + "\n")

    def layer_metrics(self):
        """Per-layer metrics named <module>.<function>.<quantity>."""
        spans = self.spans
        child_s = defaultdict(float)
        for name, start, end, parent, request, work in spans:
            if parent is not None:
                child_s[parent] += end - start
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        work_sum = defaultdict(int)
        for index, (name, start, end, parent, request, work) in enumerate(spans):
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += end - start - child_s[index]
            if work is not None:
                work_sum[name] += work

        metrics = {}
        for name in CALLS_AND_BUSY:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.busy_s"] = (busy[name], "s")
        for name in ROUTES:
            metrics[f"{name}.madds"] = (work_sum[name], "count")
            metrics[f"{name}.madds_per_s"] = (_ratio(work_sum[name], busy[name]), "1/s")
        for name in WITH_SELF:
            metrics[f"{name}.self_s"] = (self_s[name], "s")
        for name in WITH_BYTES:
            metrics[f"{name}.bytes_per_s"] = (_ratio(work_sum[name], busy[name]), "B/s")

        def under(child, parent_name):
            return [s for s in spans if s[0] == child and s[3] is not None and spans[s[3]][0] == parent_name]

        gates = under("checks.is_associative_matrix", "recovery.recover")
        metrics["recovery.recover.assoc_gate_calls"] = (len(gates), "count")
        metrics["recovery.recover.assoc_gate_s"] = (sum((s[2] - s[1] for s in gates), 0.0), "s")
        certify = under("derivation.derive_cube", "recovery.recover")
        metrics["recovery.recover.certify_s"] = (sum((s[2] - s[1] for s in certify), 0.0), "s")
        sampler_checks = under("derivation.degeneracy_check", "sampling.random_nondegenerate_measure")
        accepted = calls["sampling.random_nondegenerate_measure"]
        metrics["sampling.accept_ratio"] = (_ratio(accepted, len(sampler_checks)), "ratio")
        metrics["trace.spans"] = (len(spans), "count")
        return metrics


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
