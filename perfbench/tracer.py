"""Span tracing of goldcut's layers from the benchmark's own code.

The tracer replaces public functions at the module attributes through which
the pipeline calls them (goldcut.pipeline.run_fragment, goldcut.fragmenter.
simulate, ...) with wrappers that record a span per call: name, start, end,
parent span and op id. Spans are kept in memory and written out once at the
end. Counters are recorded at the same boundaries from each call's arguments
and return value. Nothing in goldcut itself is edited.

A wrapped name that goldcut no longer has is skipped, and the metrics that
depend on it are left out of the report.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

ROOT = "pipeline.reconstruct"


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _count_simulate(t, args, kwargs, result):
    circuit = _arg(args, kwargs, 0, "circuit")
    gates = len(circuit.gates)
    t.counts["simulator.gates_applied"] += gates
    # Computed, not measured: each gate reads and writes the complex128
    # statevector once (2 x 16 bytes per amplitude).
    t.counts["simulator.amp_bytes_computed"] += gates * 2 * 16 * 2 ** circuit.n_qubits


def _count_sample(t, args, kwargs, result):
    t.counts["simulator.shots_drawn"] += int(_arg(args, kwargs, 2, "shots"))


def _count_run_fragment(t, args, kwargs, result):
    t.counts["fragmenter.variants_run"] += len(_arg(args, kwargs, 1, "variants"))


def _useful_variants(results, neglected) -> int:
    """Results a build with this neglected set reads: a setting or
    preparation is read unless its basis (the first letter of its label) is
    neglected at that cut; Z data always feeds the identity term."""
    dropped = {(int(cid), getattr(p, "value", p)) for cid, p in neglected or ()}
    return sum(
        all(lab[0] == "Z" or (cid, lab[0]) not in dropped for cid, lab in r.key.assignment)
        for r in results
    )


def _count_build_tensor(t, args, kwargs, result):
    results = _arg(args, kwargs, 0, "results")
    neglected = _arg(args, kwargs, 3, "neglected", frozenset())
    t.built[id(result)] = _useful_variants(results, neglected)


def _count_contract(t, args, kwargs, result):
    t.counts["reconstructor.tuples_contracted"] += result.terms_evaluated
    for tensor in args[:2]:
        t.counts["fragmenter.useful_variants"] += t.built.get(id(tensor), 0)


def _count_detect(t, args, kwargs, result):
    entries = result.entries
    t.counts["golden.pairs_flagged"] += sum(1 for e in entries if e.golden)
    t.counts["golden.pairs_insufficient"] += sum(1 for e in entries if e.insufficient)


def _count_detect_statistical(t, args, kwargs, result):
    _count_detect(t, args, kwargs, result)
    t.flagged_statistical |= set(result.golden_pairs())


# (module, attribute, span name, counter hook). Names follow the module
# that defines the function, not the one it is called from; "{side}" is
# filled from the call's side argument. "contract_*" wraps every contract_
# function the pipeline imports. golden_ansatz is wrapped where the
# benchmark's own workload builder calls it.
TARGETS = (
    ("goldcut.pipeline", "bipartition", "circuits.bipartition", None),
    ("goldcut.pipeline", "upstream_variants", "fragmenter.upstream_variants", None),
    ("goldcut.pipeline", "downstream_variants", "fragmenter.downstream_variants", None),
    ("goldcut.pipeline", "run_fragment", "fragmenter.run_fragment", _count_run_fragment),
    ("goldcut.pipeline", "build_tensor", "reconstructor.build_tensor.{side}", _count_build_tensor),
    ("goldcut.pipeline", "contract_*", "reconstructor.contract", _count_contract),
    ("goldcut.pipeline", "detect_exact", "golden.detect_exact", _count_detect),
    ("goldcut.pipeline", "detect_statistical", "golden.detect_statistical",
     _count_detect_statistical),
    ("goldcut.pipeline", "parent_permutation", "pipeline.parent_permutation", None),
    ("goldcut.pipeline", "cost_report", "metrics.cost_report", None),
    ("goldcut.fragmenter", "simulate", "simulator.simulate", _count_simulate),
    ("goldcut.fragmenter", "sample", "simulator.sample", _count_sample),
    ("goldcut.fragmenter", "exact_distribution", "simulator.exact_distribution", None),
    ("goldcut.golden", "build_tensor", "reconstructor.build_tensor.{side}", _count_build_tensor),
    ("goldcut", "golden_ansatz", "circuits.golden_ansatz", None),
)


class Tracer:
    """In-memory span recorder; spans are recorded only inside op()."""

    def __init__(self):
        self.spans = []          # [span id, parent id, op id, name, start, end]
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self.built = {}          # id(tensor) -> useful variants it was built from
        self.flagged_statistical = set()
        self.wrapped = set()     # span names (without "{side}") whose target exists
        self._stack = []
        self._op = None
        self._patched = []

    def install(self):
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            attrs = ([a for a in vars(module) if a.startswith(attr[:-1])]
                     if attr.endswith("*") else [attr])
            for a in attrs:
                original = getattr(module, a, None)
                if not callable(original):
                    continue
                setattr(module, a, self.wrap(original, name, hook))
                self._patched.append((module, a, original))
                self.wrapped.add(name.split(".{")[0])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def wrap(self, fn, name, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span_name = (name.format(side=_arg(args, kwargs, 2, "side")) if "{" in name
                         else name)
            span = [len(tracer.spans), tracer._stack[-1][0] if tracer._stack else None,
                    tracer._op, span_name, time.perf_counter(), None]
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()
            tracer.calls[span_name] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def op(self, op_id, fn, *args, root=ROOT, **kwargs):
        """Run fn as one traced op under a root span; returns (result, wall s)."""
        first = len(self.spans)
        self._op = op_id
        self.built.clear()
        self.flagged_statistical = set()
        try:
            result = self.wrap(fn, root)(*args, **kwargs)
        finally:
            self._op = None
        root = self.spans[first]
        return result, root[5] - root[4]

    def self_times(self, op_ids=None):
        """Total self time per span name: a span's duration minus the
        durations of its direct children."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] += span[5] - span[4]
        out = defaultdict(float)
        for span in self.spans:
            if op_ids is None or span[2] in op_ids:
                out[span[3]] += span[5] - span[4] - child_time[span[0]]
        return out

    def self_sum_gap(self, op_ids) -> float:
        """Largest difference, over ops, between the sum of all self times in
        an op and the wall time of its root span (zero when spans nest)."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] += span[5] - span[4]
        total = defaultdict(float)
        wall = {}
        for span in self.spans:
            if span[2] in op_ids:
                total[span[2]] += span[5] - span[4] - child_time[span[0]]
                if span[1] is None:
                    wall[span[2]] = span[5] - span[4]
        return max((abs(total[op] - wall[op]) for op in wall), default=0.0)

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta,
                       "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)
