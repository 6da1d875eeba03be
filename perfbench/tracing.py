"""Spans and counters around the public calls of each bptn layer.

The tracer patches functions under the names the program looks them up by
(``bptn.cli.enumerate_loops``, ``bptn.observables.excitation_weight``, ...),
so nothing inside ``src/bptn`` changes.  Each span records its name, start,
end and parent; spans stay in memory until the run writes them out.  A
wrapped name that no longer exists is reported as absent, not an error.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
from collections import Counter
from operator import itemgetter
from time import perf_counter

LAYERS = ("bp", "loops", "tensor", "clusters", "cumulants", "observables")


def _bp_result(tracer, args, kw, res):
    tn = args[0] if args else kw["tn"]
    tracer.counts["bp.sweeps"] += res.iterations
    tracer.counts["bp.edge_updates"] += (
        res.iterations * 2 * len(tn.graph.edges))


def _emitted(tracer, args, kw, res):
    tracer.counts["loops.enum_calls"] += 1
    tracer.counts["loops.emitted"] += len(res)


def _clusters(tracer, args, kw, res):
    tracer.counts["clusters.count"] += len(res)


def _subsets(tracer, args, kw, res):
    tracer.counts["cumulants.subsets"] += len(res)


def _regions(tracer, args, kw, res):
    tracer.counts["cumulants.regions"] += len(res)


def _observable_weight(tracer, args, kw):
    tracer.counts["observables.weight_calls"] += 1


def _pair_flops(tracer, args, kw):
    # Entries of the product over the union of both tensors' legs.
    a, b = args[0], args[1]
    ids_b = {l.id for l in b.legs}
    shared = 1
    for l in a.legs:
        if l.id in ids_b:
            shared *= l.dim
    tracer.counts["tensor.pair_flops"] += a.data.size * b.data.size // shared


# (patched name, span name, hook on result, hook on arguments)
SPANS = [
    ("bptn.cli.bp_iterate", "bp.iterate", _bp_result, None),
    ("bptn.cli.stability_probe", "bp.stability", None, None),
    ("bptn.cli.bp_free_energy", "bp.free_energy", None, None),
    ("bptn.cli.enumerate_loops", "loops.enum", _emitted, None),
    ("bptn.observables.enumerate_strings", "loops.enum", _emitted, None),
    ("bptn.cli.evaluate_weights", "loops.weight_table", None, None),
    ("bptn.loops.excitation_weight", "loops.weight", None, None),
    ("bptn.observables.excitation_weight", "loops.weight", None,
     _observable_weight),
    ("bptn.loops.contract_network", "tensor.contract", None, None),
    ("bptn.cumulants.contract_network", "tensor.contract", None, None),
    ("bptn.tensor.contract_pair", "tensor.pair", None, _pair_flops),
    ("bptn.cli.free_energy_truncated", "clusters.resum", None, None),
    ("bptn.clusters.enumerate_clusters", "clusters.enum", _clusters, None),
    ("bptn.observables.enumerate_clusters", "clusters.enum", _clusters,
     None),
    ("bptn.clusters.ursell", "clusters.ursell", None, None),
    ("bptn.observables.ursell", "clusters.ursell", None, None),
    ("bptn.cli.cumulant_free_energy", "cumulants.resum", None, None),
    ("bptn.cumulants.connected_loop_subsets", "cumulants.subsets", _subsets,
     None),
    ("bptn.observables.connected_loop_subsets", "cumulants.subsets",
     _subsets, None),
    ("bptn.cli.find_regions", "cumulants.find_regions", _regions, None),
    ("bptn.observables.find_regions_local", "cumulants.find_regions",
     _regions, None),
    ("bptn.cli.region_free_energy", "cumulants.region_resum", None, None),
    ("bptn.cumulants.region_partition", "cumulants.region_contract", None,
     None),
    ("bptn.observables.region_partition", "cumulants.region_contract", None,
     None),
    ("bptn.cli.expval_bp_tensors", "observables.bp", None, None),
    ("bptn.cli.expval_ratio_tensors", "observables.ratio", None, None),
    ("bptn.cli.expval_derivative_tensors", "observables.derivative", None,
     None),
    ("bptn.cli.expval_cumulant_tensors", "observables.cumulant", None, None),
    ("bptn.cli.expval_region_sum_tensors", "observables.region_sum", None,
     None),
]

# Calls counted per enclosing span, without a span of their own: they are
# too many or too short for a span to be worth its cost.
CALL_COUNTERS = [
    ("bptn.bp._sweep", "bp.sweep"),
    ("bptn.cumulants.restricted_partition", "cumulants.restricted"),
    ("bptn.observables.InsertionProblem.bar_weight", "observables.bar_weight"),
]

# Generators whose yields are counted; the count runs in C (zip with
# itertools.count), so it adds no Python call per yield.
YIELD_COUNTERS = [
    ("bptn.loops.connected_edge_subsets", "loops.subsets_visited"),
]


def _resolve(dotted):
    """(owner, attribute) for a dotted name, or None if it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if hasattr(owner, parts[-1]):
            return owner, parts[-1]
        return None
    return None


class Tracer:
    """In-memory spans and counters for one traced call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index]
        self.stack = [-1]
        self.counts = Counter()
        self.call_counts = Counter()   # (counter, enclosing span) -> calls
        self.yield_counters = []       # (counter name, itertools.count)
        self.absent = []
        self._undo = []

    # -- patching -----------------------------------------------------------

    def _patch(self, dotted, make):
        found = _resolve(dotted)
        if found is None:
            self.absent.append(dotted)
            return
        owner, attr = found
        fn = getattr(owner, attr)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def install(self):
        for dotted, name, on_result, on_args in SPANS:
            self._patch(dotted, lambda fn, n=name, r=on_result, a=on_args:
                        self._span(n, fn, r, a))
        for dotted, name in CALL_COUNTERS:
            self._patch(dotted, lambda fn, n=name: self._call_counter(n, fn))
        for dotted, name in YIELD_COUNTERS:
            self._patch(dotted, lambda fn, n=name: self._yield_counter(n, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _span(self, name, fn, on_result=None, on_args=None):
        spans, stack, tracer = self.spans, self.stack, self

        def wrapper(*args, **kw):
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                if on_args is not None:
                    on_args(tracer, args, kw)
                res = fn(*args, **kw)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tracer, args, kw, res)
            return res

        return wrapper

    def _call_counter(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.call_counts

        def wrapper(*args, **kw):
            top = stack[-1]
            counts[(name, spans[top][0] if top >= 0 else "")] += 1
            return fn(*args, **kw)

        return wrapper

    def _yield_counter(self, name, fn):
        counters = self.yield_counters

        def wrapper(*args, **kw):
            c = itertools.count()
            counters.append((name, c))
            return map(itemgetter(0), zip(fn(*args, **kw), c))

        return wrapper

    def run(self, name, fn, *args):
        """Call ``fn`` as the root span ``name``."""
        return self._span(name, fn)(*args)

    # -- results ------------------------------------------------------------

    def write(self, path):
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": self.run_id}) + "\n")

    def summary(self):
        """Per-layer metrics from the spans and counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        total = Counter()      # span name -> inclusive seconds
        calls = Counter()
        self_by_name = Counter()
        self_by_layer = Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            own = (end - start) - child[i]
            total[name] += end - start
            calls[name] += 1
            self_by_name[name] += own
            if parent >= 0:
                self_by_layer[name.split(".")[0]] += own
        roots = [i for i, s in enumerate(spans) if s[3] < 0]
        solve = sum(spans[i][2] - spans[i][1] for i in roots)
        cli_self = sum(self_by_name[spans[i][0]] for i in roots)
        c = Counter(self.counts)
        for name, counter in self.yield_counters:
            c[name] += next(counter)

        def ratio(a, b):
            return a / b if b else 0.0

        def called(counter):
            return sum(n for (name, _), n in self.call_counts.items()
                       if name == counter)

        weight_calls = calls["loops.weight"]
        bar_calls = called("observables.bar_weight")
        m = {
            "bp.iterate_s": total["bp.iterate"],
            "bp.sweeps": c["bp.sweeps"],
            "bp.edge_update_us": 1e6 * ratio(total["bp.iterate"],
                                             c["bp.edge_updates"]),
            "bp.stability_s": total["bp.stability"],
            "bp.stability_sweeps":
                self.call_counts[("bp.sweep", "bp.stability")],
            "loops.enum_s": total["loops.enum"],
            "loops.enum_calls": c["loops.enum_calls"],
            "loops.subsets_visited": c["loops.subsets_visited"],
            "loops.emitted": c["loops.emitted"],
            "loops.emit_ratio": ratio(c["loops.emitted"],
                                      c["loops.subsets_visited"]),
            "loops.weight_s": total["loops.weight"],
            "loops.weights": weight_calls,
            "loops.weight_us": 1e6 * ratio(total["loops.weight"],
                                           weight_calls),
            "tensor.contract_s": total["tensor.contract"],
            "tensor.contract_calls": calls["tensor.contract"],
            "tensor.search_s": self_by_name["tensor.contract"],
            "tensor.pair_calls": calls["tensor.pair"],
            "tensor.pair_flops": c["tensor.pair_flops"],
            "clusters.enum_s": total["clusters.enum"],
            "clusters.count": c["clusters.count"],
            "clusters.ursell_s": total["clusters.ursell"],
            "clusters.ursell_calls": calls["clusters.ursell"],
            "clusters.resum_s": self_by_name["clusters.resum"],
            "cumulants.subsets_s": total["cumulants.subsets"],
            "cumulants.subsets": c["cumulants.subsets"],
            "cumulants.resum_s": self_by_name["cumulants.resum"],
            "cumulants.restricted_calls": called("cumulants.restricted"),
            "cumulants.find_regions_s": total["cumulants.find_regions"],
            "cumulants.regions": c["cumulants.regions"],
            "cumulants.region_contract_s": total["cumulants.region_contract"],
            "cumulants.region_contract_calls":
                calls["cumulants.region_contract"],
            "observables.bp_s": total["observables.bp"],
            "observables.ratio_s": total["observables.ratio"],
            "observables.derivative_s": total["observables.derivative"],
            "observables.cumulant_s": total["observables.cumulant"],
            "observables.region_sum_s": total["observables.region_sum"],
            "observables.weight_cache_hit_ratio": (
                1.0 - c["observables.weight_calls"] / bar_calls
                if bar_calls else 0.0),
            "cli.self_s": cli_self,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_by_layer[layer]
        m["trace.solve_s"] = solve
        m["trace.spans"] = len(spans)
        m["trace.absent"] = len(self.absent)
        return {k: float(v) if k.endswith(("_s", "_us")) else v
                for k, v in m.items()}
