"""Generalized-loop and string enumeration plus excitation weights.

A generalized loop is a connected edge-induced subgraph of minimum degree
two; strings relax the degree condition inside marked terminal regions.
Enumeration walks the connected edge sets of the line graph (edges are
adjacent when they share a vertex) with ``network.connected_subsets``,
each set grown from its smallest edge id, so every subset is produced
exactly once; loops and strings are the subsets that pass a degree test.

Weights are evaluated locally on the loop support, in the BP gauge: each
support vertex is its dressed tensor (the site tensor with the incoming
messages mu/sqrt(I) absorbed on every leg off the loop, cached on the
MessageSet), joined by excitation projectors on the loop edges, and the
result is normalized by the product of BP local factors over the support.
By locality of the BP background this equals the globally defined
normalized excitation.
"""

from __future__ import annotations

import math

from .bp import MessageSet, bp_local_factor
from .errors import CombinatorialBudgetExceeded, ZeroLocalFactor
from .network import Graph, TensorNetwork, connected_subsets
from .tensor import contract_network

DEFAULT_ENUM_BUDGET = 10 ** 7
_Z_FLOOR = 1e-12


class GeneralizedLoop:
    """An excitation: edge set, support, weight and kind."""

    __slots__ = ("edges", "vertices", "weight", "kind", "terminals")

    def __init__(self, g: Graph, edges, kind="closed", terminals=()):
        self.edges = frozenset(str(e) for e in edges)
        verts = set()
        for e in self.edges:
            u, v = g.endpoints(e)
            verts.add(u)
            verts.add(v)
        self.vertices = frozenset(verts)
        self.weight = len(self.edges)
        self.kind = kind
        self.terminals = tuple(terminals)

    @property
    def key(self):
        """Canonical identity: the sorted edge tuple."""
        return tuple(sorted(self.edges))

    def __eq__(self, other):
        return isinstance(other, GeneralizedLoop) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GeneralizedLoop({list(self.key)}, kind={self.kind!r})"


class ExcitationWeight:
    __slots__ = ("loop", "value", "network_tag")

    def __init__(self, loop, value, network_tag=""):
        self.loop = loop
        self.value = complex(value)
        self.network_tag = network_tag


def connected_edge_subsets(g: Graph, max_weight: int,
                           budget: int = DEFAULT_ENUM_BUDGET):
    """All connected edge subsets of size <= max_weight, each once."""
    edge_ids = sorted(g.edges)
    index = {e: i for i, e in enumerate(edge_ids)}
    nbrs = [set() for _ in edge_ids]
    for v in g.vertices:
        inc = [index[e] for (e, _) in g.incident(v)]
        for i in inc:
            for j in inc:
                if i != j:
                    nbrs[i].add(j)
    visited = 0
    for cur in connected_subsets(nbrs, [1] * len(edge_ids), max_weight):
        visited += 1
        if visited > budget:
            raise CombinatorialBudgetExceeded(
                f"edge-subset enumeration exceeded budget {budget}")
        yield tuple(edge_ids[i] for i in cur)


def _degree_map(g: Graph, edges):
    deg = {}
    for e in edges:
        u, v = g.endpoints(e)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def enumerate_loops(g: Graph, max_weight: int,
                    budget: int = DEFAULT_ENUM_BUDGET):
    """All generalized loops (min degree 2) with |F| <= max_weight."""
    out = []
    for edges in connected_edge_subsets(g, max_weight, budget):
        deg = _degree_map(g, edges)
        if all(d >= 2 for d in deg.values()):
            out.append(GeneralizedLoop(g, edges, kind="closed"))
    out.sort(key=lambda l: (l.weight, l.key))
    return out


def enumerate_strings(g: Graph, regions, max_weight: int,
                      budget: int = DEFAULT_ENUM_BUDGET):
    """Strings: connected edge subsets, min degree 2 outside the regions.

    ``regions`` is a list of vertex sets (pairwise disjoint).  Closed
    loops are included; terminal region indices are recorded for subsets
    whose relaxed vertices lie inside some region.
    """
    regions = [frozenset(str(v) for v in r) for r in regions]
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if regions[i] & regions[j]:
                raise ValueError("terminal regions must be disjoint")
    allowed = set().union(*regions) if regions else set()
    out = []
    for edges in connected_edge_subsets(g, max_weight, budget):
        deg = _degree_map(g, edges)
        if not all(d >= 2 or v in allowed for v, d in deg.items()):
            continue
        closed = all(d >= 2 for d in deg.values())
        support = set(deg)
        terminals = tuple(i for i, r in enumerate(regions) if support & r)
        out.append(GeneralizedLoop(
            g, edges, kind="closed" if closed else "string",
            terminals=terminals))
    out.sort(key=lambda l: (l.weight, l.key))
    return out


def local_factors(tn: TensorNetwork, messages: MessageSet, vertices) -> dict:
    """BP local factors z_v for a vertex collection, with a floor guard."""
    out = {}
    for v in vertices:
        z = bp_local_factor(tn, messages, v)
        if abs(z) < _Z_FLOOR:
            raise ZeroLocalFactor(f"|z_v| below floor at vertex {v!r}")
        out[str(v)] = z
    return out


def excitation_weight(tn: TensorNetwork, messages: MessageSet,
                      loop: GeneralizedLoop, factors: dict | None = None,
                      network_tag: str = "") -> ExcitationWeight:
    """Normalized weight Z_l of one excitation, contracted on its support.

    ``factors`` supplies the normalizing local factors z_v (computed from
    ``tn`` itself when omitted); passing factors of an undecorated
    background network evaluates the bar-normalized weights used by the
    derivative-form estimators.
    """
    if factors is None:
        factors = local_factors(tn, messages, loop.vertices)
    g = tn.graph
    pieces = [messages.dressed(
        v, tn.tensors[v], [e for (e, _) in g.incident(v) if e in loop.edges])
        for v in sorted(loop.vertices)]
    pieces += [messages.projector(e) for e in sorted(loop.edges)]
    raw = contract_network(pieces).item()
    denom = 1.0 + 0j
    for v in loop.vertices:
        denom *= factors[str(v)]
    return ExcitationWeight(loop, raw / denom, network_tag)


def evaluate_weights(tn, messages, loops, factors=None, network_tag=""):
    """Weight table for a loop list."""
    return [excitation_weight(tn, messages, l, factors, network_tag)
            for l in loops]


def loop_decay_profile(weights):
    """Decay-rate table c(|l|) = -log(max |Z_l|)/|l| per weight class.

    Returns (rows, notes): rows are dicts with keys weight, parity,
    n_loops, max_abs, c_estimate; all-zero classes are omitted and noted.
    """
    classes = {}
    for w in weights:
        classes.setdefault(w.loop.weight, []).append(abs(w.value))
    rows, notes = [], []
    for wt in sorted(classes):
        vals = classes[wt]
        top = max(vals)
        if top <= 0.0:
            notes.append(f"weight {wt}: all {len(vals)} weights zero; omitted")
            continue
        rows.append({
            "weight": wt,
            "parity": "even" if wt % 2 == 0 else "odd",
            "n_loops": len(vals),
            "max_abs": top,
            "c_estimate": -math.log(top) / wt,
        })
    return rows, notes
