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

from .bp import MessageSet, local_factors
from .errors import CombinatorialBudgetExceeded
from .network import Graph, TensorNetwork, connected_subsets
from .tensor import contract_network

DEFAULT_ENUM_BUDGET = 10 ** 7


class GeneralizedLoop:
    """An excitation: its edge set, support vertices and weight |l|."""

    __slots__ = ("edges", "vertices", "weight")

    def __init__(self, g: Graph, edges):
        self.edges = frozenset(str(e) for e in edges)
        verts = set()
        for e in self.edges:
            u, v = g.endpoints(e)
            verts.add(u)
            verts.add(v)
        self.vertices = frozenset(verts)
        self.weight = len(self.edges)

    @property
    def key(self):
        """Canonical identity: the sorted edge tuple."""
        return tuple(sorted(self.edges))

    def __eq__(self, other):
        return isinstance(other, GeneralizedLoop) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"GeneralizedLoop({list(self.key)})"


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
        u, v = g.edges[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def enumerate_loops(g: Graph, max_weight: int):
    """All generalized loops (min degree 2) with |F| <= max_weight: the
    strings without terminal regions."""
    return enumerate_strings(g, [], max_weight)


def enumerate_strings(g: Graph, regions, max_weight: int):
    """Strings: connected edge subsets, min degree 2 outside the regions.

    ``regions`` is a list of vertex sets (pairwise disjoint).  Closed
    loops are included.
    """
    regions = [frozenset(str(v) for v in r) for r in regions]
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if regions[i] & regions[j]:
                raise ValueError("terminal regions must be disjoint")
    allowed = set().union(*regions) if regions else set()
    out = []
    for edges in connected_edge_subsets(g, max_weight):
        deg = _degree_map(g, edges)
        if all(d >= 2 or v in allowed for v, d in deg.items()):
            out.append(GeneralizedLoop(g, edges))
    out.sort(key=lambda l: (l.weight, l.key))
    return out


def excitation_weight(tn: TensorNetwork, messages: MessageSet,
                      loop: GeneralizedLoop,
                      factors: dict | None = None) -> complex:
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
    for v in sorted(loop.vertices):
        denom *= factors[str(v)]
    return raw / denom


def evaluate_weights(tn, messages, loops) -> dict:
    """Weight table {loop.key: Z_l} for a loop list."""
    return {l.key: excitation_weight(tn, messages, l) for l in loops}


def loop_decay_profile(weight_table: dict):
    """Decay-rate table c(|l|) = -log(max |Z_l|)/|l| per weight class.

    ``weight_table`` maps loop keys to Z_l; a key's length is the loop's
    weight.  Returns (rows, notes): rows are dicts with keys weight,
    parity, n_loops, max_abs, c_estimate; all-zero classes are omitted and
    noted.
    """
    classes = {}
    for key, z in weight_table.items():
        classes.setdefault(len(key), []).append(abs(z))
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
