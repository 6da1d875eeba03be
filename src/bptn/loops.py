"""Generalized-loop and string enumeration plus excitation weights.

A generalized loop is a connected edge-induced subgraph of minimum degree
two; strings relax the degree condition inside marked terminal regions.
``network.grown_sets`` grows them from cycles and terminals, each step
adding an ear, a lollipop or a path to a new terminal, so every set it
grows is a string, and it grows each once.

Weights are evaluated locally on the loop support, in the BP gauge: each
support vertex is its dressed tensor (the site tensor with the incoming
messages mu/sqrt(I) absorbed on every leg off the loop, cached on the
MessageSet), its loop legs split per endpoint and joined by excitation
projectors on the loop edges, and the result is normalized by the product
of BP local factors over the support (its tensors dressed on every leg).
By locality of the BP background this equals the globally defined
normalized excitation.  A weight table is one bulk contraction: every
support network is gathered first, and networks of the same structure are
contracted together (``tensor.contract_many``).

A support network lists its tensors in the order of a depth-first walk of
its loop (``_walk``), so that rotated, reflected and translated copies of
one loop shape are one structure, with one contraction plan and one
stacked matmul chain: the dressed site tensors first, in the order the walk
reaches them, each with its loop legs in the order the walk crosses them,
then one projector per edge, in crossing order, its legs oriented along
the crossing.  The legs are numbered by the walk: the k-th crossing joins
leg 2k at its from vertex and leg 2k + 1 at its far end.
"""

from __future__ import annotations

import math

from .bp import MessageSet, local_factors
from .errors import CombinatorialBudgetExceeded
from .network import Graph, grown_sets, set_bits
# under the name perfbench/tracing.py wraps
from .tensor import contract_closed as contract_network

DEFAULT_ENUM_BUDGET = 10 ** 7


class GeneralizedLoop:
    """An excitation: its edge set, support vertices and weight |l|."""

    __slots__ = ("edges", "vertices", "weight", "key")

    def __init__(self, g: Graph, edges):
        self.edges = frozenset(str(e) for e in edges)
        self.vertices = frozenset(v for e in self.edges for v in g.edges[e])
        self.weight = len(self.edges)
        self.key = tuple(sorted(self.edges))  # canonical identity

    def __repr__(self):
        return f"GeneralizedLoop({list(self.key)})"


def connected_edge_subsets(g: Graph, max_weight: int, terminals=()):
    """Each string of at most ``max_weight`` edges once, as its sorted edge
    ids, grown from cycles and terminals by ``network.grown_sets``.
    ``DEFAULT_ENUM_BUDGET`` bounds the strings grown."""
    edge_ids, budget = g.edge_ids, DEFAULT_ENUM_BUDGET
    for grown, (_, edges) in enumerate(grown_sets(g, max_weight, terminals)):
        if grown >= budget:
            raise CombinatorialBudgetExceeded(
                f"edge-subset enumeration exceeded budget {budget}")
        yield tuple(edge_ids[i] for i in set_bits(edges))


def enumerate_loops(g: Graph, max_weight: int):
    """All generalized loops (min degree 2) with |F| <= max_weight: the
    strings without terminal regions."""
    return enumerate_strings(g, (), max_weight)


def enumerate_strings(g: Graph, terminals, max_weight: int):
    """Strings: connected edge subsets, min degree 2 outside the vertex
    set ``terminals``.  Closed loops are included."""
    terminals = frozenset(str(v) for v in terminals)
    out = [GeneralizedLoop(g, edges)
           for edges in connected_edge_subsets(g, max_weight, terminals)]
    out.sort(key=lambda l: (l.weight, l.key))
    return out


def _walk(g: Graph, edges) -> tuple:
    """Depth-first walk of a connected edge set, ``edges`` in sorted order:
    (the vertices in the order it reaches them, {vertex: its (edge, leg)
    pairs in the order it crosses them}, the crossings (edge, from, to) in
    order).  The k-th crossing's ends are the legs numbered 2k, at its
    from vertex, and 2k + 1.

    The walk starts at a vertex of lowest degree in the set, the smallest
    id among them, so a string with one terminal leaf starts there.  It
    crosses the first edge in id order not crossed yet at the latest
    vertex that has one, and goes on from the far end when that is new;
    every edge is crossed once and every vertex reached once.
    """
    todo = {}  # vertex -> its (edge, far end) pairs not crossed, next last
    for e in reversed(edges):
        u, w = g.edges[e]
        if u in todo:
            todo[u].append((e, w))
        else:
            todo[u] = [(e, w)]
        if w in todo:
            todo[w].append((e, u))
        else:
            todo[w] = [(e, u)]
    start = min([(len(pairs), v) for v, pairs in todo.items()])[1]
    order, legs, crossings, stack = [start], {start: []}, [], [start]
    while stack:
        v = stack[-1]
        if not todo[v]:
            stack.pop()
            continue
        e, w = todo[v].pop()
        todo[w].remove((e, v))
        n = 2 * len(crossings)
        crossings.append((e, v, w))
        legs[v].append((e, n))
        if w in legs:
            legs[w].append((e, n + 1))
        else:
            legs[w] = [(e, n + 1)]
            order.append(w)
            stack.append(w)
    return order, legs, crossings


def excitation_weight(messages: MessageSet, jobs) -> list:
    """Normalized weights Z_l of (replacements, loop) jobs, each contracted
    on its loop's support, all in one ``contract_closed`` call;
    ``replacements`` substitutes site tensors (an operator insertion).

    Each support network is listed in walk order, its legs numbered by
    the walk and passed to the kernel as they are: a dressed tensor is
    transposed into crossing order where its sorted legs are not, and a
    projector where the walk crosses its edge against endpoint order.
    Walk, numbers, permutations and projectors are built once per loop
    key.  The local factors z_v that normalize the weights are the
    messages' own, undecorated, multiplied in sorted vertex order: with
    replacements, the bar-normalized weights of the derivative-form
    estimators.
    """
    tn = messages.plan.tn
    factors = local_factors(messages, dict.fromkeys(
        v for _, loop in jobs for v in loop.vertices))
    keys = [loop.key for _, loop in jobs]
    walks = {}  # loop key -> (sites, projectors, support in sorted order)
    oriented = {}  # (edge, from vertex) -> the projector along the crossing
    for key in keys:
        if key in walks:
            continue
        order, legs, crossings = _walk(tn.graph, key)
        sites, projectors = [], []
        for v in order:
            kept, numbers = zip(*legs[v])
            ranks = tuple(sorted(kept))  # the order of a dressed tensor's legs
            sites.append((v, ranks, numbers, None if ranks == kept else
                          [ranks.index(e) for e in kept]))
        for k, (e, a, _) in enumerate(crossings):
            if (e, a) not in oriented:
                p = messages.projector(e)
                oriented[e, a] = p if tn.graph.edges[e][0] == a else p.T
            projectors.append(((2 * k, 2 * k + 1), oriented[e, a]))
        walks[key] = sites, projectors, sorted(order)
    dressed = iter(messages.dressed([
        (v, replacements.get(v, tn.tensors[v]), kept)
        for (replacements, _), key in zip(jobs, keys)
        for v, kept, _, _ in walks[key][0]]))
    pools = [[(legs, data if perm is None else data.transpose(perm))
              for (_, _, legs, perm), (_, data) in zip(walks[key][0], dressed)]
             + walks[key][1] for key in keys]
    return [raw / math.prod((factors[v] for v in walks[key][2]),
                            start=1.0 + 0j)
            for raw, key in zip(contract_network(pools), keys)]


def evaluate_weights(messages, loops) -> dict:
    """Weight table {loop.key: Z_l} for a loop list."""
    return dict(zip([l.key for l in loops], excitation_weight(
        messages, [({}, l) for l in loops])))


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
