"""Cluster expansion: clusters of excitations, interaction graphs, Ursell
coefficients and the truncated free energy.

A cluster is a multiset of loops; it contributes only when its
interaction graph (one node per loop copy, edges between overlapping or
identical loops) is connected.  Ursell coefficients are computed in exact
rational arithmetic as

    phi(W) = (1 / prod eta_i!) * sum over connected spanning edge-subsets
             C of the interaction graph of (-1)^|C|

via a subset-convolution recursion over vertex subsets (exponential in
n_loops, capped).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .bp import bp_log_partition
from .errors import BudgetError
from .loops import GeneralizedLoop
from .network import connected_subsets

DEFAULT_URSELL_CAP = 8
DEFAULT_CLUSTER_BUDGET = 10 ** 7


def loops_overlap(a: GeneralizedLoop, b: GeneralizedLoop) -> bool:
    """Incompatibility: sharing any vertex (edge sharing implies this)."""
    return bool(a.vertices & b.vertices)


class Cluster:
    """Multiset of loops with multiplicities; with every multiplicity 1
    it is a set of distinct loops, as the cumulant expansion takes."""

    __slots__ = ("members", "weight", "n_loops", "support")

    def __init__(self, members):
        """``members``: iterable of (GeneralizedLoop, multiplicity)."""
        members = tuple(sorted(((l, int(eta)) for l, eta in members),
                               key=lambda p: p[0].key))
        if any(eta < 1 for _, eta in members):
            raise ValueError("multiplicities must be >= 1")
        self.members = members
        self.weight = sum(l.weight * eta for l, eta in members)
        self.n_loops = sum(eta for _, eta in members)
        self.support = frozenset().union(*(l.vertices for l, _ in members))

    @property
    def loops(self):
        """The distinct loops, in key order."""
        return tuple(l for l, _ in self.members)

    @property
    def key(self):
        return tuple((l.key, eta) for l, eta in self.members)

    def __repr__(self):
        return f"Cluster({[(list(l.key), eta) for l, eta in self.members]})"


def interaction_graph(cluster: Cluster):
    """(n nodes, adjacency bitmasks) of the cluster's interaction graph."""
    nodes = [i for i, (_, eta) in enumerate(cluster.members)
             for _ in range(eta)]
    n = len(nodes)
    loops = cluster.loops
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            ia, ib = nodes[a], nodes[b]
            if ia == ib or loops_overlap(loops[ia], loops[ib]):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return n, adj


def _edgeless(mask: int, adj) -> bool:
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        m &= m - 1
        if adj[i] & mask & ~((1 << (i + 1)) - 1):
            return False
    return True


def ursell(cluster: Cluster) -> Fraction:
    """Exact Ursell coefficient phi(W); 0 for disconnected clusters, whose
    interaction graph has no connected spanning edge subset.
    ``DEFAULT_URSELL_CAP`` bounds the loops of a cluster."""
    if cluster.n_loops > DEFAULT_URSELL_CAP:
        raise BudgetError(f"n_loops {cluster.n_loops} exceeds Ursell cap "
                          f"{DEFAULT_URSELL_CAP}")
    n, adj = interaction_graph(cluster)
    full = (1 << n) - 1
    # g(S) = sum over connected spanning edge subsets of S of (-1)^{|C|}
    # via g(S) = f(S) - sum_{S1 proper subset, anchor in S1} g(S1) f(S\S1)
    # where f(T) = [T has no internal edges].
    g = {}
    for mask in range(1, full + 1):
        anchor = (mask & -mask)
        total = 1 if _edgeless(mask, adj) else 0
        sub = (mask - 1) & mask
        while sub:
            if (sub & anchor) and sub != mask:
                rest = mask & ~sub
                if _edgeless(rest, adj):
                    total -= g[sub]
            sub = (sub - 1) & mask
        g[mask] = total
    return Fraction(g[full], math.prod(math.factorial(eta)
                                       for _, eta in cluster.members))


def overlap_neighbors(loops, max_weight=math.inf):
    """Neighbour sets of the overlap graph on ``loops``, by list index,
    joining two loops only when their weights sum to at most
    ``max_weight``: every overlap inside a connected set of weight
    <= max_weight is such a pair.  Overlaps are found through the loops at
    each vertex, and a loop that no other loop fits beside gets none."""
    light = max_weight - min((l.weight for l in loops), default=0)
    at = {}  # vertex -> the indices of the light loops through it
    for i, l in enumerate(loops):
        if l.weight <= light:
            for v in l.vertices:
                at.setdefault(v, []).append(i)
    return [{j for v in l.vertices for j in at[v]
             if j != i and l.weight + loops[j].weight <= max_weight}
            if l.weight <= light else set() for i, l in enumerate(loops)]


def anchored_loop_sets(excitations, max_weight: int, anchor=None):
    """Connected sets of distinct loops with total weight <= max_weight,
    each once, as lists in loop-key order.

    ``anchor`` (optional vertex set) keeps only sets whose support
    intersects it.
    """
    loops = sorted((l for l in excitations if l.weight <= max_weight),
                   key=lambda l: l.key)
    anchor = {str(v) for v in anchor} if anchor is not None else None
    for subset in connected_subsets(overlap_neighbors(loops, max_weight),
                                    [l.weight for l in loops], max_weight):
        members = [loops[i] for i in sorted(subset)]
        if anchor is None or any(l.vertices & anchor for l in members):
            yield members


def _multiplicities(weights, spare):
    """Every tuple of multiplicities eta_i >= 1 with
    sum (eta_i - 1) * weights[i] <= spare."""
    if not weights:
        yield ()
        return
    eta = 1
    while (eta - 1) * weights[0] <= spare:
        for rest in _multiplicities(weights[1:],
                                    spare - (eta - 1) * weights[0]):
            yield (eta,) + rest
        eta += 1


def enumerate_clusters(excitations, max_weight: int, anchor=None):
    """All connected clusters of total weight <= max_weight, each once,
    sorted by (weight, key); ``DEFAULT_CLUSTER_BUDGET`` bounds their number.

    ``anchor`` (optional vertex set) keeps only clusters whose support
    intersects it.
    """
    out, budget = [], DEFAULT_CLUSTER_BUDGET
    for members in anchored_loop_sets(excitations, max_weight, anchor):
        weights = [l.weight for l in members]
        for etas in _multiplicities(weights, max_weight - sum(weights)):
            if len(out) >= budget:
                raise BudgetError(
                    f"cluster enumeration exceeded budget {budget}")
            out.append(Cluster(zip(members, etas)))
    out.sort(key=lambda c: (c.weight, c.key))
    return out


def cluster_value(cluster: Cluster, weight_table: dict) -> complex:
    """Z_W = prod Z_l^eta with weights looked up by loop key."""
    val = 1.0 + 0j
    for l, eta in cluster.members:
        val *= weight_table[l.key] ** eta
    return val


def cluster_sums(clusters, tables) -> list:
    """Sum of phi(W) Z_W over ``clusters``, one per weight table."""
    sums = [0.0 + 0j] * len(tables)
    for c in clusters:
        phi = float(ursell(c))
        sums = [s + phi * cluster_value(c, t) for s, t in zip(sums, tables)]
    return sums


# f_bp = -log Z_BP (principal branch), f_m = F_m, and the clusters summed
FreeEnergyResult = namedtuple("FreeEnergyResult", "f_bp f_m clusters")


def free_energy_truncated(messages, excitations, m: int,
                          weight_table: dict) -> FreeEnergyResult:
    """F_m = F_BP - sum over connected clusters |W| <= m of phi(W) Z_W,
    with each Z_l looked up in ``weight_table`` by loop key."""
    clusters = enumerate_clusters(excitations, m)
    f_bp = -bp_log_partition(messages)
    (total,) = cluster_sums(clusters, [weight_table])
    return FreeEnergyResult(f_bp, f_bp - total, clusters)
