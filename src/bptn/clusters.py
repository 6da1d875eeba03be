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
from fractions import Fraction

from .bp import bp_log_partition
from .errors import CapExceeded, CombinatorialBudgetExceeded
from .loops import GeneralizedLoop, excitation_weight
from .network import connected_subsets, is_connected

DEFAULT_URSELL_CAP = 8
DEFAULT_CLUSTER_BUDGET = 10 ** 7


def loops_overlap(a: GeneralizedLoop, b: GeneralizedLoop) -> bool:
    """Incompatibility: sharing any vertex (edge sharing implies this)."""
    return bool(a.vertices & b.vertices)


class Cluster:
    """Multiset of loops with multiplicities."""

    __slots__ = ("members", "weight", "n_loops", "support", "connected")

    def __init__(self, members):
        """``members``: iterable of (GeneralizedLoop, multiplicity)."""
        members = tuple(sorted(((l, int(eta)) for l, eta in members),
                               key=lambda p: p[0].key))
        if any(eta < 1 for _, eta in members):
            raise ValueError("multiplicities must be >= 1")
        self.members = members
        self.weight = sum(l.weight * eta for l, eta in members)
        self.n_loops = sum(eta for _, eta in members)
        sup = set()
        for l, _ in members:
            sup |= l.vertices
        self.support = frozenset(sup)
        # copies of one loop are linked, so connectivity reduces to the
        # overlap graph on distinct loops
        loops = [l for l, _ in members]
        self.connected = is_connected(range(len(loops)),
                                      overlap_neighbors(loops).__getitem__)

    @property
    def key(self):
        return tuple((l.key, eta) for l, eta in self.members)

    def __eq__(self, other):
        return isinstance(other, Cluster) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Cluster({[(list(l.key), eta) for l, eta in self.members]})"


def interaction_graph(cluster: Cluster):
    """(n nodes, adjacency bitmasks) of the cluster's interaction graph."""
    nodes = []
    for idx, (l, eta) in enumerate(cluster.members):
        nodes.extend([idx] * eta)
    n = len(nodes)
    loops = [l for l, _ in cluster.members]
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


def ursell(cluster: Cluster, cap: int = DEFAULT_URSELL_CAP) -> Fraction:
    """Exact Ursell coefficient phi(W); 0 for disconnected clusters."""
    if cluster.n_loops > cap:
        raise CapExceeded(
            f"n_loops {cluster.n_loops} exceeds Ursell cap {cap}")
    if not cluster.connected:
        return Fraction(0)
    n, adj = interaction_graph(cluster)
    full = (1 << n) - 1
    # g(S) = sum over connected spanning edge subsets of S of (-1)^{|C|}
    # via g(S) = f(S) - sum_{S1 proper subset, anchor in S1} g(S1) f(S\S1)
    # where f(T) = [T has no internal edges].
    g = {}
    masks = [m for m in range(1, full + 1)]
    for mask in masks:
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
    denom = 1
    for _, eta in cluster.members:
        denom *= math.factorial(eta)
    return Fraction(g[full], denom)


def overlap_neighbors(loops):
    """Neighbour sets of the overlap graph on ``loops``, by list index."""
    n = len(loops)
    nbrs = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if loops_overlap(loops[i], loops[j]):
                nbrs[i].add(j)
                nbrs[j].add(i)
    return nbrs


def anchored_loop_sets(excitations, max_weight: int, anchor=None):
    """Connected sets of distinct loops with total weight <= max_weight,
    each once, as lists in loop-key order.

    ``anchor`` (optional vertex set) keeps only sets whose support
    intersects it.
    """
    loops = sorted((l for l in excitations if l.weight <= max_weight),
                   key=lambda l: l.key)
    anchor = {str(v) for v in anchor} if anchor is not None else None
    for subset in connected_subsets(overlap_neighbors(loops),
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


def enumerate_clusters(excitations, max_weight: int, anchor=None,
                       budget: int = DEFAULT_CLUSTER_BUDGET):
    """All connected clusters of total weight <= max_weight, each once.

    ``anchor`` (optional vertex set) keeps only clusters whose support
    intersects it.
    """
    out = []
    for members in anchored_loop_sets(excitations, max_weight, anchor):
        weights = [l.weight for l in members]
        for etas in _multiplicities(weights, max_weight - sum(weights)):
            if len(out) >= budget:
                raise CombinatorialBudgetExceeded(
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


class FreeEnergyResult:
    def __init__(self, f_bp, f_m, per_order, n_clusters):
        self.f_bp = f_bp          # complex: -log Z_BP (principal branch)
        self.f_m = f_m            # complex truncated free energy
        self.per_order = per_order  # weight -> (sum phi Z_W, sum |phi Z_W|)
        self.n_clusters = n_clusters


def free_energy_truncated(tn, messages, excitations, m: int,
                          weight_table: dict | None = None,
                          clusters=None) -> FreeEnergyResult:
    """F_m = F_BP - sum over connected clusters |W| <= m of phi(W) Z_W."""
    if weight_table is None:
        weight_table = {l.key: excitation_weight(tn, messages, l).value
                        for l in excitations}
    if clusters is None:
        clusters = enumerate_clusters(excitations, m)
    f_bp = -bp_log_partition(tn, messages)
    per_order = {}
    total = 0.0 + 0j
    for c in clusters:
        if c.weight > m:
            continue
        term = float(ursell(c)) * cluster_value(c, weight_table)
        total += term
        s, a = per_order.get(c.weight, (0.0 + 0j, 0.0))
        per_order[c.weight] = (s + term, a + abs(term))
    return FreeEnergyResult(f_bp, f_bp - total, per_order, len(clusters))


def tail_bound(profile_rows, m: int, delta: int, n_vertices: int):
    """Reported tail bound N e^{-(c - c0)(m+1)} with c0 = log(2(delta-1)) + 1/2.

    Uses the smallest even-class decay estimate as c.  Returns
    (bound, c, c0, vacuous flag).
    """
    c0 = math.log(2 * (delta - 1)) + 0.5
    even = [r["c_estimate"] for r in profile_rows if r["parity"] == "even"]
    if not even:
        return math.inf, math.nan, c0, True
    c = min(even)
    if c <= c0:
        return float(n_vertices), c, c0, True
    return n_vertices * math.exp(-(c - c0) * (m + 1)), c, c0, False
