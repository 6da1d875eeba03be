"""Cluster-cumulant machinery and the region-based expansion.

Restricted partition functions Xi(B) are hard-core loop-gas sums over a
finite loop subset; cumulants K(Gamma) are their inclusion-exclusion
(Moebius) transform on the subset lattice and resum all multiplicities of
a loop set at once.  The region formulation evaluates Xi directly as a
small tensor contraction with BP messages on the region boundary, with
integer counting numbers assigned top-down through the intersection-closed
region poset.
"""

from __future__ import annotations

import cmath

from .bp import MessageSet, bp_log_partition, local_factors
from .clusters import (Cluster, anchored_loop_sets, loops_overlap,
                       overlap_neighbors)
from .errors import BranchCrossing, CapExceeded, CombinatorialBudgetExceeded
from .network import (DEFAULT_SIZE_CAP, Graph, TensorNetwork,
                      connected_subsets, is_connected)
from .tensor import contract_network

RESTRICTED_CAP = 20
DEFAULT_BUDGET = 10 ** 7  # loop subsets, and vertex subsets for regions


def restricted_partition(loops, weight_table: dict) -> complex:
    """Xi(B) = 1 + sum over compatible sub-families of prod Z_l, for the
    sequence of distinct loops B."""
    n = len(loops)
    if n > RESTRICTED_CAP:
        raise CapExceeded(
            f"|B| = {n} exceeds restricted-partition cap {RESTRICTED_CAP}")
    incompat = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if loops_overlap(loops[i], loops[j]):
                incompat[i] |= 1 << j
                incompat[j] |= 1 << i
    z = [weight_table[l.key] for l in loops]

    def rec(i, banned):
        if i == n:
            return 1.0 + 0j
        val = rec(i + 1, banned)
        if not banned & (1 << i):
            val += z[i] * rec(i + 1, banned | incompat[i])
        return val

    return rec(0, 0)


def guarded_log(xi: complex, what: str) -> complex:
    if xi == 0 or (xi.real <= 0 and abs(xi.imag) <= 1e-14 * abs(xi.real)):
        raise BranchCrossing(
            f"{what} = {xi} on or across the principal-branch cut")
    return cmath.log(xi)


def cumulant(gamma: Cluster, weight_table: dict) -> complex:
    """K(Gamma): inclusion-exclusion of log Xi over subsets of the
    multiplicity-free cluster Gamma.

    Zero for disconnected Gamma by definition.
    """
    loops = gamma.loops
    n = len(loops)
    if not is_connected(range(n), overlap_neighbors(loops).__getitem__):
        return 0.0 + 0j
    total = 0.0 + 0j
    for mask in range(1 << n):
        sub = [loops[i] for i in range(n) if mask & (1 << i)]
        xi = restricted_partition(sub, weight_table)
        sign = -1 if (n - len(sub)) % 2 else 1
        total += sign * guarded_log(xi, f"Xi({len(sub)} loops)")
    return total


def connected_loop_subsets(excitations, max_weight: int, anchor=None):
    """All connected subsets of distinct loops with total weight <= m, as
    clusters whose multiplicities are all 1."""
    out = []
    for members in anchored_loop_sets(excitations, max_weight, anchor):
        if len(out) >= DEFAULT_BUDGET:
            raise CombinatorialBudgetExceeded(
                f"subset enumeration exceeded budget {DEFAULT_BUDGET}")
        out.append(Cluster((l, 1) for l in members))
    out.sort(key=lambda s: (s.weight, s.key))
    return out


def counting_numbers(poset: dict) -> dict:
    """Top-down counting numbers of a poset given as {key: member set}.

    Maximal elements get 1; b(x) = 1 - sum of b over the strict supersets
    of x in the poset.  Returns {key: int}.
    """
    order = sorted(poset, key=lambda k: (-len(poset[k]), k))
    b = {}
    for i, k in enumerate(order):
        total = 1
        for k2 in order[:i]:
            if poset[k] < poset[k2]:
                total -= b[k2]
        b[k] = total
    return b


def cumulant_free_energy(tn, messages, excitations, m: int,
                         weight_table: dict):
    """F = F_BP - sum of K(Gamma) over connected subsets, weight <= m.

    Returns (F, correction, subsets) with the subset list for reuse.
    """
    subsets = connected_loop_subsets(excitations, m)
    corr = 0.0 + 0j
    for s in subsets:
        corr += cumulant(s, weight_table)
    f_bp = -bp_log_partition(tn, messages)
    return f_bp - corr, corr, subsets


# --- regions ---------------------------------------------------------------

class Region:
    """Connected vertex-induced subgraph used in the region expansion."""

    __slots__ = ("vertices", "edges", "level")

    def __init__(self, g: Graph, vertices, level):
        self.vertices = frozenset(str(v) for v in vertices)
        self.edges = frozenset(_induced_edges(g, self.vertices))
        self.level = level

    @property
    def key(self):
        return tuple(sorted(self.vertices))

    def __eq__(self, other):
        return isinstance(other, Region) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Region({sorted(self.vertices)})"


def _induced_edges(g: Graph, vset):
    return [e for e, (u, v) in g.edges.items() if u in vset and v in vset]


def _induced_degrees(g: Graph, vset):
    deg = {v: 0 for v in vset}
    for e in _induced_edges(g, vset):
        u, v = g.endpoints(e)
        deg[u] += 1
        deg[v] += 1
    return deg


def _vertex_subsets(g: Graph, k: int, root=None):
    """Connected vertex subsets with <= k vertices, each once; with
    ``root`` given, only those containing it."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[index[w] for w in g.neighbors(v)] for v in verts]
    roots = None if root is None else [index[str(root)]]
    count = 0
    for cur in connected_subsets(nbrs, [1] * len(verts), k, roots):
        count += 1
        if count > DEFAULT_BUDGET:
            raise CombinatorialBudgetExceeded(
                f"vertex-subset enumeration exceeded budget {DEFAULT_BUDGET}")
        yield frozenset(verts[i] for i in cur)


def _intersection_closure(g: Graph, maximal, keep):
    """Region poset from the maximal vertex sets, closed under pairwise
    intersection.  ``keep(p)`` turns an intersection into the region it
    adds (a frozenset), or None to drop it.  Returns the regions level by
    level (0 = maximal)."""
    levels = [[Region(g, s, 0)
               for s in sorted(maximal, key=sorted)]]
    known = {r.vertices for r in levels[0]}
    while True:
        fresh = []
        pool = [r for lvl in levels for r in lvl]
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                p = pool[i].vertices & pool[j].vertices
                if p in known:  # already a region: adds nothing
                    continue
                p = keep(p)
                if p is None or p in known:
                    continue
                known.add(p)
                fresh.append(Region(g, p, len(levels)))
        if not fresh:
            break
        fresh.sort(key=lambda r: r.key)
        levels.append(fresh)
    return [r for lvl in levels for r in lvl]


def find_regions(g: Graph, k: int):
    """Region poset: maximal connected leafless induced subgraphs up to k
    vertices, closed under pairwise intersection.  Returns a list of
    Region with levels (0 = maximal set)."""
    leafless = []
    for vset in _vertex_subsets(g, k):
        deg = _induced_degrees(g, vset)
        if deg and all(d >= 2 for d in deg.values()):
            leafless.append(vset)
    maximal = [s for s in leafless
               if not any(s < t for t in leafless)]

    def keep(p):
        # a leafless connected intersection is a region of its own
        if (p and is_connected(p, g.neighbors)
                and all(d >= 2 for d in _induced_degrees(g, p).values())):
            return p
        return None

    return _intersection_closure(g, maximal, keep)


def find_regions_local(g: Graph, k: int, A):
    """Observable-anchored region poset: regions contain A; only A may be
    a leaf; intersections are pruned of branches not ending on A."""
    A = str(A)
    candidates = []
    for vset in _vertex_subsets(g, k, root=A):
        deg = _induced_degrees(g, vset)
        if all(d >= 2 for v, d in deg.items() if v != A):
            candidates.append(vset)
    maximal = [s for s in candidates if not any(s < t for t in candidates)]

    def keep(p):
        if A not in p or not is_connected(p, g.neighbors):
            return None
        p = set(p)
        # prune branches not ending on A
        while True:
            deg = _induced_degrees(g, p)
            drop = [v for v, d in deg.items() if d <= 1 and v != A
                    and len(p) > 1]
            if not drop:
                break
            p -= set(drop)
        return frozenset(p)

    return _intersection_closure(g, maximal, keep)


def region_partition(tn: TensorNetwork, messages: MessageSet, R: Region,
                     replacements: dict | None = None):
    """(Xi_tilde(R), Xi(R)): boundary-message contraction of the region and
    its BP-normalized value.  ``replacements`` substitutes site tensors
    (operator insertions) inside the region."""
    replacements = replacements or {}
    g = tn.graph
    pieces = []
    for v in sorted(R.vertices):
        internal = [e for (e, n) in g.incident(v) if n in R.vertices]
        pieces.append(messages.dressed(
            v, replacements.get(v, tn.tensors[v]), internal).relabel(
                {f"{e}@{v}": e for e in internal}))
    raw = contract_network(pieces, size_cap=DEFAULT_SIZE_CAP).item()
    denom = 1.0 + 0j
    for z in local_factors(tn, messages, sorted(R.vertices)).values():
        denom *= z
    return raw, raw / denom


def region_free_energy(tn, messages, poset):
    """F = F_BP - sum b(R) log Xi(R) over the region poset."""
    b = counting_numbers({r.key: r.vertices for r in poset})
    corr = 0.0 + 0j
    for r in poset:
        if b[r.key] == 0:
            continue
        _, xi = region_partition(tn, messages, r)
        corr += b[r.key] * guarded_log(xi, f"Xi({r.key})")
    f_bp = -bp_log_partition(tn, messages)
    return f_bp - corr, corr
