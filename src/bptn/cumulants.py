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

from .bp import MessageSet, bp_log_partition
from .clusters import anchored_loop_sets, loops_overlap, overlap_neighbors
from .errors import (BranchCrossing, CapExceeded,
                     CombinatorialBudgetExceeded, ZeroLocalFactor)
from .loops import local_factors
from .network import Graph, TensorNetwork, connected_subsets, is_connected
from .tensor import contract_network

RESTRICTED_CAP = 20


class LoopSubset:
    """A set of distinct loops with its connectivity flag."""

    __slots__ = ("loops", "connected")

    def __init__(self, loops):
        self.loops = tuple(sorted(set(loops), key=lambda l: l.key))
        self.connected = is_connected(
            range(len(self.loops)), overlap_neighbors(self.loops).__getitem__)

    @property
    def key(self):
        return tuple(l.key for l in self.loops)

    @property
    def weight(self):
        return sum(l.weight for l in self.loops)

    def __len__(self):
        return len(self.loops)

    def __le__(self, other):
        return set(self.loops) <= set(other.loops)

    def __eq__(self, other):
        return isinstance(other, LoopSubset) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"LoopSubset({[list(l.key) for l in self.loops]})"


def restricted_partition(B, weight_table: dict, cap: int = RESTRICTED_CAP) -> complex:
    """Xi(B) = 1 + sum over compatible sub-families of prod Z_l."""
    loops = B.loops if isinstance(B, LoopSubset) else tuple(B)
    n = len(loops)
    if n > cap:
        raise CapExceeded(f"|B| = {n} exceeds restricted-partition cap {cap}")
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


def mobius_subset(A, B) -> int:
    """Moebius function of the subset lattice: (-1)^{|B|-|A|} if A <= B."""
    sa = set(A.loops if isinstance(A, LoopSubset) else A)
    sb = set(B.loops if isinstance(B, LoopSubset) else B)
    if not sa <= sb:
        return 0
    return -1 if (len(sb) - len(sa)) % 2 else 1


def guarded_log(xi: complex, what: str) -> complex:
    if xi == 0 or (xi.real <= 0 and abs(xi.imag) <= 1e-14 * abs(xi.real)):
        raise BranchCrossing(
            f"{what} = {xi} on or across the principal-branch cut")
    return cmath.log(xi)


def cumulant(gamma, weight_table: dict) -> complex:
    """K(Gamma): inclusion-exclusion of log Xi over subsets of Gamma.

    Zero for disconnected Gamma by definition.
    """
    if not isinstance(gamma, LoopSubset):
        gamma = LoopSubset(gamma)
    if not gamma.connected:
        return 0.0 + 0j
    loops = gamma.loops
    n = len(loops)
    total = 0.0 + 0j
    for mask in range(1 << n):
        sub = [loops[i] for i in range(n) if mask & (1 << i)]
        xi = restricted_partition(sub, weight_table)
        sign = -1 if (n - len(sub)) % 2 else 1
        total += sign * guarded_log(xi, f"Xi({len(sub)} loops)")
    return total


def connected_loop_subsets(excitations, max_weight: int, anchor=None,
                           budget: int = 10 ** 7):
    """All connected subsets of distinct loops with total weight <= m."""
    out = []
    for members in anchored_loop_sets(excitations, max_weight, anchor):
        if len(out) >= budget:
            raise CombinatorialBudgetExceeded(
                f"subset enumeration exceeded budget {budget}")
        out.append(LoopSubset(members))
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
                         weight_table: dict, subsets=None):
    """F = F_BP - sum of K(Gamma) over connected subsets, weight <= m.

    Returns (F, correction, subsets) with the subset list for reuse.
    """
    if subsets is None:
        subsets = connected_loop_subsets(excitations, m)
    corr = 0.0 + 0j
    for s in subsets:
        if s.weight <= m:
            corr += cumulant(s, weight_table)
    f_bp = -bp_log_partition(tn, messages)
    return f_bp - corr, corr, subsets


def counting_number_free_energy(tn, messages, subsets, weight_table):
    """Equivalent counting-number form: F = F_BP - sum b(B) log Xi(B)."""
    b = counting_numbers({s.key: frozenset(s.loops) for s in subsets})
    corr = 0.0 + 0j
    for s in subsets:
        if b[s.key] == 0:
            continue
        corr += b[s.key] * guarded_log(
            restricted_partition(s, weight_table), "Xi(B)")
    f_bp = -bp_log_partition(tn, messages)
    return f_bp - corr, corr


# --- regions ---------------------------------------------------------------

class Region:
    """Connected vertex-induced subgraph used in the region expansion."""

    __slots__ = ("vertices", "edges", "kind", "level")

    def __init__(self, g: Graph, vertices, kind="bulk", level=0):
        self.vertices = frozenset(str(v) for v in vertices)
        self.edges = frozenset(_induced_edges(g, self.vertices))
        self.kind = kind
        self.level = level

    @property
    def key(self):
        return tuple(sorted(self.vertices))

    def __eq__(self, other):
        return isinstance(other, Region) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Region({sorted(self.vertices)}, kind={self.kind!r})"


def _induced_edges(g: Graph, vset):
    return [e for e, (u, v) in g.edges.items() if u in vset and v in vset]


def _induced_degrees(g: Graph, vset):
    deg = {v: 0 for v in vset}
    for e in _induced_edges(g, vset):
        u, v = g.endpoints(e)
        deg[u] += 1
        deg[v] += 1
    return deg


def _vertex_subsets(g: Graph, k: int, budget: int, root=None):
    """Connected vertex subsets with <= k vertices, each once; with
    ``root`` given, only those containing it."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[index[w] for w in g.neighbors(v)] for v in verts]
    roots = None if root is None else [index[str(root)]]
    count = 0
    for cur in connected_subsets(nbrs, [1] * len(verts), k, roots):
        count += 1
        if count > budget:
            raise CombinatorialBudgetExceeded(
                f"vertex-subset enumeration exceeded budget {budget}")
        yield frozenset(verts[i] for i in cur)


def _intersection_closure(g: Graph, maximal, kind, keep):
    """Region poset from the maximal vertex sets, closed under pairwise
    intersection.  ``keep(p)`` turns an intersection into the region it
    adds (a frozenset), or None to drop it.  Returns the regions level by
    level (0 = maximal)."""
    levels = [[Region(g, s, kind=kind, level=0)
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
                fresh.append(Region(g, p, kind=kind, level=len(levels)))
        if not fresh:
            break
        fresh.sort(key=lambda r: r.key)
        levels.append(fresh)
    return [r for lvl in levels for r in lvl]


def find_regions(g: Graph, k: int, budget: int = 10 ** 7):
    """Region poset: maximal connected leafless induced subgraphs up to k
    vertices, closed under pairwise intersection.  Returns a list of
    Region with levels (0 = maximal set)."""
    leafless = []
    for vset in _vertex_subsets(g, k, budget):
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

    return _intersection_closure(g, maximal, "bulk", keep)


def find_regions_local(g: Graph, k: int, A, budget: int = 10 ** 7):
    """Observable-anchored region poset: regions contain A; only A may be
    a leaf; intersections are pruned of branches not ending on A."""
    A = str(A)
    candidates = []
    for vset in _vertex_subsets(g, k, budget, root=A):
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

    return _intersection_closure(g, maximal, "anchored", keep)


def region_partition(tn: TensorNetwork, messages: MessageSet, R: Region,
                     replacements: dict | None = None, size_cap=2 ** 26):
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
    raw = contract_network(pieces, size_cap=size_cap).item()
    denom = 1.0 + 0j
    for z in local_factors(tn, messages, R.vertices).values():
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
