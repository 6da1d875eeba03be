"""Cluster-cumulant machinery and the region-based expansion.

Restricted partition functions Xi(B) are hard-core loop-gas sums over a
finite loop subset, built bottom up as one table over all subsets of a
cluster; cumulants K(Gamma) are their inclusion-exclusion (Moebius)
transform on the subset lattice and resum all multiplicities of a loop
set at once.  The region formulation evaluates Xi directly as a
small tensor contraction with BP messages on the region boundary, with
integer counting numbers assigned top-down through the intersection-closed
region poset; the values a resummation needs are one bulk contraction
(``tensor.contract_many``).

One routine, ``find_regions``, builds that poset, optionally anchored at
an observable's vertex, from the vertex sets ``network.grown_sets`` grows
from cycles (or from the anchor) and a semi-naive intersection closure.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain, combinations, islice, product

from .bp import MessageSet, bp_log_partition, local_factors
from .clusters import Cluster, loops_overlap, overlap_neighbors
from .errors import BranchCrossing, CapExceeded, CombinatorialBudgetExceeded
from .network import (DEFAULT_SIZE_CAP, Graph, grown_sets, is_connected,
                      set_bits)
# under the name perfbench/tracing.py wraps
from .tensor import contract_closed as contract_network

RESTRICTED_CAP = 20
DEFAULT_BUDGET = 10 ** 7  # vertex sets the region finder grows


def restricted_partition(loops, weight_table: dict) -> list:
    """Xi(S) = 1 + sum over compatible sub-families of prod Z_l, for every
    subset S of the sequence of distinct loops, indexed by bit mask, so
    entry -1 is Xi of them all.

    Bottom up: Xi(S) = Xi(S - i) + Z_i Xi(S - i - N(i)), where i is the
    lowest index in S and N(i) the loops that overlap loop i.
    """
    n = len(loops)
    if n > RESTRICTED_CAP:
        raise CapExceeded(
            f"|B| = {n} exceeds restricted-partition cap {RESTRICTED_CAP}")
    keep = [-1] * n  # the loops compatible with loop i
    for i in range(n):
        for j in range(i + 1, n):
            if loops_overlap(loops[i], loops[j]):
                keep[i] &= ~(1 << j)
                keep[j] &= ~(1 << i)
    z = [weight_table[l.key] for l in loops]
    xi = [1.0 + 0j] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        xi[mask] = xi[rest] + z[i] * xi[rest & keep[i]]
    return xi


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
    if not is_connected((1 << n) - 1, [sum(1 << j for j in nb)
                                       for nb in overlap_neighbors(loops)]):
        return 0.0 + 0j
    total = 0.0 + 0j
    for mask, xi in enumerate(restricted_partition(loops, weight_table)):
        size = mask.bit_count()
        sign = -1 if (n - size) % 2 else 1
        total += sign * guarded_log(xi, f"Xi({size} loops)")
    return total


def connected_loop_subsets(clusters) -> list:
    """The connected subsets of distinct loops among ``clusters`` (a list
    from ``enumerate_clusters``): those whose multiplicities are all 1, in
    its order."""
    return [c for c in clusters if c.n_loops == len(c.members)]


def counting_numbers(poset: dict) -> dict:
    """Top-down counting numbers of a poset given as {key: member set}.

    Maximal elements get 1; b(x) = 1 - sum of b over the strict supersets
    of x in the poset.  Returns {key: int}.  Each member is a bit, so a
    member set is an integer mask.
    """
    bit, b, done = {}, {}, []  # done: (mask, b) of each key so far
    for k in sorted(poset, key=lambda k: (-len(poset[k]), k)):
        m = sum(1 << bit.setdefault(x, len(bit)) for x in poset[k])
        b[k] = 1 - sum(c for m2, c in done if m2 & m == m != m2)
        done.append((m, b[k]))
    return b


def cumulant_sums(subsets, tables) -> list:
    """Sum of K(Gamma) over the loop ``subsets``, one per weight table."""
    sums = [0.0 + 0j] * len(tables)
    for g in subsets:
        sums = [s + cumulant(g, t) for s, t in zip(sums, tables)]
    return sums


def cumulant_free_energy(messages, clusters, weight_table: dict):
    """(F, correction): F = F_BP - sum of K(Gamma) over the connected
    subsets in ``clusters``."""
    (corr,) = cumulant_sums(connected_loop_subsets(clusters), [weight_table])
    return -bp_log_partition(messages) - corr, corr


# --- regions ---------------------------------------------------------------

class Region:
    """Connected vertex-induced subgraph used in the region expansion,
    built from its vertex mask over ``g.vertices``."""

    __slots__ = ("vertices", "edges", "level", "key")

    def __init__(self, g: Graph, mask, level):
        self.key = tuple(g.vertices[i] for i in set_bits(mask))
        self.vertices = frozenset(self.key)
        touched = inside = 0  # an edge touched twice is inside
        for i in set_bits(mask):
            inside |= touched & g.inc[i]
            touched |= g.inc[i]
        self.edges = frozenset(g.edge_ids[j] for j in set_bits(inside))
        self.level = level

    def __repr__(self):
        return f"Region({sorted(self.vertices)})"


def find_regions(g: Graph, k: int, anchor=None):
    """Region poset up to k vertices, as a list of Region by level.

    Level 0 holds the maximal connected vertex sets in which no vertex but
    ``anchor`` is a leaf (has induced degree < 2).  Each further level
    holds the new regions among the pairwise intersections of the levels
    before it.  Without an anchor an intersection is a region when it is
    connected and leafless; with one, when it is connected and holds the
    anchor, once the branches that do not end on the anchor are cut off.

    Vertex sets stay bit masks over ``g.vertices`` until each becomes a
    Region; ``grown_sets`` grows the level-0 candidates by vertex, each
    connected and without leaves but the anchor.  The closure is
    semi-naive: a level pairs only the newest regions with the earlier
    ones and with each other, and judges each intersection once.  The
    regions of each level do not depend on the order of the grown sets,
    and a level is listed sorted by key.
    """
    adj = g.adj
    pinned = 0 if anchor is None else 1 << g.vertices.index(str(anchor))

    def leaves(mask):
        """The vertices of ``mask`` other than the anchor with induced
        degree < 2."""
        out = 0
        for i in set_bits(mask & ~pinned):
            x = adj[i] & mask
            if not x & (x - 1):
                out |= 1 << i
        return out

    sets = [mask for mask, _ in islice(grown_sets(
        g, k, anchor=anchor, by_vertex=True), DEFAULT_BUDGET + 1)]
    if len(sets) > DEFAULT_BUDGET:
        raise CombinatorialBudgetExceeded(
            f"vertex-subset enumeration exceeded budget {DEFAULT_BUDGET}")
    # largest first, so a set is maximal unless it lies in an earlier
    # maximal one
    maximal = []
    for p in sorted(sets, key=int.bit_count, reverse=True):
        if not any(p & q == p for q in maximal):
            maximal.append(p)

    def keep(p):
        if not is_connected(p, adj):
            return None
        if anchor is None:
            return None if leaves(p) else p
        while drop := leaves(p):
            p &= ~drop
        return p

    levels = [maximal]
    known, judged = set(maximal), set(maximal)
    while True:
        new = levels[-1]
        older = [s for lvl in levels[:-1] for s in lvl]
        fresh = []
        for a, b in chain(product(new, older), combinations(new, 2)):
            p = a & b
            if p in judged:
                continue
            judged.add(p)
            p = keep(p)
            if p is None or p in known:
                continue
            known.add(p)
            fresh.append(p)
        if not fresh:
            break
        levels.append(fresh)
    out = []
    for level, masks in enumerate(levels):
        out += sorted((Region(g, s, level) for s in masks),
                      key=lambda r: r.key)
    return out


def region_partition(messages: MessageSet, jobs) -> list:
    """(Xi_tilde(R), Xi(R)) for each (region R, replacements) job: the
    boundary-message contraction of the region and its BP-normalized value,
    all in one ``contract_closed`` call.  ``replacements`` substitutes site
    tensors (operator insertions) inside the region.  A region's edges
    are numbered once, by first appearance along its sorted support."""
    tn = messages.plan.tn
    incident = {v: sorted(tn.graph.incident(v)) for v in tn.graph.vertices}
    regions, sites = {}, []     # vertex set -> [(vertex, kept edges, legs)]
    for R, _ in jobs:
        if R.vertices not in regions:
            index, regions[R.vertices] = {}, []
            for v in sorted(R.vertices):
                kept, legs = [], []
                for e, w in incident[v]:
                    if w in R.vertices:
                        kept.append(e)
                        legs.append(index.setdefault(e, len(index)))
                regions[R.vertices].append((v, tuple(kept), tuple(legs)))
        sites.append(regions[R.vertices])
    pieces = iter(messages.dressed([
        (v, replacements.get(v, tn.tensors[v]), kept)
        for (_, replacements), job in zip(jobs, sites) for v, kept, _ in job]))
    raws = contract_network([[(legs, next(pieces)[1]) for _, _, legs in job]
                             for job in sites], size_cap=DEFAULT_SIZE_CAP)
    factors = local_factors(messages, dict.fromkeys(
        v for job in regions.values() for v, _, _ in job))
    return [(raw, raw / math.prod((factors[v] for v, _, _ in job),
                                  start=1.0 + 0j))
            for raw, job in zip(raws, sites)]


def region_free_energy(messages, poset):
    """F = F_BP - sum b(R) log Xi(R) over the region poset."""
    b = counting_numbers({r.key: r.vertices for r in poset})
    poset = [r for r in poset if b[r.key] != 0]
    corr = 0.0 + 0j
    for r, (_, xi) in zip(poset, region_partition(
            messages, [(r, {}) for r in poset])):
        corr += b[r.key] * guarded_log(xi, f"Xi({r.key})")
    f_bp = -bp_log_partition(messages)
    return f_bp - corr, corr
