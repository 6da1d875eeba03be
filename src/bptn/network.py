"""Graph and tensor-network data model plus the exact contraction oracle.

A TensorNetwork is a simple graph (no self-loops, no parallel edges) whose
vertices hold DenseTensors.  A closed network's tensors have exactly the
incident edge ids as legs; the PEPS form additionally carries one physical
leg per site, with id ``phys_leg(v)``.

Exact contraction is a greedy pairwise contraction used as ground truth at
desk scale -- correctness over speed.

Every expansion sums over connected objects.  ``grown_sets``, one path
search that grows sets from cycles by ears, lollipops and terminal paths,
finds the loops and strings (edge sets) and the regions (vertex sets);
``connected_subsets``, a bit-mask walk, finds the clusters and cumulant
subsets (sets on the loop-overlap graph).  ``peps_replacements`` is the
one adapter from a PEPS operator insertion, a {vertex: matrix} map, to
the replacement tensors the estimators take.
"""

from __future__ import annotations

import functools
from collections import deque

import numpy as np

from .errors import (DimensionMismatch, MissingPhysicalLeg, NumericalCollapse,
                     RegionMismatch)
from .tensor import DenseTensor, contract_network

DEFAULT_SIZE_CAP = 2 ** 26


def phys_leg(v) -> str:
    """Leg id of the physical leg at vertex v (PEPS form)."""
    return f"p:{v}"


class Graph:
    """Undirected simple graph with string vertex and edge ids."""

    def __init__(self, vertices, edges):
        """``edges`` maps edge id -> (u, v)."""
        self.vertices = sorted(str(v) for v in vertices)
        vset = set(self.vertices)
        self.edges = {}
        seen_pairs = set()
        for e, (u, v) in edges.items():
            e, u, v = str(e), str(u), str(v)
            if u == v:
                raise DimensionMismatch(f"edge {e!r} is a self-loop at {u!r}")
            if u not in vset or v not in vset:
                raise DimensionMismatch(f"edge {e!r} touches unknown vertex")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise DimensionMismatch(f"parallel edge {e!r} between {u!r},{v!r}")
            seen_pairs.add(pair)
            self.edges[e] = (u, v)
        self._adj = {v: [] for v in self.vertices}
        for e, (u, v) in self.edges.items():
            self._adj[u].append((e, v))
            self._adj[v].append((e, u))
        for v in self._adj:
            self._adj[v].sort()

    def neighbors(self, v):
        return [w for (_, w) in self._adj[str(v)]]

    def incident(self, v):
        """Sorted list of (edge id, neighbor) pairs at v."""
        return list(self._adj[str(v)])

    def endpoints(self, e):
        return self.edges[str(e)]

    def edge_between(self, u, v):
        for (e, w) in self._adj[str(u)]:
            if w == str(v):
                return e
        return None


class TensorNetwork:
    """Graph + per-edge bond dims + per-vertex tensors (+ physical dims)."""

    def __init__(self, graph: Graph, bond_dims: dict, tensors: dict,
                 phys_dims: dict | None = None):
        self.graph = graph
        self.bond_dims = {str(e): int(d) for e, d in bond_dims.items()}
        self.phys_dims = {str(v): int(d) for v, d in (phys_dims or {}).items()}
        self.tensors = {str(v): t for v, t in tensors.items()}
        self._validate()

    def _validate(self):
        if set(self.bond_dims) != set(self.graph.edges):
            raise DimensionMismatch("bond_dims keys must equal edge ids")
        if set(self.tensors) != set(self.graph.vertices):
            raise DimensionMismatch("tensors keys must equal vertex ids")
        for v, t in self.tensors.items():
            want = {e for (e, _) in self.graph.incident(v)}
            if v in self.phys_dims:
                want.add(phys_leg(v))
            if set(t.leg_ids) != want:
                raise DimensionMismatch(
                    f"vertex {v!r}: tensor legs {sorted(t.leg_ids)} != "
                    f"incident legs {sorted(want)}")
            for x, dim in zip(t.leg_ids, t.data.shape):
                if x in self.bond_dims and dim != self.bond_dims[x]:
                    raise DimensionMismatch(
                        f"vertex {v!r}, leg {x!r}: dim {dim} != "
                        f"bond dim {self.bond_dims[x]}")
                if x == phys_leg(v) and dim != self.phys_dims.get(v):
                    raise DimensionMismatch(
                        f"vertex {v!r}: physical dim {dim} != declared "
                        f"{self.phys_dims.get(v)}")

    @property
    def is_closed(self) -> bool:
        return not self.phys_dims

    def replace_tensors(self, replacements: dict) -> "TensorNetwork":
        tensors = dict(self.tensors)
        for v, t in replacements.items():
            tensors[str(v)] = t
        return TensorNetwork(self.graph, self.bond_dims, tensors, self.phys_dims)


@np.errstate(all="ignore")          # a Z that overflows is refused below
def exact_contract(tn: TensorNetwork) -> complex:
    """Full contraction of a closed network; ground-truth oracle."""
    if not tn.is_closed:
        raise MissingPhysicalLeg("exact_contract needs a closed network")
    z = contract_network(tn.tensors.values(), size_cap=DEFAULT_SIZE_CAP).item()
    if not np.isfinite(z):
        raise NumericalCollapse(f"exact contraction is not finite: {z}")
    return z


def _double_tensor(t: DenseTensor, pid: str, op=None) -> DenseTensor:
    """Pair a site tensor with its conjugate over the physical leg.

    With ``op`` given, sandwiches the matrix between bra and ket:
    sum_{i,j} conj(T)_i op[i,j] T_j.  Each bond leg e of dimension D
    becomes a fused leg of dimension D^2, fused ket-major.
    """
    ids = t.leg_ids
    p_ax = ids.index(pid)
    ket = t.data
    if op is not None:
        op = np.asarray(op, dtype=complex)
        ket = np.moveaxis(np.tensordot(ket, op, axes=([p_ax], [1])), -1, p_ax)
    d = np.tensordot(ket, np.conj(t.data), axes=(p_ax, p_ax))
    k = len(ids) - 1
    # interleave (ket_1, bra_1, ket_2, bra_2, ...) then fuse each pair
    perm = [x for i in range(k) for x in (i, i + k)]
    d = np.transpose(d, perm).reshape([n * n for n in d.shape[:k]])
    return DenseTensor([x for x in ids if x != pid], d)


def build_norm_network(peps: TensorNetwork) -> TensorNetwork:
    """Closed network for <psi|psi> with per-site double tensors."""
    missing = [v for v in peps.graph.vertices if v not in peps.phys_dims]
    if missing:
        raise MissingPhysicalLeg(f"no physical leg at vertices {missing}")
    tensors = {v: _double_tensor(peps.tensors[v], phys_leg(v))
               for v in peps.graph.vertices}
    bond_dims = {e: d * d for e, d in peps.bond_dims.items()}
    return TensorNetwork(peps.graph, bond_dims, tensors)


def peps_replacements(peps: TensorNetwork, ops: dict) -> dict:
    """Replacement double tensors that insert the operators ``ops``
    ({vertex: physical-space matrix}) into the norm network of ``peps``:
    {vertex: double tensor with O_v sandwiched}."""
    out = {}
    for v, op in ops.items():
        v, op = str(v), np.asarray(op, dtype=complex)
        if v not in peps.phys_dims:
            raise RegionMismatch(
                f"vertex {v!r} not in network or not physical")
        d = peps.phys_dims[v]
        if op.shape != (d, d):
            raise RegionMismatch(
                f"vertex {v!r}: operator shape {op.shape} != ({d}, {d})")
        out[v] = _double_tensor(peps.tensors[v], phys_leg(v), op)
    return out


def bfs(g: Graph, A):
    """Breadth-first search from vertex set A over its component.

    Returns ({vertex: distance}, {vertex: number of shortest paths}).
    """
    dist = {a: 0 for a in A}
    paths = {a: 1 for a in A}
    q = deque(dist)
    while q:
        v = q.popleft()
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                paths[w] = 0
                q.append(w)
            if dist[w] == dist[v] + 1:
                paths[w] += paths[v]
    return dist, paths


def set_bits(mask):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_connected(items, neighbors) -> bool:
    """Whether ``items`` is nonempty and connected, where ``neighbors(x)``
    gives the neighbours of x (those outside ``items`` are ignored)."""
    items = set(items)
    if not items:
        return False
    start = next(iter(items))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in neighbors(x):
            if y in items and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == items


def connected_subsets(nbrs, weights, max_weight):
    """Yield each connected index subset of total weight <= max_weight once,
    as an index tuple in the order grown.

    ``nbrs[i]`` holds each index adjacent to index i once; ``weights[i]``
    is its positive weight.  A subset grows from its smallest index over
    higher ones, so it is yielded once.

    The walk is a take-or-leave stack on bit masks: a subset's candidates
    ``cand`` are the neighbours it may still take, and taking one bans the
    candidates before it, so two branches never grow the same subset.
    ``seen`` holds the indices up to the root and every index a subset has
    taken, banned or made a candidate; only an unseen neighbour of a newly
    taken index becomes a candidate (a mask cached per call as its
    ascending tuple), so no subset grown from ``cur`` takes a neighbour of
    ``cur`` outside ``cand``.
    """
    adj = [sum(1 << y for y in nb) for nb in nbrs]
    ascending = functools.cache(lambda mask: tuple(set_bits(mask)))
    stop = max_weight - min(weights, default=0)
    for root in range(len(weights)):
        if weights[root] > max_weight:
            continue
        base = (2 << root) - 1  # the root and every index before it
        first = adj[root] & ~base
        stack = [((root,), ascending(first), base | first, weights[root])]
        while stack:
            cur, cand, seen, w = stack.pop()
            yield cur
            if w > stop:  # at the weight limit: no index fits
                continue
            for i, x in enumerate(cand):
                wx = w + weights[x]
                if wx > max_weight:
                    continue
                grown = adj[x] & ~seen
                stack.append((cur + (x,), cand[i + 1:] + ascending(grown),
                              seen | grown, wx))


def grown_sets(g: Graph, size: int, terminals=(), anchor=None,
               by_vertex=False):
    """Each connected set in which no vertex but a terminal is a leaf,
    once, as (vertex mask, edge mask) over ``g.vertices`` and
    ``sorted(g.edges)``.  By edge, a set has at most ``size`` edges.
    ``by_vertex``, it has at most ``size`` vertices, a leaf has fewer than
    two neighbours in it, ``anchor`` is the one terminal and in every set,
    and the edge mask spans the set with no leaf but the anchor.

    Sets grow from roots by steps.  A step adds a path through new
    vertices from a vertex of the set that ends as an ear, on the set
    (maybe where it began), as a lollipop, on its own path, or as a
    terminal path, at a new terminal.  A root is each simple cycle, from
    its smallest vertex through higher ones, and each terminal as the
    one-vertex set it grows from (the anchor is itself yielded).  A path
    goes on only while what could end it is within reach of the size
    left, or a lollipop may fit; sets are deduplicated by key (the edge
    mask; by vertex, the vertex mask).

    Every valid set S is grown.  Take a spanning edge set F of S that
    stays valid and drops no edge it could (S itself, by edge), and call
    a thread a path of F between vertices of degree other than 2, or the
    anchor, with inner vertices of degree 2.  Unless S is a root, a piece
    of F comes off and leaves it valid: if F has a leaf other than the
    anchor, the thread at it (a terminal path, from the root at the other
    end if F is a path); else, in the multigraph of threads, where every
    vertex but the anchor has degree >= 3, a thread that is no bridge and
    leaves each end degree >= 2 or the anchor (an ear).  That exists
    unless a leaf block away from the anchor is one vertex with one loop;
    then that loop and the bridge thread to it come off (a lollipop).  No
    piece takes the anchor, and as F is minimal each takes a vertex, so a
    step grows S from a smaller valid set.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    adj, bond = [0] * len(index), {}
    for i, e in enumerate(sorted(g.edges)):
        a, b = (index[v] for v in g.edges[e])
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        bond[a, b] = bond[b, a] = 1 << i
    ends = sum(1 << index[v] for v in terminals)
    # (vertex mask, edge mask, the vertices a path may take); a leaf may
    # form in a set that a path may take every vertex from
    if anchor is not None:
        todo = [(1 << index[str(anchor)], 0, -1)] if size > 0 else []
        yield from (root[:2] for root in todo)
    else:
        todo = [(1 << s, 0, -1 if ends >> s & 1 else -2 << s)
                for s in range(len(index))]
    seen, key = set(), 0 if by_vertex else 1
    while todo:
        vm, em, allow = todo.pop()
        # the new vertices a path may take (by edge, its edges but the last)
        room = size - (vm.bit_count() if by_vertex else em.bit_count() + 1)
        if room < 0:
            continue
        leafy = allow == -1
        lolly = leafy and room >= 3  # a stem and a cycle may fit
        if not lolly:  # reach[d]: the vertices within d of what ends a path
            reach = [vm | ends if leafy else vm]
            for _ in range(room):
                out, m = 0, reach[-1]
                while m:
                    low = m & -m
                    m ^= low
                    out |= adj[low.bit_length() - 1]
                reach.append(reach[-1] | out & allow)
        roots = vm
        while roots:
            low = roots & -roots
            roots ^= low
            # (its end, its new vertices, its edges, length, the one before)
            stack = [(low.bit_length() - 1, 0, 0, 0, 0)]
            while stack:
                u, pm, pe, n, back = stack.pop()
                grown = []
                hit = adj[u] & (vm | pm if leafy else vm) & ~back
                while hit:
                    low = hit & -hit
                    hit ^= low
                    e = bond[u, low.bit_length() - 1]
                    if not e & em:
                        grown.append((vm | pm, em | pe | e))
                free = adj[u] & allow & ~(vm | pm)
                if leafy:
                    t = free & ends
                    while t:
                        low = t & -t
                        t ^= low
                        grown.append((vm | pm | low,
                                      em | pe | bond[u, low.bit_length() - 1]))
                for new in grown:
                    if new[key] not in seen:
                        seen.add(new[key])
                        yield new
                        todo.append((*new, -1))
                if n < room:
                    if not lolly:
                        free &= reach[room - n]
                    while free:
                        low = free & -free
                        free ^= low
                        w = low.bit_length() - 1
                        stack.append((w, pm | low, pe | bond[u, w],
                                      n + 1, 1 << u))
