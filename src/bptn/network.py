"""Graph and tensor-network data model plus the exact contraction oracle.

A TensorNetwork is a simple graph (no self-loops, no parallel edges) whose
vertices hold DenseTensors.  A closed network's tensors have exactly the
incident edge ids as legs; the PEPS form additionally carries one physical
leg per site, with id ``phys_leg(v)``.  Every dimension is a tensor axis
length, recorded nowhere else.

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

from .errors import InputError, NumericalError
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
                raise InputError(f"edge {e!r} is a self-loop at {u!r}")
            if u not in vset or v not in vset:
                raise InputError(f"edge {e!r} touches unknown vertex")
            pair = frozenset((u, v))
            if pair in seen_pairs:
                raise InputError(f"parallel edge {e!r} between {u!r},{v!r}")
            seen_pairs.add(pair)
            self.edges[e] = (u, v)
        self._adj = {v: [] for v in self.vertices}
        for e, (u, v) in self.edges.items():
            self._adj[u].append((e, v))
            self._adj[v].append((e, u))
        for v in self._adj:
            self._adj[v].sort()
        # each vertex's neighbours and incident edges as bit masks over
        # ``vertices`` and ``edge_ids``; two neighbours share one edge
        index = {v: i for i, v in enumerate(self.vertices)}
        self.edge_ids = sorted(self.edges)
        self.adj, self.inc = [0] * len(index), [0] * len(index)
        for j, e in enumerate(self.edge_ids):
            a, b = (index[v] for v in self.edges[e])
            self.adj[a] |= 1 << b
            self.adj[b] |= 1 << a
            self.inc[a] |= 1 << j
            self.inc[b] |= 1 << j
        self._cycles = (0, ())  # (size, the cycles up to it): see grown_sets

    def incident(self, v):
        """Sorted list of (edge id, neighbor) pairs at v."""
        return list(self._adj[str(v)])

    def edge_between(self, u, v):
        for (e, w) in self._adj[str(u)]:
            if w == str(v):
                return e
        return None


class TensorNetwork:
    """Graph + per-vertex tensors.  ``bond_dims`` and ``phys_dims`` are
    read off the tensors: {edge: dim}, and {vertex: dim} of each vertex
    whose tensor has a physical leg."""

    def __init__(self, graph: Graph, tensors: dict):
        self.graph = graph
        self.tensors = {str(v): t for v, t in tensors.items()}
        self._validate()

    def _validate(self):
        if set(self.tensors) != set(self.graph.vertices):
            raise InputError("tensors keys must equal vertex ids")
        self.bond_dims, self.phys_dims = {}, {}
        for v, t in self.tensors.items():
            want = {e for (e, _) in self.graph.incident(v)}
            if set(t.leg_ids) - {phys_leg(v)} != want:
                raise InputError(
                    f"vertex {v!r}: tensor legs {sorted(t.leg_ids)} != "
                    f"incident legs {sorted(want)} (and at most "
                    f"{phys_leg(v)!r})")
            for x, dim in zip(t.leg_ids, t.data.shape):
                if x == phys_leg(v):
                    self.phys_dims[v] = dim
                elif self.bond_dims.setdefault(x, dim) != dim:
                    raise InputError(
                        f"edge {x!r}: dim {dim} at vertex {v!r} != dim "
                        f"{self.bond_dims[x]} at its other end")

    @property
    def is_closed(self) -> bool:
        return not self.phys_dims

    def replace_tensors(self, replacements: dict) -> "TensorNetwork":
        tensors = dict(self.tensors)
        for v, t in replacements.items():
            tensors[str(v)] = t
        return TensorNetwork(self.graph, tensors)


@np.errstate(all="ignore")          # a Z that overflows is refused below
def exact_contract(tn: TensorNetwork) -> complex:
    """Full contraction of a closed network; ground-truth oracle."""
    if not tn.is_closed:
        raise InputError("exact_contract needs a closed network")
    z = contract_network(tn.tensors.values(), size_cap=DEFAULT_SIZE_CAP).item()
    if not np.isfinite(z):
        raise NumericalError(f"exact contraction is not finite: {z}")
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
        raise InputError(f"no physical leg at vertices {missing}")
    return TensorNetwork(peps.graph, {
        v: _double_tensor(peps.tensors[v], phys_leg(v))
        for v in peps.graph.vertices})


def peps_replacements(peps: TensorNetwork, ops: dict) -> dict:
    """Replacement double tensors that insert the operators ``ops``
    ({vertex: physical-space matrix}) into the norm network of ``peps``:
    {vertex: double tensor with O_v sandwiched}."""
    out = {}
    for v, op in ops.items():
        v, op = str(v), np.asarray(op, dtype=complex)
        if v not in peps.phys_dims:
            raise InputError(
                f"vertex {v!r} not in network or not physical")
        d = peps.phys_dims[v]
        if op.shape != (d, d):
            raise InputError(
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
        for _, w in g.incident(v):
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


def spread(adj, mask):
    """The union of the neighbour masks ``adj[i]`` over the bits of
    ``mask``."""
    out = 0
    for i in set_bits(mask):
        out |= adj[i]
    return out


def is_connected(mask, adj) -> bool:
    """Whether the bit mask ``mask`` is nonzero and connected, ``adj[i]``
    the neighbour mask of bit i: a breadth-first search inside it."""
    reached = front = mask & -mask
    while front:
        front = spread(adj, front) & mask & ~reached
        reached |= front
    return reached == mask != 0


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
    ``g.edge_ids``.  By edge, a set has at most ``size`` edges.
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
    mask; by vertex, the vertex mask), and by vertex a full set does not
    grow, as a chord keeps its key.

    The cycles are searched once per graph: a walk with neither terminals
    nor anchor that runs to its end keeps them on ``g``, and a later walk
    of no larger size grows from those that fit (and from its terminals)
    instead.  So the order of the sets, and by vertex the edge mask of a
    key, may differ from walk to walk.

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
    adj, inc, key = g.adj, g.inc, 0 if by_vertex else 1
    ends = sum(1 << g.vertices.index(v) for v in terminals)
    searched, cycles = g._cycles
    # todo: (vertex mask, edge mask, the vertices a path may take); a leaf
    # may form in a set that a path may take every vertex from.  The seeds
    # that fit (a cycle has as many vertices as edges) are yielded first.
    if anchor is not None:
        seeds, todo = [(1 << g.vertices.index(str(anchor)), 0)], []
    elif size <= searched:  # an earlier walk found the cycles
        seeds, todo = cycles, [(1 << s, 0, -1) for s in set_bits(ends)]
    else:
        seeds, cycles = [], set()
        todo = [(1 << s, 0, -1 if ends >> s & 1 else -2 << s)
                for s in range(len(adj))]
    seeds = {new[key]: new for new in seeds if new[0].bit_count() <= size}
    seen = set(seeds)
    yield from seeds.values()
    todo += [(*new, -1) for new in seeds.values()]
    while todo:
        vm, em, allow = todo.pop()
        # the new vertices a path may take (by edge, its edges but the
        # last); by vertex, a full set takes only chords, which keep its key
        room = size - (vm.bit_count() if by_vertex else em.bit_count() + 1)
        if room < by_vertex:
            continue
        leafy = allow == -1
        lolly = leafy and room >= 3  # a stem and a cycle may fit
        if not lolly:  # reach[d]: the vertices within d of what ends a path
            reach = [vm | ends if leafy else vm]
            for _ in range(room):
                reach.append(reach[-1] | spread(adj, reach[-1]) & allow)
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
                    e = inc[u] & inc[low.bit_length() - 1]
                    if not e & em:
                        grown.append((vm | pm, em | pe | e))
                free = adj[u] & allow & ~(vm | pm)
                if leafy:
                    t = free & ends
                    while t:
                        low = t & -t
                        t ^= low
                        e = inc[u] & inc[low.bit_length() - 1]
                        grown.append((vm | pm | low, em | pe | e))
                if not leafy:  # a root's search: these are its cycles
                    cycles.update(grown)
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
                        stack.append((w, pm | low, pe | inc[u] & inc[w],
                                      n + 1, 1 << u))
    if anchor is None and not ends and size > searched:  # searched them all
        g._cycles = size, cycles
