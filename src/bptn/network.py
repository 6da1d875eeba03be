"""Graph and tensor-network data model plus the exact contraction oracle.

A TensorNetwork is a simple graph (no self-loops, no parallel edges) whose
vertices hold DenseTensors.  A closed network's tensors have exactly the
incident edge ids as legs; the PEPS form additionally carries one physical
leg per site, with id ``phys_leg(v)``.

Exact contraction is a greedy pairwise contraction used as ground truth at
desk scale -- correctness over speed.

Every expansion sums over connected objects: loops (edge sets), regions
(vertex sets), clusters and cumulant subsets (sets in the loop-overlap
graph).  ``connected_subsets`` is the one walk that enumerates them;
``peps_replacements`` is the one adapter from a PEPS operator insertion to
the replacement tensors the estimators take.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .errors import (DimensionMismatch, MissingPhysicalLeg, RegionMismatch,
                     TooLarge)
from .tensor import DenseTensor, Leg, contract_network

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

    def degree(self, v) -> int:
        return len(self._adj[str(v)])

    @property
    def max_degree(self) -> int:
        return max((self.degree(v) for v in self.vertices), default=0)

    def endpoints(self, e):
        return self.edges[str(e)]

    def other_end(self, e, v):
        u, w = self.edges[str(e)]
        return w if u == str(v) else u

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
            for l in t.legs:
                if l.id in self.bond_dims and l.dim != self.bond_dims[l.id]:
                    raise DimensionMismatch(
                        f"vertex {v!r}, leg {l.id!r}: dim {l.dim} != "
                        f"bond dim {self.bond_dims[l.id]}")
                if l.id == phys_leg(v) and l.dim != self.phys_dims.get(v):
                    raise DimensionMismatch(
                        f"vertex {v!r}: physical dim {l.dim} != declared "
                        f"{self.phys_dims.get(v)}")

    @property
    def is_closed(self) -> bool:
        return not self.phys_dims

    def replace_tensors(self, replacements: dict) -> "TensorNetwork":
        tensors = dict(self.tensors)
        for v, t in replacements.items():
            tensors[str(v)] = t
        return TensorNetwork(self.graph, self.bond_dims, tensors, self.phys_dims)


class OperatorInsertion:
    """A region of vertices with one physical-space matrix per vertex."""

    def __init__(self, site_operators: dict):
        self.site_operators = {
            str(v): np.asarray(m, dtype=complex) for v, m in site_operators.items()}
        self.region = frozenset(self.site_operators)

    def operator(self, v):
        return self.site_operators[str(v)]


def exact_contract(tn: TensorNetwork, size_cap: int = DEFAULT_SIZE_CAP) -> complex:
    """Full contraction of a closed network; ground-truth oracle."""
    if not tn.is_closed:
        raise MissingPhysicalLeg("exact_contract needs a closed network")
    result = contract_network(tn.tensors.values(), size_cap=size_cap)
    return result.item()


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
    bond_legs = [l for l in t.legs if l.id != pid]
    k = len(bond_legs)
    # interleave (ket_1, bra_1, ket_2, bra_2, ...) then fuse each pair
    perm = [x for i in range(k) for x in (i, i + k)]
    d = np.transpose(d, perm).reshape([l.dim ** 2 for l in bond_legs])
    return DenseTensor([Leg(l.id, l.dim ** 2) for l in bond_legs], d)


def build_norm_network(peps: TensorNetwork) -> TensorNetwork:
    """Closed network for <psi|psi> with per-site double tensors."""
    missing = [v for v in peps.graph.vertices if v not in peps.phys_dims]
    if missing:
        raise MissingPhysicalLeg(f"no physical leg at vertices {missing}")
    tensors = {v: _double_tensor(peps.tensors[v], phys_leg(v))
               for v in peps.graph.vertices}
    bond_dims = {e: d * d for e, d in peps.bond_dims.items()}
    return TensorNetwork(peps.graph, bond_dims, tensors)


def peps_replacements(peps: TensorNetwork, ins: OperatorInsertion) -> dict:
    """Replacement double tensors that insert ``ins`` into the norm network
    of ``peps``: {vertex: double tensor with O_v sandwiched}."""
    for v in ins.region:
        if v not in peps.phys_dims:
            raise RegionMismatch(
                f"vertex {v!r} not in network or not physical")
        d = peps.phys_dims[v]
        if ins.operator(v).shape != (d, d):
            raise RegionMismatch(
                f"vertex {v!r}: operator shape {ins.operator(v).shape} "
                f"!= ({d}, {d})")
    return {v: _double_tensor(peps.tensors[v], phys_leg(v), ins.operator(v))
            for v in ins.region}


def insert_operator(tn_norm: TensorNetwork, peps: TensorNetwork,
                    ins: OperatorInsertion) -> TensorNetwork:
    """The Z^A network: double tensors on A sandwich O_v; others shared."""
    return tn_norm.replace_tensors(peps_replacements(peps, ins))


def merge_region(tn: TensorNetwork, region):
    """Merge a vertex set into one supervertex on a closed network.

    Internal edges are contracted exactly; groups of edges from the region
    to a common outside neighbor are fused into a single edge (product
    dimension) so the result stays a simple graph.

    Returns (merged network, fused-edge map {kept id: [original ids]},
    supervertex id).
    """
    region = sorted(str(v) for v in region)
    rset = set(region)
    g = tn.graph
    new_id = "+".join(region)
    supertensor = contract_network([tn.tensors[v] for v in region])
    # boundary edges grouped by outside neighbor
    groups = {}  # outside vertex -> sorted list of edge ids
    internal = set()
    for v in region:
        for (e, w) in g.incident(v):
            if w in rset:
                internal.add(e)
            else:
                groups.setdefault(w, []).append(e)
    for w in groups:
        groups[w].sort()
    fused = {es[0]: es for es in groups.values() if len(es) > 1}

    def fuse(t: DenseTensor) -> DenseTensor:
        for kept, es in fused.items():
            if kept not in t.leg_ids:
                continue
            ids = t.leg_ids
            axes = [ids.index(e) for e in es]
            rest = [i for i in range(len(ids)) if i not in axes]
            data = np.transpose(t.data, rest + axes)
            dims = [t.dim(e) for e in es]
            data = data.reshape([t.legs[i].dim for i in rest] + [int(np.prod(dims))])
            legs = [t.legs[i] for i in rest] + [Leg(kept, int(np.prod(dims)))]
            t = DenseTensor(legs, data)
        return t

    vertices = [v for v in g.vertices if v not in rset] + [new_id]
    edges, bond_dims = {}, {}
    for e, (u, v) in g.edges.items():
        if e in internal:
            continue
        if u in rset or v in rset:
            w = v if u in rset else u
            kept = groups[w][0]
            if e != kept:
                continue  # absorbed into the fused edge
            edges[kept] = (new_id, w)
            bond_dims[kept] = int(np.prod([tn.bond_dims[x] for x in groups[w]]))
        else:
            edges[e] = (u, v)
            bond_dims[e] = tn.bond_dims[e]
    tensors = {new_id: fuse(supertensor)}
    touched = set(groups)
    for v in g.vertices:
        if v in rset:
            continue
        tensors[v] = fuse(tn.tensors[v]) if v in touched else tn.tensors[v]
    merged = TensorNetwork(Graph(vertices, edges), bond_dims, tensors)
    return merged, fused, new_id


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


def shortest_paths(g: Graph, A, B):
    """Distance from vertex set A to B and the number of shortest paths.

    (0, |A & B|) for overlapping sets, (inf, 0) when disconnected.
    """
    A = {str(a) for a in A}
    B = {str(b) for b in B}
    if not A or not B:
        raise RegionMismatch("shortest_paths needs nonempty vertex sets")
    dist, paths = bfs(g, A)
    d = min((dist[b] for b in B if b in dist), default=math.inf)
    return d, sum(paths[b] for b in B if dist.get(b) == d)



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


def connected_subsets(nbrs, weights, max_weight, roots=None):
    """Yield each connected index subset of total weight <= max_weight once.

    ``nbrs[i]`` holds the indices adjacent to index i and ``weights[i]`` is
    its positive weight; subsets are yielded as index tuples in the order
    they were grown.  With ``roots=None`` a subset is grown from its
    smallest index over higher indices only.  With ``roots`` given, subsets
    are grown from those roots over all indices, and a root never takes an
    earlier root, so each connected subset holding a root is yielded once.

    The walk is a take-or-leave stack: a subset's candidates are the
    neighbours it may still take, and taking one bans the candidates
    before it, so two branches never grow the same subset.
    """
    stop = max_weight - min(weights, default=0)
    upward = roots is None
    roots = range(len(weights)) if upward else list(roots)
    for pos, root in enumerate(roots):
        if weights[root] > max_weight:
            continue
        if upward:
            low, banned = root, frozenset()
        else:
            low, banned = -1, frozenset(roots[:pos])
        stack = [((root,), tuple(sorted(x for x in nbrs[root]
                                        if x > low and x not in banned)),
                  banned, weights[root])]
        while stack:
            cur, cand, banned, w = stack.pop()
            yield cur
            if w > stop:  # at the weight limit: no index fits
                continue
            cur_set = set(cur)
            cand_set = set(cand)
            for i, x in enumerate(cand):
                wx = w + weights[x]
                if wx > max_weight:
                    continue
                grown = tuple(sorted(
                    y for y in nbrs[x]
                    if y > low and y not in cur_set and y not in banned
                    and y not in cand_set))
                stack.append((cur + (x,), cand[i + 1:] + grown,
                              banned | set(cand[:i]), wx))
