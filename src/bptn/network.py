"""Graph and tensor-network data model plus the exact contraction oracle.

A TensorNetwork is a simple graph (no self-loops, no parallel edges) whose
vertices hold DenseTensors.  A closed network's tensors have exactly the
incident edge ids as legs; the PEPS form additionally carries one physical
leg per site, with id ``phys_leg(v)``.

Exact contraction is a greedy pairwise contraction used as ground truth at
desk scale -- correctness over speed.

Every expansion sums over connected objects: loops (edge sets), regions
(vertex sets), clusters and cumulant subsets (loop-overlap graph sets).
``connected_subsets``, a bit-mask walk that sums integer labels along the
way, is the one walk that enumerates them; ``peps_replacements`` is the
one adapter from a PEPS operator insertion, a {vertex: matrix} map, to
the replacement tensors the estimators take.
"""

from __future__ import annotations

import functools
from collections import deque

import numpy as np

from .errors import DimensionMismatch, MissingPhysicalLeg, RegionMismatch
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


def exact_contract(tn: TensorNetwork) -> complex:
    """Full contraction of a closed network; ground-truth oracle."""
    if not tn.is_closed:
        raise MissingPhysicalLeg("exact_contract needs a closed network")
    result = contract_network(tn.tensors.values(), size_cap=DEFAULT_SIZE_CAP)
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


def connected_subsets(nbrs, weights, max_weight, roots=None, grow=None,
                      labels=None):
    """Yield each connected index subset of total weight <= max_weight once,
    as (index tuple in the order grown, sum of its integer ``labels``).

    ``nbrs[i]`` holds each index adjacent to index i once; ``weights[i]``
    is its positive weight.  A subset grows from the first of ``roots``
    (default: every index, in order) it holds and never takes an earlier
    root, so it is yielded once.  Labels default to 0.

    The walk is a take-or-leave stack on bit masks: a subset's candidates
    ``cand`` are the neighbours it may still take, and taking one bans the
    candidates before it, so two branches never grow the same subset.
    ``seen`` holds the earlier roots and every index a subset has taken,
    banned or made a candidate; only an unseen neighbour of a newly taken
    index becomes a candidate (a mask cached per call as its ascending
    tuple), so no subset grown from ``cur`` takes a neighbour of ``cur``
    outside ``cand``.  ``grow(cur, cand)``, when given, runs after ``cur``
    is yielded and before it grows; a false answer prunes all grown from it.
    """
    adj = [sum(1 << y for y in nb) for nb in nbrs]
    labels = labels or [0] * len(weights)
    ascending = functools.cache(lambda mask: tuple(set_bits(mask)))
    stop = max_weight - min(weights, default=0)
    base = 0  # the roots so far
    for root in range(len(weights)) if roots is None else roots:
        base |= 1 << root
        if weights[root] > max_weight:
            continue
        first = adj[root] & ~base
        stack = [((root,), ascending(first), base | first, weights[root],
                  labels[root])]
        while stack:
            cur, cand, seen, w, label = stack.pop()
            yield cur, label
            if w > stop:  # at the weight limit: no index fits
                continue
            if grow is not None and not grow(cur, cand):
                continue
            for i, x in enumerate(cand):
                wx = w + weights[x]
                if wx > max_weight:
                    continue
                grown = adj[x] & ~seen
                stack.append((cur + (x,), cand[i + 1:] + ascending(grown),
                              seen | grown, wx, label + labels[x]))

