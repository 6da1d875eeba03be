"""Reference forms that the tests compare the engine against; the
program itself never evaluates them: the cumulant expansion in its
counting-number and Moebius forms; the restricted partition function
Xi(B) by recursion, one subset per call, that the bottom-up table over
all subsets of a cluster replaced; the per-edge BP sweep, iteration
and stability probe that the compiled sweep in ``bptn.bp`` replaced; the
tuple-and-frozenset subset walk that the bit-mask walk in
``bptn.network`` replaced, and the loop sets it finds on the overlap graph
of every pair of loops, which ``bptn.clusters`` prunes by weight; the
unpruned string enumeration that the leaf-pruned walk replaced; the
global and anchored region finders that ``bptn.cumulants.find_regions``
replaced, with an unpruned vertex walk, degrees from a scan of every edge,
and an intersection closure that re-intersects the whole pool at every
level; the leaf-pruned edge and vertex walks, on the bit-mask walk with
roots, labels and a prune hook, that the ear grower
``bptn.network.grown_sets`` replaced; and the per-call
contractions that the bulk ones replaced: the greedy plan search over
every pair, ``np.tensordot`` one pair at a time, one dressed tensor, one
loop weight and one region value per call, and each BP local factor z_v
contracted one incoming message at a time.  A loop weight's support is
listed in the order of a recursive depth-first walk of the loop, as the
engine lists it, or in the sorted vertex and edge order that the walk
replaced.  ``relabel`` renames legs for the reference forms that name
them per endpoint.  The bond inner products, scaled messages and edge
projectors are built one edge at a time, as before ``MessageSet``
stacked them.  The bulk kernel as it was before its callers numbered
their own legs interns every pool's leg ids, and the dressed tensors,
loop weights and region values that called it are kept with it.  The
statevector of a PEPS is its full contraction.  The per-edge messages,
random and uniform, are drawn as before ``MessageSet`` stacked them; the
classical Ising site tensors are built one site at a time from one bond
root per pair, as before the generator shared them.  The ratio-form
estimators are kept as they were before one cluster sum served them: one
product per weight lookup inside each cluster's term, the cumulant
estimator's tables over every string, and a correlator's prefactors from
two single-region problems of their own.  The derivative form is kept as
it was before its loop weights went through ``cluster_value``: a
polynomial per cluster, multiplied out member by member."""

import cmath
import functools
import math

import numpy as np

from bptn.bp import (DEFAULT_DAMPING, DEFAULT_MAX_ITERS, DEFAULT_TOL,
                     PROBE_EPSILON, PROBE_PERTURBATIONS, PROBE_SWEEPS,
                     BPResult, MessageSet, _defect, _normalize_both,
                     _sweep, bp_log_partition, local_factors)
from bptn.clusters import loops_overlap, overlap_neighbors, ursell
from bptn.cumulants import (DEFAULT_BUDGET, RESTRICTED_CAP, Region,
                            counting_numbers, guarded_log,
                            restricted_partition as xi_table)
from bptn.cumulants import cumulant as engine_cumulant
from bptn.errors import CapExceeded
from bptn.errors import (CombinatorialBudgetExceeded, DimensionMismatch,
                         NumericalCollapse, TooLarge, ZeroLocalFactor)
from bptn.loops import GeneralizedLoop
from bptn.models import _sqrt_bond_matrix
from bptn.network import DEFAULT_SIZE_CAP, set_bits
from bptn.observables import InsertionProblem
from bptn.loops import _walk
from bptn.tensor import DenseTensor, _plan, contract_pair
from bptn.tensor import contract_network as bulk_contract_network


def mobius_subset(A, B) -> int:
    """Moebius function of the subset lattice: (-1)^{|B|-|A|} if A <= B,
    for loop sequences A and B."""
    sa, sb = set(A), set(B)
    if not sa <= sb:
        return 0
    return -1 if (len(sb) - len(sa)) % 2 else 1


def restricted_partition(loops, weight_table: dict) -> complex:
    """Xi(B) = 1 + sum over compatible sub-families of prod Z_l, for the
    sequence of distinct loops B, by take-or-leave recursion over the loops
    in order."""
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


def is_connected(items, neighbors) -> bool:
    """Whether ``items`` is nonempty and connected, where ``neighbors(x)``
    gives the neighbours of x (those outside ``items`` are ignored): the
    set form that the bit-mask search in ``bptn.network`` replaced."""
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


def cumulant(gamma, weight_table: dict) -> complex:
    """K(Gamma) with one recursive Xi per subset of the cluster."""
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


def counting_number_free_energy(messages, subsets, weight_table):
    """Equivalent counting-number form: F = F_BP - sum b(B) log Xi(B)."""
    b = counting_numbers({s.key: frozenset(s.loops) for s in subsets})
    corr = 0.0 + 0j
    for s in subsets:
        if b[s.key] == 0:
            continue
        corr += b[s.key] * guarded_log(
            xi_table(s.loops, weight_table)[-1], "Xi(B)")
    f_bp = -bp_log_partition(messages)
    return f_bp - corr, corr


# --- the per-edge BP path ----------------------------------------------------

def normalize(data: np.ndarray) -> np.ndarray:
    """Unit 2-norm, largest-magnitude component real positive."""
    n = np.linalg.norm(data)
    if n < 1e-14:
        raise NumericalCollapse("message update collapsed to zero")
    data = data / n
    k = int(np.argmax(np.abs(data)))
    phase = data[k] / abs(data[k])
    return data / phase


def raw_update(tn, msgs, v, w, e):
    """Unnormalized outgoing message v->w: T_v starred with all other
    incoming messages."""
    t = tn.tensors[v]
    for (e2, n) in tn.graph.incident(v):
        if e2 == e:
            continue
        t = contract_pair(t, msgs[(n, v)])
    return t


def message(messages: MessageSet, v, w) -> DenseTensor:
    """The message v->w of a stacked set, as a tensor on its edge's leg."""
    d, r = messages.plan.slot[v, w]
    return DenseTensor([messages.plan.tn.graph.edge_between(v, w)],
                       messages.data[d][r])


def per_edge(messages: MessageSet) -> dict:
    """{(v, w): ``message``} of every directed edge, in sorted order."""
    return {key: message(messages, *key) for key in sorted(
        messages.plan.slot)}


def sweep(tn, msgs: dict):
    """One synchronous sweep of the per-edge messages ``msgs``; returns
    dict of normalized updates."""
    out = {}
    for e, (u, v) in tn.graph.edges.items():
        for (a, b) in ((u, v), (v, u)):
            upd = raw_update(tn, msgs, a, b, e)
            out[(a, b)] = DenseTensor(upd.leg_ids, normalize(upd.data))
    return out


def self_consistency_residual(messages: MessageSet) -> float:
    """Max aligned 2-norm defect of the fixed-point equations, from one
    compiled sweep of ``bptn.bp``."""
    old = messages.data
    return _defect(*_normalize_both(_sweep(messages.plan.compile(), old),
                                    old))


def random_messages(tn, seed=0) -> dict:
    """{(v, w): message} drawn edge by edge in ``tn.graph.edges`` order,
    (u, v) before (v, u), each normalized alone."""
    rng = np.random.default_rng(seed)
    msgs = {}
    for e, (u, v) in tn.graph.edges.items():
        d = tn.bond_dims[e]
        for pair in ((u, v), (v, u)):
            data = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            msgs[pair] = DenseTensor([e], normalize(data))
    return msgs


def uniform_messages(tn) -> dict:
    """{(v, w): the uniform message 1/sqrt(d) on every component}."""
    msgs = {}
    for e, (u, v) in tn.graph.edges.items():
        d = tn.bond_dims[e]
        vec = DenseTensor([e], np.full(d, 1.0 / math.sqrt(d)))
        msgs[(u, v)] = msgs[(v, u)] = vec
    return msgs


# --- the per-site Ising tensors --------------------------------------------

def ising_site_tensor(tn, pairs: dict, beta, v, hv, gate) -> DenseTensor:
    """T^G_v = sum_{s,t} G[t,s] e^{beta h_v s} prod_e sqrtM_e[t, i_e] at
    vertex v of the Ising network ``tn`` built from the pair->multiplicity
    map ``pairs``, its roots computed per pair."""
    roots = {}
    for key, mult in pairs.items():
        u, w = sorted(key)
        roots[f"{u}|{w}"] = _sqrt_bond_matrix(mult * beta)
    inc = tn.graph.incident(v)
    data = np.zeros((2,) * len(inc), dtype=complex)
    for si, s in enumerate((+1, -1)):
        w = math.exp(beta * hv * s)
        for ti in range(2):
            if gate[ti, si] == 0:
                continue
            block = np.array(gate[ti, si] * w, dtype=complex)
            for (e, _) in inc:
                block = np.multiply.outer(block, roots[e][ti])
            data += block
    return DenseTensor([e for (e, _) in inc], data)


# --- the per-edge tables ---------------------------------------------------

def inner(a: DenseTensor, b: DenseTensor) -> complex:
    """Bilinear full pairing over identical leg sets (no conjugation)."""
    if a.leg_ids != b.leg_ids:
        raise DimensionMismatch(
            f"inner needs identical leg sets: {a.leg_ids} vs {b.leg_ids}")
    for x, da, db in zip(a.leg_ids, a.data.shape, b.data.shape):
        if da != db:
            raise DimensionMismatch(f"leg {x!r}: dim {da} vs {db}")
    return complex(np.sum(a.data * b.data))


def inner_product(messages: MessageSet, e) -> complex:
    """I_e = mu_{u->v} * mu_{v->u} on edge e = (u, v), one edge at a time;
    unfloored."""
    u, v = messages.plan.tn.graph.edges[e]
    return inner(message(messages, u, v), message(messages, v, u))


def sqrt_inner(messages: MessageSet, e) -> complex:
    """Principal-branch sqrt of I_e."""
    return cmath.sqrt(inner_product(messages, e))


def into(messages: MessageSet, n, v, e) -> np.ndarray:
    """mu_{n->v} / sqrt(I_e) on edge e, scaled by the Python reciprocal."""
    return message(messages, n, v).data * (1.0 / sqrt_inner(messages, e))


def projector(messages: MessageSet, e) -> np.ndarray:
    """P_perp on edge e = (u, v), axes in ``graph.edges[e]`` order:
    delta_ij - mu_{v->u}[i] mu_{u->v}[j] / I."""
    u, v = messages.plan.tn.graph.edges[e]
    return (np.eye(messages.plan.tn.bond_dims[e], dtype=complex)
            - np.outer(message(messages, v, u).data,
                       message(messages, u, v).data)
            / inner_product(messages, e))


def edge_projector(messages: MessageSet, e) -> DenseTensor:
    """``projector`` as a tensor with legs '<e>@<u>' and '<e>@<v>'."""
    e = str(e)
    u, v = messages.plan.tn.graph.edges[e]
    return DenseTensor([f"{e}@{u}", f"{e}@{v}"], projector(messages, e))


def bp_iterate(tn, messages: MessageSet, damping=DEFAULT_DAMPING,
               tol=DEFAULT_TOL) -> BPResult:
    """Synchronous damped BP iteration to a fixed point, starting from
    ``messages`` (left unchanged)."""
    msgs, residual = per_edge(messages), math.inf
    for it in range(1, DEFAULT_MAX_ITERS + 1):
        upd = sweep(tn, msgs)
        residual = 0.0
        mixed = {}
        for key, new in upd.items():
            old = msgs[key]
            residual = max(residual, float(
                np.linalg.norm(new.data - normalize(old.data))))
            data = (1.0 - damping) * new.data + damping * old.data
            mixed[key] = DenseTensor(new.leg_ids, normalize(data))
        msgs = mixed
        if residual <= tol:
            return BPResult(MessageSet(tn, msgs), residual, it, True)
    return BPResult(MessageSet(tn, msgs), residual, DEFAULT_MAX_ITERS, False)


def stability_probe(messages: MessageSet, seed=0):
    """Finite-difference power iteration on the Jacobian of one normalized
    synchronous sweep at the fixed point; (classification, growth)."""
    tn, rng = messages.plan.tn, np.random.default_rng(seed)
    msgs = per_edge(messages)
    keys = sorted(msgs)
    base = {k: normalize(msgs[k].data) for k in keys}
    legs = {k: msgs[k].leg_ids for k in keys}
    growths = []
    for _ in range(PROBE_PERTURBATIONS):
        v = {k: rng.standard_normal(base[k].shape)
             + 1j * rng.standard_normal(base[k].shape) for k in keys}
        lams = []
        for _ in range(PROBE_SWEEPS):
            norm = math.sqrt(sum(float(np.sum(np.abs(x) ** 2))
                                 for x in v.values()))
            if norm == 0:
                break
            cur = {k: DenseTensor(legs[k],
                                  normalize(base[k] + (PROBE_EPSILON / norm)
                                            * v[k]))
                   for k in keys}
            upd = sweep(tn, cur)
            v = {k: (normalize(upd[k].data) - base[k]) / PROBE_EPSILON
                 for k in keys}
            lams.append(math.sqrt(sum(float(np.sum(np.abs(x) ** 2))
                                      for x in v.values())))
        if len(lams) >= 20:
            growths.append(float(np.exp(np.mean(np.log(lams[-20:])))))
    if not growths:
        return "inconclusive", float("nan")
    g = float(np.median(growths))
    if g > 1.0 + 1e-3:
        return "unstable", g
    if g < 1.0 - 1e-3:
        return "stable", g
    return "inconclusive", g


# --- the tuple-and-frozenset subset walk -------------------------------------

def connected_subsets(nbrs, weights, max_weight, roots=None, grow=None):
    """Yield each connected index subset of total weight <= max_weight once.

    ``nbrs[i]`` holds the indices adjacent to index i and ``weights[i]`` is
    its positive weight; subsets are yielded as index tuples in the order
    they were grown.  With ``roots=None`` a subset is grown from its
    smallest index over higher indices only.  With ``roots`` given, subsets
    are grown from those roots over all indices, and a root never takes an
    earlier root, so each connected subset holding a root is yielded once.

    The walk is a take-or-leave stack: a subset's candidates ``cand`` are
    the neighbours it may still take, and taking one bans the candidates
    before it, so two branches never grow the same subset.  ``seen`` holds
    every index a subset has taken, banned or made a candidate; only an
    unseen neighbour of a newly taken index becomes a candidate, so no
    subset grown from ``cur`` takes a neighbour of ``cur`` outside
    ``cand``.  ``grow(cur, cand)``, when given, runs after ``cur`` is
    yielded and before it grows; a false answer prunes every subset grown
    from it.
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
        cand = tuple(sorted(x for x in nbrs[root]
                            if x > low and x not in banned))
        stack = [((root,), cand, banned.union(cand, (root,)), weights[root])]
        while stack:
            cur, cand, seen, w = stack.pop()
            yield cur
            if w > stop:  # at the weight limit: no index fits
                continue
            if grow is not None and not grow(cur, cand):
                continue
            for i, x in enumerate(cand):
                wx = w + weights[x]
                if wx > max_weight:
                    continue
                grown = tuple(sorted(y for y in nbrs[x]
                                     if y > low and y not in seen))
                stack.append((cur + (x,), cand[i + 1:] + grown,
                              seen.union(grown), wx))


# --- the overlap graph over every pair of loops ------------------------------

def overlap_neighbors(loops):
    """Neighbour sets of the overlap graph on ``loops``, by list index,
    testing every pair."""
    n = len(loops)
    nbrs = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if loops[i].vertices & loops[j].vertices:
                nbrs[i].add(j)
                nbrs[j].add(i)
    return nbrs


def anchored_loop_sets(excitations, max_weight: int, anchor=None):
    """Connected sets of distinct loops with total weight <= max_weight,
    each once, as lists in loop-key order, walked on the all-pairs overlap
    graph; with ``anchor``, only sets whose support meets it."""
    loops = sorted((l for l in excitations if l.weight <= max_weight),
                   key=lambda l: l.key)
    anchor = {str(v) for v in anchor} if anchor is not None else None
    for subset in connected_subsets(overlap_neighbors(loops),
                                    [l.weight for l in loops], max_weight):
        members = [loops[i] for i in sorted(subset)]
        if anchor is None or any(l.vertices & anchor for l in members):
            yield members


# --- the unpruned string enumeration ----------------------------------------

def enumerate_strings(g, terminals, max_weight):
    """Every connected edge subset of size <= max_weight, kept when each
    vertex outside ``terminals`` has degree at least two; sorted like
    ``bptn.loops.enumerate_strings``."""
    allowed = {str(v) for v in terminals}
    edge_ids = sorted(g.edges)
    index = {e: i for i, e in enumerate(edge_ids)}
    nbrs = [set() for _ in edge_ids]
    for v in g.vertices:
        inc = [index[e] for (e, _) in g.incident(v)]
        for i in inc:
            nbrs[i].update(j for j in inc if j != i)
    out = []
    for cur in connected_subsets(nbrs, [1] * len(edge_ids), max_weight):
        edges = [edge_ids[i] for i in cur]
        if all(d >= 2 or v in allowed
               for v, d in degree_map(g, edges).items()):
            out.append(GeneralizedLoop(g, edges))
    out.sort(key=lambda l: (l.weight, l.key))
    return out


def neighbors(g, v) -> list:
    """The neighbours of vertex v, in ``incident`` order."""
    return [w for _, w in g.incident(v)]


def degree_map(g, edges):
    """{vertex: number of ``edges`` incident to it}."""
    deg = {}
    for e in edges:
        for v in g.edges[e]:
            deg[v] = deg.get(v, 0) + 1
    return deg


# --- the region finders before the leaf prune and the semi-naive closure -----

def _induced_edges(g, vset):
    return [e for e, (u, v) in g.edges.items() if u in vset and v in vset]


def _induced_degrees(g, vset):
    deg = {v: 0 for v in vset}
    for e in _induced_edges(g, vset):
        u, v = g.edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg


def _vertex_subsets(g, k: int, root=None):
    """Connected vertex subsets with <= k vertices, each once; with
    ``root`` given, only those containing it."""
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[index[w] for w in neighbors(g, v)] for v in verts]
    roots = None if root is None else [index[str(root)]]
    count = 0
    for cur in connected_subsets(nbrs, [1] * len(verts), k, roots):
        count += 1
        if count > DEFAULT_BUDGET:
            raise CombinatorialBudgetExceeded(
                f"vertex-subset enumeration exceeded budget {DEFAULT_BUDGET}")
        yield frozenset(verts[i] for i in cur)


def _intersection_closure(g, maximal, keep):
    """Region poset from the maximal vertex sets, closed under pairwise
    intersection.  ``keep(p)`` turns an intersection into the region it
    adds (a frozenset), or None to drop it.  Returns the regions level by
    level (0 = maximal)."""
    def region(s, level):
        return Region(g, sum(1 << g.vertices.index(v) for v in s), level)

    levels = [[region(s, 0) for s in sorted(maximal, key=sorted)]]
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
                fresh.append(region(p, len(levels)))
        if not fresh:
            break
        fresh.sort(key=lambda r: r.key)
        levels.append(fresh)
    return [r for lvl in levels for r in lvl]


def find_regions(g, k: int):
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
        if (p and is_connected(p, functools.partial(neighbors, g))
                and all(d >= 2 for d in _induced_degrees(g, p).values())):
            return p
        return None

    return _intersection_closure(g, maximal, keep)


def find_regions_local(g, k: int, A):
    """Observable-anchored region poset: regions contain A; only A may be
    a leaf; intersections are pruned of branches not ending on A."""
    A = str(A)
    candidates = []
    for vset in _vertex_subsets(g, k, root=A):
        deg = _induced_degrees(g, vset)
        if all(d >= 2 for v, d in deg.items() if v != A):
            candidates.append(vset)
    maximal = [s for s in candidates if not any(s < t for t in candidates)]
    nbrs = functools.partial(neighbors, g)

    def keep(p):
        if A not in p or not is_connected(p, nbrs):
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


# --- the leaf-pruned walks that the ear grower replaced ---------------------

def mask_subsets(nbrs, weights, max_weight, roots=None, grow=None,
                 labels=None):
    """Yield each connected index subset of total weight <= max_weight once,
    as (index tuple in the order grown, sum of its integer ``labels``).

    ``nbrs[i]`` holds each index adjacent to index i once; ``weights[i]``
    is its positive weight.  A subset grows from the first of ``roots``
    (default: every index, in order) it holds and never takes an earlier
    root, so it is yielded once.  Labels default to 0.

    The walk of ``connected_subsets`` on integer bit masks: ``seen`` holds
    the earlier roots and every index a subset has taken, banned or made a
    candidate.  ``grow(cur, cand)``, when given, runs after ``cur`` is
    yielded and before it grows; a false answer prunes all grown from it.
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


def leaf_pruned_edge_subsets(g, max_weight, terminals=()):
    """Connected edge subsets of size <= max_weight, each at most once, as
    (``sorted(g.edges)`` indices, is a string) pairs, strings among them.

    A leaf is a degree-one vertex outside ``terminals``, and a string is a
    subset without leaves.  A subset stops growing once its leaves cannot
    all close: one edge closes at most two leaves, and a leaf with no
    incident edge left to take stays open in every subset grown from it.
    """
    index = {e: i for i, e in enumerate(sorted(g.edges))}
    vindex = {v: i for i, v in enumerate(g.vertices)}
    ends = [[vindex[v] for v in g.edges[e]] for e in index]
    incident = [{index[e] for (e, _) in g.incident(v)} for v in g.vertices]
    nbrs = [(incident[a] | incident[b]) - {i}
            for i, (a, b) in enumerate(ends)]
    # The degree map packed into one integer: vertex v's degree sits in
    # bits [k*v, k*v + k), so a subset's map, its label in the walk, is the
    # sum of its edges' entries; v is a leaf when only bit k*v is set there.
    k = max((len(inc) for inc in incident), default=1).bit_length()
    packed = [(1 << k * a) | (1 << k * b) for a, b in ends]
    free = sum(1 << k * v for v, name in enumerate(g.vertices)
               if name not in terminals)  # the vertices that may be leaves
    leaves = 0  # leaf bits of the subset last yielded, which grow judges

    def grow(cur, cand):
        if len(cur) + (leaves.bit_count() + 1) // 2 > max_weight:
            return False
        reach = 0  # the vertices that the edges in ``cand`` touch
        for i in cand:
            reach |= packed[i]
        return not leaves & ~reach

    for cur, deg in mask_subsets(nbrs, [1] * len(index), max_weight,
                                 grow=grow, labels=packed):
        high = 0
        for j in range(1, k):
            high |= deg >> j
        leaves = deg & free & ~high
        yield cur, not leaves


def leaf_pruned_strings(g, terminals, max_weight):
    """The keys of the strings ``leaf_pruned_edge_subsets`` finds, sorted
    like ``bptn.loops.enumerate_strings``, and the subsets it visits."""
    terminals = frozenset(str(v) for v in terminals)
    edge_ids = sorted(g.edges)
    walked = list(leaf_pruned_edge_subsets(g, max_weight, terminals))
    keys = [tuple(sorted(edge_ids[i] for i in cur))
            for cur, is_string in walked if is_string]
    return sorted(keys, key=lambda key: (len(key), key)), len(walked)


def leaf_pruned_vertex_sets(g, k: int, anchor=None):
    """The connected vertex sets with <= k vertices in which no vertex but
    ``anchor`` has induced degree < 2, as bit masks over ``g.vertices``
    (from ``anchor``, when given), and the subsets the walk visits.  A set
    stops growing once a leaf can no longer close: it has no neighbour
    left to take, or taking the ones it needs would exceed k vertices."""
    index = {v: i for i, v in enumerate(g.vertices)}
    nbrs = [[index[w] for w in neighbors(g, v)] for v in g.vertices]
    adj = [sum(1 << j for j in nb) for nb in nbrs]
    roots = None if anchor is None else [index[str(anchor)]]
    pinned = sum(1 << r for r in roots or ())
    short, need = 0, 0  # of the set last yielded, which grow judges

    def grow(cur, cand):
        if len(cur) + need > k:
            return False
        takeable = 0
        for x in cand:
            takeable |= 1 << x
        return all(adj[i] & takeable for i in set_bits(short))

    sets, visited = [], 0
    for cur, mask in mask_subsets(nbrs, [1] * len(nbrs), k, roots, grow,
                                  labels=[1 << i for i in range(len(nbrs))]):
        visited += 1
        short, need = 0, 0
        for i in set_bits(mask & ~pinned):
            x = adj[i] & mask
            if not x & (x - 1):
                short |= 1 << i
                need = max(need, 1 if x else 2)
        if not short:
            sets.append(mask)
    return sets, visited


# --- the per-call contractions --------------------------------------------

def plan(struct, dims):
    """Greedy pair order for tensors with integer legs ``struct``.

    Repeatedly picks the pair whose result has the fewest entries,
    preferring pairs that share legs; ties go to the first pair in pool
    order.  The contracted pair leaves the pool and its result is
    appended.  Returns (steps, legs of the result), each step
    (i, j, axes of i, axes of j, result entries); axes are positions in
    the tensordot leg order (i's open legs, then j's).
    """
    pool = list(struct)
    steps = []
    while len(pool) > 1:
        best = None
        for i in range(len(pool)):
            set_i = set(pool[i])
            for j in range(i + 1, len(pool)):
                shared = set_i.intersection(pool[j])
                out_size = 1
                for x in pool[i] + pool[j]:
                    if x not in shared:
                        out_size *= dims[x]
                key = (0 if shared else 1, out_size)
                if best is None or key < best[0]:
                    best = (key, i, j, shared)
        (_, out_size), i, j, shared = best
        a, b = pool[i], pool[j]
        common = [x for x in a if x in shared]
        steps.append((i, j, tuple(a.index(x) for x in common),
                      tuple(b.index(x) for x in common), out_size))
        del pool[j], pool[i]
        pool.append(tuple(x for x in a + b if x not in shared))
    return tuple(steps), pool[0]


def contract_pool(pool, size_cap=None) -> tuple:
    """(open leg ids, array) of a pool of (leg ids, array) pairs,
    contracted pair by pair with ``np.tensordot`` in the order ``plan``
    gives.  The legs keep the order the pool gives them, which a
    ``DenseTensor`` would sort."""
    pool = [(tuple(ids), data) for ids, data in pool]
    if len(pool) < 2:
        return pool[0] if pool else ((), np.array(1.0 + 0j))
    index, dims, ids, struct = {}, [], [], []
    for leg_ids, data in pool:
        legs = []
        for leg, dim in zip(leg_ids, data.shape):
            x = index.get(leg)
            if x is None:
                x = index[leg] = len(dims)
                dims.append(dim)
                ids.append(leg)
            elif dims[x] != dim:
                raise DimensionMismatch(
                    f"leg {leg!r}: dim {dims[x]} vs {dim}")
            legs.append(x)
        struct.append(tuple(legs))
    steps, out = plan(struct, dims)
    # contiguous copies, as the bulk kernel stacks them: a product of
    # transposed views may call BLAS with other strides and round otherwise
    arrays = [np.array(data, order="C") for _, data in pool]
    for i, j, ax_i, ax_j, out_size in steps:
        if size_cap is not None and out_size > size_cap:
            raise TooLarge(
                f"intermediate with {out_size} entries exceeds cap {size_cap}")
        b = arrays.pop(j)
        a = arrays.pop(i)
        arrays.append(np.tensordot(a, b, axes=(ax_i, ax_j)) if ax_i
                      else np.multiply.outer(a, b))
    return (tuple(ids[x] for x in out),
            arrays[0].reshape([dims[x] for x in out]))


def contract_network(tensors, size_cap=None) -> DenseTensor:
    """One network of ``DenseTensor``s, contracted by ``contract_pool``."""
    pool = list(tensors)
    if len(pool) == 1:
        return pool[0]
    ids, data = contract_pool([(t.leg_ids, t.data) for t in pool], size_cap)
    return DenseTensor(ids, data)


def relabel(t: DenseTensor, mapping: dict) -> DenseTensor:
    """A copy of ``t`` with leg ids renamed via ``mapping`` (id -> new id)."""
    return DenseTensor([mapping.get(x, x) for x in t.leg_ids], t.data)


def scale(t: DenseTensor, c) -> DenseTensor:
    """``t`` times the scalar ``c``."""
    return DenseTensor(t.leg_ids, t.data * c)


def local_factor(messages, v, tensor) -> complex:
    """z_v = [tensor product of mu_{n->v}/sqrt(I_vn)] * ``tensor`` at v,
    one incoming message at a time; unfloored."""
    v = str(v)
    t, denom = tensor, 1.0 + 0j
    for (e, n) in messages.plan.tn.graph.incident(v):
        t = contract_pair(t, message(messages, n, v))
        denom *= sqrt_inner(messages, e)
    return t.item() / denom


def dressed(messages, v, tensor, kept) -> DenseTensor:
    """``tensor`` at vertex v with mu_{n->v}/sqrt(I_e) absorbed on every
    incident edge e not in ``kept``; each kept leg e is renamed
    ``'<e>@<v>'``."""
    pieces = [relabel(tensor, {e: f"{e}@{v}" for e in kept})]
    for (e, n) in messages.plan.tn.graph.incident(v):
        if e not in kept:
            pieces.append(scale(message(messages, n, v),
                                1.0 / sqrt_inner(messages, e)))
    return contract_network(pieces)


def walk(g, edges) -> tuple:
    """Depth-first walk of a connected edge set, by recursion: (the
    vertices in the order reached, {vertex: its edges in the set in the
    order crossed}, the crossings (edge, from, to) in order).  It starts
    at a vertex of lowest degree in the set, the smallest id among them,
    and each vertex crosses its edges not crossed yet in id order, going
    on from the far end of an edge when that is new."""
    edges = set(edges)
    deg = degree_map(g, edges)
    start = min(deg, key=lambda v: (deg[v], v))
    order, legs, crossings, crossed = [start], {start: []}, [], set()

    def visit(v):
        for e, w in g.incident(v):
            if e in edges and e not in crossed:
                crossed.add(e)
                crossings.append((e, v, w))
                legs[v].append(e)
                if w in legs:
                    legs[w].append(e)
                else:
                    legs[w] = [e]
                    order.append(w)
                    visit(w)

    visit(start)
    return order, legs, crossings


def _along(t: DenseTensor, ids) -> tuple:
    """(``ids``, the array of ``t`` with its axes in the order of ``ids``)."""
    return tuple(ids), t.data.transpose([t.leg_ids.index(x) for x in ids])


def _normalized(raw, factors, vertices) -> complex:
    denom = 1.0 + 0j
    for v in sorted(vertices):
        denom *= factors[str(v)]
    return raw / denom


def excitation_weight(tn, messages, loop) -> complex:
    """Normalized weight Z_l of one excitation on ``tn``, its support
    listed in ``walk`` order as the engine lists it: the dressed tensors,
    their loop legs in crossing order, then the projectors, oriented along
    the walk; normalized by the messages' own local factors, so a ``tn``
    with tensors replaced gives the bar weight."""
    factors = local_factors(messages, loop.vertices)
    order, legs, crossings = walk(tn.graph, loop.edges)
    pool = [_along(dressed(messages, v, tn.tensors[v], legs[v]),
                   [f"{e}@{v}" for e in legs[v]]) for v in order]
    pool += [_along(edge_projector(messages, e), [f"{e}@{a}", f"{e}@{b}"])
             for e, a, b in crossings]
    _, raw = contract_pool(pool)
    return _normalized(complex(raw.item()), factors, loop.vertices)


def sorted_excitation_weight(tn, messages, loop) -> complex:
    """``excitation_weight`` with the support listed in the sorted order
    the walk replaced: the dressed tensors by vertex id, then the
    projectors by edge id, each with its legs sorted."""
    factors = local_factors(messages, loop.vertices)
    g = tn.graph
    pieces = [dressed(
        messages, v, tn.tensors[v],
        [e for (e, _) in g.incident(v) if e in loop.edges])
        for v in sorted(loop.vertices)]
    pieces += [edge_projector(messages, e) for e in sorted(loop.edges)]
    raw = contract_network(pieces).item()
    return _normalized(raw, factors, loop.vertices)


def region_partition(tn, messages, R, replacements=None):
    """(Xi_tilde(R), Xi(R)) of one region, with the region legs renamed
    back from ``'<e>@<v>'`` to ``e``."""
    replacements = replacements or {}
    g = tn.graph
    pieces = []
    for v in sorted(R.vertices):
        internal = [e for (e, n) in g.incident(v) if n in R.vertices]
        pieces.append(relabel(dressed(
            messages, v, replacements.get(v, tn.tensors[v]), internal),
            {f"{e}@{v}": e for e in internal}))
    raw = contract_network(pieces, size_cap=DEFAULT_SIZE_CAP).item()
    denom = 1.0 + 0j
    for z in local_factors(messages, sorted(R.vertices)).values():
        denom *= z
    return raw, raw / denom


# --- the interning bulk path ------------------------------------------------

def _interned_groups(pools) -> dict:
    """{structure: [(pool index, {leg id: integer})]}: each pool's leg ids
    interned to integers in order of first appearance, and a structure
    the per-array integer legs plus the dims."""
    found = {}
    for n, pool in enumerate(pools):
        index = {}
        struct = tuple([tuple([index.setdefault(leg, len(index))
                               for leg in ids]) for ids, _ in pool])
        found.setdefault((struct, tuple([data.shape for _, data in pool])),
                         []).append((n, index))
    groups = {}
    for (struct, shapes), members in found.items():
        dims = {}
        for legs, shape in zip(struct, shapes):
            for x, dim in zip(legs, shape):
                if dims.setdefault(x, dim) != dim:
                    raise DimensionMismatch(f"leg {list(members[0][1])[x]!r}: "
                                            f"dim {dims[x]} vs {dim}")
        key = (struct, tuple(dims[x] for x in range(len(dims))))
        groups.setdefault(key, []).extend(members)
    return groups


def interning_contract_many(pools, size_cap=None) -> list:
    """The bulk kernel as it was before its callers numbered their own
    legs: (open leg ids, array) per pool of (leg ids, array) pairs, every
    pool's leg ids interned one at a time; each group's plan computed
    anew."""
    out = [None] * len(pools)
    for key, members in _interned_groups(pools).items():
        steps, legs = _plan(*key)
        arrays = [np.array([pools[n][k][1] for n, _ in members]) if legs_k
                  else [pools[n][k][1] for n, _ in members]
                  for k, legs_k in enumerate(key[0])] or [
                      [np.ones(1, dtype=complex)] * len(members)]
        for i, j, _, _, out_size, matmul in steps:
            if size_cap is not None and out_size > size_cap:
                raise TooLarge(f"intermediate with {out_size} entries "
                               f"exceeds cap {size_cap}")
            b = arrays.pop(j)
            a = arrays.pop(i)
            if matmul is None:
                arrays.append([np.multiply.outer(x, y) for x, y in zip(a, b)])
                continue
            perm_a, mat_a, perm_b, mat_b, shape = matmul
            a = a.transpose(perm_a).reshape(mat_a)
            b = b.transpose(perm_b).reshape(mat_b)
            arrays.append((np.matmul(a, b) if mat_a[2] > 1 else np.array(
                [np.dot(x, y) for x, y in zip(a, b)])).reshape(shape))
        rows = arrays[0]
        if isinstance(rows, list):
            rows = [np.reshape(r, [key[1][x] for x in legs]) for r in rows]
        for row, (n, index) in enumerate(members):
            ids = list(index) if legs else ()
            out[n] = (tuple(ids[x] for x in legs), rows[row])
    return out


def interning_dressed(messages: MessageSet, requests) -> list:
    """``MessageSet.dressed`` as it was: (leg ids, array) per (v, tensor,
    kept) request, the tensor's string leg ids and each message's edge id
    interned by ``interning_contract_many``, each message scaled one edge
    at a time (``into``); nothing cached."""
    g = messages.plan.tn.graph
    return interning_contract_many([
        [(tuple(tensor.leg_ids), tensor.data)]
        + [((e,), into(messages, n, v, e))
           for (e, n) in g.incident(v) if e not in kept]
        for v, tensor, kept in requests])


def _interning_factors(messages, vertices) -> dict:
    tensors = messages.plan.tn.tensors
    return {v: complex(z) for v, (_, z) in zip(vertices, interning_dressed(
        messages, [(v, tensors[v], ()) for v in vertices]))}


def interning_excitation_weight(messages: MessageSet, jobs) -> list:
    """``loops.excitation_weight`` as it was: each support network in walk
    order with the walk's leg numbers as leg ids, interned again by
    ``interning_contract_many``; the projectors built one edge at a
    time."""
    tn = messages.plan.tn
    factors = _interning_factors(messages, sorted(
        {v for _, loop in jobs for v in loop.vertices}))
    pools, supports = [], []
    for replacements, loop in jobs:
        order, legs, crossings = _walk(tn.graph, loop.key)
        pieces = interning_dressed(messages, [
            (v, replacements.get(v, tn.tensors[v]),
             frozenset(e for e, _ in legs[v])) for v in order])
        pool = []
        for v, (ids, data) in zip(order, pieces):
            pool.append((tuple(n for _, n in legs[v]), data.transpose(
                [ids.index(e) for e, _ in legs[v]])))
        pools.append(pool + [
            ((2 * k, 2 * k + 1), projector(messages, e)
             if tn.graph.edges[e][0] == a else projector(messages, e).T)
            for k, (e, a, _) in enumerate(crossings)])
        supports.append(sorted(order))
    raws = [complex(data.item())
            for _, data in interning_contract_many(pools)]
    return [raw / math.prod((factors[v] for v in support), start=1.0 + 0j)
            for raw, support in zip(raws, supports)]


def interning_region_partition(messages: MessageSet, jobs) -> list:
    """``cumulants.region_partition`` as it was: the dressed tensors with
    their region legs named by edge id, interned again pool by pool."""
    tn = messages.plan.tn
    g = tn.graph
    supports = [sorted(R.vertices) for R, _ in jobs]
    pieces = iter(interning_dressed(messages, [
        (v, replacements.get(v, tn.tensors[v]),
         frozenset(e for (e, _) in g.incident(v) if e in R.edges))
        for (R, replacements), support in zip(jobs, supports)
        for v in support]))
    raws = [complex(data.item()) for _, data in interning_contract_many(
        [[next(pieces) for _ in support] for support in supports],
        size_cap=DEFAULT_SIZE_CAP)]
    factors = _interning_factors(messages, sorted(
        {v for support in supports for v in support}))
    return [(raw, raw / math.prod((factors[v] for v in support),
                                  start=1.0 + 0j))
            for raw, support in zip(raws, supports)]


def ratio_weight(prob, loop, inserted=frozenset()) -> complex:
    """Weight with the ``inserted`` regions replaced, decorated-z
    normalized."""
    val = prob.bar_weight(loop, inserted)
    for r in sorted(inserted):
        if r in loop.vertices:
            a = prob.alphas()[r]
            if abs(a) < 1e-12:
                raise ZeroLocalFactor(
                    f"BP expectation at region {r!r} below floor; "
                    "ratio normalization undefined")
            val /= a
    return val


def expval_ratio(prob, m) -> complex:
    """alpha exp(sum of phi(W) (Z^O_W - Z_W)), each Z_W its own product."""
    (rid,) = prob.region_ids
    prob.weigh(l for c in prob.clusters(m) for l, _ in c.members)
    total = 0.0 + 0j
    for c in prob.clusters(m):
        zo = 1.0 + 0j
        z = 1.0 + 0j
        for l, eta in c.members:
            zo *= ratio_weight(prob, l, frozenset([rid])) ** eta
            z *= prob.bar_weight(l) ** eta
        total += float(ursell(c)) * (zo - z)
    return prob.alphas()[rid] * cmath.exp(total)


def expval_cumulant(prob, m) -> complex:
    """alpha exp(sum of K^O - K over the connected loop subsets), from
    tables over every string."""
    (rid,) = prob.region_ids
    strings = prob.strings(m)
    prob.weigh(strings)
    base_table = {l.key: prob.bar_weight(l) for l in strings}
    dec_table = {l.key: ratio_weight(prob, l, frozenset([rid]))
                 for l in strings}
    total = 0.0 + 0j
    for s in prob.loop_subsets(m):
        total += (engine_cumulant(s, dec_table)
                  - engine_cumulant(s, base_table))
    return prob.alphas()[rid] * cmath.exp(total)


def correlator_ratio(prob, m) -> complex:
    """The ratio-form connected correlator, four products per cluster,
    its prefactors from a single-region problem at each site."""
    a, b = prob.region_ids
    prob.weigh(l for c in prob.clusters(m) for l, _ in c.members)
    total = 0.0 + 0j
    for c in prob.clusters(m):
        z = zo_a = zo_b = zo_ab = 1.0 + 0j
        for l, eta in c.members:
            z *= prob.bar_weight(l) ** eta
            zo_a *= ratio_weight(prob, l, frozenset([a])) ** eta
            zo_b *= ratio_weight(prob, l, frozenset([b])) ** eta
            zo_ab *= ratio_weight(prob, l, frozenset([a, b])) ** eta
        total += float(ursell(c)) * (zo_ab + z - zo_a - zo_b)
    ea, eb = (expval_ratio(InsertionProblem(
        prob.messages, {r: prob.replacements[r]}), m) for r in (a, b))
    return ea * eb * (cmath.exp(total) - 1.0)


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            ex = tuple(x + y for x, y in zip(ea, eb))
            if any(x > 1 for x in ex):
                continue  # cannot contribute to the multilinear coefficient
            out[ex] = out.get(ex, 0.0 + 0j) + ca * cb
    return out


def _loop_poly(prob: InsertionProblem, loop, var_regions) -> dict:
    """Z_{l,lambda} to first order in each lambda: exponent tuple -> coeff.

    coeff(S) = sum_{T subset S} (-1)^{|S|-|T|} Zbar^T_l prod_{x in S-T}
    alpha_x, nonzero only when every region in S touches the support.
    """
    p = len(var_regions)
    alph = prob.alphas()
    poly = {}
    touching = [i for i, r in enumerate(var_regions) if r in loop.vertices]
    for smask in range(1 << len(touching)):
        S = [touching[i] for i in range(len(touching)) if smask & (1 << i)]
        coeff = 0.0 + 0j
        for tmask in range(1 << len(S)):
            T = [S[i] for i in range(len(S)) if tmask & (1 << i)]
            sign = -1 if (len(S) - len(T)) % 2 else 1
            val = prob.bar_weight(loop, frozenset(var_regions[i] for i in T))
            for i in S:
                if i not in T:
                    val *= alph[var_regions[i]]
            coeff += sign * val
        ex = tuple(1 if i in S else 0 for i in range(p))
        poly[ex] = coeff
    return poly


def _cluster_mixed_coeff(prob, cluster, var_regions) -> complex:
    """Coefficient of lambda_1...lambda_p in prod_l Z_{l,lambda}^eta."""
    p = len(var_regions)
    poly = {(0,) * p: 1.0 + 0j}
    for l, eta in cluster.members:
        lp = _loop_poly(prob, l, var_regions)
        for _ in range(eta):
            poly = _poly_mul(poly, lp)
    return poly.get((1,) * p, 0.0 + 0j)


def expval_derivative(prob, m) -> complex:
    """The derivative form with each cluster's polynomial multiplied out
    member by member, each loop's polynomial rebuilt per member."""
    rids = tuple(prob.region_ids)
    prob.weigh(l for c in prob.clusters(m) for l, _ in c.members)
    total = 0.0 + 0j
    for c in prob.clusters(m):
        total += float(ursell(c)) * _cluster_mixed_coeff(prob, c, rids)
    if len(rids) == 1:
        total += prob.alphas()[rids[0]]
    return total


def peps_statevector(peps) -> DenseTensor:
    """Full state tensor over the physical legs (statevector oracle)."""
    return bulk_contract_network(peps.tensors.values())
