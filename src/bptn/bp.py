"""Belief-propagation engine: message iteration, dressed site tensors and
the local factors z_v among them (dressed on every leg), free energy,
excitation projectors and stability probes.

Messages live on directed edges (v, w) as vectors on the edge leg and are
kept at unit 2-norm with the phase fixed so the largest-magnitude
component is real positive.  The bond inner products I_vw use the bilinear
pairing; square roots take the principal branch, edge by edge --
downstream only closed products of them are used, so branches cancel.

A ``MessageSet`` keeps the messages of each bond dimension d as the
rows of one complex (rows, d) array, at the rows its network's ``_Plan``
gives, and carries that plan, which ``bp_iterate`` passes on to the set
it returns.  ``bp_iterate`` and ``stability_probe`` compile the sweep
once per call.  A sweep also takes (C, rows, d) arrays, whose leading
chain axis carries C independent message sets; the stability probe
advances all its chains in one sweep.  A sweep returns the raw updates;
each caller normalizes them in one stacked call per bond dimension, its
rows concatenated with whatever else it normalizes (``bp_iterate``: the
messages the sweep read, for the defect).  The result is bit-identical
to the per-edge ``contract_pair`` path the compiled sweep replaced, and
each probe chain to running it alone, as ``tests/oracles.py`` keeps
them for reference: the golden ``bp`` body pins ``residual`` (a
difference near ``tol``) and ``growth_ratio`` (a finite difference at
step 1e-7) at 1e-12 relative.

A ``MessageSet`` builds the inner products, the scaled into-messages
and the projectors of all its edges on first use, one gather of each
side's rows per bond dimension, bit for bit the per-edge forms:
``(a * b).sum(1)`` sums each row as ``np.sum`` sums one, and broadcast
products and quotients round elementwise.  The reciprocal
``1.0 / sqrt(I)`` stays a Python scalar complex division per edge;
numpy's differs in the last bit.

Bit for bit is also why shape groups are not merged by permuting every
tensor so that each step contracts its last axis: a matmul rounds by the
memory layout of its operands, and a column-major view and a row-major
copy of one matrix give products that differ in the last bit.  Each
operand keeps the layout the per-edge path gave it.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np

from .errors import InputError, NumericalError
from .network import TensorNetwork
from .tensor import contract_many

I_FLOOR = 1e-12
Z_FLOOR = 1e-12
DEFAULT_TOL = 1e-10
DEFAULT_DAMPING = 0.2
DEFAULT_MAX_ITERS = 10000
# stability_probe: perturbed power iterations, finite-difference step, and
# sweeps per iteration (the growth factor averages the last 20)
PROBE_PERTURBATIONS = 2
PROBE_EPSILON = 1e-7
PROBE_SWEEPS = 120


def _row_norms(x: np.ndarray) -> np.ndarray:
    """2-norm of each row of a (rows, d) complex array.

    ``np.linalg.norm`` of one row adds two BLAS ``ddot`` calls, on the
    real and on the imaginary part; a stacked (rows, 1, d) @ (rows, d, 1)
    matmul makes the same ``ddot`` call for every row, so each norm is the
    one ``np.linalg.norm`` gives, bit for bit.
    """
    re, im = x.real, x.imag
    return np.sqrt((np.matmul(re[:, None, :], re[:, :, None])
                    + np.matmul(im[:, None, :], im[:, :, None])).ravel())


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each row (last axis) of a (..., d) array at unit 2-norm, its
    largest-magnitude component real positive; ``NumericalError``
    when a row's norm is below 1e-14, infinite or nan.

    Bit for bit what normalizing each row alone gives: divide by
    ``np.linalg.norm(row)`` (see ``_row_norms``), find k by
    ``np.argmax(np.abs(row))``, divide by the scalar phase
    ``row[k] / abs(row[k])``.  The scalar ``abs`` of a complex number is
    libm's ``hypot``, which ``np.hypot`` also calls; ``np.abs`` on an array
    may round differently, so only the argmax uses it.  The divisions are
    elementwise and round as they do on one row.
    """
    shape, x = x.shape, x.reshape(-1, x.shape[-1])
    n = _row_norms(x)
    low, high = n.min(), n.max()    # nan if any norm is
    if not (low >= 1e-14 and high < math.inf):
        raise NumericalError(
            "message update collapsed to zero" if low < 1e-14 else
            "message update is not finite: its norm overflowed or is nan")
    x = x / n[:, None]
    top = x[np.arange(len(x)), np.abs(x).argmax(1)]
    return (x / (top / np.hypot(top.real, top.imag))[:, None]).reshape(shape)


def _median(xs: list) -> float:
    """``np.median`` of a non-empty list of floats: the middle value, or
    ``(a + b) / 2`` of the two middle ones, the IEEE operations
    ``np.median``'s mean makes.  Plain Python, because ``np.median``
    imports ``numpy.ma`` on first use (about 11 ms and 1.4 MB)."""
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


class MessageSet:
    """Directed-edge messages, their edge tables and dressed tensors.

    The messages of bond dimension d are the rows of ``data[d]``, one
    complex (rows, d) array; ``plan`` is the layout of the network
    ``plan.tn``, and ``plan.slot`` maps a directed edge (v, w) to its
    (d, row).
    """

    def __init__(self, tn: TensorNetwork, messages: dict):
        """{(v, w): DenseTensor} with one message on every directed edge
        of ``tn``, stacked; ``InputError`` for an edge that is
        missing or not ``tn``'s."""
        given = {(str(v), str(w)): m.data for (v, w), m in messages.items()}
        plan = _Plan(tn)
        for v, w in sorted(given.keys() ^ plan.slot.keys())[:1]:
            raise InputError(f"{v}->{w}: " + (
                "no such edge" if (v, w) in given else "no message"))
        data = plan.empty()
        for key, (d, r) in plan.slot.items():
            data[d][r] = given[key]
        self.plan, self.data = plan, data
        self._edges, self._dressed = None, {}

    @classmethod
    def _stacked(cls, plan, data: dict) -> MessageSet:
        """The messages ``data`` in ``plan``'s slots, taken as they are."""
        ms = cls.__new__(cls)
        ms.plan, ms.data = plan, data
        ms._edges, ms._dressed = None, {}
        return ms

    def _tables(self) -> tuple:
        """({e: I_e}, {(n, v): mu_{n->v}/sqrt(I_e)}, {e: P_perp}) of every
        edge, built on first use; an edge with |I_e| below the floor has
        I_e only, which ``inner_product`` refuses."""
        if self._edges is None:
            inner, into, proj = {}, {}, {}
            slot = self.plan.slot
            for d, edges in self.plan.bonds.items():
                a = self.data[d][[slot[u, w][1] for _, u, w in edges]]
                b = self.data[d][[slot[w, u][1] for _, u, w in edges]]
                prods = (a * b).sum(1)
                inner.update(zip([e for e, _, _ in edges], prods.tolist()))
                keep = [k for k, i in enumerate(prods.tolist())
                        if abs(i) >= I_FLOOR]
                a, b, prods = a[keep], b[keep], prods[keep]
                r = np.array([1.0 / cmath.sqrt(i) for i in prods.tolist()])
                p = (np.eye(d, dtype=complex) - b[:, :, None] * a[:, None, :]
                     / prods[:, None, None])
                for k, x, y, q in zip(keep, a * r[:, None], b * r[:, None], p):
                    e, u, w = edges[k]
                    into[u, w], into[w, u], proj[e] = x, y, q
            self._edges = inner, into, proj
        return self._edges

    def inner_product(self, e) -> complex:
        """I_vw = mu_{v->w} * mu_{w->v} on edge e."""
        e = str(e)
        val = self._tables()[0][e]
        if abs(val) < I_FLOOR:
            raise NumericalError(
                f"|I| = {abs(val):.3e} below floor on edge {e!r}")
        return val

    def projector(self, e) -> np.ndarray:
        """P_perp on edge e = (u, v), its axes in ``graph.edges[e]`` order:
        P[i, j] = delta_ij - mu_{v->u}[i] mu_{u->v}[j] / I.  Each side
        carries the message flowing *into* that side's vertex, so the
        contraction with a BP-consistent environment vanishes on either
        side."""
        e, proj = str(e), self._tables()[2]
        if e not in proj:
            self.inner_product(e)   # refuses the edge
        return proj[e]

    def dressed(self, requests) -> list:
        """(leg ids, array) of each (v, tensor, kept) request: ``tensor`` at
        vertex v with mu_{n->v}/sqrt(I_e) absorbed on every incident edge
        e not in ``kept``, a sorted tuple of edge ids.  The kept legs stay
        open under their edge ids, in the tensor's sorted leg order; with
        no kept edge the array holds the scalar z_v.

        The requests not cached are built in one ``contract_many`` call,
        one stacked one-leg matmul per message and tensor structure: the
        tensor's legs are numbered by position, and each message's leg by
        the position of its edge on the tensor.  Cached per (v, tensor
        object, kept edges); the entry holds the tensor, so its id cannot
        be reused while the entry lives, and the replacement tensors of an
        insertion get entries of their own.
        """
        keys = [(v, id(t), kept) for v, t, kept in requests]
        todo = {key: request for key, request in zip(keys, requests)
                if key not in self._dressed}
        into, stars, pools = self._tables()[1], {}, []
        for v, tensor, kept in todo.values():
            if (v, id(tensor)) not in stars:
                ids = tensor.leg_ids
                stars[v, id(tensor)] = ids, tuple(range(len(ids))), [
                    (e, (ids.index(e),), (n, v))
                    for e, n in self.plan.tn.graph.incident(v)]
            _, legs, messages = stars[v, id(tensor)]
            # inner_product refuses an edge the tables left out
            pools.append([(legs, tensor.data)] + [
                (x, into[m] if m in into else self.inner_product(e))
                for e, x, m in messages if e not in kept])
        for (key, (v, tensor, _)), (legs, data) in zip(todo.items(),
                                                       contract_many(pools)):
            ids = stars[v, id(tensor)][0]
            self._dressed[key] = (tensor, (tuple([ids[x] for x in legs]),
                                           data))
        return [self._dressed[key][1] for key in keys]


BPResult = namedtuple("BPResult", "messages residual iterations converged")


def uniform_messages(tn: TensorNetwork) -> MessageSet:
    plan = _Plan(tn)
    return MessageSet._stacked(plan, {
        d: np.full((n, d), 1.0 / math.sqrt(d), dtype=complex)
        for d, n in plan.rows.items()})


def random_messages(tn: TensorNetwork, seed=0) -> MessageSet:
    """Normalized complex Gaussian messages, drawn in ``plan.keys`` order."""
    plan, rng = _Plan(tn), np.random.default_rng(seed)
    data = plan.empty()
    for key, _ in plan.keys:
        d, r = plan.slot[key]
        data[d][r] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return MessageSet._stacked(plan, {d: _normalize_rows(x)
                                      for d, x in data.items()})


class _Plan:
    """One network's message layout, and its BP sweep compiled on demand.

    ``slot`` maps a directed edge (v, w) to (d, row) in the stacks, rows
    in sorted edge order; ``keys`` lists the directed edges in sweep order
    with their edge, and ``bonds`` the edges (e, u, w) of each bond
    dimension in ``tn.graph.edges`` order.  The update of v->w stars T_v
    with the messages into v on every other incident edge, one leg at a
    time in ``incident`` order.  Updates with the same tensor shape and
    the same sequence of contracted leg positions form a group; each step
    of a group is one stacked (C, B, rest, d) @ (C, B, d, 1) matmul, the
    product ``np.tensordot`` forms for one update.  A group's tensors are
    stacked once with a leading axis of length 1, which the first matmul
    broadcasts against the chains, and its first matrix is built from
    that stack by ``compile``, by the expression the sweep uses for the
    later ones, so it has their view-or-copy memory layout.
    """

    def __init__(self, tn: TensorNetwork):
        if not tn.is_closed:
            raise InputError("BP runs on closed networks; this one "
                             "has physical legs")
        self.tn = tn
        self.keys = []
        for e, (u, v) in tn.graph.edges.items():
            self.keys += [((u, v), e), ((v, u), e)]
        self.slot, self.rows = {}, {}
        for key, e in sorted(self.keys):
            d = tn.bond_dims[e]
            self.slot[key] = (d, self.rows.get(d, 0))
            self.rows[d] = self.rows.get(d, 0) + 1
        self.dims = sorted(self.rows)
        # row r of bond dimension d in the concatenation of the arrays
        start = {d: sum(self.rows[c] for c in self.dims if c < d)
                 for d in self.dims}
        self.sorted_rows = np.array(
            [start[d] + r for _, (d, r) in sorted(self.slot.items())])
        self.bonds = {}
        for e, (u, w) in tn.graph.edges.items():
            self.bonds.setdefault(tn.bond_dims[e], []).append((e, u, w))

    def compile(self) -> tuple:
        """(groups, reads), ``reads`` the message rows of every step in
        group order per bond dimension, each step reading a slice of them.
        Not kept: the stacks copy each site tensor once per update."""
        tn, groups = self.tn, {}
        for (v, w), e in self.keys:
            t = tn.tensors[v]
            ids, positions, sources = t.leg_ids, [], []
            for (e2, n) in tn.graph.incident(v):
                if e2 != e:
                    k = ids.index(e2)
                    positions.append(k)
                    sources.append(self.slot[(n, v)][1])
                    ids = ids[:k] + ids[k + 1:]
            groups.setdefault((t.data.shape, tuple(positions)), []).append(
                (t.data, sources, self.slot[(v, w)]))
        # (first matrix, steps, output bond dim, output rows), each step
        # (axis permutation that moves the leg last, matrix shape, leg dim,
        # slice of reads[leg dim], shape after it), the first step's
        # permutation None; -1 is the chain axis
        out, reads = [], {}
        for (shape, positions), items in groups.items():
            tensors, sources, outs = zip(*items)
            shape, steps, b = list(shape), [], len(items)
            t = np.stack(tensors)[None]
            for k, rows in zip(positions, zip(*sources)):
                axes = list(range(len(shape) + 2))
                perm = tuple(axes[:k + 2] + axes[k + 3:] + [k + 2])
                d = shape.pop(k)
                mat = (-1, b, math.prod(shape), d)
                if not steps:
                    t, perm = t.transpose(perm).reshape(mat), None
                seen = reads.setdefault(d, [])
                steps.append((perm, mat, d, slice(len(seen), len(seen) + b),
                              (-1, b, *shape)))
                seen += rows
            out.append((t, steps, outs[0][0], np.array([r for _, r in outs])))
        return out, {d: np.array(rows) for d, rows in reads.items()}

    def empty(self, *lead) -> dict:
        """{d: uninitialized complex (*lead, rows, d) array}."""
        return {d: np.empty((*lead, n, d), dtype=complex)
                for d, n in self.rows.items()}

    def norms(self, msgs: dict) -> list:
        """2-norm of each chain's messages together, for (C, rows, d)
        stacks, summed as the per-edge path summed it:
        ``np.sum(np.abs(x) ** 2)`` per message, then a Python sum in
        sorted directed-edge order."""
        flat = np.concatenate([np.sum(np.abs(msgs[d]) ** 2, axis=-1)
                               for d in self.dims], axis=-1)
        return [math.sqrt(sum(chain))
                for chain in flat[:, self.sorted_rows].tolist()]


def _normalize_both(raw: dict, old: dict) -> tuple:
    """(raw, old) with every row normalized, stacked as they are, in one
    ``_normalize_rows`` call per bond dimension on their rows
    concatenated; each row as it would be alone."""
    new, now = {}, {}
    for d, x in raw.items():
        both = _normalize_rows(np.concatenate([x, old[d]], axis=-2))
        new[d], now[d] = both[..., :x.shape[-2], :], both[..., x.shape[-2]:, :]
    return new, now


def _defect(new: dict, old: dict) -> float:
    """Largest 2-norm of new - old over all messages, both normalized."""
    return max([0.0] + [x for d in new for x in _row_norms(
        new[d] - old[d]).tolist()])


def _sweep(compiled: tuple, msgs: dict) -> dict:
    """One synchronous sweep of a compiled plan: every raw (unnormalized)
    update, stacked as ``msgs``, (rows, d) or (C, rows, d) per bond
    dimension d."""
    groups, reads = compiled
    read = {d: msgs[d][..., rows, :, None] for d, rows in reads.items()}
    raw = {d: np.empty_like(m) for d, m in msgs.items()}
    for t, steps, out_d, out_rows in groups:
        for perm, mat, d, rows, shape in steps:
            if perm is not None:
                t = t.transpose(perm).reshape(mat)
            t = np.matmul(t, read[d][..., rows, :, :]).reshape(shape)
        raw[out_d][..., out_rows, :] = t
    return raw


@np.errstate(over="ignore", invalid="ignore")  # refused by _normalize_rows
def bp_iterate(tn: TensorNetwork, messages: MessageSet,
               damping=DEFAULT_DAMPING, tol=DEFAULT_TOL) -> BPResult:
    """Synchronous damped BP iteration to a fixed point, starting from
    ``messages`` on ``tn``'s edges (left unchanged)."""
    plan = messages.plan if messages.plan.tn is tn else _Plan(tn)
    compiled, old, residual = plan.compile(), messages.data, math.inf
    for it in range(1, DEFAULT_MAX_ITERS + 1):
        new, now = _normalize_both(_sweep(compiled, old), old)
        residual = _defect(new, now)
        old = {d: _normalize_rows((1.0 - damping) * x + damping * old[d])
               for d, x in new.items()}
        if residual <= tol:
            break
    return BPResult(MessageSet._stacked(plan, old), residual, it,
                    residual <= tol)


def local_factors(messages: MessageSet, vertices) -> dict:
    """{v: z_v} of the messages' site tensors at ``vertices``, each dressed
    on every leg, from one ``dressed`` call; the one z floor."""
    vertices, tensors = [str(v) for v in vertices], messages.plan.tn.tensors
    out = {v: complex(z) for v, (_, z) in zip(vertices, messages.dressed(
        [(v, tensors[v], ()) for v in vertices]))}
    for v, z in out.items():
        if abs(z) < Z_FLOOR:
            raise NumericalError(f"|z_v| below floor at vertex {v!r}")
    return out


def bp_log_partition(messages: MessageSet) -> complex:
    """Sum of principal-branch log z_v; Re gives log|Z_BP|."""
    total = 0.0 + 0j
    for z in local_factors(messages, messages.plan.tn.graph.vertices).values():
        total += cmath.log(z)
    return total

def bp_free_energy(messages: MessageSet):
    """(log|Z_BP|, phase in (-pi, pi], the exact remainder of Im log Z_BP
    with a signed zero read as 0.0); F_BP = -log Z_BP."""
    logz = bp_log_partition(messages)
    phase = math.remainder(logz.imag, 2 * math.pi)
    return logz.real, math.pi if phase == -math.pi else phase + 0.0


# --- stability -------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # refused by _normalize_rows
def stability_probe(messages: MessageSet, seed=0):
    """Classify a fixed point by the dominant eigenvalue of the sweep map.

    Finite-difference power iteration on the Jacobian of one normalized
    synchronous sweep at the fixed point: the perturbation direction is
    renormalized every step, so the estimate converges to |lambda_max|
    without transient bias.  Returns (classification, growth factor) with
    classification in {"stable", "unstable", "inconclusive"}; the growth
    factor is the median over PROBE_PERTURBATIONS random starts.

    The starts are independent chains on a leading chain axis, and one
    ``_sweep`` call advances all of them.  Each chain draws its start, in
    sorted directed-edge order, after the one before it; it has its own
    norm, and it stops, dropping out of the stack, once that norm is 0.
    Each chain's numbers are bit for bit those of running it alone.
    """
    plan = messages.plan
    if not plan.dims:       # no message to perturb
        return "inconclusive", float("nan")
    compiled, rng = plan.compile(), np.random.default_rng(seed)
    base = {d: _normalize_rows(x) for d, x in messages.data.items()}
    v = plan.empty(PROBE_PERTURBATIONS)
    for c in range(PROBE_PERTURBATIONS):
        for key in sorted(plan.slot):
            d, r = plan.slot[key]
            v[d][c, r] = (rng.standard_normal((d,))
                          + 1j * rng.standard_normal((d,)))
    lams = [[] for _ in range(PROBE_PERTURBATIONS)]
    live = list(range(PROBE_PERTURBATIONS))     # chain of each stack row
    norms = plan.norms(v)
    for _ in range(PROBE_SWEEPS):
        keep = [i for i, norm in enumerate(norms) if norm != 0]
        if not keep:
            break
        if len(keep) < len(live):
            live = [live[i] for i in keep]
            norms = [norms[i] for i in keep]
            v = {d: x[keep] for d, x in v.items()}
        step = (PROBE_EPSILON / np.array(norms))[:, None, None]
        upd = _sweep(compiled, {d: _normalize_rows(x + step * v[d])
                                for d, x in base.items()})
        # twice, as the per-edge path did: not idempotent in the last bits
        v = {d: (_normalize_rows(_normalize_rows(upd[d])) - x)
             / PROBE_EPSILON
             for d, x in base.items()}
        norms = plan.norms(v)
        for c, lam in zip(live, norms):
            lams[c].append(lam)
    growths = [float(np.exp(np.mean(np.log(chain[-20:]))))
               for chain in lams if len(chain) >= 20]
    if not growths:
        return "inconclusive", float("nan")
    g = _median(growths)
    if g > 1.0 + 1e-3:
        return "unstable", g
    if g < 1.0 - 1e-3:
        return "stable", g
    return "inconclusive", g
