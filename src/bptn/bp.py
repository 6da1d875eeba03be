"""Belief-propagation engine: message iteration, local factors, free
energy, excitation projectors and stability probes.

Messages live on directed edges (v, w) as vectors on the edge leg and are
kept at unit 2-norm with the phase fixed so the largest-magnitude
component is real positive.  The bond inner products I_vw use the bilinear
pairing; square roots take the principal branch (recorded per edge --
downstream only closed products of them are used, so branches cancel).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateInnerProduct, NumericalCollapse, ZeroLocalFactor
from .network import TensorNetwork
from .tensor import DenseTensor, Leg, contract_network, contract_pair, inner

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


def _normalize(data: np.ndarray) -> np.ndarray:
    """Unit 2-norm, largest-magnitude component real positive."""
    n = np.linalg.norm(data)
    if n < 1e-14:
        raise NumericalCollapse("message update collapsed to zero")
    data = data / n
    k = int(np.argmax(np.abs(data)))
    phase = data[k] / abs(data[k])
    return data / phase


class MessageSet:
    """Directed-edge messages plus cached bond inner products, edge
    projectors and dressed site tensors."""

    def __init__(self, tn: TensorNetwork, messages: dict):
        self.tn = tn
        self.messages = {}
        for (v, w), m in messages.items():
            v, w = str(v), str(w)
            e = tn.graph.edge_between(v, w)
            if e is None:
                raise KeyError(f"no edge between {v!r} and {w!r}")
            self.messages[(v, w)] = m
        self._inner = {}
        self._sqrt = {}
        self._proj = {}
        self._dressed = {}

    def message(self, v, w) -> DenseTensor:
        return self.messages[(str(v), str(w))]

    def inner_product(self, e) -> complex:
        """I_vw = mu_{v->w} * mu_{w->v} on edge e (cached)."""
        e = str(e)
        if e not in self._inner:
            u, w = self.tn.graph.endpoints(e)
            val = inner(self.messages[(u, w)], self.messages[(w, u)])
            if abs(val) < I_FLOOR:
                raise DegenerateInnerProduct(
                    f"|I| = {abs(val):.3e} below floor on edge {e!r}")
            self._inner[e] = val
        return self._inner[e]

    def sqrt_inner(self, e) -> complex:
        """Principal-branch sqrt of I_vw, recorded per edge."""
        e = str(e)
        if e not in self._sqrt:
            self._sqrt[e] = cmath.sqrt(self.inner_product(e))
        return self._sqrt[e]

    def projector(self, e) -> DenseTensor:
        """``edge_projector`` on edge e (cached)."""
        e = str(e)
        if e not in self._proj:
            self._proj[e] = edge_projector(self, e)
        return self._proj[e]

    def dressed(self, v, tensor: DenseTensor, kept) -> DenseTensor:
        """``tensor`` at vertex v with mu_{n->v}/sqrt(I_e) absorbed on every
        incident edge e not in ``kept``; each kept leg e is renamed
        ``'<e>@<v>'``, the leg name ``edge_projector`` uses at v.

        Cached per (v, tensor object, kept edges).  The entry holds the
        tensor itself, so its id cannot be reused while the entry lives:
        networks that share these messages but swap one site tensor (the
        decorated networks of an insertion) get entries of their own.
        """
        v = str(v)
        kept = frozenset(kept)
        key = (v, id(tensor), kept)
        hit = self._dressed.get(key)
        if hit is not None:
            return hit[1]
        pieces = [tensor.relabel({e: f"{e}@{v}" for e in kept})]
        for (e, n) in self.tn.graph.incident(v):
            if e not in kept:
                pieces.append(
                    self.message(n, v).scale(1.0 / self.sqrt_inner(e)))
        out = contract_network(pieces)
        self._dressed[key] = (tensor, out)
        return out


class BPResult:
    def __init__(self, messages, residual, iterations, converged):
        self.messages = messages
        self.residual = residual
        self.iterations = iterations
        self.converged = converged


def uniform_messages(tn: TensorNetwork) -> MessageSet:
    msgs = {}
    for e, (u, v) in tn.graph.edges.items():
        d = tn.bond_dims[e]
        vec = DenseTensor([Leg(e, d)], np.full(d, 1.0 / math.sqrt(d)))
        msgs[(u, v)] = vec
        msgs[(v, u)] = vec
    return MessageSet(tn, msgs)


def random_messages(tn: TensorNetwork, seed=0) -> MessageSet:
    rng = np.random.default_rng(seed)
    msgs = {}
    for e, (u, v) in tn.graph.edges.items():
        d = tn.bond_dims[e]
        for pair in ((u, v), (v, u)):
            data = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            msgs[pair] = DenseTensor([Leg(e, d)], _normalize(data))
    return MessageSet(tn, msgs)


def _raw_update(tn, msgs, v, w, e):
    """Unnormalized outgoing message v->w: T_v starred with all other
    incoming messages."""
    t = tn.tensors[v]
    for (e2, n) in tn.graph.incident(v):
        if e2 == e:
            continue
        t = contract_pair(t, msgs[(n, v)])
    return t


def _sweep(tn, messages: MessageSet):
    """One synchronous sweep; returns dict of normalized updates."""
    out = {}
    msgs = messages.messages
    for e, (u, v) in tn.graph.edges.items():
        for (a, b) in ((u, v), (v, u)):
            upd = _raw_update(tn, msgs, a, b, e)
            out[(a, b)] = DenseTensor(upd.legs, _normalize(upd.data))
    return out


def self_consistency_residual(tn, messages: MessageSet) -> float:
    """Max aligned 2-norm defect of the fixed-point equations."""
    upd = _sweep(tn, messages)
    worst = 0.0
    for key, new in upd.items():
        old = _normalize(messages.messages[key].data)
        worst = max(worst, float(np.linalg.norm(new.data - old)))
    return worst


def bp_iterate(tn: TensorNetwork, messages: MessageSet,
               damping=DEFAULT_DAMPING, tol=DEFAULT_TOL) -> BPResult:
    """Synchronous damped BP iteration to a fixed point, starting from
    ``messages`` (left unchanged)."""
    residual = math.inf
    for it in range(1, DEFAULT_MAX_ITERS + 1):
        upd = _sweep(tn, messages)
        residual = 0.0
        mixed = {}
        for key, new in upd.items():
            old = messages.messages[key]
            residual = max(residual, float(
                np.linalg.norm(new.data - _normalize(old.data))))
            data = (1.0 - damping) * new.data + damping * old.data
            mixed[key] = DenseTensor(new.legs, _normalize(data))
        messages = MessageSet(tn, mixed)
        if residual <= tol:
            return BPResult(messages, residual, it, True)
    return BPResult(messages, residual, DEFAULT_MAX_ITERS, False)


def bp_local_factor(tn, messages: MessageSet, v) -> complex:
    """z_v = [tensor product of mu_{n->v}/sqrt(I_vn)] * T_v."""
    v = str(v)
    t = tn.tensors[v]
    denom = 1.0 + 0j
    for (e, n) in tn.graph.incident(v):
        t = contract_pair(t, messages.message(n, v))
        denom *= messages.sqrt_inner(e)
    return t.item() / denom


def bp_log_partition(tn, messages: MessageSet) -> complex:
    """Sum of principal-branch log z_v; Re gives log|Z_BP|."""
    total = 0.0 + 0j
    for v in tn.graph.vertices:
        z = bp_local_factor(tn, messages, v)
        if abs(z) < Z_FLOOR:
            raise ZeroLocalFactor(f"z_v below floor at vertex {v!r}")
        total += cmath.log(z)
    return total

def bp_free_energy(tn, messages: MessageSet):
    """(log|Z_BP|, phase mod 2pi); F_BP = -log Z_BP."""
    logz = bp_log_partition(tn, messages)
    return logz.real, logz.imag % (2 * math.pi)


def edge_projector(messages: MessageSet, e) -> DenseTensor:
    """P_perp on edge e = (u, v), legs '<e>@<u>' and '<e>@<v>'.

    P[i, j] = delta_ij - mu_{v->u}[i] mu_{u->v}[j] / I; each side carries
    the message flowing *into* that side's vertex, so the contraction with
    a BP-consistent environment vanishes on either side.
    """
    e = str(e)
    tn = messages.tn
    u, v = tn.graph.endpoints(e)
    d = tn.bond_dims[e]
    I = messages.inner_product(e)
    into_u = messages.message(v, u).data
    into_v = messages.message(u, v).data
    data = np.eye(d, dtype=complex) - np.outer(into_u, into_v) / I
    return DenseTensor([Leg(f"{e}@{u}", d), Leg(f"{e}@{v}", d)], data)


# --- stability -------------------------------------------------------------

def stability_probe(tn, messages: MessageSet, seed=0):
    """Classify a fixed point by the dominant eigenvalue of the sweep map.

    Finite-difference power iteration on the Jacobian of one normalized
    synchronous sweep at the fixed point: the perturbation direction is
    renormalized every step, so the estimate converges to |lambda_max|
    without transient bias.  Returns (classification, growth factor) with
    classification in {"stable", "unstable", "inconclusive"}.
    """
    rng = np.random.default_rng(seed)
    keys = sorted(messages.messages)
    base = {k: _normalize(messages.messages[k].data) for k in keys}
    legs = {k: messages.messages[k].legs for k in keys}
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
            cur = MessageSet(tn, {
                k: DenseTensor(legs[k],
                               _normalize(base[k] + (PROBE_EPSILON / norm)
                                          * v[k]))
                for k in keys})
            upd = _sweep(tn, cur)
            v = {k: (_normalize(upd[k].data) - base[k]) / PROBE_EPSILON
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


def merge_messages(tn_merged, fused: dict, messages: MessageSet,
                   region, new_id: str) -> MessageSet:
    """Carry a MessageSet across a merge_region call.

    Surviving edges keep their messages; fused edges get the tensor
    product of the original messages (kron in the fusion order), which is
    unit-norm and reproduces the original BP background outside the
    supervertex.
    """
    rset = {str(v) for v in region}
    old_graph = messages.tn.graph
    msgs = {}
    for e, (a, b) in tn_merged.graph.edges.items():
        if new_id not in (a, b):
            msgs[(a, b)] = messages.message(a, b)
            msgs[(b, a)] = messages.message(b, a)
            continue
        outside = b if a == new_id else a
        originals = fused.get(e, [e])
        into, outof = [], []  # w.r.t. the supervertex
        for oe in originals:
            ou, ov = old_graph.endpoints(oe)
            u = ou if ou in rset else ov  # region-side endpoint
            into.append(messages.message(outside, u).data)
            outof.append(messages.message(u, outside).data)
        for (src, dst), vecs in (((outside, new_id), into),
                                 ((new_id, outside), outof)):
            data = vecs[0]
            for vvec in vecs[1:]:
                data = np.kron(data, vvec)
            msgs[(src, dst)] = DenseTensor(
                [Leg(e, tn_merged.bond_dims[e])], data)
    return MessageSet(tn_merged, msgs)
