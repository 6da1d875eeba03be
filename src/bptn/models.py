"""Test-network generators and the classical-Ising analytic oracles.

The classical 2D Ising partition function is written as a closed tensor
network with one tensor per site: a spin-diagonal core dressed with the
symmetric square root of the bond transfer matrix

    M(beta) = [[e^beta, e^-beta], [e^-beta, e^beta]]

on every incident edge.  This gauge makes the paramagnetic BP fixed point
exactly the uniform message (1,1)/sqrt(2), and even-loop weights decay as
tanh(beta)^|l|.

Small-L periodic lattices produce doubled bonds (L=2 wrap-around); a
doubled bond is represented as a single edge whose transfer matrix is the
elementwise product, i.e. M(2*beta).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bp import MessageSet, uniform_messages
from .errors import InputError
from .network import Graph, TensorNetwork, phys_leg
from .tensor import DenseTensor


# --- classical Ising -------------------------------------------------------

@dataclass
class IsingParams:
    L: int
    beta: float
    h: float = 0.0
    topology: str = "torus"

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("L >= 2 required")
        if self.beta <= 0:
            raise ValueError("beta > 0 required")
        if not (math.isfinite(self.beta) and math.isfinite(self.h)):
            raise ValueError("finite beta and h required")
        if self.topology not in ("torus", "cylinder"):
            raise ValueError(f"unknown topology {self.topology!r}")


def _sqrt_bond_matrix(beta: float) -> np.ndarray:
    """Symmetric square root of M(beta); eigenbasis is the Hadamard pair."""
    lam_plus = 2.0 * math.cosh(beta)
    lam_minus = 2.0 * math.sinh(beta)
    q = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return q @ np.diag([math.sqrt(lam_plus), math.sqrt(lam_minus)]) @ q.T


def _ising_pairs(p: IsingParams):
    """Adjacent-site pairs with multiplicities (doubled on L=2 wraps)."""
    L = p.L
    pairs = {}

    def add(a, b):
        key = frozenset((a, b))
        pairs[key] = pairs.get(key, 0) + 1

    for i in range(L):
        for j in range(L):
            v = f"{i},{j}"
            add(v, f"{i},{(j + 1) % L}")                     # right (periodic)
            if p.topology == "torus" or i + 1 < L:
                add(v, f"{(i + 1) % L},{j}")                 # down
    return pairs


def _bond_roots(pairs: dict, beta: float) -> dict:
    """Edge id -> sqrt bond matrix, from a pair->multiplicity map; one
    matrix per multiplicity, shared by its edges."""
    by_mult = {m: _sqrt_bond_matrix(m * beta) for m in set(pairs.values())}
    return {"|".join(sorted(key)): by_mult[m] for key, m in pairs.items()}


def _site_tensors(graph: Graph, roots: dict, beta: float, jobs) -> dict:
    """{v: T^G_v} of each (v, h_v, G) job, T^G_v = sum_{s,t} G[t,s]
    e^{beta h_v s} prod_e sqrtM_e[t, i_e]: the site tensor with the 2x2
    gate G acting on the spin the bonds see.  Sites with the same incident
    roots, field and gate share one array; each has its own legs."""
    arrays, out = {}, {}
    for v, hv, gate in jobs:
        inc = graph.incident(v)
        key = tuple(id(roots[e]) for e, _ in inc), hv, gate.tobytes()
        if key not in arrays:
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
            arrays[key] = data
        out[v] = DenseTensor([e for (e, _) in inc], arrays[key])
    return out


_IDENTITY = np.eye(2, dtype=complex)


def _ising_tn(vertices, pairs: dict, beta: float, fields: dict) -> TensorNetwork:
    """Closed Ising TN from a pair->multiplicity map."""
    edges = {}
    for key in sorted(pairs, key=sorted):
        u, v = sorted(key)
        edges[f"{u}|{v}"] = (u, v)
    graph = Graph(vertices, edges)
    tensors = _site_tensors(graph, _bond_roots(pairs, beta), beta, [
        (v, fields.get(v, 0.0), _IDENTITY) for v in graph.vertices])
    return TensorNetwork(graph, tensors)


def ising_network(p: IsingParams) -> TensorNetwork:
    """L x L classical Ising partition-function network."""
    vertices = [f"{i},{j}" for i in range(p.L) for j in range(p.L)]
    return _ising_tn(vertices, _ising_pairs(p), p.beta,
                     {v: p.h for v in vertices})


def ising_paramagnetic_messages(p: IsingParams,
                                tn: TensorNetwork) -> MessageSet:
    """The analytic symmetric fixed point of ``tn = ising_network(p)``:
    uniform messages on every edge."""
    if p.h != 0.0:
        raise InputError("paramagnetic fixed point requires zero field")
    return uniform_messages(tn)


def ising_insertion(tn: TensorNetwork, p: IsingParams, gates: dict) -> dict:
    """Replacement site tensors for classical observables.

    ``gates`` maps vertex -> 2x2 matrix G acting on the spin seen by the
    bonds:  T^G_v = sum_{s,t} G[t,s] w(s) prod_e sqrtM_e[t, i_e].
    G = diag(1,-1) is the magnetization insertion (sigma_z analog);
    G = [[0,1],[1,0]] flips the spin seen by the bonds (sigma_x analog);
    G = identity returns the original tensor.
    """
    roots = _bond_roots(_ising_pairs(p), p.beta)
    return _site_tensors(tn.graph, roots, p.beta, [
        (str(v), p.h, np.asarray(gate, dtype=complex))
        for v, gate in gates.items()])


def ising_exact_logZ(p: IsingParams) -> float:
    """Exact log Z from the column-to-column transfer matrix."""
    L = p.L
    # rows wrap only on the torus
    confs = np.array(list(itertools.product((1, -1), repeat=L)))
    intra = np.einsum("ci,ci->c", confs, np.roll(confs, -1, axis=1))
    if p.topology == "cylinder":
        intra -= confs[:, -1] * confs[:, 0]
    fieldt = confs.sum(axis=1)
    inter = confs @ confs.T
    logT = (p.beta * inter
            + 0.5 * p.beta * (intra[:, None] + intra[None, :])
            + 0.5 * p.beta * p.h * (fieldt[:, None] + fieldt[None, :]))
    m = logT.max()
    T = np.exp(logT - m)
    evals = np.linalg.eigvalsh(T)
    lam_max = evals.max()
    return float(L * m + L * math.log(lam_max)
                 + math.log(np.sum((evals / lam_max) ** L)))


# --- toys, PEPS, trees -----------------------------------------------------

def single_loop_network(n: int, seed=0) -> TensorNetwork:
    """Random n-cycle with D=2, dominated by the identity so BP converges."""
    if n < 3:
        raise ValueError("n >= 3 required")
    rng = np.random.default_rng(seed)
    vertices = [f"v{i}" for i in range(n)]
    edges = {f"e{i}": (f"v{i}", f"v{(i + 1) % n}") for i in range(n)}
    graph = Graph(vertices, edges)
    tensors = {}
    for i in range(n):
        left, right = f"e{(i - 1) % n}", f"e{i}"
        data = np.eye(2) + 0.3 * (rng.standard_normal((2, 2))
                                  + 1j * rng.standard_normal((2, 2)))
        tensors[f"v{i}"] = DenseTensor([left, right], data)
    return TensorNetwork(graph, tensors)


def random_peps(rows: int, cols: int, D: int = 2, phys_dim: int = 2,
                perturbation: float = 0.1, seed=0) -> TensorNetwork:
    """Open-boundary PEPS: product |0> plus a Gaussian perturbation."""
    if min(rows, cols, D, phys_dim) < 1:
        raise ValueError("rows, cols, D and phys_dim >= 1 required")
    if not math.isfinite(perturbation):
        raise ValueError("finite perturbation required")
    rng = np.random.default_rng(seed)
    vertices = [f"{i},{j}" for i in range(rows) for j in range(cols)]
    edges = {}
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges[f"{i},{j}|{i},{j + 1}"] = (f"{i},{j}", f"{i},{j + 1}")
            if i + 1 < rows:
                edges[f"{i},{j}|{i + 1},{j}"] = (f"{i},{j}", f"{i + 1},{j}")
    graph = Graph(vertices, edges)
    tensors = {}
    for v in vertices:
        inc = graph.incident(v)
        shape = (D,) * len(inc) + (phys_dim,)
        data = perturbation * (rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))
        base = np.zeros(shape, dtype=complex)
        base[(0,) * len(shape)] = 1.0  # product |0> on trivial bond sector
        tensors[v] = DenseTensor([e for (e, _) in inc] + [phys_leg(v)],
                                 base + data)
    return TensorNetwork(graph, tensors)


def random_tree_network(n: int, D: int = 2, seed=0) -> TensorNetwork:
    """Random-attachment tree with random complex tensors."""
    if min(n, D) < 1:
        raise ValueError("n >= 1 and D >= 1 required")
    rng = np.random.default_rng(seed)
    vertices = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[f"e{i}"] = (f"v{j}", f"v{i}")
    graph = Graph(vertices, edges)
    tensors = {}
    for v in vertices:
        inc = graph.incident(v)
        shape = (D,) * len(inc)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        data /= np.linalg.norm(data)
        tensors[v] = DenseTensor([e for (e, _) in inc], data)
    return TensorNetwork(graph, tensors)
