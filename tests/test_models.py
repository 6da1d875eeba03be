import itertools
import math

import numpy as np
import pytest

import oracles
from bptn.bp import bp_iterate, uniform_messages
from bptn.errors import InputError
from bptn.models import (IsingParams, _ising_pairs, _ising_tn,
                         ising_exact_logZ, ising_insertion, ising_network,
                         ising_paramagnetic_messages,
                         random_peps, random_tree_network,
                         single_loop_network)
from bptn.network import build_norm_network, exact_contract
from bptn.tnio import load_network, save_network
from oracles import peps_statevector, self_consistency_residual


def _spin_sum_logZ(p: IsingParams):
    """Independent oracle: explicit sum over all spin configurations.  On
    the cylinder, rows wrap and columns do not: site (L-1, j) has no bond
    down."""
    L = p.L
    sites = [(i, j) for i in range(L) for j in range(L)]
    idx = {s: k for k, s in enumerate(sites)}
    bonds = {}
    for i, j in sites:
        for di, dj in ((0, 1), (1, 0)):
            if p.topology == "cylinder" and i + di == L:
                continue
            a, b = idx[(i, j)], idx[((i + di) % L, (j + dj) % L)]
            key = frozenset((a, b))
            bonds[key] = bonds.get(key, 0) + 1
    n = L * L
    spins = 1 - 2 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1)
    energy = np.zeros(2 ** n)
    for key, mult in bonds.items():
        a, b = tuple(key)
        energy += mult * spins[:, a] * spins[:, b]
    energy += p.h * spins.sum(axis=1)
    w = p.beta * energy
    wmax = w.max()
    return float(wmax + math.log(np.exp(w - wmax).sum()))


@pytest.mark.parametrize("L,beta,h", [(2, 0.3, 0.0), (3, 0.25, 0.1),
                                      (4, 0.2, 0.0)])
def test_ising_network_contracts_to_exact_logZ(L, beta, h):
    p = IsingParams(L=L, beta=beta, h=h)
    tn = ising_network(p)
    z = exact_contract(tn)
    assert abs(z.imag) < 1e-10 * abs(z)
    assert abs(math.log(z.real) - ising_exact_logZ(p)) < 1e-10


def test_ising_exact_logZ_vs_independent_spin_sum():
    """The transfer matrix against the spin sum, on every size the sum
    reaches, on both topologies, with and without a field."""
    for L, beta, h, topology in itertools.product(
            (2, 3, 4), (0.2, 0.4), (0.0, 0.15, -0.3), ("torus", "cylinder")):
        p = IsingParams(L=L, beta=beta, h=h, topology=topology)
        want = _spin_sum_logZ(p)
        assert abs(ising_exact_logZ(p) - want) <= 1e-13 * abs(want), p


def test_transfer_matrix_branch_matches_tensor_contraction():
    """The transfer-matrix branch (L=5 > brute-force cutoff) against exact
    contraction of the partition-function network, on both topologies."""
    for topology in ("torus", "cylinder"):
        p = IsingParams(L=5, beta=0.25, h=0.1, topology=topology)
        z = exact_contract(ising_network(p))
        assert abs(ising_exact_logZ(p) - math.log(z.real)) < 1e-9, topology


def test_paramagnetic_messages_are_fixed_point():
    p = IsingParams(L=4, beta=0.35)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    assert self_consistency_residual(ms) < 1e-14


def test_paramagnetic_messages_require_zero_field():
    p = IsingParams(L=4, beta=0.3, h=0.1)
    with pytest.raises(InputError, match="^paramagnetic fixed point "
                       "requires zero field$"):
        ising_paramagnetic_messages(p, ising_network(p))


def test_ising_insertion_identity_gate_is_noop():
    """The identity gate rebuilds every site tensor bit for bit, on a torus
    and on a cylinder."""
    for p in (IsingParams(L=3, beta=0.3, h=0.1),
              IsingParams(L=3, beta=0.3, h=0.1, topology="cylinder")):
        tn = ising_network(p)
        out = ising_insertion(tn, p,
                              {v: np.eye(2) for v in tn.graph.vertices})
        for v in tn.graph.vertices:
            assert out[v].leg_ids == tn.tensors[v].leg_ids
            assert np.array_equal(out[v].data, tn.tensors[v].data), v


def test_ising_insertion_magnetization_oracle():
    """<sigma_z> at one site from the decorated network equals the spin-sum
    expectation."""
    p = IsingParams(L=3, beta=0.25, h=0.2)
    tn = ising_network(p)
    gates = ising_insertion(tn, p, {"1,1": np.diag([1.0, -1.0])})
    dec = tn.replace_tensors(gates)
    got = exact_contract(dec) / exact_contract(tn)
    # spin-sum oracle
    L = 3
    sites = [(i, j) for i in range(L) for j in range(L)]
    idx = {s: k for k, s in enumerate(sites)}
    num = den = 0.0
    for conf in itertools.product((1, -1), repeat=L * L):
        e = 0.0
        for i, j in sites:
            e += conf[idx[(i, j)]] * conf[idx[(i, (j + 1) % L)]]
            e += conf[idx[(i, j)]] * conf[idx[((i + 1) % L, j)]]
        e += p.h * sum(conf)
        w = math.exp(p.beta * e)
        den += w
        num += w * conf[idx[(1, 1)]]
    assert abs(got - num / den) < 1e-10


def test_ising_insertion_flip_gate_identity_at_zero_field():
    """The spin-flip gate leaves Z invariant at h=0 (global Z2 symmetry)."""
    p = IsingParams(L=3, beta=0.3)
    tn = ising_network(p)
    gates = ising_insertion(tn, p, {"0,0": np.array([[0.0, 1.0], [1.0, 0.0]])})
    dec = tn.replace_tensors(gates)
    z0, z1 = exact_contract(tn), exact_contract(dec)
    assert abs(z1 - z0) < 1e-10 * abs(z0)


def ising_network_3d(shape, beta: float):
    """Small cubic-torus Ising variant (max degree 6) for enumeration tests."""
    nx, ny, nz = shape
    vertices = [f"{x},{y},{z}" for x in range(nx) for y in range(ny)
                for z in range(nz)]
    pairs = {}

    def add(a, b):
        key = frozenset((a, b))
        pairs[key] = pairs.get(key, 0) + 1

    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                v = f"{x},{y},{z}"
                add(v, f"{(x + 1) % nx},{y},{z}")
                add(v, f"{x},{(y + 1) % ny},{z}")
                add(v, f"{x},{y},{(z + 1) % nz}")
    return _ising_tn(vertices, pairs, beta, {})


def test_ising_3d_degree_six():
    tn = ising_network_3d((2, 2, 2), beta=0.2)
    def degrees(g):
        return {len(g.incident(v)) for v in g.vertices}

    assert max(degrees(tn.graph)) == 3  # 2x2x2 torus has doubled bonds fused
    tn2 = ising_network_3d((3, 3, 2), beta=0.2)
    assert degrees(tn2.graph) == {5}  # z-direction wrap doubles at nz=2
    tn3 = ising_network_3d((3, 3, 3), beta=0.15)
    assert degrees(tn3.graph) == {6}


def test_single_loop_network_converges():
    tn = single_loop_network(7, seed=1)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-12)
    assert res.converged


def test_random_tree_shape():
    tn = random_tree_network(9, D=3, seed=2)
    assert len(tn.graph.edges) == 8  # a tree
    assert all(d == 3 for d in tn.bond_dims.values())


def test_random_peps_norm_positive_and_statevector():
    peps = random_peps(2, 2, D=2, perturbation=0.2, seed=3)
    tn = build_norm_network(peps)
    norm = exact_contract(tn)
    psi = peps_statevector(peps)
    assert abs(norm - np.sum(np.abs(psi.data) ** 2)) < 1e-10 * abs(norm)
    assert norm.real > 0


def test_generators_roundtrip_through_interchange_format(tmp_path):
    cases = [
        ising_network(IsingParams(L=3, beta=0.3, h=0.1)),
        random_peps(2, 2, D=2, perturbation=0.3, seed=5),
        random_tree_network(6, D=2, seed=6),
        single_loop_network(5, seed=7),
        random_tree_network(1, seed=8),  # one tensor with no legs: 0-d
    ]
    for i, tn in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        save_network(path, tn)
        back = load_network(path)
        assert back.bond_dims == tn.bond_dims
        assert back.phys_dims == tn.phys_dims
        for v in tn.graph.vertices:
            assert np.array_equal(back.tensors[v].data, tn.tensors[v].data)


@pytest.mark.parametrize("topology", ["torus", "cylinder"])
@pytest.mark.parametrize("L", [2, 3, 5])
def test_ising_site_tensors_match_the_per_site_build(L, topology):
    """Each site tensor, and each insertion, is the per-site build from
    one root per pair, bit for bit; sites with the same incident root
    multiplicities share one array."""
    p = IsingParams(L=L, beta=0.3, h=0.15, topology=topology)
    tn = ising_network(p)
    pairs = _ising_pairs(p)
    gates = {"0,1": np.diag([1.0, -1.0]), "1,0": [[0.0, 1.0], [1.0, 0.0]]}
    built = [(v, t, np.eye(2)) for v, t in tn.tensors.items()] + [
        (v, t, gates[v]) for v, t in ising_insertion(tn, p, gates).items()]
    for v, t, gate in built:
        want = oracles.ising_site_tensor(tn, pairs, p.beta, v, p.h,
                                         np.asarray(gate, dtype=complex))
        assert t.leg_ids == want.leg_ids
        assert np.array_equal(t.data, want.data), v
    mult = {"|".join(sorted(key)): m for key, m in pairs.items()}
    kinds = {tuple(mult[e] for e, _ in tn.graph.incident(v))
             for v in tn.graph.vertices}
    arrays = {t.data.__array_interface__["data"][0]
              for t in tn.tensors.values()}
    assert len(arrays) == len(kinds)
