import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bptn.errors import (DimensionMismatch, InvalidNetworkFile,
                         MissingPhysicalLeg, RegionMismatch)
from bptn.models import (IsingParams, ising_exact_logZ, ising_network,
                         peps_statevector, random_peps)
from bptn.network import (Graph, OperatorInsertion, TensorNetwork,
                          _double_tensor, bfs, build_norm_network,
                          connected_subsets, exact_contract, insert_operator,
                          merge_region, phys_leg, shortest_paths)
from bptn.tensor import DenseTensor, Leg
from bptn.tnio import (load_messages, load_network, network_from_dict,
                       network_to_dict, save_network)


def ring(n=4, D=2, seed=0):
    rng = np.random.default_rng(seed)
    verts = [f"v{i}" for i in range(n)]
    edges = {f"e{i}": (verts[i], verts[(i + 1) % n]) for i in range(n)}
    g = Graph(verts, edges)
    tensors = {}
    for i, v in enumerate(verts):
        legs = [Leg(e, D) for (e, _) in g.incident(v)]
        tensors[v] = DenseTensor(legs, rng.standard_normal((D, D))
                                 + 1j * rng.standard_normal((D, D)))
    return TensorNetwork(g, {e: D for e in edges}, tensors)


# -- graph ------------------------------------------------------------------

def test_graph_rejects_self_loop_and_parallel():
    with pytest.raises(DimensionMismatch):
        Graph(["a"], {"e": ("a", "a")})
    with pytest.raises(DimensionMismatch):
        Graph(["a", "b"], {"e1": ("a", "b"), "e2": ("b", "a")})


def test_graph_incidence():
    g = Graph(["a", "b", "c"], {"x": ("a", "b"), "y": ("b", "c")})
    assert g.neighbors("b") == ["a", "c"]
    assert g.degree("b") == 2 and g.max_degree == 2
    assert g.other_end("x", "a") == "b"
    assert g.edge_between("a", "b") == "x"
    assert g.edge_between("a", "c") is None


def test_graph_distance_bfs():
    g = Graph(["a", "b", "c", "d"],
              {"1": ("a", "b"), "2": ("b", "c"), "3": ("c", "d")})
    assert shortest_paths(g, {"a"}, {"d"})[0] == 3
    assert shortest_paths(g, {"a", "b"}, {"b"})[0] == 0
    g2 = Graph(["a", "b"], {})
    assert shortest_paths(g2, {"a"}, {"b"})[0] == math.inf


def test_shortest_paths_counts_on_torus():
    g = ising_network(IsingParams(L=4, beta=0.2)).graph
    got = [shortest_paths(g, {"0,0"}, {b})
           for b in ("0,1", "0,2", "1,2", "2,2")]
    assert got == [(1, 1), (2, 2), (3, 6), (4, 24)]


def _brute_shortest_paths(g, A, B):
    """(length, count) of the shortest simple paths from A to B."""
    lengths = []

    def walk(path):
        if path[-1] in B:
            lengths.append(len(path) - 1)
        for w in g.neighbors(path[-1]):
            if w not in path:
                walk(path + [w])

    for a in A:
        walk([a])
    if not lengths:
        return math.inf, 0
    return min(lengths), lengths.count(min(lengths))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.booleans(), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.sets(st.integers(0, n - 1), min_size=1),
    st.sets(st.integers(0, n - 1), min_size=1))))
def test_shortest_paths_match_brute_force(case):
    n, present, A, B = case
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph([str(i) for i in range(n)],
              {f"{u}-{v}": (str(u), str(v))
               for (u, v), keep in zip(pairs, present) if keep})
    A, B = {str(a) for a in A}, {str(b) for b in B}
    want = _brute_shortest_paths(g, A, B)
    assert shortest_paths(g, A, B) == want


_random_graph_case = st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.booleans(), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.sets(st.integers(0, n - 1), min_size=1)))


@settings(max_examples=60, deadline=None)
@given(_random_graph_case)
def test_bfs_matches_brute_force(case):
    """bfs gives every vertex's distance and shortest-path count from A;
    vertices in another component are absent."""
    n, present, A = case
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph([str(i) for i in range(n)],
              {f"{u}-{v}": (str(u), str(v))
               for (u, v), keep in zip(pairs, present) if keep})
    A = {str(a) for a in A}
    dist, paths = bfs(g, A)
    for b in g.vertices:
        assert (dist.get(b, math.inf), paths.get(b, 0)) == \
            _brute_shortest_paths(g, A, {b})


def _brute_connected_subsets(nbrs, weights, max_weight, roots):
    """Every connected index subset within the weight limit (holding a
    root, when roots are given), by scanning all subsets."""
    n = len(weights)
    out = set()
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            if sum(weights[i] for i in combo) > max_weight:
                continue
            if roots is not None and not set(combo) & set(roots):
                continue
            reached = {combo[0]}
            frontier = [combo[0]]
            while frontier:
                x = frontier.pop()
                for y in nbrs[x]:
                    if y in combo and y not in reached:
                        reached.add(y)
                        frontier.append(y)
            if len(reached) == r:
                out.add(frozenset(combo))
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.booleans(), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.lists(st.integers(1, 3), min_size=n, max_size=n),
    st.integers(0, 10),
    st.none() | st.lists(st.integers(0, n - 1), unique=True))))
def test_connected_subsets_match_brute_force(case):
    """Every connected subset within the weight limit is yielded exactly
    once, and nothing else; with roots, only those holding a root."""
    present, weights, max_weight, roots = case
    n = len(weights)
    nbrs = [set() for _ in range(n)]
    for (u, v), keep in zip(itertools.combinations(range(n), 2), present):
        if keep:
            nbrs[u].add(v)
            nbrs[v].add(u)
    got = [frozenset(s) for s in
           connected_subsets(nbrs, weights, max_weight, roots)]
    assert len(got) == len(set(got)), "a subset was yielded twice"
    assert set(got) == _brute_connected_subsets(nbrs, weights, max_weight,
                                                roots)


# -- network validation -----------------------------------------------------

def test_network_validates_legs():
    g = Graph(["a", "b"], {"e": ("a", "b")})
    good = DenseTensor([Leg("e", 2)], [1.0, 2.0])
    bad = DenseTensor([Leg("f", 2)], [1.0, 2.0])
    TensorNetwork(g, {"e": 2}, {"a": good, "b": good})
    with pytest.raises(DimensionMismatch):
        TensorNetwork(g, {"e": 2}, {"a": good, "b": bad})
    with pytest.raises(DimensionMismatch):
        TensorNetwork(g, {"e": 3}, {"a": good, "b": good})


def test_exact_contract_vs_brute_force():
    tn = ring(4, 2)
    # brute force: sum over all edge index assignments
    dims = {e: tn.bond_dims[e] for e in tn.graph.edges}
    edge_ids = sorted(dims)
    total = 0.0 + 0j
    for assign in itertools.product(*(range(dims[e]) for e in edge_ids)):
        idx = dict(zip(edge_ids, assign))
        term = 1.0 + 0j
        for v, t in tn.tensors.items():
            sel = tuple(idx[l.id] for l in t.legs)
            term *= t.data[sel]
        total += term
    assert abs(exact_contract(tn) - total) < 1e-12 * abs(total)


def test_exact_contract_6x6_torus_matches_transfer_matrix():
    """72 edges: more distinct leg labels than np.einsum's sublist form
    accepts (52), so this guards against routing exact contraction
    through einsum."""
    p = IsingParams(L=6, beta=0.3, h=0.1)
    tn = ising_network(p)
    assert len(tn.graph.edges) == 72
    want = ising_exact_logZ(p)
    assert abs(np.log(exact_contract(tn)) - want) < 1e-12 * abs(want)


def test_exact_contract_requires_closed():
    peps = random_peps(2, 2, D=2, perturbation=0.1)
    with pytest.raises(MissingPhysicalLeg):
        exact_contract(peps)


# -- norm network / insertions ---------------------------------------------

def test_double_tensor_vs_einsum():
    rng = np.random.default_rng(3)
    ket = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    t = DenseTensor([Leg("a", 2), Leg("b", 3), Leg(phys_leg("v"), 2)], ket)
    op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    d = _double_tensor(t, phys_leg("v"), op)
    # canonical storage order is (a, b, p:v)
    want = np.einsum("abp,qp,ABq->aAbB", t.data, op,
                     np.conj(t.data)).reshape(4, 9)
    assert d.leg_ids == ["a", "b"]
    assert [l.dim for l in d.legs] == [4, 9]
    assert np.allclose(d.data, want)


def test_norm_network_equals_statevector_norm():
    peps = random_peps(2, 3, D=2, perturbation=0.3, seed=2)
    tn = build_norm_network(peps)
    psi = peps_statevector(peps)
    norm2 = float(np.sum(np.abs(psi.data) ** 2))
    assert abs(exact_contract(tn) - norm2) < 1e-10 * norm2


def test_insert_operator_matches_statevector():
    peps = random_peps(2, 2, D=2, perturbation=0.3, seed=4)
    tn = build_norm_network(peps)
    psi = peps_statevector(peps).data  # axes follow sorted site ids
    sz = np.diag([1.0, -1.0])
    ins = OperatorInsertion({"0,1": sz})
    num = exact_contract(insert_operator(tn, peps, ins))
    # statevector axes sorted: 0,0 0,1 1,0 1,1 -> operator on axis 1
    want = np.einsum("abcd,be,aecd->", np.conj(psi).conj(), sz, psi)
    want = np.einsum("aecd,be,abcd->", psi, sz, np.conj(psi))
    assert abs(num - want) < 1e-10 * abs(want)


def test_insert_operator_validates():
    peps = random_peps(2, 2, D=2, perturbation=0.1)
    tn = build_norm_network(peps)
    with pytest.raises(RegionMismatch):
        insert_operator(tn, peps, OperatorInsertion({"9,9": np.eye(2)}))
    with pytest.raises(RegionMismatch):
        insert_operator(tn, peps, OperatorInsertion({"0,0": np.eye(3)}))


# -- merging ----------------------------------------------------------------

def test_merge_region_preserves_contraction():
    p = random_peps(2, 3, D=2, perturbation=0.4, seed=8)
    tn = build_norm_network(p)
    want = exact_contract(tn)
    merged, fused, new_id = merge_region(tn, ["0,0", "0,1", "1,1"])
    assert new_id in merged.graph.vertices
    assert abs(exact_contract(merged) - want) < 1e-10 * abs(want)
    # parallel edges to a common neighbor were fused
    assert all(len(es) > 1 for es in fused.values())


def test_merge_region_single_vertex():
    tn = ring(4, 2)
    want = exact_contract(tn)
    merged, fused, _ = merge_region(tn, ["v0"])
    assert fused == {}
    assert abs(exact_contract(merged) - want) < 1e-12 * abs(want)


# -- interchange format -----------------------------------------------------

def test_roundtrip_bit_exact(tmp_path):
    tn = ring(5, 3, seed=9)
    path = tmp_path / "net.json"
    save_network(path, tn)
    back = load_network(path)
    assert sorted(back.graph.vertices) == sorted(tn.graph.vertices)
    assert back.bond_dims == tn.bond_dims
    for v in tn.graph.vertices:
        a, b = tn.tensors[v], back.tensors[v]
        assert a.leg_ids == b.leg_ids
        assert np.array_equal(a.data, b.data)  # bit-exact


def test_roundtrip_peps_with_messages(tmp_path):
    from bptn.bp import bp_iterate, uniform_messages

    peps = random_peps(2, 2, D=2, perturbation=0.2, seed=10)
    tn = build_norm_network(peps)
    ms = bp_iterate(tn, uniform_messages(tn)).messages
    path = tmp_path / "net.json"
    save_network(path, tn, messages=ms)
    back = load_network(path)
    ms2 = load_messages(path, back)
    for key, m in ms.messages.items():
        assert np.array_equal(m.data, ms2.messages[key].data)
    path2 = tmp_path / "peps.json"
    save_network(path2, peps)
    back2 = load_network(path2)
    assert back2.phys_dims == peps.phys_dims


def test_invalid_file_errors_are_path_qualified(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidNetworkFile) as e:
        load_network(path)
    assert str(path) in str(e.value)
    doc = network_to_dict(ring(3, 2))
    del doc["edges"]
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidNetworkFile):
        load_network(path)


def test_network_from_dict_rejects_dangling_edge():
    doc = network_to_dict(ring(3, 2))
    doc["edges"].append({"id": "bogus", "u": "v0", "v": "nope", "dim": 2})
    with pytest.raises((InvalidNetworkFile, DimensionMismatch)):
        network_from_dict(doc)
