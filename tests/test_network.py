import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bptn.errors import (DimensionMismatch, InvalidNetworkFile,
                         MissingPhysicalLeg, RegionMismatch)
from bptn.models import (IsingParams, ising_exact_logZ, ising_network,
                         random_peps)
from bptn.network import (Graph, TensorNetwork, _double_tensor, bfs,
                          build_norm_network, connected_subsets,
                          exact_contract, grown_sets, is_connected,
                          peps_replacements, phys_leg, set_bits)
from bptn.tensor import DenseTensor
from bptn.tnio import (load_messages, load_network, network_from_dict,
                       network_to_dict, save_network)


def ring(n=4, D=2, seed=0):
    rng = np.random.default_rng(seed)
    verts = [f"v{i}" for i in range(n)]
    edges = {f"e{i}": (verts[i], verts[(i + 1) % n]) for i in range(n)}
    g = Graph(verts, edges)
    tensors = {}
    for i, v in enumerate(verts):
        legs = [e for (e, _) in g.incident(v)]
        tensors[v] = DenseTensor(legs, rng.standard_normal((D, D))
                                 + 1j * rng.standard_normal((D, D)))
    return TensorNetwork(g, tensors)


# -- graph ------------------------------------------------------------------

def test_graph_rejects_self_loop_and_parallel():
    with pytest.raises(DimensionMismatch):
        Graph(["a"], {"e": ("a", "a")})
    with pytest.raises(DimensionMismatch):
        Graph(["a", "b"], {"e1": ("a", "b"), "e2": ("b", "a")})


def test_graph_incidence():
    g = Graph(["a", "b", "c"], {"x": ("a", "b"), "y": ("b", "c")})
    assert g.incident("b") == [("x", "a"), ("y", "c")]
    assert g.edge_between("a", "b") == "x"
    assert g.edge_between("a", "c") is None


def test_graph_distance_bfs():
    g = Graph(["a", "b", "c", "d"],
              {"1": ("a", "b"), "2": ("b", "c"), "3": ("c", "d")})
    assert bfs(g, {"a"})[0]["d"] == 3
    assert bfs(g, {"a", "b"})[0]["b"] == 0
    g2 = Graph(["a", "b"], {})
    assert "b" not in bfs(g2, {"a"})[0]


def test_shortest_paths_counts_on_torus():
    g = ising_network(IsingParams(L=4, beta=0.2)).graph
    dist, paths = bfs(g, {"0,0"})
    got = [(dist[b], paths[b]) for b in ("0,1", "0,2", "1,2", "2,2")]
    assert got == [(1, 1), (2, 2), (3, 6), (4, 24)]


def _brute_shortest_paths(g, A, B):
    """(length, count) of the shortest simple paths from A to B."""
    lengths = []

    def walk(path):
        if path[-1] in B:
            lengths.append(len(path) - 1)
        for _, w in g.incident(path[-1]):
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
    """The distance from A to B is the least bfs distance in B, and the
    shortest paths are those ending at the B vertices at that distance."""
    n, present, A, B = case
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph([str(i) for i in range(n)],
              {f"{u}-{v}": (str(u), str(v))
               for (u, v), keep in zip(pairs, present) if keep})
    A, B = {str(a) for a in A}, {str(b) for b in B}
    dist, paths = bfs(g, A)
    d = min(dist.get(b, math.inf) for b in B)
    assert (d, sum(paths[b] for b in B if dist.get(b) == d)) == \
        _brute_shortest_paths(g, A, B)


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
    once, and nothing else; by the bit-mask walk of ``tests/oracles.py``
    with roots, only those holding a root."""
    present, weights, max_weight, roots = case
    n = len(weights)
    nbrs = [set() for _ in range(n)]
    for (u, v), keep in zip(itertools.combinations(range(n), 2), present):
        if keep:
            nbrs[u].add(v)
            nbrs[v].add(u)
    got = [frozenset(s) for s in connected_subsets(nbrs, weights, max_weight)]
    assert len(got) == len(set(got)), "a subset was yielded twice"
    assert set(got) == _brute_connected_subsets(nbrs, weights, max_weight,
                                                None)
    got = [frozenset(s) for s, _ in
           oracles.mask_subsets(nbrs, weights, max_weight, roots)]
    assert len(got) == len(set(got)), "a subset was yielded twice"
    assert set(got) == _brute_connected_subsets(nbrs, weights, max_weight,
                                                roots)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.booleans(), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.lists(st.integers(1, 3), min_size=n, max_size=n),
    st.integers(0, 10),
    st.none() | st.lists(st.integers(0, n - 1), unique=True),
    st.lists(st.integers(-8, 8), min_size=n, max_size=n),
    st.integers(2, 4))))
def test_mask_walk_matches_tuple_walk_sequence(case):
    """The bit-mask walks yield the subsets of the tuple-and-frozenset walk
    they replaced in the same order: ``connected_subsets``, and the walk
    of ``tests/oracles.py`` with roots, labels and a ``grow`` hook, which
    it asks about the same (subset, candidates) pairs in the same order,
    also when the answer depends on the candidates; each label is the sum
    over its subset."""
    present, weights, max_weight, roots, labels, modulus = case
    n = len(weights)
    nbrs = [set() for _ in range(n)]
    for (u, v), keep in zip(itertools.combinations(range(n), 2), present):
        if keep:
            nbrs[u].add(v)
            nbrs[v].add(u)
    assert list(connected_subsets(nbrs, weights, max_weight)) == list(
        oracles.connected_subsets(nbrs, weights, max_weight))

    def judge(asked):
        def grow(cur, cand):
            asked.append((cur, cand))
            return (sum(cand) + len(cur)) % modulus != 0
        return grow

    for prune in (False, True):
        want_asked, got_asked = [], []
        want = list(oracles.connected_subsets(
            nbrs, weights, max_weight, roots,
            judge(want_asked) if prune else None))
        got = list(oracles.mask_subsets(
            nbrs, weights, max_weight, roots,
            judge(got_asked) if prune else None, labels))
        assert [cur for cur, _ in got] == want
        assert got_asked == want_asked
        assert [label for _, label in got] == [
            sum(labels[i] for i in cur) for cur in want]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 2), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.one_of(st.none(), st.integers(0, n - 1)),
    st.integers(0, 7))))
def test_grown_sets_match_leaf_pruned_walks(case):
    """On random graphs of up to 10 vertices (an edge in each third of the
    pairs), the grower finds the strings of the leaf-pruned edge walk,
    with random terminals, and the vertex sets of the leaf-pruned vertex
    walk, with and without an anchor, each once."""
    present, marked, anchor, size = case
    n = len(marked)
    g = Graph(range(n), {f"{u}-{v}": (u, v) for (u, v), keep in zip(
        itertools.combinations(range(n), 2), present) if keep == 0})
    terminals = {str(v) for v in range(n) if marked[v]}
    edge_ids = sorted(g.edges)
    grown = [tuple(edge_ids[i] for i in bits) for bits in (
        set_bits(em) for _, em in grown_sets(g, size, terminals))]
    assert len(grown) == len(set(grown))
    assert sorted(grown, key=lambda key: (len(key), key)) == \
        oracles.leaf_pruned_strings(g, terminals, size)[0]
    anchor = None if anchor is None else str(anchor)
    grown = [vm for vm, _ in grown_sets(g, size, anchor=anchor,
                                        by_vertex=True)]
    assert len(grown) == len(set(grown))
    assert sorted(grown) == sorted(
        oracles.leaf_pruned_vertex_sets(g, size, anchor)[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2),
    st.integers(0, (1 << n) - 1))))
def test_is_connected_matches_the_set_search(case):
    """The breadth-first search over neighbour masks agrees with the set
    search it replaced, on random graphs and vertex sets, the empty set
    included."""
    n, present, mask = case
    g = Graph(range(n), {f"{u}-{v}": (u, v) for (u, v), keep in zip(
        itertools.combinations(range(n), 2), present) if keep})
    assert is_connected(mask, g.adj) == oracles.is_connected(
        [g.vertices[i] for i in set_bits(mask)],
        functools.partial(oracles.neighbors, g))


def test_grown_sets_grow_a_lollipop_at_the_size_limit():
    """Two triangles joined by an edge: the dumbbell is grown only by a
    lollipop from either triangle, which takes the whole size left, 4
    edges or 3 new vertices; so is the triangle with a stem to b0 from the
    anchor b0."""
    pairs = [("a0", "a1"), ("a1", "a2"), ("a0", "a2"), ("b0", "b1"),
             ("b1", "b2"), ("b0", "b2"), ("a0", "b0")]
    g = Graph({v for p in pairs for v in p},
              {f"{u}-{v}": (u, v) for u, v in pairs})
    assert sorted(em.bit_count() for _, em in grown_sets(g, 7)) == [3, 3, 7]
    assert sorted(vm.bit_count() for vm, _ in grown_sets(
        g, 6, by_vertex=True)) == [3, 3, 6]
    assert sorted(vm.bit_count() for vm, _ in grown_sets(
        g, 4, anchor="b0", by_vertex=True)) == [1, 3, 4]


# -- network validation -----------------------------------------------------

def test_network_validates_legs():
    g = Graph(["a", "b"], {"e": ("a", "b")})
    good = DenseTensor(["e"], [1.0, 2.0])
    bad = DenseTensor(["f"], [1.0, 2.0])
    tn = TensorNetwork(g, {"a": good, "b": good})
    assert (tn.bond_dims, tn.phys_dims, tn.is_closed) == ({"e": 2}, {}, True)
    with pytest.raises(DimensionMismatch):
        TensorNetwork(g, {"a": good, "b": bad})
    # at most one more leg, the vertex's own physical leg
    open_a = DenseTensor(["e", phys_leg("a")], np.ones((2, 3)))
    tn = TensorNetwork(g, {"a": open_a, "b": good})
    assert (tn.bond_dims, tn.phys_dims) == ({"e": 2}, {"a": 3})
    for legs in (["e", phys_leg("b")], ["e", phys_leg("a"), "f"]):
        with pytest.raises(DimensionMismatch):
            TensorNetwork(g, {"a": DenseTensor(legs, np.ones((2,) * len(
                legs))), "b": good})


def test_network_refuses_an_edge_its_ends_give_two_dims():
    """The two tensors on an edge must agree on its dimension; it is
    recorded nowhere else."""
    g = Graph(["a", "b", "c"], {"e": ("a", "b"), "f": ("b", "c")})
    with pytest.raises(DimensionMismatch, match="edge 'f': dim 3 at vertex "
                       "'c' != dim 2 at its other end"):
        TensorNetwork(g, {"a": DenseTensor(["e"], np.ones(2)),
                          "b": DenseTensor(["e", "f"], np.ones((2, 2))),
                          "c": DenseTensor(["f"], np.ones(3))})


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
            sel = tuple(idx[x] for x in t.leg_ids)
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
    t = DenseTensor(["a", "b", phys_leg("v")], ket)
    op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    d = _double_tensor(t, phys_leg("v"), op)
    # canonical storage order is (a, b, p:v)
    want = np.einsum("abp,qp,ABq->aAbB", t.data, op,
                     np.conj(t.data)).reshape(4, 9)
    assert d.leg_ids == ["a", "b"]
    assert d.data.shape == (4, 9)
    assert np.allclose(d.data, want)


def test_norm_network_equals_statevector_norm():
    peps = random_peps(2, 3, D=2, perturbation=0.3, seed=2)
    tn = build_norm_network(peps)
    psi = oracles.peps_statevector(peps)
    norm2 = float(np.sum(np.abs(psi.data) ** 2))
    assert abs(exact_contract(tn) - norm2) < 1e-10 * norm2


def test_insert_operator_matches_statevector():
    peps = random_peps(2, 2, D=2, perturbation=0.3, seed=4)
    tn = build_norm_network(peps)
    psi = oracles.peps_statevector(peps).data  # axes follow sorted site ids
    sz = np.diag([1.0, -1.0])
    num = exact_contract(tn.replace_tensors(
        peps_replacements(peps, {"0,1": sz})))
    # statevector axes sorted: 0,0 0,1 1,0 1,1 -> operator on axis 1
    want = np.einsum("abcd,be,aecd->", np.conj(psi).conj(), sz, psi)
    want = np.einsum("aecd,be,abcd->", psi, sz, np.conj(psi))
    assert abs(num - want) < 1e-10 * abs(want)


def test_insert_operator_validates():
    peps = random_peps(2, 2, D=2, perturbation=0.1)
    tn = build_norm_network(peps)
    with pytest.raises(RegionMismatch):
        peps_replacements(peps, {"9,9": np.eye(2)})
    with pytest.raises(RegionMismatch):
        peps_replacements(peps, {"0,0": np.eye(3)})


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


def test_load_messages_refuses_a_missing_directed_edge(tmp_path):
    """A message section without one directed edge is refused on load,
    with the file and the edge named, not at the first BP read."""
    from bptn.bp import uniform_messages

    tn = ising_network(IsingParams(L=3, beta=0.2))
    doc = network_to_dict(tn, uniform_messages(tn))
    key = sorted(doc["messages"])[3]
    del doc["messages"][key]
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidNetworkFile) as exc:
        load_messages(path, load_network(path))
    assert str(exc.value) == f"{path}: {key}: no message"


def test_roundtrip_peps_with_messages(tmp_path):
    from bptn.bp import bp_iterate, uniform_messages

    peps = random_peps(2, 2, D=2, perturbation=0.2, seed=10)
    tn = build_norm_network(peps)
    ms = bp_iterate(tn, uniform_messages(tn)).messages
    path = tmp_path / "net.json"
    save_network(path, tn, messages=ms)
    back = load_network(path)
    ms2 = load_messages(path, back)
    assert ms2.plan.slot == ms.plan.slot
    for d, x in ms.data.items():
        assert np.array_equal(x, ms2.data[d])
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


def _with_messages(doc, change):
    doc["messages"] = {"v0->v1": {"re": [1.0, 0.0], "im": [0.0, 0.0]}}
    change(doc["messages"])
    return json.dumps(doc)


@pytest.mark.parametrize("text, where", [
    (lambda doc: "{not json", "not valid JSON"),
    (lambda doc: _with_messages(
        doc, lambda m: m.update({"v0->v1": [1.0, 0.0]})), "messages/v0->v1"),
    (lambda doc: json.dumps({**doc, "messages": [1.0]}), "messages"),
    (lambda doc: _with_messages(
        doc, lambda m: m["v0->v1"].update(re="x")), "messages/v0->v1"),
    (lambda doc: _with_messages(
        doc, lambda m: m["v0->v1"].update(re=["x", 0.0])), "messages/v0->v1"),
    (lambda doc: _with_messages(
        doc, lambda m: m["v0->v1"].update(im=[0.0, None])),
     "messages/v0->v1"),
    (lambda doc: _with_messages(
        doc, lambda m: m["v0->v1"].pop("re")), "messages/v0->v1"),
    (lambda doc: _with_messages(
        doc, lambda m: m["v0->v1"].pop("im")), "messages/v0->v1"),
], ids=["bad-json", "record-not-object", "messages-not-object",
        "re-string", "re-entry-string", "im-entry-null", "missing-re",
        "missing-im"])
def test_load_messages_refusals_are_path_qualified(tmp_path, text, where):
    """``load_messages`` refuses a malformed message section with an
    ``InvalidNetworkFile`` that names the file and the place in it."""
    tn = ring(3, 2)
    path = tmp_path / "net.json"
    path.write_text(text(network_to_dict(tn)))
    with pytest.raises(InvalidNetworkFile) as e:
        load_messages(path, tn)
    assert str(e.value).startswith(f"{path}: ")
    assert where in str(e.value)


def test_network_from_dict_rejects_dangling_edge():
    doc = network_to_dict(ring(3, 2))
    doc["edges"].append({"id": "bogus", "u": "v0", "v": "nope", "dim": 2})
    with pytest.raises((InvalidNetworkFile, DimensionMismatch)):
        network_from_dict(doc)
