import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bptn.cumulants
import bptn.loops
import bptn.network
from bptn.bp import bp_log_partition
from bptn.cli import main
from bptn.clusters import (Cluster, cluster_sums, enumerate_clusters,
                           free_energy_truncated, ursell)
from bptn.cumulants import (Region, connected_loop_subsets,
                            counting_numbers, cumulant, cumulant_free_energy,
                            find_regions, region_free_energy, region_partition,
                            restricted_partition)
from bptn.errors import BudgetError, NumericalError
from bptn.loops import (GeneralizedLoop, enumerate_loops, enumerate_strings,
                        evaluate_weights)
from bptn.models import (IsingParams, ising_exact_logZ, ising_network,
                         ising_paramagnetic_messages, random_peps)
from bptn.network import Graph
import oracles
from oracles import counting_number_free_energy, mobius_subset


def _chain_graph(n):
    verts = [f"v{i}" for i in range(n)]
    edges = {f"e{i}": (verts[i], verts[i + 1]) for i in range(n - 1)}
    return Graph(verts, edges)


def _ising_setup(L=4, beta=0.2, m=8):
    p = IsingParams(L=L, beta=beta)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    loops = enumerate_loops(tn.graph, m)
    table = evaluate_weights(ms, loops)
    return p, tn, ms, loops, table


def test_restricted_partition_brute_force():
    """Xi(B) equals the explicit sum over compatible loop families."""
    g = _chain_graph(6)
    loops = [GeneralizedLoop(g, es) for es in
             (["e0"], ["e0", "e1"], ["e2"], ["e3", "e4"])]
    table = {l.key: 0.1 * (i + 1) + 0.05j * i for i, l in enumerate(loops)}
    from bptn.clusters import loops_overlap

    want = 0.0 + 0j
    for r in range(len(loops) + 1):
        for fam in itertools.combinations(range(len(loops)), r):
            if any(loops_overlap(loops[a], loops[b])
                   for a, b in itertools.combinations(fam, 2)):
                continue
            term = 1.0 + 0j
            for i in fam:
                term *= table[loops[i].key]
            want += term
    got = restricted_partition(loops, table)[-1]
    assert abs(got - want) < 1e-14


_K6 = Graph(range(6), {f"{u}-{v}": (u, v)
                       for u, v in itertools.combinations(range(6), 2)})


def _loop_family(edge_sets):
    """Distinct loops on K6 in first-drawn order."""
    return list(dict.fromkeys(GeneralizedLoop(_K6, es) for es in edge_sets))


_EDGE_SETS = st.lists(st.sets(st.sampled_from(sorted(_K6.edges)),
                              min_size=1, max_size=4), max_size=8)


def _weights(bound):
    finite = dict(allow_nan=False, allow_infinity=False)
    return st.one_of(st.floats(-bound, bound, **finite),
                     st.complex_numbers(max_magnitude=bound, **finite))


@settings(max_examples=150, deadline=None)
@given(_EDGE_SETS, st.data())
def test_restricted_partition_table_equals_recursion(edge_sets, data):
    """Every entry of the Xi table equals, under ==, the recursion on the
    subset its mask picks, with the subset's loops in family order."""
    loops = _loop_family(edge_sets)
    table = {l.key: data.draw(_weights(2.0)) for l in loops}
    xi = restricted_partition(loops, table)
    assert len(xi) == 1 << len(loops)
    for mask, value in enumerate(xi):
        sub = [l for i, l in enumerate(loops) if mask >> i & 1]
        assert value == oracles.restricted_partition(sub, table)


@settings(max_examples=150, deadline=None)
@given(_EDGE_SETS, st.data())
def test_cumulant_equals_per_subset_recursion(edge_sets, data):
    """K(Gamma) from one Xi table equals, under ==, the inclusion-exclusion
    over one recursive Xi per subset.  With |Z| <= 0.05 and at most 8
    loops no Xi reaches the branch cut."""
    gamma = Cluster((l, 1) for l in _loop_family(edge_sets))
    table = {l.key: data.draw(_weights(0.05)) for l in gamma.loops}
    assert cumulant(gamma, table) == oracles.cumulant(gamma, table)


def test_restricted_partition_cap():
    g = _chain_graph(30)
    loops = [GeneralizedLoop(g, [f"e{i}"]) for i in range(25)]
    table = {l.key: 0.1 for l in loops}
    with pytest.raises(BudgetError,
                       match=r"^\|B\| = 25 exceeds restricted-partition cap"):
        restricted_partition(loops, table)


def test_cumulant_single_loop_is_log1p():
    g = _chain_graph(3)
    l = GeneralizedLoop(g, ["e0"])
    table = {l.key: 0.3 - 0.1j}
    got = cumulant(Cluster([(l, 1)]), table)
    assert abs(got - cmath.log(1 + (0.3 - 0.1j))) < 1e-15


def test_cumulant_disconnected_zero():
    g = _chain_graph(6)
    a = GeneralizedLoop(g, ["e0"])
    b = GeneralizedLoop(g, ["e4"])
    assert cumulant(Cluster([(a, 1), (b, 1)]), {a.key: 0.2, b.key: 0.3}) == 0


def test_cumulant_pair_resums_multiplicities():
    """For two incompatible loops K resums the full multiplicity series:
    K({a,b}) = log Xi(ab) - log Xi(a) - log Xi(b) with Xi hard-core."""
    g = _chain_graph(4)
    a = GeneralizedLoop(g, ["e0"])
    b = GeneralizedLoop(g, ["e0", "e1"])
    za, zb = 0.25, -0.15 + 0.05j
    table = {a.key: za, b.key: zb}
    got = cumulant(Cluster([(a, 1), (b, 1)]), table)
    want = cmath.log(1 + za + zb) - cmath.log(1 + za) - cmath.log(1 + zb)
    assert abs(got - want) < 1e-15


def test_mobius_inversion_identity():
    """sum over A <= C <= B of mu(A, C) equals delta_{A,B}, exhaustively on
    a 4-loop ground set."""
    g = _chain_graph(6)
    loops = [GeneralizedLoop(g, [f"e{i}"]) for i in range(4)]
    subs = [c for r in range(5) for c in itertools.combinations(loops, r)]
    for A in subs:
        for B in subs:
            if not set(A) <= set(B):
                continue
            total = sum(mobius_subset(A, C) for C in subs
                        if set(A) <= set(C) and set(C) <= set(B))
            assert total == (1 if A == B else 0)


def test_branch_crossing_guard():
    g = _chain_graph(3)
    l = GeneralizedLoop(g, ["e0"])
    for z in (-1.0, -2.0):
        with pytest.raises(NumericalError,
                           match="on or across the principal-branch cut$"):
            cumulant(Cluster([(l, 1)]), {l.key: z})


def test_connected_loop_subsets_match_multiplicity_free_clusters():
    """The subsets are the oracle's connected loop sets, each as a cluster
    with every multiplicity 1, sorted by (weight, key)."""
    p, tn, ms, loops, table = _ising_setup(L=3, beta=0.2, m=6)
    for anchor in (None, {"1,1"}):
        subs = connected_loop_subsets(enumerate_clusters(loops, 6, anchor))
        want = sorted((Cluster((l, 1) for l in members) for members
                       in oracles.anchored_loop_sets(loops, 6, anchor)),
                      key=lambda c: (c.weight, c.key))
        assert [s.key for s in subs] == [c.key for c in want]


def test_cumulant_form_equals_counting_number_form():
    p, tn, ms, loops, table = _ising_setup(L=4, beta=0.2, m=6)
    clusters = enumerate_clusters(loops, 6)
    f1, corr1 = cumulant_free_energy(ms, clusters, table)
    subs = connected_loop_subsets(clusters)
    f2, corr2 = counting_number_free_energy(ms, subs, table)
    assert abs(f1 - f2) < 1e-12


def test_free_energy_sums_share_one_cluster_list():
    """The cluster sum hands its cluster list to the cumulant sum; each
    sum equals its sum over an enumeration of its own, the cumulant sum
    over the multiplicity-free clusters of that enumeration."""
    p, tn, ms, loops, table = _ising_setup(L=4, beta=0.2, m=6)
    fr = free_energy_truncated(ms, loops, 6, weight_table=table)
    fresh = enumerate_clusters(loops, 6)
    assert [c.key for c in fr.clusters] == [c.key for c in fresh]
    assert fr.f_m == fr.f_bp - cluster_sums(fresh, [table])[0]
    f_cum, corr = cumulant_free_energy(ms, fr.clusters, table)
    want = 0.0 + 0j
    for s in enumerate_clusters(loops, 6):
        if all(eta == 1 for _, eta in s.members):
            want += cumulant(s, table)
    assert corr == want
    assert f_cum == -bp_log_partition(ms) - want


def test_counting_numbers_loops_telescoping():
    """By construction sum of b over supersets-or-equal of any subset is 1."""
    p, tn, ms, loops, table = _ising_setup(L=3, beta=0.2, m=6)
    subs = connected_loop_subsets(enumerate_clusters(loops, 6))
    frozen = {s.key: frozenset(s.loops) for s in subs}
    b = counting_numbers(frozen)
    for s in subs[:30]:
        total = sum(b[t.key] for t in subs if frozen[s.key] <= frozen[t.key])
        assert total == 1


def test_cumulant_free_energy_beats_bp():
    p, tn, ms, loops, table = _ising_setup(L=4, beta=0.2, m=8)
    f_exact = -ising_exact_logZ(p)
    f, corr = cumulant_free_energy(ms, enumerate_clusters(loops, 8),
                                   table)
    f_bp = f + corr
    assert abs(f - f_exact) < 1e-2 * abs(f_bp - f_exact)


# --- regions ----------------------------------------------------------------

def test_find_regions_torus_counts():
    p = IsingParams(L=4, beta=0.2)
    g = ising_network(p).graph
    poset = find_regions(g, 4)
    # level 0: every 4-vertex leafless connected induced subgraph is a
    # plaquette (16) or a winding cycle (8)
    level0 = [r for r in poset if r.level == 0]
    assert len(level0) == 24
    assert all(len(r.vertices) == 4 for r in level0)
    # plaquettes intersect pairwise in single edges/vertices, which are not
    # leafless, so no lower levels appear at k=4
    assert len(poset) == 24


def test_counting_numbers_regions_nested():
    p = IsingParams(L=4, beta=0.2)
    tg = ising_network(p).graph
    poset = find_regions(tg, 6)
    b = counting_numbers({r.key: r.vertices for r in poset})
    # every region's superset sum telescopes to 1
    for r in poset:
        total = sum(b[t.key] for t in poset if r.vertices <= t.vertices)
        assert total == 1


def test_region_partition_equals_loop_gas():
    """Xi(R) from the boundary-message contraction equals the hard-core
    loop-gas sum over loops contained in the region."""
    p, tn, ms, loops, table = _ising_setup(L=4, beta=0.2, m=8)
    poset = find_regions(tn.graph, 4)
    values = region_partition(ms, [(r, {}) for r in poset[:6]])
    for r, (_, xi) in zip(poset, values):
        inside = [l for l in loops if l.vertices <= r.vertices
                  and l.edges <= r.edges]
        want = restricted_partition(inside, table)[-1]
        assert abs(xi - want) < 1e-12


def test_region_free_energy_matches_matched_cumulants():
    """Region correction equals the sum of cumulants over connected loop
    subsets contained in some region of the poset."""
    p, tn, ms, loops, table = _ising_setup(L=4, beta=0.2, m=8)
    poset = find_regions(tn.graph, 4)
    f_r, corr_r = region_free_energy(ms, poset)
    subsets = connected_loop_subsets(enumerate_clusters(loops, 8))
    contained = [s for s in subsets
                 if any(all(l.vertices <= r.vertices and l.edges <= r.edges
                            for l in s.loops) for r in poset)]
    corr_k = sum(cumulant(s, table) for s in contained)
    assert abs(corr_r - corr_k) < 1e-12


def test_find_regions_local_anchoring():
    p = IsingParams(L=4, beta=0.2)
    g = ising_network(p).graph
    poset = find_regions(g, 5, "1,1")
    assert poset
    for r in poset:
        assert "1,1" in r.vertices
        deg = {v: sum(w in r.vertices for _, w in g.incident(v))
               for v in r.vertices}
        assert all(d >= 2 for v, d in deg.items() if v != "1,1")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2),
    st.integers(0, (1 << n) - 1))))
def test_region_is_the_subgraph_its_mask_induces(case):
    """A Region built from a vertex mask holds the vertices of its bits,
    keyed in sorted order, and every edge with both ends among them."""
    n, present, mask = case
    g = Graph(range(n), {f"{u}-{v}": (u, v) for (u, v), keep in zip(
        itertools.combinations(range(n), 2), present) if keep})
    vertices = {g.vertices[i] for i in bptn.network.set_bits(mask)}
    r = Region(g, mask, 3)
    assert (r.key, r.vertices, r.level) == (
        tuple(sorted(vertices)), vertices, 3)
    assert r.edges == {e for e, (u, v) in g.edges.items()
                       if u in vertices and v in vertices}


def _region_rows(poset):
    return [(r.key, r.level, tuple(sorted(r.edges))) for r in poset]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.one_of(st.none(), st.integers(0, n - 1)),
    st.integers(0, 6))))
def test_find_regions_matches_oracle(case):
    """The grower and the semi-naive closure give the regions,
    levels and edges of the unpruned finders, on random graphs with and
    without an anchor."""
    n, present, anchor, k = case
    g = Graph(range(n), {f"{u}-{v}": (u, v) for (u, v), keep in zip(
        itertools.combinations(range(n), 2), present) if keep})
    want = (oracles.find_regions(g, k) if anchor is None
            else oracles.find_regions_local(g, k, anchor))
    assert _region_rows(find_regions(g, k, anchor)) == _region_rows(want)


@pytest.mark.parametrize("anchor", [None, "a2"])
def test_find_regions_drops_disconnected_intersections(anchor):
    """Two triangles joined through x and through y: the two maximal sets
    that hold both triangles meet in the triangles alone, a leafless but
    disconnected set, which is no region."""
    pairs = [("a0", "a1"), ("a1", "a2"), ("a0", "a2"), ("b0", "b1"),
             ("b1", "b2"), ("b0", "b2"), ("x", "a0"), ("x", "b0"),
             ("y", "a1"), ("y", "b1")]
    g = Graph({v for p in pairs for v in p},
              {f"{u}-{v}": (u, v) for u, v in pairs})
    poset = find_regions(g, 7, anchor)
    triangles = frozenset(["a0", "a1", "a2", "b0", "b1", "b2"])
    assert triangles not in {r.vertices for r in poset}
    want = (oracles.find_regions(g, 7) if anchor is None
            else oracles.find_regions_local(g, 7, anchor))
    assert _region_rows(poset) == _region_rows(want)


@pytest.mark.parametrize("k", [6, 7])
def test_find_regions_matches_oracle_on_torus(k):
    g = ising_network(IsingParams(L=5, beta=0.2)).graph
    assert _region_rows(find_regions(g, k)) == _region_rows(
        oracles.find_regions(g, k))


@pytest.mark.parametrize("k, walked, grown", [(6, 2154, 85),
                                              (8, 17215, 810)])
def test_region_walk_visit_counts(monkeypatch, k, walked, grown):
    """On the 5x5 torus (the ``ising_free_energy`` benchmark graph) the
    region finder grows only the leafless vertex sets, 85 at k = 6 and
    810 at k = 8, where the leaf-pruned walk visited 2,154 and 17,215
    vertex subsets (and the unpruned walk 7,185 and 68,110)."""
    grower = bptn.cumulants.grown_sets
    seen = []

    def counted(*args, **kwargs):
        for new in grower(*args, **kwargs):
            seen.append(new[0])
            yield new

    monkeypatch.setattr(bptn.cumulants, "grown_sets", counted)
    g = ising_network(IsingParams(L=5, beta=0.2)).graph
    assert len(find_regions(g, k)) == {6: 85, 8: 810}[k]  # regions
    sets, visited = oracles.leaf_pruned_vertex_sets(g, k)
    assert (len(seen), sorted(seen), visited) == (grown, sorted(sets),
                                                  walked)


def test_find_regions_matches_leaf_pruned_walk_at_readme_scale():
    """On the 6x6 torus at k = 9 the grower finds the 2,136 leafless
    vertex sets of the leaf-pruned walk, and the maximal ones are level 0
    of the poset."""
    g = ising_network(IsingParams(L=6, beta=0.2)).graph
    masks = sorted(oracles.leaf_pruned_vertex_sets(g, 9)[0])
    assert len(masks) == 2136
    assert sorted(mask for mask, _ in bptn.network.grown_sets(
        g, 9, by_vertex=True)) == masks
    sets = [frozenset(g.vertices[i] for i in bptn.network.set_bits(mask))
            for mask in masks]
    maximal = sorted(tuple(sorted(s)) for s in sets
                     if not any(s < t for t in sets))
    assert [r.key for r in find_regions(g, 9) if r.level == 0] == maximal


def test_region_walk_budget(monkeypatch, capsys):
    """The region finder stops at the budget, and ``bptn regions`` exits 4.
    At k = 6 the 4x4 torus has 152 leafless vertex sets, 79 of them
    holding 0,0 with only 0,0 a leaf (at k = 4 only 24 and 7)."""
    monkeypatch.setattr(bptn.cumulants, "DEFAULT_BUDGET", 50)
    g = ising_network(IsingParams(L=4, beta=0.2)).graph
    with pytest.raises(BudgetError,
                       match="vertex-subset enumeration exceeded budget 50"):
        find_regions(g, 6)
    with pytest.raises(BudgetError,
                       match="vertex-subset enumeration exceeded budget 50"):
        find_regions(g, 6, "0,0")
    assert main(["regions", "--generate", "ising:L=4,beta=0.2",
                 "-k", "6"]) == 4
    capsys.readouterr()


# --- one cycle search per graph ----------------------------------------------

def _walk_graph(name):
    """(graph, anchor, terminals) for the cycle-sharing tests."""
    if name == "K6":
        return _K6, "2", ("1", "4")
    if name == "peps4":
        return random_peps(4, 4).graph, "1,1", ("1,2", "2,1")
    g = ising_network(IsingParams(L=int(name[-1]), beta=0.2)).graph
    return g, "1,1", ("1,2", "3,0")


def _walks(g, m, k, anchor, terminals):
    """Each walk on ``g`` by name: the loops, the strings at
    ``terminals``, the vertex sets grown with and without ``anchor``, and
    the regions with and without it, each in a form that compares by
    value."""
    def vertex_sets(anchor):
        return sorted(vm for vm, _ in bptn.network.grown_sets(
            g, k, anchor=anchor, by_vertex=True))

    return {
        "loops": lambda: [l.key for l in enumerate_loops(g, m)],
        "strings": lambda: [l.key for l in enumerate_strings(
            g, terminals, m)],
        "vertex sets": lambda: vertex_sets(None),
        "anchored sets": lambda: vertex_sets(anchor),
        "regions": lambda: _region_rows(find_regions(g, k)),
        "anchored regions": lambda: _region_rows(find_regions(g, k, anchor)),
    }


@pytest.mark.parametrize("name, m, k", [
    *[(f"torus{L}", m, k) for L in (4, 5)
      for m, k in ((6, 6), (4, 6), (8, 4))],
    ("peps4", 6, 6), ("K6", 6, 6), ("K6", 4, 6), ("K6", 6, 4)])
def test_walks_on_one_graph_match_fresh_graphs(name, m, k):
    """The first complete walk without terminals on a graph keeps its
    simple cycles, and every later walk of no larger size grows from them
    instead of searching again.  Whatever the order of the walks, each
    gives what it gives on a graph of its own, and that equals the
    leaf-pruned walks.  K6 has a chord at every pair."""
    g, anchor, terminals = _walk_graph(name)

    def fresh():
        return Graph(g.vertices, g.edges)

    want = {walk: run() for walk, run in _walks(
        fresh(), m, k, anchor, terminals).items()}
    for walk in want:  # each on a graph of its own
        assert _walks(fresh(), m, k, anchor, terminals)[walk]() == want[walk]
    assert want["loops"] == oracles.leaf_pruned_strings(g, (), m)[0]
    assert want["strings"] == oracles.leaf_pruned_strings(g, terminals, m)[0]
    assert want["vertex sets"] == sorted(
        oracles.leaf_pruned_vertex_sets(g, k)[0])
    assert want["anchored sets"] == sorted(
        oracles.leaf_pruned_vertex_sets(g, k, anchor)[0])
    for order in (list(want), list(reversed(want)),
                  ["regions", "strings", "loops", "anchored regions",
                   "anchored sets", "vertex sets"]):
        shared = fresh()
        walks = _walks(shared, m, k, anchor, terminals)
        assert {walk: walks[walk]() for walk in order} == want
        assert shared._cycles[0] == max(m, k)


def test_a_walk_the_budget_stops_keeps_no_cycles(monkeypatch):
    """Only a complete walk keeps its cycles: after the loop and region
    walks on the 5x5 torus stop at a budget of 50 (of 85 sets each), the
    graph holds none, and the next walks find every loop and region."""
    g = ising_network(IsingParams(L=5, beta=0.2)).graph
    fresh = Graph(g.vertices, g.edges)
    want = [l.key for l in enumerate_loops(fresh, 6)], _region_rows(
        find_regions(fresh, 6))
    monkeypatch.setattr(bptn.loops, "DEFAULT_ENUM_BUDGET", 50)
    monkeypatch.setattr(bptn.cumulants, "DEFAULT_BUDGET", 50)
    with pytest.raises(BudgetError,
                       match="edge-subset enumeration exceeded budget 50"):
        enumerate_loops(g, 6)
    with pytest.raises(BudgetError,
                       match="vertex-subset enumeration exceeded budget 50"):
        find_regions(g, 6)
    assert g._cycles[0] == 0
    monkeypatch.undo()
    assert _region_rows(find_regions(g, 6)) == want[1]
    assert g._cycles[0] == 6 and len(g._cycles[1]) == 85
    assert [l.key for l in enumerate_loops(g, 6)] == want[0]


def _superset_counting_numbers(poset):
    """The definition: b(x) = 1 - sum of b over the strict supersets of x,
    the largest first, on the member sets as frozensets."""
    order = sorted(poset, key=lambda k: (-len(poset[k]), k))
    b = {}
    for i, k in enumerate(order):
        b[k] = 1 - sum(b[k2] for k2 in order[:i] if poset[k] < poset[k2])
    return b


@pytest.mark.parametrize("L, k, anchor", [
    (4, 4, None), (4, 6, None), (4, 8, None), (5, 6, None), (5, 8, None),
    ("peps", 4, "1,1"), ("peps", 6, "1,1"), ("peps", 8, "1,1")])
def test_counting_numbers_match_their_definition_on_regions(L, k, anchor):
    """The mask form of the counting numbers equals the superset sum over
    frozensets on the region posets of the tori and of an anchored 4x4
    PEPS."""
    g = (random_peps(4, 4) if L == "peps"
         else ising_network(IsingParams(L=L, beta=0.2))).graph
    poset = {r.key: r.vertices for r in find_regions(g, k, anchor)}
    assert counting_numbers(poset) == _superset_counting_numbers(poset)


def test_counting_numbers_match_their_definition_on_loop_subsets():
    """Members need not be vertices: on the loop-subset poset of the 3x3
    torus at m = 6 the members are loops."""
    _, _, _, loops, _ = _ising_setup(L=3, beta=0.2, m=6)
    poset = {s.key: frozenset(s.loops) for s in connected_loop_subsets(
        enumerate_clusters(loops, 6))}
    assert len(poset) > 100
    assert counting_numbers(poset) == _superset_counting_numbers(poset)
