import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bptn.clusters
import oracles
from bptn.bp import bp_log_partition
from bptn.clusters import (Cluster, FreeEnergyResult, anchored_loop_sets,
                           cluster_value, enumerate_clusters,
                           free_energy_truncated, interaction_graph,
                           loops_overlap, ursell)
from bptn.errors import CapExceeded, CombinatorialBudgetExceeded
from bptn.loops import GeneralizedLoop, enumerate_loops, evaluate_weights
from bptn.models import (IsingParams, ising_exact_logZ, ising_network,
                         ising_paramagnetic_messages)
from bptn.network import Graph


def _chain_graph(n):
    verts = [f"v{i}" for i in range(n)]
    edges = {f"e{i}": (verts[i], verts[i + 1]) for i in range(n - 1)}
    return Graph(verts, edges), verts, edges


def _loop_on(g, edges):
    return GeneralizedLoop(g, edges)


def test_ursell_single_loop_multiplicity():
    """phi of eta copies of one loop is (-1)^(eta+1)/eta."""
    g, _, _ = _chain_graph(3)
    l = _loop_on(g, ["e0"])
    for eta in range(1, 7):
        c = Cluster([(l, eta)])
        assert ursell(c) == Fraction((-1) ** (eta + 1), eta)


def test_ursell_incompatible_pair():
    """Two distinct overlapping loops: phi = -1."""
    g, _, _ = _chain_graph(3)
    a = _loop_on(g, ["e0"])
    b = _loop_on(g, ["e0", "e1"])
    assert loops_overlap(a, b)
    assert ursell(Cluster([(a, 1), (b, 1)])) == Fraction(-1)


def test_ursell_disconnected_is_zero():
    g, _, _ = _chain_graph(5)
    a = _loop_on(g, ["e0"])
    b = _loop_on(g, ["e3"])
    assert not loops_overlap(a, b)
    c = Cluster([(a, 1), (b, 1)])
    assert ursell(c) == 0


def _ursell_brute(cluster):
    """Oracle: (1/prod eta!) sum over connected spanning edge subsets of
    the interaction graph of (-1)^|C|, by direct edge-subset scan."""
    n, adj = interaction_graph(cluster)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)
             if adj[a] & (1 << b)]
    total = 0
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            # spanning + connected on n nodes
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in combo:
                parent[find(a)] = find(b)
            if len({find(i) for i in range(n)}) == 1:
                total += (-1) ** r
    denom = 1
    for _, eta in cluster.members:
        denom *= math.factorial(eta)
    return Fraction(total, denom)


def test_ursell_vs_brute_force_edge_scan():
    """Check the subset-convolution recursion against the defining sum for
    assorted small clusters on a chain."""
    g, _, _ = _chain_graph(6)
    a = _loop_on(g, ["e0"])
    b = _loop_on(g, ["e0", "e1"])
    c = _loop_on(g, ["e1", "e2"])
    d = _loop_on(g, ["e2", "e3"])
    cases = [
        Cluster([(a, 2), (b, 1)]),
        Cluster([(a, 1), (b, 1), (c, 1)]),
        Cluster([(b, 2), (c, 1)]),
        Cluster([(a, 1), (b, 2), (c, 1)]),
        Cluster([(b, 1), (c, 1), (d, 1)]),
        Cluster([(a, 3)]),
        Cluster([(b, 1), (c, 2), (d, 1)]),
        # disconnected: the defining sum is empty
        Cluster([(a, 1), (d, 1)]),
        Cluster([(a, 2), (d, 1)]),
    ]
    for cl in cases:
        assert ursell(cl) == _ursell_brute(cl), cl


def test_ursell_cap(monkeypatch):
    g, _, _ = _chain_graph(3)
    l = _loop_on(g, ["e0"])
    with pytest.raises(CapExceeded):
        ursell(Cluster([(l, 9)]))
    monkeypatch.setattr(bptn.clusters, "DEFAULT_URSELL_CAP", 9)
    assert ursell(Cluster([(l, 9)])) == Fraction(1, 9)


def test_enumerate_clusters_vs_brute_force():
    """Every connected multiset within the weight budget appears exactly
    once; disconnected or over-budget ones do not."""
    p = IsingParams(L=3, beta=0.2)
    g = ising_network(p).graph
    loops = enumerate_loops(g, 4)
    m = 8
    got = enumerate_clusters(loops, m)
    keys = [c.key for c in got]
    assert len(keys) == len(set(keys)), "duplicate clusters"
    # brute force over multisets with <= 2 distinct loops is enough at m=8
    want = set()
    for i, a in enumerate(loops):
        for ea in range(1, m // a.weight + 1):
            if ea * a.weight <= m:
                want.add(Cluster([(a, ea)]).key)
            for j in range(i + 1, len(loops)):
                b = loops[j]
                if not loops_overlap(a, b):
                    continue
                for eb in range(1, m + 1):
                    if ea * a.weight + eb * b.weight <= m:
                        want.add(Cluster([(a, ea), (b, eb)]).key)
    # triples would need weight >= 12 > m, so the brute-force set is complete
    assert set(keys) == want


def test_enumerate_clusters_anchor_filter():
    p = IsingParams(L=4, beta=0.2)
    g = ising_network(p).graph
    loops = enumerate_loops(g, 6)
    anchored = enumerate_clusters(loops, 6, anchor={"0,0"})
    full = enumerate_clusters(loops, 6)
    assert {c.key for c in anchored} == {
        c.key for c in full if c.support & {"0,0"}}
    assert 0 < len(anchored) < len(full)


def test_enumerate_clusters_budget(monkeypatch):
    p = IsingParams(L=4, beta=0.2)
    g = ising_network(p).graph
    loops = enumerate_loops(g, 8)
    monkeypatch.setattr(bptn.clusters, "DEFAULT_CLUSTER_BUDGET", 10)
    with pytest.raises(CombinatorialBudgetExceeded,
                       match="cluster enumeration exceeded budget 10"):
        enumerate_clusters(loops, 8)


def test_cluster_value_multiplicity():
    g, _, _ = _chain_graph(3)
    a = _loop_on(g, ["e0"])
    b = _loop_on(g, ["e0", "e1"])
    table = {a.key: 2.0 + 0j, b.key: -0.5 + 0j}
    c = Cluster([(a, 2), (b, 1)])
    assert cluster_value(c, table) == (2.0 ** 2) * (-0.5)


def test_free_energy_converges_to_exact_ising():
    """Truncated series approaches the exact log partition function."""
    p = IsingParams(L=4, beta=0.2)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    loops = enumerate_loops(tn.graph, 8)
    weights = evaluate_weights(ms, loops)
    f_exact = -ising_exact_logZ(p)
    errs = []
    for m in (4, 6, 8):
        res = free_energy_truncated(ms, loops, m, weight_table=weights)
        errs.append(abs(res.f_m - f_exact) / abs(f_exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-5


def test_free_energy_per_order_accounting():
    p = IsingParams(L=3, beta=0.25)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    loops = enumerate_loops(tn.graph, 6)
    table = evaluate_weights(ms, loops)
    res = free_energy_truncated(ms, loops, 6, weight_table=table)
    assert res.f_bp == -bp_log_partition(ms)


_K6 = Graph(range(6), {f"{u}-{v}": (u, v)
                       for u, v in itertools.combinations(range(6), 2)})


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.sampled_from(sorted(_K6.edges)), min_size=1,
                        max_size=4), max_size=10),
       st.integers(0, 12),
       st.none() | st.sets(st.sampled_from(_K6.vertices), max_size=2))
def test_pruned_overlap_graph_gives_the_all_pairs_sets(edge_sets, m, anchor):
    """Joining only the overlapping loops whose weights sum to at most m
    leaves the family of connected loop sets of weight <= m unchanged,
    with and without an anchor."""
    loops = list({GeneralizedLoop(_K6, edges) for edges in edge_sets})

    def family(sets):
        return sorted(tuple(l.key for l in members) for members in sets)

    assert family(anchored_loop_sets(loops, m, anchor)) == family(
        oracles.anchored_loop_sets(loops, m, anchor))
