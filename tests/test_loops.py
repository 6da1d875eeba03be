import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bptn.loops
import oracles
from bptn.bp import bp_iterate, bp_log_partition, uniform_messages
from bptn.errors import BudgetError
from bptn.loops import (GeneralizedLoop, connected_edge_subsets,
                        enumerate_loops, enumerate_strings,
                        evaluate_weights, loop_decay_profile)
from bptn.models import (IsingParams, ising_network,
                         ising_paramagnetic_messages, random_peps,
                         random_tree_network, single_loop_network)
from bptn.network import Graph, exact_contract


def brute_force_connected_subsets(g, max_weight):
    """Oracle: scan all edge subsets, keep connected ones."""
    edges = sorted(g.edges)
    out = set()
    for r in range(1, max_weight + 1):
        for combo in itertools.combinations(edges, r):
            # connectivity via union-find over touched vertices
            verts = {}
            for e in combo:
                u, v = g.edges[e]
                verts.setdefault(u, u)
                verts.setdefault(v, v)

            def find(x):
                while verts[x] != x:
                    verts[x] = verts[verts[x]]
                    x = verts[x]
                return x

            for e in combo:
                u, v = g.edges[e]
                verts[find(u)] = find(v)
            roots = {find(x) for x in verts}
            if len(roots) == 1:
                out.add(frozenset(combo))
    return out


def test_connected_subsets_exactly_once_vs_brute_force():
    """The grower yields each brute-force string once and nothing else;
    with and without terminals."""
    g = ising_network(IsingParams(L=3, beta=0.2)).graph
    connected = brute_force_connected_subsets(g, 5)
    for terminals in (frozenset(), frozenset({"0,0", "1,2"})):
        got = [frozenset(edges) for edges
               in connected_edge_subsets(g, 5, terminals)]
        assert len(got) == len(set(got)), "duplicates emitted"
        assert set(got) == {s for s in connected if all(
            d >= 2 or v in terminals
            for v, d in oracles.degree_map(g, s).items())}


@pytest.mark.parametrize("graph, terminals, m, walked, strings", [
    (ising_network(IsingParams(L=5, beta=0.2)).graph, frozenset(), 6,
     6012, 85),
    (random_peps(5, 5, D=2, seed=0).graph, frozenset({"2,2"}), 7,
     3897, 116),
])
def test_leaf_prune_visit_counts(graph, terminals, m, walked, strings):
    """On the benchmark graphs (the ``ising_free_energy`` loops and the
    ``peps_expval`` strings) the grower yields only the 85 and 116
    strings, where the leaf-pruned walk visited 6,012 and 3,897 subsets
    (and the unpruned walk 52,360 and 46,665)."""
    grown = list(connected_edge_subsets(graph, m, terminals))
    assert len(grown) == len(set(grown)) == strings
    want, visited = oracles.leaf_pruned_strings(graph, terminals, m)
    assert (sorted(grown, key=lambda key: (len(key), key)), visited) == (
        want, walked)


@pytest.mark.parametrize("L, terminals, m, strings", [
    (4, (), 8, 1184),   # README ``free-energy``
    (6, (), 10, 7788),
    (5, ("2,2",), 7, 116),  # the PEPS strings, on the 5x5 grid
], ids=["4x4-m8", "6x6-m10", "peps-5x5-m7"])
def test_strings_match_leaf_pruned_walk_at_readme_scale(L, terminals, m,
                                                        strings):
    """Loops on the L x L torus and PEPS strings grown from cycles and
    terminals are the strings the leaf-pruned walk finds, in order."""
    g = (random_peps(L, L, D=2, seed=0) if terminals
         else ising_network(IsingParams(L=L, beta=0.2))).graph
    got = [l.key for l in enumerate_strings(g, terminals, m)]
    assert len(got) == strings
    assert got == oracles.leaf_pruned_strings(g, terminals, m)[0]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.booleans(), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.lists(st.integers(0, 2), min_size=n, max_size=n),
    st.integers(0, 2),
    st.integers(0, 7))))
def test_strings_match_unpruned_enumeration(case):
    """The grower finds the strings the unpruned degree filter
    finds, on random graphs with the terminals of up to two regions."""
    present, labels, n_regions, m = case
    n = len(labels)
    g = Graph(range(n), {f"{u}-{v}": (u, v) for (u, v), keep in zip(
        itertools.combinations(range(n), 2), present) if keep})
    terminals = {v for v in range(n) if 0 < labels[v] <= n_regions}
    assert [l.key for l in enumerate_strings(g, terminals, m)] == [
        l.key for l in oracles.enumerate_strings(g, terminals, m)]


def test_enumerate_loops_min_degree_two():
    p = IsingParams(L=4, beta=0.2)
    g = ising_network(p).graph
    loops = enumerate_loops(g, 4)
    # weight-4 loops on the 4x4 torus: 16 plaquettes + 8 winding cycles
    assert len(loops) == 24
    assert all(l.weight == 4 for l in loops)
    # against the brute-force degree filter
    want = {s for s in brute_force_connected_subsets(g, 4)
            if all(d >= 2 for d in oracles.degree_map(g, s).values())}
    assert {l.edges for l in loops} == want


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr(bptn.loops, "DEFAULT_ENUM_BUDGET", 100)
    p = IsingParams(L=4, beta=0.2)
    g = ising_network(p).graph
    with pytest.raises(BudgetError,
                       match="edge-subset enumeration exceeded budget 100"):
        list(connected_edge_subsets(g, 8))


def test_tree_has_no_loops():
    tn = random_tree_network(10, D=2, seed=0)
    assert enumerate_loops(tn.graph, 10) == []


def test_single_loop_network_has_one_loop():
    tn = single_loop_network(6)
    loops = enumerate_loops(tn.graph, 6)
    assert len(loops) == 1 and loops[0].weight == 6


def test_single_loop_weight_is_exact_correction():
    tn = single_loop_network(6, seed=2)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
    assert res.converged
    (loop,) = enumerate_loops(tn.graph, 6)
    zl = evaluate_weights(res.messages, [loop])[loop.key]
    z = exact_contract(tn)
    z_bp = np.exp(bp_log_partition(res.messages))
    assert abs(z / z_bp - (1 + zl)) < 1e-12


def test_plaquette_weight_tanh_oracle():
    """Ising plaquette weight at the symmetric point is tanh(beta)^4."""
    p = IsingParams(L=4, beta=0.2)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    loops = enumerate_loops(tn.graph, 4)
    for w in evaluate_weights(ms, loops).values():
        assert abs(w - math.tanh(0.2) ** 4) < 1e-14


def test_open_strings_vanish_without_insertion():
    p = IsingParams(L=4, beta=0.2)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    strings = enumerate_strings(tn.graph, {"0,0", "2,2"}, 5)
    opens = [s for s in strings if any(
        d < 2 for d in oracles.degree_map(tn.graph, s.edges).values())]
    assert opens, "expected open strings in scope"
    for w in evaluate_weights(ms, opens[:40]).values():
        assert abs(w) < 1e-13


def test_enumerate_strings_includes_closed_loops():
    p = IsingParams(L=4, beta=0.2)
    g = ising_network(p).graph
    strings = enumerate_strings(g, {"0,0"}, 4)
    closed = [s for s in strings if all(
        d >= 2 for d in oracles.degree_map(g, s.edges).values())]
    assert {s.edges for s in closed} == {l.edges
                                         for l in enumerate_loops(g, 4)}


def test_weight_locality_matches_global_contraction():
    """Support-local weight equals the full-network projected contraction."""
    tn = single_loop_network(5, seed=4)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
    (loop,) = enumerate_loops(tn.graph, 5)
    local = evaluate_weights(res.messages, [loop])[loop.key]
    # global: on the single loop the support is the whole network, so the
    # locally computed value must reproduce Z/Z_BP - 1
    z = exact_contract(tn)
    z_bp = np.exp(bp_log_partition(res.messages))
    assert abs(local - (z / z_bp - 1)) < 1e-12


def test_loop_decay_profile_analytic():
    p = IsingParams(L=4, beta=0.2)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    loops = enumerate_loops(tn.graph, 6)
    rows, notes = loop_decay_profile(evaluate_weights(ms, loops))
    c_expected = -math.log(math.tanh(0.2))
    for row in rows:
        assert row["parity"] == "even"
        assert abs(row["c_estimate"] - c_expected) < 1e-10
