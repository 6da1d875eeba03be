import cmath
import itertools
import math

import numpy as np
import pytest

from bptn.clusters import (Cluster, enumerate_clusters, free_energy_truncated,
                           ursell)
from bptn.cumulants import (LoopSubset, Region, connected_loop_subsets,
                            counting_number_free_energy, counting_numbers,
                            cumulant, cumulant_free_energy, find_regions,
                            find_regions_local, mobius_subset,
                            region_free_energy, region_partition,
                            restricted_partition)
from bptn.errors import BranchCrossing, CapExceeded
from bptn.loops import GeneralizedLoop, enumerate_loops, evaluate_weights
from bptn.models import (IsingParams, ising_exact_logZ, ising_network,
                         ising_paramagnetic_messages)
from bptn.network import Graph


def _chain_graph(n):
    verts = [f"v{i}" for i in range(n)]
    edges = {f"e{i}": (verts[i], verts[i + 1]) for i in range(n - 1)}
    return Graph(verts, edges)


def _ising_setup(L=4, beta=0.2, m=8):
    p = IsingParams(L=L, beta=beta)
    tn = ising_network(p)
    ms = ising_paramagnetic_messages(p, tn)
    loops = enumerate_loops(tn.graph, m)
    table = {w.loop.key: w.value for w in evaluate_weights(tn, ms, loops)}
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
    got = restricted_partition(LoopSubset(loops), table)
    assert abs(got - want) < 1e-14


def test_restricted_partition_cap():
    g = _chain_graph(30)
    loops = [GeneralizedLoop(g, [f"e{i}"]) for i in range(25)]
    table = {l.key: 0.1 for l in loops}
    with pytest.raises(CapExceeded):
        restricted_partition(LoopSubset(loops), table)


def test_cumulant_single_loop_is_log1p():
    g = _chain_graph(3)
    l = GeneralizedLoop(g, ["e0"])
    table = {l.key: 0.3 - 0.1j}
    got = cumulant(LoopSubset([l]), table)
    assert abs(got - cmath.log(1 + (0.3 - 0.1j))) < 1e-15


def test_cumulant_disconnected_zero():
    g = _chain_graph(6)
    a = GeneralizedLoop(g, ["e0"])
    b = GeneralizedLoop(g, ["e4"])
    assert cumulant(LoopSubset([a, b]), {a.key: 0.2, b.key: 0.3}) == 0


def test_cumulant_pair_resums_multiplicities():
    """For two incompatible loops K resums the full multiplicity series:
    K({a,b}) = log Xi(ab) - log Xi(a) - log Xi(b) with Xi hard-core."""
    g = _chain_graph(4)
    a = GeneralizedLoop(g, ["e0"])
    b = GeneralizedLoop(g, ["e0", "e1"])
    za, zb = 0.25, -0.15 + 0.05j
    table = {a.key: za, b.key: zb}
    got = cumulant(LoopSubset([a, b]), table)
    want = cmath.log(1 + za + zb) - cmath.log(1 + za) - cmath.log(1 + zb)
    assert abs(got - want) < 1e-15


def test_mobius_inversion_identity():
    """sum over A <= C <= B of mu(A, C) equals delta_{A,B}, exhaustively on
    a 4-loop ground set."""
    g = _chain_graph(6)
    loops = [GeneralizedLoop(g, [f"e{i}"]) for i in range(4)]
    subs = [LoopSubset(c) for r in range(5)
            for c in itertools.combinations(loops, r)]
    for A in subs:
        for B in subs:
            if not set(A.loops) <= set(B.loops):
                continue
            total = sum(mobius_subset(A, C) for C in subs
                        if set(A.loops) <= set(C.loops)
                        and set(C.loops) <= set(B.loops))
            assert total == (1 if A.key == B.key else 0)


def test_branch_crossing_guard():
    g = _chain_graph(3)
    l = GeneralizedLoop(g, ["e0"])
    with pytest.raises(BranchCrossing):
        cumulant(LoopSubset([l]), {l.key: -1.0})
    with pytest.raises(BranchCrossing):
        cumulant(LoopSubset([l]), {l.key: -2.0})


def test_connected_loop_subsets_match_multiplicity_free_clusters():
    p, tn, ms, loops, table = _ising_setup(L=3, beta=0.2, m=6)
    subs = connected_loop_subsets(loops, 6)
    keys = {s.key for s in subs}
    assert len(keys) == len(subs)
    # same family as clusters with all multiplicities equal to one
    mult_free = {tuple(l for l, _ in c.members)
                 for c in enumerate_clusters(loops, 6)
                 if all(eta == 1 for _, eta in c.members)}
    assert keys == {tuple(l.key for l in fam) for fam in mult_free}


def test_cumulant_form_equals_counting_number_form():
    p, tn, ms, loops, table = _ising_setup(L=4, beta=0.2, m=6)
    f1, corr1, subs = cumulant_free_energy(tn, ms, loops, 6, table)
    f2, corr2 = counting_number_free_energy(tn, ms, subs, table)
    assert abs(f1 - f2) < 1e-12


def test_counting_numbers_loops_telescoping():
    """By construction sum of b over supersets-or-equal of any subset is 1."""
    p, tn, ms, loops, table = _ising_setup(L=3, beta=0.2, m=6)
    subs = connected_loop_subsets(loops, 6)
    frozen = {s.key: frozenset(s.loops) for s in subs}
    b = counting_numbers(frozen)
    for s in subs[:30]:
        total = sum(b[t.key] for t in subs if frozen[s.key] <= frozen[t.key])
        assert total == 1


def test_cumulant_free_energy_beats_bp():
    p, tn, ms, loops, table = _ising_setup(L=4, beta=0.2, m=8)
    f_exact = -ising_exact_logZ(p)
    f, corr, _ = cumulant_free_energy(tn, ms, loops, 8, table)
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
    g = _chain_graph(1)  # unused; construct regions on a torus instead
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
    for r in poset[:6]:
        _, xi = region_partition(tn, ms, r)
        inside = [l for l in loops if l.vertices <= r.vertices
                  and l.edges <= r.edges]
        want = restricted_partition(LoopSubset(inside), table)
        assert abs(xi - want) < 1e-12


def test_region_free_energy_matches_matched_cumulants():
    """Region correction equals the sum of cumulants over connected loop
    subsets contained in some region of the poset."""
    p, tn, ms, loops, table = _ising_setup(L=4, beta=0.2, m=8)
    poset = find_regions(tn.graph, 4)
    f_r, corr_r = region_free_energy(tn, ms, poset)
    contained = [s for s in connected_loop_subsets(loops, 8)
                 if any(all(l.vertices <= r.vertices and l.edges <= r.edges
                            for l in s.loops) for r in poset)]
    corr_k = sum(cumulant(s, table) for s in contained)
    assert abs(corr_r - corr_k) < 1e-12


def test_find_regions_local_anchoring():
    p = IsingParams(L=4, beta=0.2)
    g = ising_network(p).graph
    poset = find_regions_local(g, 5, "1,1")
    assert poset
    for r in poset:
        assert "1,1" in r.vertices
        from bptn.cumulants import _induced_degrees

        deg = _induced_degrees(g, r.vertices)
        assert all(d >= 2 for v, d in deg.items() if v != "1,1")
