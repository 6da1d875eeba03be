"""Dressed-tensor weights and regions against the piece lists they replace,
and the bulk contractions against the per-call ones.

The reference builds the full piece list of a support -- its site tensors,
mu/sqrt(I) on every boundary leg, and (for loops) the edge projectors --
and contracts it with one np.einsum call, independent of the contraction
kernel and of the dressed-tensor cache.  The per-call oracle
(``tests/oracles.py``) contracts one dressed tensor, one weight and one
region at a time with ``np.tensordot``; the bulk path must equal it bit
for bit.  A weight's support is listed in the order of a walk along its
loop; the oracle lists it so too, and the sorted order the walk replaced
stays within 1e-12 of it.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bptn.cumulants
import bptn.loops
import bptn.tensor
import oracles
from bptn.bp import (bp_iterate, local_factors, random_messages,
                     uniform_messages)
from bptn.cli import main
from bptn.cumulants import find_regions, region_partition
from bptn.errors import BudgetError
from bptn.loops import (GeneralizedLoop, enumerate_loops, evaluate_weights,
                        excitation_weight)
from bptn.models import (IsingParams, ising_insertion, ising_network,
                         random_peps)
from bptn.network import (Graph, TensorNetwork, build_norm_network,
                          peps_replacements)
from bptn.observables import InsertionProblem
from bptn.tensor import DenseTensor
from oracles import degree_map, edge_projector, relabel, scale
from test_bp_sweep import CASES

_SZ = np.diag([1.0, -1.0])
REL = 1e-12


def _einsum(pieces) -> complex:
    labels = {}
    args = []
    for p in pieces:
        args += [p.data, [labels.setdefault(i, len(labels))
                          for i in p.leg_ids]]
    assert len(labels) <= 52, "einsum's sublist form takes 52 labels"
    return complex(np.einsum(*args, [], optimize="greedy"))


def _reference_weight(tn, messages, loop, factors) -> complex:
    """Site tensors with legs split per endpoint, mu/sqrt(I) on the
    boundary, a projector on every loop edge."""
    g = tn.graph
    pieces = []
    for v in sorted(loop.vertices):
        pieces.append(relabel(tn.tensors[v],
                              {e: f"{e}@{v}" for (e, _) in g.incident(v)}))
        for (e, n) in g.incident(v):
            if e not in loop.edges:
                into = relabel(oracles.message(messages, n, v),
                               {e: f"{e}@{v}"})
                pieces.append(scale(into,
                                    1.0 / oracles.sqrt_inner(messages, e)))
    pieces += [edge_projector(messages, e) for e in loop.edges]
    denom = np.prod([factors[v] for v in loop.vertices])
    return _einsum(pieces) / denom


def _reference_region(tn, messages, R, replacements) -> complex:
    """Site tensors (or replacements) with mu/sqrt(I) on the boundary."""
    pieces = []
    for v in sorted(R.vertices):
        pieces.append(replacements.get(v, tn.tensors[v]))
        for (e, n) in tn.graph.incident(v):
            if n not in R.vertices:
                pieces.append(scale(oracles.message(messages, n, v),
                                    1.0 / oracles.sqrt_inner(messages, e)))
    return _einsum(pieces)


def _close(got, want):
    return abs(got - want) <= REL * abs(want)


def _decorated(prob, inserted):
    """The network with the tensors of the ``inserted`` regions replaced."""
    return prob.base.replace_tensors(
        {r: prob.replacements[r] for r in inserted})


@pytest.fixture(scope="module")
def ising_field():
    p = IsingParams(L=4, beta=0.3, h=0.2)
    tn = ising_network(p)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
    assert res.converged
    return p, tn, res.messages


@pytest.fixture(scope="module")
def peps33():
    peps = random_peps(3, 3, D=2, perturbation=0.3, seed=5)
    tn = build_norm_network(peps)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
    assert res.converged
    return peps, tn, res.messages


def test_weights_match_reference_ising_field(ising_field):
    _, tn, ms = ising_field
    loops = enumerate_loops(tn.graph, 6)
    assert len(loops) == 152
    table = evaluate_weights(ms, loops)
    for loop in loops:
        got = table[loop.key]
        want = _reference_weight(
            tn, ms, loop, local_factors(ms, loop.vertices))
        assert want != 0 and _close(got, want), loop


def test_weights_match_reference_peps_norm(peps33):
    _, tn, ms = peps33
    loops = enumerate_loops(tn.graph, 12)  # every loop of the 3x3 grid
    assert len(loops) == 42
    table = evaluate_weights(ms, loops)
    for loop in loops:
        got = table[loop.key]
        want = _reference_weight(
            tn, ms, loop, local_factors(ms, loop.vertices))
        assert want != 0 and _close(got, want), loop


def test_bar_weights_on_decorated_networks_match_reference(peps33):
    """Decorated networks share the messages but swap one site tensor;
    the dressed cache must keep their entries apart.  Undecorated and
    decorated weights are asked for in alternation, one loop per
    ``weigh`` call."""
    peps, tn, ms = peps33
    repl = peps_replacements(peps, {"0,1": _SZ})
    prob = InsertionProblem(ms, repl)
    (rid,) = prob.region_ids
    strings = prob.strings(6)
    decorated = [l for l in strings if rid in l.vertices]
    assert decorated and len(decorated) < len(strings)
    open_strings = {l for l in strings
             if min(degree_map(prob.base.graph, l.edges).values()) < 2}
    assert open_strings
    for loop in strings:
        prob.weigh([loop])
        fac = local_factors(prob.messages, loop.vertices)
        for inserted in ({frozenset()} | ({frozenset([rid])}
                                           if loop in decorated else set())):
            got = prob.bar_weight(loop, inserted)
            want = _reference_weight(_decorated(prob, inserted),
                                     prob.messages, loop, fac)
            if loop in open_strings and not inserted:
                # a leaf without its insertion vanishes at the fixed point
                assert abs(got) < 1e-12 and abs(want) < 1e-12
            else:
                assert want != 0 and _close(got, want), (loop, inserted)


def test_region_partition_matches_reference(ising_field):
    _, tn, ms = ising_field
    poset = find_regions(tn.graph, 6)
    assert poset
    values = region_partition(ms, [(R, {}) for R in poset])
    for R, (raw, xi) in zip(poset, values):
        want = _reference_region(tn, ms, R, {})
        denom = np.prod(list(local_factors(ms, R.vertices).values()))
        assert _close(raw, want) and _close(xi, want / denom), R


def test_region_partition_with_replacements_matches_reference(ising_field):
    p, tn, ms = ising_field
    site = "1,1"
    repl = ising_insertion(tn, p, {site: _SZ})
    poset = find_regions(tn.graph, 5, site)
    assert len(poset) > 1
    jobs = [(R, replacements) for R in poset for replacements in ({}, repl)]
    for (R, replacements), (raw, _) in zip(
            jobs, region_partition(ms, jobs)):
        want = _reference_region(tn, ms, R, replacements)
        assert _close(raw, want), (R, replacements)


def _prefix_network():
    """Two triangles a-b-c and b-c-d on the edge b-c, with edge ids that
    are prefixes of one another and bond dimensions 2 and 3: at b the loop
    legs e1 and e10 sort as 'e10@b' < 'e1@b', the other way round."""
    edges = {"e1": ("a", "b"), "e10": ("b", "c"), "e2": ("c", "a"),
             "e11": ("b", "d"), "e3": ("d", "c")}
    dims = {"e1": 2, "e10": 3, "e2": 2, "e11": 2, "e3": 3}
    g = Graph(["a", "b", "c", "d"], edges)
    rng = np.random.default_rng(3)
    tensors = {}
    for v in g.vertices:
        legs = [e for (e, _) in g.incident(v)]
        tensors[v] = DenseTensor(legs, rng.uniform(
            0.5, 1.5, [dims[e] for e in legs]))
    tn = TensorNetwork(g, tensors)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
    assert res.converged
    return tn, res.messages


def test_prefix_edge_ids_match_oracle():
    """Where '<e>@<v>' sorts differently from e, the dressed tensors keep
    their legs in edge order, and the weights and the region values, with
    and without a replaced site tensor, equal the oracle forms, which
    rename the legs before they contract."""
    tn, ms = _prefix_network()
    g = tn.graph
    loops = enumerate_loops(g, 5)
    assert len(loops) == 4
    kept = [sorted(e for (e, _) in g.incident(v) if e in loop.edges)
            for loop in loops for v in loop.vertices]
    assert any(sorted(f"{e}@v" for e in k) != [f"{e}@v" for e in k]
               for k in kept)
    table = evaluate_weights(ms, loops)
    for loop in loops:
        want = oracles.excitation_weight(tn, ms, loop)
        assert want != 0 and _close(table[loop.key], want), loop
    b = tn.tensors["b"]
    scale = np.linspace(0.5, 1.5, b.data.size).reshape(b.data.shape)
    repl = {"b": DenseTensor(b.leg_ids, b.data * scale)}
    jobs = [(R, r) for R in find_regions(g, 4) for r in ({}, repl)]
    assert any("b" in R.vertices and len(R.edges) > 1 for R, _ in jobs)
    for (R, r), got in zip(jobs, region_partition(ms, jobs)):
        want = oracles.region_partition(tn, ms, R, r)
        assert all(map(_close, got, want)), (R, r)


# --- the bulk contractions against the per-call oracle ----------------------

_PEPS_SITE = "2,2"


def _benchmark_problem(name):
    """The network, messages and expansion of a benchmark workload:
    ``ising_free_energy`` (5x5 torus, m = 6, k = 6) or ``peps_expval``
    (5x5 PEPS norm at seed 11, site 2,2, m = 7, k = 6)."""
    if name == "ising_free_energy":
        tn = ising_network(IsingParams(L=5, beta=0.2))
        res = bp_iterate(tn, uniform_messages(tn))
        return tn, res.messages, None
    peps = random_peps(5, 5, D=2, perturbation=0.25, seed=11)
    tn = build_norm_network(peps)
    res = bp_iterate(tn, uniform_messages(tn))
    return tn, res.messages, peps_replacements(peps, {_PEPS_SITE: _SZ})


def _assert_bar_weights_match_oracle(prob, loops, regions):
    """One ``weigh`` call caches every bar weight of the loops with and
    without the regions, each equal to the per-call oracle's bit for
    bit."""
    prob.weigh(loops)
    for loop in loops:
        on = [r for r in regions if r in loop.vertices]
        for inserted in (frozenset(), frozenset(on)):
            want = oracles.excitation_weight(
                _decorated(prob, inserted), prob.messages, loop)
            assert prob._weights[loop.key, inserted] == want, (loop, inserted)


def _assert_regions_match_oracle(tn, messages, jobs):
    for (R, replacements), got in zip(jobs,
                                      region_partition(messages, jobs)):
        assert got == oracles.region_partition(
            tn, messages, R, replacements), (R, replacements)


def test_bulk_matches_per_call_oracle_ising_free_energy():
    tn, ms, _ = _benchmark_problem("ising_free_energy")
    loops = enumerate_loops(tn.graph, 6)
    table = evaluate_weights(ms, loops)
    assert len(table) == 85
    for loop in loops:
        assert table[loop.key] == oracles.excitation_weight(tn, ms, loop)
    poset = find_regions(tn.graph, 6)
    assert len(poset) == 85
    _assert_regions_match_oracle(tn, ms, [(R, {}) for R in poset])


def test_bulk_matches_per_call_oracle_peps_expval():
    tn, ms, repl = _benchmark_problem("peps_expval")
    prob = InsertionProblem(ms, repl)
    (rid,) = prob.region_ids
    strings = prob.strings(7)
    assert len(strings) == 116
    _assert_bar_weights_match_oracle(prob, strings, [rid])
    assert len(prob._weights) == 196
    poset = prob.regions(6)
    assert len(poset) == 25
    _assert_regions_match_oracle(prob.base, prob.messages, [
        (R, r) for R in poset for r in ({}, {rid: prob.replacements[rid]})])


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(2, 3), cols=st.integers(2, 3),
       perturbation=st.floats(0.05, 0.4), seed=st.integers(0, 10 ** 6),
       data=st.data())
def test_bulk_matches_per_call_oracle_on_random_peps(rows, cols,
                                                     perturbation, seed,
                                                     data):
    """Random strings of a small random PEPS, asked for in a random order
    with or without the inserted region, and its anchored regions with
    and without the insertion, all equal the per-call oracle."""
    peps = random_peps(rows, cols, D=2, perturbation=perturbation,
                       seed=seed)
    tn = build_norm_network(peps)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-12)
    assume(res.converged)
    site = data.draw(st.sampled_from(tn.graph.vertices))
    prob = InsertionProblem(res.messages, peps_replacements(
        peps, {site: _SZ}))
    (rid,) = prob.region_ids
    strings = prob.strings(data.draw(st.integers(2, 6)))
    picked = data.draw(st.lists(st.sampled_from(strings), unique_by=lambda
                                l: l.key) if strings else st.just([]))
    regions = data.draw(st.sampled_from([[], [rid]]))
    _assert_bar_weights_match_oracle(prob, picked, regions)
    poset = prob.regions(data.draw(st.integers(1, 5)))
    _assert_regions_match_oracle(prob.base, prob.messages, [
        (R, r) for R in poset for r in ({}, {rid: prob.replacements[rid]})])


def _assert_near_sorted_order(prob, loops, regions):
    """Each walk-ordered bar weight of the loops, with and without the
    regions, within 1e-12 relative of the sorted-order oracle; a string
    with a leaf and no insertion vanishes at the fixed point, so there
    both are rounding noise below 1e-12 and only that is asserted."""
    prob.weigh(loops)
    g = prob.base.graph
    for loop in loops:
        on = [r for r in regions if r in loop.vertices]
        leaf = min(degree_map(g, loop.edges).values()) < 2
        for inserted in (frozenset(), frozenset(on)):
            got = prob._weights[loop.key, inserted]
            want = oracles.sorted_excitation_weight(
                _decorated(prob, inserted), prob.messages, loop)
            if leaf and not inserted:
                assert abs(got) < 1e-12 and abs(want) < 1e-12, loop
            else:
                assert want != 0 and _close(got, want), (loop, inserted)


def test_walk_order_near_sorted_order_ising_free_energy():
    tn, ms, _ = _benchmark_problem("ising_free_energy")
    loops = enumerate_loops(tn.graph, 6)
    table = evaluate_weights(ms, loops)
    for loop in loops:
        want = oracles.sorted_excitation_weight(tn, ms, loop)
        assert want != 0 and _close(table[loop.key], want), loop


@pytest.mark.parametrize("inserted", [False, True],
                         ids=["bare", "inserted"])
def test_walk_order_near_sorted_order_peps_expval(inserted):
    tn, ms, repl = _benchmark_problem("peps_expval")
    prob = InsertionProblem(ms, repl)
    _assert_near_sorted_order(prob, prob.strings(7),
                              prob.region_ids if inserted else [])


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(2, 3), cols=st.integers(2, 3),
       perturbation=st.floats(0.05, 0.4), seed=st.integers(0, 10 ** 6),
       data=st.data())
def test_walk_order_near_sorted_order_on_random_peps(rows, cols,
                                                     perturbation, seed,
                                                     data):
    peps = random_peps(rows, cols, D=2, perturbation=perturbation,
                       seed=seed)
    tn = build_norm_network(peps)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-12)
    assume(res.converged)
    site = data.draw(st.sampled_from(tn.graph.vertices))
    prob = InsertionProblem(res.messages, peps_replacements(
        peps, {site: _SZ}))
    _assert_near_sorted_order(prob, prob.strings(data.draw(st.integers(
        2, 6))), data.draw(st.sampled_from([[], prob.region_ids])))


def _record_bulk_calls(monkeypatch):
    """Wrap the bulk contraction under the names ``loops`` and
    ``cumulants`` call it by; record (caller, pools, groups run) per
    call and every structure key."""
    calls, keys = [], set()
    for module in (bptn.loops, bptn.cumulants):
        def counting(pools, size_cap=None, module=module,
                     bulk=module.contract_network):
            groups = bptn.tensor._groups(pools)
            calls.append((module.__name__, len(pools), len(groups)))
            keys.update(groups)
            return bulk(pools, size_cap)
        monkeypatch.setattr(module, "contract_network", counting)
    return calls, keys


_ARGVS = {
    "ising_free_energy": ["free-energy", "--generate", "ising:L=5,beta=0.2",
                          "-m", "6", "-k", "6"],
    "peps_expval": ["expval", "--generate",
                    "peps:rows=5,cols=5,D=2,perturbation=0.25", "--site",
                    _PEPS_SITE, "-m", "7", "-k", "6", "--seed", "11"],
}


@pytest.mark.parametrize("argv, want_calls, structures", [
    (_ARGVS["ising_free_energy"],
     [("bptn.loops", 85, 3), ("bptn.cumulants", 85, 8)], 11),
    (_ARGVS["peps_expval"], [("bptn.loops", 160, 8),
                             ("bptn.cumulants", 50, 10)], 18),
], ids=["ising_free_energy", "peps_expval"])
def test_bulk_group_counts(argv, want_calls, structures, monkeypatch,
                           tmp_path):
    """The benchmark argvs contract 170 weights and regions in 11
    structures, and 210 in 18.  Each table is one bulk call: the ratio
    estimator's weights (160), which the derivative and cumulant
    estimators read too, and the region values (50, raw and decorated).
    A table asked for piece by piece would make more calls and run more
    groups.  The weights are walk-ordered, so each loop shape is one
    structure: the 85 Ising loops are rings of 4, 5 and 6 edges, and the
    160 PEPS pools are 7 string shapes, one of them (the 1x2 rectangle
    with its middle edge) walked two ways."""
    calls, keys = _record_bulk_calls(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert calls == want_calls
    assert len(keys) == structures


@pytest.mark.parametrize("name, plans", [("ising_free_energy", 22),
                                         ("peps_expval", 40)])
def test_plans_built_per_call(name, plans, monkeypatch, tmp_path):
    """A call that starts with no plan cached builds 22 greedy plans on
    the ``ising_free_energy`` argv and 40 on ``peps_expval``, one per
    structure of every bulk call (weights, regions, dressed tensors and
    z_v): callers that number their own legs give one shape one
    structure, as interning its leg ids did."""
    monkeypatch.setattr(bptn.tensor, "_PLANS", {})
    assert main(_ARGVS[name] + ["--out", str(tmp_path / "out.csv")]) == 0
    assert len(bptn.tensor._PLANS) == plans


def test_congruent_strings_share_one_structure(monkeypatch):
    """The 8 images of one string under the rotations and reflections
    about site 2,2 of the 5x5 PEPS are 8 edge sets of one structure: a
    tail from 2,2 to the corner of a plaquette, bent, so that no image is
    another."""
    tn, ms, _ = _benchmark_problem("peps_expval")
    path = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 1), (1, 1)]
    images = []
    for swap in (False, True):
        for sr in (1, -1):
            for sc in (1, -1):
                sites = [f"{2 + sr * (c if swap else r)},"
                         f"{2 + sc * (r if swap else c)}" for r, c in path]
                images.append(GeneralizedLoop(tn.graph, [
                    tn.graph.edge_between(a, b)
                    for a, b in zip(sites, sites[1:])]))
    assert len({l.key for l in images}) == 8
    assert all(l.weight == 6 for l in images)
    calls, _ = _record_bulk_calls(monkeypatch)
    excitation_weight(ms, [({}, l) for l in images])
    assert calls == [("bptn.loops", 8, 1)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.booleans(), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.lists(st.booleans(), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2))))
def test_walk_crosses_each_edge_once(case):
    """On a random connected edge set of a random graph, the walk reaches
    each vertex once and crosses each edge once, from a vertex it has
    reached, starting at the smallest id of lowest degree; the k-th
    crossing's ends are legs 2k and 2k + 1, and the walk is the recursive
    walk of the oracle."""
    n, present, chosen = case
    pairs = [p for p, keep in zip(itertools.combinations(range(n), 2),
                                  present) if keep]
    g = Graph(range(n), {f"{u}-{v}": (u, v) for u, v in pairs})
    picked = {f"{u}-{v}" for (u, v), keep in zip(pairs, chosen) if keep}
    assume(picked)
    edges = {min(picked)}  # the connected component of the smallest edge
    while True:
        touched = {v for e in edges for v in g.edges[e]}
        grown = edges | {e for e in picked if set(g.edges[e]) & touched}
        if grown == edges:
            break
        edges = grown
    loop = GeneralizedLoop(g, edges)
    order, legs, crossings = bptn.loops._walk(g, loop.key)
    assert sorted(order) == sorted(loop.vertices)
    assert sorted(e for e, _, _ in crossings) == sorted(edges)
    reached = {order[0]}
    for e, a, b in crossings:
        assert {a, b} == set(g.edges[e]) and a in reached
        reached.add(b)
    deg = degree_map(g, edges)
    assert legs == {v: [(e, 2 * k + (v == b))
                        for k, (e, a, b) in enumerate(crossings)
                        if v in (a, b)] for v in order}
    assert all(len(legs[v]) == deg[v] for v in order)
    assert order[0] == min(deg, key=lambda v: (deg[v], v))
    assert (order, {v: [e for e, _ in legs[v]] for v in order},
            crossings) == oracles.walk(g, edges)


def test_region_path_size_cap(monkeypatch, tmp_path):
    """The bulk region contraction keeps the size cap: at the largest
    intermediate of the ``ising_free_energy`` regions it runs, one entry
    below it raises BudgetError, and the CLI exits 4."""
    argv = ["free-energy", "--generate", "ising:L=5,beta=0.2", "-m", "2",
            "-k", "6", "--out", str(tmp_path / "fe.csv")]
    pools = []
    bulk = bptn.cumulants.contract_network

    def recording(p, size_cap=None):
        pools.extend(p)
        return bulk(p, size_cap)

    monkeypatch.setattr(bptn.cumulants, "contract_network", recording)
    assert main(argv) == 0
    largest = max(step[4] for key in bptn.tensor._groups(pools)
                  for step in bptn.tensor._PLANS[key][0])
    monkeypatch.setattr(bptn.cumulants, "contract_network", bulk)
    monkeypatch.setattr(bptn.cumulants, "DEFAULT_SIZE_CAP", largest)
    assert main(argv) == 0
    monkeypatch.setattr(bptn.cumulants, "DEFAULT_SIZE_CAP", largest - 1)
    with pytest.raises(BudgetError, match=f"exceeds cap {largest - 1}$"):
        region_partition(_benchmark_problem("ising_free_energy")[1], [
            (R, {}) for R in find_regions(ising_network(
                IsingParams(L=5, beta=0.2)).graph, 6)])
    assert main(argv) == 4


# --- caller-numbered legs and stacked edge tables against the interning path

def _message_sets(case):
    """A ``CASES`` network and two message sets on it: its BP start and
    random complex messages."""
    tn, start = CASES[case]()
    return tn, [start, random_messages(tn, seed=7)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_edge_tables_match_per_edge_forms(case):
    """The one stacked pass gives every edge's inner product, scaled
    messages and projector bit for bit as they are built one edge at a
    time."""
    tn, sets = _message_sets(case)
    for ms in sets:
        for e, (u, w) in tn.graph.edges.items():
            assert ms.inner_product(e) == oracles.inner_product(ms, e)
            assert np.array_equal(ms.projector(e), oracles.projector(ms, e))
            for n, v in ((u, w), (w, u)):
                assert np.array_equal(ms._tables()[1][n, v],
                                      oracles.into(ms, n, v, e))


def _assert_same_pieces(got, want):
    assert len(got) == len(want)
    for (ids, data), (want_ids, want_data) in zip(got, want):
        assert ids == want_ids
        assert np.array_equal(data, want_data)


@pytest.mark.parametrize("case", sorted(CASES))
def test_dressed_matches_interning_path(case):
    """Every site tensor with every subset of its edges kept, its legs
    numbered by position and each message's by its slot, equals the
    dressed tensor whose leg ids the kernel interned."""
    tn, sets = _message_sets(case)
    requests = []
    for v in tn.graph.vertices:
        edges = sorted(e for e, _ in tn.graph.incident(v))
        requests += [(v, tn.tensors[v], kept) for r in range(len(edges) + 1)
                     for kept in itertools.combinations(edges, r)]
    for ms in sets:
        _assert_same_pieces(ms.dressed(requests),
                            oracles.interning_dressed(ms, requests))


@pytest.mark.parametrize("case", sorted(CASES))
def test_weights_match_interning_path(case):
    """The loops of every ``CASES`` network, their walk's leg numbers
    passed as they are, weigh what interning those numbers gave."""
    tn, sets = _message_sets(case)
    jobs = [({}, loop) for loop in enumerate_loops(tn.graph, 6)]
    for ms in sets:
        assert excitation_weight(ms, jobs) == \
            oracles.interning_excitation_weight(ms, jobs)


def test_decorated_weights_match_interning_path():
    """The ``peps_expval`` strings with and without the insertion, in one
    call, as the interning path weighs them."""
    tn, ms, repl = _benchmark_problem("peps_expval")
    prob = InsertionProblem(ms, repl)
    (rid,) = prob.region_ids
    jobs = [({r: repl[r] for r in inserted}, loop)
            for loop in prob.strings(7)
            for inserted in (frozenset(), frozenset([rid]))
            if rid in loop.vertices or not inserted]
    assert len(jobs) == 196
    assert excitation_weight(ms, jobs) == \
        oracles.interning_excitation_weight(ms, jobs)


def test_regions_with_replacements_match_interning_path(ising_field, peps33):
    """Regions numbered once each, with and without a replaced site
    tensor, equal the values the interning path gives."""
    p, tn, ms = ising_field
    repl = ising_insertion(tn, p, {"1,1": _SZ})
    jobs = [(R, r) for R in find_regions(tn.graph, 6) for r in ({}, repl)]
    assert region_partition(ms, jobs) == \
        oracles.interning_region_partition(ms, jobs)
    peps, tn, ms = peps33
    repl = peps_replacements(peps, {"1,1": _SZ})
    jobs = [(R, r) for R in find_regions(tn.graph, 7, "1,1")
            for r in ({}, repl)]
    assert len(jobs) == 22
    assert region_partition(ms, jobs) == \
        oracles.interning_region_partition(ms, jobs)
