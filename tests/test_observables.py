import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bptn.bp import bp_iterate, uniform_messages
from bptn.clusters import enumerate_clusters
from bptn.errors import DimensionMismatch, InsufficientPoints, PCapExceeded
from bptn.loops import enumerate_strings
from bptn.models import (IsingParams, _ising_tn, ising_insertion,
                         ising_network, random_peps)
from bptn.network import build_norm_network, exact_contract, peps_replacements
from bptn.observables import (Estimate, InsertionProblem, correlation_length,
                              correlator_ratio_tensors, expval_bp_tensors,
                              expval_cumulant_tensors,
                              expval_derivative_tensors, expval_ratio_tensors,
                              expval_region_sum_tensors)
from bptn.tensor import DenseTensor

SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def _exact_expval(peps, ins):
    tn = build_norm_network(peps)
    return (exact_contract(tn.replace_tensors(peps_replacements(peps, ins)))
            / exact_contract(tn))


def _problem(peps23, *insertions):
    """The expansion of one region per insertion site on the 2x3 PEPS."""
    ops = {v: op for ins in insertions for v, op in ins.items()}
    return InsertionProblem(peps23.messages,
                            peps_replacements(peps23.peps, ops))


def _ends_at(g, loop, v) -> bool:
    """Whether ``v`` is a leaf of the string: one of its edges meets v."""
    return sum(v in g.edges[e] for e in loop.edges) == 1


def _assert_pair_filters_single_sites(pair, m):
    """For each site r of ``pair``: the pair's strings with no leaf at the
    other site are the strings ending on r alone, and the pair's clusters
    at r alone are the single-site problem's, in keys and order."""
    g = pair.base.graph
    for r, other in (pair.region_ids, pair.region_ids[::-1]):
        assert [l.key for l in pair.strings(m)
                if not _ends_at(g, l, other)] == [
            l.key for l in enumerate_strings(g, [r], m)]
        single = InsertionProblem(pair.messages,
                                  {r: pair.replacements[r]})
        assert [c.key for c in pair.clusters(m, (r,))] == [
            c.key for c in single.clusters(m)]


def test_insertion_that_does_not_fit_is_refused_at_construction(peps23):
    """A replacement whose legs or bond dimensions do not fit its site, or
    a site the network lacks, raises ``DimensionMismatch`` when the
    problem is built, before any weight is asked for."""
    t = peps23.tn.tensors["0,1"]
    other = peps23.tn.tensors["1,1"]
    wide = DenseTensor(t.leg_ids, np.ones([2 * d for d in t.data.shape]))
    for repl in ({"0,1": other}, {"0,1": wide}, {"9,9": t}):
        with pytest.raises(DimensionMismatch):
            InsertionProblem(peps23.messages, repl)


def test_clusters_and_subsets_filter_one_enumeration(peps23):
    """``clusters`` and ``loop_subsets`` filter one anchored enumeration:
    the lists that enumerations of their own give, for one region and for
    two, and for each site of a pair the clusters of that site alone."""
    m = 6
    for ops in ({"0,1": SZ}, {"0,0": SZ, "1,2": SX}):
        prob = _problem(peps23, ops)
        rids = prob.region_ids
        found = enumerate_clusters(prob.strings(m), m, anchor={rids[0]})
        assert [c.key for c in prob.clusters(m)] == [
            c.key for c in found if all(r in c.support for r in rids)]
        found = enumerate_clusters(prob.strings(m), m, anchor={rids[0]})
        assert [c.key for c in prob.loop_subsets(m)] == [
            c.key for c in found if all(eta == 1 for _, eta in c.members)]
    for m in (3, 5, 7):
        _assert_pair_filters_single_sites(
            _problem(peps23, {"0,0": SZ, "1,2": SX}), m)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(st.booleans(), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.permutations([str(v) for v in range(n)]),
    st.integers(0, 7))))
def test_pair_expansion_holds_each_single_site(case):
    """The filter identity on random graphs, any two sites of them."""
    present, order, m = case
    pairs = {frozenset(uv): 1 for uv, keep in zip(
        itertools.combinations(sorted(order), 2), present) if keep}
    tn = _ising_tn(order, pairs, 0.2, {})
    a, b = order[:2]
    _assert_pair_filters_single_sites(InsertionProblem(
        uniform_messages(tn), {a: tn.tensors[a], b: tn.tensors[b]}), m)


# --- identity invariant -----------------------------------------------------

def test_identity_observable_is_exactly_one(peps23):
    ins = {"0,1": np.eye(2)}
    prob = _problem(peps23, ins)
    for est in (expval_bp_tensors(prob),
                expval_ratio_tensors(prob, 4),
                expval_derivative_tensors(prob, 4),
                expval_cumulant_tensors(prob, 4),
                expval_region_sum_tensors(prob, 4)):
        assert abs(est.value - 1.0) < 1e-12, est


# --- convergence to the exact statevector value -----------------------------

def test_expval_estimators_converge_to_exact(peps23):
    ins = {"0,1": SZ}
    want = _exact_expval(peps23.peps, ins)
    prob = _problem(peps23, ins)
    for fn, m, tol in ((expval_ratio_tensors, 8, 2e-4),
                       (expval_derivative_tensors, 8, 1e-4),
                       (expval_cumulant_tensors, 8, 1e-4)):
        got = fn(prob, m).value
        assert abs(got - want) < tol * abs(want), (fn.__name__, got, want)


def test_region_sum_k1_equals_bp(peps23):
    ins = {"1,1": SZ}
    prob = _problem(peps23, ins)
    bp = expval_bp_tensors(prob).value
    rs = expval_region_sum_tensors(prob, 1).value
    assert abs(rs - bp) < 1e-14


def test_region_estimators_improve_with_k(peps23):
    ins = {"0,1": SZ}
    want = _exact_expval(peps23.peps, ins)
    prob = _problem(peps23, ins)
    errs = [abs(expval_region_sum_tensors(prob, k).value - want)
            for k in (2, 4, 6)]
    assert errs[2] < errs[0]
    assert errs[2] < 2e-3 * abs(want)


# --- classical insertions ---------------------------------------------------

def test_classical_magnetization_vs_exact():
    p = IsingParams(L=3, beta=0.25, h=0.2)
    tn = ising_network(p)
    ms = bp_iterate(tn, uniform_messages(tn), tol=1e-13).messages
    repl = ising_insertion(tn, p, {"1,1": SZ})
    dec = tn.replace_tensors(repl)
    want = exact_contract(dec) / exact_contract(tn)
    prob = InsertionProblem(ms, repl)
    err6 = abs(expval_derivative_tensors(prob, 6).value - want)
    err8 = abs(expval_derivative_tensors(prob, 8).value - want)
    err_bp = abs(expval_bp_tensors(prob).value - want)
    # the series correction improves on bare BP order by order
    assert err8 < err6 < err_bp
    assert err8 < 2e-2 * abs(want)


# --- correlators ------------------------------------------------------------

def test_correlator_symmetry(peps23):
    a = {"0,0": SZ}
    b = {"1,2": SZ}
    ab = expval_derivative_tensors(_problem(peps23, a, b), 6)
    ba = expval_derivative_tensors(_problem(peps23, b, a), 6)
    assert abs(ab.value - ba.value) < 1e-12
    assert ab.distance == ba.distance == 3


def test_correlator_derivative_matches_exact_connected():
    """On a 2x2 PEPS the series converges; compare with the exact connected
    correlator from statevector arithmetic."""
    peps = random_peps(2, 2, D=2, perturbation=0.3, seed=12)
    tn = build_norm_network(peps)
    ms = bp_iterate(tn, uniform_messages(tn), tol=1e-13).messages
    a = {"0,0": SZ}
    b = {"1,1": SZ}
    ea = _exact_expval(peps, a)
    eb = _exact_expval(peps, b)
    eab = _exact_expval(peps, {"0,0": SZ, "1,1": SZ})
    want = eab - ea * eb
    got = expval_derivative_tensors(InsertionProblem(
        ms, {**peps_replacements(peps, a), **peps_replacements(peps, b)}),
        12).value
    assert abs(got - want) < 1e-6 * abs(want)


def test_ppoint_cap(peps23):
    prob = _problem(peps23, *({v: SZ}
                              for v in ("0,0", "0,1", "0,2", "1,0")))
    with pytest.raises(PCapExceeded):
        expval_derivative_tensors(prob, 4)


def test_ratio_and_derivative_correlators_agree():
    """Where the multiplicity resummation converges the two forms agree to
    series precision."""
    peps = random_peps(2, 3, D=2, perturbation=0.05, seed=11)
    tn = build_norm_network(peps)
    ms = bp_iterate(tn, uniform_messages(tn), tol=1e-13).messages
    op = SZ + 0.4 * SX
    a = peps_replacements(peps, {"0,0": op})
    b = peps_replacements(peps, {"0,2": op})
    prob = InsertionProblem(ms, {**a, **b})
    r = correlator_ratio_tensors(prob, 6)
    d = expval_derivative_tensors(prob, 6)
    # the forms differ only in how omitted higher orders are resummed
    assert abs(r.value - d.value) < 1e-10


# --- one cluster sum against the estimators it replaced --------------------

def _close(got, want):
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def _readme_ising(L):
    """The README examples' Ising torus at beta = 0.25, h = 0.2."""
    p = IsingParams(L=L, beta=0.25, h=0.2)
    tn = ising_network(p)
    return p, tn, bp_iterate(tn, uniform_messages(tn)).messages


@pytest.mark.parametrize("m", [2, 4])
def test_ratio_correlator_matches_its_oracle(m):
    """On the README ``correlator`` spec, at d = 1-3 and truncation m + d,
    the ratio correlator from one expansion per pair equals the one from
    three problems per pair and four products per cluster."""
    p, tn, ms = _readme_ising(4)
    a = ising_insertion(tn, p, {"0,0": SZ})
    for d, site in ((1, "0,1"), (2, "0,2"), (3, "1,2")):
        both = {**a, **ising_insertion(tn, p, {site: SZ})}
        _close(correlator_ratio_tensors(
            InsertionProblem(ms, both), m + d).value,
            oracles.correlator_ratio(InsertionProblem(ms, both), m + d))


@pytest.mark.parametrize("m", [4, 6])
def test_ratio_correlator_matches_its_oracle_on_a_peps_pair(peps23, m):
    ops = ({"0,0": SZ}, {"1,2": SX})
    _close(correlator_ratio_tensors(_problem(peps23, *ops), m).value,
           oracles.correlator_ratio(_problem(peps23, *ops), m))


def test_ratio_and_cumulant_expvals_match_their_oracles(peps23):
    """On the README ``expval`` spec and on a PEPS site, each estimator
    and its oracle on a fresh problem."""
    p, tn, ms = _readme_ising(3)
    repl = ising_insertion(tn, p, {"1,1": SZ})
    for problem in (lambda: InsertionProblem(ms, repl),
                    lambda: _problem(peps23, {"0,1": SZ})):
        _close(expval_ratio_tensors(problem(), 6).value,
               oracles.expval_ratio(problem(), 6))
        _close(expval_cumulant_tensors(problem(), 6).value,
               oracles.expval_cumulant(problem(), 6))


# --- the derivative form against the polynomial it replaced ----------------

def _peps_expval_problem():
    """The benchmark's ``peps_expval`` expansion: site 2,2 of the 5x5 PEPS
    at perturbation 0.25 and seed 11."""
    peps = random_peps(5, 5, D=2, perturbation=0.25, seed=11)
    tn = build_norm_network(peps)
    ms = bp_iterate(tn, uniform_messages(tn)).messages
    repl = peps_replacements(peps, {"2,2": SZ})
    return lambda: InsertionProblem(ms, repl)


def _third_cumulant_problem():
    """The three-region expansion of
    ``test_acceptance_9_third_joint_cumulant``."""
    peps = random_peps(2, 3, D=2, perturbation=0.35, seed=11)
    tn = build_norm_network(peps)
    ms = bp_iterate(tn, uniform_messages(tn), tol=1e-13).messages
    repl = peps_replacements(peps, {s: SZ for s in ("0,0", "0,2", "1,1")})
    return lambda: InsertionProblem(ms, repl)


def test_derivative_form_matches_its_oracle(peps23):
    """The derivative form through ``cluster_value`` equals, bit for bit,
    the per-cluster polynomial it replaced, each on a fresh problem: the
    README ``expval`` and the ``peps_expval`` expectation (p = 1), the
    README ``correlator`` at d = 1-3 and truncation m + d for m = 2 and
    4 and a PEPS pair (p = 2), and a third joint cumulant (p = 3)."""
    p3, tn3, ms3 = _readme_ising(3)
    cases = [(lambda: InsertionProblem(
        ms3, ising_insertion(tn3, p3, {"1,1": SZ})), 6),
        (_peps_expval_problem(), 7),
        (lambda: _problem(peps23, {"0,0": SZ}, {"1,2": SX}), 6),
        (_third_cumulant_problem(), 8)]
    p4, tn4, ms4 = _readme_ising(4)
    a = ising_insertion(tn4, p4, {"0,0": SZ})
    for d, site in ((1, "0,1"), (2, "0,2"), (3, "1,2")):
        both = {**a, **ising_insertion(tn4, p4, {site: SZ})}
        cases += [(lambda both=both: InsertionProblem(ms4, both), m + d)
                  for m in (2, 4)]
    for problem, m in cases:
        assert (expval_derivative_tensors(problem(), m).value
                == oracles.expval_derivative(problem(), m))


def test_derivative_form_builds_each_loop_once(monkeypatch):
    """One call builds each distinct loop's first-order weight once: the
    coefficient of each region set S on the loop reads the bar weight of
    every T in S, 3^k reads for a loop holding k regions."""
    prob = _third_cumulant_problem()()
    loops = {l.key: l for c in prob.clusters(8) for l in c.loops}.values()
    want = sum(3 ** sum(r in l.vertices for r in prob.region_ids)
               for l in loops)
    reads = []
    bar_weight = InsertionProblem.bar_weight

    def counted(*args):
        reads.append(args)
        return bar_weight(*args)

    monkeypatch.setattr(InsertionProblem, "bar_weight", counted)
    expval_derivative_tensors(prob, 8)
    assert len(reads) == want == 387


# --- one expansion shared by every estimator --------------------------------

_ONE_REGION = [("bp", lambda prob, m: expval_bp_tensors(prob)),
               ("ratio", expval_ratio_tensors),
               ("derivative", expval_derivative_tensors),
               ("cumulant", expval_cumulant_tensors),
               ("region_sum", expval_region_sum_tensors)]
_TWO_REGIONS = [("derivative", expval_derivative_tensors),
                ("ratio", correlator_ratio_tensors)]


@pytest.mark.parametrize("sites, estimators",
                         [(("0,1",), _ONE_REGION),
                          (("0,0", "1,2"), _TWO_REGIONS)],
                         ids=["one_region", "two_regions"])
def test_shared_expansion_matches_fresh(peps23, sites, estimators):
    """An estimator on an object that every other estimator and a second
    truncation have already used returns exactly its value on a fresh
    object: the memoized strings, clusters, subsets, regions and weights
    are the ones a fresh object would build."""
    insertions = [{s: SZ} for s in sites]
    m, m_other = 4, 6
    for name, fn in estimators:
        shared = _problem(peps23, *insertions)
        for _, other in estimators:
            other(shared, m_other)
        for other_name, other in estimators:
            if other_name != name:
                other(shared, m)
        fresh = fn(_problem(peps23, *insertions), m)
        assert fn(shared, m).value == fresh.value, name


# --- correlation length fit -------------------------------------------------

def _fake(d, v):
    return Estimate(v, "test", d)


def test_correlation_length_exact_fit():
    xi0 = 2.5
    ests = [_fake(d, 0.7 * math.exp(-d / xi0)) for d in (1, 2, 3, 4)]
    xi, diag = correlation_length(ests)
    assert abs(xi - xi0) < 1e-10
    assert diag["r_squared"] > 1 - 1e-12
    assert not diag["non_decaying"]


def test_correlation_length_path_count_fit():
    xi0 = 0.62
    paths = {1: 1, 2: 2, 3: 6, 4: 24}
    ests = [Estimate(0.9 * n * math.exp(-d / xi0), "test", d, paths=n)
            for d, n in paths.items()]
    xi, diag = correlation_length(ests)
    assert abs(xi - xi0) < 1e-10
    assert diag["r_squared"] > 1 - 1e-12
    assert not diag["non_decaying"]
    # the same values without the path counts are not a pure exponential
    assert diag["plain_r_squared"] < 0.99


def test_correlation_length_plain_diagnostics_ignore_paths():
    values = {1: 0.23, 2: 0.10, 3: 0.061, 4: 0.042}
    paths = {1: 1, 2: 2, 3: 6, 4: 24}
    _, diag = correlation_length(
        [Estimate(v, "test", d, paths=paths[d])
         for d, v in values.items()])
    _, plain = correlation_length([_fake(d, v) for d, v in values.items()])
    assert diag["plain_slope"] == plain["slope"]
    assert diag["plain_intercept"] == plain["intercept"]
    assert diag["plain_r_squared"] == plain["r_squared"]
    assert diag["slope"] != plain["slope"]


def test_correlation_length_needs_three_distances():
    with pytest.raises(InsufficientPoints):
        correlation_length([_fake(1, 0.5), _fake(2, 0.3)])
    with pytest.raises(InsufficientPoints):
        correlation_length([_fake(1, 0.0), _fake(2, 0.3), _fake(3, 0.2)])


def test_correlation_length_non_decaying_flag():
    ests = [_fake(d, 0.1 * math.exp(0.3 * d)) for d in (1, 2, 3)]
    xi, diag = correlation_length(ests)
    assert diag["non_decaying"] and xi == math.inf
