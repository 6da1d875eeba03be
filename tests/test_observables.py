import cmath
import math

import numpy as np
import pytest

from bptn.bp import bp_iterate, uniform_messages
from bptn.errors import (InsufficientPoints, OverlappingRegions,
                         PCapExceeded)
from bptn.models import (IsingParams, ising_insertion, ising_network,
                         peps_statevector, random_peps)
from bptn.network import (OperatorInsertion, build_norm_network,
                          exact_contract, insert_operator, peps_replacements)
from bptn.observables import (CorrelatorEstimate, correlation_length,
                              correlator_derivative_tensors,
                              correlator_ppoint_tensors,
                              correlator_ratio_tensors, expval_bp_tensors,
                              expval_cumulant_tensors,
                              expval_derivative_tensors, expval_ratio_tensors,
                              expval_region_product_tensors,
                              expval_region_sum_tensors)

SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def _exact_expval(peps, ins):
    tn = build_norm_network(peps)
    return exact_contract(insert_operator(tn, peps, ins)) / exact_contract(tn)


# --- identity invariant -----------------------------------------------------

def test_identity_observable_is_exactly_one(peps23):
    ins = OperatorInsertion({"0,1": np.eye(2)})
    args = (peps23.tn, peps23.messages, peps_replacements(peps23.peps, ins))
    for est in (expval_bp_tensors(*args),
                expval_ratio_tensors(*args, 4),
                expval_derivative_tensors(*args, 4),
                expval_cumulant_tensors(*args, 4),
                expval_region_sum_tensors(*args, 4),
                expval_region_product_tensors(*args, 4)):
        assert abs(est.value - 1.0) < 1e-12, est


# --- convergence to the exact statevector value -----------------------------

def test_expval_estimators_converge_to_exact(peps23):
    ins = OperatorInsertion({"0,1": SZ})
    want = _exact_expval(peps23.peps, ins)
    args = (peps23.tn, peps23.messages, peps_replacements(peps23.peps, ins))
    for fn, budget_arg, tol in ((expval_ratio_tensors, 8, 2e-4),
                                (expval_derivative_tensors, 8, 1e-4),
                                (expval_cumulant_tensors, 8, 1e-4)):
        got = fn(*args, budget_arg).value
        assert abs(got - want) < tol * abs(want), (fn.__name__, got, want)


def test_region_sum_k1_equals_bp(peps23):
    ins = OperatorInsertion({"1,1": SZ})
    args = (peps23.tn, peps23.messages, peps_replacements(peps23.peps, ins))
    bp = expval_bp_tensors(*args).value
    rs = expval_region_sum_tensors(*args, 1).value
    assert abs(rs - bp) < 1e-14
    ins2 = OperatorInsertion({"0,1": SZ})
    args2 = (peps23.tn, peps23.messages, peps_replacements(peps23.peps, ins2))
    rp = expval_region_product_tensors(*args2, 1).value
    assert abs(rp - expval_bp_tensors(*args2).value) < 1e-14


def test_region_product_guards_negative_values(peps23):
    """A real-negative region expectation has no principal-branch log."""
    from bptn.errors import BranchCrossing

    ins = OperatorInsertion({"1,1": SZ})  # site with negative <O>_BP
    with pytest.raises(BranchCrossing):
        expval_region_product_tensors(
            peps23.tn, peps23.messages, peps_replacements(peps23.peps, ins), 1)


def test_region_estimators_improve_with_k(peps23):
    ins = OperatorInsertion({"0,1": SZ})
    want = _exact_expval(peps23.peps, ins)
    args = (peps23.tn, peps23.messages, peps_replacements(peps23.peps, ins))
    errs = [abs(expval_region_sum_tensors(*args, k).value - want)
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
    err6 = abs(expval_derivative_tensors(tn, ms, repl, 6).value - want)
    err8 = abs(expval_derivative_tensors(tn, ms, repl, 8).value - want)
    err_bp = abs(expval_bp_tensors(tn, ms, repl).value - want)
    # the series correction improves on bare BP order by order
    assert err8 < err6 < err_bp
    assert err8 < 2e-2 * abs(want)


# --- multi-site regions -----------------------------------------------------

def test_two_site_supervertex_expectation(peps23):
    ins = OperatorInsertion({"0,0": SZ, "0,1": SZ})
    want = _exact_expval(peps23.peps, ins)
    args = (peps23.tn, peps23.messages, peps_replacements(peps23.peps, ins))
    bp = expval_bp_tensors(*args).value
    got = expval_derivative_tensors(*args, 8).value
    assert abs(got - want) < abs(bp - want)
    assert abs(got - want) < 1e-3 * abs(want)


def test_overlapping_regions_rejected(peps23):
    a = OperatorInsertion({"0,0": SZ})
    b = OperatorInsertion({"0,0": SZ, "0,1": SZ})
    with pytest.raises(OverlappingRegions):
        correlator_derivative_tensors(
            peps23.tn, peps23.messages, peps_replacements(peps23.peps, a),
            peps_replacements(peps23.peps, b), 4)


# --- correlators ------------------------------------------------------------

def test_correlator_symmetry(peps23):
    a = peps_replacements(peps23.peps, OperatorInsertion({"0,0": SZ}))
    b = peps_replacements(peps23.peps, OperatorInsertion({"1,2": SZ}))
    args = (peps23.tn, peps23.messages)
    ab = correlator_derivative_tensors(*args, a, b, 6)
    ba = correlator_derivative_tensors(*args, b, a, 6)
    assert abs(ab.value - ba.value) < 1e-12
    assert ab.distance == ba.distance == 3


def test_correlator_derivative_matches_exact_connected():
    """On a 2x2 PEPS the series converges; compare with the exact connected
    correlator from statevector arithmetic."""
    peps = random_peps(2, 2, D=2, perturbation=0.3, seed=12)
    tn = build_norm_network(peps)
    ms = bp_iterate(tn, uniform_messages(tn), tol=1e-13).messages
    a = OperatorInsertion({"0,0": SZ})
    b = OperatorInsertion({"1,1": SZ})
    ea = _exact_expval(peps, a)
    eb = _exact_expval(peps, b)
    eab = _exact_expval(peps, OperatorInsertion({"0,0": SZ, "1,1": SZ}))
    want = eab - ea * eb
    got = correlator_derivative_tensors(
        tn, ms, peps_replacements(peps, a), peps_replacements(peps, b),
        12).value
    assert abs(got - want) < 1e-6 * abs(want)


def test_ppoint_p1_equals_derivative_estimator(peps23):
    repl = peps_replacements(peps23.peps, OperatorInsertion({"0,1": SZ}))
    args = (peps23.tn, peps23.messages)
    p1 = correlator_ppoint_tensors(*args, [repl], 6)
    ev = expval_derivative_tensors(*args, repl, 6)
    assert abs(p1.value - ev.value) < 1e-13


def test_ppoint_p2_equals_correlator_derivative(peps23):
    a = peps_replacements(peps23.peps, OperatorInsertion({"0,0": SZ}))
    b = peps_replacements(peps23.peps, OperatorInsertion({"1,2": SZ}))
    args = (peps23.tn, peps23.messages)
    p2 = correlator_ppoint_tensors(*args, [a, b], 6)
    cd = correlator_derivative_tensors(*args, a, b, 6)
    assert abs(p2.value - cd.value) < 1e-13


def test_ppoint_cap(peps23):
    repls = [peps_replacements(peps23.peps, OperatorInsertion({v: SZ}))
             for v in ("0,0", "0,1", "0,2", "1,0")]
    with pytest.raises(PCapExceeded):
        correlator_ppoint_tensors(peps23.tn, peps23.messages, repls, 4)


def test_ratio_and_derivative_correlators_agree():
    """Where the multiplicity resummation converges the two forms agree to
    series precision."""
    peps = random_peps(2, 3, D=2, perturbation=0.05, seed=11)
    tn = build_norm_network(peps)
    ms = bp_iterate(tn, uniform_messages(tn), tol=1e-13).messages
    op = SZ + 0.4 * SX
    a = peps_replacements(peps, OperatorInsertion({"0,0": op}))
    b = peps_replacements(peps, OperatorInsertion({"0,2": op}))
    r = correlator_ratio_tensors(tn, ms, a, b, 6)
    d = correlator_derivative_tensors(tn, ms, a, b, 6)
    # the forms differ only in how omitted higher orders are resummed
    assert abs(r.value - d.value) < 1e-10


# --- correlation length fit -------------------------------------------------

def _fake(d, v):
    return CorrelatorEstimate(v, "test", d)


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
    ests = [CorrelatorEstimate(0.9 * n * math.exp(-d / xi0), "test", d,
                               paths=n) for d, n in paths.items()]
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
        [CorrelatorEstimate(v, "test", d, paths=paths[d])
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
