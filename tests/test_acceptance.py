"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the engine against an
independent oracle (exact contraction, analytic classical-Ising results,
or exact rational series arithmetic).  The truncated correlators of
acceptance 9 are pinned to the exact high-temperature series at the same
order, counted by spin sums; the docstrings there give the tail that the
truncation leaves on the 4x4 torus.
"""

import cmath
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bptn.bp import (bp_iterate, bp_log_partition, stability_probe,
                     uniform_messages)
from bptn.clusters import (Cluster, cluster_value, enumerate_clusters,
                           free_energy_truncated, loops_overlap, ursell)
from bptn.cumulants import (connected_loop_subsets, cumulant,
                            cumulant_free_energy, find_regions,
                            region_free_energy)
from bptn.loops import (GeneralizedLoop, enumerate_loops, evaluate_weights,
                        loop_decay_profile)
from bptn.models import (IsingParams, ising_exact_logZ, ising_insertion,
                         ising_network, ising_paramagnetic_messages,
                         random_peps, random_tree_network,
                         single_loop_network)
from bptn.network import (Graph, build_norm_network, exact_contract,
                          peps_replacements)
from bptn.observables import (InsertionProblem, correlation_length,
                              correlator_ratio_tensors, expval_bp_tensors,
                              expval_cumulant_tensors,
                              expval_derivative_tensors, expval_ratio_tensors,
                              expval_region_sum_tensors)
from oracles import (counting_number_free_energy, mobius_subset,
                     peps_statevector)

SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


# === 1. exact on trees ======================================================

def test_acceptance_1_trees_exact():
    """BP reproduces the exact contraction on 50 random trees (up to 20
    vertices, bond dimension up to 4) to 1e-10, in under 10 seconds."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(2, 21))
        D = int(rng.integers(2, 5))
        tn = random_tree_network(n, D=D, seed=1000 + trial)
        res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
        assert res.converged
        z_bp = cmath.exp(bp_log_partition(res.messages))
        z = exact_contract(tn)
        assert abs(z_bp - z) <= 1e-10 * max(abs(z), 1e-30), (n, D, trial)
    assert time.perf_counter() - t0 < 10.0


# === 2. single-loop identity ================================================

def test_acceptance_2_single_loop_identity():
    """On a cycle the series has exactly one term: Z = Z_BP (1 + Z_l)."""
    for n in (3, 4, 5, 6, 8):
        tn = single_loop_network(n, seed=n)
        res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
        assert res.converged
        loops = enumerate_loops(tn.graph, n)
        assert len(loops) == 1
        zl = evaluate_weights(res.messages, loops)[loops[0].key]
        z_bp = cmath.exp(bp_log_partition(res.messages))
        z = exact_contract(tn)
        assert abs(z - z_bp * (1 + zl)) <= 1e-10 * abs(z), n


# === 3. Ursell coefficients vs exact series oracle ==========================

def _poly_mul_trunc(a, b, caps):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            ex = tuple(x + y for x, y in zip(ea, eb))
            if any(x > c for x, c in zip(ex, caps)):
                continue
            out[ex] = out.get(ex, Fraction(0)) + ca * cb
    return out


def _log_series(xi, caps):
    """log(Xi) as a truncated multivariate Taylor series; Xi(0) = 1."""
    n = len(caps)
    zero = (0,) * n
    u = dict(xi)
    u.pop(zero, None)  # Xi - 1
    total = {}
    term = {zero: Fraction(1)}
    max_order = sum(caps)
    for k in range(1, max_order + 1):
        term = _poly_mul_trunc(term, u, caps)
        if not term:
            break
        sign = Fraction((-1) ** (k + 1), k)
        for ex, c in term.items():
            total[ex] = total.get(ex, Fraction(0)) + sign * c
    return total


def _hardcore_xi(n, adj, caps):
    """Xi = sum over independent sets of the incompatibility graph, as a
    polynomial (each loop also excludes its own copies, so exponents are
    0/1 in Xi itself)."""
    xi = {}
    for mask in range(1 << n):
        ok = True
        for i in range(n):
            if mask & (1 << i) and adj[i] & mask & ~(1 << i):
                ok = False
                break
        if not ok:
            continue
        ex = tuple(1 if mask & (1 << i) else 0 for i in range(n))
        xi[ex] = Fraction(1)
    return xi


def _loops_with_overlap_graph(n, edges):
    """n loops on a host graph whose pairwise overlaps realize exactly the
    given edge set."""
    verts, gedges = [], {}
    paths = {i: [] for i in range(n)}
    for (i, j) in edges:
        v = f"s{i}_{j}"
        verts.append(v)
        paths[i].append(v)
        paths[j].append(v)
    for i in range(n):
        a, b = f"p{i}a", f"p{i}b"
        verts += [a, b]
        paths[i] = [a] + paths[i] + [b]
    for i in range(n):
        p = paths[i]
        for k in range(len(p) - 1):
            gedges[f"l{i}e{k}"] = (p[k], p[k + 1])
    g = Graph(verts, gedges)
    loops = []
    for i in range(n):
        loops.append(GeneralizedLoop(
            g, [e for e in gedges if e.startswith(f"l{i}e")]))
    # verify the realized overlap pattern
    for i in range(n):
        for j in range(i + 1, n):
            assert loops_overlap(loops[i], loops[j]) == (
                (i, j) in edges or (j, i) in edges)
    return loops


def test_acceptance_3_ursell_vs_series_oracle():
    """phi(W) for every connected labeled incompatibility graph on up to 5
    nodes equals the coefficient of prod z_i^eta_i in log Xi, computed in
    exact rational arithmetic; multiplicity vectors included for n <= 3."""
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for emask in range(1 << len(pairs)):
            edges = {pairs[i] for i in range(len(pairs))
                     if emask & (1 << i)}
            # connectivity of the labeled graph
            seen, stack = {0}, [0]
            while stack:
                x = stack.pop()
                for y in range(n):
                    if y not in seen and ((x, y) in edges or (y, x) in edges):
                        seen.add(y)
                        stack.append(y)
            if len(seen) != n:
                continue
            loops = _loops_with_overlap_graph(n, edges)
            adj = [0] * n
            for (i, j) in edges:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            etas_list = [(1,) * n]
            if n <= 3:
                etas_list = [e for e in itertools.product((1, 2, 3), repeat=n)
                             if sum(e) <= 5]
            for etas in etas_list:
                got = ursell(Cluster(list(zip(loops, etas))))
                caps = etas
                logxi = _log_series(_hardcore_xi(n, adj, caps), caps)
                want = logxi.get(tuple(etas), Fraction(0))
                assert got == want, (n, sorted(edges), etas)


# === 4. Moebius inversion on the subset lattice =============================

def test_acceptance_4_mobius_inversion():
    """Exhaustive delta identity on the lattice of subsets of 4 loops."""
    verts = [f"v{i}" for i in range(5)]
    g = Graph(verts, {f"e{i}": (verts[i], verts[i + 1]) for i in range(4)})
    loops = [GeneralizedLoop(g, [f"e{i}"]) for i in range(4)]
    subs = [c for r in range(5) for c in itertools.combinations(loops, r)]
    for A in subs:
        for B in subs:
            if not set(A) <= set(B):
                assert mobius_subset(A, B) == 0
                continue
            total = sum(mobius_subset(A, C) for C in subs
                        if set(A) <= set(C) and set(C) <= set(B))
            assert total == (1 if A == B else 0)


# === shared 6x6 fixtures ====================================================

class Ising66:
    def __init__(self):
        self.params = IsingParams(L=6, beta=0.2)
        self.tn = ising_network(self.params)
        self.graph = self.tn.graph
        self.loops = enumerate_loops(self.graph, 8)


@pytest.fixture(scope="module")
def ising66():
    return Ising66()


# === 5. loop-weight decay on the 6x6 lattice ================================

def test_acceptance_5_loop_decay(ising66):
    """Even-loop decay rate within 2% of 1.6235 for |l| in {4,6,8}; odd
    weights vanish to 1e-12; under two minutes."""
    t0 = time.perf_counter()
    ms = ising_paramagnetic_messages(ising66.params, ising66.tn)
    table = evaluate_weights(ms, ising66.loops)
    for key, z in table.items():
        if len(key) % 2 == 1:
            assert abs(z) <= 1e-12, key
    rows, _ = loop_decay_profile(table)
    even = {r["weight"]: r["c_estimate"] for r in rows
            if r["parity"] == "even"}
    assert set(even) >= {4, 6, 8}
    for wt in (4, 6, 8):
        assert abs(even[wt] - 1.6235) <= 0.02 * 1.6235, (wt, even[wt])
    assert time.perf_counter() - t0 < 120.0


# === 6. stability threshold locates the exact BP transition =================

def test_acceptance_6_stability_bisection():
    """Bisection on the linear-response growth factor brackets the known
    message-instability point beta = log(2)/2 to within 1e-3."""
    target = math.log(2.0) / 2.0

    def growth(beta):
        p = IsingParams(L=4, beta=beta)
        tn = ising_network(p)
        ms = ising_paramagnetic_messages(p, tn)
        _, g = stability_probe(ms, seed=0)
        return g

    lo, hi = 0.30, 0.40
    assert growth(lo) < 1.0 < growth(hi)
    while hi - lo > 5e-4:
        mid = 0.5 * (lo + hi)
        if growth(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    assert lo <= target <= hi
    assert hi - lo <= 1e-3


# === 7. free-energy series and matched-truncation identities ================

def test_acceptance_7_free_energy_series(ising44):
    """On the 4x4 torus at beta=0.2 the truncated cluster free energy
    improves monotonically in m and reaches 1e-4 relative accuracy at
    m=8; the cumulant and region forms agree with it at matched loop
    content to 1e-9."""
    tn, ms = ising44.tn, ising44.messages
    loops, table = ising44.loops, ising44.table
    f_exact = -ising_exact_logZ(ising44.params)
    errs = {}
    for m in (4, 6, 8):
        fr = free_energy_truncated(ms, loops, m, weight_table=table)
        errs[m] = abs(fr.f_m - f_exact)
    assert errs[4] > errs[6] > errs[8]
    assert errs[8] <= 1e-4 * abs(f_exact)

    # (a) cumulant form == counting-number form on the same subsets
    clusters = enumerate_clusters(loops, 8)
    f_k, corr_k = cumulant_free_energy(ms, clusters, table)
    subsets = connected_loop_subsets(clusters)
    f_b, corr_b = counting_number_free_energy(ms, subsets, table)
    assert abs(f_k - f_b) <= 1e-9

    # (b) region correction == sum of cumulants over subsets contained in
    # some region of the poset
    poset = find_regions(tn.graph, 4)
    _, corr_r = region_free_energy(ms, poset)
    corr_match = sum(
        cumulant(s, table) for s in subsets
        if any(all(l.vertices <= r.vertices and l.edges <= r.edges
                   for l in s.loops) for r in poset))
    assert abs(corr_r - corr_match) <= 1e-9

    # (c) cluster sum == cumulant sum at matched loop content, once the
    # cluster multiplicities are extended past the bare weight cap
    corr_c = 0.0 + 0j
    for s in subsets:
        loops_s = s.loops
        for extras in itertools.product(range(4), repeat=len(loops_s)):
            if sum(extras) > 3:
                continue
            c = Cluster([(l, 1 + x) for l, x in zip(loops_s, extras)])
            corr_c += float(ursell(c)) * cluster_value(c, table)
    assert abs(corr_c - corr_k) <= 1e-9


# === 8. observable estimators converge =====================================

def test_acceptance_8_expval_suite_peps():
    """All five estimators converge toward the exact PEPS expectation with
    non-increasing error as the truncation grows."""
    peps = random_peps(2, 3, D=2, perturbation=0.25, seed=11)
    tn = build_norm_network(peps)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-13)
    assert res.converged
    repl = peps_replacements(peps, {"0,1": SZ})
    want = exact_contract(tn.replace_tensors(repl)) / exact_contract(tn)
    prob = InsertionProblem(res.messages, repl)
    for fn in (expval_ratio_tensors, expval_derivative_tensors,
               expval_cumulant_tensors):
        errs = [abs(fn(prob, m).value - want) for m in (4, 6, 8)]
        assert errs[0] >= errs[1] >= errs[2], (fn.__name__, errs)
    errs_k = [abs(expval_region_sum_tensors(prob, k).value - want)
              for k in (2, 4, 6)]
    assert errs_k[0] >= errs_k[1] >= errs_k[2]
    err_bp = abs(expval_bp_tensors(prob).value - want)
    assert errs_k[2] < err_bp


def test_acceptance_8_expval_suite_ising():
    """Classical magnetization near the symmetric point: non-increasing
    error in m for each series estimator and 1e-3 relative accuracy for
    the ratio form at m = girth + 4 = 8."""
    p = IsingParams(L=4, beta=0.15, h=1e-5)
    tn = ising_network(p)
    res = bp_iterate(tn, uniform_messages(tn), tol=1e-14)
    assert res.converged
    ms = res.messages
    repl = ising_insertion(tn, p, {"1,1": SZ})
    want = exact_contract(tn.replace_tensors(repl)) / exact_contract(tn)
    prob = InsertionProblem(ms, repl)
    estimators = {"ratio": expval_ratio_tensors,
                  "derivative": expval_derivative_tensors,
                  "cumulant": expval_cumulant_tensors}
    rel = {}
    for name, fn in estimators.items():
        errs = [abs(fn(prob, m).value - want) / abs(want) for m in (4, 6, 8)]
        assert errs[0] >= errs[1] >= errs[2], (name, errs)
        rel[name] = errs[2]
    errs_k = [abs(expval_region_sum_tensors(prob, k).value - want)
              / abs(want) for k in (2, 4, 6)]
    assert errs_k[0] >= errs_k[1] >= errs_k[2]
    assert rel["ratio"] <= 1e-3


# === 9. correlators =========================================================

class CorrScan:
    """Derivative-form correlator scan on the 4x4 torus at beta=0.2 with
    exact oracles, truncated at m = d + 4 for each distance d."""

    L, BETA = 4, 0.2
    SITES = {1: "0,1", 2: "0,2", 3: "1,2", 4: "2,2"}

    def __init__(self):
        p = IsingParams(L=self.L, beta=self.BETA)
        tn = ising_network(p)
        ms = ising_paramagnetic_messages(p, tn)
        z = exact_contract(tn)
        self.estimates, self.exact = [], {}
        for d, site in self.SITES.items():
            ra = ising_insertion(tn, p, {"0,0": SZ})
            rb = ising_insertion(tn, p, {site: SZ})
            both = dict(ra)
            both.update(rb)
            # <s_a s_b> is the connected correlator at zero field
            self.exact[d] = exact_contract(
                tn.replace_tensors(both)) / z
            est = expval_derivative_tensors(
                InsertionProblem(ms, both), d + 4)
            assert est.distance == d
            self.estimates.append(est)


@pytest.fixture(scope="module")
def corr_scan():
    return CorrScan()


def _torus_spin_sum_polys(L, a, b):
    """Exact high-temperature polynomials of the zero-field Ising model on
    the L x L torus, from spin sums over all 2^(L*L) configurations.

    Each bond weight is exp(beta s s') = cosh(beta) (1 + t s s') with
    t = tanh(beta), so a configuration with k satisfied bonds contributes
    (1 + t)^k (1 - t)^(n_bonds - k).  Returns integer coefficient lists
    (num, den) in t with <s_a s_b> = num(t) / den(t): den counts the even
    subgraphs by edge number, num the subgraphs odd exactly at a and b.
    """
    n = L * L
    sites = [(i, j) for i in range(L) for j in range(L)]
    idx = {s: k for k, s in enumerate(sites)}
    bonds = [(idx[(i, j)], idx[(i, (j + 1) % L)]) for (i, j) in sites]
    bonds += [(idx[(i, j)], idx[((i + 1) % L, j)]) for (i, j) in sites]
    conf = np.arange(1 << n)[:, None]
    spins = 1 - 2 * ((conf >> np.arange(n)) & 1)
    u, v = np.array(bonds).T
    satisfied = (spins[:, u] == spins[:, v]).sum(axis=1)
    nb = len(bonds)
    binom = [[math.comb(k, r) for r in range(k + 1)] for k in range(nb + 1)]

    def poly(sign):
        hist = np.bincount(satisfied, weights=sign, minlength=nb + 1)
        out = [0] * (nb + 1)
        for k, c in enumerate(hist):
            c = int(round(c))
            for r, x in enumerate(binom[k]):            # (1 + t)^k
                for q, y in enumerate(binom[nb - k]):   # (1 - t)^(nb - k)
                    out[r + q] += c * x * y * (-1) ** q
        assert all(x % (1 << n) == 0 for x in out)
        return [x >> n for x in out]

    return (poly(spins[:, idx[a]] * spins[:, idx[b]]),
            poly(np.ones(len(spins))))


def _series_quotient(num, den, order):
    """Coefficients of num / den as a power series through t^order."""
    q = []
    for k in range(order + 1):
        c = Fraction(num[k]) - sum(den[k - i] * q[i] for i in range(k))
        q.append(c / den[0])
    return q


def _poly_at(coeffs, t):
    return sum(Fraction(c) * t ** k for k, c in enumerate(coeffs))


def test_acceptance_9_correlator_accuracy(corr_scan):
    """The truncated derivative correlator is the exact order-m series.

    At zero field the BP fixed point is uniform and the cluster expansion
    of <s_a s_b> is the high-temperature series in t = tanh(beta), so the
    estimate at truncation m = d + 4 must equal the series of
    num(t) / den(t) through t^m, with num and den counted exactly by
    spin sums (no engine code involved).  Each estimate matches that
    truncated series to 1e-12 relative; a single dropped or miscounted
    cluster of order <= m would shift it by at least t^m >= 5e-5
    relative.  The oracle's full ratio matches exact contraction to
    1e-12, which pins the oracle itself.

    The omitted tail (orders > m) is a property of the torus, not of the
    estimator: 5.85e-3, 3.27e-3, 2.47e-3 and 5.87e-3 relative for
    d = 1..4 at m = d + 4, from wrapping paths (e.g. the (0,0)-(0,1)
    coefficients 1, 3, 21, 123, 13, -4453 of t^1..t^11).  A 1e-3 target
    is first met at m = d + 8, out of reach of this fixture's run time.
    The error against exact contraction is asserted to be that tail.

    This test pins the order-m series, not an accuracy bound: an
    estimator that becomes more accurate at the same m (by resummation,
    say) must raise the order of the oracle's series to match.
    """
    t = Fraction(math.tanh(corr_scan.BETA))
    for est in corr_scan.estimates:
        d = est.distance
        b = tuple(int(x) for x in corr_scan.SITES[d].split(","))
        num, den = _torus_spin_sum_polys(corr_scan.L, (0, 0), b)
        m = d + 4
        want = float(_poly_at(_series_quotient(num, den, m), t))
        assert abs(est.value - want) <= 1e-12 * abs(want), (d, est.value,
                                                            want)
        full = float(_poly_at(num, t) / _poly_at(den, t))
        exact = corr_scan.exact[d]
        assert abs(exact - full) <= 1e-12 * abs(full), (d, exact, full)
        # the error against the exact value is the series' own tail (to
        # the sum of the two 1e-12 agreements above)
        tail = abs(full - want)
        assert abs(abs(est.value - exact) - tail) <= 2e-12 * abs(full), (
            d, abs(est.value - exact), tail)


def test_acceptance_9_correlation_length_fit(corr_scan):
    """R^2 >= 0.99 for the correlation-length fit of |C(d)| vs d.

    The fit model is C(d) ~ A N_d exp(-d / xi) with N_d the number of
    shortest paths between the sites (1, 2, 6, 24 here), the leading
    linking-string term of the cluster representation.  The estimates
    give R^2 ~ 0.9989 and a slope of ~ -1.615, next to the per-edge decay
    log(tanh 0.2) = -1.623.  The plain fit of log|C| ignores N_d and gives
    only R^2 ~ 0.966 on this geometry (also from the exact values); it
    stays in the diagnostics.
    """
    xi, diag = correlation_length(corr_scan.estimates)
    assert math.isfinite(xi)
    assert [e.paths for e in corr_scan.estimates] == [1, 2, 6, 24]
    assert diag["r_squared"] >= 0.99, diag
    assert abs(diag["slope"] - math.log(math.tanh(corr_scan.BETA))) < 0.02
    assert diag["plain_r_squared"] < diag["r_squared"], diag


def test_acceptance_9_estimator_agreement(corr_scan):
    """The correlation length is finite; the ratio and derivative forms
    agree to 1e-10 where both converge."""
    xi, diag = correlation_length(corr_scan.estimates)
    assert math.isfinite(xi) and xi > 0
    assert not diag["non_decaying"]

    peps = random_peps(2, 3, D=2, perturbation=0.05, seed=11)
    tn = build_norm_network(peps)
    ms = bp_iterate(tn, uniform_messages(tn), tol=1e-13).messages
    op = SZ + 0.4 * SX
    a = peps_replacements(peps, {"0,0": op})
    b = peps_replacements(peps, {"0,2": op})
    prob = InsertionProblem(ms, {**a, **b})
    r = correlator_ratio_tensors(prob, 6)
    d = expval_derivative_tensors(prob, 6)
    assert abs(r.value - d.value) <= 1e-10


def test_acceptance_9_third_joint_cumulant():
    """p = 3 joint cumulant on a PEPS matches the statevector oracle to
    1e-4."""
    peps = random_peps(2, 3, D=2, perturbation=0.35, seed=11)
    tn = build_norm_network(peps)
    ms = bp_iterate(tn, uniform_messages(tn), tol=1e-13).messages
    sites = ("0,0", "0,2", "1,1")
    repls = peps_replacements(peps, {s: SZ for s in sites})
    got = expval_derivative_tensors(InsertionProblem(ms, repls), 8).value

    z = exact_contract(tn)

    def ev(sub):
        repl = peps_replacements(peps, {s: SZ for s in sub})
        return exact_contract(tn.replace_tensors(repl)) / z

    ea, eb, ec = (ev([s]) for s in sites)
    eab, eac, ebc = ev(sites[:2]), ev(sites[::2]), ev(sites[1:])
    eabc = ev(sites)
    want = (eabc - eab * ec - eac * eb - ebc * ea + 2 * ea * eb * ec)
    assert abs(got - want) <= 1e-4


# === 10. error grows toward criticality ====================================

def test_acceptance_10_error_monotone_toward_critical(ising66):
    """At fixed truncation m=8 on the 6x6 torus the free-energy error
    grows monotonically as beta approaches the critical point."""
    errs = []
    for beta in (0.20, 0.30, 0.40, 0.44):
        p = IsingParams(L=6, beta=beta)
        tn = ising_network(p)
        ms = ising_paramagnetic_messages(p, tn)
        table = evaluate_weights(ms, ising66.loops)
        fr = free_energy_truncated(ms, ising66.loops, 8, weight_table=table)
        errs.append(abs(fr.f_m - (-ising_exact_logZ(p))))
    assert errs[0] < errs[1] < errs[2] < errs[3], errs


# === 11. deterministic outputs and bit-exact files =========================

def test_acceptance_11_reproducibility(tmp_path):
    """CSV bodies are byte-stable across reruns (only the timestamp header
    varies) and network files round-trip bit-exactly."""
    from bptn.cli import main
    from bptn.tnio import load_messages, load_network, save_network

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["loops", "--generate", "ising:L=4,beta=0.2", "-m", "6",
            "--seed", "5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0

    def body(path):
        return [l for l in path.read_text().splitlines()
                if not l.startswith("# timestamp=")]

    assert body(a) == body(b)
    header = a.read_text().splitlines()
    assert header[0].startswith("# engine=bptn ")
    assert header[1].startswith("# config=")

    peps = random_peps(2, 3, D=3, perturbation=0.3, seed=13)
    tn = build_norm_network(peps)
    ms = bp_iterate(tn, uniform_messages(tn), tol=1e-12).messages
    path = tmp_path / "net.json"
    save_network(path, tn, messages=ms)
    back = load_network(path)
    ms2 = load_messages(path, back)
    for v in tn.graph.vertices:
        assert np.array_equal(back.tensors[v].data, tn.tensors[v].data)
    assert ms2.plan.slot == ms.plan.slot
    for d, x in ms.data.items():
        assert np.array_equal(ms2.data[d], x)
    # a second save of the loaded network is byte-identical
    path2 = tmp_path / "net2.json"
    save_network(path2, back, messages=ms2)
    assert path.read_bytes() == path2.read_bytes()
