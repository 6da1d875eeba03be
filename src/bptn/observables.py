"""Observable and correlator estimators on a BP background.

All estimators share one mechanism: a closed background network, a
converged MessageSet, and per-region *replacement tensors* that implement
the operator insertion (for a PEPS norm network these are double tensors
with the operator sandwiched, from ``network.peps_replacements``; for
classical networks any modified site tensor).  Multi-site regions are merged into a supervertex first, so the
string/cluster machinery always sees single terminal vertices.

Weight conventions: for a decorated network X the bar-normalized weight
Zbar^X_l divides by the *undecorated* local factors; the ratio-normalized
weight Z^X_l divides by the decorated ones, i.e. Z^X_l =
Zbar^X_l / prod of BP expectations over the inserted sites in the
support.  Ratio/cumulant estimators use the ratio normalization;
derivative (polynomial) estimators use the bar normalization and never
divide by a loop weight.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bp import MessageSet, bp_local_factor, merge_messages
from .clusters import Cluster, enumerate_clusters, ursell
from .cumulants import (connected_loop_subsets, counting_numbers, cumulant,
                        find_regions_local, guarded_log, region_partition)
from .errors import (InsufficientPoints, OverlappingRegions, PCapExceeded,
                     ZeroLocalFactor, ZeroRegionValue)
from .loops import enumerate_strings, excitation_weight, local_factors
from .network import TensorNetwork, merge_region, shortest_paths

P_CAP = 3


class ExpectationEstimate:
    def __init__(self, value, method, diagnostics=None):
        self.value = complex(value)
        self.method = method
        self.diagnostics = diagnostics or {}

    def __repr__(self):
        return f"ExpectationEstimate({self.value}, {self.method!r})"


class CorrelatorEstimate:
    """A correlator value at graph distance ``distance`` between regions
    joined by ``paths`` shortest paths."""

    def __init__(self, value, method, distance, diagnostics=None, paths=1):
        self.value = complex(value)
        self.method = method
        self.distance = distance
        self.paths = paths
        self.diagnostics = diagnostics or {}

    def __repr__(self):
        return (f"CorrelatorEstimate({self.value}, {self.method!r}, "
                f"d={self.distance})")


class InsertionProblem:
    """Shared state for estimators: merged network, messages, regions.

    ``regions`` is a list of vertex sets; ``replacements`` a parallel list
    of {vertex: replacement DenseTensor} maps.  After construction each
    region is a single (super)vertex id in ``self.region_ids``.  For two
    regions ``distance`` and ``paths`` hold their graph distance and the
    number of shortest paths between them; otherwise both are None.
    """

    def __init__(self, tn: TensorNetwork, messages: MessageSet,
                 regions, replacements):
        regions = [frozenset(str(v) for v in r) for r in regions]
        for i in range(len(regions)):
            for j in range(i + 1, len(regions)):
                if regions[i] & regions[j]:
                    raise OverlappingRegions(
                        f"regions {i} and {j} share vertices")
        self.distance = self.paths = None
        if len(regions) == 2:
            self.distance, self.paths = shortest_paths(
                tn.graph, regions[0], regions[1])
        self.base = tn
        self.messages = messages
        self.region_ids = []
        self.replacements = {}  # region id -> replacement tensor
        for region, repl in zip(regions, replacements):
            if len(region) == 1:
                (v,) = region
                self.region_ids.append(v)
                self.replacements[v] = repl[v]
            else:
                merged, fused, new_id = merge_region(self.base, region)
                repl_merged, _, _ = merge_region(
                    self.base.replace_tensors(repl), region)
                self.messages = merge_messages(
                    merged, fused, self.messages, region, new_id)
                # messages for previously merged regions are unaffected
                self.base = merged
                self.region_ids.append(new_id)
                self.replacements[new_id] = repl_merged.tensors[new_id]
        self._factors = {}       # vertex -> base z_v
        self._weights = {}       # (loop key, inserted-region frozenset) -> value
        self._decorated = {}     # inserted-region frozenset -> network
        self._alphas = None

    # -- BP-level quantities ------------------------------------------------

    def alpha(self, rid) -> complex:
        """BP expectation of the insertion at one region."""
        z = bp_local_factor(self.base, self.messages, rid)
        z_o = bp_local_factor(
            self.base.replace_tensors({rid: self.replacements[rid]}),
            self.messages, rid)
        return z_o / z

    def alphas(self):
        if self._alphas is None:
            self._alphas = {r: self.alpha(r) for r in self.region_ids}
        return self._alphas

    def factors(self, vertices) -> dict:
        missing = [v for v in vertices if str(v) not in self._factors]
        if missing:
            self._factors.update(
                local_factors(self.base, self.messages, missing))
        return self._factors

    def network(self, inserted) -> TensorNetwork:
        key = frozenset(inserted)
        if key not in self._decorated:
            self._decorated[key] = self.base.replace_tensors(
                {r: self.replacements[r] for r in key})
        return self._decorated[key]

    def strings(self, max_weight, budget=10 ** 7):
        return enumerate_strings(
            self.base.graph, [{r} for r in self.region_ids], max_weight,
            budget)

    def bar_weight(self, loop, inserted=frozenset()) -> complex:
        """Weight on the decorated network, base-z normalized."""
        inserted = frozenset(r for r in inserted if r in loop.vertices)
        key = (loop.key, inserted)
        if key not in self._weights:
            fac = self.factors(loop.vertices)
            self._weights[key] = excitation_weight(
                self.network(inserted), self.messages, loop, factors=fac).value
        return self._weights[key]

    def ratio_weight(self, loop, inserted=frozenset()) -> complex:
        """Weight on the decorated network, decorated-z normalized."""
        val = self.bar_weight(loop, inserted)
        for r in inserted:
            if r in loop.vertices:
                a = self.alphas()[r]
                if abs(a) < 1e-12:
                    raise ZeroLocalFactor(
                        f"BP expectation at region {r!r} below floor; "
                        "ratio normalization undefined")
                val /= a
        return val


# --- multilinear cluster polynomials (derivative forms) --------------------

def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            ex = tuple(x + y for x, y in zip(ea, eb))
            if any(x > 1 for x in ex):
                continue  # cannot contribute to the multilinear coefficient
            out[ex] = out.get(ex, 0.0 + 0j) + ca * cb
    return out


def _loop_poly(prob: InsertionProblem, loop, var_regions) -> dict:
    """Z_{l,lambda} to first order in each lambda: exponent tuple -> coeff.

    coeff(S) = sum_{T subset S} (-1)^{|S|-|T|} Zbar^T_l prod_{x in S-T}
    alpha_x, nonzero only when every region in S touches the support.
    """
    p = len(var_regions)
    alph = prob.alphas()
    poly = {}
    touching = [i for i, r in enumerate(var_regions) if r in loop.vertices]
    for smask in range(1 << len(touching)):
        S = [touching[i] for i in range(len(touching)) if smask & (1 << i)]
        coeff = 0.0 + 0j
        for tmask in range(1 << len(S)):
            T = [S[i] for i in range(len(S)) if tmask & (1 << i)]
            sign = -1 if (len(S) - len(T)) % 2 else 1
            val = prob.bar_weight(loop, frozenset(var_regions[i] for i in T))
            for i in S:
                if i not in T:
                    val *= alph[var_regions[i]]
            coeff += sign * val
        ex = tuple(1 if i in S else 0 for i in range(p))
        poly[ex] = coeff
    return poly


def _cluster_mixed_coeff(prob, cluster: Cluster, var_regions) -> complex:
    """Coefficient of lambda_1...lambda_p in prod_l Z_{l,lambda}^eta."""
    p = len(var_regions)
    poly = {(0,) * p: 1.0 + 0j}
    for l, eta in cluster.members:
        lp = _loop_poly(prob, l, var_regions)
        for _ in range(eta):
            poly = _poly_mul(poly, lp)
    return poly.get((1,) * p, 0.0 + 0j)


# --- expectation estimators ------------------------------------------------

def expval_bp_tensors(tn, messages, replacements) -> ExpectationEstimate:
    """BP expectation: ratio of local factors on the inserted region."""
    prob = InsertionProblem(tn, messages, [set(replacements)], [replacements])
    (rid,) = prob.region_ids
    return ExpectationEstimate(prob.alphas()[rid], "BP")


def _anchored_clusters(prob, m, budget=10 ** 7):
    strings = prob.strings(m, budget)
    return strings, enumerate_clusters(
        strings, m, anchor=set(prob.region_ids), budget=budget)


def expval_ratio_tensors(tn, messages, replacements, m,
                         budget=10 ** 7) -> ExpectationEstimate:
    prob = InsertionProblem(tn, messages, [set(replacements)], [replacements])
    (rid,) = prob.region_ids
    _, clusters = _anchored_clusters(prob, m, budget)
    total = 0.0 + 0j
    per_order = {}
    for c in clusters:
        zo = 1.0 + 0j
        z = 1.0 + 0j
        for l, eta in c.members:
            zo *= prob.ratio_weight(l, frozenset([rid])) ** eta
            z *= prob.bar_weight(l) ** eta
        term = float(ursell(c)) * (zo - z)
        total += term
        per_order[c.weight] = per_order.get(c.weight, 0.0) + abs(term)
    val = prob.alphas()[rid] * cmath.exp(total)
    return ExpectationEstimate(val, f"ratio({m})", {"per_order": per_order})


def expval_derivative_tensors(tn, messages, replacements, m,
                              budget=10 ** 7) -> ExpectationEstimate:
    prob = InsertionProblem(tn, messages, [set(replacements)], [replacements])
    (rid,) = prob.region_ids
    _, clusters = _anchored_clusters(prob, m, budget)
    total = 0.0 + 0j
    per_order = {}
    for c in clusters:
        term = float(ursell(c)) * _cluster_mixed_coeff(prob, c, (rid,))
        total += term
        per_order[c.weight] = per_order.get(c.weight, 0.0) + abs(term)
    val = prob.alphas()[rid] + total
    return ExpectationEstimate(val, f"derivative({m})",
                               {"per_order": per_order})


def expval_cumulant_tensors(tn, messages, replacements, m,
                            budget=10 ** 7) -> ExpectationEstimate:
    prob = InsertionProblem(tn, messages, [set(replacements)], [replacements])
    (rid,) = prob.region_ids
    strings = prob.strings(m, budget)
    subsets = connected_loop_subsets(strings, m, anchor={rid}, budget=budget)
    base_table = {l.key: prob.bar_weight(l) for l in strings}
    dec_table = {l.key: prob.ratio_weight(l, frozenset([rid]))
                 for l in strings}
    total = 0.0 + 0j
    for s in subsets:
        total += cumulant(s, dec_table) - cumulant(s, base_table)
    val = prob.alphas()[rid] * cmath.exp(total)
    return ExpectationEstimate(val, f"cumulant({m})")


def expval_region_sum_tensors(tn, messages, replacements, k,
                              budget=10 ** 7) -> ExpectationEstimate:
    prob = InsertionProblem(tn, messages, [set(replacements)], [replacements])
    (rid,) = prob.region_ids
    poset = find_regions_local(prob.base.graph, k, rid, budget)
    b = counting_numbers({r.key: r.vertices for r in poset})
    repl = {rid: prob.replacements[rid]}
    total = 0.0 + 0j
    terms = {}
    for r in poset:
        if b[r.key] == 0:
            continue
        raw, _ = region_partition(prob.base, prob.messages, r)
        raw_o, _ = region_partition(prob.base, prob.messages, r,
                                    replacements=repl)
        val = raw_o / raw
        terms[r.key] = (b[r.key], val)
        total += b[r.key] * val
    return ExpectationEstimate(total, f"region_sum({k})", {"terms": terms})


def expval_region_product_tensors(tn, messages, replacements, k,
                                  budget=10 ** 7) -> ExpectationEstimate:
    prob = InsertionProblem(tn, messages, [set(replacements)], [replacements])
    (rid,) = prob.region_ids
    poset = find_regions_local(prob.base.graph, k, rid, budget)
    b = counting_numbers({r.key: r.vertices for r in poset})
    repl = {rid: prob.replacements[rid]}
    log_total = 0.0 + 0j
    for r in poset:
        if b[r.key] == 0:
            continue
        raw, _ = region_partition(prob.base, prob.messages, r)
        raw_o, _ = region_partition(prob.base, prob.messages, r,
                                    replacements=repl)
        val = raw_o / raw
        if val == 0:
            raise ZeroRegionValue(f"zero region expectation on {r.key}")
        log_total += b[r.key] * guarded_log(val, f"<O>_{r.key}")
    return ExpectationEstimate(cmath.exp(log_total), f"region_product({k})")


# --- correlators -----------------------------------------------------------

def _pair_problem(tn, messages, repl_a, repl_b):
    return InsertionProblem(tn, messages,
                            [set(repl_a), set(repl_b)], [repl_a, repl_b])


def _linking_clusters(prob, m, budget):
    strings = prob.strings(m, budget)
    a, b = prob.region_ids
    clusters = enumerate_clusters(strings, m, anchor={a}, budget=budget)
    return [c for c in clusters if b in c.support]


def correlator_ratio_tensors(tn, messages, repl_a, repl_b, m,
                             budget=10 ** 7) -> CorrelatorEstimate:
    prob = _pair_problem(tn, messages, repl_a, repl_b)
    a, b = prob.region_ids
    total = 0.0 + 0j
    for c in _linking_clusters(prob, m, budget):
        z = zo_a = zo_b = zo_ab = 1.0 + 0j
        for l, eta in c.members:
            z *= prob.bar_weight(l) ** eta
            zo_a *= prob.ratio_weight(l, frozenset([a])) ** eta
            zo_b *= prob.ratio_weight(l, frozenset([b])) ** eta
            zo_ab *= prob.ratio_weight(l, frozenset([a, b])) ** eta
        total += float(ursell(c)) * (zo_ab + z - zo_a - zo_b)
    # prefactors at the same truncation order
    ea = expval_ratio_tensors(tn, messages, repl_a, m, budget)
    eb = expval_ratio_tensors(tn, messages, repl_b, m, budget)
    val = ea.value * eb.value * (cmath.exp(total) - 1.0)
    return CorrelatorEstimate(val, f"ratio({m})", prob.distance,
                              paths=prob.paths)


def correlator_derivative_tensors(tn, messages, repl_a, repl_b, m,
                                  budget=10 ** 7) -> CorrelatorEstimate:
    prob = _pair_problem(tn, messages, repl_a, repl_b)
    a, b = prob.region_ids
    total = 0.0 + 0j
    for c in _linking_clusters(prob, m, budget):
        total += float(ursell(c)) * _cluster_mixed_coeff(prob, c, (a, b))
    return CorrelatorEstimate(total, f"derivative({m})", prob.distance,
                              paths=prob.paths)


def correlator_ppoint_tensors(tn, messages, repl_list, m,
                              budget=10 ** 7) -> CorrelatorEstimate:
    """p-th joint cumulant via multilinear cluster differentiation."""
    p = len(repl_list)
    if p > P_CAP:
        raise PCapExceeded(f"p = {p} exceeds cap {P_CAP}")
    prob = InsertionProblem(tn, messages, [set(r) for r in repl_list],
                            repl_list)
    rids = tuple(prob.region_ids)
    strings = prob.strings(m, budget)
    clusters = enumerate_clusters(strings, m, anchor={rids[0]}, budget=budget)
    total = 0.0 + 0j
    for c in clusters:
        if not all(r in c.support for r in rids):
            continue
        total += float(ursell(c)) * _cluster_mixed_coeff(prob, c, rids)
    if p == 1:
        total += prob.alphas()[rids[0]]
    return CorrelatorEstimate(total, f"ppoint({p},{m})", prob.distance,
                              paths=prob.paths)


def _log_linear_fit(d, y):
    """Least-squares line y ~ intercept + slope * d: (slope, icpt, R^2)."""
    A = np.vstack([d, np.ones_like(d)]).T
    (slope, icpt), *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_res = float(np.sum((y - A @ np.array([slope, icpt])) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(icpt), r2


def correlation_length(estimates):
    """Fit C(d) ~ A * N_d * exp(-d / xi): (xi, diagnostics).

    N_d is each estimate's count of shortest paths between its two
    regions (``CorrelatorEstimate.paths``).  The model is the leading
    term of the cluster representation of a connected correlator: the
    lowest-order clusters linking the regions are the N_d strings along
    the shortest paths, each a product of d per-edge factors.  The fit is
    least squares of log(|C| / N_d) against d; with every N_d = 1 it is
    the plain fit of log|C|.  So xi is the per-edge decay length once the
    N_d shortest paths are divided out, not the decay length of |C(d)|.
    ``diagnostics`` also carries the plain fit of log|C| (``plain_slope``,
    ``plain_intercept``, ``plain_r_squared``).

    Needs >= 3 distances with nonzero correlator values.
    """
    pts = [e for e in estimates if abs(e.value) > 0]
    if len({e.distance for e in pts}) < 3:
        raise InsufficientPoints(
            "need >= 3 distances with nonzero correlators")
    d = np.array([float(e.distance) for e in pts])
    y = np.log([abs(e.value) for e in pts])
    slope, icpt, r2 = _log_linear_fit(
        d, y - np.log([float(e.paths) for e in pts]))
    p_slope, p_icpt, p_r2 = _log_linear_fit(d, y)
    diagnostics = {"model": "A*N_d*exp(-d/xi)",
                   "slope": slope, "intercept": icpt,
                   "r_squared": r2, "n_points": len(pts),
                   "non_decaying": slope >= 0,
                   "plain_slope": p_slope, "plain_intercept": p_icpt,
                   "plain_r_squared": p_r2}
    xi = math.inf if slope >= 0 else -1.0 / slope
    return xi, diagnostics
