"""Observable and correlator estimators on a BP background.

Every estimator is a resummation of one expansion, owned by an
``InsertionProblem``: a converged MessageSet on a closed background
network, and the insertion's {site: replacement tensor} map, each site
one region (PEPS double tensors from ``network.peps_replacements``, or any
modified site tensor).  The object enumerates strings, clusters, loop
subsets and regions once per truncation and caches every weight, so
estimators that share it share that work; a pair's expansion also holds
each site's own clusters (``clusters(m, sites)``).

A ratio-form estimator is one cluster sum, ``cluster_sums`` or
``cumulant_sums``, under several weight lookups (``table``): log<O> =
log alpha + S_O - S_0 with S_X = sum of phi(W) prod_l (Z^X_l)^eta.  The
ratio-normalized Z^X_l is the bar-normalized Zbar^X_l, which divides by
the undecorated local factors, over the BP expectations of the inserted
sites on l.  The derivative estimator takes the lambda_1...lambda_p
coefficient of the same sum, each loop's weight a first-order polynomial
in the regions' source strengths lambda_x built from its Zbar^X_l; it
never divides by a loop weight.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bp import MessageSet, local_factors
from .clusters import cluster_sums, cluster_value, enumerate_clusters, ursell
from .cumulants import connected_loop_subsets, counting_numbers, cumulant_sums
# the name perfbench/tracing.py wraps
from .cumulants import find_regions as find_regions_local
from .cumulants import region_partition
from .errors import InsufficientPoints, PCapExceeded, ZeroLocalFactor
from .loops import enumerate_strings, excitation_weight
from .network import bfs

P_CAP = 3


class Estimate:
    """An estimator's value; a correlator also carries the graph
    ``distance`` between its regions and the number of shortest ``paths``
    joining them."""

    def __init__(self, value, method, distance=None, paths=1):
        self.value = complex(value)
        self.method = method
        self.distance = distance
        self.paths = paths

    def __repr__(self):
        return f"Estimate({self.value}, {self.method!r}, d={self.distance})"


class InsertionProblem:
    """One insertion's expansion: messages, regions, and the strings,
    clusters, loop subsets, regions and weights built on them.

    ``replacements`` is the {site: replacement DenseTensor} map of the
    insertion; each site is one region, and ``region_ids`` lists them in
    the map's key order.  ``base`` is the messages' network; a site it
    lacks, or a tensor whose legs do not fit its site, is refused with
    ``DimensionMismatch``.  For two regions ``distance`` and ``paths``
    hold their graph distance and the number of shortest paths between
    them (inf and 0 when they are not connected); otherwise both are None.
    """

    def __init__(self, messages: MessageSet, replacements: dict):
        self.base = messages.plan.tn
        self.messages = messages
        self.replacements = dict(replacements)
        self.base.replace_tensors(self.replacements)  # refuses a misfit
        self.region_ids = list(self.replacements)
        self.distance = self.paths = None
        if len(self.region_ids) == 2:
            a, b = self.region_ids
            dist, paths = bfs(self.base.graph, {a})
            self.distance, self.paths = dist.get(b, math.inf), paths.get(b, 0)
        self._weights = {}       # (loop key, inserted-region frozenset) -> value
        self._alphas = None
        self._memo = {}          # (what, truncation) -> enumeration result

    # -- BP-level quantities ------------------------------------------------

    def alphas(self):
        """BP expectation of the insertion at each region; the decorated
        z_v is unfloored, since 0 is an expectation (``table`` refuses to
        divide by it)."""
        if self._alphas is None:
            base = local_factors(self.messages, self.region_ids)
            self._alphas = {r: complex(z) / base[r] for r, (_, z) in zip(
                self.region_ids, self.messages.dressed([
                    (r, self.replacements[r], ())
                    for r in self.region_ids]))}
        return self._alphas

    # -- the expansion, once per truncation ---------------------------------

    def _memoized(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def strings(self, m):
        """Strings of weight <= m ending on the regions."""
        return self._memoized(("strings", m), lambda: enumerate_strings(
            self.base.graph, self.region_ids, m))

    def _anchored(self, m):
        """Clusters of weight <= m whose support meets a region,
        enumerated once; ``clusters`` and ``loop_subsets`` filter them."""
        return self._memoized(("anchored", m), lambda: enumerate_clusters(
            self.strings(m), m, anchor=self.region_ids))

    def clusters(self, m, sites=None):
        """Clusters of weight <= m whose support holds ``sites`` (every
        region by default) and none of whose strings has a leaf at another
        region: those of the expansion with only ``sites`` inserted."""
        sites = tuple(self.region_ids if sites is None else sites)
        ends = [{e for e, _ in self.base.graph.incident(r)}
                for r in self.region_ids if r not in sites]
        return self._memoized(("clusters", m, sites), lambda: [
            c for c in self._anchored(m) if all(r in c.support for r in sites)
            and not any(len(l.edges & e) == 1 for l in c.loops for e in ends)])

    def loop_subsets(self, m):
        """Connected string subsets of weight <= m at the first region."""
        return self._memoized(("subsets", m), lambda: connected_loop_subsets(
            [c for c in self._anchored(m)
             if self.region_ids[0] in c.support]))

    def regions(self, k):
        """Region poset of size <= k anchored at the first region."""
        return self._memoized(("regions", k), lambda: find_regions_local(
            self.base.graph, k, self.region_ids[0]))

    # -- weights ------------------------------------------------------------

    def weigh(self, loops):
        """Bar weights of each loop with every subset of the regions on it
        inserted: the table an estimator reads, computed in one bulk call
        for the entries not cached yet."""
        todo = {}
        for loop in loops:
            on = [r for r in self.region_ids if r in loop.vertices]
            for mask in range(1 << len(on)):
                inserted = frozenset(r for k, r in enumerate(on)
                                     if mask >> k & 1)
                if (loop.key, inserted) not in self._weights:
                    todo[loop.key, inserted] = (
                        {r: self.replacements[r] for r in inserted}, loop)
        if todo:
            self._weights.update(zip(todo, excitation_weight(
                self.messages, list(todo.values()))))

    def bar_weight(self, loop, inserted=frozenset()) -> complex:
        """Weight with the ``inserted`` regions replaced, base-z
        normalized: an entry of the table ``weigh`` computed."""
        return self._weights[loop.key, frozenset(
            r for r in inserted if r in loop.vertices)]

    def table(self, clusters, inserted=()) -> dict:
        """{loop key: Z^X_l} over the loops of ``clusters``, X the
        ``inserted`` regions: the bar weight over the BP expectation of
        each region of X on the loop, weighed as ``weigh`` does."""
        loops = list({l.key: l for c in clusters for l in c.loops}.values())
        self.weigh(loops)
        a = self.alphas()
        for r in inserted:
            if abs(a[r]) < 1e-12 and any(r in l.vertices for l in loops):
                raise ZeroLocalFactor(f"BP expectation at region {r!r} below "
                                      "floor; ratio normalization undefined")
        return {l.key: self.bar_weight(l, inserted) / math.prod(
            a[r] for r in inserted if r in l.vertices) for l in loops}


# --- first-order weights (derivative forms) -------------------------------

class _Jet(dict):
    """An element of C[lambda_1..lambda_p]/(lambda_i^2), {monomial bit
    mask: coefficient} with absent monomials zero.  It multiplies as
    ``cluster_value`` needs: by another element (subset convolution) or a
    scalar, and ``**`` is repeated ``*``."""

    def __mul__(self, other):
        out = _Jet()
        for s, a in self.items():
            for t, b in other.items():
                if not s & t:
                    out[s | t] = out.get(s | t, 0.0 + 0j) + a * b
        return out

    def __rmul__(self, scalar):
        return _Jet({0: scalar}) * self

    def __pow__(self, eta):
        return math.prod([self] * eta)


def _jet_table(prob: InsertionProblem, clusters) -> dict:
    """{loop key: Z_l to first order in each region's source lambda_x}
    over the loops of ``clusters``.  The coefficient of S is
    sum_{T subset S} Zbar^T_l prod_{x in S-T} (-alpha_x), nonzero only
    when every region of S lies on l; T runs up by mask and x in region
    order, the order that keeps each value bit for bit."""
    loops = list({l.key: l for c in clusters for l in c.loops}.values())
    prob.weigh(loops)
    rids, alph = prob.region_ids, prob.alphas()
    masks = range(1 << len(rids))
    at = [[r for i, r in enumerate(rids) if s >> i & 1] for s in masks]
    table = {}
    for l in loops:
        table[l.key] = jet = _Jet()
        for s in (s for s in masks if l.vertices.issuperset(at[s])):
            jet[s] = sum((math.prod([-alph[r] for r in at[s - t]],
                                    start=prob.bar_weight(l, at[t]))
                          for t in masks if t & s == t), 0.0 + 0j)
    return table


# --- expectation estimators ------------------------------------------------

def expval_bp_tensors(prob: InsertionProblem) -> Estimate:
    """BP expectation: ratio of local factors on the inserted region."""
    (rid,) = prob.region_ids
    return Estimate(prob.alphas()[rid], "BP")


def _ratio_expval(prob: InsertionProblem, m, r) -> complex:
    """alpha_r exp(S_r - S_0) over the clusters with only region r
    inserted: the ratio-form expectation at r."""
    clusters = prob.clusters(m, (r,))
    s_r, s_0 = cluster_sums(clusters, [prob.table(clusters, (r,)),
                                       prob.table(clusters)])
    return prob.alphas()[r] * cmath.exp(s_r - s_0)


def expval_ratio_tensors(prob: InsertionProblem, m) -> Estimate:
    (rid,) = prob.region_ids
    return Estimate(_ratio_expval(prob, m, rid), f"ratio({m})")


def expval_derivative_tensors(prob: InsertionProblem, m) -> Estimate:
    """Joint cumulant of the p <= P_CAP region insertions, the sum of
    phi(W) times the lambda_1...lambda_p coefficient of Z_W: the
    expectation value for p = 1, the connected correlator for p = 2."""
    rids = prob.region_ids
    if len(rids) > P_CAP:
        raise PCapExceeded(f"p = {len(rids)} exceeds cap {P_CAP}")
    table, top = _jet_table(prob, prob.clusters(m)), (1 << len(rids)) - 1
    total = 0.0 + 0j
    for c in prob.clusters(m):
        total += float(ursell(c)) * cluster_value(c, table)[top]
    if len(rids) == 1:
        total += prob.alphas()[rids[0]]
    return Estimate(total, f"derivative({m})", prob.distance, prob.paths)


def expval_cumulant_tensors(prob: InsertionProblem, m) -> Estimate:
    """alpha exp(K_O - K_0), K_X the loop subsets' cumulants under X."""
    (rid,) = prob.region_ids
    subsets = prob.loop_subsets(m)
    k_o, k_0 = cumulant_sums(subsets, [prob.table(subsets, (rid,)),
                                       prob.table(subsets)])
    return Estimate(prob.alphas()[rid] * cmath.exp(k_o - k_0),
                    f"cumulant({m})")


def expval_region_sum_tensors(prob: InsertionProblem, k) -> Estimate:
    """Counting-number sum of the region expectations <O>_R over the
    anchored regions of size <= k."""
    (rid,) = prob.region_ids
    poset = prob.regions(k)
    b = counting_numbers({r.key: r.vertices for r in poset})
    repl = {rid: prob.replacements[rid]}
    poset = [r for r in poset if b[r.key] != 0]
    values = region_partition(prob.messages, [
        (r, replacements) for replacements in ({}, repl) for r in poset])
    total = 0.0 + 0j
    for r, (raw, _), (raw_o, _) in zip(poset, values, values[len(poset):]):
        total += b[r.key] * (raw_o / raw)
    return Estimate(total, f"region_sum({k})")


# --- correlators -----------------------------------------------------------

def correlator_ratio_tensors(prob: InsertionProblem, m) -> Estimate:
    """Connected two-point correlator in the ratio normalization,
    e_a e_b (exp(S_ab + S_0 - S_a - S_b) - 1) over the clusters that hold
    both regions.  The prefactors e_r are the ratio-form expectations at
    the same m, read from the clusters of the same expansion that end on
    r alone.  One bulk call weighs the strings of all three."""
    a, b = prob.region_ids
    clusters = prob.clusters(m)
    ends = [c for r in (a, b) for c in prob.clusters(m, (r,))]
    prob.weigh([l for c in clusters + ends for l in c.loops])
    s_ab, s_0, s_a, s_b = cluster_sums(clusters, [
        prob.table(clusters, x) for x in ((a, b), (), (a,), (b,))])
    val = (_ratio_expval(prob, m, a) * _ratio_expval(prob, m, b)
           * (cmath.exp(s_ab + s_0 - s_a - s_b) - 1.0))
    return Estimate(val, f"ratio({m})", prob.distance, prob.paths)


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
    regions (``Estimate.paths``).  The model is the leading
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
