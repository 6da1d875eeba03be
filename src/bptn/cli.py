"""Batch front-end: load or generate networks, run the engine, emit CSV.

Exit codes: 0 ok, 2 config/input error (``InputError``, ``OSError``),
3 numerical error (``NumericalError``, ``OverflowError``), 4 budget or cap
exceeded (``BudgetError``).  CSV outputs carry a config fingerprint and
the engine version as comment header lines; bodies are byte-stable across
reruns at a fixed seed (the timestamp header line is the only varying
part).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import gc
import hashlib
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bp import (DEFAULT_DAMPING, DEFAULT_TOL, bp_free_energy, bp_iterate,
                 random_messages, stability_probe, uniform_messages)
from .clusters import free_energy_truncated
from .cumulants import (counting_numbers, cumulant_free_energy, find_regions,
                        region_free_energy)
from .errors import BudgetError, InputError, NumericalError
from .loops import enumerate_loops, evaluate_weights, loop_decay_profile
from .models import (IsingParams, ising_exact_logZ, ising_insertion,
                     ising_network, random_peps, random_tree_network,
                     single_loop_network)
from .network import (bfs, build_norm_network, exact_contract,
                      peps_replacements)
from .observables import (InsertionProblem, correlation_length,
                          correlator_ratio_tensors, expval_bp_tensors,
                          expval_cumulant_tensors, expval_derivative_tensors,
                          expval_ratio_tensors, expval_region_sum_tensors)
from .tnio import load_network

_SZ = np.diag([1.0, -1.0])

class Problem:
    """A prepared network plus whatever the generator knows about it."""

    def __init__(self, tn, ising: IsingParams | None = None, peps=None):
        self.tn = tn
        self.ising = ising
        self.peps = peps

    def insertion(self, site) -> dict:
        """Replacement tensors for the default observable at one site."""
        site = str(site)
        if site not in self.tn.graph.vertices:
            raise InputError(f"site {site!r} not in the network")
        if self.ising is not None:
            return ising_insertion(self.tn, self.ising, {site: _SZ})
        if self.peps is not None:
            return peps_replacements(self.peps, {site: _SZ})
        raise InputError(
            "expval/correlator need a generated model (ising/peps) or a "
            "PEPS input file; a bare closed network has no observable")


def _parse_spec(spec: str):
    kind, _, rest = spec.partition(":")
    params = {}
    for kv in rest.split(","):
        if not kv:
            continue
        if "=" not in kv:
            raise InputError(f"bad generator parameter {kv!r} in {spec!r}")
        k, v = kv.split("=", 1)
        params[k.strip()] = v.strip()
    return kind.strip(), params


# The parameters each generator reads; any other key is refused, so a
# misspelled one cannot run silently at its default.
_GENERATOR_KEYS = {"ising": ("L", "beta", "h", "topology"),
                   "peps": ("rows", "cols", "D", "phys_dim", "perturbation"),
                   "tree": ("n", "D"),
                   "loop": ("n",)}


def generate(spec: str, seed: int) -> Problem:
    """Generator specs:

    ising:L=4,beta=0.2,h=0    peps:rows=2,cols=3,D=2,perturbation=0.1
    tree:n=12,D=3             loop:n=6
    """
    kind, kv = _parse_spec(spec)
    if kind not in _GENERATOR_KEYS:
        raise InputError(f"unknown generator kind {kind!r}")
    unknown = sorted(set(kv) - set(_GENERATOR_KEYS[kind]))
    if unknown:
        raise InputError(
            f"unknown {kind} parameter {', '.join(map(repr, unknown))} in "
            f"{spec!r}; known: {', '.join(_GENERATOR_KEYS[kind])}")
    try:
        with np.errstate(all="ignore"):     # an overflow is refused below
            if kind == "ising":
                p = IsingParams(L=int(kv.get("L", 4)),
                                beta=float(kv.get("beta", 0.2)),
                                h=float(kv.get("h", 0.0)),
                                topology=kv.get("topology", "torus"))
                prob = Problem(ising_network(p), ising=p)
            elif kind == "peps":
                peps = random_peps(
                    int(kv.get("rows", 2)), int(kv.get("cols", 3)),
                    D=int(kv.get("D", 2)), phys_dim=int(kv.get("phys_dim", 2)),
                    perturbation=float(kv.get("perturbation", 0.1)), seed=seed)
                prob = Problem(build_norm_network(peps), peps=peps)
            elif kind == "tree":
                prob = Problem(random_tree_network(
                    int(kv.get("n", 12)), D=int(kv.get("D", 2)), seed=seed))
            else:
                prob = Problem(single_loop_network(int(kv.get("n", 6)),
                                                   seed=seed))
        if not all(np.isfinite(t.data).all()
                   for t in prob.tn.tensors.values()):
            raise OverflowError("a site tensor overflows")
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad generator spec {spec!r}: {exc}") from exc
    return prob


def _load_problem(args) -> Problem:
    if bool(args.input) == bool(args.generate):
        raise InputError("exactly one of --input / --generate is required")
    if args.input:
        tn = load_network(args.input)
        peps = None
        if tn.phys_dims:
            peps, tn = tn, build_norm_network(tn)
        return Problem(tn, peps=peps)
    return generate(args.generate, args.seed)


# Options removed from the CLI, or from the subcommands that never read
# them, with the value they always had there.  They stay in the fingerprint
# payload, so a configuration keeps its fingerprint across the removal.
_RETIRED_OPTIONS = {"threads": 1, "input": None, "max_weight": 6,
                    "region_size": 0, "tol": DEFAULT_TOL,
                    "damping": DEFAULT_DAMPING, "reference": None}


def _fingerprint(args) -> str:
    payload = dict(_RETIRED_OPTIONS)
    payload.update((k, v) for k, v in vars(args).items()
                   if k not in ("out", "func"))
    if payload["region_size"] is None:  # -k omitted: the old default 0
        payload["region_size"] = 0
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def _emit(args, fieldnames, rows, summary_lines=()):
    buf = io.StringIO()
    buf.write(f"# engine=bptn {__version__}\n")
    buf.write(f"# config={_fingerprint(args)}\n")
    buf.write(f"# timestamp={time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
    w = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow(r)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for line in summary_lines:
        print(line, file=sys.stderr)


def _converge(prob: Problem, args):
    # Settings under which BP cannot converge would run the full sweep cap
    # twice before failing; refuse them before the first sweep.
    if not 0.0 <= args.damping < 1.0:
        raise InputError(f"--damping must be in [0, 1), got {args.damping}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"--tol must be finite and positive, got {args.tol}")
    res = bp_iterate(prob.tn, uniform_messages(prob.tn), damping=args.damping,
                     tol=args.tol)
    if not res.converged:
        res2 = bp_iterate(prob.tn, random_messages(prob.tn, seed=args.seed),
                          damping=args.damping, tol=args.tol)
        if not res2.converged:
            raise NumericalError(
                f"BP did not converge (residual {res.residual:.3e} from "
                f"uniform messages, {res2.residual:.3e} from random ones)")
        res = res2
    return res


def _weighed_loops(prob: Problem, args):
    """BP messages, the loops up to weight ``-m`` and their weight table:
    the start of ``loops``, ``free-energy`` and each ``scan`` point."""
    messages = _converge(prob, args).messages
    loops = enumerate_loops(prob.tn.graph, args.max_weight)
    return messages, loops, evaluate_weights(messages, loops)


# --- subcommands -----------------------------------------------------------

def cmd_contract_exact(args):
    prob = _load_problem(args)
    z = exact_contract(prob.tn)
    rows = [{"quantity": "partition_function", "re": z.real, "im": z.imag},
            {"quantity": "log_abs", "re": math.log(abs(z)), "im": 0.0}]
    _emit(args, ["quantity", "re", "im"], rows,
          [f"Z = {z}"])
    return 0


def cmd_bp(args):
    prob = _load_problem(args)
    res = _converge(prob, args)
    log_abs, phase = bp_free_energy(res.messages)
    verdict, ratio = stability_probe(res.messages, seed=args.seed)
    rows = [{
        "converged": res.converged, "iterations": res.iterations,
        "residual": res.residual,
        "log_partition_abs": log_abs, "phase": phase,
        "stability": verdict, "growth_ratio": ratio,
    }]
    _emit(args, list(rows[0]), rows,
          [f"BP {'converged' if res.converged else 'FAILED'} in "
           f"{res.iterations} sweeps, residual {res.residual:.3e}; "
           f"fixed point {verdict}"])
    return 0


def cmd_loops(args):
    _, loops, table = _weighed_loops(_load_problem(args), args)
    rows, notes = loop_decay_profile(table)
    _emit(args, ["weight", "parity", "n_loops", "max_abs", "c_estimate"],
          rows, [f"{len(loops)} loops up to weight {args.max_weight}"] +
          list(notes))
    return 0


def cmd_free_energy(args):
    prob = _load_problem(args)
    messages, loops, table = _weighed_loops(prob, args)
    m = args.max_weight
    fr = free_energy_truncated(messages, loops, m, weight_table=table)
    f_cum, _ = cumulant_free_energy(messages, fr.clusters, table)
    estimates = [("bp", 0, fr.f_bp), ("cluster", m, fr.f_m),
                 ("cumulant", m, f_cum)]
    if args.region_size:
        poset = find_regions(prob.tn.graph, args.region_size)
        f_reg, _ = region_free_energy(messages, poset)
        estimates.append(("region", args.region_size, f_reg))
    fields = ["method", "truncation", "f_re", "f_im"]
    rows = [dict(zip(fields, (method, n, f.real, f.imag)))
            for method, n, f in estimates]
    if args.reference == "exact":
        ref = (-ising_exact_logZ(prob.ising) if prob.ising is not None
               else -cmath.log(exact_contract(prob.tn)))
        fields += ["f_ref_re", "abs_error"]
        for r, (_, _, f) in zip(rows, estimates):
            r["f_ref_re"] = ref.real
            r["abs_error"] = abs(f - ref)
    _emit(args, fields, rows, [f"F_bp={fr.f_bp:.10g}  F_{m}={fr.f_m:.10g}"])
    return 0


def cmd_expval(args):
    prob = _load_problem(args)
    res = _converge(prob, args)
    site = args.site or prob.tn.graph.vertices[0]
    repl = prob.insertion(site)
    m = args.max_weight
    k = 1 if args.region_size is None else args.region_size
    ref = None
    if args.reference == "exact":
        z = exact_contract(prob.tn)
        ref = exact_contract(prob.tn.replace_tensors(repl)) / z
    expansion = InsertionProblem(res.messages, repl)
    estimates = [
        expval_bp_tensors(expansion),
        expval_ratio_tensors(expansion, m),
        expval_derivative_tensors(expansion, m),
        expval_cumulant_tensors(expansion, m),
    ] + ([expval_region_sum_tensors(expansion, k)] if k else [])
    rows = []
    for e in estimates:
        row = {"method": e.method, "value_re": e.value.real,
               "value_im": e.value.imag}
        if ref is not None:
            row["reference_re"] = ref.real
            row["abs_error"] = abs(e.value - ref)
            row["rel_error"] = abs(e.value - ref) / max(abs(ref), 1e-300)
        rows.append(row)
    _emit(args, list(rows[0]), rows,
          [f"site {site}: " + ", ".join(
              f"{e.method}={e.value.real:.8g}" for e in estimates)])
    return 0


def cmd_correlator(args):
    prob = _load_problem(args)
    a = args.site or prob.tn.graph.vertices[0]
    ra = prob.insertion(a)  # refuses a site not in the network
    if args.site_b == a:
        raise InputError(f"--site-b {a!r} is the site itself: the two "
                         "insertion regions share vertices")
    dist, _ = bfs(prob.tn.graph, {a})
    if args.site_b:
        pairs = [(a, args.site_b)]
    else:  # distance scan: first vertex at each distance, in vertex order
        first = {}
        for v in prob.tn.graph.vertices:
            first.setdefault(dist.get(v), v)
        pairs = [(a, first[d]) for d in range(1, args.distances + 1)
                 if d in first]
    if not pairs:
        raise InputError(f"no site within --distances {args.distances} "
                         f"of site {a!r}")
    # every refusal comes before BP: a site not in the network (insertion
    # refuses it), then a pair that no string joins
    inserts = [prob.insertion(v) for _, v in pairs]
    if args.site_b and args.site_b not in dist:
        raise InputError(f"--site-b {args.site_b!r} is not connected to "
                         f"site {a!r}: no string joins them")
    res = _converge(prob, args)
    if args.reference == "exact":
        z = exact_contract(prob.tn)
        za = exact_contract(prob.tn.replace_tensors(ra)) / z
    rows, ests, summary = [], [], []
    for (u, v), rb in zip(pairs, inserts):
        both = {**ra, **rb}
        m = args.max_weight + dist[v]
        pair = InsertionProblem(res.messages, both)
        try:  # first: its one weight call serves the derivative form too
            cr = correlator_ratio_tensors(pair, m)
            ratio_re = cr.value.real
        except (NumericalError, BudgetError, OverflowError) as exc:
            ratio_re = math.nan
            summary.append(f"ratio_re = nan for sites {u!r} and {v!r}: "
                           f"{type(exc).__name__}: {exc}")
        cd = expval_derivative_tensors(pair, m)
        ests.append(cd)
        row = {"site_a": u, "site_b": v, "distance": cd.distance,
               "truncation": m, "derivative_re": cd.value.real,
               "derivative_im": cd.value.imag, "ratio_re": ratio_re}
        if args.reference == "exact":
            zb = exact_contract(prob.tn.replace_tensors(rb)) / z
            zab = exact_contract(prob.tn.replace_tensors(both)) / z
            exact = zab - za * zb
            row["reference_re"] = exact.real
            row["rel_error"] = abs(cd.value - exact) / max(abs(exact),
                                                           1e-300)
        rows.append(row)
    if len({e.distance for e in ests}) >= 3:
        xi, diag = correlation_length(ests)
        summary.append(
            f"xi = {xi:.6g} from fit {diag['model']} (N_d = shortest "
            f"paths), R^2 = {diag['r_squared']:.4f}; plain fit "
            f"exp(-d/xi) R^2 = {diag['plain_r_squared']:.4f}")
    _emit(args, list(rows[0]), rows, summary)
    return 0


def cmd_regions(args):
    prob = _load_problem(args)
    poset = find_regions(prob.tn.graph, 4 if args.region_size is None
                         else args.region_size)
    b = counting_numbers({r.key: r.vertices for r in poset})
    rows = [{"region": "|".join(r.key), "n_vertices": len(r.vertices),
             "n_edges": len(r.edges), "level": r.level,
             "counting_number": b[r.key]} for r in poset]
    _emit(args, ["region", "n_vertices", "n_edges", "level",
                 "counting_number"], rows,
          [f"{len(poset)} regions, counting numbers sum "
           f"{sum(b.values())}"])
    return 0


def cmd_scan(args):
    # sweep spec: name=start:stop:steps over an ising generator
    try:
        name, _, rng = args.sweep.partition("=")
        start, stop, steps = rng.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise InputError(f"bad sweep spec {args.sweep!r}") from exc
    if steps < 1:
        raise InputError(f"sweep spec {args.sweep!r} has no steps")
    kind, kv = _parse_spec(args.generate)
    if kind != "ising":
        raise InputError("scan currently sweeps ising generator parameters")

    def value(x):  # a grid point as the generator reads it
        if name == "L" and not float(x).is_integer():
            raise InputError(f"sweep spec {args.sweep!r}: L = {float(x)!r} "
                             "is not an integer")
        return int(x) if name == "L" else float(x)

    def point(val):  # the generator spec at one sweep value
        return "ising:" + ",".join(f"{k}={v}" for k, v in {
            **kv, name: repr(val)}.items())

    if not math.isfinite(stop - start):  # np.linspace would warn
        for bound in (start, stop):       # the generator refuses one
            generate(point(value(bound)), args.seed)
    rows = []
    for val in [value(x) for x in np.linspace(start, stop, steps)]:
        prob = generate(point(val), args.seed)
        messages, loops, table = _weighed_loops(prob, args)
        profile, _ = loop_decay_profile(table)
        c_even = min((r["c_estimate"] for r in profile
                      if r["parity"] == "even"), default=math.nan)
        c_odd = min((r["c_estimate"] for r in profile
                     if r["parity"] == "odd"), default=math.nan)
        fr = free_energy_truncated(messages, loops, args.max_weight,
                                   weight_table=table)
        row = {name: val, "c_even": c_even, "c_odd": c_odd,
               "f_m_re": fr.f_m.real}
        if args.reference == "exact" and prob.ising is not None:
            f_exact = -ising_exact_logZ(prob.ising)
            row["abs_error"] = abs(fr.f_m.real - f_exact)
        rows.append(row)
    _emit(args, list(rows[0]), rows, [f"{len(rows)} sweep points"])
    return 0


# --- entry point -----------------------------------------------------------

# Every option: its flags and argparse settings.
_OPTIONS = {
    "input": (["--input"], dict(help="TN interchange JSON file")),
    "generate": (["--generate"],
                 dict(help="generator spec, e.g. ising:L=4,beta=0.2")),
    "ising": (["--generate"], dict(required=True, help="ising generator "
                                   "spec to sweep, e.g. ising:L=4,beta=0.2")),
    "max_weight": (["--max-weight", "-m"],
                   dict(type=int, default=6, help="cluster weight truncation")),
    "region_size": (["--region-size", "-k"],
                    dict(type=int, help="region size truncation (0: no "
                         "regions)")),
    "tol": (["--tol"], dict(type=float, default=DEFAULT_TOL)),
    "damping": (["--damping"], dict(type=float, default=DEFAULT_DAMPING)),
    "seed": (["--seed"], dict(type=int, default=0)),
    "out": (["--out"], dict(help="CSV output path (default: stdout)")),
    "reference": (["--reference"], dict(choices=["exact"],
                                        help="compare with exact contraction")),
    "site": (["--site"], dict(help="observable site (default: first)")),
    "site_b": (["--site-b"], dict(help="second site (default: scan)")),
    "distances": (["--distances"], dict(
        type=int, default=3, help="scan distances 1..N when --site-b absent")),
    "sweep": (["--sweep"], dict(required=True, help="spec name=start:stop:"
                                "steps, e.g. beta=0.1:0.4:4")),
}
_SOURCE = ("input", "generate", "seed", "out")
_BP = ("tol", "damping")

# Each subcommand with the options it reads, and no other.
_SUBCOMMANDS = [
    ("contract-exact", cmd_contract_exact, "exact contraction oracle",
     _SOURCE),
    ("bp", cmd_bp, "BP fixed point, residual, stability", _SOURCE + _BP),
    ("loops", cmd_loops, "loop enumeration and decay profile",
     _SOURCE + _BP + ("max_weight",)),
    ("free-energy", cmd_free_energy, "cluster/cumulant/region free energies",
     _SOURCE + _BP + ("max_weight", "region_size", "reference")),
    ("expval", cmd_expval, "all expectation estimators side by side",
     _SOURCE + _BP + ("max_weight", "region_size", "reference", "site")),
    ("correlator", cmd_correlator, "two-point correlators and xi fit",
     _SOURCE + _BP + ("max_weight", "reference", "site", "site_b",
                      "distances")),
    ("regions", cmd_regions, "region poset and counting numbers",
     _SOURCE + ("region_size",)),
    ("scan", cmd_scan, "sweep a model parameter, one CSV row each",
     ("ising", "seed", "out") + _BP + ("max_weight", "reference", "sweep")),
]


def build_parser(only=None):
    """Every subcommand's parser, or ``only``'s alone with the same usage."""
    ap = argparse.ArgumentParser(
        prog="bptn",
        description="BP tensor-network contraction with loop/cluster/"
                    "cumulant/region corrections")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True, metavar=only and
                            "{" + ",".join(s[0] for s in _SUBCOMMANDS) + "}")
    for name, fn, help_, options in _SUBCOMMANDS:
        if only in (None, name):
            p = sub.add_parser(name, help=help_)
            for option in options:
                flags, settings = _OPTIONS[option]
                p.add_argument(*flags, **settings)
            p.set_defaults(func=fn)
    return ap


def _check_counts(args):
    """Refuse a negative ``-m``, ``-k`` or ``--seed``; 0 is valid."""
    for name in ("max_weight", "region_size", "seed"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise InputError(f"{'/'.join(_OPTIONS[name][0])} must be >= 0, "
                             f"got {value}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    named = argv[:1] and argv[0] in [s[0] for s in _SUBCOMMANDS]
    args = build_parser(argv[0] if named else None).parse_args(argv)
    # A run leaves no reference cycles, so the cyclic collector would only
    # walk its live objects again and again; it resumes as the caller had it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        _check_counts(args)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
