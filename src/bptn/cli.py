"""Batch front-end: load or generate networks, run the engine, emit CSV.

Exit codes: 0 ok, 2 config/input error, 3 numerical error, 4 budget or
cap exceeded.  CSV outputs carry a config fingerprint and the engine
version as comment header lines; bodies are byte-stable across reruns at
a fixed seed (the timestamp header line is the only varying part).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bp import (DEFAULT_DAMPING, DEFAULT_TOL, bp_free_energy, bp_iterate,
                 bp_log_partition, random_messages, self_consistency_residual,
                 stability_probe, uniform_messages)
from .clusters import free_energy_truncated
from .cumulants import (counting_numbers, cumulant_free_energy, find_regions,
                        region_free_energy)
from .errors import (BranchCrossing, CapExceeded, CombinatorialBudgetExceeded,
                     DegenerateInnerProduct, EngineError, InvalidNetworkFile,
                     NumericalCollapse, PCapExceeded, SingularJacobian,
                     TooLarge, ZeroLocalFactor, ZeroRegionValue)
from .loops import enumerate_loops, evaluate_weights, loop_decay_profile
from .models import (IsingParams, ising_exact_logZ, ising_insertion,
                     ising_network, random_peps, random_tree_network,
                     single_loop_network)
from .network import (OperatorInsertion, bfs, build_norm_network,
                      exact_contract, peps_replacements)
from .observables import (correlation_length, correlator_derivative_tensors,
                          correlator_ratio_tensors, expval_bp_tensors,
                          expval_cumulant_tensors, expval_derivative_tensors,
                          expval_ratio_tensors, expval_region_sum_tensors)
from .tnio import load_network, save_network

_SZ = np.diag([1.0, -1.0])

_CAP_ERRORS = (CombinatorialBudgetExceeded, CapExceeded, TooLarge,
               PCapExceeded)
_NUMERICAL_ERRORS = (NumericalCollapse, DegenerateInnerProduct,
                     ZeroLocalFactor, BranchCrossing, ZeroRegionValue,
                     SingularJacobian)


class ConfigError(Exception):
    pass


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
            raise ConfigError(f"site {site!r} not in the network")
        if self.ising is not None:
            return ising_insertion(self.tn, self.ising, {site: _SZ})
        if self.peps is not None:
            return peps_replacements(self.peps, OperatorInsertion({site: _SZ}))
        raise ConfigError(
            "expval/correlator need a generated model (ising/peps) or a "
            "PEPS input file; a bare closed network has no observable")


def _parse_spec(spec: str):
    kind, _, rest = spec.partition(":")
    params = {}
    for kv in rest.split(","):
        if not kv:
            continue
        if "=" not in kv:
            raise ConfigError(f"bad generator parameter {kv!r} in {spec!r}")
        k, v = kv.split("=", 1)
        params[k.strip()] = v.strip()
    return kind.strip(), params


def generate(spec: str, seed: int) -> Problem:
    """Generator specs:

    ising:L=4,beta=0.2,h=0    peps:rows=2,cols=3,D=2,perturbation=0.1
    tree:n=12,D=3             loop:n=6
    """
    kind, kv = _parse_spec(spec)
    try:
        if kind == "ising":
            p = IsingParams(L=int(kv.get("L", 4)),
                            beta=float(kv.get("beta", 0.2)),
                            h=float(kv.get("h", 0.0)),
                            topology=kv.get("topology", "torus"))
            return Problem(ising_network(p), ising=p)
        if kind == "peps":
            peps = random_peps(int(kv.get("rows", 2)), int(kv.get("cols", 3)),
                               D=int(kv.get("D", 2)),
                               phys_dim=int(kv.get("phys_dim", 2)),
                               perturbation=float(kv.get("perturbation", 0.1)),
                               seed=seed)
            return Problem(build_norm_network(peps), peps=peps)
        if kind == "tree":
            return Problem(random_tree_network(int(kv.get("n", 12)),
                                               D=int(kv.get("D", 2)),
                                               seed=seed))
        if kind == "loop":
            return Problem(single_loop_network(int(kv.get("n", 6)),
                                               seed=seed))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad generator spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown generator kind {kind!r}")


def _load_problem(args) -> Problem:
    if bool(args.input) == bool(args.generate):
        raise ConfigError("exactly one of --input / --generate is required")
    if args.input:
        tn = load_network(args.input)
        peps = None
        if tn.phys_dims:
            peps, tn = tn, build_norm_network(tn)
        return Problem(tn, peps=peps)
    return generate(args.generate, args.seed)


# Options removed from the CLI, with the value they always had.  They stay
# in the fingerprint payload, so a configuration keeps its fingerprint
# across the removal.
_RETIRED_OPTIONS = {"threads": 1}


def _fingerprint(args) -> str:
    payload = dict(_RETIRED_OPTIONS)
    payload.update((k, v) for k, v in vars(args).items()
                   if k not in ("out", "func"))
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


def _fmt(x) -> str:
    if isinstance(x, complex):
        return repr(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _converge(prob: Problem, args):
    res = bp_iterate(prob.tn, uniform_messages(prob.tn), damping=args.damping,
                     tol=args.tol)
    if not res.converged:
        res2 = bp_iterate(prob.tn, random_messages(prob.tn, seed=args.seed),
                          damping=args.damping, tol=args.tol)
        if not res2.converged:
            raise NumericalCollapse(
                f"BP did not converge (residual {res.residual:.3e})")
        res = res2
    return res


def _reference_logZ(prob: Problem, args):
    if args.reference == "exact":
        return cmath.log(exact_contract(prob.tn))
    if args.reference:
        with open(args.reference) as fh:
            return complex(json.load(fh)["log_partition"])
    return None


# --- subcommands -----------------------------------------------------------

def cmd_contract_exact(args):
    prob = _load_problem(args)
    z = exact_contract(prob.tn)
    rows = [{"quantity": "partition_function", "re": _fmt(z.real),
             "im": _fmt(z.imag)},
            {"quantity": "log_abs", "re": _fmt(math.log(abs(z))), "im": "0.0"}]
    _emit(args, ["quantity", "re", "im"], rows,
          [f"Z = {z}"])
    return 0


def cmd_bp(args):
    prob = _load_problem(args)
    res = _converge(prob, args)
    log_abs, phase = bp_free_energy(prob.tn, res.messages)
    verdict, ratio = stability_probe(prob.tn, res.messages, seed=args.seed)
    rows = [{
        "converged": res.converged, "iterations": res.iterations,
        "residual": _fmt(res.residual),
        "log_partition_abs": _fmt(log_abs), "phase": _fmt(phase),
        "stability": verdict, "growth_ratio": _fmt(ratio),
    }]
    _emit(args, list(rows[0]), rows,
          [f"BP {'converged' if res.converged else 'FAILED'} in "
           f"{res.iterations} sweeps, residual {res.residual:.3e}; "
           f"fixed point {verdict}"])
    return 0


def cmd_loops(args):
    prob = _load_problem(args)
    res = _converge(prob, args)
    loops = enumerate_loops(prob.tn.graph, args.max_weight)
    weights = evaluate_weights(prob.tn, res.messages, loops)
    rows, notes = loop_decay_profile(weights)
    out = [{k: _fmt(v) for k, v in r.items()} for r in rows]
    _emit(args, ["weight", "parity", "n_loops", "max_abs", "c_estimate"],
          out, [f"{len(loops)} loops up to weight {args.max_weight}"] +
          list(notes))
    return 0


def cmd_free_energy(args):
    prob = _load_problem(args)
    res = _converge(prob, args)
    m = args.max_weight
    loops = enumerate_loops(prob.tn.graph, m)
    table = {w.loop.key: w.value
             for w in evaluate_weights(prob.tn, res.messages, loops)}
    fr = free_energy_truncated(prob.tn, res.messages, loops, m,
                               weight_table=table)
    f_cum, _, _ = cumulant_free_energy(prob.tn, res.messages, loops, m, table)
    rows = [
        {"method": "bp", "truncation": 0, "f_re": _fmt(fr.f_bp.real),
         "f_im": _fmt(fr.f_bp.imag)},
        {"method": "cluster", "truncation": m, "f_re": _fmt(fr.f_m.real),
         "f_im": _fmt(fr.f_m.imag)},
        {"method": "cumulant", "truncation": m, "f_re": _fmt(f_cum.real),
         "f_im": _fmt(f_cum.imag)},
    ]
    if args.region_size:
        poset = find_regions(prob.tn.graph, args.region_size)
        f_reg, _ = region_free_energy(prob.tn, res.messages, poset)
        rows.append({"method": "region", "truncation": args.region_size,
                     "f_re": _fmt(f_reg.real), "f_im": _fmt(f_reg.imag)})
    ref = _reference_logZ(prob, args)
    fields = ["method", "truncation", "f_re", "f_im"]
    if ref is not None:
        fields += ["f_ref_re", "abs_error"]
        for r in rows:
            r["f_ref_re"] = _fmt((-ref).real)
            r["abs_error"] = _fmt(abs(complex(float(r["f_re"]),
                                              float(r["f_im"])) - (-ref)))
    _emit(args, fields, rows, [f"F_bp={fr.f_bp:.10g}  F_{m}={fr.f_m:.10g}"])
    return 0


def cmd_expval(args):
    prob = _load_problem(args)
    res = _converge(prob, args)
    site = args.site or prob.tn.graph.vertices[0]
    repl = prob.insertion(site)
    m, k = args.max_weight, args.region_size or 1
    ref = None
    if args.reference == "exact":
        z = exact_contract(prob.tn)
        ref = exact_contract(prob.tn.replace_tensors(repl)) / z
    estimates = [
        expval_bp_tensors(prob.tn, res.messages, repl),
        expval_ratio_tensors(prob.tn, res.messages, repl, m),
        expval_derivative_tensors(prob.tn, res.messages, repl, m),
        expval_cumulant_tensors(prob.tn, res.messages, repl, m),
        expval_region_sum_tensors(prob.tn, res.messages, repl, k),
    ]
    rows = []
    for e in estimates:
        row = {"method": e.method, "value_re": _fmt(e.value.real),
               "value_im": _fmt(e.value.imag)}
        if ref is not None:
            row["reference_re"] = _fmt(ref.real)
            row["abs_error"] = _fmt(abs(e.value - ref))
            row["rel_error"] = _fmt(abs(e.value - ref) / max(abs(ref), 1e-300))
        rows.append(row)
    _emit(args, list(rows[0]), rows,
          [f"site {site}: " + ", ".join(
              f"{e.method}={e.value.real:.8g}" for e in estimates)])
    return 0


def cmd_correlator(args):
    prob = _load_problem(args)
    res = _converge(prob, args)
    a = args.site or prob.tn.graph.vertices[0]
    if a not in prob.tn.graph.vertices:
        raise ConfigError(f"site {a!r} not in the network")
    dist, _ = bfs(prob.tn.graph, {a})
    if args.site_b:
        pairs = [(a, args.site_b)]
    else:
        # distance scan: first vertex at each distance, in vertex order
        pairs = []
        for d in range(1, args.distances + 1):
            found = [v for v in prob.tn.graph.vertices if dist.get(v) == d]
            if found:
                pairs.append((a, found[0]))
    ra = prob.insertion(a)
    if args.reference == "exact":
        z = exact_contract(prob.tn)
        za = exact_contract(prob.tn.replace_tensors(ra)) / z
    rows, ests = [], []
    for u, v in pairs:
        rb = prob.insertion(v)
        m = args.max_weight + dist.get(v, math.inf)
        cd = correlator_derivative_tensors(prob.tn, res.messages, ra, rb, m)
        try:
            cr = correlator_ratio_tensors(prob.tn, res.messages, ra, rb, m)
            ratio_re = _fmt(cr.value.real)
        except (EngineError, OverflowError):
            ratio_re = "nan"
        ests.append(cd)
        row = {"site_a": u, "site_b": v, "distance": cd.distance,
               "truncation": m, "derivative_re": _fmt(cd.value.real),
               "derivative_im": _fmt(cd.value.imag), "ratio_re": ratio_re}
        if args.reference == "exact":
            zb = exact_contract(prob.tn.replace_tensors(rb)) / z
            both = dict(ra)
            both.update(rb)
            zab = exact_contract(prob.tn.replace_tensors(both)) / z
            exact = zab - za * zb
            row["reference_re"] = _fmt(exact.real)
            row["rel_error"] = _fmt(abs(cd.value - exact) /
                                    max(abs(exact), 1e-300))
        rows.append(row)
    summary = []
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
    poset = find_regions(prob.tn.graph, args.region_size or 4)
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
        values = np.linspace(float(start), float(stop), int(steps))
    except ValueError as exc:
        raise ConfigError(f"bad sweep spec {args.sweep!r}") from exc
    kind, kv = _parse_spec(args.generate) if args.generate else ("", {})
    if kind != "ising":
        raise ConfigError("scan currently sweeps ising generator parameters")
    rows = []
    for val in values:
        kv2 = dict(kv)
        kv2[name] = repr(float(val))
        spec = "ising:" + ",".join(f"{k}={v}" for k, v in kv2.items())
        sub = argparse.Namespace(**{**vars(args), "generate": spec})
        prob = generate(spec, args.seed)
        res = _converge(prob, sub)
        m = args.max_weight
        loops = enumerate_loops(prob.tn.graph, m)
        weights = evaluate_weights(prob.tn, res.messages, loops)
        profile, _ = loop_decay_profile(weights)
        c_even = min((r["c_estimate"] for r in profile
                      if r["parity"] == "even"), default=math.nan)
        c_odd = min((r["c_estimate"] for r in profile
                     if r["parity"] == "odd"), default=math.nan)
        table = {w.loop.key: w.value for w in weights}
        fr = free_energy_truncated(prob.tn, res.messages, loops, m,
                                   weight_table=table)
        row = {name: _fmt(float(val)), "c_even": _fmt(c_even),
               "c_odd": _fmt(c_odd), "f_m_re": _fmt(fr.f_m.real)}
        if args.reference == "exact" and prob.ising is not None:
            f_exact = -ising_exact_logZ(prob.ising)
            row["abs_error"] = _fmt(abs(fr.f_m.real - f_exact))
        rows.append(row)
    _emit(args, list(rows[0]), rows, [f"{len(rows)} sweep points"])
    return 0


# --- entry point -----------------------------------------------------------

def _add_common(p):
    p.add_argument("--input", help="TN interchange JSON file")
    p.add_argument("--generate", help="generator spec, e.g. ising:L=4,beta=0.2")
    p.add_argument("--max-weight", "-m", type=int, default=6,
                   help="cluster weight truncation")
    p.add_argument("--region-size", "-k", type=int, default=0,
                   help="region size truncation")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--damping", type=float, default=DEFAULT_DAMPING)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--reference", help="'exact' or a JSON file with a "
                   "log_partition field")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bptn",
        description="BP tensor-network contraction with loop/cluster/"
                    "cumulant/region corrections")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)
    specs = [
        ("contract-exact", cmd_contract_exact, "exact contraction oracle"),
        ("bp", cmd_bp, "BP fixed point, residual, stability"),
        ("loops", cmd_loops, "loop enumeration and decay profile"),
        ("free-energy", cmd_free_energy,
         "cluster/cumulant/region free energies"),
        ("expval", cmd_expval, "all expectation estimators side by side"),
        ("correlator", cmd_correlator, "two-point correlators and xi fit"),
        ("regions", cmd_regions, "region poset and counting numbers"),
        ("scan", cmd_scan, "sweep a model parameter, one CSV row each"),
    ]
    for name, fn, help_ in specs:
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        if name == "expval":
            p.add_argument("--site", help="observable site (default: first)")
        if name == "correlator":
            p.add_argument("--site", help="first site (default: first)")
            p.add_argument("--site-b", help="second site (default: scan)")
            p.add_argument("--distances", type=int, default=3,
                           help="scan distances 1..N when --site-b absent")
        if name == "scan":
            p.add_argument("--sweep", required=True,
                           help="spec name=start:stop:steps, e.g. "
                                "beta=0.1:0.4:4")
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidNetworkFile, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _CAP_ERRORS as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except (_NUMERICAL_ERRORS + (OverflowError,)) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
