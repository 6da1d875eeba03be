"""Benchmark of the ``bptn`` command line on three fixed workloads.

    python3 perfbench/run.py --workload ising_free_energy --seed 1 \
        --seconds 40 --trace 0

Run it from the repository root.  Every call of ``bptn.cli.main(argv)``
happens in a fresh single-threaded worker process, one at a time, because a
CLI user pays for a new process on every run.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` alternates untraced and traced calls and
reports per-layer metrics plus the tracing overhead.  Each call's CSV is
checked against the body recorded at the seed commit and against an exact
oracle; see README.md in this directory.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden"

ISING = "ising:L=5,beta=0.2"
PEPS = "peps:rows=5,cols=5,D=2,perturbation=0.25"
BP = "ising:L=3,beta=0.34,h=0.05"
PEPS_SITE = "2,2"
PEPS_DEFAULT_SEED = 11
# The benchmark seed picks the PEPS generator seed modulo this count.  Every
# PEPS seed in 0-29 was run to completion and passes the oracle check; other
# seeds can trip the program's branch-cut guard (seed 99999 exits with code
# 3 in the cumulant estimator), which is a refusal, not a timing.
PEPS_SEED_COUNT = 30

SETUP_SAMPLES = 4          # setup-only workers per measured run
# This host's speed drifts by up to a third over minutes (README.md,
# "Measured spread"), which no run length averages away.  Each worker times
# a fixed reference unit that does not touch bptn (``worker.reference``)
# right after its import and again after its call.  solve_s and setup_s
# rescale every sample by REF_S / that worker's reference time: they are
# seconds on a machine where the unit takes REF_S, the median on the 2-vCPU
# virtual machine the bounds were set on.  The raw times are reported too.
REF_S = 0.044
WORKER_TIMEOUT_S = 170
REL_TOL = 1e-12            # numeric agreement with the recorded body
# Error scale of the m=7, k=6 PEPS estimators (up to 1.83e-2 over PEPS seeds
# 0-29).  Where BP's own error is below it, a truncated series need not beat
# BP: at seed 10 BP is off by 2.4e-3 and ratio(7) by 3.3e-3; at seed 27 BP
# by 3.0e-3 and ratio(7) by 7.3e-3; at seed 28 BP by 6.9e-3 and
# region_sum(6) by 9.7e-3.
EXPVAL_ABS_TOL = 2e-2

# Counters that must repeat exactly between runs of the same code.
EXACT_COUNTERS = ("bp.sweeps", "loops.subsets_visited", "loops.emitted",
                  "loops.weights", "tensor.pair_calls", "tensor.pair_flops",
                  "clusters.count", "cumulants.regions")

# One thread for BLAS on both sides of every comparison.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class HarnessError(Exception):
    """The benchmark itself cannot run (as opposed to a failed call)."""


# --- output checks ---------------------------------------------------------

def csv_body(text: str) -> str:
    """CLI output without the ``# timestamp=`` line."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# timestamp="))


def _number(field: str):
    try:
        return complex(field.strip("()"))
    except ValueError:
        return None


def _values(header, fields):
    """Field name -> value; ``x_re``/``x_im`` pairs join into one complex
    value, so that round-off in a near-zero part is judged against the
    size of the whole number."""
    row = dict(zip(header, fields))
    out = {}
    for name, text in row.items():
        if name.endswith("_im") and name[:-3] + "_re" in row:
            continue
        pair = name[:-3] + "_im" if name.endswith("_re") else None
        num = _number(text)
        if pair in row and num is not None and _number(row[pair]) is not None:
            num = num + 1j * _number(row[pair])
        out[name] = text if num is None else num
    return out


def compare_body(body: str, golden: str) -> list[str]:
    """Byte equality, or every numeric value within REL_TOL relative."""
    if body == golden:
        return []
    got, want = body.splitlines(), golden.splitlines()
    if len(got) != len(want):
        return [f"body has {len(got)} lines, recorded {len(want)}"]
    problems, header = [], None
    for n, (a, b) in enumerate(zip(got, want), 1):
        if a.startswith("#") or header is None:
            if a != b:
                problems.append(f"line {n}: {a!r} != {b!r}")
            elif not a.startswith("#"):
                header = next(csv.reader([a]))
            continue
        if a == b:
            continue
        fa, fb = next(csv.reader([a])), next(csv.reader([b]))
        if len(fa) != len(header) or len(fb) != len(header):
            problems.append(f"line {n}: {a!r} != {b!r}")
            continue
        va, vb = _values(header, fa), _values(header, fb)
        for name, x in va.items():
            y = vb[name]
            if x == y:
                continue
            if (isinstance(x, str) or isinstance(y, str)
                    or abs(x - y) > REL_TOL * max(abs(x), abs(y))):
                problems.append(f"line {n}: {name} {x!r} != {y!r}")
    return problems


def csv_rows(body: str) -> list[dict]:
    lines = [line for line in body.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_free_energy(rows, oracle) -> list[str]:
    """Each corrected F is closer to the transfer-matrix F than F_BP."""
    f = {r["method"]: complex(float(r["f_re"]), float(r["f_im"]))
         for r in rows}
    exact = oracle["f_exact"]
    if "bp" not in f or len(f) < 2:
        return [f"free-energy rows missing: {sorted(f)}"]
    bp_err = abs(f["bp"] - exact)
    return [f"{m}: |F - F_exact| = {abs(v - exact):.3e} not below "
            f"BP's {bp_err:.3e}" for m, v in f.items()
            if m != "bp" and not abs(v - exact) < bp_err]


def check_expval(rows, oracle) -> list[str]:
    """Each corrected estimator is closer to exact contraction than BP, or
    within EXPVAL_ABS_TOL of it where BP itself is already that close."""
    exact = complex(oracle["expval_re"], oracle["expval_im"])
    v = {r["method"]: complex(float(r["value_re"]), float(r["value_im"]))
         for r in rows}
    if "BP" not in v or len(v) < 2:
        return [f"expval rows missing: {sorted(v)}"]
    limit = max(abs(v["BP"] - exact), EXPVAL_ABS_TOL)
    return [f"{m}: error {abs(x - exact):.3e} not below {limit:.3e}"
            for m, x in v.items() if m != "BP" and not abs(x - exact) < limit]


def check_bp(rows, oracle) -> list[str]:
    """Converged, stable fixed point with growth ratio below one."""
    if len(rows) != 1:
        return [f"bp: expected one row, got {len(rows)}"]
    r = rows[0]
    problems = []
    if r["converged"] != "True":
        problems.append(f"bp: converged={r['converged']}")
    if r["stability"] != "stable":
        problems.append(f"bp: stability={r['stability']}")
    if not float(r["growth_ratio"]) < 1.0:
        problems.append(f"bp: growth_ratio={r['growth_ratio']}")
    return problems


# --- workloads -------------------------------------------------------------

class Workload:
    """Argv for ``bptn.cli.main``, its oracle job and its output checks."""

    def __init__(self, name, argv, check, oracle=None, golden=None):
        self.name = name
        self.argv = argv
        self.check = check
        self.oracle = oracle
        self.golden = golden     # recorded body, or None: oracle checks only

    def problems(self, stdout: str, oracle: dict) -> list[str]:
        body = csv_body(stdout)
        out = compare_body(body, self.golden) if self.golden else []
        try:
            out += self.check(csv_rows(body), oracle)
        except (KeyError, ValueError, TypeError) as exc:
            out.append(f"unreadable CSV: {exc!r}")
        return out


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` at ``seed``; ``tiny`` shrinks it for the
    self-test (same code path, seconds instead of tens of seconds)."""
    if name == "ising_free_energy":
        spec, m, k = (("ising:L=3,beta=0.2", "4", "4") if tiny
                      else (ISING, "6", "6"))
        w = Workload(name, ["free-energy", "--generate", spec, "-m", m,
                            "-k", k], check_free_energy,
                     oracle={"kind": "ising", "spec": spec})
    elif name == "peps_expval":
        spec, site, m, k = (
            ("peps:rows=2,cols=3,D=2,perturbation=0.1", "0,1", "4", "4")
            if tiny else (PEPS, PEPS_SITE, "7", "6"))
        seed %= PEPS_SEED_COUNT
        w = Workload(name, ["expval", "--generate", spec, "--site", site,
                            "-m", m, "-k", k, "--seed", str(seed)],
                     check_expval, oracle={"kind": "peps", "spec": spec,
                                           "site": site, "seed": seed})
    elif name == "bp_stability":
        spec = "ising:L=3,beta=0.1,h=0.05" if tiny else BP
        w = Workload(name, ["bp", "--generate", spec], check_bp)
    else:
        raise HarnessError(f"unknown workload {name!r}")
    return w


def recorded_body(name: str, seed: int) -> str | None:
    """The body recorded at the seed commit, where it applies: only the
    PEPS argv depends on the seed, and it is recorded at the default."""
    if (name == "peps_expval"
            and seed % PEPS_SEED_COUNT != PEPS_DEFAULT_SEED):
        return None
    path = GOLDEN / f"{name}.csv"
    if not path.is_file():
        raise HarnessError(f"missing recorded body {path}")
    return path.read_text()


WORKLOAD_NAMES = ("ising_free_energy", "peps_expval", "bp_stability")


# --- workers ---------------------------------------------------------------

def _worker_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker(mode: str, spec: dict) -> tuple[dict, float, float]:
    """Run one worker to completion: (result, setup_s, wall_s)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, json.dumps(spec)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"code": -1, "error": "worker timed out"}, 0.0, \
            time.perf_counter() - t0
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ({"code": -1, "error": f"worker exit {proc.returncode}: "
                 f"{proc.stderr.strip()[-2000:]}"}, 0.0, wall)
    res = json.loads(lines[-1])
    return res, res["t_imported"] - t0, wall


def src_fingerprint() -> str:
    """Hash of the program and benchmark sources, keying counter records."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int) -> dict:
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
            st = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True)
            dirty = bool(st.stdout.strip())

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"git_rev": rev, "git_dirty": dirty,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "loadavg_before": os.getloadavg(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_threads": THREAD_ENV, "seed": seed,
            "src_fingerprint": src_fingerprint()}


# --- one benchmark run -----------------------------------------------------

class Run:
    """Calls, checks and samples of one benchmark invocation."""

    def __init__(self, workload: Workload, seed: int, label: str):
        self.w = workload
        self.seed = seed
        self.label = label
        self.attempted = 0
        self.failures = []
        self.setup_s = []     # rescaled to REF_S, as the samples below
        self.solve_s = []
        self.setup_wall_s = []
        self.solve_wall_s = []
        self.ref_s = []
        self.rss_mb = []
        self.traced = []      # (solve_s, layer metrics, absent names)
        self.traced_s = []    # traced solve_s, rescaled to REF_S
        self.oracle = None

    def prepare(self, setup_samples: int):
        res, _, _ = worker("setup", {})   # compile bytecode, warm caches
        if res.get("code") == -1:
            raise HarnessError(res["error"])
        for _ in range(setup_samples):
            res, setup, _ = worker("setup", {})
            if res.get("code") == -1:
                raise HarnessError(res["error"])
            self.add_setup(setup, res["ref_s"])
        if self.w.oracle is not None:
            res, _, _ = worker("oracle", self.w.oracle)
            if res.get("code") == -1:
                raise HarnessError(f"oracle failed: {res['error']}")
            self.oracle = res

    def add_setup(self, setup: float, ref: float):
        self.setup_wall_s.append(setup)
        self.setup_s.append(setup * REF_S / ref)
        self.ref_s.append(ref)

    def call(self, trace: bool) -> float:
        """One ``main(argv)`` call in a fresh worker; returns its wall time."""
        n = self.attempted
        self.attempted += 1
        spec = {"argv": self.w.argv, "trace": trace,
                "run_id": f"{self.label}-{n}"}
        if trace:
            OUT.mkdir(exist_ok=True)
            spec["spans_path"] = str(OUT / f"spans-{self.label}-{n}.jsonl.gz")
        res, setup, wall = worker("solve", spec)
        if res.get("code") != 0:
            self.failures.append(
                f"call {n}: exit {res.get('code')} "
                f"{res.get('error') or res.get('stderr', '')[-500:]}")
            return wall
        problems = self.w.problems(res["stdout"], self.oracle)
        if problems:
            self.failures.append(f"call {n}: " + "; ".join(problems))
        if trace:
            self.traced_s.append(res["solve_s"] * REF_S / res["ref_s"])
            self.traced.append((res["solve_s"], res["layers"],
                                res["absent"]))
        else:
            self.add_setup(setup, res["ref_s"])
            self.solve_wall_s.append(res["solve_s"])
            self.solve_s.append(res["solve_s"] * REF_S / res["ref_s"])
            self.rss_mb.append(res["peak_rss_mb"])
        return wall

    def counters_path(self) -> Path:
        key = hashlib.sha256(json.dumps(self.w.argv).encode()).hexdigest()
        return OUT / f"counters-{key[:16]}-{src_fingerprint()}.json"

    def check_counters(self):
        """Exact counters repeat between traced calls and between runs of
        the same code (recorded under .bench_out, keyed by argv and a
        source hash)."""
        counters = [{k: layers[k] for k in EXACT_COUNTERS}
                    for _, layers, _ in self.traced]
        path = self.counters_path()
        if path.exists():
            counters.insert(0, json.loads(path.read_text()))
        elif counters:
            path.write_text(json.dumps(counters[0], sort_keys=True))
        for c in counters[1:]:
            if c != counters[0]:
                diff = {k: (counters[0][k], c[k]) for k in c
                        if c[k] != counters[0][k]}
                self.failures.append(f"exact counters moved: {diff}")
                break


def _fits(elapsed, walls, seconds):
    return elapsed + statistics.median(walls) <= seconds


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            setup_samples: int = SETUP_SAMPLES) -> tuple[Run, dict]:
    run = Run(w, seed, f"{w.name}-seed{seed}")
    run.prepare(0 if trace else setup_samples)
    t0 = time.perf_counter()
    walls = []
    while True:
        wall = run.call(False)
        if trace:
            wall += run.call(True)
        walls.append(wall)
        if not _fits(time.perf_counter() - t0, walls, seconds):
            break
    if trace:
        run.check_counters()
    return run, metrics(run, trace)


def metrics(run: Run, trace: bool) -> dict:
    """Metric name -> (value, unit)."""
    med = statistics.median
    failed_frac = len(run.failures) / run.attempted
    if not trace:
        if not run.solve_s:
            return {}
        return {"solve_s": (med(run.solve_s), "s"),
                "setup_s": (med(run.setup_s), "s"),
                "peak_rss_mb": (med(run.rss_mb), "MB")}
    if not run.traced:
        return {}
    # Every layer metric from one call, the one with the median traced
    # time, so that the self times add up to its solve time.
    by_time = sorted(run.traced, key=lambda t: t[0])
    _, layers, _ = by_time[(len(by_time) - 1) // 2]
    out = {k: (v, unit_of(k)) for k, v in layers.items()}
    out["machine.ref_s"] = (med(run.ref_s), "s")
    out["trace.untraced_solve_s"] = (med(run.solve_wall_s), "s")
    # Overhead from rescaled times, so that machine drift between the
    # traced and untraced calls does not show up as tracing cost.
    overhead = med(run.traced_s) - med(run.solve_s)
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_frac"] = (overhead / med(run.solve_s), "frac")
    out["failed_frac"] = (failed_frac, "frac")
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_ratio", "_frac")):
        return "frac"
    return "count"


def percentile_note(samples) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    return f"n={n}; p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.6g} s"


def report(run: Run, m: dict, prov: dict, trace: bool) -> dict:
    """Print the human-readable report; return the result object."""
    print(f"workload {run.w.name}  seed {run.seed}  argv "
          f"{' '.join(run.w.argv)}")
    if not trace:
        print(f"solve_s samples {[round(x, 4) for x in run.solve_s]} "
              f"({percentile_note(run.solve_s)})")
        print(f"setup_s samples {[round(x, 4) for x in run.setup_s]}")
        print(f"raw wall solve_s {[round(x, 4) for x in run.solve_wall_s]}")
        print(f"raw wall setup_s {[round(x, 4) for x in run.setup_wall_s]}")
        print(f"reference unit s {[round(x, 5) for x in run.ref_s]} "
              f"(REF_S = {REF_S})")
    else:
        absent = sorted({a for t in run.traced for a in t[2]})
        print(f"absent wrapped names: {absent or 'none'}")
        self_sum = sum(v for k, (v, _) in m.items()
                       if k.endswith(".self_s"))
        if "trace.solve_s" in m:
            print(f"layer self times sum to {self_sum:.6f} s of traced "
                  f"solve {m['trace.solve_s'][0]:.6f} s; tracing overhead "
                  f"{m['trace.overhead_s'][0]:+.4f} s "
                  f"({100 * m['trace.overhead_frac'][0]:+.2f}%)")
    for name, (value, unit) in m.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"failed_frac = {len(run.failures)}/{run.attempted}")
    for f in run.failures:
        print(f"FAILED {f}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "bptn" / "cli.py").is_file():
            raise HarnessError(f"no program sources under {SRC}")
        w = make_workload(args.workload, args.seed)
        w.golden = recorded_body(args.workload, args.seed)
        prov = provenance(args.seed)
        run, m = measure(w, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    prov["loadavg_after"] = os.getloadavg()
    result = report(run, m, prov, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
