"""One benchmark worker process: import bptn, then do one job and exit.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py setup  '{}'
    python3 perfbench/worker.py solve  '{"argv": [...], "trace": false}'
    python3 perfbench/worker.py oracle '{"kind": "ising", "spec": ...}'

The last line of standard output is one JSON object.  ``t_imported`` is
``time.perf_counter()`` right after ``bptn.cli`` is imported; on Linux that
clock is system-wide, so the parent subtracts its own start time from it.
``ref_s`` is the time of a fixed reference unit that does not touch bptn,
taken right after the import and, in a solve worker, again after the call;
the parent uses it to rescale this worker's times to a fixed machine speed.
"""

import json
import sys
import time

import bptn.cli  # noqa: E402  (the import is what setup_s measures)

T_IMPORTED = time.perf_counter()

import io  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import numpy as np  # noqa: E402

REF_REPS = 6
_REF_A = np.arange(16.0).reshape(4, 4)
_REF_B = np.ones((4, 4))


def _reference_unit():
    """Interpreter loop plus small-array numpy calls, like bptn's own mix."""
    s = 0
    for i in range(200_000):
        s += i * i
    x = _REF_A
    for _ in range(1_500):
        x = np.tensordot(x, _REF_B, axes=([1], [0])) * 1e-3 + _REF_A
    return s, x


def reference() -> float:
    """Median time of REF_REPS reference units."""
    times = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        _reference_unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def solve(spec):
    out, err = io.StringIO(), io.StringIO()
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = bptn.cli.main(spec["argv"])
            else:
                code = tracer.run("cli.main", bptn.cli.main, spec["argv"])
        except Exception:  # the boundary: report, do not crash the run
            code = -1
            traceback.print_exc()
        t1 = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res = {"code": code, "solve_s": t1 - t0, "peak_rss_mb": rss_mb,
           "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}
    if tracer is not None:
        tracer.uninstall()
        res["layers"] = tracer.summary()
        res["absent"] = tracer.absent
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    return res


def oracle(spec):
    """Reference values from exact methods, outside any timed call."""
    from bptn.models import ising_exact_logZ
    from bptn.network import exact_contract

    prob = bptn.cli.generate(spec["spec"], spec.get("seed", 0))
    if spec["kind"] == "ising":
        return {"f_exact": -ising_exact_logZ(prob.ising)}
    if spec["kind"] == "peps":
        z = exact_contract(prob.tn)
        zo = exact_contract(prob.tn.replace_tensors(
            prob.insertion(spec["site"])))
        v = zo / z
        return {"expval_re": v.real, "expval_im": v.imag}
    return {}


def main():
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    res = {"t_imported": T_IMPORTED}
    if mode == "solve":
        before = reference()
        res.update(solve(spec))
        res["ref_s"] = (before + reference()) / 2
    elif mode == "setup":
        res["ref_s"] = reference()
    elif mode == "oracle":
        res.update(oracle(spec))
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")
    sys.stdout.write(json.dumps(res) + "\n")


if __name__ == "__main__":
    main()
