"""Self-test of the benchmark harness on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Each workload's code path runs on a tiny network, untraced and traced.
The test asserts that every metric BENCHMARK.json names is printed with its
unit, that the layer self times account for the traced solve time, that the
exact counters repeat, and that a corrupted CSV body or oracle value is
counted as a failed operation.
"""

import contextlib
import io
import json
import sys

from run import (ROOT, WORKLOAD_NAMES, compare_body, csv_body, make_workload,
                 measure, report)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(run, m, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        res = report(run, m, {}, trace)
    text = buf.getvalue()
    for name, (value, unit) in m.items():
        assert f"metric {name} = {value!r} {unit}" in text, name
    return res


def _assert_metrics(res, wanted):
    for spec in wanted:
        got = res["metrics"].get(spec["name"])
        assert got is not None, f"metric {spec['name']} not printed"
        assert got["unit"] == spec["unit"], (spec, got)


def check_workload(name):
    w = make_workload(name, 0, tiny=True)
    run, m = measure(w, 0, 0.5, trace=False, setup_samples=2)
    res = _result(run, m, False)
    assert res["correct"] and res["failed"] == 0, run.failures
    _assert_metrics(res, SPEC["end_to_end"])
    assert all(res["metrics"][k]["value"] > 0 for k in
               ("solve_s", "setup_s", "peak_rss_mb"))

    # Traced, twice: the second run compares its exact counters with the
    # ones the first recorded.
    for _ in range(2):
        run, m = measure(w, 0, 0.1, trace=True)
        res = _result(run, m, True)
        assert res["correct"] and res["failed"] == 0, run.failures
    _assert_metrics(res, SPEC["per_layer"])
    vals = {k: v["value"] for k, v in res["metrics"].items()}
    assert vals["trace.absent"] == 0
    self_sum = sum(v for k, v in vals.items() if k.endswith(".self_s"))
    assert abs(self_sum - vals["trace.solve_s"]) < 1e-9, (self_sum, vals)
    # A counter that moved between runs is a failed operation.
    path = run.counters_path()
    recorded = json.loads(path.read_text())
    path.write_text(json.dumps({**recorded, "loops.emitted": -1}))
    try:
        bad, m = measure(w, 0, 0.1, trace=True)
    finally:
        path.write_text(json.dumps(recorded))
    assert any("exact counters moved" in f for f in bad.failures), \
        bad.failures
    return w


def check_corruption(w):
    """A corrupted body or oracle value counts as a failed operation."""
    base = run_stdout(w)
    body = csv_body(base)
    assert compare_body(body, body) == []
    # A last-digit change in one number is within 1e-12 relative ...
    lines = body.splitlines(keepends=True)
    i = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
    fields = lines[i].split(",")
    j = next(j for j, f in enumerate(fields) if "." in f)
    x = float(fields[j])
    near = fields[:j] + [repr(x * (1 + 1e-14))] + fields[j + 1:]
    far = fields[:j] + [repr(x * (1 + 1e-6) + 1e-6)] + fields[j + 1:]
    assert compare_body("".join(lines[:i] + [",".join(near)] +
                                lines[i + 1:]), body) == []
    # ... but a larger change is a failure, and it reaches failed_frac.
    w.golden = "".join(lines[:i] + [",".join(far)] + lines[i + 1:])
    bad, m = measure(w, 0, 0.1, trace=False, setup_samples=0)
    res = _result(bad, m, False)
    assert not res["correct"] and res["failed"] == res["attempted"] >= 1
    w.golden = None
    if w.oracle is None:
        return
    check = w.check

    def corrupted(rows, oracle):
        return check(rows, {k: (-v - 1.0 if isinstance(v, float) else v)
                            for k, v in oracle.items()})

    w.check = corrupted
    bad, m = measure(w, 0, 0.1, trace=True)
    res = _result(bad, m, True)
    assert res["failed"] == res["attempted"] >= 2, bad.failures
    assert res["metrics"]["failed_frac"]["value"] == 1.0
    w.check = check


def run_stdout(w):
    from run import worker

    res, _, _ = worker("solve", {"argv": w.argv, "trace": False})
    assert res["code"] == 0, res
    return res["stdout"]


def main():
    for name in WORKLOAD_NAMES:
        check_corruption(check_workload(name))
        print(f"{name}: ok")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
