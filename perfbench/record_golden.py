"""Record each workload's CSV body (timestamp line removed) at the default
seed into golden/.  Run once, from the repository root, at the commit whose
output is the reference:

    python3 perfbench/record_golden.py
"""

import sys

from run import GOLDEN, PEPS_DEFAULT_SEED, WORKLOAD_NAMES, csv_body, \
    make_workload, worker


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name in WORKLOAD_NAMES:
        w = make_workload(name, PEPS_DEFAULT_SEED)
        res, _, _ = worker("solve", {"argv": w.argv, "trace": False})
        if res.get("code") != 0:
            print(f"{name}: call failed: {res}", file=sys.stderr)
            return 1
        (GOLDEN / f"{name}.csv").write_text(csv_body(res["stdout"]))
        print(f"{name}: {res['solve_s']:.2f} s, recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
