"""The benchmark's three argvs still print the CSV bodies recorded in
``perfbench/golden/``.

The benchmark compares every call against those bodies, so a drift would
otherwise show only in a benchmark run.  ``perfbench/run.py`` is loaded
from its file and only read; its own ``compare_body`` judges the match
(byte equality, or every number within its relative tolerance).
"""

import importlib.util
from pathlib import Path

import pytest

from bptn.cli import main

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _run_module()


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_benchmark_body_matches_golden(name, capsys):
    seed = bench.PEPS_DEFAULT_SEED
    workload = bench.make_workload(name, seed)
    assert main(workload.argv) == 0
    body = bench.csv_body(capsys.readouterr().out)
    assert bench.compare_body(body, bench.recorded_body(name, seed)) == []
