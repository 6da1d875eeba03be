"""Every name the benchmark tracer wraps still exists.

``perfbench/tracing.py`` patches bptn functions under the dotted names the
program looks them up by, and reports a missing name as absent instead of
failing.  A rename inside ``src/bptn`` would then drop a span or counter
from the benchmark without an error; this test catches it.  The tracer
module is loaded from its file.  The name checks only read it; one test
installs the tracer around an in-process ``bp`` run, checks the BP
counters, and uninstalls it.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
NAMES = ([dotted for dotted, *_ in tracing.SPANS]
         + [dotted for dotted, _ in tracing.CALL_COUNTERS]
         + [dotted for dotted, _ in tracing.YIELD_COUNTERS])


@pytest.mark.parametrize("dotted", NAMES)
def test_traced_name_resolves(dotted):
    assert tracing._resolve(dotted) is not None, dotted


def test_traced_bp_stability_counts_sweeps(capsys):
    """The tracer's BP counters: the ``bp_stability`` argv runs 215
    iteration sweeps and 120 probe sweeps (``bptn.bp._sweep`` calls inside
    the probe span, each advancing both chains), and every wrapped name
    resolves."""
    import bptn.cli

    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        code = tracer.run("cli.main", bptn.cli.main,
                          ["bp", "--generate", "ising:L=3,beta=0.34,h=0.05"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    m = tracer.summary()
    assert (m["bp.sweeps"], m["bp.stability_sweeps"], m["trace.absent"]) == (
        215, 120, 0)
