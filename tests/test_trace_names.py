"""Every name the benchmark tracer wraps still exists.

``perfbench/tracing.py`` patches bptn functions under the dotted names the
program looks them up by, and reports a missing name as absent instead of
failing.  A rename inside ``src/bptn`` would then drop a span or counter
from the benchmark without an error; this test catches it.  The tracer
module is loaded from its file and only read: nothing is patched.
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
