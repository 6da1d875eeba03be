"""The demos still run against the current API.

Each demo runs as its own process, with ``src`` put first on PYTHONPATH,
and must exit 0; a renamed or removed function fails it at import or at
the call.  Demos 01 and 03 take about 1.3 s together.  Demos 02 (about
9 s) and 04 (about 41 s) are left out for their runtime.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_tree_exactness.py",
                                  "03_peps_observables.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
