"""Every runtime dependency that ``pyproject.toml`` declares is imported
somewhere in ``src/bptn``: a dependency the package never imports is one
more thing every install fetches for nothing."""

import ast
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported():
    """Top-level names of the modules ``src/bptn`` imports."""
    names = set()
    for path in sorted((ROOT / "src" / "bptn").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    return names


def test_every_declared_dependency_is_imported():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in declared]
    assert declared
    unused = sorted(set(names) - _imported())
    assert not unused, f"declared but never imported: {', '.join(unused)}"
