"""Every definition in ``src/bptn`` has a caller outside the tests, and
``src/bptn`` imports nothing it does not use.

A top-level function or class, or a public method, that only the tests
name is code the program never runs; it is deleted, moved into the tests
that use it as an oracle, or listed in ``ALLOWED`` with its reason (and
leaves the list once it gains a caller).  The scan is by name: a definition counts as reached when its name appears
somewhere in ``src/bptn``, ``demos/`` or ``perfbench/`` outside its own
definition, as an identifier, an attribute, an imported name or a part of
a dotted ``"bptn.<...>"`` string (the names ``perfbench/tracing.py``
wraps).
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bptn"
CALLERS = [PACKAGE, ROOT / "demos", ROOT / "perfbench"]

ALLOWED = {
    "load_messages": "README's bit-exact message round trip, checked by "
                     "test_acceptance_11",
    "save_network": "the writer of that round trip; the CLI reads network "
                    "files but never writes one",
}

_DOTTED = re.compile(r"bptn(\.\w+)+")


def _trees(dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _references(tree):
    """(name, line) for every name the module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            for part in node.value.split(".")[1:]:
                yield part, node.lineno


def _definitions(tree):
    """(name, first line, last line) of the top-level functions and
    classes and of the public methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, defs[:2])
                        and not item.name.startswith("_")):
                    yield item.name, item.lineno, item.end_lineno


REFS = [(path, list(_references(tree))) for path, tree in _trees(CALLERS)]
UNREACHED = {
    name: f"{path.relative_to(ROOT)}:{first} {name}"
    for path, tree in _trees([PACKAGE])
    for name, first, last in _definitions(tree)
    if not any(ref == name and not (p == path and first <= line <= last)
               for p, refs in REFS for ref, line in refs)}


def test_every_definition_has_a_caller():
    unreached = [where for name, where in UNREACHED.items()
                 if name not in ALLOWED]
    assert not unreached, "no caller outside tests/:\n" + "\n".join(unreached)


def test_allowlist_lists_only_unreached_definitions():
    assert set(ALLOWED) <= set(UNREACHED)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"unused imports: {', '.join(unused)}"
