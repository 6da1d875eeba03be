"""``src/bptn`` has one error class per CLI exit code, and no other.

``cli.main`` maps ``InputError`` to exit 2, ``NumericalError`` to 3 and
``BudgetError`` to 4.  A refusal raises one of the three, with a message
that names the failure.  A class of its own, or a bare ``EngineError``,
would reach no exit code, so the scan refuses both.
"""

import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bptn"
ENGINE_ERRORS = {"EngineError", "InputError", "NumericalError",
                 "BudgetError"}
RAISABLE = ENGINE_ERRORS - {"EngineError"}

TREES = {path.name: ast.parse(path.read_text())
         for path in sorted(PACKAGE.glob("*.py"))}


def _name(node):
    """The name a base class or a raised expression refers to, or None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def test_the_only_exception_classes_are_the_engine_errors():
    """A class is an exception class when a base is a builtin exception
    or an exception class defined in ``src/bptn``."""
    known = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    classes = [(module, node) for module, tree in TREES.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    while True:
        grown = known | {node.name for _, node in classes
                         if any(_name(b) in known for b in node.bases)}
        if grown == known:
            break
        known = grown
    found = {(module, node.name) for module, node in classes
             if node.name in known}
    assert found == {("errors.py", name) for name in ENGINE_ERRORS}


def test_every_engine_error_raised_is_one_of_the_three():
    raised = set()
    for module, tree in TREES.items():
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module in ("errors", "bptn.errors")
                    for alias in node.names}
        for node in ast.walk(tree):
            name = isinstance(node, ast.Raise) and _name(node.exc)
            if name in imported | ENGINE_ERRORS:
                assert name in RAISABLE, f"{module}:{node.lineno} {name}"
                raised.add(name)
    assert raised == RAISABLE
