"""Every defaulted parameter in ``src/bptn`` is set by the program.

A parameter with a default that only the tests pass is a setting the
program never uses: it is removed (the tests monkeypatch the module-level
default instead, as they do ``DEFAULT_CLUSTER_BUDGET``), or listed in
``ALLOWED`` with its reason.  The scan is by name, as in
``test_no_dead_code.py``: a parameter counts as set when some call in
``src/bptn``, ``demos/`` or ``perfbench/`` of a function, method or class
of its definition's name passes it by keyword, by position, or through a
``*`` or ``**`` splat.  A class is called through its ``__init__``, and a
method's ``self`` is not counted among the positions.
"""

import ast

from test_no_dead_code import CALLERS, PACKAGE, ROOT, _trees

ALLOWED = {
    "save_network(messages)": "README's bit-exact message round trip, "
                              "checked by test_acceptance_11",
}


def _defaulted(tree):
    """(callable name, parameter, position) of each defaulted parameter
    of a top-level function, a class's ``__init__`` or a public method;
    the position counts from the first argument a call passes, None for a
    keyword-only parameter."""
    def params(fn, name, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        for k, a in enumerate(positional[len(positional)
                                         - len(args.defaults):]):
            yield name, a.arg, len(positional) - len(args.defaults) + k - skip
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield name, a.arg, None

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from params(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__"
                        or not item.name.startswith("_")):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield from params(
                        item, node.name if item.name == "__init__"
                        else item.name, 0 if static else 1)


def _calls(tree):
    """(callee name, positional count or None if splatted, keyword names
    or None if splatted) of every call, a name imported under another
    read as its own."""
    alias = {a.asname: a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names
             if a.asname}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = (f.id if isinstance(f, ast.Name) else
                f.attr if isinstance(f, ast.Attribute) else None)
        if name is None:
            continue
        name = alias.get(name, name)
        splat = any(isinstance(a, ast.Starred) for a in node.args)
        kws = [k.arg for k in node.keywords]
        yield (name, None if splat else len(node.args),
               None if None in kws else set(kws))


CALLS = [call for _, tree in _trees(CALLERS) for call in _calls(tree)]
UNSET = {
    f"{name}({param})": f"{path.relative_to(ROOT)} {name}({param})"
    for path, tree in _trees([PACKAGE])
    for name, param, pos in _defaulted(tree)
    if not any(callee == name and (
        n is None or kws is None or param in kws
        or (pos is not None and n > pos)) for callee, n, kws in CALLS)}


def test_every_defaulted_parameter_is_set_by_the_program():
    unset = [where for key, where in UNSET.items() if key not in ALLOWED]
    assert not unset, "set only by tests/:\n" + "\n".join(unset)


def test_allowlist_lists_only_unset_parameters():
    assert set(ALLOWED) <= set(UNSET)
