"""Every defaulted parameter of a function the package calls is set by one of its calls.

A default that no call of the package overrides is a knob with one value
in use: a constant written as an option.  Calls are matched to definitions
by name, as ``obj.name(...)`` or ``name(...)``; a function the package never
calls (public API only) is not checked.
"""

import ast
from pathlib import Path

import quadric

TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(quadric.__file__).parent.glob("*.py"))
}

#: ``module:function`` -> why its defaulted parameters may stay unset.
EXEMPT = {
    "cli.py:main": "the console entry point: callers outside the package pass argv",
}


def _definitions(tree: ast.Module):
    """``(function, is_method)`` for every function defined in ``tree``, nested ones included."""
    stack = [(tree, False)]
    while stack:
        node, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                yield child, in_class and not static
            stack.append((child, isinstance(child, ast.ClassDef)))


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    """``(name, positional index)`` of each defaulted parameter; the index is
    ``None`` for keyword-only ones and leaves out ``self``."""
    positional = [*fn.args.posonlyargs, *fn.args.args][1 if is_method else 0 :]
    first = len(positional) - len(fn.args.defaults)
    params = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    params += [
        (arg.arg, None)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return params


def _sets(call: ast.Call, name: str, index: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_set_by_some_call():
    assert {"models.py", "suites.py", "cli.py"} <= set(TREES)
    calls: dict[str, list[ast.Call]] = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node):
                calls.setdefault(_called_name(node), []).append(node)

    unset = []
    for module, tree in TREES.items():
        for fn, is_method in _definitions(tree):
            if fn.name.startswith("__") or f"{module}:{fn.name}" in EXEMPT or fn.name not in calls:
                continue
            for name, index in _defaulted(fn, is_method):
                if not any(_sets(call, name, index) for call in calls[fn.name]):
                    unset.append(f"{fn.name}({name}) in {module}")
    assert unset == []


def test_exemptions_name_defined_functions():
    defined = {f"{module}:{fn.name}" for module, tree in TREES.items() for fn, _ in _definitions(tree)}
    assert set(EXEMPT) <= defined
