"""Every private module-level helper of the package has a caller and one name.

A deletion that removes the last caller of a ``_name`` function, class or
module-level value (a registry, a table, a constant) leaves dead code
behind, and a helper name defined in two modules leaves a reader, a search
or a monkeypatch unsure which one runs.  These tests name both.
"""

import ast
from pathlib import Path

import quadric

SOURCES = sorted(Path(quadric.__file__).parent.glob("*.py"))


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """``(name, statement)`` for each private name that a module-level
    ``def``, ``class`` or assignment binds."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        found += [(name, node) for name in names if name[:1] == "_" and name[:2] != "__"]
    return found


def _references(tree: ast.AST, skip: ast.AST | None) -> set[str]:
    """Names read as ``name`` or ``obj.name`` in ``tree``, outside the node ``skip``."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {"hypersurface.py", "tangent.py", "cli.py"} <= set(trees)
    defined = {name for tree in trees.values() for name, _ in _private_definitions(tree)}
    assert {"_require_hopf", "_ESCAPES", "_STACK_BUDGET"} <= defined
    orphans = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            used = any(
                name in _references(other, node if other is tree else None)
                for other in trees.values()
            )
            if not used:
                orphans.append(f"{module}:{name}")
    assert orphans == []


def test_no_private_function_name_is_defined_twice():
    modules: dict[str, list[str]] = {}
    for path in SOURCES:
        for name, node in _private_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                modules.setdefault(name, []).append(path.name)
    assert {name: found for name, found in modules.items() if len(found) > 1} == {}
