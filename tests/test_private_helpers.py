"""Every private module-level helper and every module constant of the package
has a reader, and every private helper one name.

A deletion that removes the last caller of a ``_name`` function, class or
module-level value (a registry, a table, a constant), or the last reader of
an upper-case module constant such as a tolerance, leaves dead code behind,
and a helper name defined in two modules leaves a reader, a search or a
monkeypatch unsure which one runs.  These tests name both.
"""

import ast
from pathlib import Path

import quadric

SOURCES = sorted(Path(quadric.__file__).parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name[:1] == "_" and name[:2] != "__"


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """``(name, statement)`` for each name that a module-level ``def``,
    ``class`` or assignment binds."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        found += [(name, node) for name in names]
    return found


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    return [(name, node) for name, node in _definitions(tree) if _is_private(name)]


def _constant_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Upper-case names that a module-level assignment binds, such as ``UNIT_TOL``."""
    return [
        (name, node)
        for name, node in _definitions(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and name.isupper() and name[:2] != "__"
    ]


def _references(tree: ast.AST, skip: ast.AST | None) -> set[str]:
    """Names read as ``name`` or ``obj.name`` in ``tree``, outside the node ``skip``.

    An ``import`` binds no ``Name``, so the re-exports of ``__init__.py``
    read nothing.
    """
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unread(trees: dict[str, ast.Module], definitions) -> list[str]:
    """``module:name`` for each name that ``definitions`` finds and that no
    module reads outside the statement binding it."""
    orphans = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            used = any(
                name in _references(other, node if other is tree else None)
                for other in trees.values()
            )
            if not used:
                orphans.append(f"{module}:{name}")
    return orphans


def _trees() -> dict[str, ast.Module]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {"__init__.py", "hypersurface.py", "tangent.py", "cli.py"} <= set(trees)
    return trees


def test_every_private_helper_is_referenced():
    trees = _trees()
    defined = {name for tree in trees.values() for name, _ in _private_definitions(tree)}
    assert {"_require_hopf", "_ESCAPES", "_STACK_BUDGET"} <= defined
    assert _unread(trees, _private_definitions) == []


def test_every_module_constant_is_read():
    """A constant whose last reader in the package is deleted fails here,
    also when ``__init__.py`` still re-exports it."""
    trees = _trees()
    defined = {name for tree in trees.values() for name, _ in _constant_definitions(tree)}
    assert {"UNIT_TOL", "CONSTRUCTION_TOL", "VERSION", "_STACK_BUDGET"} <= defined
    assert _unread(trees, _constant_definitions) == []


def test_no_private_function_name_is_defined_twice():
    modules: dict[str, list[str]] = {}
    for path in SOURCES:
        for name, node in _private_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                modules.setdefault(name, []).append(path.name)
    assert {name: found for name, found in modules.items() if len(found) > 1} == {}
