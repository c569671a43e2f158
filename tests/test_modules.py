"""Import hygiene of the package modules, checked by parsing their source.

Each module-level import must be used in the module or re-exported in
__all__, and every name in __all__ must be defined or imported.
"""

import ast
from pathlib import Path

import pytest

import sigmaric

MODULES = sorted(Path(sigmaric.__file__).parent.glob("*.py"))


def _imported_names(tree):
    """Names bound by the module-level import statements."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [a.asname or a.name for a in node.names]
    return names


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _defined_names(tree):
    """Names bound at module level by definitions and assignments."""
    names = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                names.update(n.id for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return names


def _used_names(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree) | set(_exported_names(tree))
    unused = [n for n in _imported_names(tree) if n not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    tree = ast.parse(path.read_text())
    missing = [n for n in _exported_names(tree)
               if n not in _defined_names(tree)]
    assert not missing, f"{path.name} exports undefined {missing}"
