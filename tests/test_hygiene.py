"""Static checks on the package source: no unused imports, no stale __all__,
no orphaned private names.

Each module except ``__init__.py`` (which only re-exports) is parsed with
``ast``. An imported name must be read somewhere in its module, every
``__all__`` entry must be defined at module level, and every private
module-level name must be referenced somewhere in the package outside its
own definition. ``__init__.__all__`` lists exactly the names it imports,
only ``linalg.py`` calls SuperLU, only ``bounds.py`` calls the eigensolver
or decides an enclosure, and only ``bounds.py`` compares ``nu_min`` with
``-nu_max``.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import expmrect

PACKAGE = Path(expmrect.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names that appear only inside string annotations
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name)}
    return used


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _module_level_names(tree: ast.Module) -> set[str]:
    names = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree) | set(_dunder_all(tree))
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used (name: line): {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_all_names_are_defined(path):
    tree = ast.parse(path.read_text())
    missing = [name for name in _dunder_all(tree) if name not in _module_level_names(tree)]
    assert not missing, f"{path.name}: __all__ lists undefined names {missing}"


def _private_definitions(tree: ast.Module):
    """(name, first line, last line) of each private module-level def,
    class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of every name read, attribute accessed or name imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_private_names_are_referenced(path):
    trees = {p: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}
    refs = {p: list(_references(tree)) for p, tree in trees.items()}
    orphans = []
    for name, first, last in _private_definitions(trees[path]):
        used = any(
            ref == name and not (p == path and first <= line <= last)
            for p, lines in refs.items()
            for ref, line in lines
        )
        if not used:
            orphans.append(name)
    assert not orphans, f"{path.name}: private names nothing references {orphans}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_linalg_calls_superlu(path):
    # every factor, and so every proof of definiteness, goes through linalg
    if path.name != "linalg.py":
        assert "splu" not in path.read_text(), f"{path.name} calls SuperLU outside linalg"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_bounds_calls_an_eigensolver(path):
    # every rectangle and condition estimate comes from one eigensolver path
    if path.name != "bounds.py":
        found = re.findall(r"\beig(?:sh|valsh)\b", path.read_text())
        assert not found, f"{path.name} calls {sorted(set(found))} outside bounds"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_bounds_decides_the_enclosure(path):
    # analyze_pencil picks the pencils each region mode encloses; a second
    # call site would be a second enclosure path
    if path.name != "bounds.py":
        found = re.findall(r"\b(raw_extremes|cond_estimate)\(", path.read_text())
        assert not found, f"{path.name} calls {sorted(set(found))} outside bounds"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_bounds_decides_rectangle_symmetry(path):
    # BoundingRectangle guarantees nu_min == -nu_max; a second test of it
    # elsewhere would be a fallback for rectangles that cannot exist
    if path.name != "bounds.py":
        found = re.search(
            r"nu_min\s*[!=]=\s*-\s*[\w.]*nu_max|-\s*[\w.]*nu_max\s*[!=]=\s*[\w.]*nu_min",
            path.read_text(),
        )
        assert found is None, f"{path.name} compares nu_min with -nu_max: {found.group(0)!r}"


def test_init_all_matches_its_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = set(_imported_names(tree))
    exported = set(_dunder_all(tree))
    assert exported == imported, (
        f"imported but not in __all__: {sorted(imported - exported)}; "
        f"in __all__ but not imported: {sorted(exported - imported)}"
    )
