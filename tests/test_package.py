"""The package's public surface."""

from __future__ import annotations

import ast
from pathlib import Path

import citescore


def test_every_exported_name_resolves():
    missing = [name for name in citescore.__all__ if not hasattr(citescore, name)]
    assert not missing
    assert len(set(citescore.__all__)) == len(citescore.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from citescore import *", namespace)
    assert set(citescore.__all__) <= namespace.keys()


def test_oracle_imports_no_engine_code():
    """The oracle is the one deliberate duplicate of the engine's rules: it
    makes no relative import and imports no citescore module."""
    tree = ast.parse(Path(citescore.__file__).with_name("oracle.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import on line {node.lineno}"
            imported.append(node.module)
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert imported
    assert not [name for name in imported if name.split(".")[0] == "citescore"]


def _modules() -> dict[str, ast.Module]:
    package = Path(citescore.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for module, tree in _modules().items():
        loaded = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unused.append(f"{module}:{node.lineno} {name}")
    assert not unused


def test_every_private_module_name_is_read_in_the_package():
    """A module-level _name that no module of the package reads is a helper
    or constant left behind."""
    modules = _modules()
    loaded = set().union(*map(_loaded_names, modules.values()))
    unread = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                continue
            unread += [f"{module}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in loaded]
    assert not unread
