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
