"""The package's public surface."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import citescore
from citescore import CorpusConfig, compute_annual, generate_corpus, ingest, snapshot
from citescore.tracker import stability_report, tracker_table

from helpers import link_line, pub_line, source_line


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


@pytest.mark.parametrize("argv", [
    [],
    ["compute", "--year", "2017"],
    ["tracker", "--year", "2017", "--from", "2017-01", "--to", "2018-04", "--stability-report"],
    ["snapshot-info", "--year", "2017"],
    ["verify", "--year", "2017"],
], ids=["import", "compute", "tracker", "snapshot-info", "verify"])
def test_engine_commands_load_no_dataclasses(tmp_path, argv):
    """Importing the CLI, or running an engine command, loads neither
    dataclasses nor the inspect module it imports. The corpus is generated
    here, in the test process, as the generator keeps its dataclasses."""
    paths = generate_corpus(CorpusConfig(seed=23, n_journals=6), tmp_path / "corpus")
    flags = ["--sources", str(paths.sources_path), "--pubs", str(paths.publications_path),
             "--links", str(paths.links_path), "--out", str(tmp_path / "out")]
    run = f"citescore.cli.main({argv + flags!r})" if argv else "0"
    code = f"import sys, citescore.cli\nprint({run}, [m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(citescore.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "0 []"


def test_engine_records_refuse_assignment():
    """Each record the engine hands out is read-only, field by field."""
    sources = [source_line(1), source_line(2, predecessor=1)]
    pubs = [pub_line("d", 1, 2016), pub_line("c", 2, 2017, load_date="2017-03-01")]
    index, _ = ingest(sources, pubs, [link_line("c", "d")])
    rows, standings = compute_annual(snapshot(index, date(2018, 4, 30)), 2017)
    points = tracker_table(index, 2017, [date(2017, 1, 31), date(2017, 12, 31)])
    records = {
        "source_id title source_type asjc_codes is_actively_indexed predecessor_source_id": index.sources[2],
        "source_id year citescore citations documents percent_cited": rows[0],
        "source_id asjc_code rank n_in_category percentile quartile": standings[0],
        "source_id tracker_year as_of citations documents value": points[0],
        "as_of n_sources rank_correlation": stability_report(points)[0],
    }
    for names, record in records.items():
        for name in names.split():
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
    assert (rows[0].source_id, str(rows[0].citescore), standings[0].n_in_category) == (2, "1.00", 1)
