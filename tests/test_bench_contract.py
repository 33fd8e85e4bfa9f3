"""The names perfbench/spans.py rebinds must stay where it looks for them and
stay on the call path, or the benchmark's per-layer metrics silently read 0."""

from __future__ import annotations

import sys
from datetime import date
from pathlib import Path

import pytest

from citescore import CorpusConfig, generate_corpus, load_index

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import CLI_SPANS, QUERY_SPANS, Tracer, run_cli_in_process, run_queries_in_process  # noqa: E402


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    paths = generate_corpus(CorpusConfig(seed=12, n_journals=12), tmp_path_factory.mktemp("corpus"))
    return paths.sources_path, paths.publications_path, paths.links_path


def _inputs(corpus) -> list[str]:
    return ["--sources", str(corpus[0]), "--pubs", str(corpus[1]), "--links", str(corpus[2])]


def _trace(names, run):
    """Span names recorded and rebound names actually called by run(tracer, seen)."""
    called: set[str] = set()
    seen = {name: (lambda _result, name=name: called.add(name)) for name in names}
    tracer = Tracer()
    run(tracer, seen)
    return {record["name"] for record in tracer.spans}, called


def test_compute_records_every_layer(corpus, tmp_path):
    argv = ["compute", *_inputs(corpus), "--year", "2017", "--out", str(tmp_path)]
    spans, called = _trace(CLI_SPANS, lambda tracer, seen: run_cli_in_process(argv, tracer, seen))
    assert {"index.ingest", "index.snapshot", "metrics.compute_annual", "output.write",
            "manifest.digest", "manifest.write"} <= spans
    assert {"load_index", "snapshot", "compute_annual", "write_metrics_csv",
            "write_standings_csv", "build_manifest", "write_manifest"} <= called


def test_tracker_records_table_and_stability(corpus, tmp_path):
    argv = ["tracker", *_inputs(corpus), "--year", "2018", "--from", "2018-01", "--to", "2018-06",
            "--stability-report", "--out", str(tmp_path)]
    spans, called = _trace(CLI_SPANS, lambda tracer, seen: run_cli_in_process(argv, tracer, seen))
    assert {"tracker.table", "tracker.stability"} <= spans
    assert {"tracker_table", "stability_report", "write_tracker_csv"} <= called


def test_point_queries_record_snapshot_and_per_source(corpus):
    index, _report = load_index(*corpus)
    queries = [(source_id, date(2018, 6, 30)) for source_id in sorted(index.sources)]
    spans, called = _trace(
        QUERY_SPANS, lambda tracer, seen: run_queries_in_process(index, 2018, queries, tracer, seen)
    )
    assert {"index.snapshot", "metrics.per_source"} <= spans
    assert called == {"snapshot", "is_eligible", "citescore"}
