"""Spans recorded around the calls into each layer, from outside the program.

The traced run calls the engine's public functions in the order the CLI
calls them. For the CLI workloads it runs ``citescore.cli.main`` in process
with those names rebound to span-recording wrappers; no engine file is
touched. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import tracemalloc
from collections import defaultdict
from statistics import median
from time import perf_counter

# Names citescore.cli calls, and the span each call is recorded under.
CLI_SPANS = {
    "load_index": "index.ingest",
    "snapshot": "index.snapshot",
    "compute_annual": "metrics.compute_annual",
    "tracker_table": "tracker.table",
    "stability_report": "tracker.stability",
    "write_metrics_csv": "output.write",
    "write_standings_csv": "output.write",
    "write_tracker_csv": "output.write",
    "build_manifest": "manifest.digest",
    "write_manifest": "manifest.write",
}
# Names citescore.tracker.tracker_value calls.
QUERY_SPANS = {
    "snapshot": "index.snapshot",
    "is_eligible": "metrics.per_source",
    "citescore": "metrics.per_source",
}


class Tracer:
    """Spans (id, name, parent, start, end) of one traced run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, seen=None):
        """fn inside a span; seen(result) runs after the span closes."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if seen is not None:
                seen(result)
            return result
        return traced

    @staticmethod
    def _duration(record: dict) -> float:
        return record["end"] - record["start"]

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for record in self.spans:
            out[record["name"]] += self._duration(record)
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None:
                covered[record["parent"]] += self._duration(record)
        out: dict[str, float] = defaultdict(float)
        for record in self.spans:
            out[record["name"]] += self._duration(record) - covered[record["id"]]
        return dict(out)


@contextlib.contextmanager
def rebound(module, names: dict[str, str], tracer: Tracer | None, seen: dict | None):
    """Rebind module attributes to traced wrappers for the duration; with no
    tracer, leave them alone."""
    saved = {name: getattr(module, name) for name in names}
    try:
        if tracer is not None:
            for name, label in names.items():
                setattr(module, name, tracer.wrap(label, saved[name], (seen or {}).get(name)))
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def run_cli_in_process(argv: list[str], tracer: Tracer | None = None, seen: dict | None = None) -> float:
    """citescore.cli.main(argv) with its stderr discarded; returns seconds.
    With a tracer, the whole call is the root span "cli"."""
    from citescore import cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink), \
            rebound(cli, CLI_SPANS, tracer, seen):
        start = perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli"):
                code = cli.main(argv)
        seconds = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"citescore {' '.join(argv)} exited {code}")
    return seconds


def run_queries_in_process(index, year: int, queries, tracer: Tracer | None = None,
                           seen: dict | None = None) -> float:
    """One pass of tracker_value calls; returns seconds. With a tracer, each
    call is a "tracker.value" span."""
    from citescore import tracker

    with rebound(tracker, QUERY_SPANS, tracer, seen):
        start = perf_counter()
        for source_id, as_of in queries:
            if tracer is None:
                tracker.tracker_value(index, source_id, year, as_of)
            else:
                with tracer.span("tracker.value"):
                    tracker.tracker_value(index, source_id, year, as_of)
        return perf_counter() - start


def ingest_peak_mib(corpus) -> float:
    """Peak traced allocation of one load_index, in its own tracemalloc pass."""
    from citescore import load_index

    tracemalloc.start()
    try:
        index, _report = load_index(*corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del index
    return peak / 2**20


def json_floor(corpus) -> tuple[float, int]:
    """Seconds for bare line reads plus json.loads over the input files, and
    the number of non-blank lines."""
    lines_in = 0
    start = perf_counter()
    for path in corpus:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    lines_in += 1
                    try:
                        json.loads(line)
                    except json.JSONDecodeError:
                        pass
    return perf_counter() - start, lines_in


def median_by_name(runs: list[dict[str, float]]) -> dict[str, float]:
    names = set().union(*runs)
    return {name: median(run.get(name, 0.0) for run in runs) for name in names}
