"""Oracle-backed checks of the engine's outputs, run outside the timed phase.

``citescore.oracle_metrics`` recomputes the annual basket from the raw record
files and shares no code with the engine, so agreement with it is the
correctness bar for every workload.
"""

from __future__ import annotations

import csv
from datetime import date
from pathlib import Path
from time import perf_counter

from citescore import oracle_metrics


class Oracle:
    """Runs the oracle over one corpus, once per cutoff, and keeps its time."""

    def __init__(self, corpus: tuple[Path, Path, Path], work: Path) -> None:
        self.corpus = corpus
        self.work = work
        self.seconds = 0.0
        self._runs: dict[tuple[int, date], tuple[Path, Path]] = {}

    def files(self, year: int, cutoff: date) -> tuple[Path, Path]:
        key = (year, cutoff)
        if key not in self._runs:
            start = perf_counter()
            self._runs[key] = oracle_metrics(
                *self.corpus, year, cutoff, self.work / f"{year}-{cutoff.isoformat()}"
            )
            self.seconds += perf_counter() - start
        return self._runs[key]

    def scores(self, year: int, cutoff: date) -> dict[int, tuple[str, str, str]]:
        """source_id -> (citations, documents, citescore) as the oracle writes them."""
        metrics_path, _ = self.files(year, cutoff)
        with open(metrics_path, encoding="utf-8", newline="") as handle:
            return {
                int(row["source_id"]): (row["citations"], row["documents"], row["citescore"])
                for row in csv.DictReader(handle)
            }


def check_compute(oracle: Oracle, out_dir: Path, year: int, cutoff: date) -> list[str]:
    """metrics.csv and standings.csv must equal the oracle's byte for byte."""
    problems = []
    for produced, expected in zip(("metrics.csv", "standings.csv"), oracle.files(year, cutoff)):
        if (out_dir / produced).read_bytes() != expected.read_bytes():
            problems.append(f"{produced} differs from the oracle")
    return problems


def check_tracker(oracle: Oracle, out_dir: Path, year: int, schedule: list[date]) -> list[str]:
    """At the first, middle and last as-of date, the tracker rows must equal
    the oracle's (citations, documents, citescore) at that cutoff."""
    rows: dict[str, dict[int, tuple[str, str, str]]] = {}
    with open(out_dir / "tracker.csv", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            rows.setdefault(row["as_of_date"], {})[int(row["source_id"])] = (
                row["citations"], row["documents"], row["tracker_value"]
            )
    problems = []
    for as_of in (schedule[0], schedule[(len(schedule) - 1) // 2], schedule[-1]):
        if rows.get(as_of.isoformat(), {}) != oracle.scores(year, as_of):
            problems.append(f"tracker rows at {as_of} differ from the oracle")
    if not (out_dir / "stability.csv").is_file():
        problems.append("stability.csv is missing")
    return problems


def query_mismatches(
    oracle: Oracle, year: int, queries: list[tuple[int, date]], results: list[str | None]
) -> int:
    """Calls whose value differs from the oracle's citescore at that cutoff;
    a source absent from the oracle's output must give None."""
    bad = 0
    for (source_id, as_of), value in zip(queries, results):
        expected = oracle.scores(year, as_of).get(source_id)
        if value != (expected[2] if expected else None):
            bad += 1
    return bad
