"""CSV writers for the engine's output files, plus the comparison used by
verification. Files are UTF-8 with a mandatory header row and "\n" line
endings.

Each row record's field order is its file's column order, so the writers
hand the records to csv as they are: csv writes a date in ISO form and a
Decimal through str. write_metrics_csv only inserts the source's title after
source_id, and write_stability_csv gives the rank correlation six decimals.

The writers keep the order they are given, which is the file order: metrics
rows by source_id, standings by (source_id, asjc_code), tracker rows by
(source_id, as_of) and stability points by as_of, as compute_annual,
tracker_table and stability_report return them."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Mapping

from .metrics import CategoryStanding, MetricsRow
from .records import SourceRecord
from .tracker import StabilityPoint, TrackerRow

METRICS_HEADER = ["source_id", "title", "year", "citescore", "citations", "documents", "percent_cited"]
STANDINGS_HEADER = ["source_id", "asjc_code", "rank", "n_in_category", "percentile", "quartile"]
TRACKER_HEADER = ["source_id", "tracker_year", "as_of_date", "citations", "documents", "tracker_value"]
STABILITY_HEADER = ["as_of_date", "n_sources", "rank_correlation"]
# The most row differences compare_output_files gives, and verify reports.
MAX_DIFFERENCES = 50


def _write_csv(path: str | Path, header: list[str], rows: Iterable[tuple]) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_metrics_csv(
    path: str | Path, rows: list[MetricsRow], sources: Mapping[int, SourceRecord]
) -> Path:
    return _write_csv(path, METRICS_HEADER, ((row.source_id, sources[row.source_id].title, *row[1:]) for row in rows))


def write_standings_csv(path: str | Path, standings: list[CategoryStanding]) -> Path:
    return _write_csv(path, STANDINGS_HEADER, standings)


def write_tracker_csv(path: str | Path, rows: list[TrackerRow]) -> Path:
    return _write_csv(path, TRACKER_HEADER, rows)


def write_stability_csv(path: str | Path, points: list[StabilityPoint]) -> Path:
    return _write_csv(path, STABILITY_HEADER, ((as_of, n, f"{rho:.6f}") for as_of, n, rho in points))


def compare_output_files(left_path: str | Path, right_path: str | Path, key_width: int) -> list[str]:
    """Differences between two output files of the same format; empty only
    when the files are byte-identical.

    Rows are matched on their first key_width columns after sorting; the
    returned descriptions are capped at MAX_DIFFERENCES. Files whose rows all match
    but whose bytes differ (rows in another order, say) give the single
    description "files differ at byte level".
    """
    if Path(left_path).read_bytes() == Path(right_path).read_bytes():
        return []
    left_header, left_rows = _read_rows(left_path, key_width)
    right_header, right_rows = _read_rows(right_path, key_width)
    differences: list[str] = []
    if left_header != right_header:
        differences.append(f"header mismatch: {left_header!r} != {right_header!r}")
    for key in sorted(set(left_rows) | set(right_rows)):
        if len(differences) >= MAX_DIFFERENCES:
            break
        left_row = left_rows.get(key)
        right_row = right_rows.get(key)
        if left_row == right_row:
            continue
        label = ",".join(key)
        if left_row is None:
            differences.append(f"row [{label}] only in {Path(right_path).name}: {right_row}")
        elif right_row is None:
            differences.append(f"row [{label}] only in {Path(left_path).name}: {left_row}")
        else:
            differences.append(f"row [{label}]: {left_row} != {right_row}")
    return differences or ["files differ at byte level"]


def _read_rows(path: str | Path, key_width: int) -> tuple[list[str], dict[tuple[str, ...], list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        rows = {tuple(row[:key_width]): row for row in reader}
    return header, rows
