"""The in-progress current-year score, rebuilt on a monthly schedule.

A tracker point is the annual formula over the index as it stood at an
earlier cutoff, each tally read by bisection from the tracker year's
load-day timelines, built once per index and year (metrics._timelines).
Every point comes from metrics.scores, the one rule that scores those
tallies: tracker_table reads it for every source, tracker_series for one,
and compute_annual at the annual cutoff, so the final tracker point and the
annual value coincide once everything has loaded. tracker_value is the
per-source path. The stability report ranks ties by the standings' rule.
"""

from __future__ import annotations

import calendar
import math
from datetime import date
from decimal import Decimal
from typing import Iterable, Iterator, NamedTuple

from .index import IndexSnapshot, snapshot
from .metrics import _ties, citescore, is_eligible, scores
from .records import parse_date


class TrackerRow(NamedTuple):
    """One tracker point: a source's score at one schedule date."""

    source_id: int
    tracker_year: int
    as_of: date
    citations: int
    documents: int
    value: Decimal


class TrackerSeries(NamedTuple):
    """Monthly tracker points for one source; months where the source is not
    yet scoreable (no documents in the cited window) are simply absent."""

    source_id: int
    tracker_year: int
    points: tuple[TrackerRow, ...]


def month_end(year: int, month: int) -> date:
    return date(year, month, calendar.monthrange(year, month)[1])


def month_end_schedule(start: str, end: str) -> list[date]:
    """Last-day-of-month dates from start to end, both "YYYY-MM", inclusive."""
    first, last = _month_count(start), _month_count(end)
    if first > last:
        raise ValueError(f"schedule start {start} is after end {end}")
    return [month_end(count // 12, count % 12 + 1) for count in range(first, last + 1)]


def _month_count(text: str) -> int:
    """Months since year 0 of a "YYYY-MM" month: 12 * year + month - 1."""
    try:
        first = parse_date(f"{text}-01")
    except ValueError:
        raise ValueError(f"expected YYYY-MM, got {text!r}") from None
    return 12 * first.year + first.month - 1


def tracker_value(
    index: IndexSnapshot, source_id: int, tracker_year: int, as_of: date
) -> Decimal | None:
    """The annual formula applied at an earlier cutoff; None while the source
    is not yet scoreable."""
    view = snapshot(index, as_of)
    if not is_eligible(view, source_id, tracker_year):
        return None
    return citescore(view, source_id, tracker_year)


def tracker_series(
    index: IndexSnapshot,
    source_id: int,
    tracker_year: int,
    schedule: list[date],
) -> TrackerSeries:
    """Evaluate one source over an ascending schedule of as-of dates."""
    points = tuple(_rows(index, tracker_year, schedule, [source_id]))
    return TrackerSeries(source_id, tracker_year, points)


def tracker_table(index: IndexSnapshot, tracker_year: int, schedule: list[date]) -> list[TrackerRow]:
    """Tracker points for every scoreable source, for the batch output file,
    in (source_id, as_of) order. No snapshot is built, and no tally is kept
    past its row.
    """
    return list(_rows(index, tracker_year, schedule, sorted(index.sources)))


def _rows(
    index: IndexSnapshot, tracker_year: int, schedule: list[date], source_ids: Iterable[int]
) -> Iterator[TrackerRow]:
    for source_id, as_of, tally, value in scores(index, tracker_year, schedule, source_ids):
        yield TrackerRow(source_id, tracker_year, as_of, tally.citations, tally.documents, value)


class StabilityPoint(NamedTuple):
    as_of: date
    n_sources: int
    rank_correlation: float


def stability_report(rows: list[TrackerRow]) -> list[StabilityPoint]:
    """How stable the relative view is month over month.

    For each schedule date, the Spearman rank correlation (average ranks for
    ties) between that month's tracker values and the final month's, over
    the sources present at both dates. Empirical companion output, not an
    assertion.
    """
    by_date: dict[date, dict[int, Decimal]] = {}
    for row in rows:
        by_date.setdefault(row.as_of, {})[row.source_id] = row.value
    if not by_date:
        return []
    dates = sorted(by_date)
    final = by_date[dates[-1]]
    report = []
    for as_of in dates:
        current = by_date[as_of]
        common = sorted(set(current) & set(final))
        rho = _spearman(
            [current[sid] for sid in common],
            [final[sid] for sid in common],
        )
        report.append(StabilityPoint(as_of, len(common), rho))
    return report


def _doubled_ranks(values: list[Decimal]) -> list[int]:
    """Twice each value's 1-based average rank among values: 2L + S + 1."""
    ties = _ties(values)
    return [2 * lower + same + 1 for lower, same in map(ties.__getitem__, values)]


def _spearman(a: list[Decimal], b: list[Decimal]) -> float:
    """Spearman's rho on doubled ranks: the factor 4 cancels, and scaling by
    a power of two commutes with float rounding and sqrt, so the result is
    the same float as on the exact average ranks."""
    n = len(a)
    if n < 2:
        return 1.0
    ra = _doubled_ranks(a)
    rb = _doubled_ranks(b)
    mean = n + 1
    cov = sum((x - mean) * (y - mean) for x, y in zip(ra, rb))
    var_a = sum((x - mean) ** 2 for x in ra)
    var_b = sum((y - mean) ** 2 for y in rb)
    if var_a == 0 or var_b == 0:
        return 1.0
    return float(cov) / (math.sqrt(float(var_a)) * math.sqrt(float(var_b)))
