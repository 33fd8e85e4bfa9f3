"""The in-progress current-year score, rebuilt on a monthly schedule.

A tracker point is the annual formula over the index as it stood at an
earlier cutoff. Every tally is read by bisection from the index's per-source
load-day timelines for the tracker year, built once per index and year
(metrics._event_timelines). Every point comes from metrics.scores, the one
rule that scores those tallies: tracker_table reads it for every current
title, tracker_series for the source's title chain, and compute_annual at
the annual cutoff, so the final tracker point and the annual value coincide
once everything has loaded. tracker_value is the per-source path.
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass
from datetime import date
from decimal import Decimal

from .index import IndexSnapshot, snapshot
from .metrics import citescore, is_eligible, scores
from .records import parse_date


@dataclass(frozen=True)
class TrackerRow:
    """One tracker point: a source's score at one schedule date."""

    source_id: int
    tracker_year: int
    as_of: date
    citations: int
    documents: int
    value: Decimal


@dataclass(frozen=True)
class TrackerSeries:
    """Monthly tracker points for one source; months where the source is not
    yet scoreable (no documents in the cited window) are simply absent."""

    source_id: int
    tracker_year: int
    points: tuple[TrackerRow, ...]


def month_end(year: int, month: int) -> date:
    return date(year, month, calendar.monthrange(year, month)[1])


def month_end_schedule(start: str, end: str) -> list[date]:
    """Last-day-of-month dates from start to end, both "YYYY-MM", inclusive."""
    start_year, start_month = _parse_month(start)
    end_year, end_month = _parse_month(end)
    if (start_year, start_month) > (end_year, end_month):
        raise ValueError(f"schedule start {start} is after end {end}")
    dates = []
    year, month = start_year, start_month
    while (year, month) <= (end_year, end_month):
        dates.append(month_end(year, month))
        month += 1
        if month == 13:
            year, month = year + 1, 1
    return dates


def _parse_month(text: str) -> tuple[int, int]:
    try:
        first = parse_date(f"{text}-01")
    except ValueError:
        raise ValueError(f"expected YYYY-MM, got {text!r}") from None
    return first.year, first.month


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
    if source_id not in index.sources:
        raise KeyError(f"unknown source_id {source_id}")
    points = tuple(tracker_table(index, tracker_year, schedule, chain_of=source_id))
    return TrackerSeries(source_id=source_id, tracker_year=tracker_year, points=points)


def tracker_table(
    index: IndexSnapshot, tracker_year: int, schedule: list[date], chain_of: int | None = None
) -> list[TrackerRow]:
    """Tracker points for every scoreable source, for the batch output file,
    in (source_id, as_of) order. No snapshot is built, and no tally is kept
    past its row. Given chain_of, only that source's title chain is read
    (tracker_series).
    """
    return [
        TrackerRow(source_id, tracker_year, as_of, tally.citations, tally.documents, value)
        for source_id, as_of, tally, value in scores(index, tracker_year, schedule, chain_of)
    ]


@dataclass(frozen=True)
class StabilityPoint:
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
        report.append(StabilityPoint(as_of=as_of, n_sources=len(common), rank_correlation=rho))
    return report


def _doubled_ranks(values: list[Decimal]) -> list[int]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = i + j + 2  # twice the 1-based average of positions i..j
        i = j + 1
    return ranks


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
