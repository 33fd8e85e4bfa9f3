"""The annual metrics basket: CiteScore, Citations, Documents, %Cited, and
per-ASJC-category Percentile / Rank / Quartile.

All arithmetic is exact. The score is the citation count divided by the
document count as a rational number, rounded half-away-from-zero to exactly
two decimal places; no binary floating point is involved anywhere, so output
is reproducible bit-for-bit across platforms.

Every tally comes from one structure: per citing year, each source's sorted
load days of its counted documents, citations and cited documents
(_event_timelines), built from the whole store on the first read for that
year and shared by every view of the index. A title chain's tally at a date
is a bisect_right of each member's three lists at the earlier of the date
and the view's cutoff. So the first call for a citing year pays one pass
over the whole store, and every later call, at any date, costs at most three
bisects per chain member.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from typing import Iterable, Iterator, Mapping, Sequence

from .index import IndexSnapshot, _Store
from .records import ELIGIBLE_SOURCE_TYPES

# The cited publication period spans the three years before the citing year.
CITED_WINDOW_YEARS = 3


class IneligibleError(ValueError):
    """Raised when a score is requested for a source that cannot receive one."""


@dataclass(frozen=True)
class MetricsRow:
    """Per-source annual metrics. citescore always carries exactly 2 decimals."""

    source_id: int
    year: int
    citescore: Decimal
    citations: int
    documents: int
    percent_cited: int


@dataclass(frozen=True)
class CategoryStanding:
    """Relative standing of one source inside one ASJC category."""

    source_id: int
    asjc_code: int
    rank: int
    n_in_category: int
    percentile: int
    quartile: int


def cited_window(year: int) -> range:
    """The cited publication years contributing to the given citing year."""
    return range(year - CITED_WINDOW_YEARS, year)


def _round_ratio_to_hundredths(numerator: int, denominator: int) -> int:
    """round(100 * numerator / denominator) with ties away from zero.

    Exact integer arithmetic; inputs are non-negative counts.
    """
    if numerator < 0 or denominator <= 0:
        raise ValueError("ratio must have a non-negative numerator and positive denominator")
    return (200 * numerator + denominator) // (2 * denominator)


def _hundredths_to_decimal(hundredths: int) -> Decimal:
    return Decimal(hundredths).scaleb(-2)


def score_from_counts(citations: int, documents: int) -> Decimal:
    """Exact 2-decimal score for a citation/document pair."""
    if documents < 1:
        raise IneligibleError("documents count is zero; no score is defined")
    return _hundredths_to_decimal(_round_ratio_to_hundredths(citations, documents))


def _chain_counts(snapshot: IndexSnapshot, source_id: int, year: int) -> SourceYearCounts:
    """The tallies of the source's title chain at the view's cutoff."""
    members = snapshot.resolve_title_chain(source_id)
    return _tally(snapshot.timelines(year, _event_timelines), members, snapshot.cutoff.toordinal())


def _scored_counts(snapshot: IndexSnapshot, source_id: int, year: int) -> SourceYearCounts:
    tally = _chain_counts(snapshot, source_id, year)
    if tally.documents < 1:
        raise IneligibleError(f"source {source_id} has no documents in the {year} cited window")
    return tally


def count_documents(snapshot: IndexSnapshot, source_id: int, year: int) -> int:
    """Documents in the cited window, attributed across the whole title chain.

    Counts publications of every document type except articles-in-press.
    """
    return _chain_counts(snapshot, source_id, year).documents


def count_citations(snapshot: IndexSnapshot, source_id: int, year: int) -> int:
    """Citations received in the citing year by the chain's in-window documents.
    Each distinct link counts once."""
    return _chain_counts(snapshot, source_id, year).citations


def citescore(snapshot: IndexSnapshot, source_id: int, year: int) -> Decimal:
    """Citations divided by documents, to exactly two decimal places."""
    tally = _scored_counts(snapshot, source_id, year)
    return score_from_counts(tally.citations, tally.documents)


def percent_cited(snapshot: IndexSnapshot, source_id: int, year: int) -> int:
    """Share of denominator documents with at least one qualifying citation,
    as an integer percentage (ties round up)."""
    tally = _scored_counts(snapshot, source_id, year)
    return _round_ratio_to_hundredths(tally.cited_documents, tally.documents)


def source_eligible(snapshot: IndexSnapshot, source_id: int) -> bool:
    """The part of is_eligible that does not depend on the date: an actively
    indexed serial that is the current (chain-terminal) title."""
    source = snapshot.sources[source_id]
    return (
        source.is_actively_indexed
        and source.source_type in ELIGIBLE_SOURCE_TYPES
        and snapshot.is_chain_terminal(source_id)
    )


def is_eligible(snapshot: IndexSnapshot, source_id: int, year: int) -> bool:
    """Eligibility gate for receiving metrics.

    Requires active indexing, a serial source type, being the current
    (chain-terminal) title, and at least one document in the cited window;
    former titles are folded into their successor and never scored on their
    own.
    """
    if source_id not in snapshot.sources:
        raise KeyError(f"unknown source_id {source_id}")
    return source_eligible(snapshot, source_id) and count_documents(snapshot, source_id, year) >= 1


def percentile_from_counts(lower: int, same: int, total: int) -> int:
    """floor(((L + 0.5 * S) / N) * 100): the percentile for a score that S
    category members share while L score strictly lower, of N total.

    Rounding down means the result never reaches 100; a lone journal in its
    category lands on 50.
    """
    if same < 1 or lower < 0 or total < lower + same:
        raise ValueError(f"inconsistent counts L={lower} S={same} N={total}")
    value = (100 * (2 * lower + same)) // (2 * total)
    assert 0 <= value <= 99
    return value


def _standing(ordered: list[Decimal], score: Decimal) -> tuple[int, int, int]:
    """(L, S, rank) of a score within its category's ascending score list:
    L members score strictly lower, S score the same, and the descending
    competition rank is one more than the number scoring higher."""
    lower = bisect_left(ordered, score)
    higher = bisect_right(ordered, score)
    return lower, higher - lower, len(ordered) - higher + 1


def percentile_rank(category_scores: Iterable[Decimal], score: Decimal) -> int:
    """Percentile of a score within its category's score multiset."""
    ordered = sorted(category_scores)
    lower, same, _rank = _standing(ordered, score)
    if same == 0:
        raise ValueError("score is not a member of the category scores")
    return percentile_from_counts(lower, same, len(ordered))


def quartile(percentile: int) -> int:
    """Quartile band for a percentile: 1 for 75-99, 2 for 50-74, 3 for 25-49,
    4 for 0-24."""
    if not 0 <= percentile <= 99:
        raise ValueError(f"percentile {percentile} out of range [0, 99]")
    if percentile >= 75:
        return 1
    if percentile >= 50:
        return 2
    if percentile >= 25:
        return 3
    return 4


def rank_in_category(scores_by_source: Mapping[int, Decimal]) -> dict[int, tuple[int, int]]:
    """Descending competition ranking: tied scores share the smallest rank.

    Returns source_id -> (rank, n_in_category).
    """
    ordered = sorted(scores_by_source.values())
    return {
        source_id: (_standing(ordered, value)[2], len(ordered))
        for source_id, value in scores_by_source.items()
    }


@dataclass(frozen=True)
class SourceYearCounts:
    citations: int
    documents: int
    cited_documents: int


# For one citing year, the events of each source, in three maps from source
# id to an ascending list of load day ordinals: its counted documents, the
# citations of them, and its cited documents.
_Timelines = tuple[dict[int, list[int]], dict[int, list[int]], dict[int, list[int]]]


def _event_timelines(store: _Store, year: int) -> _Timelines:
    """The timelines of the citing year, from the whole store. These two
    loops are the one place that decides which documents, citations and
    cited documents count.

    The index is append-only, so an event counts at every date on or after
    the day it entered the index: a document's load day; for a citation,
    the later of its two endpoints' load days; for a cited document, the
    first day any of its citations counts. A view's tally at a date is the
    number of its chain's events up to the earlier of the date and its
    cutoff (_tally).
    """
    source_of, year_of, day_of, in_press = store.source_ids, store.sort_years, store.load_days, store.in_press
    window = cited_window(year)
    documents, citations, cited_documents = defaultdict(list), defaultdict(list), defaultdict(list)
    counted = bytearray(len(source_of))
    for ordinal, (source_id, sort_year, day, aip) in enumerate(zip(source_of, year_of, day_of, in_press)):
        if not aip and sort_year in window:
            counted[ordinal] = 1
            documents[source_id].append(day)

    # Ordinal -> the first day a citation of that document counts.
    first_cited: dict[int, int] = {}
    for citing, cited in zip(store.citing, store.cited):
        if year_of[citing] != year or in_press[citing] or not counted[cited]:
            continue
        # The link is in the index once its later endpoint has loaded.
        cited_day, citing_day = day_of[cited], day_of[citing]
        day = cited_day if cited_day > citing_day else citing_day
        citations[source_of[cited]].append(day)
        if day < first_cited.get(cited, day + 1):
            first_cited[cited] = day
    for cited, day in first_cited.items():
        cited_documents[source_of[cited]].append(day)
    timelines = dict(documents), dict(citations), dict(cited_documents)
    for events in timelines:
        for days in events.values():
            days.sort()
    return timelines


def _tally(timelines: _Timelines, members: Iterable[int], day: int) -> SourceYearCounts:
    """A title chain's tallies at a day ordinal: its members' events up to
    and including that day, three bisects per member."""
    documents, citations, cited_documents = timelines
    n_documents = n_citations = n_cited = 0
    for member in members:
        n_documents += bisect_right(documents.get(member, ()), day)
        n_citations += bisect_right(citations.get(member, ()), day)
        n_cited += bisect_right(cited_documents.get(member, ()), day)
    return SourceYearCounts(n_citations, n_documents, n_cited)


def _days(index: IndexSnapshot, schedule: Sequence[date]) -> list[int]:
    """The day ordinal each date of an ascending schedule is read at: the
    date or, past it, the index's cutoff."""
    if any(later <= earlier for earlier, later in zip(schedule, schedule[1:])):
        raise ValueError("schedule dates must be strictly ascending")
    return [min(as_of, index.cutoff).toordinal() for as_of in schedule]


# No command reads this (the engine reads tallies through scores()); the
# benchmark (perfbench/run.py) calls it, and it goes with ROADMAP item 1.
def aggregate_counts(snapshot: IndexSnapshot, year: int) -> dict[int, SourceYearCounts]:
    """Numerator/denominator tallies for every current title at the view's
    cutoff."""
    timelines = snapshot.timelines(year, _event_timelines)
    day = snapshot.cutoff.toordinal()
    return {
        source_id: _tally(timelines, snapshot.resolve_title_chain(source_id), day)
        for source_id in snapshot.sources
        if source_id not in snapshot.successor
    }


def scores(
    index: IndexSnapshot, year: int, schedule: Sequence[date], chain_of: int | None = None
) -> Iterator[tuple[int, date, SourceYearCounts, Decimal]]:
    """The one rule that turns tallies into scores: (source_id, as_of, tally,
    score) for every eligible source with at least one document, in
    (source_id, as_of) order, each tally read from the timelines when it is
    yielded. Given chain_of, only that source is scored (tracker_series).
    """
    days = _days(index, schedule)
    timelines = index.timelines(year, _event_timelines)
    for source_id in sorted(index.sources) if chain_of is None else [chain_of]:
        if not source_eligible(index, source_id):
            continue
        members = index.resolve_title_chain(source_id)
        for as_of, day in zip(schedule, days):
            tally = _tally(timelines, members, day)
            if tally.documents >= 1:
                yield source_id, as_of, tally, score_from_counts(tally.citations, tally.documents)


def compute_annual(
    snapshot: IndexSnapshot, year: int
) -> tuple[list[MetricsRow], list[CategoryStanding]]:
    """The full annual basket over a snapshot.

    One MetricsRow per eligible source and one CategoryStanding per
    (source, ASJC code) pair; a source has a single score but a separate
    standing in each of its categories. Output order is deterministic:
    rows by source_id, standings by (source_id, asjc_code).
    """
    rows: list[MetricsRow] = []
    by_category: dict[int, dict[int, Decimal]] = {}
    for source_id, _, tally, score in scores(snapshot, year, [snapshot.cutoff]):
        pct = _round_ratio_to_hundredths(tally.cited_documents, tally.documents)
        assert 0 <= pct <= 100
        rows.append(
            MetricsRow(
                source_id=source_id,
                year=year,
                citescore=score,
                citations=tally.citations,
                documents=tally.documents,
                percent_cited=pct,
            )
        )
        for code in snapshot.sources[source_id].asjc_codes:
            by_category.setdefault(code, {})[source_id] = score

    standings: list[CategoryStanding] = []
    for code, members in by_category.items():
        ordered = sorted(members.values())
        for source_id, score in members.items():
            lower, same, rank = _standing(ordered, score)
            pct = percentile_from_counts(lower, same, len(ordered))
            standings.append(
                CategoryStanding(
                    source_id=source_id,
                    asjc_code=code,
                    rank=rank,
                    n_in_category=len(ordered),
                    percentile=pct,
                    quartile=quartile(pct),
                )
            )
    standings.sort(key=lambda s: (s.source_id, s.asjc_code))
    return rows, standings
