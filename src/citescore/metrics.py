"""The annual metrics basket: CiteScore, Citations, Documents, %Cited, and
per-ASJC-category Percentile / Rank / Quartile.

All arithmetic is exact. The score is the citation count divided by the
document count as a rational number, rounded half-away-from-zero to exactly
two decimal places; no binary floating point is involved anywhere, so output
is reproducible bit-for-bit across platforms.

Every tally comes from one structure: per citing year, one record per
source, the sorted load days of its counted documents, citations and cited
documents (_event_timelines), built from the whole store on the first read
for that year, kept on the store and shared by every view of the index
(_timelines). A current title's record covers its whole title chain, merged
once when the year is built (_merge_chains). Its tally at a date is one
record lookup and a bisect_right of each list it reads, at the earlier of
the date and the view's cutoff; a former title, which only library callers
ask for, sums its members' own records. So the first call for a citing year
pays one pass over the whole store, and every later call for a current
title, at any date, costs at most three bisects. One tie rule, _ties, places
tied scores in the category standings and the stability report.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from datetime import date
from decimal import Decimal
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .index import IndexSnapshot, _Store, snapshot
from .records import ELIGIBLE_SOURCE_TYPES

# The cited publication period spans the three years before the citing year.
CITED_WINDOW_YEARS = 3


class IneligibleError(ValueError):
    """Raised when a score is requested for a source that cannot receive one."""


class MetricsRow(NamedTuple):
    """Per-source annual metrics. citescore always carries exactly 2 decimals."""

    source_id: int
    year: int
    citescore: Decimal
    citations: int
    documents: int
    percent_cited: int


class CategoryStanding(NamedTuple):
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


def _round_ratio_to_hundredths(numerator: int, documents: int) -> int:
    """round(100 * numerator / documents) with ties away from zero: the score
    in hundredths, or %Cited. The one zero-document rule: with no documents
    neither is defined.

    Exact integer arithmetic; inputs are non-negative counts.
    """
    if documents < 1:
        raise IneligibleError("documents count is zero; no score is defined")
    if numerator < 0:
        raise ValueError("ratio must have a non-negative numerator")
    return (200 * numerator + documents) // (2 * documents)


# Hundredths times this are the score, exactly: the product's exponent is -2.
_HUNDREDTH = Decimal("0.01")


def score_from_counts(citations: int, documents: int) -> Decimal:
    """Exact 2-decimal score for a citation/document pair."""
    return Decimal(_round_ratio_to_hundredths(citations, documents)) * _HUNDREDTH


def _percent_cited(cited_documents: int, documents: int) -> int:
    """Cited documents as an integer percentage of documents (ties round up)."""
    pct = _round_ratio_to_hundredths(cited_documents, documents)
    assert 0 <= pct <= 100
    return pct


def count_documents(snapshot: IndexSnapshot, source_id: int, year: int) -> int:
    """Documents in the cited window, attributed across the whole title chain.

    Counts publications of every document type except articles-in-press.
    """
    return _count(snapshot, source_id, year, _DOCUMENTS)


def count_citations(snapshot: IndexSnapshot, source_id: int, year: int) -> int:
    """Citations received in the citing year by the chain's in-window documents.
    Each distinct link counts once."""
    return _count(snapshot, source_id, year, _CITATIONS)


def citescore(snapshot: IndexSnapshot, source_id: int, year: int) -> Decimal:
    """Citations divided by documents, to exactly two decimal places."""
    citations, documents, _ = _tally(snapshot, source_id, year)
    return score_from_counts(citations, documents)


def percent_cited(snapshot: IndexSnapshot, source_id: int, year: int) -> int:
    """Share of denominator documents with at least one qualifying citation,
    as an integer percentage (ties round up)."""
    _, documents, cited_documents = _tally(snapshot, source_id, year)
    return _percent_cited(cited_documents, documents)


def source_eligible(snapshot: IndexSnapshot, source_id: int) -> bool:
    """The part of is_eligible that does not depend on the date: an actively
    indexed serial that is the current (chain-terminal) title. An unknown
    source_id raises KeyError, from is_chain_terminal."""
    if not snapshot.is_chain_terminal(source_id):
        return False
    source = snapshot.sources[source_id]
    return source.is_actively_indexed and source.source_type in ELIGIBLE_SOURCE_TYPES


def is_eligible(snapshot: IndexSnapshot, source_id: int, year: int) -> bool:
    """Eligibility gate for receiving metrics.

    Requires active indexing, a serial source type, being the current
    (chain-terminal) title, and at least one document in the cited window;
    former titles are folded into their successor and never scored on their
    own.
    """
    if not source_eligible(snapshot, source_id):
        return False
    # A current title: its one chain record.
    documents = _timelines(snapshot, year).get(source_id, _NO_EVENTS)[_DOCUMENTS]
    return bisect_right(documents, snapshot.cutoff.toordinal()) >= 1


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


def _ties(values: Iterable[Decimal]) -> dict[Decimal, tuple[int, int]]:
    """value -> (L, S) over a multiset of scores: L of them are strictly
    lower and S equal. Of N, the descending competition rank is N - L - S + 1
    and twice the average ascending rank 2L + S + 1. One count, then one
    sort of the distinct values."""
    counts = Counter(values)
    ties, lower = {}, 0
    for value in sorted(counts):
        ties[value] = lower, counts[value]
        lower += counts[value]
    return ties


def percentile_rank(category_scores: Iterable[Decimal], score: Decimal) -> int:
    """Percentile of a score within its category's score multiset."""
    values = list(category_scores)
    lower, same = _ties(values).get(score, (0, 0))
    if same == 0:
        raise ValueError("score is not a member of the category scores")
    return percentile_from_counts(lower, same, len(values))


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
    ties = _ties(scores_by_source.values())
    n = len(scores_by_source)
    return {source_id: (n - sum(ties[value]) + 1, n) for source_id, value in scores_by_source.items()}


class SourceYearCounts(NamedTuple):
    citations: int
    documents: int
    cited_documents: int


# A source's events for one citing year: the ascending load day ordinals of
# its counted documents, of the citations of them and of its cited documents.
_Record = tuple[Sequence[int], Sequence[int], Sequence[int]]
_DOCUMENTS, _CITATIONS, _CITED = range(3)
_NO_EVENTS: _Record = ((), (), ())
# After every load day: the first day a citation counts, for a document
# no citation counts for yet.
_UNCITED = date.max.toordinal() + 1
# For one citing year, source id -> record: a current title's covers its
# whole title chain, any other source's its own events.
_Timelines = dict[int, _Record]


def _event_timelines(store: _Store, year: int) -> _Timelines:
    """Each source's own record for the citing year, from the whole store.
    Ingest decides which links exist; these two loops are the one place that
    decides which documents, citations and cited documents count.

    The index is append-only, so an event counts at every date on or after
    the day it entered the index: a document's load day; for a citation,
    the later of its two endpoints' load days; for a cited document, the
    first day any of its citations counts. A view's tally at a date is the
    number of its chain's events up to the earlier of the date and its
    cutoff.
    """
    source_of, year_of, day_of, in_press = store.source_ids, store.sort_years, store.load_days, store.in_press
    window = cited_window(year)
    first_year, stop_year = window.start, window.stop
    documents, citations, cited_documents = defaultdict(list), defaultdict(list), defaultdict(list)
    # Ordinal -> 0 for a document that does not count, else the first day a
    # citation of it counts (_UNCITED until one does): one list read per link.
    first_cited = [0] * len(source_of)
    uncited = _UNCITED
    for ordinal, (source_id, sort_year, day, aip) in enumerate(zip(source_of, year_of, day_of, in_press)):
        if first_year <= sort_year < stop_year and not aip:
            first_cited[ordinal] = uncited
            documents[source_id].append(day)

    cited_ordinals = []
    for citing, cited in zip(store.citing, store.cited):
        if year_of[citing] != year:
            continue
        earliest = first_cited[cited]
        if not earliest:
            continue
        # The link is in the index once its later endpoint has loaded.
        cited_day, citing_day = day_of[cited], day_of[citing]
        day = cited_day if cited_day > citing_day else citing_day
        citations[source_of[cited]].append(day)
        if day < earliest:
            if earliest == uncited:
                cited_ordinals.append(cited)
            first_cited[cited] = day
    for cited in cited_ordinals:
        cited_documents[source_of[cited]].append(first_cited[cited])
    for events in documents, citations, cited_documents:
        for days in events.values():
            days.sort()
    # Only a source with a counted document has citations or cited documents.
    return {
        source_id: (days, citations.get(source_id, ()), cited_documents.get(source_id, ()))
        for source_id, days in documents.items()
    }


def _timelines(view: IndexSnapshot, year: int) -> _Timelines:
    """The citing year's records, built on the first read for that year and
    kept on the store for every view; racing first reads store equal ones."""
    memo = view.store.timelines
    timelines = memo.get(year)
    if timelines is None:
        timelines = _event_timelines(view.store, year)
        _merge_chains(view, timelines)
        memo[year] = timelines
    return timelines


def _merge_chains(view: IndexSnapshot, timelines: _Timelines) -> None:
    """Give each current title with predecessors one record for its whole
    chain (resolve_title_chain): its members' own records merged, once per
    year. A former title keeps its own record, and no record is kept per
    chain prefix, so the year stays O(events) however long a chain."""
    successor = view.successor
    for source_id in successor.values():
        if source_id in successor:
            continue
        records = [timelines[member] for member in view.resolve_title_chain(source_id) if member in timelines]
        if len(records) == 1:
            timelines[source_id] = records[0]  # shared: no record is ever changed
        elif records:
            documents, citations, cited_documents = [], [], []
            for record in records:
                documents += record[_DOCUMENTS]
                citations += record[_CITATIONS]
                cited_documents += record[_CITED]
            for days in documents, citations, cited_documents:
                days.sort()
            timelines[source_id] = documents, citations, cited_documents


def _chain_records(view: IndexSnapshot, source_id: int, year: int) -> Sequence[_Record]:
    """The records whose events make up a source's tallies: a current
    title's one chain record, or each member's own record for a former
    title. An unknown source_id raises KeyError, from is_chain_terminal,
    before any timeline is read."""
    if view.is_chain_terminal(source_id):
        return (_timelines(view, year).get(source_id, _NO_EVENTS),)
    timelines = _timelines(view, year)
    return [timelines.get(member, _NO_EVENTS) for member in view.resolve_title_chain(source_id)]


def _count(view: IndexSnapshot, source_id: int, year: int, field: int) -> int:
    """A source's events of one field at the view's cutoff."""
    day = view.cutoff.toordinal()
    count = 0
    for record in _chain_records(view, source_id, year):
        count += bisect_right(record[field], day)
    return count


def _tally(view: IndexSnapshot, source_id: int, year: int) -> tuple[int, int, int]:
    """A source's (citations, documents, cited documents) at the view's
    cutoff, in SourceYearCounts order: three bisects per record."""
    day = view.cutoff.toordinal()
    n_documents = n_citations = n_cited = 0
    for documents, citations, cited_documents in _chain_records(view, source_id, year):
        n_documents += bisect_right(documents, day)
        n_citations += bisect_right(citations, day)
        n_cited += bisect_right(cited_documents, day)
    return n_citations, n_documents, n_cited


def _days(index: IndexSnapshot, schedule: Sequence[date]) -> list[int]:
    """The day ordinal each date of an ascending schedule is read at: the
    cutoff of the index's snapshot at that date."""
    if any(later <= earlier for earlier, later in zip(schedule, schedule[1:])):
        raise ValueError("schedule dates must be strictly ascending")
    return [snapshot(index, as_of).cutoff.toordinal() for as_of in schedule]


# No command reads this (the engine reads tallies through scores()); the
# benchmark (perfbench/run.py) calls it, and it goes with ROADMAP item 1.
def aggregate_counts(snapshot: IndexSnapshot, year: int) -> dict[int, SourceYearCounts]:
    """Numerator/denominator tallies for every current title at the view's
    cutoff."""
    return {
        source_id: SourceYearCounts(*_tally(snapshot, source_id, year))
        for source_id in snapshot.sources
        if source_id not in snapshot.successor
    }


def scores(
    index: IndexSnapshot, year: int, schedule: Sequence[date], source_ids: Iterable[int]
) -> Iterator[tuple[int, date, SourceYearCounts, Decimal]]:
    """The one rule that turns tallies into scores: (source_id, as_of, tally,
    score) for each of source_ids, in the order given, that is eligible,
    at each schedule date where it has at least one document; each tally is
    read from the timelines when it is yielded.
    """
    days = _days(index, schedule)
    timelines = _timelines(index, year)
    for source_id in source_ids:
        if not source_eligible(index, source_id):
            continue
        documents, citations, cited_documents = timelines.get(source_id, _NO_EVENTS)
        for as_of, day in zip(schedule, days):
            n_documents = bisect_right(documents, day)
            if n_documents:
                n_citations = bisect_right(citations, day)
                tally = SourceYearCounts(n_citations, n_documents, bisect_right(cited_documents, day))
                yield source_id, as_of, tally, score_from_counts(n_citations, n_documents)


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
    for source_id, _, (citations, documents, cited), score in scores(
        snapshot, year, [snapshot.cutoff], sorted(snapshot.sources)
    ):
        rows.append(MetricsRow(source_id, year, score, citations, documents, _percent_cited(cited, documents)))
        for code in snapshot.sources[source_id].asjc_codes:
            by_category.setdefault(code, {})[source_id] = score

    standings: list[CategoryStanding] = []
    for code, members in by_category.items():
        ties = _ties(members.values())
        n = len(members)
        for source_id, score in members.items():
            lower, same = ties[score]
            pct = percentile_from_counts(lower, same, n)
            standings.append(CategoryStanding(source_id, code, n - lower - same + 1, n, pct, quartile(pct)))
    # Tuple order is (source_id, asjc_code) order: no two standings share both.
    standings.sort()
    return rows, standings
