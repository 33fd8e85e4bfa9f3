"""The annual metrics basket: CiteScore, Citations, Documents, %Cited, and
per-ASJC-category Percentile / Rank / Quartile.

All arithmetic is exact. The score is the citation count divided by the
document count as a rational number, rounded half-away-from-zero to exactly
two decimal places; no binary floating point is involved anywhere, so output
is reproducible bit-for-bit across platforms.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from typing import Iterable, Iterator, Mapping, Sequence

from .index import IndexSnapshot
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
    """The sweep's tallies of the source's title chain at the view's cutoff,
    counted once per view, source and year."""
    key = (source_id, year)
    memo = snapshot._tallies
    if key not in memo:
        memo[key] = sweep_counts(snapshot, year, [snapshot.cutoff], source_id)[0][source_id]
    return memo[key]


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


def sweep_counts(
    index: IndexSnapshot, year: int, schedule: Sequence[date], chain_of: int | None = None
) -> list[dict[int, SourceYearCounts]]:
    """Tallies of every current title at each date of an ascending schedule,
    in one pass over the index. These two loops are the one place that
    decides which documents, citations and cited documents count.

    The index is append-only: a publication counts from the first schedule
    date on or after its load_date, and a link from the first date on or
    after the later of its two endpoints' load dates. Each qualifying
    document, citation and first-cited document is counted once under that
    date, and running totals give the tallies at every date: item i equals
    aggregate_counts(snapshot(index, schedule[i]), year). Records that load
    after the last date, or after the index's cutoff, are never counted, so
    the tallies stay flat from the cutoff on.

    Given chain_of, the sweep reads only the record groups of that source's
    title chain (itself and its predecessors), of their links only those
    whose citing publication's sort_year is year, and keeps the chain's
    tallies under it, the chain's newest member, whether or not it is
    current.
    """
    if any(later <= earlier for earlier, later in zip(schedule, schedule[1:])):
        raise ValueError("schedule dates must be strictly ascending")
    if not schedule:
        return []
    if chain_of is None:
        terminal_of: dict[int, int] = {}
        for source_id in index.sources:
            terminal = source_id
            while terminal in index.successor:
                terminal = index.successor[terminal]
            terminal_of[source_id] = terminal
        terminals = [source_id for source_id, terminal in terminal_of.items() if source_id == terminal]
        records, groups = index.record_groups()
    else:
        terminal_of = dict.fromkeys(index.resolve_title_chain(chain_of), chain_of)
        terminals = [chain_of]
        records, groups = index.record_groups(terminal_of, year)

    n = len(schedule)
    window = cited_window(year)
    # The store's records, read without the view's filtered copy: a record
    # that loads after the view's cutoff or the last schedule date never counts.
    last = min(schedule[-1], index.cutoff)
    # What each schedule date adds, by terminal title.
    documents = [defaultdict(int) for _ in schedule]
    citations = [defaultdict(int) for _ in schedule]
    cited_documents = [defaultdict(int) for _ in schedule]

    for publications, _, _ in groups:
        for record in publications:
            if record.is_article_in_press or record.sort_year not in window or record.load_date > last:
                continue
            documents[bisect_left(schedule, record.load_date)][terminal_of[record.source_id]] += 1

    # Ordinal -> (first date index, terminal title) of each cited document.
    first_cited: dict[int, tuple[int, int]] = {}
    never = (n, 0)
    for _, citing_ordinals, cited_ordinals in groups:
        for citing_ordinal, cited_ordinal in zip(citing_ordinals, cited_ordinals):
            citing = records[citing_ordinal]
            if citing.sort_year != year or citing.is_article_in_press:
                continue
            cited = records[cited_ordinal]
            if cited.sort_year not in window or cited.is_article_in_press:
                continue
            # The link is in the index once its later endpoint has loaded.
            loaded = cited.load_date if cited.load_date > citing.load_date else citing.load_date
            if loaded > last:
                continue
            bucket = bisect_left(schedule, loaded)
            terminal = terminal_of[cited.source_id]
            citations[bucket][terminal] += 1
            if bucket < first_cited.get(cited_ordinal, never)[0]:
                first_cited[cited_ordinal] = (bucket, terminal)
    for bucket, terminal in first_cited.values():
        cited_documents[bucket][terminal] += 1

    tallies: list[dict[int, SourceYearCounts]] = []
    documents_to_date, citations_to_date, cited_to_date = Counter(), Counter(), Counter()
    for i in range(n):
        documents_to_date.update(documents[i])
        citations_to_date.update(citations[i])
        cited_to_date.update(cited_documents[i])
        tallies.append({
            terminal: SourceYearCounts(
                citations=citations_to_date[terminal],
                documents=documents_to_date[terminal],
                cited_documents=cited_to_date[terminal],
            )
            for terminal in terminals
        })
    return tallies


def aggregate_counts(snapshot: IndexSnapshot, year: int) -> dict[int, SourceYearCounts]:
    """Numerator/denominator tallies for every current title: the sweep at
    the one date snapshot.cutoff, by which every record of the view has
    loaded. The engine itself reads the sweep through scores(); this is the
    one-date reading kept for tests and the benchmark.
    """
    return sweep_counts(snapshot, year, [snapshot.cutoff])[0]


def scores(
    index: IndexSnapshot, year: int, schedule: Sequence[date], chain_of: int | None = None
) -> Iterator[tuple[int, date, SourceYearCounts, Decimal]]:
    """The one rule that turns tallies into scores: (source_id, as_of, tally,
    score) for every eligible source with at least one document, in
    (source_id, as_of) order, from one sweep_counts over the schedule.
    """
    tallies = sweep_counts(index, year, schedule, chain_of)
    for source_id in sorted(tallies[0]) if tallies else ():
        if not source_eligible(index, source_id):
            continue
        for as_of, counts in zip(schedule, tallies):
            tally = counts[source_id]
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
