"""Domain records: serial sources and publications."""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

DOC_TYPES = frozenset({
    "article",
    "review",
    "conference-paper",
    "editorial",
    "letter",
    "note",
    "short-survey",
    "erratum",
    "book-chapter",
    "other",
})

SOURCE_TYPES = frozenset({
    "journal",
    "book-series",
    "trade-journal",
    "conference-proceedings-serial",
    "standalone-book",
    "standalone-proceedings",
})

# Serial venue types that can receive metrics; stand-alone books and
# proceedings are indexed but never scored.
ELIGIBLE_SOURCE_TYPES = frozenset({
    "journal",
    "book-series",
    "trade-journal",
    "conference-proceedings-serial",
})


def parse_date(text: str) -> date:
    """A strict YYYY-MM-DD date on every Python version; from 3.11 on,
    date.fromisoformat alone also takes 20180430 and 2018-W18-1."""
    if not _DATE_RE.match(text):
        raise ValueError(f"{text!r} is not YYYY-MM-DD")
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise ValueError(f"{text!r}: {exc}") from None


@dataclass(frozen=True)
class SourceRecord:
    """A serial title. A renamed title gets a fresh source_id and points
    back at its former identity via predecessor_source_id."""

    source_id: int
    title: str
    source_type: str
    asjc_codes: frozenset[int]
    is_actively_indexed: bool
    predecessor_source_id: int | None = None


@dataclass(frozen=True)
class PublicationRecord:
    """One indexed document.

    sort_year is the year of publication; load_date is the day the record
    entered the index and is the basis for historical snapshots. An
    article-in-press has no finalized reference list, so it may be cited
    but never gives citations.
    """

    pub_id: str
    source_id: int
    sort_year: int
    load_date: date
    doc_type: str
    is_article_in_press: bool
