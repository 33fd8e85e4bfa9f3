"""Citation index: ingestion, load-date snapshots, and title-chain resolution.

Records arrive as line-delimited JSON (one object per line, UTF-8). Ingestion
is single-writer and builds the full index as the snapshot at ``date.max``.
It decodes a line with one call of the C JSON scanner, and checks each field
of a publication with one exact type test; the checks that build a
rejection's message run only on a field that fails. Each accepted
publication gets an ordinal, its position in ingest order, and the link loop
runs inline: a canonical link line is one scanner call, two type tests, two
ordinal lookups, an article-in-press test and a probe of the dedupe set,
which holds one int per link (``citing * n_publications + cited``). Any
other link line goes through the same message-building helpers as the other
record kinds.

Every snapshot of that index is a cutoff over one shared record store: the
publication records by ordinal and the links as two ``array("i")`` columns
of (citing, cited) ordinals. Taking a snapshot copies nothing, and a view
filters the store into its own publications and ``CitationLink`` objects on
first read. Views are immutable (read-only mappings, tuple of links), so
they can be shared freely across metric computations.
"""

from __future__ import annotations

import dataclasses
import json
from array import array
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from json.scanner import make_scanner
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .records import (
    DOC_TYPES,
    SOURCE_TYPES,
    CitationLink,
    PublicationRecord,
    SourceRecord,
    parse_date,
)

# JSON's whitespace. str.strip() would also drop \f, \v and Unicode spaces,
# which json.loads rejects as "Extra data".
_JSON_SPACE = " \t\n\r"

_SOURCE_FIELDS = {
    "source_id",
    "title",
    "source_type",
    "asjc_codes",
    "is_actively_indexed",
    "predecessor_source_id",
}
_PUBLICATION_FIELDS = {
    "pub_id",
    "source_id",
    "sort_year",
    "load_date",
    "doc_type",
    "is_article_in_press",
}
_LINK_FIELDS = {"citing_pub_id", "cited_pub_id"}


class IngestError(Exception):
    """Hard ingestion failure: duplicate identifiers or a corrupt title chain."""


@dataclass
class IngestReport:
    """Accepted/rejected counts plus human-readable warnings."""

    sources_accepted: int = 0
    sources_rejected: int = 0
    publications_accepted: int = 0
    publications_rejected: int = 0
    links_accepted: int = 0
    links_rejected: int = 0
    links_collapsed: int = 0
    warnings: list[str] = field(default_factory=list)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def counts(self) -> dict[str, int]:
        """Every counter field, by name."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "warnings"}


class _LineError(Exception):
    """Per-line validation failure; the line is rejected and ingestion continues."""


_Scanner = Callable[[str, int], tuple[object, int]]
# One group of the store: publication records and the (citing, cited) ordinal
# columns of links.
_Group = tuple[Iterable[PublicationRecord], Iterable[int], Iterable[int]]


def _parse_json_line(kind: str, lineno: int, line: str, scan: _Scanner) -> dict:
    """json.loads(line), for one C scanner call when the line is a value at
    offset 0 followed by nothing but JSON whitespace. Any other line goes to
    json.loads itself, which accepts or rejects it with its own message; an
    error the scanner raises is json.loads's own, from the same call."""
    try:
        try:
            obj, end = scan(line, 0)
        except StopIteration:
            obj = json.loads(line)
        else:
            if line[end:].strip(_JSON_SPACE):
                obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _LineError(f"{kind} line {lineno}: invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise _LineError(f"{kind} line {lineno}: invalid JSON (nested too deeply)") from exc
    except ValueError as exc:
        # An integer literal longer than the interpreter's int conversion limit.
        raise _LineError(f"{kind} line {lineno}: invalid JSON (integer too long)") from exc
    if not isinstance(obj, dict):
        raise _LineError(f"{kind} line {lineno}: expected an object")
    return obj


def _require(obj: dict, key: str, kind: str, lineno: int):
    if key not in obj:
        raise _LineError(f"{kind} line {lineno}: missing field {key!r}")
    return obj[key]


def _as_int(value, key: str, kind: str, lineno: int) -> int:
    # bool is an int subclass; a JSON true/false is not an identifier.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _LineError(f"{kind} line {lineno}: field {key!r} must be an integer")
    return value


def _as_bool(value, key: str, kind: str, lineno: int) -> bool:
    if not isinstance(value, bool):
        raise _LineError(f"{kind} line {lineno}: field {key!r} must be a boolean")
    return value


def _as_str(value, key: str, kind: str, lineno: int) -> str:
    if not isinstance(value, str) or not value:
        raise _LineError(f"{kind} line {lineno}: field {key!r} must be a non-empty string")
    return value


def _warn_unknown_fields(obj: dict, known: set[str], kind: str, lineno: int, report: IngestReport) -> None:
    for key in obj:
        if key not in known:
            report.warn(f"{kind} line {lineno}: ignoring unknown field {key!r}")


def _parse_source(lineno: int, line: str, report: IngestReport, scan: _Scanner) -> SourceRecord:
    # Sources are a small share of the lines, so each field goes through the
    # message-building checks directly.
    obj = _parse_json_line("sources", lineno, line, scan)
    _warn_unknown_fields(obj, _SOURCE_FIELDS, "sources", lineno, report)
    source_id = _as_int(_require(obj, "source_id", "sources", lineno), "source_id", "sources", lineno)
    title = _as_str(_require(obj, "title", "sources", lineno), "title", "sources", lineno)
    try:
        title.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise _LineError(f"sources line {lineno}: field 'title' holds a lone surrogate") from exc
    source_type = _as_str(_require(obj, "source_type", "sources", lineno), "source_type", "sources", lineno)
    if source_type not in SOURCE_TYPES:
        raise _LineError(f"sources line {lineno}: unknown source_type {source_type!r}")
    raw_codes = _require(obj, "asjc_codes", "sources", lineno)
    if not isinstance(raw_codes, list) or not raw_codes:
        raise _LineError(f"sources line {lineno}: asjc_codes must be a non-empty list")
    codes = set()
    for code in raw_codes:
        code = _as_int(code, "asjc_codes", "sources", lineno)
        if not 1000 <= code <= 9999:
            raise _LineError(f"sources line {lineno}: ASJC code {code} is not a 4-digit code")
        codes.add(code)
    active = _as_bool(
        _require(obj, "is_actively_indexed", "sources", lineno),
        "is_actively_indexed", "sources", lineno,
    )
    predecessor = obj.get("predecessor_source_id")
    if predecessor is not None:
        predecessor = _as_int(predecessor, "predecessor_source_id", "sources", lineno)
    return SourceRecord(
        source_id=source_id,
        title=title,
        source_type=source_type,
        asjc_codes=frozenset(codes),
        is_actively_indexed=active,
        predecessor_source_id=predecessor,
    )


# Publications and links are nearly every line, so each of their fields is
# read with one get() and an exact type test (a JSON true is a bool, not an
# int). Only a field that fails the test goes through _require and _as_*,
# which raise the rejection's message.


def _load_date(obj: dict, lineno: int, dates: dict[str, date]) -> date:
    raw_date = _as_str(_require(obj, "load_date", "publications", lineno), "load_date", "publications", lineno)
    try:
        load_date = parse_date(raw_date)
    except ValueError as exc:
        raise _LineError(f"publications line {lineno}: load_date {exc}") from exc
    dates[raw_date] = load_date
    return load_date


def _parse_publication(
    lineno: int, line: str, report: IngestReport, scan: _Scanner, dates: dict[str, date]
) -> PublicationRecord:
    obj = _parse_json_line("publications", lineno, line, scan)
    if not obj.keys() <= _PUBLICATION_FIELDS:
        _warn_unknown_fields(obj, _PUBLICATION_FIELDS, "publications", lineno, report)
    pub_id = obj.get("pub_id")
    if type(pub_id) is not str or not pub_id:
        pub_id = _as_str(_require(obj, "pub_id", "publications", lineno), "pub_id", "publications", lineno)
    source_id = obj.get("source_id")
    if type(source_id) is not int:
        source_id = _as_int(_require(obj, "source_id", "publications", lineno), "source_id", "publications", lineno)
    sort_year = obj.get("sort_year")
    if type(sort_year) is not int:
        sort_year = _as_int(_require(obj, "sort_year", "publications", lineno), "sort_year", "publications", lineno)
    try:
        load_date = dates[obj.get("load_date")]
    except (KeyError, TypeError):
        load_date = _load_date(obj, lineno, dates)
    doc_type = obj.get("doc_type")
    if type(doc_type) is not str or doc_type not in DOC_TYPES:
        doc_type = _as_str(_require(obj, "doc_type", "publications", lineno), "doc_type", "publications", lineno)
        raise _LineError(f"publications line {lineno}: unknown doc_type {doc_type!r}")
    aip = obj.get("is_article_in_press")
    if type(aip) is not bool:
        aip = _as_bool(
            _require(obj, "is_article_in_press", "publications", lineno),
            "is_article_in_press", "publications", lineno,
        )
    return PublicationRecord(
        pub_id=pub_id,
        source_id=source_id,
        sort_year=sort_year,
        load_date=load_date,
        doc_type=doc_type,
        is_article_in_press=aip,
    )


def _parse_link(lineno: int, line: str, report: IngestReport, scan: _Scanner) -> tuple[str, str]:
    """(citing_pub_id, cited_pub_id) of a link line."""
    obj = _parse_json_line("links", lineno, line, scan)
    if not obj.keys() <= _LINK_FIELDS:
        _warn_unknown_fields(obj, _LINK_FIELDS, "links", lineno, report)
    citing = obj.get("citing_pub_id")
    if type(citing) is not str or not citing:
        citing = _as_str(_require(obj, "citing_pub_id", "links", lineno), "citing_pub_id", "links", lineno)
    cited = obj.get("cited_pub_id")
    if type(cited) is not str or not cited:
        cited = _as_str(_require(obj, "cited_pub_id", "links", lineno), "cited_pub_id", "links", lineno)
    return citing, cited


def _link_rejection(lineno: int, citing_id: str, cited_id: str, citing_known: bool, cited_known: bool) -> str:
    """The warning for a link whose ids are well formed but which cites
    itself, has an endpoint that is not an accepted publication, or whose
    citing publication is an article-in-press; checked in that order."""
    if citing_id == cited_id:
        return f"links line {lineno}: publication cannot cite itself ({citing_id!r})"
    if not citing_known or not cited_known:
        missing = cited_id if citing_known else citing_id
        return f"links line {lineno}: dangling endpoint {missing!r}, link rejected"
    return (
        f"links line {lineno}: citing publication {citing_id!r} is an "
        "article-in-press and cannot give citations, link rejected"
    )


class _Store:
    """The publications and links of one ingest, shared by every view of it.

    A publication's ordinal is its position in ingest order, and ``records``
    holds the records by ordinal. Each link is a row of the two
    ``array("i")`` columns ``citing`` and ``cited``: the ordinals of its two
    endpoints, in ingest order. Ints in arrays are nothing the garbage
    collector walks. The pub_id mapping, the CitationLink objects and the
    per-source groups are built on first read, each once per store."""

    def __init__(self, records: tuple[PublicationRecord, ...], citing: array, cited: array):
        self.records = records
        self.citing = citing
        self.cited = cited

    @cached_property
    def publications(self) -> Mapping[str, PublicationRecord]:
        """Every record by pub_id, in ordinal order."""
        return MappingProxyType({record.pub_id: record for record in self.records})

    @cached_property
    def links(self) -> tuple[CitationLink, ...]:
        """Every link as a CitationLink, in store order."""
        return self.citation_links(zip(self.citing, self.cited))

    def citation_links(self, rows: Iterable[tuple[int, int]]) -> tuple[CitationLink, ...]:
        """CitationLinks of (citing, cited) ordinal rows."""
        records = self.records
        return tuple(CitationLink(records[citing].pub_id, records[cited].pub_id) for citing, cited in rows)

    @cached_property
    def by_source(self) -> dict[int, tuple[list[PublicationRecord], dict[int, tuple[array, array]]]]:
        """Each source's publications and, by the citing publication's
        sort_year, the citing and cited ordinals of the links whose cited
        publication it published, all in store order. Built on the first
        per-source read."""
        records = self.records
        source_of = [record.source_id for record in records]
        year_of = [record.sort_year for record in records]
        groups = {source_id: ([], {}) for source_id in dict.fromkeys(source_of)}
        for source_id, record in zip(source_of, records):
            groups[source_id][0].append(record)
        for citing, cited in zip(self.citing, self.cited):
            by_year = groups[source_of[cited]][1]
            columns = by_year.get(year_of[citing])
            if columns is None:
                columns = by_year[year_of[citing]] = (array("i"), array("i"))
            columns[0].append(citing)
            columns[1].append(cited)
        return groups


_NO_LINKS: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
_NO_SOURCE: tuple[tuple[PublicationRecord, ...], dict] = ((), {})


@dataclass(frozen=True)
class IndexSnapshot:
    """The index as it existed at a cutoff date (load_date <= cutoff, inclusive).

    Contains every source, the publications loaded by the cutoff, and only
    those links whose two endpoints both survive the filter. The full index
    built by :func:`ingest` is the snapshot at ``date.max``; :func:`snapshot`
    narrows any view to an earlier cutoff. Every view of one index shares
    that index's record store: ``publications`` and ``links`` are filtered
    from it on first read, in store order, the links as CitationLink objects
    built from the store's ordinal columns, and ``link_count`` counts them
    on those columns without building any. When every publication has loaded
    by the cutoff they are the store's own mapping and its one cached tuple
    of links. Immutable and safe to share across concurrent readers.
    """

    cutoff: date
    sources: Mapping[int, SourceRecord]
    successor: Mapping[int, int]
    _store: _Store = field(repr=False)

    @cached_property
    def _loaded(self) -> bytearray | None:
        """Per ordinal, 1 when the publication has loaded by the cutoff;
        None when every publication has."""
        cutoff = self.cutoff
        loaded = bytearray(record.load_date <= cutoff for record in self._store.records)
        return loaded if 0 in loaded else None

    def _link_rows(self) -> Iterator[tuple[int, int]]:
        """(citing, cited) ordinals of the view's links, in store order."""
        store, loaded = self._store, self._loaded
        rows = zip(store.citing, store.cited)
        if loaded is None:
            return rows
        return ((citing, cited) for citing, cited in rows if loaded[citing] and loaded[cited])

    @cached_property
    def publications(self) -> Mapping[str, PublicationRecord]:
        store, loaded = self._store, self._loaded
        if loaded is None:
            return store.publications
        return MappingProxyType({
            record.pub_id: record for record, kept in zip(store.records, loaded) if kept
        })

    @cached_property
    def links(self) -> tuple[CitationLink, ...]:
        store = self._store
        return store.links if self._loaded is None else store.citation_links(self._link_rows())

    @cached_property
    def link_count(self) -> int:
        """len(self.links), counted without building a CitationLink."""
        return sum(1 for _ in self._link_rows())

    @cached_property
    def _tallies(self) -> dict:
        """Per-view memo of the metrics module's chain tallies."""
        return {}

    def record_groups(
        self, source_ids: Iterable[int] | None = None, citing_year: int | None = None
    ) -> tuple[tuple[PublicationRecord, ...], list[_Group]]:
        """The shared store's publication records by ordinal, and its
        (publications, citing ordinals, cited ordinals) groups, in store
        order and not narrowed to this view's cutoff: one group for the
        whole store or, given source_ids, one per source of its publications
        and the links whose cited publication it published and whose citing
        publication's sort_year is citing_year."""
        store = self._store
        if source_ids is None:
            return store.records, [(store.records, store.citing, store.cited)]
        groups = []
        for source_id in source_ids:
            publications, links = store.by_source.get(source_id, _NO_SOURCE)
            groups.append((publications, *links.get(citing_year, _NO_LINKS)))
        return store.records, groups

    def resolve_title_chain(self, source_id: int) -> frozenset[int]:
        """The source itself plus the transitive closure of its predecessors."""
        if source_id not in self.sources:
            raise KeyError(f"unknown source_id {source_id}")
        chain = {source_id}
        current = self.sources[source_id].predecessor_source_id
        while current is not None:
            # Cycles and dangling pointers are ruled out at ingest.
            chain.add(current)
            current = self.sources[current].predecessor_source_id
        return frozenset(chain)

    def is_chain_terminal(self, source_id: int) -> bool:
        """True when no other source names this one as its predecessor."""
        if source_id not in self.sources:
            raise KeyError(f"unknown source_id {source_id}")
        return source_id not in self.successor


def ingest(
    source_lines: Iterable[str],
    publication_lines: Iterable[str],
    link_lines: Iterable[str],
) -> tuple[IndexSnapshot, IngestReport]:
    """Build the full index (the snapshot at ``date.max``) from line-delimited
    record streams.

    Malformed lines, dangling references, and invariant-violating links are
    rejected with a warning and ingestion continues. Duplicate identifiers
    and corrupt title chains (cycles, shared predecessors) raise IngestError.
    """
    report = IngestReport()
    # One scanner and one load-date cache per call: no state outlives it.
    scan = make_scanner(json.JSONDecoder())
    dates: dict[str, date] = {}

    sources: dict[int, SourceRecord] = {}
    for lineno, line in _numbered(source_lines):
        try:
            record = _parse_source(lineno, line, report, scan)
        except _LineError as exc:
            report.sources_rejected += 1
            report.warn(str(exc))
            continue
        if record.source_id in sources:
            raise IngestError(f"sources line {lineno}: duplicate source_id {record.source_id}")
        sources[record.source_id] = record
        report.sources_accepted += 1

    successor = _validate_chains(sources, report)

    # Each accepted publication's ordinal, and the records by ordinal.
    ordinal: dict[str, int] = {}
    records: list[PublicationRecord] = []
    for lineno, line in _numbered(publication_lines):
        try:
            record = _parse_publication(lineno, line, report, scan, dates)
        except _LineError as exc:
            report.publications_rejected += 1
            report.warn(str(exc))
            continue
        if record.pub_id in ordinal:
            raise IngestError(f"publications line {lineno}: duplicate pub_id {record.pub_id!r}")
        if record.source_id not in sources:
            report.publications_rejected += 1
            report.warn(
                f"publications line {lineno}: unknown source_id {record.source_id}, record rejected"
            )
            continue
        ordinal[record.pub_id] = len(records)
        records.append(record)
    report.publications_accepted = len(records)

    # The link loop is inline. A line that is not a two-key object of two
    # non-empty id strings, followed by nothing but JSON whitespace, is
    # skipped when blank (its number still counts) and otherwise goes
    # through _parse_link, which accepts or rejects it with the messages
    # and warnings every kind of line gets.
    citing_column, cited_column = array("i"), array("i")
    # One int per accepted link: distinct (citing, cited) ordinal pairs map
    # to distinct keys, since every cited ordinal is below the multiplier.
    seen: set[int] = set()
    width = len(records)
    collapsed = 0
    lineno = 0
    for line in link_lines:
        lineno += 1
        try:
            obj, end = scan(line, 0)
            citing_id = obj["citing_pub_id"]
            cited_id = obj["cited_pub_id"]
        except (StopIteration, ValueError, RecursionError, LookupError, TypeError):
            # Not a JSON value at offset 0, not an object, or a missing id.
            citing_id = None
        if (type(citing_id) is not str or type(cited_id) is not str or not citing_id or not cited_id
                or len(obj) != 2 or line[end:].strip(_JSON_SPACE)):
            if not line.strip():
                continue
            try:
                citing_id, cited_id = _parse_link(lineno, line, report, scan)
            except _LineError as exc:
                report.links_rejected += 1
                report.warn(str(exc))
                continue
        citing = ordinal.get(citing_id)
        cited = ordinal.get(cited_id)
        if citing is None or cited is None or citing == cited or records[citing].is_article_in_press:
            report.links_rejected += 1
            report.warn(_link_rejection(lineno, citing_id, cited_id, citing is not None, cited is not None))
            continue
        key = citing * width + cited
        if key in seen:
            collapsed += 1
            continue
        seen.add(key)
        citing_column.append(citing)
        cited_column.append(cited)
    report.links_accepted = len(citing_column)
    report.links_collapsed = collapsed

    index = IndexSnapshot(
        cutoff=date.max,
        sources=MappingProxyType(sources),
        successor=MappingProxyType(successor),
        _store=_Store(tuple(records), citing_column, cited_column),
    )
    return index, report


def _validate_chains(sources: dict[int, SourceRecord], report: IngestReport) -> dict[int, int]:
    """Drop dangling predecessor pointers; reject cycles and shared
    predecessors. Returns the successor map: predecessor -> source_id."""
    for sid, record in list(sources.items()):
        pred = record.predecessor_source_id
        if pred is not None and pred not in sources:
            report.warn(
                f"source {sid}: predecessor_source_id {pred} does not exist, pointer dropped"
            )
            sources[sid] = dataclasses.replace(record, predecessor_source_id=None)

    successor: dict[int, int] = {}
    for sid, record in sources.items():
        pred = record.predecessor_source_id
        if pred is None:
            continue
        if pred in successor:
            raise IngestError(
                f"sources {successor[pred]} and {sid} share predecessor {pred}; "
                "title chains must be linear"
            )
        successor[pred] = sid

    for sid in sources:
        seen = {sid}
        current = sources[sid].predecessor_source_id
        while current is not None:
            if current in seen:
                raise IngestError(f"predecessor cycle detected at source {current}")
            seen.add(current)
            current = sources[current].predecessor_source_id
    return successor


def _numbered(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            yield lineno, line


def load_index(
    sources_path: str,
    publications_path: str,
    links_path: str,
) -> tuple[IndexSnapshot, IngestReport]:
    """Ingest the three record files from disk into the full index."""
    with open(sources_path, encoding="utf-8") as src, \
            open(publications_path, encoding="utf-8") as pubs, \
            open(links_path, encoding="utf-8") as links:
        return ingest(src, pubs, links)


def snapshot(index: IndexSnapshot, cutoff: date) -> IndexSnapshot:
    """Narrow a view to a cutoff date.

    A publication is in the view iff load_date <= cutoff; a link survives iff
    both endpoints do. Sources are not load-dated and are always present.
    The view shares the index's record store and copies nothing here.
    """
    return dataclasses.replace(index, cutoff=min(cutoff, index.cutoff))
