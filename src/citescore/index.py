"""Citation index: ingestion, load-date snapshots, and title-chain resolution.

Records arrive as line-delimited JSON (one object per line, UTF-8). Ingestion
is single-writer and builds the full index as the snapshot at ``date.max``.
Sources, publications and links are read by one rule: a canonical line, in
the byte form ``citescore generate`` writes
(:func:`citescore.corpus.canonical_line`), is matched by the kind's compiled
pattern, whose groups are the fields, and accepted inline in
:func:`ingest`; any other line, in whatever valid JSON spelling, goes
through that kind's checked parser, which accepts it or builds the
rejection's message. The pattern runs one ``findall`` per block of whole
lines (about ``_BLOCK_CHARS`` characters of file text, or one line item
that ends in its only newline), and its catch-all alternative gives every
other line, whole, to the checked parser, so each line still has its
number. Each accepted publication gets an ordinal, its position in ingest
order, and the index keeps only what the metrics read of it: its source,
sort year, load day and in-press flag. Every document type counts, so
``doc_type`` is validated and not kept. Links are deduplicated per citing
publication's run of lines (a links file is one reference list after
another), on a set of that run's cited ordinals; only when a citing
publication's links resume after another's does ingest fall back to one set
of every link's int key (``citing * n_publications + cited``), built once
from the links accepted so far. Either way the links kept, their order and
the counts are the same.

Every snapshot of that index is a cutoff over one shared record store:
publication columns by ordinal and the links as two ``array("i")`` columns
of (citing, cited) ordinals. Taking a snapshot copies nothing. The store
also keeps, once per citing year, the per-source event timelines the
metrics read (:meth:`IndexSnapshot.timelines`): built from the whole store
on the first read for that year, never during ingest, and read by every view
at its own cutoff. Views are immutable, so they can be shared freely across
metric computations.
"""

from __future__ import annotations

import dataclasses
import json
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from itertools import chain, compress, repeat
from operator import add, mul
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, TextIO, TypeVar

from .records import DOC_TYPES, SOURCE_TYPES, SourceRecord, parse_date

# Canonical lines of each kind, in the byte form corpus.canonical_line
# defines, then only JSON whitespace to the line's end (strip() would also
# take \f, \v and Unicode spaces, which json.loads rejects). An id holds no
# escape or raw control character, so its group is the decoded id. An int is
# ASCII (\d takes other scripts' digits) and short, far from int()'s digit
# limit. Any other line takes the checked parser.
_ID = r'"([^"\\\x00-\x1f]+)"'
_INT = r"(-?(?:0|[1-9][0-9]{0,17}))"
_PUBLICATION_CANONICAL = (
    r'\{"doc_type":"(' + "|".join(map(re.escape, sorted(DOC_TYPES))) + r')",'
    r'"is_article_in_press":(true|false),'
    r'"load_date":"([0-9]{4}-[0-9]{2}-[0-9]{2})",'
    r'"pub_id":' + _ID + r',"sort_year":' + _INT + r',"source_id":' + _INT + r"\}"
)
_LINK_CANONICAL = r'\{"cited_pub_id":' + _ID + r',"citing_pub_id":' + _ID + r"\}"
# A title is non-empty and holds no escape, raw control character or lone
# surrogate (which UTF-8 output cannot encode); ASJC codes are 4-digit ints;
# predecessor_source_id is optional, its group empty when the key is absent.
_SOURCE_CANONICAL = (
    r'\{"asjc_codes":\[([1-9][0-9]{3}(?:,[1-9][0-9]{3})*)\],'
    r'"is_actively_indexed":(true|false),'
    r'(?:"predecessor_source_id":' + _INT + r',)?'
    r'"source_id":' + _INT + r','
    r'"source_type":"(' + "|".join(map(re.escape, sorted(SOURCE_TYPES))) + r')",'
    r'"title":"([^"\\\x00-\x1f\ud800-\udfff]+)"\}'
)


def _block_pattern(canonical: str) -> re.Pattern:
    """The pattern whose findall over a block of whole lines gives one row per
    line: the canonical groups, the first of them non-empty, and an empty last
    group for a canonical line, else empty canonical groups and the whole
    line, newline included, as the last. A line is the text up to and
    including a newline, or a last line without one; an empty block has
    none."""
    return re.compile(r"^(?!\Z)(?:" + canonical + r"[ \t\r]*$\n?|(.*\n?))", re.M)


_SOURCE_LINE = _block_pattern(_SOURCE_CANONICAL)
_PUBLICATION_LINE = _block_pattern(_PUBLICATION_CANONICAL)
_LINK_LINE = _block_pattern(_LINK_CANONICAL)
# Characters of text per findall: enough to make the per-block cost nothing,
# few enough that the rows of one block stay small next to the index.
_BLOCK_CHARS = 1 << 16

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
    """Hard ingestion failure: duplicate identifiers, a corrupt title chain or
    a file that is not UTF-8."""


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


_T = TypeVar("_T")
# A row of a kind's pattern: its canonical groups, then the catch-all.
_Row = tuple[str, ...]
# (pub_id, source_id, sort_year, load day ordinal, is_article_in_press)
_Publication = tuple[str, int, int, int, bool]


def _parse_json_line(kind: str, lineno: int, line: str) -> dict:
    """json.loads(line) as a dict, or the rejection's message. Only the
    checked parsers call it, on the lines that are not canonical (see
    ingest)."""
    try:
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


def _parse_source(lineno: int, line: str, report: IngestReport) -> SourceRecord:
    obj = _parse_json_line("sources", lineno, line)
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


def _load_day(raw_date: str, lineno: int, days: dict[str, int]) -> int:
    """The day ordinal of a load_date string, which parse_date validates
    once per string; days caches it."""
    day = days.get(raw_date)
    if day is None:
        try:
            day = days[raw_date] = parse_date(raw_date).toordinal()
        except ValueError as exc:
            raise _LineError(f"publications line {lineno}: load_date {exc}") from exc
    return day


def _parse_publication(lineno: int, line: str, report: IngestReport, days: dict[str, int]) -> _Publication:
    """The fields of a publication line, in store column form."""
    obj = _parse_json_line("publications", lineno, line)
    _warn_unknown_fields(obj, _PUBLICATION_FIELDS, "publications", lineno, report)
    pub_id = _as_str(_require(obj, "pub_id", "publications", lineno), "pub_id", "publications", lineno)
    source_id = _as_int(_require(obj, "source_id", "publications", lineno), "source_id", "publications", lineno)
    sort_year = _as_int(_require(obj, "sort_year", "publications", lineno), "sort_year", "publications", lineno)
    raw_date = _as_str(_require(obj, "load_date", "publications", lineno), "load_date", "publications", lineno)
    day = _load_day(raw_date, lineno, days)
    doc_type = _as_str(_require(obj, "doc_type", "publications", lineno), "doc_type", "publications", lineno)
    if doc_type not in DOC_TYPES:
        raise _LineError(f"publications line {lineno}: unknown doc_type {doc_type!r}")
    aip = _as_bool(
        _require(obj, "is_article_in_press", "publications", lineno),
        "is_article_in_press", "publications", lineno,
    )
    return pub_id, source_id, sort_year, day, aip


def _parse_link(lineno: int, line: str, report: IngestReport) -> tuple[str, str]:
    """(citing_pub_id, cited_pub_id) of a link line."""
    obj = _parse_json_line("links", lineno, line)
    _warn_unknown_fields(obj, _LINK_FIELDS, "links", lineno, report)
    citing = _as_str(_require(obj, "citing_pub_id", "links", lineno), "citing_pub_id", "links", lineno)
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


@dataclass(eq=False)
class _Store:
    """The publications and links of one ingest, shared by every view of it.

    A publication's ordinal is its position in ingest order. The store keeps
    the fields the metrics read in columns by ordinal: ``pub_ids``;
    ``source_ids``, ``sort_years`` and ``load_days`` (the load date's
    ordinal), plain lists that share one int object per distinct value read
    inline; and ``in_press``, a list of bools. Each link is a row of the two
    ``array("i")`` columns ``citing`` and ``cited``: the ordinals of its two
    endpoints, in ingest order. Nothing in a column is a container the
    garbage collector walks. ``timelines`` keeps, per citing year, what
    IndexSnapshot.timelines builds from the columns on its first call for
    that year."""

    pub_ids: list[str]
    source_ids: list[int]
    sort_years: list[int]
    load_days: list[int]
    in_press: list[bool]
    citing: array
    cited: array
    timelines: dict[int, object] = field(default_factory=dict)


@dataclass(frozen=True)
class IndexSnapshot:
    """The index as it existed at a cutoff date (load_date <= cutoff, inclusive).

    Contains every source, the publications loaded by the cutoff, and only
    those links whose two endpoints both survive the filter. The full index
    built by :func:`ingest` is the snapshot at ``date.max``; :func:`snapshot`
    narrows any view to an earlier cutoff. Every view of one index shares
    that index's record store. ``link_count`` and ``sort_year_counts``
    count the view's links and its publications per sort_year on the
    columns. Immutable and safe to share across concurrent readers: what is
    filled lazily (a view's cached properties, the store's per-year
    timelines, which every view shares) is computed from columns that never
    change, so two threads that race on a first read compute equal values
    and either one is kept.
    """

    cutoff: date
    sources: Mapping[int, SourceRecord]
    successor: Mapping[int, int]
    _store: _Store = field(repr=False)

    @cached_property
    def _loaded(self) -> bytearray:
        """Per ordinal, 1 when the publication has loaded by the cutoff."""
        cutoff = self.cutoff.toordinal()
        return bytearray(day <= cutoff for day in self._store.load_days)

    def _link_rows(self) -> Iterator[tuple[int, int]]:
        """(citing, cited) ordinals of the view's links, in store order."""
        store, loaded = self._store, self._loaded
        rows = zip(store.citing, store.cited)
        return ((citing, cited) for citing, cited in rows if loaded[citing] and loaded[cited])

    # Only the benchmark (perfbench/run.py) reads this; it goes when the
    # benchmark counts link_count instead (ROADMAP item 1).
    @cached_property
    def links(self) -> tuple[tuple[str, str], ...]:
        """(citing_pub_id, cited_pub_id) of the view's links, in store order."""
        pub_ids = self._store.pub_ids
        return tuple((pub_ids[citing], pub_ids[cited]) for citing, cited in self._link_rows())

    @cached_property
    def link_count(self) -> int:
        """How many links the view holds, counted without building a pair."""
        return sum(1 for _ in self._link_rows())

    @cached_property
    def sort_year_counts(self) -> Counter[int]:
        """How many of the view's publications each sort_year holds."""
        return Counter(compress(self._store.sort_years, self._loaded))

    def timelines(self, year: int, build: Callable[[_Store, int], _T]) -> _T:
        """build(store, year) over the whole shared record store, run on the
        first call for the citing year and kept on the store, so every view
        of this index reads the same result; it never depends on a view's
        cutoff, which readers apply themselves. Two threads that both make
        the first call each build, and store, equal results."""
        memo = self._store.timelines
        built = memo.get(year)
        if built is None:
            built = memo[year] = build(self._store, year)
        return built

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
    record streams. Each item of a stream is one numbered line, with or
    without its newline.

    Malformed lines, dangling references, and invariant-violating links are
    rejected with a warning and ingestion continues. Duplicate identifiers
    and corrupt title chains (cycles, shared predecessors) raise IngestError.
    """
    return _ingest(
        _line_rows(_SOURCE_LINE, source_lines),
        _line_rows(_PUBLICATION_LINE, publication_lines),
        _line_rows(_LINK_LINE, link_lines),
    )


def _line_rows(pattern: re.Pattern, lines: Iterable[str]) -> Iterator[list[_Row]]:
    """The pattern's rows of line items, one per item: an item that ends in
    its only newline is matched as a block of one line; any other item (no
    newline, or one inside it) is one catch-all row, so it goes whole to the
    checked parser."""
    no_fields = ("",) * (pattern.groups - 1)
    for line in lines:
        if line[-1:] == "\n" and line.find("\n") == len(line) - 1:
            yield pattern.findall(line)
        else:
            yield [(*no_fields, line)]


def _file_rows(pattern: re.Pattern, handle: TextIO) -> Iterator[list[_Row]]:
    """The pattern's rows of a text file, one per line, a block of about
    _BLOCK_CHARS characters extended to the next newline at a time."""
    while block := handle.read(_BLOCK_CHARS):
        yield pattern.findall(block + handle.readline())


def _ingest(
    source_rows: Iterable[list[_Row]],
    publication_rows: Iterable[list[_Row]],
    link_rows: Iterable[list[_Row]],
) -> tuple[IndexSnapshot, IngestReport]:
    # One rule reads every kind: a row whose first canonical group is set (it
    # is non-empty when it matches) is a canonical line, accepted inline; the
    # last group of any other row is its whole line, for the kind's checked
    # parser.
    report = IngestReport()
    sources: dict[int, SourceRecord] = {}
    # One frozenset per distinct asjc_codes text.
    code_sets: dict[str, frozenset[int]] = {}
    rows = chain.from_iterable(source_rows)
    for lineno, (codes_text, active_text, pred_text, id_text, type_text, title, line) in enumerate(rows, 1):
        if codes_text:
            codes = code_sets.get(codes_text)
            if codes is None:
                codes = code_sets[codes_text] = frozenset(map(int, codes_text.split(",")))
            record = SourceRecord(
                int(id_text), title, type_text, codes, active_text == "true", int(pred_text) if pred_text else None
            )
        elif not line.strip():
            continue
        else:
            try:
                record = _parse_source(lineno, line, report)
            except _LineError as exc:
                report.sources_rejected += 1
                report.warn(str(exc))
                continue
        if record.source_id in sources:
            raise IngestError(f"sources line {lineno}: duplicate source_id {record.source_id}")
        sources[record.source_id] = record
        report.sources_accepted += 1

    successor = _validate_chains(sources, report)

    # A canonical publication line is accepted once parse_date has taken its
    # load_date string (cached for this call). Inline ints are shared: one
    # object per source, per sort_year string and per load_date string.
    days: dict[str, int] = {}
    years: dict[str, int] = {}
    source_of_text = {str(source_id): source_id for source_id in sources}
    # Each accepted publication's ordinal, and its fields by ordinal.
    ordinal: dict[str, int] = {}
    pub_ids: list[str] = []
    source_ids: list[int] = []
    sort_years: list[int] = []
    load_days: list[int] = []
    in_press: list[bool] = []
    rows = chain.from_iterable(publication_rows)
    for lineno, (doc_text, aip_text, date_text, pub_text, year_text, source_text, line) in enumerate(rows, 1):
        try:
            if doc_text:
                day = days.get(date_text)
                if day is None:
                    day = _load_day(date_text, lineno, days)
                sort_year = years.get(year_text)
                if sort_year is None:
                    sort_year = years[year_text] = int(year_text)
                pub_id, source_id = pub_text, source_of_text.get(source_text) or int(source_text)
                aip = aip_text == "true"
            elif not line.strip():
                continue
            else:
                pub_id, source_id, sort_year, day, aip = _parse_publication(lineno, line, report, days)
        except _LineError as exc:
            report.publications_rejected += 1
            report.warn(str(exc))
            continue
        if pub_id in ordinal:
            raise IngestError(f"publications line {lineno}: duplicate pub_id {pub_id!r}")
        if source_id not in sources:
            report.publications_rejected += 1
            report.warn(f"publications line {lineno}: unknown source_id {source_id}, record rejected")
            continue
        ordinal[pub_id] = len(pub_ids)
        pub_ids.append(pub_id)
        source_ids.append(source_id)
        sort_years.append(sort_year)
        load_days.append(day)
        in_press.append(aip)
    report.publications_accepted = len(pub_ids)

    citing_column, cited_column = array("i"), array("i")
    # A links file is one reference list after another, so each citing
    # publication's accepted links form one run: dedupe a run on the set of
    # its cited ordinals (the ordinal dict's own ints). started marks the
    # citing ordinals whose run has begun. Once a finished run resumes, the
    # links are not grouped: seen then keys every link accepted so far, and
    # each one after it, on one int, citing * width + cited (distinct pairs
    # map to distinct keys, since every cited ordinal is below width).
    width = len(pub_ids)
    started = bytearray(width)
    run_citing, run = -1, set()
    seen: set[int] | None = None
    collapsed = 0
    for lineno, (cited_id, citing_id, line) in enumerate(chain.from_iterable(link_rows), start=1):
        if not cited_id:
            if not line.strip():
                continue
            try:
                citing_id, cited_id = _parse_link(lineno, line, report)
            except _LineError as exc:
                report.links_rejected += 1
                report.warn(str(exc))
                continue
        citing = ordinal.get(citing_id)
        cited = ordinal.get(cited_id)
        if citing is None or cited is None or citing == cited or in_press[citing]:
            report.links_rejected += 1
            report.warn(_link_rejection(lineno, citing_id, cited_id, citing is not None, cited is not None))
            continue
        if citing != run_citing and seen is None:
            if started[citing]:
                seen = set(map(add, map(mul, citing_column, repeat(width)), cited_column))
            else:
                started[citing] = 1
                run_citing, run = citing, set()
        if seen is None:
            if cited in run:
                collapsed += 1
                continue
            run.add(cited)
        else:
            key = citing * width + cited
            if key in seen:
                collapsed += 1
                continue
            seen.add(key)
        citing_column.append(citing)
        cited_column.append(cited)
    report.links_accepted = len(citing_column)
    report.links_collapsed = collapsed

    store = _Store(pub_ids, source_ids, sort_years, load_days, in_press, citing_column, cited_column)
    index = IndexSnapshot(
        cutoff=date.max,
        sources=MappingProxyType(sources),
        successor=MappingProxyType(successor),
        _store=store,
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


def load_index(
    sources_path: str,
    publications_path: str,
    links_path: str,
) -> tuple[IndexSnapshot, IngestReport]:
    """Ingest the three record files from disk into the full index, reading
    each a block of text at a time. A file that is not UTF-8 raises
    IngestError, which names the first line that is not."""
    try:
        with open(sources_path, encoding="utf-8") as src, \
                open(publications_path, encoding="utf-8") as pubs, \
                open(links_path, encoding="utf-8") as links:
            return _ingest(
                _file_rows(_SOURCE_LINE, src), _file_rows(_PUBLICATION_LINE, pubs), _file_rows(_LINK_LINE, links)
            )
    except UnicodeDecodeError:
        for kind, path in (("sources", sources_path), ("publications", publications_path), ("links", links_path)):
            _check_utf8(kind, path)
        raise


def _check_utf8(kind: str, path: str) -> None:
    """Raise IngestError at the file's first line that is not UTF-8, numbered
    as ingest numbers it: a newline, a carriage return or both end a line."""
    with open(path, "rb") as handle:
        lines = chain.from_iterable(line.splitlines() for line in handle)
        for lineno, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise IngestError(
                    f"{kind} line {lineno}: not valid UTF-8 "
                    f"(byte {line[exc.start]:#04x} at offset {exc.start}: {exc.reason})"
                ) from None


def snapshot(index: IndexSnapshot, cutoff: date) -> IndexSnapshot:
    """Narrow a view to a cutoff date.

    A publication is in the view iff load_date <= cutoff; a link survives iff
    both endpoints do. Sources are not load-dated and are always present.
    The view shares the index's record store and copies nothing here.
    """
    return dataclasses.replace(index, cutoff=min(cutoff, index.cutoff))
