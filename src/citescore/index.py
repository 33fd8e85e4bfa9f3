"""Citation index: ingestion, load-date snapshots, and title-chain resolution.

Records arrive as line-delimited JSON (one object per line, UTF-8). Ingestion
is single-writer and builds the full index as the snapshot at ``date.max``.
Sources, publications and links are read by one rule: a canonical line, in
the byte form ``citescore generate`` writes
(:func:`citescore.corpus.canonical_line`), is matched by the kind's compiled
pattern, whose groups are the fields, and accepted inline in
:func:`ingest`; any other line, in whatever valid JSON spelling, goes
through that kind's checked parser, which accepts it or builds the
rejection's reason; ingest names the line (``<kind> line <n>: ``) where it
counts the rejection. The pattern runs one ``findall`` per block of whole
lines (about ``_BLOCK_CHARS`` characters of file text, or one line item
that ends in its only newline), and its catch-all alternative gives every
other line, whole, to the checked parser, so each line still has its
number. Each accepted publication gets an ordinal, its position in ingest
order, and the index keeps only what the metrics read of it: its source,
sort year, load day and in-press flag. Its id only resolves link endpoints
during ingest, and every document type counts, so neither the id nor
``doc_type`` (validated) is kept. Links are deduplicated per citing
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
metrics read (``metrics._timelines``): built from the whole store on the
first read for that year, never during ingest, and read by every view at its
own cutoff. Views are immutable, so they can be shared freely across
metric computations.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import Counter
from datetime import date
from itertools import chain, compress, repeat
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, TextIO

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


class IngestReport:
    """Accepted/rejected counts plus human-readable warnings."""

    def __init__(self) -> None:
        self.sources_accepted = self.sources_rejected = 0
        self.publications_accepted = self.publications_rejected = 0
        self.links_accepted = self.links_rejected = self.links_collapsed = 0
        self.warnings: list[str] = []

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def counts(self) -> dict[str, int]:
        """Every counter, by name, in the order __init__ sets them."""
        return {name: value for name, value in vars(self).items() if name != "warnings"}


class _LineError(Exception):
    """Per-line validation failure; the line is rejected and ingestion
    continues. Its message is the bare reason, which ingest prefixes with
    the line's kind and number."""


# A row of a kind's pattern: its canonical groups, then the catch-all.
_Row = tuple[str, ...]
# (pub_id, source_id, sort_year, load day ordinal, is_article_in_press)
_Publication = tuple[str, int, int, int, bool]


# The reason _typed gives for a value that is not of the wanted type.
_WANTED = {
    int: "field {!r} must be an integer",
    bool: "field {!r} must be a boolean",
    str: "field {!r} must be a non-empty string",
    list: "{} must be a non-empty list",
}


def _decode(kind: str, lineno: int, line: str, known: set[str], report: IngestReport) -> dict:
    """json.loads(line) as a dict, with a warning for each key not in known;
    any other line raises the rejection's reason. An unknown key rejects
    nothing, so its warning names the line here. Only the checked parsers
    call it, on the lines that are not canonical (see ingest)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _LineError(f"invalid JSON ({exc.msg})") from exc
    except RecursionError as exc:
        raise _LineError("invalid JSON (nested too deeply)") from exc
    except ValueError as exc:
        # An integer literal longer than the interpreter's int conversion limit.
        raise _LineError("invalid JSON (integer too long)") from exc
    if not isinstance(obj, dict):
        raise _LineError("expected an object")
    for key in obj:
        if key not in known:
            report.warn(f"{kind} line {lineno}: ignoring unknown field {key!r}")
    return obj


def _field(obj: dict, key: str, want: type):
    """obj[key], checked by _typed; a missing key raises the rejection's reason."""
    if key not in obj:
        raise _LineError(f"missing field {key!r}")
    return _typed(obj[key], key, want)


def _typed(value, key: str, want: type):
    """value when it is a want: an int that is not a bool, a bool, a
    non-empty str or a non-empty list (json.loads gives these exact types,
    never a subclass); else raises the rejection's reason, which names key."""
    if type(value) is not want or (not value and want in (str, list)):
        raise _LineError(_WANTED[want].format(key))
    return value


def _parse_source(lineno: int, line: str, report: IngestReport) -> SourceRecord:
    obj = _decode("sources", lineno, line, _SOURCE_FIELDS, report)
    source_id = _field(obj, "source_id", int)
    title = _field(obj, "title", str)
    try:
        title.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise _LineError("field 'title' holds a lone surrogate") from exc
    source_type = _field(obj, "source_type", str)
    if source_type not in SOURCE_TYPES:
        raise _LineError(f"unknown source_type {source_type!r}")
    codes = set()
    for code in _field(obj, "asjc_codes", list):
        code = _typed(code, "asjc_codes", int)
        if not 1000 <= code <= 9999:
            raise _LineError(f"ASJC code {code} is not a 4-digit code")
        codes.add(code)
    active = _field(obj, "is_actively_indexed", bool)
    predecessor = obj.get("predecessor_source_id")
    if predecessor is not None:
        predecessor = _typed(predecessor, "predecessor_source_id", int)
    return SourceRecord(source_id, title, source_type, frozenset(codes), active, predecessor)


def _load_day(raw_date: str, days: dict[str, int]) -> int:
    """The day ordinal of a load_date string, which parse_date validates
    once per string (days caches it); an invalid date raises the rejection's
    reason."""
    day = days.get(raw_date)
    if day is None:
        try:
            day = days[raw_date] = parse_date(raw_date).toordinal()
        except ValueError as exc:
            raise _LineError(f"load_date {exc}") from exc
    return day


def _parse_publication(lineno: int, line: str, report: IngestReport, days: dict[str, int]) -> _Publication:
    """The fields of a publication line, in store column form."""
    obj = _decode("publications", lineno, line, _PUBLICATION_FIELDS, report)
    pub_id = _field(obj, "pub_id", str)
    source_id = _field(obj, "source_id", int)
    sort_year = _field(obj, "sort_year", int)
    day = _load_day(_field(obj, "load_date", str), days)
    doc_type = _field(obj, "doc_type", str)
    if doc_type not in DOC_TYPES:
        raise _LineError(f"unknown doc_type {doc_type!r}")
    return pub_id, source_id, sort_year, day, _field(obj, "is_article_in_press", bool)


def _parse_link(lineno: int, line: str, report: IngestReport) -> tuple[str, str]:
    """(citing_pub_id, cited_pub_id) of a link line."""
    obj = _decode("links", lineno, line, _LINK_FIELDS, report)
    return _field(obj, "citing_pub_id", str), _field(obj, "cited_pub_id", str)


def _link_rejection(citing_id: str, cited_id: str, citing_known: bool, cited_known: bool) -> str:
    """The reason to reject a link whose ids are well formed but which cites
    itself, has an endpoint that is not an accepted publication, or whose
    citing publication is an article-in-press; checked in that order."""
    if citing_id == cited_id:
        return f"publication cannot cite itself ({citing_id!r})"
    if not citing_known or not cited_known:
        missing = cited_id if citing_known else citing_id
        return f"dangling endpoint {missing!r}, link rejected"
    return f"citing publication {citing_id!r} is an article-in-press and cannot give citations, link rejected"


class _Store(NamedTuple):
    """The publications and links of one ingest, shared by every view of it.

    A publication's ordinal is its position in ingest order; its id is not
    kept. The store keeps the fields the metrics read in columns by ordinal:
    ``source_ids``, ``sort_years`` and ``load_days`` (the load date's
    ordinal), plain lists that share one int object per distinct value read
    inline; and ``in_press``, a list of bools. Each link is a row of the two
    ``array("i")`` columns ``citing`` and ``cited``: the ordinals of its two
    endpoints, in ingest order. Nothing in a column is a container the
    garbage collector walks. ``timelines`` keeps, per citing year, the
    event timelines metrics._timelines builds from the columns on the first
    read for that year."""

    source_ids: list[int]
    sort_years: list[int]
    load_days: list[int]
    in_press: list[bool]
    citing: array
    cited: array
    timelines: dict[int, object]


class IndexSnapshot(NamedTuple):
    """The index as it existed at a cutoff date (load_date <= cutoff, inclusive).

    Contains every source, the publications loaded by the cutoff, and only
    those links whose two endpoints both survive the filter. The full index
    built by :func:`ingest` is the snapshot at ``date.max``; :func:`snapshot`
    narrows any view to an earlier cutoff. Every view of one index shares
    that index's record ``store``. ``link_count`` and ``sort_year_counts``
    count the view's links and its publications per sort_year on the
    columns, each time they are read. A view is an immutable value of its
    four fields, safe to share across concurrent readers: only the store's
    per-year timelines are filled lazily, from columns that never change, so
    two threads that race on a first read compute equal values and either
    one is kept.
    """

    cutoff: date
    sources: Mapping[int, SourceRecord]
    successor: Mapping[int, int]
    store: _Store

    def _link_rows(self) -> Iterator[tuple[int, int]]:
        """(citing, cited) ordinals of the view's links, in store order."""
        cutoff, days = self.cutoff.toordinal(), self.store.load_days
        rows = zip(self.store.citing, self.store.cited)
        return ((citing, cited) for citing, cited in rows if days[citing] <= cutoff and days[cited] <= cutoff)

    # Only the benchmark (perfbench/run.py) reads this; it goes when the
    # benchmark counts link_count instead (ROADMAP item 1).
    @property
    def links(self) -> tuple[tuple[int, int], ...]:
        """(citing, cited) ordinals of the view's links, in store order."""
        return tuple(self._link_rows())

    @property
    def link_count(self) -> int:
        """How many links the view holds, counted without building a pair."""
        return sum(1 for _ in self._link_rows())

    @property
    def sort_year_counts(self) -> Counter[int]:
        """How many of the view's publications each sort_year holds."""
        loaded = map(self.cutoff.toordinal().__ge__, self.store.load_days)
        return Counter(compress(self.store.sort_years, loaded))

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
                report.warn(f"sources line {lineno}: {exc}")
                continue
        if record.source_id in sources:
            raise IngestError(f"sources line {lineno}: duplicate source_id {record.source_id}")
        sources[record.source_id] = record
    report.sources_accepted = len(sources)

    successor = _validate_chains(sources, report)

    # A canonical publication line is accepted once parse_date has taken its
    # load_date string (cached for this call). Inline ints are shared: one
    # object per source, per sort_year string and per load_date string.
    days: dict[str, int] = {}
    years: dict[str, int] = {}
    source_of_text = {str(source_id): source_id for source_id in sources}
    # Each accepted publication's ordinal, by id, and its fields by ordinal.
    ordinal: dict[str, int] = {}
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
                    day = _load_day(date_text, days)
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
            report.warn(f"publications line {lineno}: {exc}")
            continue
        if pub_id in ordinal:
            raise IngestError(f"publications line {lineno}: duplicate pub_id {pub_id!r}")
        if source_id not in sources:
            report.publications_rejected += 1
            report.warn(f"publications line {lineno}: unknown source_id {source_id}, record rejected")
            continue
        ordinal[pub_id] = len(ordinal)
        source_ids.append(source_id)
        sort_years.append(sort_year)
        load_days.append(day)
        in_press.append(aip)
    report.publications_accepted = len(ordinal)

    citing_column, cited_column = array("i"), array("i")
    # A links file is one reference list after another, so each citing
    # publication's accepted links form one run: dedupe a run on the set of
    # its cited ordinals (the ordinal dict's own ints). started marks the
    # citing ordinals whose run has begun. Once a finished run resumes, the
    # links are not grouped: seen then keys every link accepted so far, and
    # each one after it, on one int, citing * width + cited (distinct pairs
    # map to distinct keys, since every cited ordinal is below width).
    width = len(ordinal)
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
                report.warn(f"links line {lineno}: {exc}")
                continue
        citing = ordinal.get(citing_id)
        cited = ordinal.get(cited_id)
        if citing is None or cited is None or citing == cited or in_press[citing]:
            report.links_rejected += 1
            reason = _link_rejection(citing_id, cited_id, citing is not None, cited is not None)
            report.warn(f"links line {lineno}: {reason}")
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

    store = _Store(source_ids, sort_years, load_days, in_press, citing_column, cited_column, {})
    return IndexSnapshot(date.max, MappingProxyType(sources), MappingProxyType(successor), store), report


def _validate_chains(sources: dict[int, SourceRecord], report: IngestReport) -> dict[int, int]:
    """Drop dangling predecessor pointers; reject shared predecessors and
    cycles. Returns the successor map: predecessor -> source_id.

    One pass in file order drops, rejects or records each pointer. No source
    then has two successors, so a walk forward from a chain head (a source
    with no predecessor) never enters a cycle, and the sources no walk
    reaches are those on cycles."""
    successor: dict[int, int] = {}
    for sid, record in sources.items():
        pred = record.predecessor_source_id
        if pred is None:
            continue
        if pred not in sources:
            report.warn(f"source {sid}: predecessor_source_id {pred} does not exist, pointer dropped")
            sources[sid] = record._replace(predecessor_source_id=None)
        elif pred in successor:
            raise IngestError(
                f"sources {successor[pred]} and {sid} share predecessor {pred}; "
                "title chains must be linear"
            )
        else:
            successor[pred] = sid

    reached = {sid for sid, record in sources.items() if record.predecessor_source_id is None}
    for current in list(reached):
        while (current := successor.get(current)) is not None:
            reached.add(current)
    if len(reached) < len(sources):
        cyclic = next(sid for sid in sources if sid not in reached)
        raise IngestError(f"predecessor cycle detected at source {cyclic}")
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
    # tuple.__new__, as IndexSnapshot._make does, skips the Python-level
    # __new__ of the class: a view per tracker_value call is its request path.
    cutoff = cutoff if cutoff < index.cutoff else index.cutoff
    return tuple.__new__(IndexSnapshot, (cutoff, index.sources, index.successor, index.store))
