"""Ingestion, snapshots, and title-chain resolution."""

from __future__ import annotations

import gc
import json
import random
import tracemalloc
from collections import Counter
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import citescore.index as index_module
from citescore import (
    CorpusConfig,
    IngestError,
    compute_annual,
    generate_corpus,
    ingest,
    load_index,
    snapshot,
)
from citescore.corpus import canonical_line
from citescore.output import write_metrics_csv, write_standings_csv
from citescore.records import SourceRecord, parse_date

from helpers import (
    Pub, brute_force_view, build_index, differential_index, link_line, pub_line, reference_records, source_line,
    stored,
)


def _clean_corpus():
    sources = [source_line(i) for i in (1, 2, 3)]
    pubs = [pub_line(f"p{i}", 1 + i % 3, 2014 + i % 3) for i in range(10)]
    links = [link_line(f"p{i}", f"p{(i + 1) % 10}") for i in range(10)]
    links += [link_line("p0", "p5"), link_line("p1", "p7")]
    return sources, pubs, links


def test_clean_ingest_counts():
    sources, pubs, links = _clean_corpus()
    index, report = build_index(sources, pubs, links)
    assert report.counts()["sources_accepted"] == 3
    assert report.counts()["publications_accepted"] == 10
    assert report.counts()["links_accepted"] == 12
    assert report.counts()["links_rejected"] == 0
    assert not report.warnings
    assert index.link_count == 12


def test_dangling_link_rejected_with_warning():
    sources, pubs, links = _clean_corpus()
    links.append(link_line("p0", "does-not-exist"))
    index, report = build_index(sources, pubs, links)
    assert report.links_accepted == 12
    assert report.links_rejected == 1
    assert any("dangling" in w for w in report.warnings)


def test_duplicate_pub_id_is_hard_error():
    sources, pubs, links = _clean_corpus()
    pubs.append(pub_line("p0", 1, 2015))
    with pytest.raises(IngestError, match="duplicate pub_id"):
        build_index(sources, pubs, links)


def test_duplicate_source_id_is_hard_error():
    sources, pubs, links = _clean_corpus()
    sources.append(source_line(2))
    with pytest.raises(IngestError, match="duplicate source_id"):
        build_index(sources, pubs, links)


def test_malformed_line_rejected_with_line_number():
    sources, pubs, links = _clean_corpus()
    pubs.insert(3, "{not json")
    index, report = build_index(sources, pubs, links)
    assert report.publications_accepted == 10
    assert report.publications_rejected == 1
    assert any("publications line 4" in w for w in report.warnings)


def test_missing_field_and_bad_values_rejected():
    sources = [source_line(1), source_line(7, asjc=())]
    pubs = [
        pub_line("ok", 1, 2015),
        pub_line("bad-date", 1, 2015, load_date="2015-13-40"),
        pub_line("bad-type", 1, 2015, doc_type="poem"),
        '{"pub_id": "missing-fields"}',
    ]
    index, report = ingest(sources, pubs, [])
    assert report.sources_accepted == 1
    assert report.sources_rejected == 1
    assert report.publications_accepted == 1
    assert report.publications_rejected == 3
    assert set(stored(index)[0]) == {"ok"}


def test_unknown_fields_ignored_with_warning():
    sources = [source_line(1, publisher="Nobody")]
    pubs = [pub_line("p1", 1, 2015, color="blue")]
    index, report = ingest(sources, pubs, [])
    assert report.sources_accepted == 1
    assert report.publications_accepted == 1
    assert any("unknown field 'publisher'" in w for w in report.warnings)
    assert any("unknown field 'color'" in w for w in report.warnings)


def test_publication_with_unknown_source_rejected():
    index, report = ingest([source_line(1)], [pub_line("p1", 99, 2015)], [])
    assert report.publications_rejected == 1
    assert any("unknown source_id 99" in w for w in report.warnings)


def test_self_citation_rejected_and_duplicates_collapsed():
    sources = [source_line(1)]
    pubs = [pub_line("a", 1, 2016), pub_line("b", 1, 2015)]
    links = [link_line("a", "b"), link_line("a", "b"), link_line("a", "a")]
    index, report = ingest(sources, pubs, links)
    assert report.links_accepted == 1
    assert report.links_collapsed == 1
    assert report.links_rejected == 1


def test_article_in_press_cannot_give_citations():
    sources = [source_line(1)]
    pubs = [pub_line("aip", 1, 2017, aip=True), pub_line("old", 1, 2015)]
    index, report = ingest(sources, pubs, [link_line("aip", "old")])
    assert report.links_accepted == 0
    assert report.links_rejected == 1
    assert any("article-in-press" in w for w in report.warnings)


def test_ingest_peak_memory_stays_near_the_index_it_keeps(tmp_path):
    """Generated links come one reference list after another, so ingest
    dedupes each list on its own small set: load_index's traced peak on a
    near-cap-shaped corpus is 1.8 times what the index holds after it,
    against 4.85 times with one int key per link."""
    cfg = CorpusConfig(seed=11, n_journals=60, pubs_per_year_mean=13.5, citation_rate=6.2,
                       aip_fraction=0.2, rename_probability=0.15, n_categories=10)
    paths = generate_corpus(cfg, tmp_path)
    gc.collect()
    tracemalloc.start()
    try:
        index, report = load_index(paths.sources_path, paths.publications_path, paths.links_path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.links_accepted > 20_000
    assert peak < 3 * held


def test_canonical_link_lines_call_no_link_helper(monkeypatch):
    """A link line in the generator's form that is accepted or collapsed
    never reaches the helpers that parse other lines or build a rejection's
    message."""
    def forbidden(*args):
        raise AssertionError("link helper called")

    monkeypatch.setattr(index_module, "_parse_link", forbidden)
    monkeypatch.setattr(index_module, "_link_rejection", forbidden)
    sources, pubs, links = _clean_corpus()
    lines = [canonical_line(json.loads(line)) + "\n" for line in links + links[:3]]
    index, report = ingest(sources, pubs, lines)
    assert report.links_accepted == 12
    assert report.links_collapsed == 3
    assert index.link_count == 12


def test_canonical_publication_lines_parse_each_load_date_once(monkeypatch):
    """A publication line in the generator's form never takes the checked
    parser; parse_date validates each distinct load_date string once, on its
    first line, and the cached date serves every later line."""
    def forbidden(*args):
        raise AssertionError("_parse_publication called")

    parsed = []

    def counting_parse_date(text):
        parsed.append(text)
        return parse_date(text)

    monkeypatch.setattr(index_module, "_parse_publication", forbidden)
    monkeypatch.setattr(index_module, "parse_date", counting_parse_date)
    sources, pubs, links = _clean_corpus()
    pubs += [pub_line("q0", 2, 2016, load_date="2016-03-01"), pub_line("q1", 3, 2016, load_date="2016-03-01")]
    index, report = ingest(sources, [canonical_line(json.loads(line)) + "\n" for line in pubs], links)
    assert parsed == ["2015-01-10", "2016-03-01"]
    assert report.publications_accepted == 12
    assert not report.warnings
    publications = stored(index)[0]
    assert publications["q1"].load_date == date(2016, 3, 1)
    assert publications == {
        record["pub_id"]: Pub(
            record["pub_id"], record["source_id"], record["sort_year"], date.fromisoformat(record["load_date"]),
            record["is_article_in_press"],
        )
        for record in map(json.loads, pubs)
    }


# Source lines in the generator's form (keys sorted, no spaces) with values
# the generator never writes: a raw non-ASCII title, DEL and U+2028 in a
# title, a repeated code, a source_id of -0, and predecessors that are 0 or
# negative.
_CANONICAL_SOURCE_EDGES = [
    '{"asjc_codes":[2200,1000,2200],"is_actively_indexed":false,"source_id":900,"source_type":"book-series","title":"B\u00eata \u2603"}\n',
    '{"asjc_codes":[9999],"is_actively_indexed":true,"predecessor_source_id":900,"source_id":901,"source_type":"standalone-book","title":" x\x7f\u2028 "}\n',
    '{"asjc_codes":[1000],"is_actively_indexed":true,"predecessor_source_id":0,"source_id":902,"source_type":"journal","title":"zero"}\n',
    '{"asjc_codes":[1000],"is_actively_indexed":true,"predecessor_source_id":-7,"source_id":-0,"source_type":"journal","title":"minus"}',
]


def _json_source(obj, ids):
    """The SourceRecord that json's reading of a source line gives, its
    predecessor dropped unless it is one of ids."""
    predecessor = obj.get("predecessor_source_id")
    return SourceRecord(
        obj["source_id"], obj["title"], obj["source_type"], frozenset(obj["asjc_codes"]),
        obj["is_actively_indexed"], predecessor if predecessor in ids else None,
    )


def test_canonical_source_lines_call_no_source_helper(tmp_path, monkeypatch):
    """A source line in the generator's form never takes the checked
    parser, through load_index or ingest, and gives the record that json's
    reading of it gives; only a dangling predecessor warns."""
    def forbidden(*args):
        raise AssertionError("_parse_source called")

    paths = generate_corpus(CorpusConfig(seed=11, n_journals=30, rename_probability=0.5), tmp_path)
    lines = paths.sources_path.read_text(encoding="utf-8").splitlines(keepends=True) + _CANONICAL_SOURCE_EDGES
    paths.sources_path.write_text("".join(lines), encoding="utf-8")
    objects = [json.loads(line) for line in lines]
    ids = {obj["source_id"] for obj in objects}
    expected = {obj["source_id"]: _json_source(obj, ids) for obj in objects}
    assert any(record.predecessor_source_id for record in expected.values())
    monkeypatch.setattr(index_module, "_parse_source", forbidden)
    files = paths.sources_path, paths.publications_path, paths.links_path
    # The last line has no newline: load_index reads it inline, and ingest
    # would give such an item to the checked parser, so it gets one there.
    for index, report in [load_index(*files), ingest(lines[:-1] + [lines[-1] + "\n"], [], [])]:
        assert dict(index.sources) == expected
        assert report.sources_accepted == len(lines)
        assert report.warnings == ["source 0: predecessor_source_id -7 does not exist, pointer dropped"]
    assert index.sources[900].asjc_codes == {1000, 2200}
    assert index.sources[902].predecessor_source_id == 0


# Golden ingest input, one list per record kind; a comment names each line's
# case, in the words of perfbench/inputs.DIRT_CLASSES where it has one. The
# tails are the valid fields after the ids.
_SOURCE_TAIL = '"title": "T", "source_type": "journal", "asjc_codes": [1000], "is_actively_indexed": true'
_PUBLICATION_TAIL = '"sort_year": 2015, "load_date": "2015-01-10", "doc_type": "article", "is_article_in_press": false'
_GENERATOR_HEAD = '{"doc_type":"article","is_article_in_press":false,"load_date":"2016-03-01",'

_GOLDEN_SOURCES = [
    '{"source_id": 1, "title": "Alpha", "source_type": "journal", "asjc_codes": [1000, 1100, 1000], "is_actively_indexed": true}\n',  # a repeated code
    # Keys in a non-canonical order, a predecessor, a title escaping a surrogate pair.
    '{"predecessor_source_id": 1, "is_actively_indexed": false, "asjc_codes": [2200], "source_type": "book-series", "title": "B\\u00e9ta \\ud83d\\ude00", "source_id": 2}\n',
    '{"source_id": 3, "title": "Gam',  # bad_json
    '[4]\n',  # not_object
    '{"source_id": 5, "source_type": "journal", "asjc_codes": [1000], "is_actively_indexed": true}\n',  # missing_field
    '{"source_id": "6", ' + _SOURCE_TAIL + '}\n',  # bad_type
    '{"source_id": 7, "title": "T", "source_type": "magazine", "asjc_codes": [1000], "is_actively_indexed": true}\n',  # unknown_source_type
    '{"source_id": 8, "title": "T", "source_type": "journal", "asjc_codes": [12], "is_actively_indexed": true}\n',  # bad_asjc
    '{"x_before": 0, "source_id": 9, ' + _SOURCE_TAIL + ', "x_after": [1]}\n',  # unknown_field, both sides
    '  \t{"source_id": 10, ' + _SOURCE_TAIL + '}\n',  # leading spaces and a tab
    '{"source_id": 11, "source_id": 12, ' + _SOURCE_TAIL + '}\n',  # duplicate keys: the last wins
    '\ufeff{"source_id": 13, ' + _SOURCE_TAIL + '}\n',  # BOM
    '{"source_id": 14, ' + _SOURCE_TAIL + '}\x0c\n',  # trailing form feed
    '{"source_id": 15, "title": "", "source_type": "journal", "asjc_codes": [1000], "is_actively_indexed": true}\n',  # an empty title
    '{"source_id": 16, ' + _SOURCE_TAIL + ', "predecessor_source_id": 99}\n',  # dangling predecessor, dropped
    '{"source_id": true, ' + _SOURCE_TAIL + '}\n',  # a bool is not an integer
    '{"source_id": 18, "title": "T", "source_type": "journal", "asjc_codes": [1000, true], "is_actively_indexed": true}\n',  # nor is one among the codes
    '{"source_id": 19, "title": "T", "source_type": "journal", "asjc_codes": [], "is_actively_indexed": true}\n',  # no codes
    '{"source_id": 20, "title": "T", "source_type": "journal", "asjc_codes": [1000], "is_actively_indexed": 1}\n',  # an integer is not a bool
    '{"source_id": 21, ' + _SOURCE_TAIL + '} x\n',  # trailing garbage
]

_GOLDEN_PUBLICATIONS = [
    '{"pub_id": "a", "source_id": 1, ' + _PUBLICATION_TAIL + '}\n',
    # Keys in a non-canonical order; trailing tab, CR and spaces.
    '{"is_article_in_press": false, "doc_type": "review", "load_date": "2016-03-01", "sort_year": 2016, "source_id": 2, "pub_id": "b"}\t\r  \n',
    '\t {"pub_id": "c", "source_id": 10, "sort_year": 2017, "load_date": "2017-02-01", "doc_type": "letter", "is_article_in_press": true}\n',  # leading tab and space
    '{"pub_id": "d", "source_id": 12, ' + _PUBLICATION_TAIL + '}',  # no newline, same date as a
    '\n',  # blank: skipped, still numbered
    ' \x0c \n',  # whitespace only: skipped
    '{"pub_id": "e", "source_id": 1, "sort_year": 2015, "load_date": "2015-01',  # bad_json
    '{"pub_id": "f", "source_id": 1, "sort_year": 2015, "doc_type": "article", "is_article_in_press": false}\n',  # missing_field
    '{"pub_id": "g", "source_id": 1, "sort_year": "2015", "load_date": "2015-01-10", "doc_type": "article", "is_article_in_press": false}\n',  # bad_type
    '{"pub_id": "h", "source_id": 1, "sort_year": 2015, "load_date": "2015/01/10", "doc_type": "article", "is_article_in_press": false}\n',  # bad_date_format
    '{"pub_id": "i", "source_id": 1, "sort_year": 2015, "load_date": "2015-02-30", "doc_type": "article", "is_article_in_press": false}\n',  # impossible_date
    '{"pub_id": "i2", "source_id": 1, "sort_year": 2015, "load_date": "2015-02-30", "doc_type": "article", "is_article_in_press": false}\n',  # the same impossible date again: rejected again
    '{"pub_id": "j", "source_id": 1, "sort_year": 2015, "load_date": "2015-01-10", "doc_type": "poem", "is_article_in_press": false}\n',  # unknown_doc_type
    '{"pub_id": "k", "source_id": 777, ' + _PUBLICATION_TAIL + '}\n',  # unknown_source
    '{"pub_id": "k2", "source": 1, ' + _PUBLICATION_TAIL + '}\n',  # an unknown key in place of a known one
    '{"x_before": null, "pub_id": "l", "source_id": 1, ' + _PUBLICATION_TAIL + ', "x_after": {}}\n',  # unknown_field
    '{"pub_id": "m", "source_id": 1, ' + _PUBLICATION_TAIL + '}\x0b\n',  # trailing vertical tab
    '{"pub_id": "n", "source_id": 1, ' + _PUBLICATION_TAIL + '}{}\n',  # trailing garbage
    '\ufeff{"pub_id": "o", "source_id": 1, ' + _PUBLICATION_TAIL + '}\n',  # BOM
    '{"pub_id": "p", "pub_id": "q", "source_id": 1, ' + _PUBLICATION_TAIL + '}\n',  # duplicate keys
    '{"pub_id": "r", "source_id": 1, "sort_year": NaN, "load_date": "2015-01-10", "doc_type": "article", "is_article_in_press": false}\n',  # NaN where an int is expected
    '{"pub_id": "s", "source_id": Infinity, ' + _PUBLICATION_TAIL + '}\n',  # Infinity where an int is expected
    '{"pub_id": "t", "source_id": 1, "sort_year": true, "load_date": "2015-01-10", "doc_type": "article", "is_article_in_press": false}\n',  # true where an int is expected
    '{"pub_id": "u", "source_id": 1, "sort_year": 2017.0, "load_date": "2015-01-10", "doc_type": "article", "is_article_in_press": false}\n',  # 2017.0 where an int is expected
    '{"pub_id": "", "source_id": 1, ' + _PUBLICATION_TAIL + '}\n',  # empty id
    '{"pub_id": "v", "source_id": 1, "sort_year": 2015, "load_date": null, "doc_type": "article", "is_article_in_press": false}\n',  # null where a string is expected
    '{"pub_id": "w", "source_id": 1, "sort_year": 2015, "load_date": ["2015-01-10"], "doc_type": "article", "is_article_in_press": false}\n',  # an unhashable date
    '{"pub_id": "x", "source_id": 1, "sort_year": 2015, "load_date": "2015-01-10", "doc_type": ["article"], "is_article_in_press": false}\n',  # an unhashable doc_type
    '{"pub_id": "y", "source_id": 1, "sort_year": 2015, "load_date": "2015-01-10", "doc_type": "", "is_article_in_press": false}\n',  # an empty doc_type
    '{"pub_id": "z", "source_id": 1, "sort_year": 2015, "load_date": "2015-01-10", "doc_type": "article", "is_article_in_press": 0}\n',  # an integer is not a bool
    '{"pub_id": "aa", "source_id": 1, "sort_year": 2015, "load_date": "", "doc_type": "article", "is_article_in_press": false}\n',  # an empty date
    '{"pub_id": "ab", "source_id": 1, "sort_year": 2015, "load_date": "2015-01-10\\n", "doc_type": "article", "is_article_in_press": false}\n',  # the date pattern's $ matches before a newline
    '{"pub_id": "ac", "source_id": 2, "sort_year": 2016, "load_date": "2017-06-30", "doc_type": "article", "is_article_in_press": false}\n',
    '[]\n',  # not an object
    '"pub"\n',  # not an object
    '{"pub_id": "ad", "source_id": 2, "sort_year": 2017, "load_date": "2017-06-30", "doc_type": "article", "is_article_in_press": false} \r\n',  # trailing space, CR
    # The generator's form, read inline, and near misses of it, read by the checked parser.
    '{"doc_type":"conference-paper","is_article_in_press":false,"load_date":"2016-03-01","pub_id":"ae","sort_year":2016,"source_id":1}\n',  # generator form
    '{"doc_type":"short-survey","is_article_in_press":true,"load_date":"2018-02-28","pub_id":"af","sort_year":2018,"source_id":12}',  # generator form, a new date, no newline
    '{"doc_type":"article","is_article_in_press":false,"load_date":"2018-02-29","pub_id":"ag0","sort_year":2018,"source_id":1}\n',  # generator form, impossible date
    _GENERATOR_HEAD + '"pub_id":"a\\u0067","sort_year":2016,"source_id":1}\n',  # escaped id
    _GENERATOR_HEAD + '"pub_id":"a\\"h","sort_year":2016,"source_id":1}\n',  # escaped quote in an id
    _GENERATOR_HEAD + '"pub_id":"a\x01i","sort_year":2016,"source_id":1}\n',  # raw control character in an id
    _GENERATOR_HEAD + '"pub_id":"ai","sort_year":\u0662\u0660\u0661\u0666,"source_id":1}\n',  # Arabic-Indic digits
    _GENERATOR_HEAD + '"pub_id":"ai","sort_year":201\u0666,"source_id":1}\n',  # an Arabic-Indic digit after ASCII ones
    _GENERATOR_HEAD + '"pub_id":"ai","sort_year":02016,"source_id":1}\n',  # leading zero
    _GENERATOR_HEAD + '"pub_id":"ai","sort_year":1e3,"source_id":1}\n',  # exponent
    _GENERATOR_HEAD + '"pub_id":"ai","sort_year":2016.0,"source_id":1}\n',  # fraction
    _GENERATOR_HEAD + '"pub_id":"ai","sort_year":2016,"source_id":1234567890123456789}\n',  # 19 digits: an int, an unknown source
    _GENERATOR_HEAD + '"pub_id":"ai","sort_year":' + "9" * 5000 + ',"source_id":1}\n',  # integer too long
    _GENERATOR_HEAD + '"pub_id":"aj","sort_year":-0,"source_id":1} \r\n',  # -0, trailing space and CR
    _GENERATOR_HEAD + '"pub_id":"ak","sort_year":2016,"source_id":1}\x0c\n',  # trailing form feed
    '{"doc_type":"poem","is_article_in_press":false,"load_date":"2016-03-01","pub_id":"ak","sort_year":2016,"source_id":1}\n',  # unknown doc_type
    _GENERATOR_HEAD + '"pub\\u005fid":"ak","sort_year":2016,"source_id":1}\n',  # escaped key
    _GENERATOR_HEAD + '"pub_id":"al","source_id":1,"sort_year":2016}\n',  # two keys swapped
]

_GOLDEN_LINKS = [
    '{"citing_pub_id": "b", "cited_pub_id": "a"}\n',
    '{"cited_pub_id": "a", "citing_pub_id": "ac"}\n',  # keys reversed
    '   {"citing_pub_id": "ad", "cited_pub_id": "b"}\n',  # leading spaces
    '{"citing_pub_id": "ad", "cited_pub_id": "a"}\r\n',  # trailing CR
    '{"citing_pub_id": "ac", "cited_pub',  # bad_json
    '{"citing_pub_id": "b"}\n',  # missing_field
    '{"citing_pub_id": "b", "cited": "a"}\n',  # an unknown key in place of a known one
    '{"citing_pub_id": 5, "cited_pub_id": "a"}\n',  # bad_type
    '{"citing_pub_id": "a", "cited_pub_id": "a"}\n',  # self_citation
    '{"citing_pub_id": "b", "cited_pub_id": "ghost"}\n',  # dangling
    '{"citing_pub_id": "ghost", "cited_pub_id": "b"}\n',  # dangling citing end
    '{"citing_pub_id": "c", "cited_pub_id": "a"}\n',  # citing_aip
    '{"x_before": 1, "citing_pub_id": "d", "cited_pub_id": "a", "x_after": 2}\n',  # unknown_field
    '{"citing_pub_id": "b", "cited_pub_id": "a"}\n',  # duplicate: collapsed
    '{"citing_pub_id": "ac", "cited_pub_id": "b"}\x0c\n',  # trailing form feed
    '{"citing_pub_id": "ac", "cited_pub_id": "b"}\x0b\n',  # trailing vertical tab
    '{"citing_pub_id": "ac", "cited_pub_id": "b"} ,\n',  # trailing garbage
    '\ufeff{"citing_pub_id": "ac", "cited_pub_id": "b"}\n',  # BOM
    '{"citing_pub_id": "ac", "cited_pub_id": "x", "cited_pub_id": "b"}\n',  # duplicate keys
    '{"citing_pub_id": "", "cited_pub_id": "b"}\n',  # empty id
    '{"citing_pub_id": "ac", "cited_pub_id": true}\n',  # true where a string is expected
    '{"citing_pub_id": "ac", "cited_pub_id": NaN}\n',  # NaN where a string is expected
    '{"citing_pub_id": "ac", "cited_pub_id": null}\n',  # null where a string is expected
    '{"citing_pub_id": "d", "cited_pub_id": "c"}  \t\n',  # cites an article-in-press: fine
    '["b", "a"]\n',  # not an object
    '{"x_citing": "b", "x_cited": "a"}\n',  # two keys, both unknown
    '{"citing_pub_id": "c", "cited_pub_id": "a"}\n',  # citing_aip again: rejected again, never collapsed
    '{"citing_pub_id": "d", "cited_pub_id": "a"}\n',  # duplicate of the unknown_field line: collapsed
    '\n',  # blank: skipped, still numbered
    ' \x0c \n',  # whitespace only: skipped
    '{"citing_pub_id": "ad", "cited_pub_id": "d"}\n',  # accepted after the skipped lines
    '{"citing_pub_id": "b", "cited_pub_id": "ghost"}\n',  # dangling after the skipped lines
    # The generator's form, read inline, and near misses of it, read by the checked parser.
    '{"cited_pub_id":"a","citing_pub_id":"ae"}\n',  # generator form
    '{"cited_pub_id":"a","citing_pub_id":"a\\u0067"}\n',  # escaped id
    '{"cited_pub_id":"a\\"h","citing_pub_id":"ae"}\n',  # escaped quote in an id
    '{"cited_pub_id":"a\x01","citing_pub_id":"ae"}\n',  # raw control character in an id
    '{"cited_pub_id":"a","citing_pub_id":"ae"}',  # duplicate: collapsed, no newline
    '{"cited_pub_id":"af","citing_pub_id":"aj"}\r\n',  # cites an article-in-press: fine
    '{"cited_pub_id":"a","citing_pub_id":"af"}\n',  # citing_aip
    '{"citing_pub_id":"ae","cited_pub_id":"b"}\n',  # keys swapped
    '{"cited_pub_id":"","citing_pub_id":"ae"}\n',  # empty id
    '{"cited_pub_id":"b","citing_pub_id":"ae"} x\n',  # trailing garbage
]


def test_ingest_golden_lines():
    """Every rejection class of perfbench/inputs.DIRT_CLASSES plus the
    decoder's edge cases, through all three record kinds. The lines go to
    ingest as strings, so a trailing \\r reaches the decoder (text-mode file
    reading would have made it a line end). The expected warnings, counts
    and records are those of ingest with a plain json.loads per line."""
    index, report = ingest(_GOLDEN_SOURCES, _GOLDEN_PUBLICATIONS, _GOLDEN_LINKS)
    assert report.warnings == [
        'sources line 3: invalid JSON (Unterminated string starting at)',
        'sources line 4: expected an object',
        "sources line 5: missing field 'title'",
        "sources line 6: field 'source_id' must be an integer",
        "sources line 7: unknown source_type 'magazine'",
        'sources line 8: ASJC code 12 is not a 4-digit code',
        "sources line 9: ignoring unknown field 'x_before'",
        "sources line 9: ignoring unknown field 'x_after'",
        'sources line 12: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))',
        'sources line 13: invalid JSON (Extra data)',
        "sources line 14: field 'title' must be a non-empty string",
        "sources line 16: field 'source_id' must be an integer",
        "sources line 17: field 'asjc_codes' must be an integer",
        'sources line 18: asjc_codes must be a non-empty list',
        "sources line 19: field 'is_actively_indexed' must be a boolean",
        'sources line 20: invalid JSON (Extra data)',
        'source 16: predecessor_source_id 99 does not exist, pointer dropped',
        'publications line 7: invalid JSON (Unterminated string starting at)',
        "publications line 8: missing field 'load_date'",
        "publications line 9: field 'sort_year' must be an integer",
        "publications line 10: load_date '2015/01/10' is not YYYY-MM-DD",
        "publications line 11: load_date '2015-02-30': day is out of range for month",
        "publications line 12: load_date '2015-02-30': day is out of range for month",
        "publications line 13: unknown doc_type 'poem'",
        'publications line 14: unknown source_id 777, record rejected',
        "publications line 15: ignoring unknown field 'source'",
        "publications line 15: missing field 'source_id'",
        "publications line 16: ignoring unknown field 'x_before'",
        "publications line 16: ignoring unknown field 'x_after'",
        'publications line 17: invalid JSON (Extra data)',
        'publications line 18: invalid JSON (Extra data)',
        'publications line 19: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))',
        "publications line 21: field 'sort_year' must be an integer",
        "publications line 22: field 'source_id' must be an integer",
        "publications line 23: field 'sort_year' must be an integer",
        "publications line 24: field 'sort_year' must be an integer",
        "publications line 25: field 'pub_id' must be a non-empty string",
        "publications line 26: field 'load_date' must be a non-empty string",
        "publications line 27: field 'load_date' must be a non-empty string",
        "publications line 28: field 'doc_type' must be a non-empty string",
        "publications line 29: field 'doc_type' must be a non-empty string",
        "publications line 30: field 'is_article_in_press' must be a boolean",
        "publications line 31: field 'load_date' must be a non-empty string",
        "publications line 32: load_date '2015-01-10\\n': Invalid isoformat string: '2015-01-10\\n'",
        'publications line 34: expected an object',
        'publications line 35: expected an object',
        "publications line 39: load_date '2018-02-29': day is out of range for month",
        'publications line 42: invalid JSON (Invalid control character at)',
        'publications line 43: invalid JSON (Expecting value)',
        "publications line 44: invalid JSON (Expecting ',' delimiter)",
        "publications line 45: invalid JSON (Expecting ',' delimiter)",
        "publications line 46: field 'sort_year' must be an integer",
        "publications line 47: field 'sort_year' must be an integer",
        'publications line 48: unknown source_id 1234567890123456789, record rejected',
        'publications line 49: invalid JSON (integer too long)',
        'publications line 51: invalid JSON (Extra data)',
        "publications line 52: unknown doc_type 'poem'",
        'links line 5: invalid JSON (Unterminated string starting at)',
        "links line 6: missing field 'cited_pub_id'",
        "links line 7: ignoring unknown field 'cited'",
        "links line 7: missing field 'cited_pub_id'",
        "links line 8: field 'citing_pub_id' must be a non-empty string",
        "links line 9: publication cannot cite itself ('a')",
        "links line 10: dangling endpoint 'ghost', link rejected",
        "links line 11: dangling endpoint 'ghost', link rejected",
        "links line 12: citing publication 'c' is an article-in-press and cannot give citations, link rejected",
        "links line 13: ignoring unknown field 'x_before'",
        "links line 13: ignoring unknown field 'x_after'",
        'links line 15: invalid JSON (Extra data)',
        'links line 16: invalid JSON (Extra data)',
        'links line 17: invalid JSON (Extra data)',
        'links line 18: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))',
        "links line 20: field 'citing_pub_id' must be a non-empty string",
        "links line 21: field 'cited_pub_id' must be a non-empty string",
        "links line 22: field 'cited_pub_id' must be a non-empty string",
        "links line 23: field 'cited_pub_id' must be a non-empty string",
        'links line 25: expected an object',
        "links line 26: ignoring unknown field 'x_citing'",
        "links line 26: ignoring unknown field 'x_cited'",
        "links line 26: missing field 'citing_pub_id'",
        "links line 27: citing publication 'c' is an article-in-press and cannot give citations, link rejected",
        "links line 32: dangling endpoint 'ghost', link rejected",
        'links line 36: invalid JSON (Invalid control character at)',
        "links line 39: citing publication 'af' is an article-in-press and cannot give citations, link rejected",
        "links line 41: field 'cited_pub_id' must be a non-empty string",
        'links line 42: invalid JSON (Extra data)',
    ]
    assert report.counts() == {
        "sources_accepted": 6, "sources_rejected": 14,
        "publications_accepted": 15, "publications_rejected": 37,
        "links_accepted": 13, "links_rejected": 24, "links_collapsed": 3,
    }
    assert [
        (r.source_id, r.title, r.source_type, sorted(r.asjc_codes), r.is_actively_indexed, r.predecessor_source_id)
        for r in index.sources.values()
    ] == [
        (1, 'Alpha', 'journal', [1000, 1100], True, None),
        (2, 'Béta 😀', 'book-series', [2200], False, 1),
        (9, 'T', 'journal', [1000], True, None),
        (10, 'T', 'journal', [1000], True, None),
        (12, 'T', 'journal', [1000], True, None),
        (16, 'T', 'journal', [1000], True, None),
    ]
    publications, links = stored(index)
    assert [
        (r.pub_id, r.source_id, r.sort_year, r.load_date.isoformat(), r.is_article_in_press)
        for r in publications.values()
    ] == [
        ('a', 1, 2015, '2015-01-10', False),
        ('b', 2, 2016, '2016-03-01', False),
        ('c', 10, 2017, '2017-02-01', True),
        ('d', 12, 2015, '2015-01-10', False),
        ('l', 1, 2015, '2015-01-10', False),
        ('q', 1, 2015, '2015-01-10', False),
        ('ac', 2, 2016, '2017-06-30', False),
        ('ad', 2, 2017, '2017-06-30', False),
        ('ae', 1, 2016, '2016-03-01', False),
        ('af', 12, 2018, '2018-02-28', True),
        ('ag', 1, 2016, '2016-03-01', False),
        ('a"h', 1, 2016, '2016-03-01', False),
        ('aj', 1, 0, '2016-03-01', False),
        ('ak', 1, 2016, '2016-03-01', False),
        ('al', 1, 2016, '2016-03-01', False),
    ]
    assert links == [
        ("b", "a"), ("ac", "a"), ("ad", "b"), ("ad", "a"), ("d", "a"), ("ac", "b"), ("d", "c"), ("ad", "d"),
        ("ae", "a"), ("ag", "a"), ("ae", 'a"h'), ("aj", "af"), ("ae", "b"),
    ]


# Values a mutation puts in a field or an extra key.
_MUTANT_VALUES = [
    True, False, 0, 1, 2015, -1, 10**20, 2015.0, 1.5, float("nan"), float("inf"), None,
    [], ["article"], {}, {"doc_type": "article"}, "", "x", "a", "poem", "article",
    "2015-01-10", "2015-02-30", "2015/01/10", "2015-1-10", "2015-01-10\n", " 2015-01-10",
]


class _Text(str):
    """A key or value put into the line as it is, not through json.dumps."""


# Spellings json.dumps never writes, each near the canonical patterns, for a
# string field and for a number field: escapes, raw control characters and
# digits of other scripts; leading zeros, an exponent, a fraction, -0 and
# ints past the patterns' 18 digits, one of them past int()'s digit limit.
_MUTANT_STRINGS = [_Text(text) for text in [
    '"a\\"b"', '"\\u0070"', '"a\\u0063"', '"\\\\"', '"a\x01"', '"\x1f"', '"a\tb"', '"\x00"', '"\u0661"',
    '"2015-01-1\u0660"', '"\\u0032015-01-10"', '"artic\\u006ce"', "true", "null",
]]
_MUTANT_NUMBERS = [_Text(text) for text in [
    "\u0662\u0660\u0661\u0665", "201\u0665", "1\u0660", "02015", "00", "1e3", "2015.0", "-0", "-1",
    "123456789012345678", "1234567890123456789", "-1234567890123456789", "9" * 4400, "false",
]]
_MUTANT_KEYS = ["x", "source", "pub_id ", "citing", _Text('"pub\\u005fid"'), _Text('"cited_pub\\u005fid"')]
_LEADS = ["", "", "", " ", "\t", "\r", "\x0c", "\x0b", "\ufeff", "\u00a0"]
_TAILS = ["", "\n", "\n", "\n", " \r\n", "\t\n", "\x0c\n", "\x0b\n", "\ufeff\n", " x\n", "{}\n", ",\n"]
_ODD_LINES = ["\n", " \x0c \n", "", "[]\n", '"pub"\n', "null\n", "1\n", "{\n", '[{"pub_id": "a"}]\n', "{}\n"]
_GOLDEN_ACCEPTED_IDS = ["a", "b", "c", "d", "l", "q", "ac", "ad", "ae", "af", "ag", 'a"h', "aj", "ak", "al"]


def _object_text(items, compact):
    """A JSON object of (key, value) pairs, in order and with repeated keys;
    compact is the generator's spelling, with no spaces."""
    separators = (",", ":") if compact else (", ", ": ")

    def text(part):
        return part if isinstance(part, _Text) else json.dumps(part, separators=separators)

    return "{" + separators[0].join(text(key) + separators[1] + text(value) for key, value in items) + "}"


@st.composite
def _mutated_line(draw, items):
    """The object of items, in two draws of three in the generator's form
    (keys sorted, no spaces); in half the draws as it is, else with one to
    three mutations of its keys, values or spelling; padded, or now and then
    cut short or replaced by a line that is no such object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_ODD_LINES))
    compact = draw(st.integers(0, 2)) > 0
    items = sorted(items) if compact else list(items)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        mutation = draw(st.sampled_from(["value", "value", "text", "text", "drop", "extra", "repeat", "shuffle"]))
        if not items or mutation == "extra":
            key = draw(st.sampled_from(_MUTANT_KEYS))
            items.insert(draw(st.integers(0, len(items))), (key, draw(st.sampled_from(_MUTANT_VALUES))))
            continue
        i = draw(st.integers(0, len(items) - 1))
        if mutation == "value":
            items[i] = (items[i][0], draw(st.sampled_from(_MUTANT_VALUES)))
        elif mutation == "text":
            texts = _MUTANT_STRINGS if isinstance(items[i][1], str) else _MUTANT_NUMBERS
            items[i] = (items[i][0], draw(st.sampled_from(texts)))
        elif mutation == "drop":
            del items[i]
        elif mutation == "repeat":
            items.insert(draw(st.integers(0, len(items))), (items[i][0], draw(st.sampled_from(_MUTANT_VALUES))))
        else:
            items = draw(st.permutations(items))
    lead = draw(st.sampled_from(_LEADS)) if draw(st.booleans()) else ""
    tail = draw(st.sampled_from(_TAILS)) if draw(st.booleans()) else "\n"
    text = lead + _object_text(items, compact) + tail
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


# Source field values, clean (each read inline in the generator's form) and
# near the source pattern: titles that are empty, escaped, or hold a raw lone
# surrogate (or two, a pair split in code units); code lists that hold 999,
# 10000 or a leading zero, or are empty; predecessors that are null, 0,
# negative or dangling.
_ABSENT = object()
_SOURCE_FIELDS = {
    "title": (["T", _Text('"B\u00eata \u2603"')],
              ["", "B\u00eata", _Text('"a\\"b"'), _Text('"J \ud800 x"'), _Text('"\ud83d\ude00"'),
               _Text('"\\ud83d\\ude00"')]),
    "source_type": (["journal", "book-series"], ["standalone-book", "magazine"]),
    "asjc_codes": ([[1000], [1000, 2200], [2200, 1000, 2200]],
                   [[999], [10000], [], _Text("[1000,0100]"), [1000.0]]),
    "predecessor_source_id": ([_ABSENT, 9, 30, 31], [None, 0, -3, 99]),
}


def _source_field(draw, name):
    """A clean value of the field three draws in four, else a near one."""
    clean, near = _SOURCE_FIELDS[name]
    return draw(st.sampled_from(near if draw(st.integers(0, 3)) == 0 else clean))


@st.composite
def _mutated_streams(draw):
    """(source lines, publication lines, link lines) appended to the golden
    ones."""
    sources = []
    for i in range(draw(st.integers(0, 8))):
        items = [("source_id", draw(st.sampled_from([30 + i] * 6 + [0, -5, 31, 10**20])))]
        items += [(name, _source_field(draw, name)) for name in _SOURCE_FIELDS]
        items.append(("is_actively_indexed", draw(st.booleans())))
        sources.append(draw(_mutated_line([(key, value) for key, value in items if value is not _ABSENT])))
    pubs = []
    for i in range(draw(st.integers(0, 12))):
        pubs.append(draw(_mutated_line([
            ("pub_id", f"g{i}"),
            ("source_id", draw(st.sampled_from([1, 2, 10, 777]))),
            ("sort_year", draw(st.integers(2014, 2017))),
            ("load_date", draw(st.sampled_from(["2015-01-10", "2016-03-01", "2017-06-30", "2018-02-28", "2018-02-29"]))),
            ("doc_type", draw(st.sampled_from(["article", "review", "letter", "erratum"]))),
            ("is_article_in_press", draw(st.booleans())),
        ])))
    ids = st.sampled_from(_GOLDEN_ACCEPTED_IDS + [f"g{i}" for i in range(len(pubs))] + ["ghost"])
    links = []
    for _ in range(draw(st.integers(0, 16))):
        links.append(draw(_mutated_line([("citing_pub_id", draw(ids)), ("cited_pub_id", draw(ids))])))
    return sources, pubs, links


def _force_checked_parsers(patch):
    """Patch the three kinds' patterns so that every line is a catch-all row."""
    for name, canonical in [("_SOURCE_LINE", index_module._SOURCE_CANONICAL),
                            ("_PUBLICATION_LINE", index_module._PUBLICATION_CANONICAL),
                            ("_LINK_LINE", index_module._LINK_CANONICAL)]:
        patch.setattr(index_module, name, index_module._block_pattern("(?!)" + canonical))


def _ingest_outcome(sources, pubs, links):
    """Everything ingest gives for the golden lines and these: its error
    message, or the sources, records, link columns, counts and warnings."""
    try:
        index, report = ingest(_GOLDEN_SOURCES + sources, _GOLDEN_PUBLICATIONS + pubs, _GOLDEN_LINKS + links)
    except IngestError as exc:
        return str(exc)
    store = index._store
    records = list(stored(index)[0].values())
    return dict(index.sources), records, list(store.citing), list(store.cited), report.counts(), report.warnings


@settings(max_examples=200, deadline=None)
@given(_mutated_streams())
@example(streams=([], [], []))
@example(streams=(_CANONICAL_SOURCE_EDGES + [
    # The generator's form with a raw lone surrogate, an escape or a null.
    '{"asjc_codes":[1000],"is_actively_indexed":true,"source_id":40,"source_type":"journal","title":"J \ud800 x"}\n',
    '{"asjc_codes":[1000],"is_actively_indexed":true,"source_id":41,"source_type":"journal","title":"J \\u00e9"}\n',
    '{"asjc_codes":[1000],"is_actively_indexed":true,"predecessor_source_id":null,"source_id":42,"source_type":"journal","title":"J"}\n',
], [], []))
def test_inline_reading_equals_checked_parsers(streams):
    """Ingest as it is equals ingest with every line through the checked
    parsers: the inline canonical-line path decides nothing they would
    decide otherwise."""
    with pytest.MonkeyPatch.context() as patch:
        # Patterns whose canonical alternative matches no line.
        _force_checked_parsers(patch)
        checked = _ingest_outcome(*streams)
    assert _ingest_outcome(*streams) == checked


def _columns_outcome(index, report):
    """The sources, every store column, counts and warnings of one ingest."""
    store = index._store
    columns = [store.pub_ids, store.source_ids, store.sort_years, store.load_days, store.in_press,
               store.citing, store.cited]
    return dict(index.sources), [list(column) for column in columns], report.counts(), report.warnings


def _generated_pub(i, source_id=1):
    return canonical_line({
        "pub_id": f"z{i}", "source_id": source_id, "sort_year": 2015 + i % 3, "load_date": f"2016-0{1 + i % 9}-1{i % 10}",
        "doc_type": ["article", "review", "letter"][i % 3], "is_article_in_press": i % 7 == 0,
    })


def _generated_link(citing, cited):
    return canonical_line({"citing_pub_id": citing, "cited_pub_id": cited})


def _generated_source(i):
    """Source 100 + i; each odd one renames the one before it."""
    return canonical_line({
        "source_id": 100 + i, "title": f"Generated {i}", "source_type": "journal",
        "asjc_codes": [1000 + 100 * (i % 3)], "is_actively_indexed": i % 4 != 0,
        **({"predecessor_source_id": 99 + i} if i % 2 else {}),
    })


@pytest.mark.parametrize("block_chars", [1, 7, 64, 300])
def test_block_reading_equals_line_items(tmp_path, monkeypatch, block_chars):
    """load_index reads each file a block of text at a time. With blocks far
    smaller than the files, so that the golden dirty lines straddle block
    edges, it gives the sources, columns, counts and warnings (text and
    order) of ingest over the same files' readlines(). The links file has
    no final newline; the raw \r of the golden lines stay in the files,
    where text mode reads them as line ends."""
    sources = []
    for i, line in enumerate(_GOLDEN_SOURCES):
        sources += [_generated_source(i) + "\n", line]
    pubs = []
    for i, line in enumerate(_GOLDEN_PUBLICATIONS):
        pubs += [_generated_pub(i) + "\n", line]
    links = []
    for i, line in enumerate(_GOLDEN_LINKS):
        links += [_generated_link(f"z{i + 1}", f"z{i}") + "\n", line]
    links += [_generated_link("z1", "a") + "\n", _generated_link("z2", "ghost")]
    paths = []
    for name, lines in [("sources", sources), ("publications", pubs), ("links", links)]:
        path = tmp_path / f"{name}.jsonl"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
        paths.append(path)
    assert not links[-1].endswith("\n") and all(p.stat().st_size > 10 * block_chars for p in paths)

    def readlines(path):
        with open(path, encoding="utf-8") as handle:
            return handle.readlines()

    expected = _columns_outcome(*ingest(*map(readlines, paths)))
    assert expected[2]["sources_accepted"] > len(_GOLDEN_SOURCES)
    assert expected[2]["publications_accepted"] > len(_GOLDEN_PUBLICATIONS)
    assert expected[3][-1] == f"links line {len(readlines(paths[2]))}: dangling endpoint 'ghost', link rejected"
    monkeypatch.setattr(index_module, "_BLOCK_CHARS", block_chars)
    assert _columns_outcome(*load_index(*paths)) == expected



@pytest.mark.parametrize("kind", ["sources", "publications", "links"])
def test_undecodable_line_is_named_as_ingest_numbers_it(tmp_path, kind):
    """A file that is not UTF-8 fails the load with an IngestError that
    names the first undecodable line of the first such file in ingest order.
    The line has the number a warning about it would carry: \r\n, a lone
    \r and \n each end one line."""
    files = {
        "sources": [source_line(1)],
        "publications": [pub_line("a", 1, 2015), pub_line("b", 1, 2016)],
        "links": [link_line("b", "a")],
    }

    def load(last_line):
        """load_index over the files, each its lines joined by \r\n, then a
        blank line, then last_line in this kind's file and every later one."""
        paths, later = [], False
        for name, lines in files.items():
            later = later or name == kind
            path = tmp_path / f"{name}.jsonl"
            path.write_bytes("\r\n".join(lines).encode() + b"\r\r\n" + (last_line if later else b""))
            paths.append(path)
        return load_index(*paths)

    number = len(files[kind]) + 2
    _, report = load(b"{x}\n")
    assert f"{kind} line {number}: invalid JSON (Expecting property name enclosed in double quotes)" in report.warnings
    with pytest.raises(IngestError) as failure:
        load(b'{"\xc3(": 1}\n')
    assert str(failure.value) == (
        f"{kind} line {number}: not valid UTF-8 (byte 0xc3 at offset 2: invalid continuation byte)"
    )

def test_line_items_other_than_one_ended_line():
    """Each item ingest gets is one numbered line, with or without its
    newline, even when it holds a lone \r or an inner newline; an item that
    is not one line ending in its only newline goes whole to the checked
    parser, which decides it as it decides any line."""
    pub = [_generated_pub(i) for i in range(8)]
    pubs = [
        pub[0] + "\n",
        pub[1],  # no newline: accepted
        pub[2] + "\r",  # a lone \r: accepted
        pub[3] + "\n" + pub[4] + "\n",  # an inner newline: one line, extra data
        "\r",  # blank
        "",  # blank
        pub[5] + "\r\n",
        pub[6] + "\r" + pub[7] + "\n",  # a \r inside: extra data
        "{bad\n",
        pub[7] + "\n",
        '{"pub_id": "z8\n',  # the checked parser sees the newline: a control character, not an unterminated string
    ]
    links = [
        _generated_link("z1", "z0") + "\n",
        _generated_link("z2", "z0"),
        _generated_link("z2", "z1") + "\r",
        _generated_link("z5", "z0") + "\n" + _generated_link("z5", "z1") + "\n",
        "",
        _generated_link("z7", "ghost") + "\n",
        _generated_link("z5", "z1") + "\r\n",
        _generated_link("z1", "z0") + "\n",
    ]
    outcome = _columns_outcome(*ingest([source_line(1)], pubs, links))
    assert outcome[1][0] == ["z0", "z1", "z2", "z5", "z7"]
    assert outcome[1][5:] == [[1, 2, 2, 3], [0, 0, 1, 1]]
    assert outcome[2] == {
        "sources_accepted": 1, "sources_rejected": 0,
        "publications_accepted": 5, "publications_rejected": 4,
        "links_accepted": 4, "links_rejected": 2, "links_collapsed": 1,
    }
    assert outcome[3] == [
        "publications line 4: invalid JSON (Extra data)",
        "publications line 8: invalid JSON (Extra data)",
        "publications line 9: invalid JSON (Expecting property name enclosed in double quotes)",
        "publications line 11: invalid JSON (Invalid control character at)",
        "links line 4: invalid JSON (Extra data)",
        "links line 6: dangling endpoint 'ghost', link rejected",
    ]
    with pytest.MonkeyPatch.context() as patch:
        _force_checked_parsers(patch)
        assert _columns_outcome(*ingest([source_line(1)], pubs, links)) == outcome


def test_snapshot_cutoff_is_inclusive():
    cutoff = date(2017, 5, 31)
    pubs = [
        pub_line("on-cutoff", 1, 2016, load_date="2017-05-31"),
        pub_line("after", 1, 2016, load_date="2017-06-01"),
    ]
    index, _ = ingest([source_line(1)], pubs, [])
    view = snapshot(index, cutoff)
    assert set(stored(view)[0]) == {"on-cutoff"}


def test_snapshot_views_differ_across_annual_cutoffs():
    # The 2016 build cuts at 2017-05-31, the 2017 build at 2018-04-30.
    pubs = [
        pub_line("early", 1, 2016, load_date="2016-07-01"),
        pub_line("late", 1, 2016, load_date="2017-09-15"),
    ]
    index, _ = ingest([source_line(1)], pubs, [])
    view_2016 = snapshot(index, date(2017, 5, 31))
    view_2017 = snapshot(index, date(2018, 4, 30))
    assert set(stored(view_2016)[0]) == {"early"}
    assert set(stored(view_2017)[0]) == {"early", "late"}


def test_snapshot_filters_match_brute_force():
    rng = random.Random(913)
    cutoff = date(2017, 5, 31)
    pubs = []
    for i in range(100):
        late = i < 40
        day = cutoff + timedelta(days=rng.randint(1, 300)) if late \
            else cutoff - timedelta(days=rng.randint(0, 300))
        pubs.append(pub_line(f"p{i}", 1, 2015, load_date=day.isoformat()))
    links = [link_line(f"p{i}", f"p{i + 40}") for i in range(35, 40)]  # one late endpoint
    links += [link_line(f"p{i}", f"p{i + 1}") for i in range(50, 70)]  # both early
    index, report = ingest([source_line(1)], pubs, links)
    view = snapshot(index, cutoff)

    reference = reference_records([source_line(1)], pubs, links)
    expected_pubs = {p for p, record in reference.publications.items() if record.load_date <= cutoff}
    expected_links = [
        (citing, cited) for citing, cited in reference.links
        if citing in expected_pubs and cited in expected_pubs
    ]
    publications, links = stored(view)
    assert len(publications) == 60
    assert set(publications) == expected_pubs
    assert links == expected_links
    assert view.link_count == 20


@pytest.mark.parametrize("seed", [41, 42])
def test_views_equal_brute_force_filter(tmp_path, seed):
    index, reference, _empty, cutoffs = differential_index(tmp_path, seed)
    views = [(cutoff, snapshot(index, cutoff)) for cutoff in cutoffs]
    # Nested views narrow to the earlier of the two cutoffs, whichever is given first.
    for outer, inner in ((cutoffs[5], cutoffs[2]), (cutoffs[2], cutoffs[5]), (cutoffs[-2], cutoffs[0])):
        views.append((min(outer, inner), snapshot(snapshot(index, outer), inner)))
    for cutoff, view in views:
        publications, links = brute_force_view(reference, cutoff)
        assert view.cutoff == cutoff
        assert list(stored(view)[0].items()) == list(publications.items())
        assert stored(view)[1] == links
        assert list(view.links) == links
        assert view.link_count == len(links)
        assert view.sort_year_counts == Counter(record.sort_year for record in publications.values())
        assert view.sources is index.sources
    assert not stored(snapshot(index, cutoffs[0]))[0]
    # On or after the last load a view holds every record and link of the full index.
    for cutoff in cutoffs[-3:]:
        assert stored(snapshot(index, cutoff)) == stored(index)
        assert snapshot(index, cutoff).links == index.links


def test_snapshot_determinism_and_byte_identical_metrics(tmp_path):
    cfg = CorpusConfig(seed=5, n_journals=10, rename_probability=0.4)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    first = snapshot(index, date(2018, 5, 31))
    second = snapshot(index, date(2018, 5, 31))
    assert stored(first) == stored(second)
    assert dict(first.sources) == dict(second.sources)

    outputs = []
    for tag, view in (("a", first), ("b", second)):
        rows, standings = compute_annual(view, 2017)
        m = write_metrics_csv(tmp_path / f"m_{tag}.csv", rows, view.sources)
        s = write_standings_csv(tmp_path / f"s_{tag}.csv", standings)
        outputs.append((m.read_bytes(), s.read_bytes()))
    assert outputs[0] == outputs[1]


def test_snapshot_monotonicity_in_cutoff(tmp_path):
    cfg = CorpusConfig(seed=17, n_journals=8)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    rng = random.Random(4)
    for _ in range(10):
        d1 = date(2013, 1, 1) + timedelta(days=rng.randint(0, 2000))
        d2 = d1 + timedelta(days=rng.randint(0, 1000))
        early, late = snapshot(index, d1), snapshot(index, d2)
        (early_pubs, early_links), (late_pubs, late_links) = stored(early), stored(late)
        assert set(early_pubs) <= set(late_pubs)
        assert set(early_links) <= set(late_links)


def test_snapshot_link_closure(tmp_path):
    cfg = CorpusConfig(seed=23, n_journals=8)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    view = snapshot(index, date(2016, 2, 1))
    publications = stored(view)[0]
    for citing, cited in view.links:
        assert citing in publications
        assert cited in publications


def test_resolve_chain_identity_without_predecessor():
    index, _ = ingest([source_line(5)], [], [])
    assert index.resolve_title_chain(5) == {5}
    assert index.is_chain_terminal(5)


def test_resolve_chain_transitive_closure():
    sources = [
        source_line(1, title="A"),
        source_line(2, title="B", predecessor=1),
        source_line(3, title="C", predecessor=2),
    ]
    index, _ = ingest(sources, [], [])
    assert index.resolve_title_chain(3) == {1, 2, 3}
    assert index.resolve_title_chain(2) == {1, 2}
    assert index.resolve_title_chain(1) == {1}
    assert index.is_chain_terminal(3)
    assert not index.is_chain_terminal(2)
    with pytest.raises(KeyError):
        index.resolve_title_chain(99)


def test_predecessor_cycle_is_hard_error():
    sources = [source_line(1, predecessor=2), source_line(2, predecessor=1)]
    with pytest.raises(IngestError, match="cycle"):
        ingest(sources, [], [])


def test_shared_predecessor_is_hard_error():
    sources = [source_line(1), source_line(2, predecessor=1), source_line(3, predecessor=1)]
    with pytest.raises(IngestError, match="share predecessor"):
        ingest(sources, [], [])


def test_dangling_predecessor_pointer_dropped():
    index, report = ingest([source_line(2, predecessor=77)], [], [])
    assert index.sources[2].predecessor_source_id is None
    assert any("predecessor_source_id 77" in w for w in report.warnings)


def test_title_chains_partition_all_sources(tmp_path):
    cfg = CorpusConfig(seed=31, n_journals=20, rename_probability=0.5)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    terminals = [sid for sid in index.sources if index.is_chain_terminal(sid)]
    covered: list[int] = []
    for sid in terminals:
        covered.extend(index.resolve_title_chain(sid))
    assert sorted(covered) == sorted(index.sources)
