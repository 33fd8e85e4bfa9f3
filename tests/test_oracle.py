"""The brute-force oracle on hand-checkable corpora, plus a differential
smoke test against the engine (the full sweep lives in the acceptance suite)."""

from __future__ import annotations

import gc
import json
import tracemalloc
from datetime import date

import pytest

from citescore import (
    CorpusConfig,
    IngestError,
    compute_annual,
    generate_corpus,
    load_index,
    snapshot,
)
from citescore.oracle import OracleDataError, oracle_metrics
from citescore.output import write_metrics_csv, write_standings_csv

from helpers import link_line, pub_line, source_line, write_corpus
from test_index import _GOLDEN_LINKS, _GOLDEN_PUBLICATIONS, _GOLDEN_SOURCES

CUTOFF = date(2018, 4, 30)


def test_single_journal_category_standings(tmp_path):
    sources = [source_line(1, title="Solo Journal")]
    pubs = [pub_line("d0", 1, 2015), pub_line("c0", 1, 2017)]
    links = [link_line("c0", "d0")]
    s, p, l = write_corpus(tmp_path, sources, pubs, links)
    metrics_path, standings_path = oracle_metrics(s, p, l, 2017, CUTOFF, tmp_path / "out")
    metrics = metrics_path.read_text().splitlines()
    standings = standings_path.read_text().splitlines()
    assert metrics[1] == "1,Solo Journal,2017,1.00,1,1,100"
    assert standings[1] == "1,1000,1,1,50,2"  # rank 1 of 1, percentile 50, quartile 2


def test_empty_links_give_zero_scores(tmp_path):
    sources = [source_line(1), source_line(2)]
    pubs = [pub_line(f"d{sid}", sid, 2016) for sid in (1, 2)]
    s, p, l = write_corpus(tmp_path, sources, pubs, [])
    metrics_path, _ = oracle_metrics(s, p, l, 2017, CUTOFF, tmp_path / "out")
    lines = metrics_path.read_text().splitlines()[1:]
    assert len(lines) == 2
    for line in lines:
        fields = line.split(",")
        assert fields[3] == "0.00" and fields[6] == "0"


def test_oracle_matches_engine_including_awkward_titles(tmp_path):
    # Titles with commas and quotes must round-trip identically through both
    # writers; chains and AIP records exercised too.
    sources = [
        source_line(1, title='Annals of "Tricky, Quoted" Data', asjc=(1000, 1100)),
        source_line(2, title="Old Name", asjc=(1000,), predecessor=7),
        source_line(3, title="New Name", asjc=(1000,), predecessor=2),
        source_line(4, title="Inactive", active=False),
        source_line(5, title="Standalone", source_type="standalone-book"),
        # Chain 7 -> 2 -> 3: the dormant former identities must not affect
        # the terminal title's eligibility.
        source_line(7, title="Oldest Name", asjc=(1000,), active=False,
                    source_type="trade-journal"),
    ]
    pubs = [
        pub_line("a1", 1, 2014), pub_line("a2", 1, 2015, aip=True), pub_line("a3", 1, 2016),
        pub_line("b1", 2, 2014), pub_line("b2", 3, 2016), pub_line("f1", 7, 2014),
        pub_line("c1", 1, 2017), pub_line("c2", 3, 2017), pub_line("c3", 4, 2017),
        pub_line("d1", 4, 2015), pub_line("e1", 5, 2015),
        pub_line("late", 1, 2016, load_date="2018-06-01"),
    ]
    links = [
        link_line("c1", "a3"), link_line("c2", "a3"), link_line("c3", "a1"),
        link_line("c1", "b1"), link_line("c2", "b2"), link_line("c3", "b2"),
        link_line("c1", "a2"),  # cited AIP never counts
        link_line("c1", "d1"), link_line("c2", "e1"),
        link_line("c3", "late"),  # cited pub loads after the cutoff
    ]
    s, p, l = write_corpus(tmp_path, sources, pubs, links)

    index, _ = load_index(s, p, l)
    view = snapshot(index, CUTOFF)
    rows, standings = compute_annual(view, 2017)
    engine_metrics = write_metrics_csv(tmp_path / "em.csv", rows, view.sources)
    engine_standings = write_standings_csv(tmp_path / "es.csv", standings)

    oracle_metrics_path, oracle_standings_path = oracle_metrics(
        s, p, l, 2017, CUTOFF, tmp_path / "oracle"
    )
    assert engine_metrics.read_bytes() == oracle_metrics_path.read_bytes()
    assert engine_standings.read_bytes() == oracle_standings_path.read_bytes()

    by_id = {line.split(",")[0]: line for line in
             engine_metrics.read_text().splitlines()[1:]}
    # Chain 7->2->3: documents f1+b1+b2; citations c1->b1, c2->b2 (a
    # self-citation), and c3->b2 (from an inactive source; the citing side
    # is unrestricted).
    assert by_id["3"].endswith("2017,1.00,3,3,67")
    # Inactive and stand-alone sources receive no rows.
    assert set(by_id) == {"1", "3"}


def test_oracle_differential_on_generated_corpus(tmp_path):
    cfg = CorpusConfig(seed=600, n_journals=25, rename_probability=0.3, aip_fraction=0.3)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    view = snapshot(index, CUTOFF)
    rows, standings = compute_annual(view, 2017)
    engine_metrics = write_metrics_csv(tmp_path / "em.csv", rows, view.sources)
    engine_standings = write_standings_csv(tmp_path / "es.csv", standings)
    om, os_ = oracle_metrics(
        paths.sources_path, paths.publications_path, paths.links_path,
        2017, CUTOFF, tmp_path / "oracle",
    )
    assert engine_metrics.read_bytes() == om.read_bytes()
    assert engine_standings.read_bytes() == os_.read_bytes()


def test_all_tied_scores_share_rank_one_and_percentile_fifty(tmp_path):
    # citation_rate=0 gives every journal a 0.00 score: a full-category tie.
    cfg = CorpusConfig(seed=610, n_journals=12, citation_rate=0.0, n_categories=2)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    view = snapshot(index, CUTOFF)
    rows, standings = compute_annual(view, 2017)
    assert rows and all(str(r.citescore) == "0.00" for r in rows)
    assert standings and all(
        (s.rank, s.percentile, s.quartile) == (1, 50, 2) for s in standings
    )
    em = write_metrics_csv(tmp_path / "em.csv", rows, view.sources)
    es = write_standings_csv(tmp_path / "es.csv", standings)
    om, os_ = oracle_metrics(
        paths.sources_path, paths.publications_path, paths.links_path,
        2017, CUTOFF, tmp_path / "oracle",
    )
    assert em.read_bytes() == om.read_bytes()
    assert es.read_bytes() == os_.read_bytes()


def test_oracle_matches_engine_on_dirty_corpus(tmp_path):
    """Both sides apply the same rejection rules, so injected junk must not
    make them disagree."""
    import random

    cfg = CorpusConfig(seed=601, n_journals=15, rename_probability=0.3, aip_fraction=0.3)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    rng = random.Random(314)

    sources = paths.sources_path.read_text().splitlines()
    pubs = paths.publications_path.read_text().splitlines()
    links = paths.links_path.read_text().splitlines()
    pub_ids = [line.split('"pub_id":"', 1)[1].split('"', 1)[0] for line in pubs]

    sources += [
        "{broken json",
        source_line(90001, title="Ångström Jøurnal … 中文", asjc=(1400,)),
        source_line(90002, asjc=()),                       # empty categories
        source_line(90003, source_type="zine"),            # unknown type
        '{"source_id": 90004, "title": "No type"}',        # missing fields
        source_line(90005, asjc=(99,)),                    # not a 4-digit code
        source_line(90006, extra_field="ignored"),
    ]
    pubs += [
        "not even close",
        pub_line("dirty1", 90001, 2015),
        pub_line("dirty2", 90001, 2016, doc_type="poem"),  # bad doc type
        pub_line("dirty3", 424242, 2016),                  # unknown source
        pub_line("dirty4", 90001, 2016, load_date="2016-02-30"),
        pub_line("dirty5", 90006, 2015, aip=True),
        pub_line("citer", 90001, 2017),
    ]
    links += [
        "][",
        link_line("citer", "dirty1"),
        link_line("citer", "dirty1"),          # duplicate pair collapses
        link_line("citer", "citer"),           # self-citation
        link_line("citer", "ghost"),           # dangling
        link_line("dirty5", "dirty1"),         # article-in-press cannot cite
        '{"citing_pub_id": "citer"}',          # missing endpoint
        link_line("citer", "dirty5"),          # cited AIP: accepted, never counted
    ]
    for lines in (sources, pubs, links):
        rng.shuffle(lines)

    dirty = tmp_path / "dirty"
    dirty.mkdir()
    s = dirty / "sources.jsonl"
    p = dirty / "publications.jsonl"
    l = dirty / "links.jsonl"
    s.write_text("\n".join(sources) + "\n")
    p.write_text("\n".join(pubs) + "\n")
    l.write_text("\n".join(links) + "\n")

    for year in (2017, 2015, 1999):
        index, report = load_index(s, p, l)
        assert report.counts()["sources_rejected"] == 5
        assert report.counts()["publications_rejected"] == 4
        assert report.counts()["links_rejected"] == 5
        assert report.counts()["links_collapsed"] == 1
        view = snapshot(index, CUTOFF)
        rows, standings = compute_annual(view, year)
        em = write_metrics_csv(tmp_path / f"em{year}.csv", rows, view.sources)
        es = write_standings_csv(tmp_path / f"es{year}.csv", standings)
        om, os_ = oracle_metrics(s, p, l, year, CUTOFF, tmp_path / f"oracle{year}")
        assert em.read_bytes() == om.read_bytes()
        assert es.read_bytes() == os_.read_bytes()

    wild = next(line for line in (tmp_path / "em2017.csv").read_text().splitlines()
                if line.startswith("90001,"))
    assert "Ångström" in wild


def test_oracle_matches_engine_on_the_golden_ingest_lines(tmp_path):
    """The golden lines of test_index (every rejection class of the engine's
    ingest, the decoder's edge cases, renames and articles-in-press; a raw
    \r in a line is a line end to both sides), plus a source whose
    predecessor is a string and one whose title escapes a lone surrogate,
    each with a publication: engine and oracle write the same bytes at
    every year and cutoff, the edges of the golden load dates among them."""
    tail = '"source_type": "journal", "asjc_codes": [1000], "is_actively_indexed": true}'
    sources = _GOLDEN_SOURCES + ['{"source_id": 30, "predecessor_source_id": "1", "title": "T", ' + tail,
                                 '{"source_id": 31, "title": "T\\udc00", ' + tail]
    pubs = _GOLDEN_PUBLICATIONS + [pub_line("s30", 30, 2016), pub_line("s31", 31, 2016)]
    paths = write_corpus(tmp_path, sources, pubs, _GOLDEN_LINKS)
    index, _ = load_index(*paths)
    cutoffs = [date(2015, 1, 9), date(2015, 1, 10), date(2016, 3, 1), date(2017, 6, 29), date(2017, 6, 30),
               date(2018, 2, 28), date(2018, 4, 30), date.max]
    scored = 0
    for year in (1, 2015, 2016, 2017, 2018, 2019):
        for cutoff in cutoffs:
            out = tmp_path / f"{year}-{cutoff}"
            oracle = [path.read_bytes() for path in oracle_metrics(*paths, year, cutoff, out)]
            view = snapshot(index, cutoff)
            rows, standings = compute_annual(view, year)
            engine = [write_metrics_csv(out / "em.csv", rows, view.sources).read_bytes(),
                      write_standings_csv(out / "es.csv", standings).read_bytes()]
            assert engine == oracle, (year, cutoff)
            scored += len(rows)
    assert scored > 20


@pytest.mark.parametrize("sources, pubs", [
    pytest.param([source_line(1), source_line(2), source_line(1, title="Again")],
                 [pub_line("a", 1, 2016)], id="duplicate-source-id"),
    pytest.param([source_line(1)], [pub_line("a", 1, 2016), pub_line("a", 1, 2015)], id="duplicate-pub-id"),
    pytest.param([source_line(1), source_line(2, predecessor=1), source_line(3, predecessor=1)],
                 [pub_line("a", 1, 2016)], id="shared-predecessor"),
    pytest.param([source_line(1, predecessor=3), source_line(2, predecessor=1), source_line(3, predecessor=2)],
                 [pub_line("a", 1, 2016)], id="cycle"),
    pytest.param([source_line(1), source_line(2, predecessor=3), source_line(3, predecessor=2)],
                 [pub_line("a", 1, 2016)], id="cycle-without-publications"),
    pytest.param([source_line(1, predecessor=1)], [], id="self-predecessor"),
])
def test_engine_and_oracle_fail_alike(tmp_path, sources, pubs):
    """Duplicate source or publication ids and corrupt title chains stop both
    sides, whether or not the sources on a chain hold publications."""
    paths = write_corpus(tmp_path, sources, pubs, [])
    with pytest.raises(IngestError):
        load_index(*paths)
    with pytest.raises(OracleDataError):
        oracle_metrics(*paths, 2017, CUTOFF, tmp_path / "oracle")


def test_oracle_holds_no_file_of_decoded_objects(tmp_path):
    """The oracle decodes each line as it reads it: its peak stays under what
    the publications file's decoded objects alone cost when held at once."""
    paths = generate_corpus(CorpusConfig(seed=7, n_journals=60), tmp_path / "corpus")
    tracemalloc.start()
    try:
        with open(paths.publications_path, encoding="utf-8") as handle:
            decoded = [json.loads(line) for line in handle]
        held = tracemalloc.get_traced_memory()[0]
        del decoded
        tracemalloc.reset_peak()
        oracle_metrics(
            paths.sources_path, paths.publications_path, paths.links_path,
            2017, CUTOFF, tmp_path / "oracle",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held


def _traced_oracle_peak(tmp_path, citation_rate, links=True):
    """The oracle's traced peak on a near-cap-shaped corpus with this
    citation rate, or with an empty links file in place of the corpus's
    when links is false, and the engine's ingest report of that corpus."""
    cfg = CorpusConfig(seed=11, n_journals=60, pubs_per_year_mean=13.5, citation_rate=citation_rate,
                       aip_fraction=0.2, rename_probability=0.15, n_categories=10)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    _, report = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    links_path = paths.links_path
    if not links:
        links_path = tmp_path / "no_links.jsonl"
        links_path.write_text("")
    gc.collect()
    tracemalloc.start()
    try:
        oracle_metrics(paths.sources_path, paths.publications_path, links_path, 2017, CUTOFF, tmp_path / "oracle")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_oracle_link_pairs_share_the_publication_ids(tmp_path):
    """The oracle keeps only the links it counts (a citing publication of the
    year, a cited in-window document, neither in press), each as a pair of
    the id strings it already keeps for its publications, not two more
    decoded from the link line: on a near-cap-shaped corpus the traced peak
    is about 85 bytes per accepted link, against about 101 with fresh
    strings in every pair and about 200 with every accepted link kept."""
    report, peak = _traced_oracle_peak(tmp_path, 6.2)
    assert report.links_accepted > 20_000
    assert peak < 92 * report.links_accepted


def test_oracle_keeps_each_publication_as_a_tuple(tmp_path):
    """Each accepted publication is one 4-tuple, not a 4-key dict: with an
    empty links file, so that the peak holds publications and no link, the
    traced peak is about 335 bytes per accepted publication, against about
    437 with a dict per publication."""
    report, peak = _traced_oracle_peak(tmp_path, 0.5, links=False)
    assert report.publications_accepted > 5_000
    assert peak < 385 * report.publications_accepted
