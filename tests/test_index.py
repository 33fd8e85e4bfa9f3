"""Ingestion, snapshots, and title-chain resolution."""

from __future__ import annotations

import random
from datetime import date, timedelta

import pytest

from citescore import (
    CorpusConfig,
    IngestError,
    compute_annual,
    generate_corpus,
    ingest,
    load_index,
    snapshot,
)
from citescore.output import write_metrics_csv, write_standings_csv

from helpers import brute_force_view, build_index, differential_index, link_line, pub_line, source_line


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
    assert len(index.links) == 12


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
    assert set(index.publications) == {"ok"}


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


def test_snapshot_cutoff_is_inclusive():
    cutoff = date(2017, 5, 31)
    pubs = [
        pub_line("on-cutoff", 1, 2016, load_date="2017-05-31"),
        pub_line("after", 1, 2016, load_date="2017-06-01"),
    ]
    index, _ = ingest([source_line(1)], pubs, [])
    view = snapshot(index, cutoff)
    assert set(view.publications) == {"on-cutoff"}


def test_snapshot_views_differ_across_annual_cutoffs():
    # The 2016 build cuts at 2017-05-31, the 2017 build at 2018-04-30.
    pubs = [
        pub_line("early", 1, 2016, load_date="2016-07-01"),
        pub_line("late", 1, 2016, load_date="2017-09-15"),
    ]
    index, _ = ingest([source_line(1)], pubs, [])
    view_2016 = snapshot(index, date(2017, 5, 31))
    view_2017 = snapshot(index, date(2018, 4, 30))
    assert set(view_2016.publications) == {"early"}
    assert set(view_2017.publications) == {"early", "late"}


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

    expected_pubs = {p for p in index.publications if index.publications[p].load_date <= cutoff}
    expected_links = [
        l for l in index.links
        if l.citing_pub_id in expected_pubs and l.cited_pub_id in expected_pubs
    ]
    assert len(view.publications) == 60
    assert set(view.publications) == expected_pubs
    assert list(view.links) == expected_links
    assert len(view.links) == 20


@pytest.mark.parametrize("seed", [41, 42])
def test_views_equal_brute_force_filter(tmp_path, seed):
    index, _empty, cutoffs = differential_index(tmp_path, seed)
    views = [(cutoff, snapshot(index, cutoff)) for cutoff in cutoffs]
    # Nested views narrow to the earlier of the two cutoffs, whichever is given first.
    for outer, inner in ((cutoffs[5], cutoffs[2]), (cutoffs[2], cutoffs[5]), (cutoffs[-2], cutoffs[0])):
        views.append((min(outer, inner), snapshot(snapshot(index, outer), inner)))
    for cutoff, view in views:
        publications, links = brute_force_view(index, cutoff)
        assert view.cutoff == cutoff
        assert list(view.publications.items()) == publications
        assert list(view.links) == links
        assert view.sources is index.sources
    assert not snapshot(index, cutoffs[0]).publications
    # On or after the last load a view is the full index's own records, not a copy.
    for cutoff in cutoffs[-3:]:
        assert snapshot(index, cutoff).publications is index.publications
        assert snapshot(index, cutoff).links is index.links


def test_snapshot_determinism_and_byte_identical_metrics(tmp_path):
    cfg = CorpusConfig(seed=5, n_journals=10, rename_probability=0.4)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    first = snapshot(index, date(2018, 5, 31))
    second = snapshot(index, date(2018, 5, 31))
    assert dict(first.publications) == dict(second.publications)
    assert first.links == second.links
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
        assert set(early.publications) <= set(late.publications)
        assert set(early.links) <= set(late.links)


def test_snapshot_link_closure(tmp_path):
    cfg = CorpusConfig(seed=23, n_journals=8)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    view = snapshot(index, date(2016, 2, 1))
    for link in view.links:
        assert link.citing_pub_id in view.publications
        assert link.cited_pub_id in view.publications


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
