"""The annual metrics basket and its exact arithmetic."""

from __future__ import annotations

import math
import random
import sys
from datetime import date
from decimal import Decimal
from fractions import Fraction

import pytest

from citescore import (
    CorpusConfig,
    IneligibleError,
    citescore,
    compute_annual,
    count_citations,
    count_documents,
    generate_corpus,
    is_eligible,
    load_index,
    percent_cited,
    percentile_rank,
    quartile,
    rank_in_category,
    snapshot,
    tracker_value,
)
from citescore.metrics import SourceYearCounts, aggregate_counts, score_from_counts
from citescore.records import ELIGIBLE_SOURCE_TYPES

from helpers import (
    brute_force_view, build_snapshot, differential_index, link_line, pub_line, reference_records, source_line,
)


def _window_corpus():
    """One journal with publications spread across the 2013-2016 boundary."""
    sources = [source_line(1)]
    pubs = [
        pub_line("y2013", 1, 2013),
        pub_line("y2014", 1, 2014),
        pub_line("y2015", 1, 2015),
        pub_line("y2016", 1, 2016),
        pub_line("citer17", 1, 2017),
        pub_line("citer18", 1, 2018),
    ]
    return sources, pubs


def test_documents_counts_only_the_three_prior_years():
    sources, pubs = _window_corpus()
    view, _ = build_snapshot(sources, pubs, [])
    assert count_documents(view, 1, 2017) == 3  # 2014-2016; 2013 is out


def test_documents_excludes_articles_in_press():
    sources = [source_line(1)]
    pubs = [pub_line(f"a{i}", 1, 2015, aip=True) for i in range(4)]
    view, _ = build_snapshot(sources, pubs, [])
    assert count_documents(view, 1, 2017) == 0


def test_documents_attributed_across_title_chain():
    sources = [source_line(1, title="Old"), source_line(2, title="New", predecessor=1)]
    pubs = [pub_line(f"old{i}", 1, 2014) for i in range(4)]
    pubs += [pub_line(f"new{i}", 2, 2016) for i in range(3)]
    view, _ = build_snapshot(sources, pubs, [])
    assert count_documents(view, 2, 2017) == 7


def test_citations_zero_without_citing_year_pubs():
    sources, pubs = _window_corpus()
    view, _ = build_snapshot(sources, pubs, [link_line("y2016", "y2014")])
    assert count_citations(view, 1, 2017) == 0  # citing pub is from 2016


def test_citations_brute_force_over_small_corpus():
    rng = random.Random(77)
    sources = [source_line(1), source_line(2, asjc=(1100,))]
    pubs = []
    for i in range(20):
        year = rng.choice([2013, 2014, 2015, 2016, 2017])
        pubs.append(pub_line(f"p{i}", 1 + i % 2, year, aip=(i % 7 == 3)))
    links = []
    seen = set()
    while len(links) < 30:
        a, b = rng.randrange(20), rng.randrange(20)
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        links.append(link_line(f"p{a}", f"p{b}"))
    view, _ = build_snapshot(sources, pubs, links)

    reference = reference_records(sources, pubs, links)
    expected = 0
    for citing_id, cited_id in reference.links:
        citing = reference.publications[citing_id]
        cited = reference.publications[cited_id]
        if (
            citing.sort_year == 2017
            and not citing.is_article_in_press
            and cited.source_id == 1
            and cited.sort_year in (2014, 2015, 2016)
            and not cited.is_article_in_press
        ):
            expected += 1
    assert count_citations(view, 1, 2017) == expected


def test_citation_year_assignment_follows_citing_publication():
    sources, pubs = _window_corpus()
    view, _ = build_snapshot(sources, pubs, [link_line("citer18", "y2015")])
    assert count_citations(view, 1, 2018) == 1
    assert count_citations(view, 1, 2017) == 0


def _score_corpus(n_citations, n_docs):
    sources = [source_line(1)]
    pubs = [pub_line(f"d{i}", 1, 2015) for i in range(n_docs)]
    pubs += [pub_line(f"c{i}", 1, 2017) for i in range(n_citations)]
    links = [link_line(f"c{i}", f"d{i % n_docs}") for i in range(n_citations)]
    return build_snapshot(sources, pubs, links)[0]


def test_citescore_zero_numerator():
    view = _score_corpus(0, 5)
    assert citescore(view, 1, 2017) == Decimal("0.00")
    assert str(citescore(view, 1, 2017)) == "0.00"


def test_citescore_exact_rounding_of_repeating_fraction():
    # 7/3 = 2.333...; exact rational rounding gives 2.33.
    view = _score_corpus(7, 3)
    assert citescore(view, 1, 2017) == Decimal("2.33")
    assert math.floor(Fraction(7, 3) * 100 + Fraction(1, 2)) == 233


def test_citescore_exact_terminating_fraction():
    view = _score_corpus(5, 4)
    assert citescore(view, 1, 2017) == Decimal("1.25")


def test_citescore_half_cases_round_away_from_zero():
    assert score_from_counts(1, 8) == Decimal("0.13")  # 0.125
    assert score_from_counts(3, 8) == Decimal("0.38")  # 0.375
    assert score_from_counts(1, 200) == Decimal("0.01")  # 0.005


def test_citescore_requires_documents():
    sources = [source_line(1)]
    view, _ = build_snapshot(sources, [], [])
    with pytest.raises(IneligibleError):
        citescore(view, 1, 2017)


def test_percent_cited_values():
    sources = [source_line(1)]
    pubs = [pub_line(f"d{i}", 1, 2015) for i in range(4)]
    pubs += [pub_line(f"c{i}", 1, 2017) for i in range(6)]
    # d0 cited five times, d1 once, d2/d3 never.
    links = [link_line(f"c{i}", "d0") for i in range(5)] + [link_line("c5", "d1")]
    view, _ = build_snapshot(sources, pubs, links)
    assert percent_cited(view, 1, 2017) == 50

    no_links, _ = build_snapshot(sources, pubs, [])
    assert percent_cited(no_links, 1, 2017) == 0


def test_percent_cited_rounds_half_up():
    sources = [source_line(1)]
    pubs = [pub_line(f"d{i}", 1, 2015) for i in range(3)]
    pubs += [pub_line("c0", 1, 2017)]
    view, _ = build_snapshot(sources, pubs, [link_line("c0", "d0")])
    assert percent_cited(view, 1, 2017) == 33  # 33.33... -> 33


def test_eligibility_gate():
    sources = [
        source_line(1, source_type="standalone-book"),
        source_line(2),
        source_line(3, active=False),
        source_line(4, title="Old"),
        source_line(5, title="New", predecessor=4),
        source_line(6, source_type="trade-journal"),
    ]
    pubs = [pub_line(f"p{sid}", sid, 2015) for sid in (1, 3, 4, 6)]
    view, _ = build_snapshot(sources, pubs, [])
    assert not is_eligible(view, 1, 2017)  # stand-alone book
    assert not is_eligible(view, 2, 2017)  # no documents
    assert not is_eligible(view, 3, 2017)  # not actively indexed
    assert not is_eligible(view, 4, 2017)  # former title; successor carries metrics
    assert is_eligible(view, 5, 2017)      # inherits the chain's documents
    assert is_eligible(view, 6, 2017)
    with pytest.raises(KeyError):
        is_eligible(view, 99, 2017)


def test_percentile_single_member_category():
    assert percentile_rank([Decimal("1.00")], Decimal("1.00")) == 50


def test_percentile_top_of_hundred_distinct_scores():
    scores = [Decimal(i).scaleb(-2) for i in range(100)]
    assert percentile_rank(scores, Decimal(99).scaleb(-2)) == 99


def test_percentile_direct_substitution():
    # L=3 lower, S=2 equal, N=10 -> floor(40.0) = 40.
    scores = [Decimal(v) for v in ("1", "1", "1", "2", "2", "3", "3", "4", "5", "6")]
    assert percentile_rank(scores, Decimal("2")) == 40


def test_percentile_requires_membership():
    with pytest.raises(ValueError):
        percentile_rank([Decimal("1.00")], Decimal("2.00"))


def test_percentile_matches_rational_formula_on_random_triples():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(1, 200)
        s = rng.randint(1, n)
        lower = rng.randint(0, n - s)
        scores = (
            [Decimal("1.00")] * lower
            + [Decimal("5.00")] * s
            + [Decimal("9.00")] * (n - s - lower)
        )
        expected = math.floor(Fraction(lower + Fraction(s, 2), n) * 100)
        got = percentile_rank(scores, Decimal("5.00"))
        assert got == expected
        assert 0 <= got <= 99


def test_quartile_band_edges():
    assert quartile(99) == 1
    assert quartile(75) == 1
    assert quartile(74) == 2
    assert quartile(50) == 2
    assert quartile(49) == 3
    assert quartile(25) == 3
    assert quartile(24) == 4
    assert quartile(0) == 4
    for bad in (-1, 100, 354):
        with pytest.raises(ValueError):
            quartile(bad)


def test_competition_ranking():
    scores = {
        10: Decimal("5.00"),
        11: Decimal("3.20"),
        12: Decimal("3.20"),
        13: Decimal("1.00"),
    }
    ranks = rank_in_category(scores)
    assert ranks == {10: (1, 4), 11: (2, 4), 12: (2, 4), 13: (4, 4)}


def test_ranking_degenerate_cases():
    assert rank_in_category({7: Decimal("0.00")}) == {7: (1, 1)}
    tied = {i: Decimal("2.00") for i in range(5)}
    assert rank_in_category(tied) == {i: (1, 5) for i in range(5)}


def test_compute_annual_empty_snapshot():
    view, _ = build_snapshot([], [], [])
    rows, standings = compute_annual(view, 2017)
    assert rows == [] and standings == []


def test_one_score_many_category_standings():
    sources = [
        source_line(1, asjc=(1000, 1100)),
        source_line(2, asjc=(1000,)),
        source_line(3, asjc=(1100,)),
    ]
    pubs = [pub_line(f"d{sid}", sid, 2015) for sid in (1, 2, 3)]
    pubs += [pub_line("c1", 1, 2017), pub_line("c2", 2, 2017)]
    links = [link_line("c1", "d2"), link_line("c2", "d3"), link_line("c1", "d3")]
    view, _ = build_snapshot(sources, pubs, links)
    rows, standings = compute_annual(view, 2017)

    assert len(rows) == 3
    mine = [s for s in standings if s.source_id == 1]
    assert len(mine) == 2  # one score, one standing per category
    by_code = {s.asjc_code: s for s in mine}
    # Source 1 scores 0.00: bottom of 1000 (peer scored 1.00), bottom of 1100 (peer 2.00).
    assert by_code[1000].percentile == 25 and by_code[1100].percentile == 25
    assert by_code[1000].rank == 2 and by_code[1000].n_in_category == 2


def test_per_source_and_batch_paths_agree(tmp_path):
    cfg = CorpusConfig(seed=404, n_journals=12, rename_probability=0.3, aip_fraction=0.25)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    view = snapshot(index, date(2018, 5, 31))
    counts = aggregate_counts(view, 2017)
    for sid, tally in counts.items():
        assert count_documents(view, sid, 2017) == tally.documents
        assert count_citations(view, sid, 2017) == tally.citations
        if tally.documents:
            assert citescore(view, sid, 2017) == score_from_counts(
                tally.citations, tally.documents
            )


def test_merge_invariance_of_rename(tmp_path):
    """Splitting a journal's history across a predecessor chain must not
    change its metrics row."""
    def corpus(split):
        sources = [source_line(1, title="Stable peer", asjc=(1000,))]
        if split:
            sources += [
                source_line(20, title="Renamed (former title)", asjc=(1000,)),
                source_line(21, title="Renamed", asjc=(1000,), predecessor=20),
            ]
        else:
            sources += [source_line(21, title="Renamed", asjc=(1000,))]
        pubs, links = [], []
        for i, year in enumerate([2014, 2014, 2015, 2016, 2016]):
            owner = 21
            if split and year < 2016:
                owner = 20
            pubs.append(pub_line(f"r{i}", owner, year))
        for i in range(3):
            pubs.append(pub_line(f"peer{i}", 1, 2015))
        for i, year in enumerate([2017] * 4):
            pubs.append(pub_line(f"c{i}", 1, year))
        links = [
            link_line("c0", "r0"), link_line("c0", "r2"), link_line("c1", "r2"),
            link_line("c2", "r4"), link_line("c3", "peer0"),
        ]
        return build_snapshot(sources, pubs, links)[0]

    control_rows, control_standings = compute_annual(corpus(split=False), 2017)
    split_rows, split_standings = compute_annual(corpus(split=True), 2017)
    control = {r.source_id: r for r in control_rows}
    split = {r.source_id: r for r in split_rows}
    assert split.keys() == control.keys() == {1, 21}
    assert split[21] == control[21]
    assert split_standings == control_standings


def test_scale_invariance_of_standings(tmp_path):
    """Cloning the whole corpus k times multiplies every A and B by k and
    must leave every rank, percentile, and quartile unchanged."""
    cfg = CorpusConfig(seed=88, n_journals=10, n_categories=3)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    sources = paths.sources_path.read_text().splitlines()
    pubs = paths.publications_path.read_text().splitlines()
    links = paths.links_path.read_text().splitlines()

    import json as _json

    def cloned(k):
        cloned_pubs, cloned_links = [], []
        for copy in range(k):
            for line in pubs:
                obj = _json.loads(line)
                obj["pub_id"] = f"{obj['pub_id']}~{copy}"
                cloned_pubs.append(_json.dumps(obj))
            for line in links:
                obj = _json.loads(line)
                cloned_links.append(link_line(
                    f"{obj['citing_pub_id']}~{copy}", f"{obj['cited_pub_id']}~{copy}"
                ))
        return build_snapshot(sources, cloned_pubs, cloned_links, date(2018, 5, 31))[0]

    base_rows, base_standings = compute_annual(cloned(1), 2017)
    tripled_rows, tripled_standings = compute_annual(cloned(3), 2017)
    assert tripled_standings == base_standings
    base = {r.source_id: r for r in base_rows}
    tripled = {r.source_id: r for r in tripled_rows}
    assert base.keys() == tripled.keys()
    for sid, row in base.items():
        assert tripled[sid].citations == 3 * row.citations
        assert tripled[sid].documents == 3 * row.documents
        assert tripled[sid].citescore == row.citescore


def test_percent_cited_positive_iff_citations_positive(tmp_path):
    # Journals stay far below the 200-documents-per-cited-doc bound where
    # half-up rounding could take a nonzero share to 0%.
    cfg = CorpusConfig(seed=3, n_journals=15, pubs_per_year_mean=8.0, citation_rate=0.3)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    rows, _ = compute_annual(snapshot(index, date(2018, 5, 31)), 2017)
    assert any(r.citations == 0 for r in rows)  # exercise both sides
    for row in rows:
        assert (row.percent_cited > 0) == (row.citations > 0)


def test_snapshot_safe_for_concurrent_readers(tmp_path):
    """Per-source computations over one shared index give the same answers
    from a thread pool, starting from a cold store whose timelines the
    threads build, as serially on a second index of the same files, and as
    the batch path."""
    from concurrent.futures import ThreadPoolExecutor

    cfg = CorpusConfig(seed=2024, n_journals=30, rename_probability=0.3)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    files = (paths.sources_path, paths.publications_path, paths.links_path)
    index, _ = load_index(*files)
    view = snapshot(index, date(2018, 5, 31))
    cutoffs = [date(2017, 3, 31), date(2017, 12, 31), date(2018, 5, 31), date(2019, 4, 30), date.max]
    tasks = [(sid, year, as_of) for sid in sorted(index.sources) for year in (2017, 2018) for as_of in cutoffs]
    random.Random(5).shuffle(tasks)

    def worker(index, view, task):
        sid, year, as_of = task
        return (tracker_value(index, sid, year, as_of),
                count_citations(view, sid, 2017), count_documents(view, sid, 2017))

    assert not index._store.timelines
    # Switch threads often, so that several of them build a year's timelines at once.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda task: worker(index, view, task), tasks, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(index._store.timelines) == [2017, 2018]
    serial_index, _ = load_index(*files)
    serial_view = snapshot(serial_index, date(2018, 5, 31))
    assert threaded == [worker(serial_index, serial_view, task) for task in tasks]
    assert any(value is not None for value, _, _ in threaded)

    counts = aggregate_counts(view, 2017)
    for (sid, _, _), (_, citations, documents) in zip(tasks, threaded):
        if sid in counts:
            assert (citations, documents) == (counts[sid].citations, counts[sid].documents)


def test_percentile_bound_properties(tmp_path):
    cfg = CorpusConfig(seed=1234, n_journals=40, n_categories=4)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    rows, standings = compute_annual(snapshot(index, date(2018, 5, 31)), 2017)
    scores = {r.source_id: r.citescore for r in rows}

    by_category: dict[int, list] = {}
    for standing in standings:
        by_category.setdefault(standing.asjc_code, []).append(standing)
    for code, members in by_category.items():
        n = len(members)
        top = max(scores[m.source_id] for m in members)
        quartile_total = 0
        for standing in members:
            assert 0 <= standing.percentile <= 99
            assert standing.rank <= standing.n_in_category == n
            assert standing.quartile == quartile(standing.percentile)
            quartile_total += 1
            # No more than N*(100-p)/100 peers may score strictly higher.
            higher = sum(
                1 for other in members if scores[other.source_id] > scores[standing.source_id]
            )
            assert higher <= n * (100 - standing.percentile) / 100
            if n >= 2 and scores[standing.source_id] == top:
                unique_top = sum(1 for m in members if scores[m.source_id] == top) == 1
                if unique_top:
                    assert standing.percentile >= 50
        assert quartile_total == n


def _terminals(reference):
    """The reference's sources that no other source names as its predecessor."""
    predecessors = {source.get("predecessor_source_id") for source in reference.sources.values()}
    return [source_id for source_id in reference.sources if source_id not in predecessors]


def _brute_force_tallies(reference, cutoff, source_id, year):
    """(documents, citations, cited documents, eligible) counted record by
    record over the filtered reference, with the chain walked by hand."""
    pubs, links = brute_force_view(reference, cutoff)
    chain, current = set(), source_id
    while current is not None:
        chain.add(current)
        current = reference.sources[current].get("predecessor_source_id")

    def in_basket(record):
        return record.source_id in chain and year - 3 <= record.sort_year < year \
            and not record.is_article_in_press

    documents = sum(in_basket(record) for record in pubs.values())
    cited = [
        cited_id
        for citing_id, cited_id in links
        if pubs[citing_id].sort_year == year
        and not pubs[citing_id].is_article_in_press
        and in_basket(pubs[cited_id])
    ]
    source = reference.sources[source_id]
    eligible = (
        source["is_actively_indexed"]
        and source["source_type"] in ELIGIBLE_SOURCE_TYPES
        and source_id in _terminals(reference)
        and documents >= 1
    )
    return documents, len(cited), len(set(cited)), eligible


def _half_up_hundredths(numerator, denominator):
    return math.floor(Fraction(100 * numerator, denominator) + Fraction(1, 2))


def _assert_view_equals_brute_force(index, reference, view):
    """Every per-source function on the view, for every source and the years
    2016-2018, against brute-force counts; returns how many scores were
    eligible."""
    scored = 0
    for source_id in reference.sources:
        for year in (2016, 2017, 2018):
            documents, citations, cited, eligible = _brute_force_tallies(reference, view.cutoff, source_id, year)
            assert count_documents(view, source_id, year) == documents
            assert count_citations(view, source_id, year) == citations
            assert is_eligible(view, source_id, year) is eligible
            expected = tracker_value(index, source_id, year, view.cutoff)
            if documents:
                hundredths = _half_up_hundredths(citations, documents)
                assert percent_cited(view, source_id, year) == _half_up_hundredths(cited, documents)
                assert citescore(view, source_id, year) == Decimal(hundredths).scaleb(-2)
                scored += eligible
                assert expected == (citescore(view, source_id, year) if eligible else None)
            else:
                for metric in (percent_cited, citescore):
                    with pytest.raises(IneligibleError):
                        metric(view, source_id, year)
                assert expected is None
    return scored


def _assert_aggregates_equal_brute_force(index, reference, cutoffs):
    """The tallies of every current title, read at every cutoff."""
    for year in (2016, 2017, 2018):
        for cutoff in cutoffs:
            tallies = aggregate_counts(snapshot(index, cutoff), year)
            assert list(tallies) == _terminals(reference)
            for source_id, tally in tallies.items():
                documents, citations, cited, _ = _brute_force_tallies(reference, cutoff, source_id, year)
                assert tally == SourceYearCounts(citations, documents, cited), (source_id, year)


@pytest.mark.parametrize("seed", [41, 42])
def test_per_source_scans_equal_brute_force(tmp_path, seed):
    index, reference, empty, cutoffs = differential_index(tmp_path, seed)
    views = [snapshot(index, cutoff) for cutoff in cutoffs]
    views += [snapshot(snapshot(index, cutoffs[5]), cutoffs[2]),
              snapshot(snapshot(index, cutoffs[2]), cutoffs[5])]
    # The tallies are read at every cutoff first, latest view first, so the
    # store's timelines are built under date.max; then every view is read,
    # earliest first.
    _assert_aggregates_equal_brute_force(index, reference, cutoffs[::-1])
    assert sum(_assert_view_equals_brute_force(index, reference, view) for view in views)
    assert not any(count_documents(view, empty, 2017) for view in views)
    for metric in (count_documents, count_citations, percent_cited, is_eligible, citescore):
        with pytest.raises(KeyError):
            metric(views[3], 10**9, 2017)
    with pytest.raises(KeyError):
        tracker_value(index, 10**9, 2017, cutoffs[3])

    # A fresh index of the same files, whose timelines are first built under
    # an early, nested view; its views are then read from the latest cutoff
    # to the earliest, and the tallies at every cutoff last.
    corpus = tmp_path / "corpus"
    fresh, _ = load_index(corpus / "sources.jsonl", corpus / "publications.jsonl", corpus / "links.jsonl")
    assert not fresh._store.timelines
    nested = snapshot(snapshot(fresh, cutoffs[5]), cutoffs[2])
    _assert_view_equals_brute_force(fresh, reference, nested)
    assert sorted(fresh._store.timelines) == [2016, 2017, 2018]
    for cutoff in reversed(cutoffs):
        _assert_view_equals_brute_force(fresh, reference, snapshot(fresh, cutoff))
    _assert_view_equals_brute_force(fresh, reference, snapshot(snapshot(fresh, cutoffs[2]), cutoffs[5]))
    _assert_aggregates_equal_brute_force(fresh, reference, cutoffs)
