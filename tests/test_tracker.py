"""Monthly tracker values and their convergence to the annual metric."""

from __future__ import annotations

import calendar
import math
import random
from datetime import date, timedelta
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citescore import (
    CorpusConfig,
    LagModel,
    compute_annual,
    citescore,
    count_citations,
    count_documents,
    generate_corpus,
    is_eligible,
    load_index,
    month_end_schedule,
    percent_cited,
    snapshot,
    tracker_series,
    tracker_value,
)
from citescore import metrics
from citescore.metrics import aggregate_counts
from citescore.tracker import TrackerRow, _spearman, month_end, stability_report, tracker_table

from helpers import build_index, link_line, pub_line, read_reference, source_line


def _index_with_arrivals():
    """One journal; 2018 citations load month by month during 2018."""
    sources = [source_line(1)]
    pubs = [pub_line(f"d{i}", 1, 2016, load_date="2016-06-01") for i in range(4)]
    pubs += [
        pub_line("c1", 1, 2018, load_date="2018-02-10"),
        pub_line("c2", 1, 2018, load_date="2018-05-20"),
        pub_line("c3", 1, 2018, load_date="2018-09-03"),
    ]
    links = [link_line(f"c{i}", f"d{i}") for i in (1, 2, 3)]
    index, _ = build_index(sources, pubs, links)
    return index


def test_schedule_month_ends():
    schedule = month_end_schedule("2018-06", "2019-04")
    assert len(schedule) == 11
    assert schedule[0] == date(2018, 6, 30)
    assert schedule[-1] == date(2019, 4, 30)
    assert month_end(2020, 2) == date(2020, 2, 29)


@pytest.mark.parametrize("start, end", [("0001-01", "0003-02"), ("9998-11", "9999-12")])
def test_schedule_at_the_ends_of_the_calendar(start, end):
    """Month counts reach the first and the last month a date can hold, and
    cross each year's end."""
    first = date.fromisoformat(f"{start}-01")
    last = date.fromisoformat(f"{end}-01")
    expected = [
        date(year, month, calendar.monthrange(year, month)[1])
        for year in range(first.year, last.year + 1)
        for month in range(1, 13)
        if (first.year, first.month) <= (year, month) <= (last.year, last.month)
    ]
    schedule = month_end_schedule(start, end)
    assert schedule == expected
    assert schedule[0].replace(day=1) == first and schedule[-1].replace(day=1) == last
    assert len(schedule) == 12 * (last.year - first.year) + last.month - first.month + 1


def test_schedule_rejects_reversed_range():
    with pytest.raises(ValueError):
        month_end_schedule("2019-04", "2018-06")
    with pytest.raises(ValueError):
        month_end_schedule("2018-13", "2019-01")


def test_unsorted_schedule_rejected():
    index = _index_with_arrivals()
    with pytest.raises(ValueError):
        tracker_series(index, 1, 2018, [date(2018, 3, 31), date(2018, 2, 28)])


def test_partial_numerator_starts_at_zero():
    index = _index_with_arrivals()
    assert tracker_value(index, 1, 2018, date(2018, 1, 31)) == Decimal("0.00")


def test_value_grows_with_arrivals_when_documents_fixed():
    index = _index_with_arrivals()
    series = tracker_series(index, 1, 2018, month_end_schedule("2018-01", "2018-12"))
    values = [p.value for p in series.points]
    assert len(values) == 12
    assert values == sorted(values)
    assert values[0] == Decimal("0.00")
    assert values[-1] == Decimal("0.75")  # 3 citations / 4 documents
    assert all(p.documents == 4 for p in series.points)


def test_tracker_equals_citescore_at_any_cutoff(tmp_path):
    cfg = CorpusConfig(seed=52, n_journals=10, rename_probability=0.2)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    rng = random.Random(8)
    terminals = [sid for sid in index.sources if index.is_chain_terminal(sid)]
    checked = 0
    for _ in range(40):
        as_of = date(rng.randint(2014, 2019), rng.randint(1, 12), 28)
        sid = rng.choice(terminals)
        year = rng.randint(2014, 2018)
        value = tracker_value(index, sid, year, as_of)
        view = snapshot(index, as_of)
        if value is None:
            assert not is_eligible(view, sid, year)
        else:
            assert is_eligible(view, sid, year)
            assert value == citescore(view, sid, year)
            checked += 1
    assert checked > 5


def test_absent_until_scoreable_then_within_window():
    """A journal that starts publishing in 2017 gets its first tracker point
    during 2018, once the cited window is non-empty."""
    sources = [source_line(1)]
    pubs = [pub_line("first", 1, 2017, load_date="2017-07-20")]
    index, _ = build_index(sources, pubs, [])
    series_2017 = tracker_series(index, 1, 2017, month_end_schedule("2017-01", "2017-12"))
    assert series_2017.points == ()  # window 2014-2016 is empty
    series_2018 = tracker_series(index, 1, 2018, month_end_schedule("2017-06", "2018-12"))
    assert series_2018.points[0].as_of == date(2017, 7, 31)
    assert series_2018.points[0].value == Decimal("0.00")


def test_static_corpus_gives_constant_series():
    sources = [source_line(1)]
    pubs = [pub_line(f"d{i}", 1, 2016, load_date="2017-01-05") for i in range(3)]
    pubs += [pub_line("c", 1, 2018, load_date="2018-01-15")]
    index, _ = build_index(sources, pubs, [link_line("c", "d0")])
    series = tracker_series(index, 1, 2018, month_end_schedule("2018-02", "2019-01"))
    assert len({p.value for p in series.points}) == 1
    assert series.points[0].value == Decimal("0.33")


def test_counts_monotone_in_cutoff(tmp_path):
    cfg = CorpusConfig(seed=61, n_journals=8, citation_rate=3.0)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    schedule = month_end_schedule("2017-01", "2019-06")
    terminals = [sid for sid in index.sources if index.is_chain_terminal(sid)]
    for sid in terminals[:5]:
        series = tracker_series(index, sid, 2018, schedule)
        citations = [p.citations for p in series.points]
        documents = [p.documents for p in series.points]
        assert citations == sorted(citations)
        assert documents == sorted(documents)


def test_final_point_matches_annual_value(tmp_path):
    # Short lags only, so everything loads before the annual cutoff.
    cfg = CorpusConfig(
        seed=70, n_journals=12, citation_rate=2.5,
        lag=LagModel(short_weight=1.0, short_days=(1, 10), long_days=(30, 60)),
    )
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    year = 2017
    cutoff = date(2018, 4, 30)
    schedule = month_end_schedule("2017-06", "2018-04")
    rows = tracker_table(index, year, schedule)
    final = {r.source_id: r for r in rows if r.as_of == schedule[-1]}
    annual_rows, _ = compute_annual(snapshot(index, cutoff), year)
    annual = {r.source_id: r for r in annual_rows}
    assert final.keys() == annual.keys()
    for sid, row in annual.items():
        assert final[sid].value == row.citescore
        assert final[sid].citations == row.citations
        assert final[sid].documents == row.documents


def test_rank_correlation_extremes():
    values = [Decimal(i) for i in range(1, 8)]
    assert _spearman(values, values) == pytest.approx(1.0)
    assert _spearman(values, list(reversed(values))) == pytest.approx(-1.0)
    tied = [Decimal(1), Decimal(1), Decimal(2)]
    assert -1.0 <= _spearman(tied, [Decimal(3), Decimal(4), Decimal(4)]) <= 1.0
    assert _spearman([Decimal(1)], [Decimal(9)]) == 1.0  # degenerate size


def test_stability_report_of_no_rows_is_empty():
    assert stability_report([]) == []


def test_stability_report_leaves_out_sources_absent_at_the_final_date():
    """Each date's correlation is over the sources that also have a value at
    the final date: source 2, scored only at the first date, is left out."""
    first, final = date(2018, 1, 31), date(2018, 2, 28)
    values = [(1, first, "1.00"), (2, first, "5.00"), (3, first, "3.00"), (1, final, "2.00"), (3, final, "1.00")]
    rows = [TrackerRow(sid, 2018, as_of, 0, 1, Decimal(value)) for sid, as_of, value in values]
    report = stability_report(rows)
    assert [point[:2] for point in report] == [(first, 2), (final, 2)]
    assert [point.rank_correlation for point in report] == pytest.approx([-1.0, 1.0])


def _spearman_reference(a, b):
    """Spearman's rho on exact average ranks (ties share the mean of their
    1-based positions), rounded to float only at the end."""
    if len(a) < 2:
        return 1.0

    def ranks(values):
        ordered = sorted(values)
        return [Fraction(2 * ordered.index(v) + ordered.count(v) + 1, 2) for v in values]

    ra, rb = ranks(a), ranks(b)
    mean = Fraction(len(a) + 1, 2)
    cov = sum((x - mean) * (y - mean) for x, y in zip(ra, rb))
    var_a = sum((x - mean) ** 2 for x in ra)
    var_b = sum((y - mean) ** 2 for y in rb)
    if var_a == 0 or var_b == 0:
        return 1.0
    return float(cov) / (math.sqrt(float(var_a)) * math.sqrt(float(var_b)))


@st.composite
def _tied_pairs(draw):
    """Two equal-length lists of 2-decimal scores from a few values, so that
    ties are common."""
    n = draw(st.integers(min_value=0, max_value=60))
    scores = st.builds(lambda k: Decimal(k).scaleb(-2), st.integers(min_value=0, max_value=n // 3 + 2))
    return draw(st.lists(scores, min_size=n, max_size=n)), draw(st.lists(scores, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(_tied_pairs())
def test_spearman_equals_exact_reference(pair):
    a, b = pair
    assert _spearman(a, b) == _spearman_reference(a, b)


def test_tracker_table_sorted_and_consistent(tmp_path):
    cfg = CorpusConfig(seed=75, n_journals=6)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    schedule = month_end_schedule("2018-01", "2018-06")
    rows = tracker_table(index, 2018, schedule)
    keys = [(r.source_id, r.as_of) for r in rows]
    assert keys == sorted(keys)
    for row in rows[:20]:
        assert tracker_value(index, row.source_id, 2018, row.as_of) == row.value


def test_tracker_table_of_a_view_stops_at_its_cutoff():
    """A view's tracker table reads every schedule date past the view's
    cutoff at the cutoff: what loads later never shows."""
    index = _index_with_arrivals()
    cutoff = date(2018, 5, 31)
    schedule = month_end_schedule("2018-01", "2018-12")
    at_cutoff = tracker_table(index, 2018, [cutoff])[0]
    assert at_cutoff[3:] == (2, 4, Decimal("0.50"))
    rows = tracker_table(snapshot(index, cutoff), 2018, schedule)
    assert [row.as_of for row in rows] == schedule
    assert [row.citations for row in rows] == [0, 1, 1, 1] + [2] * 8
    assert all(row[3:] == at_cutoff[3:] for row in rows if row.as_of > cutoff)
    # The full index holds the September citation.
    assert tracker_table(index, 2018, schedule)[-1][3:] == (3, 4, Decimal("0.75"))


def _tallies_per_date(index, year, schedule):
    """The tallies of every current title on a snapshot at each schedule date."""
    return [aggregate_counts(snapshot(index, as_of), year) for as_of in schedule]


def _assert_sweep_matches_snapshots(index, year, schedule):
    """The tallies per date, the table and every series against the
    per-source path on a snapshot at each schedule date."""
    terminals = {sid for sid in index.sources if index.is_chain_terminal(sid)}
    table = tracker_table(index, year, schedule)
    rows = {(r.source_id, r.as_of): r for r in table}
    series = {sid: [] for sid in index.sources}
    for as_of, counts in zip(schedule, _tallies_per_date(index, year, schedule), strict=True):
        assert set(counts) == terminals
        view = snapshot(index, as_of)
        for sid, tally in counts.items():
            assert tally.documents == count_documents(view, sid, year), (sid, as_of)
            assert tally.citations == count_citations(view, sid, year), (sid, as_of)
            if not is_eligible(view, sid, year):
                assert (sid, as_of) not in rows
                continue
            cited_pct = (200 * tally.cited_documents + tally.documents) // (2 * tally.documents)
            assert cited_pct == percent_cited(view, sid, year), (sid, as_of)
            row = rows.pop((sid, as_of))
            assert (row.citations, row.documents) == (tally.citations, tally.documents)
            assert row.value == citescore(view, sid, year)
            series[sid].append((as_of, tally.citations, tally.documents))
    assert not rows
    for sid, expected in series.items():
        points = tracker_series(index, sid, year, schedule).points
        assert [(p.as_of, p.citations, p.documents) for p in points] == expected
        # One title's series and the whole table give the same rows.
        assert points == tuple(r for r in table if r.source_id == sid)


@pytest.mark.parametrize("seed", [91, 92])
def test_sweep_equals_snapshot_per_date(tmp_path, seed):
    cfg = CorpusConfig(seed=seed, n_journals=6, pubs_per_year_mean=4.0, aip_fraction=0.3,
                       rename_probability=0.5)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    files = (paths.sources_path, paths.publications_path, paths.links_path)
    index, _ = load_index(*files)
    publications = read_reference(files).publications.values()
    assert any(index.successor.values())
    assert any(p.is_article_in_press for p in publications)
    loads = sorted({p.load_date for p in publications})
    # Before the first load, some exact load dates (a record counts on the
    # day it loads), and after the last load.
    middle = random.Random(seed).sample(loads, 12)
    schedule = sorted({loads[0] - timedelta(days=1), *middle, loads[-1] + timedelta(days=1)})
    _assert_sweep_matches_snapshots(index, 2017, schedule)
    # A narrowed view whose schedule runs past its cutoff: the tallies stay
    # flat from the cutoff on.
    cut = len(schedule) // 2
    view = snapshot(index, schedule[cut])
    _assert_sweep_matches_snapshots(view, 2017, schedule)
    tallies = _tallies_per_date(view, 2017, schedule)
    assert tallies[cut:] == [tallies[cut]] * (len(schedule) - cut)
    assert tallies[cut] != _tallies_per_date(index, 2017, schedule)[-1]


def _index_with_staggered_loads():
    """Source 2 renamed from 1; source 3 separate. Tracker year 2018."""
    sources = [source_line(1), source_line(2, predecessor=1), source_line(3)]
    pubs = [
        pub_line("a1", 2, 2016, load_date="2016-05-01"),
        pub_line("a2", 2, 2016, load_date="2016-05-01"),
        # The former title's documents arrive mid-schedule.
        pub_line("p1", 1, 2015, load_date="2018-04-15"),
        pub_line("p2", 1, 2016, load_date="2018-04-20"),
        pub_line("aip", 2, 2017, load_date="2017-05-01", aip=True),
        pub_line("b1", 3, 2017, load_date="2017-03-01"),
        pub_line("late", 3, 2017, load_date="2018-06-10"),
        pub_line("c1", 3, 2018, load_date="2018-02-05"),
        pub_line("c2", 2, 2018, load_date="2018-09-12"),
        pub_line("after", 3, 2018, load_date="2019-03-01"),
    ]
    links = [
        link_line("c1", "a1"),
        link_line("c1", "p1"),
        link_line("c1", "late"),  # endpoints load in February and June
        link_line("c1", "aip"),
        link_line("c2", "a1"),
        link_line("c2", "b1"),
        link_line("after", "b1"),  # visible only after the schedule ends
    ]
    index, _ = build_index(sources, pubs, links)
    return index


def test_sweep_staggered_loads():
    index = _index_with_staggered_loads()
    schedule = month_end_schedule("2018-01", "2018-12")
    by_month = {sid: [] for sid in (2, 3)}
    for counts in _tallies_per_date(index, 2018, schedule):
        assert set(counts) == {2, 3}
        for sid, tally in counts.items():
            by_month[sid].append((tally.citations, tally.documents, tally.cited_documents))
    assert by_month[2] == [(0, 2, 0), (1, 2, 1), (1, 2, 1)] + [(2, 4, 2)] * 5 + [(3, 4, 2)] * 4
    assert by_month[3] == [(0, 1, 0)] * 5 + [(1, 2, 1)] * 3 + [(2, 2, 2)] * 4
    # The full index holds the late link; the schedule never sees it.
    assert aggregate_counts(index, 2018)[3].citations == 3
    assert tracker_series(index, 1, 2018, schedule).points == ()
    _assert_sweep_matches_snapshots(index, 2018, schedule)


def test_tracker_series_unknown_source():
    index = _index_with_staggered_loads()
    with pytest.raises(KeyError, match="^'unknown source_id 99'$"):
        tracker_series(index, 99, 2018, month_end_schedule("2018-01", "2018-12"))
    with pytest.raises(KeyError, match="^'unknown source_id 99'$"):
        tracker_value(index, 99, 2018, date(2018, 12, 31))


def test_timelines_are_built_once_per_citing_year(tmp_path, monkeypatch):
    """150 point queries over six month-ends build the citing year's
    timelines once; a second citing year builds its own, once; a view, the
    batch path and the tallies per date reuse both."""
    cfg = CorpusConfig(seed=17, n_journals=12, rename_probability=0.3)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    builds = []
    build = metrics._event_timelines

    def counting_build(store, year):
        builds.append(year)
        return build(store, year)

    monkeypatch.setattr(metrics, "_event_timelines", counting_build)
    schedule = month_end_schedule("2018-01", "2018-12")[1::2]
    sources = sorted(index.sources)
    rng = random.Random(17)
    queries = [(rng.choice(sources), rng.choice(schedule)) for _ in range(150)]
    values = [tracker_value(index, sid, 2018, as_of) for sid, as_of in queries]
    assert builds == [2018]
    assert any(value is not None for value in values)
    for sid, as_of in queries[:20]:
        tracker_value(index, sid, 2017, as_of)
    assert builds == [2018, 2017]
    view = snapshot(index, schedule[2])
    count_documents(view, sources[0], 2018)
    tracker_table(index, 2018, schedule)
    _tallies_per_date(view, 2017, schedule)
    compute_annual(view, 2017)
    assert builds == [2018, 2017]
