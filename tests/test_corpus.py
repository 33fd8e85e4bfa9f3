"""The seeded corpus generator."""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
import tracemalloc
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import citescore.index as index_module
from citescore import CorpusConfig, LagModel, generate_corpus, load_index
from citescore.corpus import _draw_below, canonical_line
from citescore.records import parse_date


def _read(path):
    return path.read_bytes()


def test_same_seed_same_bytes(tmp_path):
    cfg = CorpusConfig(seed=42, n_journals=9, rename_probability=0.4, aip_fraction=0.3)
    first = generate_corpus(cfg, tmp_path / "one")
    second = generate_corpus(cfg, tmp_path / "two")
    assert _read(first.sources_path) == _read(second.sources_path)
    assert _read(first.publications_path) == _read(second.publications_path)
    assert _read(first.links_path) == _read(second.links_path)


def test_different_seed_different_corpus(tmp_path):
    base = CorpusConfig(seed=1, n_journals=9)
    other = CorpusConfig(seed=2, n_journals=9)
    first = generate_corpus(base, tmp_path / "one")
    second = generate_corpus(other, tmp_path / "two")
    assert _read(first.publications_path) != _read(second.publications_path)


def test_full_aip_fraction_silences_latest_year(tmp_path):
    cfg = CorpusConfig(seed=11, n_journals=6, aip_fraction=1.0)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    pubs = [json.loads(line) for line in paths.publications_path.read_text().splitlines()]
    latest = [p for p in pubs if p["sort_year"] == cfg.last_year]
    assert latest and all(p["is_article_in_press"] for p in latest)

    by_id = {p["pub_id"]: p for p in pubs}
    links = [json.loads(line) for line in paths.links_path.read_text().splitlines()]
    assert all(by_id[l["citing_pub_id"]]["sort_year"] != cfg.last_year for l in links)


def test_rename_probability_one_doubles_source_records(tmp_path):
    cfg = CorpusConfig(seed=13, n_journals=10, rename_probability=1.0)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    sources = [json.loads(line) for line in paths.sources_path.read_text().splitlines()]
    assert len(sources) == 20
    chained = [s for s in sources if "predecessor_source_id" in s]
    assert len(chained) == 10
    predecessors = {s["predecessor_source_id"] for s in chained}
    assert len(predecessors) == 10  # linear chains of length 2


def test_generated_corpora_pass_ingest_cleanly(tmp_path):
    for seed in (0, 5, 9):
        cfg = CorpusConfig(
            seed=seed,
            n_journals=12,
            rename_probability=0.5,
            aip_fraction=0.4,
            citation_rate=3.0,
        )
        paths = generate_corpus(cfg, tmp_path / f"c{seed}")
        _, report = load_index(paths.sources_path, paths.publications_path, paths.links_path)
        counts = report.counts()
        assert counts["sources_rejected"] == 0
        assert counts["publications_rejected"] == 0
        assert counts["links_rejected"] == 0
        assert counts["links_collapsed"] == 0
        assert not report.warnings


def test_generated_lines_are_read_inline(tmp_path, monkeypatch):
    """Every publication and link line the generator writes is read by the
    inline patterns of ingest, never by the checked parsers, and each
    distinct load_date string is validated once: the generator's byte form
    and the reader's patterns agree."""
    def forbidden(*args):
        raise AssertionError("checked parser called")

    parsed = []

    def counting_parse_date(text):
        parsed.append(text)
        return parse_date(text)

    monkeypatch.setattr(index_module, "_parse_publication", forbidden)
    monkeypatch.setattr(index_module, "_parse_link", forbidden)
    monkeypatch.setattr(index_module, "parse_date", counting_parse_date)
    cfg = CorpusConfig(seed=3, n_journals=12, rename_probability=0.5, aip_fraction=0.4)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    index, report = load_index(paths.sources_path, paths.publications_path, paths.links_path)

    pubs = [json.loads(line) for line in paths.publications_path.read_text().splitlines()]
    assert any(index.successor.values())
    assert {p["is_article_in_press"] for p in pubs} == {False, True}
    assert len({p["doc_type"] for p in pubs}) >= 5
    assert sorted(parsed) == sorted({p["load_date"] for p in pubs})
    assert report.publications_accepted == len(pubs)
    assert report.links_accepted == len(paths.links_path.read_text().splitlines())
    assert not report.warnings


def test_invalid_configs_rejected_before_output(tmp_path):
    bad_configs = [
        dict(seed=1, n_journals=0),
        dict(seed=1, first_year=2018, last_year=2012),
        dict(seed=1, citation_rate=-1.0),
        dict(seed=1, aip_fraction=1.5),
        dict(seed=1, rename_probability=-0.1),
        dict(seed=1, n_categories=0),
        dict(seed=1, lag=LagModel(short_weight=2.0)),
        dict(seed=1, lag=LagModel(short_days=(10, 2))),
    ]
    out = tmp_path / "never"
    for kwargs in bad_configs:
        with pytest.raises(ValueError):
            generate_corpus(CorpusConfig(**kwargs), out)
    assert not out.exists()


def test_config_round_trip():
    cfg = CorpusConfig(seed=4, n_journals=3, lag=LagModel(short_weight=0.8))
    again = CorpusConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


# sha256 of (sources, publications, links) as the generator has written them
# since before it streamed its records: any change to the draw order, the
# record fields or the byte form of a line changes one of these.
GOLDEN = {
    "renames": (
        CorpusConfig(seed=101, n_journals=8, rename_probability=0.5, citation_rate=3.0),
        ("9faf2be3253dbccebae93a6aa7822f5f6df7657bb3a0163c08d353cd0d43bb37",
         "72ae8bc16c7943d764b4cd258eb67c1ecb14d1a5bbcba3a891664779b8d6f2a4",
         "327722ff467e150924d64a2dcc3cf8775ee19d5374255bc86dd086ae601c0a84"),
    ),
    "all-in-press": (
        CorpusConfig(seed=102, n_journals=6, aip_fraction=1.0, first_year=2015, last_year=2018),
        ("a93a2ee692594d5c73a6f741633ea0849a078787cdb81ad5ebed86d4dbd9bba3",
         "0d96549d7358e62feecd1433c6a41950e220c425766c62227ec1ec3aa945a387",
         "6f9101a78e455b4f4bd05a3d6b2fd9640ea5b544bb9cb7d71a27e86ba3a8e4f1"),
    ),
    "lag": (
        CorpusConfig(seed=103, n_journals=5, n_categories=2,
                     lag=LagModel(short_weight=0.5, short_days=(0, 3), long_days=(60, 400))),
        ("604cf2674ffabbe59c542a817140dbece47b7cc7242cfadae0f83865d540c24e",
         "3758c0d0bdda605bbdd2ffccc8cab73972c2cb700ccee8e8d4faa44a1f032b3d",
         "810430f608e0c7eb5b2b42940ae214a316eee5b9b1de3104bec473b77fd3037c"),
    ),
    "no-publications": (
        CorpusConfig(seed=104, n_journals=4, pubs_per_year_mean=0, lag=LagModel(short_days=(2, 2))),
        ("1e55809a526ac760bf48b76ca54f9e55402769cb904a172aa4103e7535e7985b",
         hashlib.sha256(b"").hexdigest(),
         hashlib.sha256(b"").hexdigest()),
    ),
    # These four were pinned while each line was still written by
    # canonical_line, before publication and link lines had templates.
    "near-cap": (
        CorpusConfig(seed=105, n_journals=12, first_year=2012, last_year=2018, pubs_per_year_mean=13.5,
                     citation_rate=6.2, aip_fraction=0.2, rename_probability=0.15, n_categories=10),
        ("470024e27021e2d1f2eb405610d01b47193eed7e6c11e553904c992cf3150699",
         "c143e8a6425401ffa263b850863f34a290b1383bc94743092072f484af40bd42",
         "ae0b98b74e612b3bd713347d4a41de89c20f8cb445a229e6efd43db48e85d4ae"),
    ),
    "wide": (
        CorpusConfig(seed=106, n_journals=60, first_year=2014, last_year=2017, pubs_per_year_mean=1.5,
                     n_categories=2),
        ("3cae08732304101051d8b1831f4f93d84b445b8543f4ebd2a6f2343266d82697",
         "5f5bd5de36551a9c85469a8f6c7e36ea6a725133ea370e730018acf119e0b5ee",
         "cbc7020d0a8b1d5c98c461ad498b234c7aa273421bf8ad28c6103324e3dc0ffc"),
    ),
    "first-years": (
        CorpusConfig(seed=107, n_journals=6, first_year=1, last_year=4, rename_probability=0.5, aip_fraction=0.5),
        ("cf0f4431435bfcdbc751d8746466bcff0d5cabeea968a6003f7c6022b02c6cb8",
         "872fe77d77b26c4176dd8b802eb486adf955e0f8ba1901e54f5570aa1c6fcb01",
         "edd345b4be938e3bcaf09a3469fad1533d66c4f418ee1678bfd22edcbf63dd0a"),
    ),
    "last-years": (
        CorpusConfig(seed=108, n_journals=6, first_year=9996, last_year=9999, rename_probability=0.5,
                     lag=LagModel(short_days=(0, 0), long_days=(0, 0))),
        ("1b79be27b60ae6e459c8e7f2d008e580fae6cd3216f6d4f32e9a743a08c98486",
         "f5b4cc8b051f8340a4981e33b43a36dbe483ca6191f94eded92ddba275a781db",
         "ed444904c3c4e27e48a8ff52063d33fc10580fef2d578606a16ea4ed8372510f"),
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_corpus_digests(tmp_path, name):
    config, digests = GOLDEN[name]
    paths = generate_corpus(config, tmp_path / name)
    got = tuple(hashlib.sha256(_read(path)).hexdigest()
                for path in (paths.sources_path, paths.publications_path, paths.links_path))
    assert got == digests


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 64), ns=st.lists(st.integers(1, 2 ** 34), min_size=1, max_size=8),
       ranges=st.lists(st.tuples(st.integers(-2 ** 34, 2 ** 34), st.integers(0, 2 ** 34)), min_size=1, max_size=8))
@example(seed=0, ns=[1, 2 ** 32, 2 ** 32 + 1], ranges=[(0, 0), (7, 0), (-3, 2 ** 32)])
def test_draws_below_are_randrange_and_randint(seed, ns, ranges):
    """The generator draws through _draw_below, not randrange and randint:
    from equal seeds it gives the library's values and leaves the stream in
    the library's state, below 1 and past 2**32, and for lo == hi."""
    ours, library = random.Random(seed), random.Random(seed)
    assert [_draw_below(ours.getrandbits, n, n.bit_length()) for n in ns] == [library.randrange(n) for n in ns]
    assert ours.getstate() == library.getstate()
    assert ([lo + _draw_below(ours.getrandbits, width + 1, (width + 1).bit_length()) for lo, width in ranges]
            == [library.randint(lo, lo + width) for lo, width in ranges])
    assert ours.getstate() == library.getstate()


@st.composite
def small_configs(draw):
    """Small configs over the edges the templates must get right: the first
    and last years a date holds, zero rates, no and all in-press records,
    and renames."""
    first_year = draw(st.sampled_from([1, 2015, 9996]))
    last_year = min(date.max.year, first_year + draw(st.integers(0, 3)))
    room = (date.max - date(last_year, 12, 31)).days
    long_lo = draw(st.integers(0, min(room, 30)))
    lag = LagModel(short_weight=draw(st.sampled_from([0.0, 0.5, 1.0])),
                   short_days=(0, draw(st.integers(0, min(room, 14)))),
                   long_days=(long_lo, draw(st.integers(long_lo, min(room, 300)))))
    return CorpusConfig(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        n_journals=draw(st.integers(1, 4)),
        first_year=first_year,
        last_year=last_year,
        pubs_per_year_mean=draw(st.sampled_from([0, 0.5, 3.0])),
        citation_rate=draw(st.sampled_from([0, 1.0, 4.0])),
        lag=lag,
        aip_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
        rename_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
        n_categories=draw(st.integers(1, 4)),
    )


@settings(max_examples=300, deadline=None)
@given(small_configs())
def test_every_generated_line_is_its_canonical_line(config):
    """Publication and link lines are written from per-kind templates, not
    by canonical_line: each line must still be exactly the canonical line
    of the record it holds, and each load date a zero-padded ISO date."""
    with tempfile.TemporaryDirectory() as out:
        paths = generate_corpus(config, out)
        for path in (paths.sources_path, paths.publications_path, paths.links_path):
            for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
                record = json.loads(line)
                assert line == canonical_line(record) + "\n"
                if "load_date" in record:
                    assert parse_date(record["load_date"]).isoformat() == record["load_date"]


def test_generator_memory_stays_below_its_output(tmp_path):
    """Records are written as they are drawn: the traced peak of a near-cap
    shaped corpus stays below the bytes written, where holding every record
    until the end cost several times them."""
    config = CorpusConfig(seed=20250810, n_journals=40, first_year=2012, last_year=2018, pubs_per_year_mean=13.5,
                          citation_rate=6.2, aip_fraction=0.2, rename_probability=0.15, n_categories=10)
    tracemalloc.start()
    try:
        paths = generate_corpus(config, tmp_path / "corpus")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(path.stat().st_size for path in (paths.sources_path, paths.publications_path, paths.links_path))
    assert peak < written


@pytest.mark.parametrize("kwargs", [
    dict(pubs_per_year_mean=float("nan")),
    dict(citation_rate=float("inf")),
    dict(pubs_per_year_mean=10 ** 400),
    dict(first_year=0, last_year=1),
    dict(first_year=9999, last_year=10000),
    dict(first_year=9999, last_year=9999),
    dict(lag=LagModel(long_days=(1, 10 ** 11))),
    dict(lag={"short_days": (1, 2)}),
], ids=["nan-mean", "infinite-rate", "huge-int-mean", "year-zero", "year-10000", "lag-past-9999",
        "huge-lag", "lag-not-a-model"])
def test_configs_that_cannot_be_drawn_are_rejected_before_output(tmp_path, kwargs):
    """validate() admits only configs whose every draw succeeds, so no
    partial file is left: without it a NaN or infinite mean loops forever,
    and a year or load date out of range fails part way."""
    out = tmp_path / "never"
    with pytest.raises((TypeError, ValueError)):
        generate_corpus(CorpusConfig(seed=1, n_journals=2, **kwargs), out)
    assert not out.exists()
