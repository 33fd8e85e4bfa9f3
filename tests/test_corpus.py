"""The seeded corpus generator."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import pytest

import citescore.index as index_module
from citescore import CorpusConfig, LagModel, generate_corpus, load_index
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
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_corpus_digests(tmp_path, name):
    config, digests = GOLDEN[name]
    paths = generate_corpus(config, tmp_path / name)
    got = tuple(hashlib.sha256(_read(path)).hexdigest()
                for path in (paths.sources_path, paths.publications_path, paths.links_path))
    assert got == digests


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
