"""The seeded corpus generator."""

from __future__ import annotations

import json

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
