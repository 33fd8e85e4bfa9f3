"""Hand-built record corpora for the unit tests."""

from __future__ import annotations

import json
import random
from datetime import date, timedelta

from citescore import CorpusConfig, generate_corpus, ingest, load_index, snapshot


def source_line(
    source_id,
    title=None,
    source_type="journal",
    asjc=(1000,),
    active=True,
    predecessor=None,
    **extra,
):
    obj = {
        "source_id": source_id,
        "title": title if title is not None else f"Journal {source_id}",
        "source_type": source_type,
        "asjc_codes": list(asjc),
        "is_actively_indexed": active,
    }
    if predecessor is not None:
        obj["predecessor_source_id"] = predecessor
    obj.update(extra)
    return json.dumps(obj)


def pub_line(
    pub_id,
    source_id,
    sort_year,
    load_date="2015-01-10",
    doc_type="article",
    aip=False,
    **extra,
):
    obj = {
        "pub_id": pub_id,
        "source_id": source_id,
        "sort_year": sort_year,
        "load_date": load_date,
        "doc_type": doc_type,
        "is_article_in_press": aip,
    }
    obj.update(extra)
    return json.dumps(obj)


def link_line(citing, cited, **extra):
    obj = {"citing_pub_id": citing, "cited_pub_id": cited}
    obj.update(extra)
    return json.dumps(obj)


def build_index(sources, pubs, links):
    return ingest(sources, pubs, links)


def build_snapshot(sources, pubs, links, cutoff=date(2099, 1, 1)):
    """Index the records and freeze a view; the default cutoff keeps everything."""
    index, report = ingest(sources, pubs, links)
    return snapshot(index, cutoff), report


def write_corpus(tmp_path, sources, pubs, links):
    paths = []
    for name, lines in (("sources", sources), ("publications", pubs), ("links", links)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        paths.append(path)
    return tuple(paths)


def differential_index(tmp_path, seed):
    """A generated index with renames, articles-in-press and links whose two
    endpoints load on different dates, either one first, plus one source with
    no publications.

    Returns (index, empty_source_id, cutoffs): the cutoffs are the day before
    the first load, six exact load dates (the last load among them), the day
    after the last load and date.max.
    """
    cfg = CorpusConfig(seed=seed, n_journals=6, pubs_per_year_mean=4.0, aip_fraction=0.3,
                       rename_probability=0.5)
    paths = generate_corpus(cfg, tmp_path / "corpus")
    sources = [json.loads(line) for line in paths.sources_path.read_text(encoding="utf-8").splitlines()]
    empty = 1 + max(source["source_id"] for source in sources)
    with paths.sources_path.open("a", encoding="utf-8") as handle:
        handle.write(source_line(empty, title="No Publications") + "\n")
    # Generated citations mostly load after what they cite; add documents that load
    # on the last day of their citing year, after most of their citations.
    pubs = [json.loads(line) for line in paths.publications_path.read_text(encoding="utf-8").splitlines()]
    rng = random.Random(seed)
    with paths.publications_path.open("a", encoding="utf-8") as pub_file, \
            paths.links_path.open("a", encoding="utf-8") as link_file:
        for year in (2016, 2017, 2018):
            citers = [pub["pub_id"] for pub in pubs
                      if pub["sort_year"] == year and not pub["is_article_in_press"]]
            for source in sources:
                late = f"late-{source['source_id']}-{year}"
                pub_file.write(pub_line(late, source["source_id"], year - 1, load_date=f"{year}-12-31") + "\n")
                for citing in rng.sample(citers, 3):
                    link_file.write(link_line(citing, late) + "\n")

    index, _ = load_index(paths.sources_path, paths.publications_path, paths.links_path)
    pubs = index.publications
    assert any(index.successor.values())
    assert any(record.is_article_in_press for record in pubs.values())
    assert any(pubs[citing].load_date > pubs[cited].load_date for citing, cited in index.links)
    assert any(pubs[citing].load_date < pubs[cited].load_date for citing, cited in index.links)
    loads = sorted({record.load_date for record in pubs.values()})
    cutoffs = [
        loads[0] - timedelta(days=1),
        *sorted(rng.sample(loads[:-1], 5)),
        loads[-1],
        loads[-1] + timedelta(days=1),
        date.max,
    ]
    return index, empty, cutoffs


def brute_force_view(index, cutoff):
    """(publication items, links) of the full index at a cutoff, in index
    order, filtered record by record."""
    publications = [(pid, record) for pid, record in index.publications.items()
                    if record.load_date <= cutoff]
    kept = dict(publications)
    links = [(citing, cited) for citing, cited in index.links if citing in kept and cited in kept]
    return publications, links
