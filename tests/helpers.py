"""Hand-built record corpora for the unit tests, and references built from
raw lines."""

from __future__ import annotations

import json
import random
from datetime import date, timedelta
from typing import NamedTuple

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


class Pub(NamedTuple):
    """A publication as the engine keeps it."""

    pub_id: str
    source_id: int
    sort_year: int
    load_date: date
    is_article_in_press: bool


class Reference(NamedTuple):
    """Records decoded from raw lines with json.loads, without engine code:
    sources by source_id as decoded objects, publications by pub_id and
    links as (citing_pub_id, cited_pub_id) pairs, both in file order."""

    sources: dict
    publications: dict
    links: list


def reference_records(source_lines, publication_lines, link_lines):
    """What ingest accepts from well-formed lines, filtered record by record:
    every source; every publication of a known source; and the first of each
    link between two such publications that is no self-citation and whose
    citing publication is not in press."""
    sources = {obj["source_id"]: obj for obj in map(json.loads, source_lines)}
    publications = {
        obj["pub_id"]: Pub(obj["pub_id"], obj["source_id"], obj["sort_year"],
                           date.fromisoformat(obj["load_date"]), obj["is_article_in_press"])
        for obj in map(json.loads, publication_lines)
        if obj["source_id"] in sources
    }
    links, seen = [], set()
    for obj in map(json.loads, link_lines):
        pair = citing, cited = obj["citing_pub_id"], obj["cited_pub_id"]
        if citing in publications and cited in publications and citing != cited \
                and not publications[citing].is_article_in_press and pair not in seen:
            seen.add(pair)
            links.append(pair)
    return Reference(sources, publications, links)


def read_reference(paths):
    """reference_records of the three files of a corpus."""
    return reference_records(*(path.read_text(encoding="utf-8").splitlines() for path in paths))


def stored(view, pub_ids):
    """What ingest kept, as far as the view's cutoff, read from the columns
    of the view's record store, each ordinal named by pub_ids: the accepted
    ids in ingest order, from the test's own reference, as many as the store
    holds. Gives its publications by pub_id, in ingest order, and its links
    as (citing_pub_id, cited_pub_id) pairs, in store order."""
    store = view.store
    loaded = [date.fromordinal(day) <= view.cutoff for day in store.load_days]
    pub_ids = list(pub_ids)
    assert len(pub_ids) == len(store.source_ids)
    columns = zip(pub_ids, store.source_ids, store.sort_years, store.load_days, store.in_press, loaded)
    publications = {
        pub_id: Pub(pub_id, source_id, sort_year, date.fromordinal(day), aip)
        for pub_id, source_id, sort_year, day, aip, kept in columns
        if kept
    }
    links = [(pub_ids[citing], pub_ids[cited])
             for citing, cited in zip(store.citing, store.cited) if loaded[citing] and loaded[cited]]
    return publications, links


def differential_index(tmp_path, seed):
    """A generated index with renames, articles-in-press and links whose two
    endpoints load on different dates, either one first, plus one source with
    no publications.

    Returns (index, reference, empty_source_id, cutoffs): the reference is
    read_reference of the index's files; the cutoffs are the day before the
    first load, six exact load dates (the last load among them), the day
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

    files = (paths.sources_path, paths.publications_path, paths.links_path)
    index, _ = load_index(*files)
    reference = read_reference(files)
    pubs = reference.publications
    assert any(source.get("predecessor_source_id") is not None for source in reference.sources.values())
    assert any(record.is_article_in_press for record in pubs.values())
    assert any(pubs[citing].load_date > pubs[cited].load_date for citing, cited in reference.links)
    assert any(pubs[citing].load_date < pubs[cited].load_date for citing, cited in reference.links)
    loads = sorted({record.load_date for record in pubs.values()})
    cutoffs = [
        loads[0] - timedelta(days=1),
        *sorted(rng.sample(loads[:-1], 5)),
        loads[-1],
        loads[-1] + timedelta(days=1),
        date.max,
    ]
    return index, reference, empty, cutoffs


def brute_force_view(reference, cutoff):
    """(publications by pub_id, links) of the reference at a cutoff, in file
    order, filtered record by record."""
    publications = {pub_id: record for pub_id, record in reference.publications.items()
                    if record.load_date <= cutoff}
    links = [(citing, cited) for citing, cited in reference.links
             if citing in publications and cited in publications]
    return publications, links


class ChainError(Exception):
    """A title chain check's rejection, with the engine's message."""


def three_pass_chains(predecessors):
    """The title-chain check as three passes over {source_id: predecessor}
    in file order: drop each dangling pointer with a warning, reject the
    first shared predecessor, then walk back from every source on its own
    to reject the first cycle. Returns (successor map, predecessors kept,
    warnings); raises ChainError."""
    kept = dict(predecessors)
    warnings = []
    for sid, pred in kept.items():
        if pred is not None and pred not in kept:
            warnings.append(f"source {sid}: predecessor_source_id {pred} does not exist, pointer dropped")
            kept[sid] = None
    successor = {}
    for sid, pred in kept.items():
        if pred is None:
            continue
        if pred in successor:
            raise ChainError(f"sources {successor[pred]} and {sid} share predecessor {pred}; "
                             "title chains must be linear")
        successor[pred] = sid
    for sid in kept:
        seen = {sid}
        current = kept[sid]
        while current is not None:
            if current in seen:
                raise ChainError(f"predecessor cycle detected at source {current}")
            seen.add(current)
            current = kept[current]
    return successor, kept, warnings
