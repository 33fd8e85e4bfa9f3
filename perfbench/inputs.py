"""Seeded inputs for the benchmark workloads.

Every corpus comes from ``citescore.generate_corpus`` with the run's seed, so
the same seed always gives the same files. The wide corpus can then be
dirtied: a fixed mix of rejection classes rewrites about 2% of each file's
lines, plus unknown fields and duplicated links. The hard-abort classes
(duplicate ids, shared predecessors, predecessor cycles) are left out
because they end a run instead of measuring it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from citescore import CorpusConfig, generate_corpus

# The near-cap acceptance corpus of tests/test_acceptance.py, minus its
# journal count, which depends on the size.
NEARCAP = dict(
    first_year=2012,
    last_year=2018,
    pubs_per_year_mean=13.5,
    citation_rate=6.2,
    aip_fraction=0.2,
    rename_probability=0.15,
    n_categories=10,
)
# Few categories holding thousands of titles each, as large real ones do.
# The years cover just the 2017 cited window and citing year, so ingest
# stays a minor share next to the standings.
WIDE = dict(first_year=2014, last_year=2017, pubs_per_year_mean=1.5, n_categories=2)

SHAPES = {"nearcap": NEARCAP, "wide": WIDE}

DIRT_RATE = 0.02

# Rejection classes per file, applied round-robin so the mix is fixed.
# "unknown_field" lines are accepted with a warning; "duplicate" adds a
# second copy of a link, which ingest collapses.
DIRT_CLASSES = {
    "sources": ["bad_json", "not_object", "missing_field", "bad_type",
                "unknown_source_type", "bad_asjc", "unknown_field"],
    "publications": ["bad_json", "missing_field", "bad_type", "bad_date_format",
                     "impossible_date", "unknown_doc_type", "unknown_source",
                     "unknown_field"],
    "links": ["bad_json", "missing_field", "bad_type", "self_citation", "dangling",
              "citing_aip", "unknown_field", "duplicate"],
}


def make_corpus(shape: str, seed: int, n_journals: int, out_dir: Path):
    """Write the three record files; returns (sources, publications, links) paths."""
    paths = generate_corpus(CorpusConfig(seed=seed, n_journals=n_journals, **SHAPES[shape]), out_dir)
    return paths.sources_path, paths.publications_path, paths.links_path


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _dirty_source(kind: str, line: str) -> list[str]:
    obj = json.loads(line)
    if kind == "bad_json":
        return [line[: len(line) // 2] + "\n"]
    if kind == "not_object":
        return ["[" + str(obj["source_id"]) + "]\n"]
    if kind == "missing_field":
        del obj["title"]
    elif kind == "bad_type":
        obj["source_id"] = str(obj["source_id"])
    elif kind == "unknown_source_type":
        obj["source_type"] = "magazine"
    elif kind == "bad_asjc":
        obj["asjc_codes"] = [12]
    elif kind == "unknown_field":
        obj["x_note"] = "extra"
    return [_dump(obj)]


def _dirty_publication(kind: str, line: str) -> list[str]:
    obj = json.loads(line)
    if kind == "bad_json":
        return [line[: len(line) // 2] + "\n"]
    if kind == "missing_field":
        del obj["doc_type"]
    elif kind == "bad_type":
        obj["sort_year"] = str(obj["sort_year"])
    elif kind == "bad_date_format":
        obj["load_date"] = obj["load_date"].replace("-", "/")
    elif kind == "impossible_date":
        obj["load_date"] = obj["load_date"][:4] + "-02-30"
    elif kind == "unknown_doc_type":
        obj["doc_type"] = "preprint"
    elif kind == "unknown_source":
        obj["source_id"] = 99_999_999
    elif kind == "unknown_field":
        obj["x_note"] = "extra"
    return [_dump(obj)]


def _dirty_link(kind: str, line: str, aip_ids: list[str], rng: random.Random) -> list[str]:
    obj = json.loads(line)
    if kind == "bad_json":
        return [line[: len(line) // 2] + "\n"]
    if kind == "duplicate":
        return [line, line]
    if kind == "missing_field":
        del obj["cited_pub_id"]
    elif kind == "bad_type":
        obj["cited_pub_id"] = 123
    elif kind == "self_citation":
        obj["cited_pub_id"] = obj["citing_pub_id"]
    elif kind == "dangling":
        obj["cited_pub_id"] = "p_missing_" + obj["cited_pub_id"]
    elif kind == "citing_aip":
        obj["citing_pub_id"] = aip_ids[rng.randrange(len(aip_ids))]
    elif kind == "unknown_field":
        obj["x_note"] = "extra"
    return [_dump(obj)]


def inject_dirt(paths, seed: int) -> Counter:
    """Rewrite about DIRT_RATE of each file's lines in place; returns the
    count per "<file>.<class>"."""
    rng = random.Random(f"dirt-{seed}")
    counts: Counter = Counter()
    aip_ids: list[str] = []
    for (name, classes), path in zip(DIRT_CLASSES.items(), paths):
        lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
        n_dirty = min(len(lines), max(len(classes), round(DIRT_RATE * len(lines))))
        picked = rng.sample(range(len(lines)), n_dirty)
        kind_of = {index: classes[i % len(classes)] for i, index in enumerate(picked)}
        out: list[str] = []
        for index, line in enumerate(lines):
            kind = kind_of.get(index)
            if kind is None:
                out.append(line)
                if name == "publications" and '"is_article_in_press":true' in line:
                    aip_ids.append(json.loads(line)["pub_id"])
                continue
            if kind == "citing_aip" and not aip_ids:
                kind = "dangling"
            counts[f"{name}.{kind}"] += 1
            if name == "sources":
                out.extend(_dirty_source(kind, line))
            elif name == "publications":
                out.extend(_dirty_publication(kind, line))
            else:
                out.extend(_dirty_link(kind, line, aip_ids, rng))
        Path(path).write_text("".join(out), encoding="utf-8")
    return counts


def main(spec_path: str) -> None:
    """Make one workload's inputs and write the time it took, the record
    count, the dirt counts and a digest of the files to stdout.

    Runs as its own process so that the benchmark process stays small:
    Linux carries a process's peak RSS over into the children it starts."""
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    start = perf_counter()
    paths = make_corpus(spec["shape"], spec["seed"], spec["journals"], Path(spec["out"]))
    generate_s = perf_counter() - start
    records = sum(len(path.read_bytes().splitlines()) for path in paths)
    start = perf_counter()
    dirt = inject_dirt(paths, spec["seed"]) if spec["dirty"] else Counter()
    setup_s = generate_s + perf_counter() - start
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    json.dump({"generate_s": generate_s, "setup_s": setup_s, "records": records,
               "dirt": dict(sorted(dirt.items())), "digest": digest.hexdigest(),
               "corpus": [str(path) for path in paths]}, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1])
