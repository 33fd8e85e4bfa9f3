"""Deterministic synthetic corpora for differential testing.

Everything is drawn from one seeded random.Random stream in a fixed order,
so a (seed, config) pair always produces byte-identical record files. The
shapes are loosely realistic (skewed journal attractiveness, a mixture of
fast and slow indexing lags, occasional mid-span renames) because degenerate
corpora make weak differential tests, but no fit to any real index is
implied or attempted.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass, field, fields, asdict
from datetime import date, timedelta
from itertools import accumulate
from pathlib import Path

# One record as a line of the generator's byte form (sorted keys, no spaces):
# the input form index.ingest reads by pattern, and every other one more slowly.
canonical_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_DOC_TYPE_CHOICES = [
    ("article", 0.68),
    ("review", 0.08),
    ("conference-paper", 0.06),
    ("editorial", 0.04),
    ("letter", 0.04),
    ("note", 0.03),
    ("short-survey", 0.03),
    ("erratum", 0.02),
    ("book-chapter", 0.01),
    ("other", 0.01),
]

_SOURCE_TYPE_CHOICES = [
    ("journal", 0.82),
    ("trade-journal", 0.06),
    ("book-series", 0.05),
    ("conference-proceedings-serial", 0.03),
    ("standalone-book", 0.02),
    ("standalone-proceedings", 0.02),
]

_TITLE_FIELDS = [
    "Synthetic Studies", "Applied Placeholders", "Imaginary Systems",
    "Fictional Methods", "Generated Data", "Sample Analysis",
    "Modelled Phenomena", "Benchmark Research", "Simulated Records",
    "Test Collections",
]


@dataclass(frozen=True)
class LagModel:
    """Indexing lag mixture: most records land within days, a slow tail
    (print digitisation, batch feeds) takes months."""

    short_weight: float = 0.95
    short_days: tuple[int, int] = (1, 14)
    long_days: tuple[int, int] = (30, 300)

    def validate(self) -> None:
        if not 0.0 <= self.short_weight <= 1.0:
            raise ValueError("short_weight must be within [0, 1]")
        for lo, hi in (self.short_days, self.long_days):
            if lo < 0 or hi < lo:
                raise ValueError("lag day ranges must satisfy 0 <= lo <= hi")


@dataclass(frozen=True)
class CorpusConfig:
    seed: int
    n_journals: int = 20
    first_year: int = 2012
    last_year: int = 2018
    pubs_per_year_mean: float = 6.0
    citation_rate: float = 2.0
    lag: LagModel = field(default_factory=LagModel)
    aip_fraction: float = 0.1
    rename_probability: float = 0.1
    n_categories: int = 6

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = {"int": int, "float": (int, float)}.get(f.type)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                raise TypeError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.n_journals < 1:
            raise ValueError("n_journals must be at least 1")
        if self.last_year < self.first_year:
            raise ValueError("year span is empty")
        if self.pubs_per_year_mean < 0:
            raise ValueError("pubs_per_year_mean must be non-negative")
        if self.citation_rate < 0:
            raise ValueError("citation_rate must be non-negative")
        for name in ("aip_fraction", "rename_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if not 1 <= self.n_categories <= 90:
            raise ValueError("n_categories must be within [1, 90]")
        self.lag.validate()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> CorpusConfig:
        data = dict(data)
        lag = data.pop("lag", None)
        if lag is not None:
            if not isinstance(lag, dict):
                raise TypeError(f"lag must be an object, got {lag!r}")
            data["lag"] = LagModel(
                **{key: tuple(value) if key.endswith("_days") else value for key, value in lag.items()}
            )
        return cls(**data)


@dataclass(frozen=True)
class GeneratedCorpus:
    sources_path: Path
    publications_path: Path
    links_path: Path


def _exp_neg(x: float) -> float:
    """exp(-x) for x >= 0 using only +,*,/ so the value is bit-identical on
    every IEEE-754 platform; libm exp may differ by an ulp and a corpus must
    not depend on which libm generated it."""
    halvings = 0
    while x > 0.5:
        x /= 2.0
        halvings += 1
    total = 1.0
    term = 1.0
    k = 1
    while True:
        term *= -x / k
        if total + term == total:
            break
        total += term
        k += 1
    for _ in range(halvings):
        total *= total
    return total


def _poisson(rng: random.Random, mean: float) -> int:
    if mean <= 0:
        return 0
    threshold = _exp_neg(mean)
    k = 0
    product = rng.random()
    while product > threshold:
        product *= rng.random()
        k += 1
    return k


def _weighted_choice(rng: random.Random, cumulative: list[float]) -> int:
    return bisect_right(cumulative, rng.random() * cumulative[-1])


def _pick(rng: random.Random, table: list[tuple[str, float]]) -> str:
    roll = rng.random()
    acc = 0.0
    for value, weight in table:
        acc += weight
        if roll < acc:
            return value
    return table[-1][0]


@dataclass
class _Journal:
    current_id: int
    former_id: int | None
    rename_year: int | None
    title: str
    source_type: str
    active: bool
    asjc: list[int]
    attractiveness: float

    def source_for_year(self, year: int) -> int:
        if self.former_id is not None and year < self.rename_year:
            return self.former_id
        return self.current_id


def generate_corpus(config: CorpusConfig, out_dir: str | Path) -> GeneratedCorpus:
    """Write sources/publications/links record files for the given config."""
    config.validate()
    rng = random.Random(config.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    codes = [1000 + 100 * i for i in range(config.n_categories)]
    years = list(range(config.first_year, config.last_year + 1))

    journals: list[_Journal] = []
    next_id = 10001
    for j in range(config.n_journals):
        field_name = _TITLE_FIELDS[j % len(_TITLE_FIELDS)]
        title = f"Journal of {field_name} {j + 1}"
        source_type = _pick(rng, _SOURCE_TYPE_CHOICES)
        active = rng.random() < 0.95
        asjc = sorted(rng.sample(codes, k=rng.randint(1, min(3, len(codes)))))
        # Skewed attractiveness without lognormvariate: its libm calls are
        # not bit-stable across platforms, plain multiplication is.
        draw = rng.random()
        squared = draw * draw
        attractiveness = 0.05 + 20.0 * squared * squared
        renamed = rng.random() < config.rename_probability and len(years) >= 2
        current_id = next_id
        next_id += 1
        former_id = None
        rename_year = None
        if renamed:
            former_id = next_id
            next_id += 1
            rename_year = rng.randint(config.first_year + 1, config.last_year)
        journals.append(
            _Journal(
                current_id=current_id,
                former_id=former_id,
                rename_year=rename_year,
                title=title,
                source_type=source_type,
                active=active,
                asjc=asjc,
                attractiveness=attractiveness,
            )
        )

    publications: list[dict] = []
    # (journal index, sort_year) -> pub ids, for citation target selection.
    pubs_by_journal_year: dict[tuple[int, int], list[str]] = {}
    pub_counter = 0
    aip_first_year = config.last_year - 1  # "recent" spans the last two years
    for j_index, journal in enumerate(journals):
        for year in years:
            for _ in range(_poisson(rng, config.pubs_per_year_mean)):
                pub_counter += 1
                pub_id = f"p{pub_counter:07d}"
                day_of_year = rng.randrange(0, (date(year, 12, 31) - date(year, 1, 1)).days + 1)
                published = date(year, 1, 1) + timedelta(days=day_of_year)
                if rng.random() < config.lag.short_weight:
                    lag_days = rng.randint(*config.lag.short_days)
                else:
                    lag_days = rng.randint(*config.lag.long_days)
                is_aip = year >= aip_first_year and rng.random() < config.aip_fraction
                publications.append(
                    {
                        "pub_id": pub_id,
                        "source_id": journal.source_for_year(year),
                        "sort_year": year,
                        "load_date": (published + timedelta(days=lag_days)).isoformat(),
                        "doc_type": _pick(rng, _DOC_TYPE_CHOICES),
                        "is_article_in_press": is_aip,
                    }
                )
                pubs_by_journal_year.setdefault((j_index, year), []).append(pub_id)

    # Per citing year: the journals with in-window targets, their pooled pub
    # ids, and cumulative attractiveness weights. Built once per year so link
    # generation stays linear in the corpus size.
    targets_by_year: dict[int, tuple[list[list[str]], list[float]]] = {}
    for citing_year in years:
        window = range(citing_year - 3, citing_year)
        pools: list[list[str]] = []
        pool_weights: list[float] = []
        for j_index, journal in enumerate(journals):
            pool = [pid for y in window for pid in pubs_by_journal_year.get((j_index, y), [])]
            if pool:
                pools.append(pool)
                pool_weights.append(journal.attractiveness)
        if pools:
            targets_by_year[citing_year] = (pools, list(accumulate(pool_weights)))

    links: list[dict] = []
    for record in publications:
        if record["is_article_in_press"]:
            continue
        candidates = targets_by_year.get(record["sort_year"])
        if candidates is None:
            continue
        pools, cumulative = candidates
        n_refs = _poisson(rng, config.citation_rate)
        chosen: set[str] = set()
        for _ in range(n_refs):
            pool = pools[_weighted_choice(rng, cumulative)]
            target = pool[rng.randrange(len(pool))]
            if target in chosen:
                continue
            chosen.add(target)
            links.append({"citing_pub_id": record["pub_id"], "cited_pub_id": target})

    sources: list[dict] = []
    for journal in journals:
        if journal.former_id is not None:
            sources.append(
                {
                    "source_id": journal.former_id,
                    "title": f"{journal.title} (former title)",
                    "source_type": journal.source_type,
                    "asjc_codes": journal.asjc,
                    "is_actively_indexed": journal.active,
                }
            )
        current = {
            "source_id": journal.current_id,
            "title": journal.title,
            "source_type": journal.source_type,
            "asjc_codes": journal.asjc,
            "is_actively_indexed": journal.active,
        }
        if journal.former_id is not None:
            current["predecessor_source_id"] = journal.former_id
        sources.append(current)
    sources.sort(key=lambda s: s["source_id"])

    paths = GeneratedCorpus(
        sources_path=out / "sources.jsonl",
        publications_path=out / "publications.jsonl",
        links_path=out / "links.jsonl",
    )
    _write_jsonl(paths.sources_path, sources)
    _write_jsonl(paths.publications_path, publications)
    _write_jsonl(paths.links_path, links)
    return paths


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(canonical_line(record) + "\n")
