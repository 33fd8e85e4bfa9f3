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
import sys
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field, fields, asdict
from datetime import date
from itertools import accumulate
from pathlib import Path

# One record as a line of the generator's byte form (sorted keys, no spaces):
# the input form index.ingest reads by pattern, and every other one more slowly.
# The generator writes sources with it; publication and link lines come from
# the per-kind templates below, which a test holds to this definition.
canonical_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# canonical_line's bytes for the two bulk kinds, keys in sorted order. Every
# value is one the generator made (ids, ints, ISO dates, doc types, bools),
# none of which JSON escapes.
_PUBLICATION_LINE = (
    '{"doc_type":"%s","is_article_in_press":%s,"load_date":"%s","pub_id":"%s","sort_year":%d,"source_id":%d}\n'
)
_LINK_LINE = '{"cited_pub_id":"%s","citing_pub_id":"%s"}\n'

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


def _choices(table: list[tuple[str, float]]) -> tuple[tuple[str, ...], list[float]]:
    """A table's values and the running totals of its weights but the last:
    values[bisect_right(bounds, roll)] is the first value whose running total
    exceeds roll, and the last value for a roll past every bound."""
    values, weights = zip(*table)
    return values, list(accumulate(weights))[:-1]


_DOC_TYPES, _DOC_TYPE_BOUNDS = _choices(_DOC_TYPE_CHOICES)
_SOURCE_TYPES, _SOURCE_TYPE_BOUNDS = _choices(_SOURCE_TYPE_CHOICES)

_TITLE_FIELDS = [
    "Synthetic Studies", "Applied Placeholders", "Imaginary Systems",
    "Fictional Methods", "Generated Data", "Sample Analysis",
    "Modelled Phenomena", "Benchmark Research", "Simulated Records",
    "Test Collections",
]


# What each annotation of a config field admits, and how to say it. A bool
# is never a number here, and a float must be finite: the draws loop forever
# on an infinite or NaN mean.
_KINDS = {
    "int": (lambda value: type(value) is int, "an integer"),
    "float": (lambda value: type(value) in (int, float) and abs(value) <= sys.float_info.max, "a finite number"),
    "tuple[int, int]": (lambda value: type(value) is tuple and len(value) == 2 and all(type(v) is int for v in value),
                        "a pair of integers"),
    "LagModel": (lambda value: type(value) is LagModel, "a lag object"),
}


def _check_types(config) -> None:
    """Raise TypeError naming the first field of a config dataclass whose
    value its annotation does not admit."""
    for f in fields(config):
        value = getattr(config, f.name)
        admits, kind = _KINDS[f.type]
        if not admits(value):
            raise TypeError(f"{f.name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class LagModel:
    """Indexing lag mixture: most records land within days, a slow tail
    (print digitisation, batch feeds) takes months."""

    short_weight: float = 0.95
    short_days: tuple[int, int] = (1, 14)
    long_days: tuple[int, int] = (30, 300)

    def validate(self) -> None:
        _check_types(self)
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
        """Raise TypeError or ValueError for a config that the generator
        cannot draw in full, so that no draw fails once files are open."""
        _check_types(self)
        self.lag.validate()
        if self.n_journals < 1:
            raise ValueError("n_journals must be at least 1")
        if not date.min.year <= self.first_year <= self.last_year <= date.max.year:
            raise ValueError("years must satisfy 1 <= first_year <= last_year <= 9999")
        if (date.max - date(self.last_year, 12, 31)).days < max(self.lag.short_days[1], self.lag.long_days[1]):
            raise ValueError("the longest lag after last_year would load a record past 9999-12-31")
        for name in ("pubs_per_year_mean", "citation_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("aip_fraction", "rename_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if not 1 <= self.n_categories <= 90:
            raise ValueError("n_categories must be within [1, 90]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> CorpusConfig:
        """The config a JSON object gives: a lag object is read as a
        LagModel and each list in it as a tuple; validate() checks types."""
        data = dict(data)
        lag = data.pop("lag", None)
        if isinstance(lag, dict):
            lag = LagModel(**{key: tuple(value) if isinstance(value, list) else value for key, value in lag.items()})
        if lag is not None:
            data["lag"] = lag
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


def _poisson_sampler(rng: random.Random, mean: float) -> Callable[[], int]:
    """A function that draws a Poisson(mean) count from rng; exp(-mean) is
    computed once here. A mean of 0 draws nothing and gives 0."""
    if mean <= 0:
        return lambda: 0
    threshold = _exp_neg(mean)
    uniform = rng.random

    def draw() -> int:
        k = 0
        product = uniform()
        while product > threshold:
            product *= uniform()
            k += 1
        return k

    return draw


def _draw_below(getrandbits: Callable[[int], int], n: int, bits: int) -> int:
    """A draw in [0, n) for n >= 1 with bits = n.bit_length(), made as
    randrange(n) makes it on CPython 3.10-3.13: getrandbits(bits), drawn
    again while the result is >= n. randint(lo, hi) is lo plus a draw below
    hi - lo + 1. Calling getrandbits directly skips randrange's argument
    checks and its call through Random._randbelow while consuming the stream
    exactly as randrange does; a test holds both to the library's draws."""
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def generate_corpus(config: CorpusConfig, out_dir: str | Path) -> GeneratedCorpus:
    """Write sources/publications/links record files for the given config.
    Records are written as they are drawn, one write per journal-year, so
    memory grows with the publications, not with the links."""
    config.validate()
    rng = random.Random(config.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = GeneratedCorpus(out / "sources.jsonl", out / "publications.jsonl", out / "links.jsonl")

    codes = [1000 + 100 * i for i in range(config.n_categories)]
    years = list(range(config.first_year, config.last_year + 1))

    # Source ids ascend in journal order, a renamed journal's current id just
    # before its former one, so the file is in id order as it is written.
    journals: list[tuple[int, int]] = []  # (current source id, its first year)
    attractiveness: list[float] = []
    next_id = 10001
    with open(paths.sources_path, "w", encoding="utf-8", newline="\n") as handle:
        for j in range(config.n_journals):
            source = {
                "source_id": next_id,
                "title": f"Journal of {_TITLE_FIELDS[j % len(_TITLE_FIELDS)]} {j + 1}",
                "source_type": _SOURCE_TYPES[bisect_right(_SOURCE_TYPE_BOUNDS, rng.random())],
                "is_actively_indexed": rng.random() < 0.95,
                "asjc_codes": sorted(rng.sample(codes, k=rng.randint(1, min(3, len(codes))))),
            }
            # Skewed attractiveness without lognormvariate: its libm calls are
            # not bit-stable across platforms, plain multiplication is.
            draw = rng.random()
            squared = draw * draw
            attractiveness.append(0.05 + 20.0 * squared * squared)
            if rng.random() < config.rename_probability and len(years) >= 2:
                journals.append((next_id, rng.randint(config.first_year + 1, config.last_year)))
                former = {**source, "source_id": next_id + 1, "title": f"{source['title']} (former title)"}
                source["predecessor_source_id"] = next_id + 1
                handle.write(canonical_line(source) + "\n" + canonical_line(former) + "\n")
                next_id += 2
            else:
                journals.append((next_id, config.first_year))
                handle.write(canonical_line(source) + "\n")
                next_id += 1

    getrandbits = rng.getrandbits
    uniform = rng.random

    # (journal index, sort_year) -> pub ids in drawing order, for citation
    # target selection and, in its insertion order, for the citing loop.
    pubs_by_journal_year: dict[tuple[int, int], list[str]] = {}
    in_press: set[str] = set()
    pub_counter = 0
    publication_count = _poisson_sampler(rng, config.pubs_per_year_mean)
    # Each year with its first day as an ordinal, its length in days and that
    # length's bit count; each lag range as (lo, width, width's bit count).
    year_days = []
    for year in years:
        n_days = date(year, 12, 31).timetuple().tm_yday
        year_days.append((year, date(year, 1, 1).toordinal(), n_days, n_days.bit_length()))
    short_weight = config.lag.short_weight
    short_lag, long_lag = [(lo, hi - lo + 1, (hi - lo + 1).bit_length())
                           for lo, hi in (config.lag.short_days, config.lag.long_days)]
    iso_dates: dict[int, str] = {}  # day ordinal -> its ISO date, formatted once
    aip_first_year = config.last_year - 1  # "recent" spans the last two years
    aip_fraction = config.aip_fraction
    with open(paths.publications_path, "w", encoding="utf-8", newline="\n") as handle:
        for j_index, (current_id, since) in enumerate(journals):
            for year, first_day, n_days, day_bits in year_days:
                # Before the rename the journal publishes under its former id.
                source_id = current_id if year >= since else current_id + 1
                year_ids: list[str] = []
                lines: list[str] = []
                for _ in range(publication_count()):
                    pub_counter += 1
                    pub_id = f"p{pub_counter:07d}"
                    day = _draw_below(getrandbits, n_days, day_bits)
                    lag_lo, lag_width, lag_bits = short_lag if uniform() < short_weight else long_lag
                    lag = _draw_below(getrandbits, lag_width, lag_bits)
                    loaded = first_day + day + lag_lo + lag
                    load_date = iso_dates.get(loaded)
                    if load_date is None:
                        load_date = iso_dates[loaded] = date.fromordinal(loaded).isoformat()
                    is_aip = year >= aip_first_year and uniform() < aip_fraction
                    lines.append(_PUBLICATION_LINE % (_DOC_TYPES[bisect_right(_DOC_TYPE_BOUNDS, uniform())],
                                                      "true" if is_aip else "false",
                                                      load_date, pub_id, year, source_id))
                    year_ids.append(pub_id)
                    if is_aip:
                        in_press.add(pub_id)
                if year_ids:
                    pubs_by_journal_year[j_index, year] = year_ids
                    handle.write("".join(lines))

    # Per citing year: the journals with in-window targets, their pooled pub
    # ids with each pool's size and its bit count, and cumulative
    # attractiveness weights. Built once per year so link generation stays
    # linear in the corpus size.
    targets_by_year: dict[int, tuple[list[tuple[list[str], int, int]], list[float]]] = {}
    for citing_year in years:
        window = range(citing_year - 3, citing_year)
        pools: list[tuple[list[str], int, int]] = []
        pool_weights: list[float] = []
        for j_index, weight in enumerate(attractiveness):
            pool = [pid for y in window for pid in pubs_by_journal_year.get((j_index, y), [])]
            if pool:
                pools.append((pool, len(pool), len(pool).bit_length()))
                pool_weights.append(weight)
        if pools:
            targets_by_year[citing_year] = (pools, list(accumulate(pool_weights)))

    # Publications cite in the order they were drawn; one in press cites nothing.
    citation_count = _poisson_sampler(rng, config.citation_rate)
    with open(paths.links_path, "w", encoding="utf-8", newline="\n") as handle:
        for (_, year), year_ids in pubs_by_journal_year.items():
            candidates = targets_by_year.get(year)
            if candidates is None:
                continue
            pools, cumulative = candidates
            total = cumulative[-1]
            lines = []
            for pub_id in year_ids:
                if pub_id in in_press:
                    continue
                chosen: set[str] = set()
                for _ in range(citation_count()):
                    pool, size, bits = pools[bisect_right(cumulative, uniform() * total)]
                    target = pool[_draw_below(getrandbits, size, bits)]
                    if target not in chosen:
                        chosen.add(target)
                        lines.append(_LINK_LINE % (target, pub_id))
            handle.write("".join(lines))
    return paths
