"""Independent reference computation for differential testing.

This module re-derives the complete metrics basket straight from the raw
record files and deliberately shares no code with the engine modules: it has
its own line parsing and rejection rules, its own cutoff filter, its own
title-chain walk (forward over successors instead of the engine's
predecessor closure), Decimal-quantize rounding instead of integer/rational
arithmetic, and a quadratic count-strictly-higher ranking. Only the standard
library is used. If this file and the engine ever agree by accident, the
accident has to happen twice.
"""

from __future__ import annotations

import csv
import json
import re
from datetime import date
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from math import floor
from pathlib import Path
from typing import Iterator

_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")

_VALID_DOC_TYPES = {
    "article", "review", "conference-paper", "editorial", "letter",
    "note", "short-survey", "erratum", "book-chapter", "other",
}
_VALID_SOURCE_TYPES = {
    "journal", "book-series", "trade-journal", "conference-proceedings-serial",
    "standalone-book", "standalone-proceedings",
}
_SCOREABLE_TYPES = {
    "journal", "book-series", "trade-journal", "conference-proceedings-serial",
}


class OracleDataError(Exception):
    """Raised on the same hard failures ingestion treats as fatal."""


def _read_objects(path: str | Path) -> Iterator[dict]:
    """Each JSON object line of the file, decoded as it is read."""
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except (json.JSONDecodeError, RecursionError):  # a line nested too deeply is invalid too
                continue
            except ValueError:  # so is an integer past the int conversion digit limit
                continue
            if isinstance(obj, dict):
                yield obj


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def oracle_metrics(
    sources_path: str | Path,
    publications_path: str | Path,
    links_path: str | Path,
    year: int,
    cutoff: date,
    out_dir: str | Path,
) -> tuple[Path, Path]:
    """Recompute the annual basket from the raw files; write metrics and
    standings files in the standard output format and return their paths."""

    # Sources: keep well-formed records, fail hard on duplicate ids.
    sources: dict[int, dict] = {}
    for obj in _read_objects(sources_path):
        sid = obj.get("source_id")
        title = obj.get("title")
        stype = obj.get("source_type")
        codes = obj.get("asjc_codes")
        active = obj.get("is_actively_indexed")
        pred = obj.get("predecessor_source_id")
        if not _is_int(sid) or not isinstance(title, str) or not title:
            continue
        if any("\ud800" <= ch <= "\udfff" for ch in title):  # a lone surrogate cannot be written out
            continue
        if not isinstance(stype, str) or stype not in _VALID_SOURCE_TYPES or not isinstance(active, bool):
            continue
        if (
            not isinstance(codes, list)
            or not codes
            or not all(_is_int(c) and 1000 <= c <= 9999 for c in codes)
        ):
            continue
        if pred is not None and not _is_int(pred):
            continue
        if sid in sources:
            raise OracleDataError(f"duplicate source_id {sid}")
        sources[sid] = {
            "title": title,
            "type": stype,
            "asjc": sorted(set(codes)),
            "active": active,
            "pred": pred,
        }
    for sid, info in sources.items():
        if info["pred"] is not None and info["pred"] not in sources:
            info["pred"] = None

    # Publications: well-formed, known source, loaded by the cutoff.
    # A duplicate of an already-accepted pub_id is fatal, exactly as at
    # ingestion; a rejected record does not reserve its id. Each is kept as
    # (pub_id, source_id, sort_year, is_article_in_press).
    pubs: dict[str, tuple[str, int, int, bool]] = {}
    accepted_ids: set[str] = set()
    for obj in _read_objects(publications_path):
        pid = obj.get("pub_id")
        sid = obj.get("source_id")
        sort_year = obj.get("sort_year")
        load = obj.get("load_date")
        dtype = obj.get("doc_type")
        aip = obj.get("is_article_in_press")
        if not isinstance(pid, str) or not pid:
            continue
        if not _is_int(sid) or not _is_int(sort_year):
            continue
        if not isinstance(load, str) or not _ISO_DATE.match(load):
            continue
        try:
            load_date = date.fromisoformat(load)
        except ValueError:
            continue
        if not isinstance(dtype, str) or dtype not in _VALID_DOC_TYPES or not isinstance(aip, bool):
            continue
        if pid in accepted_ids:
            raise OracleDataError(f"duplicate pub_id {pid!r}")
        if sid not in sources:
            continue
        accepted_ids.add(pid)
        if load_date > cutoff:
            continue
        pubs[pid] = (pid, sid, sort_year, aip)

    window = {year - 3, year - 2, year - 1}

    # Links: both endpoints visible, no self-citations, duplicates collapsed;
    # only the links that count are kept: a citing publication of the year,
    # not in press, and a cited in-window document, not in press. A pair
    # holds the id strings pubs already keeps, not the ones decoded from the
    # link line.
    pairs: set[tuple[str, str]] = set()
    for obj in _read_objects(links_path):
        citing = obj.get("citing_pub_id")
        cited = obj.get("cited_pub_id")
        if not isinstance(citing, str) or not isinstance(cited, str):
            continue
        if not citing or not cited or citing == cited:
            continue
        if citing not in pubs or cited not in pubs:
            continue
        citing_id, _, citing_year, citing_aip = pubs[citing]
        cited_id, _, cited_year, cited_aip = pubs[cited]
        if citing_aip or citing_year != year or cited_aip or cited_year not in window:
            continue
        pairs.add((citing_id, cited_id))

    # Current title for every source, walking renames forward. Non-linear
    # chains (shared predecessors, cycles) are fatal, as at ingestion.
    succ: dict[int, int] = {}
    for sid, info in sources.items():
        if info["pred"] is not None:
            if info["pred"] in succ:
                raise OracleDataError(f"sources share predecessor {info['pred']}")
            succ[info["pred"]] = sid

    # Each walk stops at the first source whose current title is known and
    # gives that title to every source it passed.
    current: dict[int, int] = {}

    def current_title_of(sid: int) -> int:
        passed: list[int] = []
        while sid in succ and sid not in current:
            passed.append(sid)
            sid = succ[sid]
            if len(passed) > len(sources):
                raise OracleDataError("predecessor cycle detected")
        title = current.get(sid, sid)
        current.update(dict.fromkeys(passed, title))
        return title

    # Walk every chain: a cycle is fatal even where no source on it publishes.
    for sid in sources:
        current_title_of(sid)

    documents: dict[int, int] = {}
    for _, sid, sort_year, aip in pubs.values():
        if aip or sort_year not in window:
            continue
        owner = current_title_of(sid)
        documents[owner] = documents.get(owner, 0) + 1

    citations: dict[int, int] = {}
    cited_docs: dict[int, set[str]] = {}
    for _, cited in pairs:
        owner = current_title_of(pubs[cited][1])
        citations[owner] = citations.get(owner, 0) + 1
        cited_docs.setdefault(owner, set()).add(cited)

    def scoreable(sid: int) -> bool:
        info = sources[sid]
        return (
            info["active"]
            and info["type"] in _SCOREABLE_TYPES
            and sid not in succ
            and documents.get(sid, 0) >= 1
        )

    eligible = sorted(sid for sid in sources if scoreable(sid))

    def two_decimals(numer: int, denom: int) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = 50
            return (Decimal(numer) / Decimal(denom)).quantize(
                Decimal("0.01"), rounding=ROUND_HALF_UP
            )

    def whole_percent(numer: int, denom: int) -> int:
        with localcontext() as ctx:
            ctx.prec = 50
            return int(
                (Decimal(100 * numer) / Decimal(denom)).quantize(
                    Decimal("1"), rounding=ROUND_HALF_UP
                )
            )

    scores: dict[int, Decimal] = {}
    metric_lines: list[list[str]] = []
    for sid in eligible:
        a = citations.get(sid, 0)
        b = documents[sid]
        value = two_decimals(a, b)
        scores[sid] = value
        metric_lines.append(
            [
                str(sid),
                sources[sid]["title"],
                str(year),
                str(value),
                str(a),
                str(b),
                str(whole_percent(len(cited_docs.get(sid, ())), b)),
            ]
        )

    standings_lines: list[list[str]] = []
    for sid in eligible:
        for code in sources[sid]["asjc"]:
            peers = [p for p in eligible if code in sources[p]["asjc"]]
            n = len(peers)
            higher = sum(1 for p in peers if scores[p] > scores[sid])
            lower = sum(1 for p in peers if scores[p] < scores[sid])
            same = sum(1 for p in peers if scores[p] == scores[sid])
            rank = higher + 1
            pct = floor(Fraction(2 * lower + same, 2 * n) * 100)
            if 75 <= pct <= 99:
                quart = 1
            elif 50 <= pct <= 74:
                quart = 2
            elif 25 <= pct <= 49:
                quart = 3
            else:
                quart = 4
            standings_lines.append(
                [str(sid), str(code), str(rank), str(n), str(pct), str(quart)]
            )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.csv"
    standings_path = out / "standings.csv"
    with open(metrics_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["source_id", "title", "year", "citescore", "citations", "documents", "percent_cited"]
        )
        writer.writerows(metric_lines)
    with open(standings_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["source_id", "asjc_code", "rank", "n_in_category", "percentile", "quartile"]
        )
        writer.writerows(standings_lines)
    return metrics_path, standings_path
