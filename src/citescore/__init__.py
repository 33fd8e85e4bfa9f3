"""CiteScore metrics over a load-dated citation index.

Annual values are computed on immutable snapshots reconstructed from record
load dates; the in-progress year is tracked on a monthly schedule with the
identical formula. A seeded corpus generator and an independent brute-force
oracle back the differential test harness.

Each public name imports its submodule on first use (PEP 562), so a process
loads only the parts of the package it touches.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SUBMODULE_OF = {
    "CategoryStanding": "metrics",
    "CorpusConfig": "corpus",
    "GeneratedCorpus": "corpus",
    "IndexSnapshot": "index",
    "IneligibleError": "metrics",
    "IngestError": "index",
    "IngestReport": "index",
    "LagModel": "corpus",
    "MetricsRow": "metrics",
    "OracleDataError": "oracle",
    "PublicationRecord": "records",
    "SourceRecord": "records",
    "TrackerRow": "tracker",
    "TrackerSeries": "tracker",
    "citescore": "metrics",
    "cited_window": "metrics",
    "compute_annual": "metrics",
    "count_citations": "metrics",
    "count_documents": "metrics",
    "default_cutoff": "cutoffs",
    "generate_corpus": "corpus",
    "ingest": "index",
    "is_eligible": "metrics",
    "load_cutoff_table": "cutoffs",
    "load_index": "index",
    "month_end_schedule": "tracker",
    "oracle_metrics": "oracle",
    "percent_cited": "metrics",
    "percentile_from_counts": "metrics",
    "percentile_rank": "metrics",
    "quartile": "metrics",
    "rank_in_category": "metrics",
    "snapshot": "index",
    "tracker_series": "tracker",
    "tracker_value": "tracker",
}

__all__ = [*_SUBMODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE_OF})
