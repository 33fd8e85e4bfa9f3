"""CiteScore metrics over a load-dated citation index.

Annual values are computed on immutable snapshots reconstructed from record
load dates; the in-progress year is tracked on a monthly schedule with the
identical formula. A seeded corpus generator and an independent brute-force
oracle back the differential test harness.
"""

from .corpus import CorpusConfig, GeneratedCorpus, LagModel, generate_corpus
from .cutoffs import default_cutoff, load_cutoff_table
from .index import (
    IndexSnapshot,
    IngestError,
    IngestReport,
    ingest,
    load_index,
    snapshot,
)
from .metrics import (
    CategoryStanding,
    IneligibleError,
    MetricsRow,
    citescore,
    cited_window,
    compute_annual,
    count_citations,
    count_documents,
    is_eligible,
    percent_cited,
    percentile_from_counts,
    percentile_rank,
    quartile,
    rank_in_category,
)
from .oracle import OracleDataError, oracle_metrics
from .records import CitationLink, PublicationRecord, SourceRecord
from .tracker import (
    TrackerRow,
    TrackerSeries,
    month_end_schedule,
    tracker_series,
    tracker_value,
)

__version__ = "0.1.0"

__all__ = [
    "CategoryStanding",
    "CitationLink",
    "CorpusConfig",
    "GeneratedCorpus",
    "IndexSnapshot",
    "IneligibleError",
    "IngestError",
    "IngestReport",
    "LagModel",
    "MetricsRow",
    "OracleDataError",
    "PublicationRecord",
    "SourceRecord",
    "TrackerRow",
    "TrackerSeries",
    "citescore",
    "cited_window",
    "compute_annual",
    "count_citations",
    "count_documents",
    "default_cutoff",
    "generate_corpus",
    "ingest",
    "is_eligible",
    "load_cutoff_table",
    "load_index",
    "month_end_schedule",
    "oracle_metrics",
    "percent_cited",
    "percentile_from_counts",
    "percentile_rank",
    "quartile",
    "rank_in_category",
    "snapshot",
    "tracker_series",
    "tracker_value",
    "__version__",
]
