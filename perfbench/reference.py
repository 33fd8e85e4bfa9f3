"""A fixed piece of pure-Python work, timed next to every measured run.

The host's speed drifts by up to 40% over tens of seconds (other tenants on
the same cores), so a run's wall time alone says as much about the host as
about the program. This loop shares no code with the engine and does the
same work every time, so its time tracks the host's speed alone; dividing
by it puts every run on one reference speed. It mixes what the engine
spends its time on: JSON decoding, dicts of tuples keyed by strings, a
date-filtered copy, counting, sorting and exact decimal comparisons.

Prints the seconds the work took, measured inside the process.
"""

from __future__ import annotations

import json
from collections import Counter
from datetime import date
from decimal import Decimal
from time import perf_counter

N_RECORDS = 40_000


def reference_work() -> float:
    lines = [
        json.dumps({"pub_id": f"p{i:07d}", "source_id": 10001 + i % 700, "sort_year": 2012 + i % 7,
                    "load_date": f"{2012 + i % 7}-{1 + i % 12:02d}-{1 + i % 28:02d}"})
        for i in range(N_RECORDS)
    ]
    start = perf_counter()
    records = {}
    for line in lines:
        obj = json.loads(line)
        records[obj["pub_id"]] = (obj["source_id"], obj["sort_year"], date.fromisoformat(obj["load_date"]))
    cutoff = date(2016, 6, 30)
    view = {key: value for key, value in records.items() if value[2] <= cutoff}
    counts = Counter(value[0] for value in view.values() if value[1] >= 2013)
    scores = sorted(Decimal(count) / Decimal(7) for count in counts.values())
    below = sum(1 for a in scores[:500] for b in scores[:500] if a < b)
    pairs = {(key, value[0]) for key, value in view.items()}
    assert below >= 0 and pairs
    return perf_counter() - start


if __name__ == "__main__":
    print(reference_work())
