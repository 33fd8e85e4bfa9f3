"""Timed phase of the point-queries workload.

Runs in its own process so that its peak RSS covers the loaded index and
the queries but not corpus generation. Reads a JSON spec from the file named
on the command line, loads the index, and writes {"load_s"} as one JSON
line. Then, for each line "<start> <stop>" read from stdin, it makes the
tracker_value calls queries[start:stop], one at a time, and writes their
times and values as one JSON line. It exits when stdin closes.
"""

from __future__ import annotations

import json
import sys
import time
from datetime import date

from citescore import load_index, tracker_value


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    load_s = []
    index = None
    for _ in range(spec["load_reps"]):
        index = None  # free the previous copy before building the next
        start = time.perf_counter()
        index, _report = load_index(*spec["corpus"])
        load_s.append(time.perf_counter() - start)
    print(json.dumps({"load_s": load_s}), flush=True)

    year = spec["year"]
    queries = [(source_id, date.fromisoformat(as_of)) for source_id, as_of in spec["queries"]]
    for request in sys.stdin:
        first, stop = map(int, request.split())
        cpu_start = time.process_time()
        chunk_start = time.perf_counter()
        latencies_s, values = [], []
        for source_id, as_of in queries[first:stop]:
            start = time.perf_counter()
            value = tracker_value(index, source_id, year, as_of)
            latencies_s.append(time.perf_counter() - start)
            values.append(None if value is None else str(value))
        chunk_s = time.perf_counter() - chunk_start
        print(json.dumps({"chunk_s": chunk_s, "cpu_s": time.process_time() - cpu_start,
                          "latencies_s": latencies_s, "values": values}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
