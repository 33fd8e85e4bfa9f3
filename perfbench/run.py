#!/usr/bin/env python3
"""Benchmark of the citescore engine: seeded corpora, four workloads, and
every output checked against the independent oracle.

Run from the repository root:

    python3 perfbench/run.py --workload annual --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --size smoke --seed 1 --seconds 1 --trace 1

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 also
runs the traced and tracemalloc passes and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics (one line per workload with --workload all). A fuller
report goes to .bench_out/. Sizes: "bench" (the default) fits the run budget
of BENCHMARK.json, "full" is the size of the ROADMAP baseline, and "smoke"
runs every workload in seconds.

The timed work runs in child processes, one at a time: ``python -m
citescore.cli`` for the CLI workloads and perfbench/query_worker.py for
point-queries, so the peak RSS is that of the process doing the timed work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from statistics import fmean, median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3  # set-up (and the point-queries index load) is repeated; medians reported
TRACE_REPS = 3  # untraced/traced in-process pairs; medians reported
MIN_OPS = 3  # timed CLI runs per workload, even past --seconds
N_QUERIES = 150
QUERY_CHUNK = 50  # calls between two runs of the reference loop
# End-to-end times are given at the host speed where perfbench/reference.py
# takes this long; see that file for why.
REF_NOMINAL_S = 0.1
COMPUTE_YEAR = 2017
TRACKER_YEAR = 2018
TRACKER_MONTHS = ("2018-01", "2019-04")


@dataclass(frozen=True)
class Workload:
    kind: str  # "compute", "tracker" or "queries"
    shape: str  # key of inputs.SHAPES
    journals: dict  # size -> journals in the corpus
    argv: tuple = ()  # CLI subcommand and flags, without input and output paths
    dirty: bool = False


# Bench sizes keep one run within the time budget of BENCHMARK.json while
# the intended layer still has the largest self time: the tracker's share
# grows with corpus size, and below about 300 journals ingest overtakes it.
WORKLOADS = {
    # Ingest is most of the run: the workload for ingest work.
    "annual": Workload(
        "compute", "nearcap", {"smoke": 12, "bench": 180, "full": 1000},
        ("compute", "--year", str(COMPUTE_YEAR), "--cutoff", "2018-04-30"),
    ),
    # Sixteen snapshot-plus-aggregate passes after the same kind of ingest.
    "tracker": Workload(
        "tracker", "nearcap", {"smoke": 12, "bench": 350, "full": 1000},
        ("tracker", "--year", str(TRACKER_YEAR), "--from", TRACKER_MONTHS[0],
         "--to", TRACKER_MONTHS[1], "--stability-report"),
    ),
    # Thousands of titles per category make standings the largest layer;
    # the dirt runs the rejection and warning paths.
    "wide-dirty": Workload(
        "compute", "wide", {"smoke": 60, "bench": 3200, "full": 6000},
        ("compute", "--year", str(COMPUTE_YEAR)), dirty=True,
    ),
    # Single-source lookups: the only workload on the per-source path.
    "point-queries": Workload("queries", "nearcap", {"smoke": 12, "bench": 100, "full": 300}),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("smoke", "bench", "full"), default="bench")
    args = parser.parse_args(argv)

    if not (SRC / "citescore" / "cli.py").is_file():
        print(f"error: no citescore sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # A fresh process per workload, so none inherits another's peak RSS.
        codes = []
        for name in WORKLOADS:
            child = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
            pid = os.posix_spawn(child[0], child, dict(os.environ))
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        return max(codes)

    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_workload(name: str, args, spec: dict, work: Path) -> dict:
    from check import Oracle

    workload = WORKLOADS[name]
    setup_refs = [_reference(work)]
    setup = make_inputs(workload, args.seed, args.size, work, 0)
    oracle = Oracle(setup["corpus"], work / "oracle")
    if workload.kind == "queries":
        timed = query_phase(setup, args.seed, args.seconds, work, oracle)
    else:
        timed = cli_phase(workload, setup["corpus"], args.seconds, work, oracle)
    problems = timed["problems"]
    # The other set-up reps run after the timed phase, so that they fall in
    # other phases of the host's speed than the first; each must make the
    # same bytes.
    reps = [setup]
    for rep in range(1, SETUP_REPS):
        setup_refs.append(_reference(work))
        reps.append(make_inputs(workload, args.seed, args.size, work, rep))
        shutil.rmtree(reps[-1]["corpus"][0].parent)
    if len({r["digest"] for r in reps}) != 1:
        problems.append("the same seed generated different corpora")
    setup["generate_s"] = median(r["generate_s"] for r in reps)
    setup_s = median(r["setup_s"] * REF_NOMINAL_S / ref for r, ref in zip(reps, setup_refs))

    end_to_end = {
        "wall_s": REF_NOMINAL_S * fmean(timed["op_s"]) / fmean(timed["ref_s"]),
        "peak_rss_mib": timed["peak_rss_mib"],
        "setup_s": setup_s + timed.get("load_s", 0.0),
    }
    report = {"workload": name, "seed": args.seed, "size": args.size,
              "attempted": timed["attempted"], "failed": timed["failed"], "problems": problems,
              "end_to_end": end_to_end, "op_s": timed["op_s"], "ref_s": timed["ref_s"],
              "setup_raw_s": [r["setup_s"] for r in reps], "setup_ref_s": setup_refs,
              "dirt": setup["dirt"]}
    if args.trace:
        chosen = spec["per_layer"]
        values, trace = per_layer(workload, setup, timed, work, oracle)
        report.update(per_layer=values, trace=trace)
        for span, seconds in sorted(trace["self_s"].items(), key=lambda item: -item[1]):
            print(f"{name}: self {seconds:9.4f} s  {span}", file=sys.stderr)
    else:
        chosen, values = spec["end_to_end"], end_to_end
    out = ROOT / ".bench_out" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")

    print(f"{name}: {timed['attempted']} attempted, {timed['failed']} failed, "
          + ", ".join(f"{k} {v:.4g}" for k, v in end_to_end.items()), file=sys.stderr)
    for problem in problems:
        print(f"{name}: FAIL {problem}", file=sys.stderr)
    return {
        "correct": not problems and timed["failed"] == 0,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }


def make_inputs(workload: Workload, seed: int, size: str, work: Path, rep: int) -> dict:
    """Generate (and dirty) the corpus in a child process."""
    spec_path, result_path = work / "inputs.json", work / "inputs-result.json"
    spec_path.write_text(json.dumps({
        "shape": workload.shape, "seed": seed, "journals": workload.journals[size],
        "dirty": workload.dirty, "out": str(work / f"corpus{rep}"),
    }))
    _run_child([sys.executable, str(HERE / "inputs.py"), str(spec_path)], result_path, work)
    setup = json.loads(result_path.read_text())
    setup["corpus"] = tuple(Path(path) for path in setup["corpus"])
    return setup


def cli_phase(workload: Workload, corpus, seconds: float, work: Path, oracle) -> dict:
    """Run the CLI in a child process, again and again until `seconds` have
    passed. A run fails if it exits non-zero, if its outputs differ from the
    first run's, or if the first run's outputs fail the oracle check."""
    from check import check_compute, check_tracker
    from citescore.tracker import month_end_schedule

    command = [sys.executable, "-m", "citescore.cli", *cli_args(workload, corpus)]
    stderr_path = work / "stderr.txt"
    ops = []
    phase_start = perf_counter()
    while len(ops) < MIN_OPS or perf_counter() - phase_start < seconds:
        out = work / f"out{len(ops)}"
        ref_s = _reference(work)
        start = perf_counter()
        code, usage = _spawn(command + ["--out", str(out)], os.devnull, stderr_path)
        wall = perf_counter() - start
        ops.append({
            "ref_s": ref_s,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mib": usage.ru_maxrss / 1024,
            "code": code,
            "stderr_lines": _count_lines(stderr_path),
            "digest": _digest(sorted(out.iterdir())) if code == 0 else None,
        })
        if len(ops) > 1:
            shutil.rmtree(out, ignore_errors=True)

    first = ops[0]
    problems = []
    if first["code"] != 0:
        problems.append(f"citescore exited {first['code']}: {_tail(stderr_path)}")
    elif workload.kind == "tracker":
        schedule = month_end_schedule(*TRACKER_MONTHS)
        problems.extend(check_tracker(oracle, work / "out0", TRACKER_YEAR, schedule))
    else:
        problems.extend(check_compute(oracle, work / "out0", COMPUTE_YEAR, compute_cutoff(workload)))
    first_ok = not problems
    failed = sum(1 for op in ops if op["code"] != 0 or op["digest"] != first["digest"] or not first_ok)
    if any(op["digest"] != first["digest"] for op in ops):
        problems.append("outputs differ between runs of the same command")
    return {
        "problems": problems,
        "attempted": len(ops),
        "failed": failed,
        "op_s": [op["wall_s"] for op in ops],
        "ref_s": [op["ref_s"] for op in ops],
        "peak_rss_mib": median(op["rss_mib"] for op in ops),
        "cpu_s": fmean(op["cpu_s"] for op in ops),
        "stderr_lines": median(op["stderr_lines"] for op in ops),
    }


def cli_args(workload: Workload, corpus) -> list[str]:
    sources, publications, links = corpus
    return [*workload.argv, "--sources", str(sources), "--pubs", str(publications),
            "--links", str(links)]


def compute_cutoff(workload: Workload) -> date:
    from citescore.cutoffs import default_cutoff

    argv = list(workload.argv)
    if "--cutoff" in argv:
        return date.fromisoformat(argv[argv.index("--cutoff") + 1])
    return default_cutoff(COMPUTE_YEAR)


def make_queries(sources_path: Path, seed: int) -> list[tuple[int, date]]:
    """Seeded (source_id, month-end) pairs over every source, former titles
    and unscoreable types included. Every third month-end of the tracker
    schedule keeps the oracle check to six cutoffs."""
    from citescore.tracker import month_end_schedule

    with open(sources_path, encoding="utf-8") as handle:
        source_ids = [json.loads(line)["source_id"] for line in handle]
    month_ends = month_end_schedule(*TRACKER_MONTHS)[::3]
    rng = random.Random(f"queries-{seed}")
    return [(rng.choice(source_ids), rng.choice(month_ends)) for _ in range(N_QUERIES)]


def query_phase(setup: dict, seed: int, seconds: float, work: Path, oracle) -> dict:
    """Load the index in a child process, then make closed-loop tracker_value
    calls, one at a time, in passes over the seeded query list until
    `seconds` have passed, with the reference loop run before every
    QUERY_CHUNK calls. A call fails if its value differs from the oracle's."""
    from check import query_mismatches

    queries = make_queries(setup["corpus"][0], seed)
    spec_path = work / "queries.json"
    spec_path.write_text(json.dumps({
        "corpus": [str(path) for path in setup["corpus"]],
        "load_reps": SETUP_REPS,
        "year": TRACKER_YEAR,
        "queries": [[source_id, as_of.isoformat()] for source_id, as_of in queries],
    }))
    load_ref_s = _reference(work)
    stderr_path = work / "worker-stderr.txt"
    with open(stderr_path, "w") as stderr:
        worker = subprocess.Popen(
            [sys.executable, str(HERE / "query_worker.py"), str(spec_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            load_s = _reply(worker, stderr_path)["load_s"]
            passes, ref_s = [], []
            phase_start = perf_counter()
            while not passes or perf_counter() - phase_start < seconds:
                chunks = []
                for first in range(0, len(queries), QUERY_CHUNK):
                    ref_s.append(_reference(work))
                    worker.stdin.write(f"{first} {first + QUERY_CHUNK}\n")
                    worker.stdin.flush()
                    chunks.append(_reply(worker, stderr_path))
                passes.append({
                    "pass_s": sum(c["chunk_s"] for c in chunks),
                    "cpu_s": sum(c["cpu_s"] for c in chunks),
                    "latencies_s": [s for c in chunks for s in c["latencies_s"]],
                    "values": [v for c in chunks for v in c["values"]],
                })
            worker.stdin.close()
            _, status, usage = os.wait4(worker.pid, 0)
            worker.returncode = os.waitstatus_to_exitcode(status)
            worker.stdout.close()
        finally:
            if worker.returncode is None:
                worker.kill()
                worker.wait()
    failed = sum(query_mismatches(oracle, TRACKER_YEAR, queries, p["values"]) for p in passes)
    return {
        "problems": [f"{failed} calls differ from the oracle"] if failed else [],
        "attempted": len(queries) * len(passes),
        "failed": failed,
        "op_s": [p["pass_s"] for p in passes],
        "ref_s": ref_s,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "load_s": median(load_s) * REF_NOMINAL_S / load_ref_s,
        "cpu_s": fmean(p["cpu_s"] for p in passes),
        "stderr_lines": _count_lines(stderr_path),
        "latencies_s": [s for p in passes for s in p["latencies_s"]],
        "queries": queries,
    }


def _reply(worker: subprocess.Popen, stderr_path: Path) -> dict:
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError(f"query worker stopped: {_tail(stderr_path)}")
    return json.loads(line)


def per_layer(workload: Workload, setup: dict, timed: dict, work: Path, oracle):
    """Per-layer metrics from traced runs, side calls and a tracemalloc pass."""
    from spans import ingest_peak_mib, json_floor

    corpus = setup["corpus"]
    if workload.kind == "queries":
        traced = trace_queries(corpus, timed["queries"])
    else:
        traced = trace_cli(workload, corpus, work)
    report = traced.pop("report")
    floor_s, lines_in = json_floor(corpus)
    accepted = report.sources_accepted + report.publications_accepted + report.links_accepted
    totals = traced["total_s"]
    latencies_ms = sorted(1000 * s for s in timed.get("latencies_s", ()))
    values = {
        "corpus.generate_s": setup["generate_s"],
        "corpus.records": setup["records"],
        "corpus.dirty_lines": sum(setup["dirt"].values()),
        "index.ingest_s": totals["index.ingest"],
        "index.json_floor_s": floor_s,
        "index.validate_s": totals["index.ingest"] - floor_s,
        "index.lines_in": lines_in,
        "index.accepted": accepted,
        "index.rejected": report.sources_rejected + report.publications_rejected + report.links_rejected,
        "index.collapsed": report.links_collapsed,
        "index.warnings": len(report.warnings),
        "index.accept_ratio": accepted / lines_in,
        "index.ingest_peak_mib": ingest_peak_mib(corpus),
        "index.snapshot_s": totals.get("index.snapshot", 0.0),
        "index.snapshot_calls": 0,
        "index.snapshot_links": 0,
        "metrics.aggregate_s": 0.0,
        "metrics.compute_annual_s": totals.get("metrics.compute_annual", 0.0),
        "metrics.standings_s": 0.0,
        "metrics.rows": 0,
        "metrics.standings": 0,
        "metrics.max_category_n": 0,
        "metrics.per_source_s": totals.get("metrics.per_source", 0.0),
        "tracker.table_s": totals.get("tracker.table", 0.0),
        "tracker.rows": 0,
        "tracker.stability_s": totals.get("tracker.stability", 0.0),
        "tracker.value_p50_ms": median(latencies_ms) if latencies_ms else 0.0,
        "tracker.value_p90_ms": quantiles(latencies_ms, n=10)[-1] if latencies_ms else 0.0,
        "output.write_s": totals.get("output.write", 0.0),
        "output.bytes": 0,
        "manifest.digest_s": totals.get("manifest.digest", 0.0),
        "manifest.bytes_hashed": 0,
        "oracle.run_s": oracle.seconds,
        "cli.wall_raw_s": fmean(timed["op_s"]),
        "cli.ref_s": fmean(timed["ref_s"]),
        "cli.cpu_s": timed["cpu_s"],
        "cli.wait_s": fmean(timed["op_s"]) - timed["cpu_s"],
        "cli.stderr_lines": timed["stderr_lines"],
    }
    values.update(traced.pop("values"))
    return values, {**traced, "ingest_report": report.counts(), "warnings_head": report.warnings[:20]}


def trace_cli(workload: Workload, corpus, work: Path) -> dict:
    """Pairs of untraced and traced in-process CLI runs, then side calls
    timed on their own, outside the span sum. The runs keep nothing large
    alive: a loaded index held across them would slow them, as every
    garbage collection pass walks it."""
    from citescore import load_index, snapshot
    from citescore.metrics import aggregate_counts
    from citescore.tracker import month_end_schedule
    from spans import Tracer, median_by_name, run_cli_in_process

    argv = cli_args(workload, corpus) + ["--out", str(work / "traced")]
    captured: dict = {}
    seen = {
        "load_index": lambda result: captured.update(report=result[1]),
        "snapshot": lambda view: captured.update(snapshot_links=len(view.links)),
        "compute_annual": lambda result: captured.update(annual=result),
        "tracker_table": lambda rows: captured.update(tracker_rows=len(rows)),
    }
    tracers, overhead = [], []
    for _ in range(TRACE_REPS):
        untraced = run_cli_in_process(argv)
        tracer = Tracer()
        overhead.append(run_cli_in_process(argv, tracer, seen) / untraced - 1)
        tracers.append(tracer)
    index, _report = load_index(*corpus)
    view = snapshot(index, compute_cutoff(workload)) if workload.kind == "compute" else None
    aggregate_s = []
    for _ in range(TRACE_REPS if view is not None else 0):
        start = perf_counter()
        aggregate_counts(view, COMPUTE_YEAR)
        aggregate_s.append(perf_counter() - start)
    # Interpreter start and imports are part of every CLI run but of no span.
    startup_s = median(
        _timed_spawn([sys.executable, "-c", "import citescore.cli"], work) for _ in range(TRACE_REPS)
    )
    totals = median_by_name([t.totals() for t in tracers])
    self_s = median_by_name([t.self_times() for t in tracers])
    output_bytes = sum(p.stat().st_size for p in (work / "traced").iterdir() if p.suffix == ".csv")
    values = {
        "cli.self_s": startup_s + self_s["cli"],
        "trace.overhead_frac": median(overhead),
        "output.bytes": output_bytes,
        "manifest.bytes_hashed": output_bytes + sum(p.stat().st_size for p in corpus),
    }
    if view is not None:
        rows, standings = captured["annual"]
        values.update({
            "index.snapshot_calls": 1,
            "index.snapshot_links": captured["snapshot_links"],
            "metrics.aggregate_s": median(aggregate_s),
            # Near zero where categories are small; noise must not make it negative.
            "metrics.standings_s": max(0.0, totals["metrics.compute_annual"] - median(aggregate_s)),
            "metrics.rows": len(rows),
            "metrics.standings": len(standings),
            "metrics.max_category_n": max((s.n_in_category for s in standings), default=0),
        })
    else:
        snapshot_s = aggregate_total_s = 0.0
        links = 0
        schedule = month_end_schedule(*TRACKER_MONTHS)
        for as_of in schedule:
            start = perf_counter()
            view_at = snapshot(index, as_of)
            middle = perf_counter()
            aggregate_counts(view_at, TRACKER_YEAR)
            snapshot_s += middle - start
            aggregate_total_s += perf_counter() - middle
            links += len(view_at.links)
            del view_at
        values.update({
            "index.snapshot_s": snapshot_s,
            "index.snapshot_calls": len(schedule),
            "index.snapshot_links": links,
            "metrics.aggregate_s": aggregate_total_s,
            "tracker.rows": captured["tracker_rows"],
        })
    return {"values": values, "report": captured["report"], "total_s": totals, "self_s": self_s,
            "startup_s": startup_s, "overhead": overhead, "spans": tracers[-1].spans}


def trace_queries(corpus, queries) -> dict:
    """One traced pass over the queries, in chunks that each follow an
    untraced run of the same chunk."""
    from citescore import load_index
    from spans import Tracer, run_queries_in_process

    tracer = Tracer()
    with tracer.span("index.ingest"):
        index, report = load_index(*corpus)
    links: list[int] = []
    seen = {"snapshot": lambda view: links.append(len(view.links))}
    size = -(-len(queries) // TRACE_REPS)
    overhead, loop_s = [], 0.0
    for part in (queries[i:i + size] for i in range(0, len(queries), size)):
        untraced = run_queries_in_process(index, TRACKER_YEAR, part)
        first_span = len(tracer.spans)
        traced = run_queries_in_process(index, TRACKER_YEAR, part, tracer, seen)
        overhead.append(traced / untraced - 1)
        loop_s += traced - sum(
            s["end"] - s["start"] for s in tracer.spans[first_span:] if s["name"] == "tracker.value"
        )
    values = {
        "cli.self_s": loop_s,
        "trace.overhead_frac": median(overhead),
        "index.snapshot_calls": len(links),
        "index.snapshot_links": sum(links),
    }
    return {"values": values, "report": report, "total_s": tracer.totals(),
            "self_s": tracer.self_times(), "overhead": overhead, "spans": tracer.spans}


def _spawn(argv: list[str], stdout_path, stderr_path):
    """Run argv to completion, with the checkout's sources on PYTHONPATH and
    stdout and stderr sent to files; returns the exit code and the child's
    resource usage. Linux counts the parent's peak RSS into the child's, so
    the benchmark process must stay smaller than what it measures."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), usage


def _run_child(argv: list[str], stdout_path: Path, work: Path):
    """_spawn for the benchmark's own helpers, which must succeed."""
    code, usage = _spawn(argv, stdout_path, work / "helper-stderr.txt")
    if code != 0:
        raise RuntimeError(f"{argv[1]} exited {code}: {_tail(work / 'helper-stderr.txt')}")
    return usage


def _reference(work: Path) -> float:
    """Seconds the reference loop took, run in a child process."""
    out = work / "reference.txt"
    _run_child([sys.executable, str(HERE / "reference.py")], out, work)
    return float(out.read_text())


def _timed_spawn(argv: list[str], work: Path) -> float:
    start = perf_counter()
    _run_child(argv, Path(os.devnull), work)
    return perf_counter() - start


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def _digest(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).name.encode() + b"\0" + Path(path).read_bytes())
    return digest.hexdigest()


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


if __name__ == "__main__":
    sys.exit(main())
