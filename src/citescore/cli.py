"""Command-line front end.

Subcommands: compute, tracker, generate, verify, snapshot-info.
Exit codes: 0 ok, 1 data error, 2 usage error, 3 verification mismatch.
Diagnostics go to stderr only, as ``WARNING: <message>`` lines in file
order and at most one ``ERROR: <message>`` line; data outputs are files (or
stdout JSON for snapshot-info), so output stays machine-consumable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date
from pathlib import Path

from . import __version__
from .cutoffs import default_cutoff, load_cutoff_table
from .index import IngestError, load_index, snapshot
from .manifest import build_manifest, write_manifest
from .metrics import compute_annual
from .output import (
    MAX_DIFFERENCES,
    compare_output_files,
    write_metrics_csv,
    write_stability_csv,
    write_standings_csv,
    write_tracker_csv,
)
from .records import parse_date
from .tracker import month_end_schedule, stability_report, tracker_table

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_MISMATCH = 3

# Warnings per stderr write: one write for a usual run, and a bounded copy
# of the report's warnings for a file with millions of rejected lines.
_WARNINGS_PER_WRITE = 1 << 14


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help or version text that cannot be
    written to stdout raises, as any other failed write to stdout does (on
    3.11 and later argparse drops the OSError). Subparsers take this class
    from their parent."""

    def _print_message(self, message: str, file=None) -> None:
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citescore",
        description="Batch CiteScore metrics over a load-dated citation index.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--sources", required=True, help="sources record file (JSON lines)")
    inputs.add_argument("--pubs", required=True, help="publications record file (JSON lines)")
    inputs.add_argument("--links", required=True, help="citation links record file (JSON lines)")
    inputs.add_argument("--quiet", action="store_true", help="suppress warnings")
    cutoffs = argparse.ArgumentParser(add_help=False)
    cutoffs.add_argument("--cutoff", help="snapshot cutoff YYYY-MM-DD (default: per cutoff table)")
    cutoffs.add_argument("--cutoff-table", help="alternative cutoff table JSON")

    compute = sub.add_parser(
        "compute", parents=[inputs, cutoffs], help="annual metrics and category standings"
    )
    compute.add_argument("--year", type=int, required=True, help="metrics year")
    compute.add_argument("--only", choices=["metrics", "standings"], help="write just one output file")
    compute.add_argument("--out", required=True, help="output directory")
    compute.set_defaults(handler=cmd_compute, parser=compute)

    tracker = sub.add_parser(
        "tracker", parents=[inputs], help="monthly in-progress scores for one year"
    )
    tracker.add_argument("--year", type=int, required=True, help="tracker year")
    tracker.add_argument("--from", dest="from_month", required=True, help="first month YYYY-MM")
    tracker.add_argument("--to", dest="to_month", required=True, help="last month YYYY-MM")
    tracker.add_argument(
        "--stability-report",
        action="store_true",
        help="also write monthly-vs-final rank correlations",
    )
    tracker.add_argument("--out", required=True, help="output directory")
    tracker.set_defaults(handler=cmd_tracker, parser=tracker)

    # Each config flag's dest is its CorpusConfig field.
    generate = sub.add_parser("generate", help="synthetic corpus files")
    generate.add_argument("--config", help="corpus config JSON file")
    generate.add_argument("--seed", type=int, help="generator seed")
    generate.add_argument("--journals", type=int, dest="n_journals", metavar="JOURNALS", help="number of journals")
    generate.add_argument("--first-year", type=int)
    generate.add_argument("--last-year", type=int)
    generate.add_argument("--pubs-mean", type=float, dest="pubs_per_year_mean", metavar="PUBS_MEAN",
                          help="mean publications per journal per year")
    generate.add_argument("--citation-rate", type=float, help="mean in-window references per publication")
    generate.add_argument("--aip-fraction", type=float, help="article-in-press probability for recent years")
    generate.add_argument("--rename-prob", type=float, dest="rename_probability", metavar="RENAME_PROB",
                          help="per-journal mid-span rename probability")
    generate.add_argument("--categories", type=int, dest="n_categories", metavar="CATEGORIES",
                          help="number of ASJC codes in play")
    generate.add_argument("--out", required=True, help="output directory")
    generate.set_defaults(handler=cmd_generate, parser=generate)

    verify = sub.add_parser(
        "verify", parents=[inputs, cutoffs], help="engine vs. brute-force oracle comparison"
    )
    verify.add_argument("--year", type=int, required=True)
    verify.add_argument(
        "--compare-only",
        action="store_true",
        help="skip recomputation and compare existing engine/ and oracle/ outputs",
    )
    verify.add_argument("--out", required=True, help="output directory")
    verify.set_defaults(handler=cmd_verify, parser=verify)

    info = sub.add_parser(
        "snapshot-info", parents=[inputs, cutoffs], help="record counts at a cutoff"
    )
    info.add_argument("--year", type=int, help="metrics year whose default cutoff to use")
    info.add_argument("--out", help="optional output directory")
    info.set_defaults(handler=cmd_snapshot_info, parser=info)

    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The parsed command line. Usage errors are reported through the
    subcommand's own parser, as argparse does for its other errors; so is an
    unknown argument after the command, while one before it is the top-level
    parser's. Only the subcommand's parser outlives the call."""
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        tokens = sys.argv[1:] if argv is None else argv
        owner = parser if unknown[0] in tokens[:tokens.index(args.command)] else args.parser
        owner.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; a usage error, --help and
    --version raise argparse's SystemExit. stdout is flushed before main
    returns or raises, so a closed or full stdout, argparse's help and
    version text included, is one ERROR line and exit 1 here, not a report
    at interpreter exit."""
    try:
        try:
            args = _parse_args(argv)
            return args.handler(args, args.parser)
        finally:
            sys.stdout.flush()
    except IngestError as exc:
        _write_stderr(f"ERROR: ingest failed: {exc}\n")
        return EXIT_DATA_ERROR
    except (OSError, UnicodeDecodeError) as exc:
        _write_stderr(f"ERROR: {exc}\n")
        return EXIT_DATA_ERROR


def console_entry() -> None:
    """The ``citescore`` console script and ``python -m citescore.cli``:
    main's exit code, without interpreter teardown. main has closed every
    output file and flushed stdout; stdout and stderr are flushed once more,
    any failure already reported, and then os._exit ends the process. An
    exception out of main, SystemExit included, takes the normal exit, and
    so does a run under a profiler, tracer or coverage tool (python -m
    cProfile, trace), which reports at exit."""
    code = main()
    if _observed():
        sys.exit(code)
    for stream in sys.stdout, sys.stderr:
        try:
            stream.flush()
        except (AttributeError, OSError):
            pass
    os._exit(code)


def _observed() -> bool:
    """Whether a profiler, tracer or coverage tool watches the process:
    through sys.setprofile or sys.settrace, or, from 3.12 on, sys.monitoring
    (cProfile registers there and leaves sys.getprofile() None)."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6))


def _write_stderr(text: str) -> None:
    """Write diagnostics to stderr; as for argparse's own messages, a closed
    or broken stderr loses them rather than ending in a traceback."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass


def _parse_cutoff(args, parser: argparse.ArgumentParser) -> tuple[date, str]:
    table_path = args.cutoff_table
    try:
        table = load_cutoff_table(table_path) if table_path else None
    except ValueError as exc:
        parser.error(f"cutoff table {table_path}: {exc}")
    if args.cutoff is not None:
        try:
            return parse_date(args.cutoff), "flag"
        except ValueError:
            parser.error(f"--cutoff {args.cutoff!r} is not a valid YYYY-MM-DD date")
    try:
        return default_cutoff(args.year, table), "cutoff-table" if table_path else "default-table"
    except ValueError as exc:
        # The default rule's date falls in year + 1, which a date may not hold.
        if not date.min.year <= args.year + 1 <= date.max.year:
            parser.error(f"--year {args.year} has no default cutoff: {args.year + 1} is not a year from 0001 to 9999")
        parser.error(f"cutoff table {table_path or '(bundled)'}: {exc}")


def _load_and_report(args) -> tuple:
    index, report = load_index(args.sources, args.pubs, args.links)
    if not args.quiet:
        warnings = report.warnings
        for start in range(0, len(warnings), _WARNINGS_PER_WRITE):
            chunk = warnings[start:start + _WARNINGS_PER_WRITE]
            _write_stderr("".join(f"WARNING: {warning}\n" for warning in chunk))
    return index, report


def _record_states(args) -> list[tuple]:
    """(path, size, mtime in ns, inode) of each record file."""
    return [(path, state.st_size, state.st_mtime_ns, state.st_ino)
            for path in (args.sources, args.pubs, args.links) for state in [os.stat(path)]]


def _write_run_manifest(args, out: Path, parameters: dict, outputs: dict, ingested: list | None) -> None:
    """Write out/manifest.json for an engine command: its record files (and
    cutoff table, if given), parameters and outputs. ingested holds the
    record files' _record_states taken before the engine read them, or None
    when it did not; a record file whose state differs once it is digested
    raises OSError, and no manifest is written."""
    inputs = {"sources": args.sources, "publications": args.pubs, "links": args.links}
    if getattr(args, "cutoff_table", None):
        inputs["cutoff_table"] = args.cutoff_table
    _trim_c_heap()
    manifest = build_manifest(command=args.command, inputs=inputs, parameters=parameters, outputs=outputs)
    if ingested is not None:
        for before, after in zip(ingested, _record_states(args)):
            if before != after:
                raise OSError(f"input {before[0]} changed during the run")
    write_manifest(out / "manifest.json", manifest)


def _trim_c_heap() -> None:
    """Give the C heap's free pages back to the OS (glibc's malloc_trim; a
    no-op elsewhere) before the manifest maps OpenSSL in. glibc keeps a freed
    heap top smaller than a threshold that grows with the largest block freed,
    so 1 to 4 MiB of the freed index would stay resident, as the order of its
    allocations falls out, and set the command's peak RSS."""
    try:
        import ctypes  # about 4 ms and 0.7 MiB, paid after the index is freed

        ctypes.CDLL(None).malloc_trim(0)
    except (ImportError, OSError, TypeError, AttributeError):
        pass


# Each engine command loads and computes inside a helper, so its index is
# freed on return, before build_manifest maps OpenSSL in for the digests.
def _annual(args, cutoff: date, out: Path, only: str | None) -> tuple:
    """Load, snapshot, compute the annual basket and write its files to out;
    returns the ingest report and the written outputs."""
    index, report = _load_and_report(args)
    view = snapshot(index, cutoff)
    rows, standings = compute_annual(view, args.year)
    out.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, Path] = {}
    if only in (None, "metrics"):
        outputs["metrics"] = write_metrics_csv(out / "metrics.csv", rows, view.sources)
    if only in (None, "standings"):
        outputs["standings"] = write_standings_csv(out / "standings.csv", standings)
    return report, outputs


def cmd_compute(args, parser) -> int:
    cutoff, cutoff_origin = _parse_cutoff(args, parser)
    out = Path(args.out)
    ingested = _record_states(args)
    report, outputs = _annual(args, cutoff, out, args.only)
    parameters = {
        "year": args.year,
        "cutoff": cutoff.isoformat(),
        "cutoff_origin": cutoff_origin,
        "only": args.only,
        "ingest": report.counts(),
    }
    _write_run_manifest(args, out, parameters, outputs, ingested)
    return EXIT_OK


def _tracker(args, schedule: list[date], out: Path) -> tuple:
    """Load, score every schedule date and write the tracker files to out;
    returns the ingest report and the written outputs."""
    index, report = _load_and_report(args)
    rows = tracker_table(index, args.year, schedule)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {"tracker": write_tracker_csv(out / "tracker.csv", rows)}
    if args.stability_report:
        outputs["stability"] = write_stability_csv(out / "stability.csv", stability_report(rows))
    return report, outputs


def cmd_tracker(args, parser) -> int:
    try:
        schedule = month_end_schedule(args.from_month, args.to_month)
    except ValueError as exc:
        parser.error(str(exc))
    out = Path(args.out)
    ingested = _record_states(args)
    report, outputs = _tracker(args, schedule, out)
    parameters = {
        "year": args.year,
        "schedule_from": args.from_month,
        "schedule_to": args.to_month,
        "schedule_dates": [d.isoformat() for d in schedule],
        "stability_report": args.stability_report,
        "ingest": report.counts(),
    }
    _write_run_manifest(args, out, parameters, outputs, ingested)
    return EXIT_OK


def cmd_generate(args, parser) -> int:
    from dataclasses import fields

    from .corpus import CorpusConfig, generate_corpus

    settings: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            try:
                loaded = json.load(handle)
            except json.JSONDecodeError as exc:
                parser.error(f"invalid corpus config: {args.config} is not JSON ({exc})")
            except (ValueError, RecursionError) as exc:  # too many digits, or nested too deeply
                parser.error(f"invalid corpus config: {args.config} cannot be read ({exc})")
        if not isinstance(loaded, dict):
            parser.error(f"invalid corpus config: {args.config} must hold a JSON object")
        settings.update(loaded)
    config_fields = {f.name for f in fields(CorpusConfig)}
    settings.update((name, value) for name, value in vars(args).items() if name in config_fields and value is not None)
    if "seed" not in settings:
        parser.error("--seed is required (or provide it in --config)")
    try:
        config = CorpusConfig.from_dict(settings)
        config.validate()
    except (TypeError, ValueError) as exc:
        parser.error(f"invalid corpus config: {exc}")

    paths = generate_corpus(config, args.out)
    inputs = {"config": args.config} if args.config else {}
    outputs = {"sources": paths.sources_path, "publications": paths.publications_path, "links": paths.links_path}
    manifest = build_manifest(command="generate", inputs=inputs, parameters={"config": config.to_dict()}, outputs=outputs)
    write_manifest(Path(args.out) / "manifest.json", manifest)
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    cutoff, cutoff_origin = _parse_cutoff(args, parser)
    out = Path(args.out)
    engine_dir = out / "engine"
    oracle_dir = out / "oracle"

    ingested = None
    if not args.compare_only:
        from .oracle import OracleDataError, oracle_metrics

        ingested = _record_states(args)
        _annual(args, cutoff, engine_dir, None)
        try:
            oracle_metrics(args.sources, args.pubs, args.links, args.year, cutoff, oracle_dir)
        except OracleDataError as exc:
            _write_stderr(f"ERROR: oracle rejected input: {exc}\n")
            return EXIT_DATA_ERROR

    # The report's first MAX_DIFFERENCES lines, in file order.
    differences = [
        f"{name}: {diff}"
        for name, key_width in (("metrics.csv", 1), ("standings.csv", 2))
        for diff in compare_output_files(engine_dir / name, oracle_dir / name, key_width)
    ][:MAX_DIFFERENCES]

    parameters = {"year": args.year, "cutoff": cutoff.isoformat(), "cutoff_origin": cutoff_origin,
                  "identical": not differences}
    outputs = {
        "engine_metrics": engine_dir / "metrics.csv",
        "engine_standings": engine_dir / "standings.csv",
        "oracle_metrics": oracle_dir / "metrics.csv",
        "oracle_standings": oracle_dir / "standings.csv",
    }
    _write_run_manifest(args, out, parameters, outputs, ingested)

    report_path = out / "diff_report.txt"
    if not differences:
        report_path.unlink(missing_ok=True)  # an earlier mismatch's report no longer holds
        return EXIT_OK
    report_path.write_text("".join(f"{line}\n" for line in differences), encoding="utf-8", newline="\n")
    _write_stderr(
        f"ERROR: engine and oracle outputs differ ({len(differences)} row diffs reported in {report_path})\n"
    )
    return EXIT_MISMATCH


def _snapshot_info(args, cutoff: date) -> dict:
    """Load and count the snapshot at cutoff."""
    index, report = _load_and_report(args)
    view = snapshot(index, cutoff)
    by_year = view.sort_year_counts
    return {
        "cutoff": cutoff.isoformat(),
        "sources": len(view.sources),
        "publications": sum(by_year.values()),
        "links": view.link_count,
        "publications_by_sort_year": {str(y): by_year[y] for y in sorted(by_year)},
        "ingest": report.counts(),
    }


def cmd_snapshot_info(args, parser) -> int:
    if (args.cutoff is not None) == (args.year is not None):
        parser.error("provide exactly one of --cutoff or --year")
    cutoff, _origin = _parse_cutoff(args, parser)
    ingested = _record_states(args) if args.out else None
    text = json.dumps(_snapshot_info(args, cutoff), indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        info_path = out / "snapshot_info.json"
        info_path.write_text(text, encoding="utf-8", newline="\n")
        _write_run_manifest(args, out, {"cutoff": cutoff.isoformat()}, {"snapshot_info": info_path}, ingested)
    return EXIT_OK


if __name__ == "__main__":
    console_entry()
