"""Command-line front end.

Subcommands: compute, tracker, generate, verify, snapshot-info.
Exit codes: 0 ok, 1 data error, 2 usage error, 3 verification mismatch.
Diagnostics go to stderr only; data outputs are files (or stdout JSON for
snapshot-info), so output stays machine-consumable.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from datetime import date
from pathlib import Path

from . import __version__
from .corpus import CorpusConfig, generate_corpus
from .cutoffs import default_cutoff, load_cutoff_table
from .index import IngestError, load_index, snapshot
from .manifest import build_manifest, file_digest, write_manifest
from .metrics import compute_annual
from .oracle import OracleDataError, oracle_metrics
from .output import (
    compare_output_files,
    write_metrics_csv,
    write_stability_csv,
    write_standings_csv,
    write_tracker_csv,
)
from .records import parse_date
from .tracker import month_end_schedule, stability_report, tracker_table

logger = logging.getLogger("citescore")

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citescore",
        description="Batch CiteScore metrics over a load-dated citation index.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--sources", required=True, help="sources record file (JSON lines)")
    inputs.add_argument("--pubs", required=True, help="publications record file (JSON lines)")
    inputs.add_argument("--links", required=True, help="citation links record file (JSON lines)")
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress warnings")

    compute = sub.add_parser(
        "compute", parents=[inputs, quiet], help="annual metrics and category standings"
    )
    compute.add_argument("--year", type=int, required=True, help="metrics year")
    compute.add_argument("--cutoff", help="snapshot cutoff YYYY-MM-DD (default: per cutoff table)")
    compute.add_argument("--cutoff-table", help="alternative cutoff table JSON")
    compute.add_argument("--only", choices=["metrics", "standings"], help="write just one output file")
    compute.add_argument("--out", required=True, help="output directory")
    compute.set_defaults(handler=cmd_compute)

    tracker = sub.add_parser(
        "tracker", parents=[inputs, quiet], help="monthly in-progress scores for one year"
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
    tracker.set_defaults(handler=cmd_tracker)

    generate = sub.add_parser("generate", parents=[quiet], help="synthetic corpus files")
    generate.add_argument("--config", help="corpus config JSON file")
    generate.add_argument("--seed", type=int, help="generator seed")
    generate.add_argument("--journals", type=int, help="number of journals")
    generate.add_argument("--first-year", type=int)
    generate.add_argument("--last-year", type=int)
    generate.add_argument("--pubs-mean", type=float, help="mean publications per journal per year")
    generate.add_argument("--citation-rate", type=float, help="mean in-window references per publication")
    generate.add_argument("--aip-fraction", type=float, help="article-in-press probability for recent years")
    generate.add_argument("--rename-prob", type=float, help="per-journal mid-span rename probability")
    generate.add_argument("--categories", type=int, help="number of ASJC codes in play")
    generate.add_argument("--out", required=True, help="output directory")
    generate.set_defaults(handler=cmd_generate)

    verify = sub.add_parser(
        "verify", parents=[inputs, quiet], help="engine vs. brute-force oracle comparison"
    )
    verify.add_argument("--year", type=int, required=True)
    verify.add_argument("--cutoff", help="snapshot cutoff YYYY-MM-DD (default: per cutoff table)")
    verify.add_argument("--cutoff-table", help="alternative cutoff table JSON")
    verify.add_argument(
        "--compare-only",
        action="store_true",
        help="skip recomputation and compare existing engine/ and oracle/ outputs",
    )
    verify.add_argument("--out", required=True, help="output directory")
    verify.set_defaults(handler=cmd_verify)

    info = sub.add_parser(
        "snapshot-info", parents=[inputs, quiet], help="record counts at a cutoff"
    )
    info.add_argument("--cutoff", help="snapshot cutoff YYYY-MM-DD")
    info.add_argument("--year", type=int, help="metrics year whose default cutoff to use")
    info.add_argument("--cutoff-table", help="alternative cutoff table JSON")
    info.add_argument("--out", help="optional output directory")
    info.set_defaults(handler=cmd_snapshot_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    logger.addHandler(handler)
    logger.propagate = False
    logger.setLevel(logging.ERROR if getattr(args, "quiet", False) else logging.WARNING)
    try:
        return args.handler(args, parser)
    except IngestError as exc:
        logger.error("ingest failed: %s", exc)
        return EXIT_DATA_ERROR
    except OracleDataError as exc:
        logger.error("oracle rejected input: %s", exc)
        return EXIT_DATA_ERROR
    except (OSError, UnicodeDecodeError) as exc:
        logger.error("%s", exc)
        return EXIT_DATA_ERROR
    finally:
        logger.removeHandler(handler)


def _parse_cutoff(args, parser: argparse.ArgumentParser) -> tuple[date, str]:
    table_path = getattr(args, "cutoff_table", None)
    try:
        table = load_cutoff_table(table_path) if table_path else None
        if not args.cutoff:
            return default_cutoff(args.year, table), "cutoff-table" if table_path else "default-table"
    except ValueError as exc:
        parser.error(f"cutoff table {table_path or '(bundled)'}: {exc}")
    try:
        return parse_date(args.cutoff), "flag"
    except ValueError:
        parser.error(f"--cutoff {args.cutoff!r} is not a valid YYYY-MM-DD date")


def _load_and_report(args) -> tuple:
    index, report = load_index(args.sources, args.pubs, args.links)
    for warning in report.warnings:
        logger.warning("%s", warning)
    return index, report


def _input_files(args) -> dict:
    inputs = {"sources": args.sources, "publications": args.pubs, "links": args.links}
    if getattr(args, "cutoff_table", None):
        inputs["cutoff_table"] = args.cutoff_table
    return inputs


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
    report, outputs = _annual(args, cutoff, out, args.only)

    manifest = build_manifest(
        command="compute",
        inputs=_input_files(args),
        parameters={
            "year": args.year,
            "cutoff": cutoff.isoformat(),
            "cutoff_origin": cutoff_origin,
            "only": args.only,
            "ingest": report.counts(),
        },
        outputs=outputs,
    )
    write_manifest(out / "manifest.json", manifest)
    return EXIT_OK


def cmd_tracker(args, parser) -> int:
    try:
        schedule = month_end_schedule(args.from_month, args.to_month)
    except ValueError as exc:
        parser.error(str(exc))
    index, report = _load_and_report(args)
    rows = tracker_table(index, args.year, schedule)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {"tracker": write_tracker_csv(out / "tracker.csv", rows)}
    if args.stability_report:
        outputs["stability"] = write_stability_csv(out / "stability.csv", stability_report(rows))

    manifest = build_manifest(
        command="tracker",
        inputs=_input_files(args),
        parameters={
            "year": args.year,
            "schedule_from": args.from_month,
            "schedule_to": args.to_month,
            "schedule_dates": [d.isoformat() for d in schedule],
            "stability_report": args.stability_report,
            "ingest": report.counts(),
        },
        outputs=outputs,
    )
    write_manifest(out / "manifest.json", manifest)
    return EXIT_OK


_GENERATE_FLAG_FIELDS = {
    "seed": "seed",
    "journals": "n_journals",
    "first_year": "first_year",
    "last_year": "last_year",
    "pubs_mean": "pubs_per_year_mean",
    "citation_rate": "citation_rate",
    "aip_fraction": "aip_fraction",
    "rename_prob": "rename_probability",
    "categories": "n_categories",
}


def cmd_generate(args, parser) -> int:
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
    for flag, field_name in _GENERATE_FLAG_FIELDS.items():
        value = getattr(args, flag)
        if value is not None:
            settings[field_name] = value
    if "seed" not in settings:
        parser.error("--seed is required (or provide it in --config)")
    try:
        config = CorpusConfig.from_dict(settings)
        config.validate()
    except (TypeError, ValueError) as exc:
        parser.error(f"invalid corpus config: {exc}")

    paths = generate_corpus(config, args.out)
    inputs = {"config": args.config} if args.config else {}
    manifest = build_manifest(
        command="generate",
        inputs=inputs,
        parameters={"config": config.to_dict()},
        outputs={
            "sources": paths.sources_path,
            "publications": paths.publications_path,
            "links": paths.links_path,
        },
    )
    write_manifest(Path(args.out) / "manifest.json", manifest)
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    cutoff, cutoff_origin = _parse_cutoff(args, parser)
    out = Path(args.out)
    engine_dir = out / "engine"
    oracle_dir = out / "oracle"

    if not args.compare_only:
        _annual(args, cutoff, engine_dir, None)
        oracle_metrics(args.sources, args.pubs, args.links, args.year, cutoff, oracle_dir)

    differences: list[str] = []
    identical = True
    for name, key_width in (("metrics.csv", 1), ("standings.csv", 2)):
        engine_file = engine_dir / name
        oracle_file = oracle_dir / name
        if file_digest(engine_file) == file_digest(oracle_file):
            continue
        identical = False
        rows_diff = compare_output_files(engine_file, oracle_file, key_width, limit=50 - len(differences))
        if not rows_diff:
            rows_diff = [f"{name}: files differ at byte level"]
        differences.extend(f"{name}: {diff}" for diff in rows_diff)

    manifest = build_manifest(
        command="verify",
        inputs=_input_files(args),
        parameters={
            "year": args.year,
            "cutoff": cutoff.isoformat(),
            "cutoff_origin": cutoff_origin,
            "identical": identical,
        },
        outputs={
            "engine_metrics": engine_dir / "metrics.csv",
            "engine_standings": engine_dir / "standings.csv",
            "oracle_metrics": oracle_dir / "metrics.csv",
            "oracle_standings": oracle_dir / "standings.csv",
        },
    )
    write_manifest(out / "manifest.json", manifest)

    if not identical:
        report_path = out / "diff_report.txt"
        with open(report_path, "w", encoding="utf-8", newline="\n") as handle:
            for line in differences[:50]:
                handle.write(line + "\n")
        logger.error(
            "engine and oracle outputs differ (%d row diffs reported in %s)",
            len(differences[:50]),
            report_path,
        )
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_snapshot_info(args, parser) -> int:
    if bool(args.cutoff) == (args.year is not None):
        parser.error("provide exactly one of --cutoff or --year")
    cutoff, _origin = _parse_cutoff(args, parser)
    index, report = _load_and_report(args)
    view = snapshot(index, cutoff)

    by_year: dict[int, int] = {}
    for record in view.publications.values():
        by_year[record.sort_year] = by_year.get(record.sort_year, 0) + 1
    info = {
        "cutoff": cutoff.isoformat(),
        "sources": len(view.sources),
        "publications": len(view.publications),
        "links": view.link_count,
        "publications_by_sort_year": {str(y): by_year[y] for y in sorted(by_year)},
        "ingest": report.counts(),
    }
    print(json.dumps(info, indent=2, sort_keys=True))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        info_path = out / "snapshot_info.json"
        with open(info_path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(info, handle, indent=2, sort_keys=True)
            handle.write("\n")
        manifest = build_manifest(
            command="snapshot-info",
            inputs=_input_files(args),
            parameters={"cutoff": cutoff.isoformat()},
            outputs={"snapshot_info": info_path},
        )
        write_manifest(out / "manifest.json", manifest)
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
