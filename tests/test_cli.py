"""The command-line surface: flags, exit codes, manifests, diagnostics."""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from datetime import date, timedelta
from pathlib import Path

import pytest

import citescore
import citescore.cli as cli_module
import citescore.index as index_module
from citescore import count_citations, count_documents, load_index, tracker_value
from citescore.cli import main
from citescore.oracle import OracleDataError
from citescore.corpus import canonical_line
from citescore.manifest import _CHUNK_BYTES, file_digest
from citescore.records import DOC_TYPES

from helpers import link_line, pub_line, source_line, stored, write_corpus


@pytest.fixture()
def corpus(tmp_path):
    out = tmp_path / "corpus"
    code = main(["generate", "--seed", "3", "--journals", "10", "--out", str(out)])
    assert code == 0
    return {
        "--sources": str(out / "sources.jsonl"),
        "--pubs": str(out / "publications.jsonl"),
        "--links": str(out / "links.jsonl"),
    }


def _flags(corpus):
    return [flag for pair in corpus.items() for flag in pair]


def test_compute_uses_default_cutoffs(corpus, tmp_path):
    expectations = {2016: "2017-05-31", 2017: "2018-04-30", 2013: "2014-05-31"}
    for year, cutoff in expectations.items():
        out = tmp_path / f"run{year}"
        code = main(["compute"] + _flags(corpus) + ["--year", str(year), "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["cutoff"] == cutoff
        assert manifest["parameters"]["cutoff_origin"] == "default-table"
        assert (out / "metrics.csv").exists()
        assert (out / "standings.csv").exists()


def test_compute_explicit_cutoff_recorded(corpus, tmp_path):
    out = tmp_path / "run"
    code = main(["compute"] + _flags(corpus)
                + ["--year", "2016", "--cutoff", "2016-12-31", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["cutoff"] == "2016-12-31"
    assert manifest["parameters"]["cutoff_origin"] == "flag"


def test_missing_year_is_usage_error(corpus, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["compute"] + _flags(corpus) + ["--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--frobnicate"])
    assert excinfo.value.code == 2


def test_each_subcommand_declares_its_options_once():
    """Each subcommand's option strings, as build_parser() declares them:
    the record files and --quiet from one parent parser, --cutoff and
    --cutoff-table from another."""
    parser = cli_module.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    inputs = ["-h", "--help", "--sources", "--pubs", "--links", "--quiet"]
    cutoffs = ["--cutoff", "--cutoff-table"]
    expected = {
        "compute": inputs + cutoffs + ["--year", "--only", "--out"],
        "tracker": inputs + ["--year", "--from", "--to", "--stability-report", "--out"],
        "generate": ["-h", "--help", "--config", "--seed", "--journals", "--first-year", "--last-year",
                     "--pubs-mean", "--citation-rate", "--aip-fraction", "--rename-prob", "--categories", "--out"],
        "verify": inputs + cutoffs + ["--year", "--compare-only", "--out"],
        "snapshot-info": inputs + cutoffs + ["--year", "--out"],
    }
    got = {
        name: [option for action in sub._actions for option in action.option_strings]
        for name, sub in subcommands.items()
    }
    assert {name: sorted(options) for name, options in got.items()} == {
        name: sorted(options) for name, options in expected.items()
    }
    assert all(len(options) == len(set(options)) for options in got.values())


@pytest.mark.parametrize("flags, message", [
    *((["--cutoff", cutoff], f"--cutoff {cutoff!r} is not a valid YYYY-MM-DD date")
      for cutoff in ["2018-02-30", "30/04/2018", "20180430", "2018-W18-1", "2018-04-30\n"]),
    *((["--year", str(year)], f"--year {year} has no default cutoff: {year + 1} is not a year from 0001 to 9999")
      for year in [9999, -3, -1]),
], ids=["impossible", "not-iso", "basic-format", "week-date", "trailing-newline",
        "year-9999", "year-minus-3", "year-minus-1"])
@pytest.mark.parametrize("command", ["compute", "verify", "snapshot-info"])
def test_bad_cutoff_flag_is_usage_error(corpus, tmp_path, capsys, command, flags, message):
    # Python 3.11's date.fromisoformat takes the basic and week forms; the
    # flag takes YYYY-MM-DD only, on every version. The default rule's
    # cutoff falls in year + 1: when no date holds that year, the error
    # names --year, not the cutoff table.
    if command != "snapshot-info":
        flags = flags + (["--year", "2017"] if "--year" not in flags else []) + ["--out", str(tmp_path / "x")]
    with pytest.raises(SystemExit) as excinfo:
        main([command] + _flags(corpus) + flags)
    assert excinfo.value.code == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines[-1] == f"citescore {command}: error: {message}"
    assert not any(line.startswith(("Traceback", "ERROR")) for line in err_lines)


def test_compute_only_flag_restricts_outputs(corpus, tmp_path):
    out = tmp_path / "run"
    code = main(["compute"] + _flags(corpus)
                + ["--year", "2016", "--only", "metrics", "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert not (out / "standings.csv").exists()


def test_compute_idempotent_digests(corpus, tmp_path):
    digests = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert main(["compute"] + _flags(corpus) + ["--year", "2017", "--out", str(out)]) == 0
        digests.append(
            (file_digest(out / "metrics.csv"), file_digest(out / "standings.csv"))
        )
    assert digests[0] == digests[1]


def test_dangling_link_warns_but_succeeds(tmp_path, capsys):
    sources = [source_line(1)]
    pubs = [pub_line("a", 1, 2015), pub_line("b", 1, 2017)]
    links = [link_line("b", "a"), link_line("b", "ghost")]
    s, p, l = write_corpus(tmp_path, sources, pubs, links)
    out = tmp_path / "run"
    code = main(["compute", "--sources", str(s), "--pubs", str(p), "--links", str(l),
                 "--year", "2017", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "dangling" in captured.err
    assert captured.out == ""  # diagnostics never touch stdout


def test_duplicate_pub_id_is_data_error(tmp_path):
    sources = [source_line(1)]
    pubs = [pub_line("a", 1, 2015), pub_line("a", 1, 2016)]
    s, p, l = write_corpus(tmp_path, sources, pubs, [])
    code = main(["compute", "--sources", str(s), "--pubs", str(p), "--links", str(l),
                 "--year", "2017", "--out", str(tmp_path / "run")])
    assert code == 1


def test_missing_input_file_is_data_error(tmp_path):
    code = main(["compute", "--sources", str(tmp_path / "nope.jsonl"),
                 "--pubs", str(tmp_path / "nope.jsonl"),
                 "--links", str(tmp_path / "nope.jsonl"),
                 "--year", "2017", "--out", str(tmp_path / "run")])
    assert code == 1


def test_tracker_month_schedule_row_counts(corpus, tmp_path):
    out = tmp_path / "run"
    code = main(["tracker"] + _flags(corpus)
                + ["--year", "2018", "--from", "2018-06", "--to", "2019-04", "--out", str(out)])
    assert code == 0
    lines = (out / "tracker.csv").read_text().splitlines()
    assert lines[0] == "source_id,tracker_year,as_of_date,citations,documents,tracker_value"
    rows = [line.split(",") for line in lines[1:]]
    per_source: dict[str, int] = {}
    first_month = set()
    for row in rows:
        per_source[row[0]] = per_source.get(row[0], 0) + 1
        if row[2] == "2018-06-30":
            first_month.add(row[0])
    # A source scoreable at the first month-end stays scoreable (the index is
    # append-only), so it gets all 11 schedule points.
    assert first_month
    assert all(per_source[sid] == 11 for sid in first_month)
    dates = sorted({row[2] for row in rows})
    assert dates[0] == "2018-06-30" and dates[-1] == "2019-04-30"


def test_link_order_changes_no_output(corpus, tmp_path):
    """Links out of reference-list order, with a few re-inserted far from
    their first copy, give the grouped file's outputs byte for byte; only
    links_collapsed counts the re-inserted lines."""
    lines = Path(corpus["--links"]).read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(3).shuffle(lines)
    repeats = 5
    for i in range(repeats):
        lines.insert(len(lines) - i, lines[i])
    shuffled = dict(corpus, **{"--links": str(tmp_path / "shuffled-links.jsonl")})
    Path(shuffled["--links"]).write_text("".join(lines), encoding="utf-8")

    runs = {
        "compute": (["--year", "2017"], ["metrics.csv", "standings.csv"]),
        "tracker": (["--year", "2017", "--from", "2017-06", "--to", "2018-04", "--stability-report"],
                    ["tracker.csv", "stability.csv"]),
    }
    for command, (flags, outputs) in runs.items():
        manifests = []
        for name, files in (("grouped", corpus), ("shuffled", shuffled)):
            out = tmp_path / f"{command}-{name}"
            assert main([command] + _flags(files) + flags + ["--out", str(out)]) == 0
            manifests.append(json.loads((out / "manifest.json").read_text(encoding="utf-8")))
        for output in outputs:
            assert (tmp_path / f"{command}-shuffled" / output).read_bytes() == \
                (tmp_path / f"{command}-grouped" / output).read_bytes()
        grouped, reordered = (manifest["parameters"]["ingest"] for manifest in manifests)
        assert grouped["links_collapsed"] == 0 and grouped["links_accepted"] > 500
        assert reordered == dict(grouped, links_collapsed=repeats)


def test_tracker_reversed_range_is_usage_error(corpus, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["tracker"] + _flags(corpus)
             + ["--year", "2018", "--from", "2019-04", "--to", "2018-06",
                "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("flag, month", [
    ("--from", "2018-1_2"),
    ("--from", "+2018-1"),
    ("--from", " 2018-01"),
    ("--from", "2018-\u0660\u0661"),
    ("--from", "2018-13"),
    ("--to", "2018-1_2"),
    ("--to", "2018-12 "),
])
def test_tracker_malformed_month_is_usage_error(corpus, tmp_path, capsys, flag, month):
    months = {"--from": "2018-01", "--to": "2018-12", flag: month}
    with pytest.raises(SystemExit) as excinfo:
        main(["tracker"] + _flags(corpus)
             + ["--year", "2018", "--from", months["--from"], "--to", months["--to"],
                "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"citescore tracker: error: expected YYYY-MM, got {month!r}"
    assert not (tmp_path / "x").exists()


def test_tracker_final_point_matches_compute(corpus, tmp_path):
    compute_out = tmp_path / "annual"
    tracker_out = tmp_path / "tracker"
    assert main(["compute"] + _flags(corpus) + ["--year", "2017", "--out", str(compute_out)]) == 0
    assert main(["tracker"] + _flags(corpus)
                + ["--year", "2017", "--from", "2017-06", "--to", "2018-04",
                   "--out", str(tracker_out)]) == 0
    annual = {
        line.split(",")[0]: line.split(",")
        for line in (compute_out / "metrics.csv").read_text().splitlines()[1:]
    }
    final = {}
    for line in (tracker_out / "tracker.csv").read_text().splitlines()[1:]:
        fields = line.split(",")
        if fields[2] == "2018-04-30":
            final[fields[0]] = fields
    assert final.keys() == annual.keys()
    for sid, fields in final.items():
        # citations, documents, value == citations, documents, citescore
        assert fields[3] == annual[sid][4]
        assert fields[4] == annual[sid][5]
        assert fields[5] == annual[sid][3]


def test_tracker_stability_report(corpus, tmp_path):
    out = tmp_path / "run"
    code = main(["tracker"] + _flags(corpus)
                + ["--year", "2017", "--from", "2017-06", "--to", "2018-04",
                   "--stability-report", "--out", str(out)])
    assert code == 0
    lines = (out / "stability.csv").read_text().splitlines()
    assert lines[0] == "as_of_date,n_sources,rank_correlation"
    assert lines[-1].startswith("2018-04-30,")
    assert lines[-1].endswith("1.000000")  # final month correlates with itself


def test_generate_is_deterministic_across_invocations(tmp_path):
    manifests = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["generate", "--seed", "7", "--journals", "6", "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert manifests[0]["outputs"] == manifests[1]["outputs"]


def test_generate_accepts_config_file_with_flag_overrides(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 9, "n_journals": 4, "n_categories": 2}))
    out = tmp_path / "out"
    assert main(["generate", "--config", str(config_path), "--journals", "5",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["config"]["n_journals"] == 5
    assert manifest["parameters"]["config"]["n_categories"] == 2
    assert len((out / "sources.jsonl").read_text().splitlines()) >= 5


def test_generate_rejects_bad_config(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--seed", "1", "--aip-fraction", "1.5", "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    # Wrongly typed config fields are named in a usage error, not a traceback.
    for field, value in (("lag", 3), ("n_journals", "5")):
        config_path = tmp_path / f"{field}.json"
        config_path.write_text(json.dumps({"seed": 1, field: value}))
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--config", str(config_path), "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2
        assert f"invalid corpus config: {field} must be" in capsys.readouterr().err
    # A config file that is not JSON, or not a JSON object, is a usage error too,
    # and so is one the decoder cannot read: an integer past the interpreter's
    # 4,300-digit conversion limit, or nesting past its recursion limit.
    for name, text in (("not_json.json", "not json"), ("list.json", "[1,2]"),
                       ("huge_int.json", '{"seed": 1, "n_journals": ' + "1" * 5000 + "}"),
                       ("nested.json", "[" * 200_000)):
        config_path = tmp_path / name
        config_path.write_text(text)
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--config", str(config_path), "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"citescore generate: error: invalid corpus config: {config_path}")


def test_generate_rejects_unknown_lag_key(tmp_path, capsys):
    """A misspelt lag key is a usage error, as an unknown top-level key is;
    the lag keys given override the defaults and the rest keep them."""
    config_path = tmp_path / "typo.json"
    config_path.write_text(json.dumps({"seed": 1, "lag": {"short_wieght": 0.5}}))
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--config", str(config_path), "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("citescore generate: error: invalid corpus config: ")
    assert "short_wieght" in err[-1]
    assert not (tmp_path / "x").exists()

    config_path = tmp_path / "partial.json"
    config_path.write_text(json.dumps({"seed": 1, "n_journals": 2, "lag": {"long_days": [40, 90]}}))
    assert main(["generate", "--config", str(config_path), "--out", str(tmp_path / "y")]) == 0
    manifest = json.loads((tmp_path / "y" / "manifest.json").read_text())
    assert manifest["parameters"]["config"]["lag"] == {
        "short_weight": 0.95, "short_days": [1, 14], "long_days": [40, 90],
    }


@pytest.mark.parametrize("lag, field", [
    ({"short_days": [1.5, 3]}, "short_days"),
    ({"short_days": [1, 2, 3]}, "short_days"),
    ({"short_days": "ab"}, "short_days"),
    ({"short_days": 5}, "short_days"),
    ({"short_days": None}, "short_days"),
    ({"short_weight": True}, "short_weight"),
    ({"long_days": [True, 3]}, "long_days"),
], ids=["float-day", "three-days", "string", "int", "null", "bool-weight", "bool-day"])
def test_generate_rejects_mistyped_lag_field(tmp_path, capsys, lag, field):
    """Each lag field has one typed check: a wrong type is a usage error
    that names the field, before any file is written."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 1, "n_journals": 2, "lag": lag}))
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--config", str(config_path), "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"citescore generate: error: invalid corpus config: {field} must be ")
    assert not any(line.startswith("Traceback") for line in err)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("compute", ["--year", "2017", "--cutoff", ""], "--cutoff '' is not a valid YYYY-MM-DD date"),
    ("snapshot-info", ["--cutoff", ""], "--cutoff '' is not a valid YYYY-MM-DD date"),
    ("snapshot-info", ["--cutoff", "", "--year", "2016"], "provide exactly one of --cutoff or --year"),
], ids=["compute", "snapshot-info", "snapshot-info-with-year"])
def test_empty_cutoff_is_given_not_absent(corpus, tmp_path, capsys, command, flags, message):
    """--cutoff '' is a flag given with a value that is not a date, not the
    default cutoff."""
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as excinfo:
        main([command] + _flags(corpus) + flags + ["--out", str(out)])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"citescore {command}: error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("compute", ["--year", "2017", "--cutoff", "2018-02-30"]),
    ("verify", ["--year", "2017", "--cutoff", "2018-02-30"]),
    ("snapshot-info", ["--year", "2016", "--cutoff", "2016-12-31"]),
    ("tracker", ["--year", "2018", "--from", "2018-05", "--to", "2018-01"]),
    ("generate", []),
])
def test_handler_usage_error_prints_its_subcommand_usage(corpus, tmp_path, capsys, command, flags):
    """A usage error that a command's handler finds prints that command's
    usage and name, as argparse's own errors for the command do."""
    inputs = [] if command == "generate" else _flags(corpus)
    with pytest.raises(SystemExit) as excinfo:
        main([command] + inputs + flags + ["--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines[0].startswith(f"usage: citescore {command} [-h] ")
    assert err_lines[-1].startswith(f"citescore {command}: error: ")


@pytest.mark.parametrize("command,flags", [
    ("compute", ["--year", "2017"]),
    ("tracker", ["--year", "2018", "--from", "2018-01", "--to", "2018-02"]),
    ("generate", ["--seed", "1"]),
])
def test_unknown_argument_after_a_command_prints_its_usage(corpus, tmp_path, capsys, command, flags):
    """An argument that the command does not know is that command's usage
    error; one before the command is the top-level parser's."""
    inputs = [] if command == "generate" else _flags(corpus)
    args = [command] + inputs + flags + ["--out", str(tmp_path / "x")]
    for argv, prog, unknown in ((args + ["--frob", "extra"], f"citescore {command}", "--frob extra"),
                                (["--frob"] + args, "citescore", "--frob")):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err_lines = capsys.readouterr().err.splitlines()
        assert err_lines[0].startswith(f"usage: {prog} [-h] ")
        assert err_lines[-1] == f"{prog}: error: unrecognized arguments: {unknown}"
    assert not (tmp_path / "x").exists()


def test_generate_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2


def test_verify_passes_on_generated_corpus(corpus, tmp_path):
    out = tmp_path / "verify"
    code = main(["verify"] + _flags(corpus) + ["--year", "2017", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["identical"] is True
    assert not (out / "diff_report.txt").exists()


def test_verify_on_a_long_title_chain(tmp_path):
    """One chain of 10,000 sources with three publications each: the oracle
    finds each source's current title once, so verify stays linear, and
    both sides credit every publication to the chain's terminal."""
    n = 10_000
    sources = [source_line(sid, predecessor=sid - 1 if sid > 1 else None) for sid in range(1, n + 1)]
    pubs = [pub_line(f"p{sid}-{year}", sid, year) for sid in range(1, n + 1) for year in (2015, 2016, 2017)]
    links = [link_line(f"p{sid}-2017", f"p{sid % n + 1}-2016") for sid in range(1, n + 1)]
    s, p, l = write_corpus(tmp_path, sources, pubs, links)
    out = tmp_path / "verify"
    start = time.perf_counter()
    code = main(["verify", "--sources", str(s), "--pubs", str(p), "--links", str(l),
                 "--year", "2017", "--cutoff", "2018-04-30", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    for name in ("metrics.csv", "standings.csv"):
        assert (out / "engine" / name).read_bytes() == (out / "oracle" / name).read_bytes()
    assert (out / "engine" / "metrics.csv").read_text().splitlines()[1:] == [
        f"{n},Journal {n},2017,0.50,{n},{2 * n},50"
    ]
    assert elapsed < 5.0


def test_verify_detects_corrupted_row(corpus, tmp_path, capsys):
    """A corrupted row is reported; once it is restored, a passing verify
    into the same directory removes the stale report."""
    out = tmp_path / "verify"
    assert main(["verify"] + _flags(corpus) + ["--year", "2017", "--out", str(out)]) == 0

    metrics = out / "engine" / "metrics.csv"
    good = metrics.read_bytes()
    lines = good.decode().splitlines()
    fields = lines[1].split(",")
    fields[3] = "9.99"  # corrupt one value
    lines[1] = ",".join(fields)
    metrics.write_text("\n".join(lines) + "\n")

    capsys.readouterr()
    code = main(["verify"] + _flags(corpus)
                + ["--year", "2017", "--compare-only", "--out", str(out)])
    assert code == 3
    report = (out / "diff_report.txt").read_text().splitlines()
    assert len(report) == 1
    assert report[0].startswith("metrics.csv: row")
    assert capsys.readouterr().err == (
        f"ERROR: engine and oracle outputs differ (1 row diffs reported in {out / 'diff_report.txt'})\n"
    )

    metrics.write_bytes(good)
    assert main(["verify"] + _flags(corpus) + ["--year", "2017", "--compare-only", "--out", str(out)]) == 0
    assert not (out / "diff_report.txt").exists()
    assert json.loads((out / "manifest.json").read_text())["parameters"]["identical"] is True


def test_verify_reports_a_byte_level_difference_once(corpus, tmp_path, capsys):
    """CSVs whose rows match but whose bytes differ (two rows swapped) give
    one report line that names the file once."""
    out = tmp_path / "verify"
    assert main(["verify"] + _flags(corpus) + ["--year", "2017", "--out", str(out)]) == 0

    metrics = out / "engine" / "metrics.csv"
    lines = metrics.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    metrics.write_text("\n".join(lines) + "\n")

    capsys.readouterr()
    code = main(["verify"] + _flags(corpus)
                + ["--year", "2017", "--compare-only", "--out", str(out)])
    assert code == 3
    assert (out / "diff_report.txt").read_text() == "metrics.csv: files differ at byte level\n"


def test_verify_reports_at_most_50_lines_in_file_order(tmp_path, capsys):
    """The diff report stops at 50 lines, counted across both files in file
    order: more than 50 corrupted metrics rows fill it, and the standings'
    byte-level difference after them is left out; one corrupted row leaves
    room for it."""
    corpus = tmp_path / "corpus"
    assert main(["generate", "--seed", "5", "--journals", "70", "--out", str(corpus)]) == 0
    out = tmp_path / "verify"
    argv = ["verify", "--sources", str(corpus / "sources.jsonl"), "--pubs", str(corpus / "publications.jsonl"),
            "--links", str(corpus / "links.jsonl"), "--year", "2017", "--out", str(out)]
    assert main(argv) == 0
    metrics = (out / "oracle" / "metrics.csv").read_text().splitlines()
    standings = (out / "oracle" / "standings.csv").read_text().splitlines()
    standings[1], standings[2] = standings[2], standings[1]
    (out / "engine" / "standings.csv").write_text("\n".join(standings) + "\n")
    report_path = out / "diff_report.txt"

    def corrupt(n_rows):
        """Verify with the first n_rows metrics rows given a score of 99.99."""
        lines = metrics[:]
        for i in range(1, n_rows + 1):
            fields = lines[i].split(",")
            fields[3] = "99.99"
            lines[i] = ",".join(fields)
        (out / "engine" / "metrics.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(argv + ["--compare-only"]) == 3
        return report_path.read_text().splitlines(), capsys.readouterr().err

    assert len(metrics) - 1 > 50
    report, err = corrupt(len(metrics) - 1)
    assert len(report) == 50
    assert all(line.startswith("metrics.csv: row [") for line in report)
    assert err == f"ERROR: engine and oracle outputs differ (50 row diffs reported in {report_path})\n"

    report, err = corrupt(1)
    assert len(report) == 2
    assert report[0].startswith(f"metrics.csv: row [{metrics[1].split(',')[0]}]: ")
    assert report[1] == "standings.csv: files differ at byte level"
    assert err == f"ERROR: engine and oracle outputs differ (2 row diffs reported in {report_path})\n"


def test_snapshot_info_reports_counts(corpus, tmp_path, capsys):
    code = main(["snapshot-info"] + _flags(corpus) + ["--year", "2016"])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["cutoff"] == "2017-05-31"
    assert info["sources"] >= 10
    assert info["publications"] > 0
    assert info["links"] > 0
    assert info["ingest"]["links_rejected"] == 0


def test_snapshot_info_counts_equal_brute_force(corpus, capsys):
    def records(flag):
        with open(corpus[flag], encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    loaded = {pub["pub_id"]: date.fromisoformat(pub["load_date"]) for pub in records("--pubs")}
    links = {(link["citing_pub_id"], link["cited_pub_id"]) for link in records("--links")}
    loads = sorted(set(loaded.values()))
    gap = next(i for i in range(len(loads) - 1) if loads[i + 1] - loads[i] > timedelta(days=1))
    cutoffs = [
        loads[0] - timedelta(days=1),  # before any load date
        loads[len(loads) // 2],  # on a load date
        loads[gap] + timedelta(days=1),  # between two load dates
        loads[-1] + timedelta(days=1),  # after the last load date
    ]
    for cutoff in cutoffs:
        assert main(["snapshot-info"] + _flags(corpus) + ["--cutoff", cutoff.isoformat()]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["ingest"]["links_rejected"] == info["ingest"]["links_collapsed"] == 0
        assert info["publications"] == sum(day <= cutoff for day in loaded.values())
        assert info["links"] == sum(loaded[citing] <= cutoff and loaded[cited] <= cutoff for citing, cited in links)
    assert info["links"] == len(links) > 0


def test_integers_past_64_bits_ingest_count_and_score(tmp_path, capsys):
    """A source_id of 10**20 and a sort_year of 10**19, past the canonical
    pattern's 18 digits, are read by the checked parser into the columns,
    then counted and scored like any other value; an 18-digit sort_year is
    read inline."""
    big, far, near = 10**20, 10**19, 10**17

    def source(source_id):
        return canonical_line({"source_id": source_id, "title": f"J{source_id}", "source_type": "journal",
                               "asjc_codes": [1000], "is_actively_indexed": True})

    def pub(pub_id, source_id, sort_year, load_date="2017-03-01"):
        return canonical_line({"pub_id": pub_id, "source_id": source_id, "sort_year": sort_year,
                               "load_date": load_date, "doc_type": "article", "is_article_in_press": False})

    paths = write_corpus(
        tmp_path,
        [source(big), source(1)],
        [pub("p1", big, 2016, "2016-05-01"), pub("p2", big, 2015, "2015-05-01"), pub("p3", 1, 2017),
         pub("p4", 1, 2014), pub("far", big, far), pub("far2", 1, far), pub("near", 1, near)],
        [canonical_line({"citing_pub_id": citing, "cited_pub_id": cited})
         for citing, cited in [("p3", "p1"), ("p3", "p2"), ("far", "p1"), ("p3", "p4")]],
    )
    flags = ["--sources", str(paths[0]), "--pubs", str(paths[1]), "--links", str(paths[2])]
    out = tmp_path / "run"
    assert main(["compute"] + flags + ["--year", "2017", "--cutoff", "2018-04-30", "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_text().splitlines() == [
        "source_id,title,year,citescore,citations,documents,percent_cited",
        "1,J1,2017,1.00,1,1,100",
        f"{big},J{big},2017,1.00,2,2,100",
    ]
    assert (out / "standings.csv").read_text().splitlines()[1:] == ["1,1000,1,2,50,2", f"{big},1000,1,2,50,2"]
    assert main(["snapshot-info"] + flags + ["--cutoff", "2018-04-30"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert (info["publications"], info["links"]) == (7, 4)
    assert info["publications_by_sort_year"] == {
        str(far): 2, "2014": 1, "2015": 1, "2016": 1, "2017": 1, str(near): 1,
    }
    index, report = load_index(*paths)
    assert report.counts()["publications_rejected"] == report.counts()["links_rejected"] == 0
    pub_ids = ["p1", "p2", "p3", "p4", "far", "far2", "near"]
    assert [(r.pub_id, r.source_id, r.sort_year) for r in stored(index, pub_ids)[0].values()] == [
        ("p1", big, 2016), ("p2", big, 2015), ("p3", 1, 2017), ("p4", 1, 2014), ("far", big, far), ("far2", 1, far),
        ("near", 1, near),
    ]
    assert str(tracker_value(index, big, 2017, date(2018, 1, 31))) == "1.00"
    assert str(tracker_value(index, big, 2017, date(2017, 2, 1))) == "0.00"


def test_snapshot_info_needs_exactly_one_cutoff_choice(corpus, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["snapshot-info"] + _flags(corpus))
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["snapshot-info"] + _flags(corpus) + ["--year", "2016", "--cutoff", "2017-01-01"])
    assert excinfo.value.code == 2


def test_quiet_suppresses_warnings(tmp_path, capsys):
    sources = [source_line(1)]
    pubs = [pub_line("a", 1, 2015), pub_line("b", 1, 2017)]
    links = [link_line("b", "ghost")]
    s, p, l = write_corpus(tmp_path, sources, pubs, links)
    code = main(["compute", "--sources", str(s), "--pubs", str(p), "--links", str(l),
                 "--year", "2017", "--quiet", "--out", str(tmp_path / "run")])
    assert code == 0
    assert "dangling" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["compute", "--year", "2017"],
    ["tracker", "--year", "2017", "--from", "2017-01", "--to", "2017-03"],
    ["verify", "--year", "2017"],
    ["snapshot-info", "--year", "2017"],
])
def test_invalid_utf8_input_is_data_error(corpus, tmp_path, capsys, command):
    with open(corpus["--links"], "rb") as handle:
        bad_line = len(handle.read().splitlines()) + 1
    with open(corpus["--links"], "ab") as handle:
        handle.write(b'\xff\xfe{"citing_pub_id": "a", "cited_pub_id": "b"}\n')
    code = main(command + _flags(corpus) + ["--out", str(tmp_path / "run")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if not line.startswith("WARNING")] == [lines[-1]]
    assert lines[-1] == (
        f"ERROR: ingest failed: links line {bad_line}: not valid UTF-8 (byte 0xff at offset 0: invalid start byte)"
    )


def _assert_compute_and_verify(corpus, tmp_path, capsys, warning, counter):
    """compute exits 0 with the one warning and the line counted under
    counter, no traceback; verify finds engine and oracle files identical."""
    out = tmp_path / "run"
    assert main(["compute"] + _flags(corpus) + ["--year", "2017", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["ingest"][counter] == 1
    err = capsys.readouterr().err.splitlines()
    assert sum(line.endswith(warning) for line in err) == 1
    assert not any("Traceback" in line for line in err)

    code = main(["verify"] + _flags(corpus) + ["--year", "2017", "--out", str(tmp_path / "verify")])
    assert code == 0
    for name in ("metrics.csv", "standings.csv"):
        engine = (tmp_path / "verify" / "engine" / name).read_bytes()
        assert engine == (tmp_path / "verify" / "oracle" / name).read_bytes()


def test_every_document_type_counts(tmp_path, capsys, monkeypatch):
    """A document of each of the ten types, and the citation a document of
    that type gives, is accepted and counted: written in the generator's
    form, read inline, and spelled with spaces, read by the checked parser.
    The engine's CSVs equal the oracle's; an unknown type is still rejected
    with its warning."""
    pubs, links = [], []
    for doc_type in sorted(DOC_TYPES):
        for spelling, write in (("canonical", canonical_line), ("spaced", json.dumps)):
            cited, citing = f"{spelling}-{doc_type}", f"{spelling}-{doc_type}-citer"
            for pub_id, source_id, sort_year, load_date in ((cited, 1, 2015, "2015-01-10"),
                                                              (citing, 2, 2017, "2017-03-01")):
                pubs.append(write({"pub_id": pub_id, "source_id": source_id, "sort_year": sort_year,
                                   "load_date": load_date, "doc_type": doc_type, "is_article_in_press": False}))
            links.append(write({"citing_pub_id": citing, "cited_pub_id": cited}))
    pubs.append(pub_line("poem", 1, 2015, doc_type="poem"))
    paths = write_corpus(tmp_path, [source_line(1), source_line(2, asjc=(1100,))], pubs, links)

    checked = []
    parse = index_module._parse_publication
    monkeypatch.setattr(index_module, "_parse_publication",
                        lambda lineno, *args: checked.append(lineno) or parse(lineno, *args))
    index, report = load_index(*paths)
    assert checked == [n for n, line in enumerate(pubs, 1) if line != canonical_line(json.loads(line))]
    assert len(checked) == 21
    assert (report.publications_accepted, report.publications_rejected, report.links_accepted) == (40, 1, 20)
    assert report.warnings == ["publications line 41: unknown doc_type 'poem'"]
    assert (count_documents(index, 1, 2017), count_citations(index, 1, 2017)) == (20, 20)
    assert count_documents(index, 2, 2018) == 20

    corpus = {"--sources": str(paths[0]), "--pubs": str(paths[1]), "--links": str(paths[2])}
    _assert_compute_and_verify(corpus, tmp_path, capsys, "unknown doc_type 'poem'", "publications_rejected")
    assert (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:] == ["1,Journal 1,2017,1.00,20,20,100"]


def test_deeply_nested_line_is_rejected_not_a_crash(corpus, tmp_path, capsys):
    # Nested past the JSON decoder's recursion limit: RecursionError, not JSONDecodeError.
    with open(corpus["--pubs"], "a", encoding="utf-8") as handle:
        handle.write("[" * 200_000 + "\n")
    _assert_compute_and_verify(corpus, tmp_path, capsys, "invalid JSON (nested too deeply)",
                               "publications_rejected")


def test_integer_past_digit_limit_is_rejected_not_a_crash(corpus, tmp_path, capsys):
    # 5,000 digits: past the interpreter's int conversion limit, a ValueError
    # that is not a JSONDecodeError.
    line = pub_line("huge", 1, 2015).replace('"source_id": 1,', '"source_id": ' + "1" * 5000 + ",")
    with open(corpus["--pubs"], "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    _assert_compute_and_verify(corpus, tmp_path, capsys, "invalid JSON (integer too long)",
                               "publications_rejected")


def test_lone_surrogate_title_is_rejected_not_a_crash(corpus, tmp_path, capsys):
    # The source has a document in the 2017 cited window, so an accepted title
    # would be written to metrics.csv, which UTF-8 cannot encode.
    with open(corpus["--sources"], "a", encoding="utf-8") as handle:
        handle.write(source_line(999_999, title="J \ud800 x") + "\n")
    with open(corpus["--pubs"], "a", encoding="utf-8") as handle:
        handle.write(pub_line("surrogate-doc", 999_999, 2015) + "\n")
    _assert_compute_and_verify(corpus, tmp_path, capsys, "field 'title' holds a lone surrogate",
                               "sources_rejected")


@pytest.mark.parametrize("flag, line, warning, counter", [
    ("--pubs", pub_line("listed", 1, 2015, doc_type=["x"]),
     "field 'doc_type' must be a non-empty string", "publications_rejected"),
    ("--sources", source_line(999_999, source_type={"kind": "journal"}),
     "field 'source_type' must be a non-empty string", "sources_rejected"),
], ids=["doc_type-list", "source_type-object"])
def test_unhashable_type_field_is_rejected_not_a_crash(corpus, tmp_path, capsys, flag, line, warning, counter):
    # The oracle tests these fields for membership in a set, which raises
    # TypeError on a list or an object unless their type is tested first.
    with open(corpus[flag], "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    _assert_compute_and_verify(corpus, tmp_path, capsys, warning, counter)
    assert "Traceback" not in capsys.readouterr().err  # verify's own stderr


def _dirty(corpus):
    """Append lines to each corpus file that ingest rejects, or accepts with
    a warning, in every kind."""
    extra = {
        "--sources": ['{"source_id": 1, "title": "Ga', source_line(999_998, publisher="x"),
                      source_line(999_997, predecessor=5), "[4]"],
        "--pubs": [pub_line("dirty-1", 999_999, 2016), pub_line("dirty-2", 10001, 2016, load_date="2016-02-30"),
                   "{bad"],
        "--links": [link_line("ghost", "p0000001"), link_line("p0000002", "p0000002"), '{"citing_pub_id": 5}'],
    }
    for flag, lines in extra.items():
        with open(corpus[flag], "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))


class _CountedWrites(io.StringIO):
    """A stderr that counts its write calls."""

    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@pytest.mark.parametrize("command", [
    ["compute", "--year", "2017"],
    ["tracker", "--year", "2017", "--from", "2017-01", "--to", "2017-03", "--stability-report"],
    ["verify", "--year", "2017"],
    ["snapshot-info", "--year", "2017"],
], ids=["compute", "tracker", "verify", "snapshot-info"])
def test_stderr_is_the_ingest_warnings_in_file_order(corpus, tmp_path, capsys, monkeypatch, command):
    """On a dirty corpus a run's stderr is exactly one WARNING line per
    ingest warning, in the report's order, written in one write per
    _WARNINGS_PER_WRITE warnings; --quiet leaves it empty."""
    _dirty(corpus)
    _, report = load_index(corpus["--sources"], corpus["--pubs"], corpus["--links"])
    assert len(report.warnings) == 10
    expected = "".join(f"WARNING: {warning}\n" for warning in report.warnings)
    argv = command + _flags(corpus) + ["--out", str(tmp_path / "run")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == expected
    assert main(argv + ["--quiet"]) == 0
    assert capsys.readouterr().err == ""

    stderr = _CountedWrites()
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(cli_module, "_WARNINGS_PER_WRITE", 4)
    assert main(argv) == 0
    assert (stderr.getvalue(), stderr.calls) == (expected, 3)


def _exit_1_case(case, tmp_path):
    """The input flags of a compute run that ends with exit 1, and its whole
    stderr."""
    def files(sources, pubs=(), links=()):
        return [flag for pair in zip(["--sources", "--pubs", "--links"],
                                     map(str, write_corpus(tmp_path, sources, pubs, links))) for flag in pair]

    out = str(tmp_path / "run")
    if case == "duplicate-pub-id":
        flags = files([source_line(1)], [pub_line("a", 1, 2015), pub_line("a", 1, 2016)])
        return flags, "ERROR: ingest failed: publications line 2: duplicate pub_id 'a'\n"
    if case == "duplicate-source-id":
        return files([source_line(1), source_line(1)]), "ERROR: ingest failed: sources line 2: duplicate source_id 1\n"
    if case == "predecessor-cycle":
        flags = files([source_line(1, predecessor=2), source_line(2, predecessor=1)])
        return flags, "ERROR: ingest failed: predecessor cycle detected at source 1\n"
    if case == "shared-predecessor":
        flags = files([source_line(1), source_line(2, predecessor=1), source_line(3, predecessor=1)])
        return flags, "ERROR: ingest failed: sources 2 and 3 share predecessor 1; title chains must be linear\n"
    if case == "missing-file":
        missing = str(tmp_path / "missing.jsonl")
        return (["--sources", missing, "--pubs", missing, "--links", missing],
                f"ERROR: [Errno 2] No such file or directory: {missing!r}\n")
    if case == "out-is-a-file":
        Path(out).write_text("")
        return files([source_line(1)]), f"ERROR: [Errno 17] File exists: {out!r}\n"
    return (files([source_line(1)]) + ["--cutoff-table", str(tmp_path)],
            f"ERROR: [Errno 21] Is a directory: {str(tmp_path)!r}\n")


@pytest.mark.parametrize("case", [
    "duplicate-pub-id", "duplicate-source-id", "predecessor-cycle", "shared-predecessor", "missing-file",
    "out-is-a-file", "cutoff-table-is-a-directory",
])
def test_data_error_is_one_exact_error_line(tmp_path, capsys, case):
    flags, expected = _exit_1_case(case, tmp_path)
    assert main(["compute", "--year", "2017", *flags, "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected)


@pytest.mark.parametrize("command, step", [
    (["compute", "--year", "2017"], "compute_annual"),
    (["tracker", "--year", "2017", "--from", "2017-06", "--to", "2018-04"], "tracker_table"),
    (["snapshot-info", "--year", "2017"], "snapshot"),
    (["verify", "--year", "2017"], "compute_annual"),
], ids=["compute", "tracker", "snapshot-info", "verify"])
def test_input_changed_during_the_run_is_data_error(corpus, tmp_path, capsys, monkeypatch, command, step):
    """A record file that changes after ingest has read it (here a line
    appended to the links file while the engine computes) ends the run with
    one ERROR line and no manifest, whose digest would be of bytes that were
    never ingested."""
    engine_step = getattr(cli_module, step)
    links = corpus["--links"]

    def appending(*args):
        with open(links, "a", encoding="utf-8") as handle:
            handle.write(link_line("ghost", "phantom") + "\n")
        return engine_step(*args)

    monkeypatch.setattr(cli_module, step, appending)
    out = tmp_path / "run"
    assert main(command + _flags(corpus) + ["--quiet", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ERROR: input {links} changed during the run\n"
    assert not (out / "manifest.json").exists()
    monkeypatch.setattr(cli_module, step, engine_step)
    assert main(command + _flags(corpus) + ["--quiet", "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_oracle_data_error_is_one_exact_error_line(corpus, tmp_path, capsys, monkeypatch):
    # Ingest raises first on every input the oracle rejects, so the oracle
    # is made to reject a clean one.
    def rejecting(*args):
        raise OracleDataError("duplicate pub_id 'a'")

    monkeypatch.setattr("citescore.oracle.oracle_metrics", rejecting)
    assert main(["verify", "--year", "2017"] + _flags(corpus) + ["--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "ERROR: oracle rejected input: duplicate pub_id 'a'\n"


def test_cli_import_leaves_logging_out():
    """The CLI writes its diagnostics itself; importing it loads no logging
    module (-S keeps site hooks from loading one)."""
    code = "import sys, citescore.cli; print('logging' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(citescore.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_cli_import_loads_no_hashing_generator_or_oracle():
    """OpenSSL, the corpus generator, the oracle and importlib.resources (for
    the bundled cutoff table) load only in the commands that run them, and
    the package itself loads no submodule."""
    code = (
        "import sys, citescore; print(sorted(m for m in sys.modules if m.startswith('citescore.')))\n"
        "import citescore.cli\n"
        "print([m for m in ('hashlib', '_hashlib', 'citescore.corpus', 'citescore.oracle', 'importlib.resources')"
        " if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(citescore.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n[]\n"


def test_bundled_cutoff_table_read_loads_no_importlib_resources():
    """The bundled cutoff table is read with the same open as a given one, so
    a default cutoff loads neither importlib.resources nor the tempfile,
    shutil and zipfile modules it pulls in."""
    code = (
        "import sys, citescore.cli\n"
        "print(citescore.cli.default_cutoff(2017),"
        " [m for m in ('importlib.resources', 'tempfile', 'shutil', 'zipfile') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(citescore.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "2018-04-30 []\n"


@pytest.mark.parametrize("size", [0, _CHUNK_BYTES, 3 * _CHUNK_BYTES + 1234])
def test_file_digest_is_the_sha256_of_the_whole_file(tmp_path, size):
    path = tmp_path / "data.bin"
    path.write_bytes(random.Random(size).randbytes(size))
    assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", [
    ["compute", "--year", "2017"],
    ["tracker", "--year", "2017", "--from", "2017-06", "--to", "2018-04", "--stability-report"],
    ["snapshot-info", "--year", "2017"],
])
def test_index_is_freed_before_the_manifest(corpus, tmp_path, capsys, monkeypatch, command):
    """Every engine command drops its index before build_manifest digests the
    files, so the index and OpenSSL are never resident together."""
    build_manifest = cli_module.build_manifest
    live_stores = []

    def counting_stores(*args, **kwargs):
        live_stores.append(sum(isinstance(obj, index_module._Store) for obj in gc.get_objects()))
        return build_manifest(*args, **kwargs)

    monkeypatch.setattr(cli_module, "build_manifest", counting_stores)
    gc.collect()  # so that no earlier test's cyclic garbage is counted
    assert main(command + _flags(corpus) + ["--out", str(tmp_path / "run")]) == 0
    assert live_stores == [0]


# The module entry point, run as the console script and the benchmark run it.
_SRC = str(Path(citescore.__file__).resolve().parents[1])


def _run_module(argv, stdout=subprocess.PIPE, unbuffered=True):
    """python -m citescore.cli argv in a child process, with or without
    PYTHONUNBUFFERED; returns the CompletedProcess (bytes)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "citescore.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


def _tree(root):
    """{relative path: bytes} of every file under root."""
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def _corrupted_verify_dir(corpus, tmp_path):
    """A verify output directory whose engine metrics.csv has one bad value."""
    out = tmp_path / "verify-template"
    assert main(["verify"] + _flags(corpus) + ["--year", "2017", "--out", str(out)]) == 0
    metrics = out / "engine" / "metrics.csv"
    lines = metrics.read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = "9.99"
    lines[1] = ",".join(fields)
    metrics.write_text("\n".join(lines) + "\n")
    return out


@pytest.mark.parametrize("case, expected_code", [
    ("compute", 0), ("tracker", 0), ("snapshot-info", 0), ("verify-compare-only", 3), ("usage-error", 2),
    ("ingest-error", 1),
])
def test_module_entry_point_matches_main(corpus, tmp_path, capsys, case, expected_code):
    """python -m citescore.cli gives the exit code, stdout, stderr and output
    files of an in-process main() run of the same command line."""
    out = tmp_path / "run"
    template = None
    if case == "compute":
        argv = ["compute", *_flags(corpus), "--year", "2017", "--out", str(out)]
    elif case == "tracker":
        argv = ["tracker", *_flags(corpus), "--year", "2018", "--from", "2018-01", "--to", "2018-06",
                "--stability-report", "--out", str(out)]
    elif case == "snapshot-info":
        argv = ["snapshot-info", *_flags(corpus), "--year", "2017", "--out", str(out)]
    elif case == "verify-compare-only":
        template = _corrupted_verify_dir(corpus, tmp_path)
        argv = ["verify", *_flags(corpus), "--year", "2017", "--compare-only", "--out", str(out)]
    elif case == "usage-error":
        argv = ["compute", *_flags(corpus), "--out", str(out)]
    else:
        flags, _ = _exit_1_case("duplicate-source-id", tmp_path)
        argv = ["compute", "--year", "2017", *flags, "--out", str(out)]

    if template is not None:
        shutil.copytree(template, out)
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    in_process = (code, captured.out.encode(), captured.err.encode(), _tree(out) if out.exists() else None)

    shutil.rmtree(out, ignore_errors=True)
    if template is not None:
        shutil.copytree(template, out)
    done = _run_module(argv)
    child = (done.returncode, done.stdout, done.stderr, _tree(out) if out.exists() else None)

    assert in_process[0] == expected_code
    assert child == in_process
    if expected_code in (0, 3):
        assert (out / "manifest.json").exists()


def test_console_script_target_is_the_module_entry_point():
    """[project.scripts] names a function of citescore.cli, the one that
    python -m citescore.cli runs."""
    pyproject = (Path(_SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^citescore = "citescore\.cli:(\w+)"$', pyproject, re.M)
    assert match is not None
    assert callable(getattr(cli_module, match[1]))
    assert Path(cli_module.__file__).read_text(encoding="utf-8").endswith(
        f'if __name__ == "__main__":\n    {match[1]}()\n'
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("target", ["closed-pipe", "full-device"])
@pytest.mark.parametrize("command", ["--help", "--version", "snapshot-info"])
def test_failed_stdout_is_one_error_line_and_exit_1(corpus, command, target, unbuffered):
    """Help, version and snapshot-info text that cannot be written to stdout
    (a pipe whose reader has closed, or a full device) ends the process with
    exit 1 and one ERROR line on stderr, buffered or not, and not with exit
    120 and an "Exception ignored" report or a traceback."""
    argv = ["snapshot-info", *_flags(corpus), "--year", "2017"] if command == "snapshot-info" else [command]
    if target == "closed-pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
        message = "ERROR: [Errno 32] Broken pipe\n"
    else:
        stdout = os.open("/dev/full", os.O_WRONLY)
        message = "ERROR: [Errno 28] No space left on device\n"
    try:
        done = _run_module(argv, stdout=stdout, unbuffered=unbuffered)
    finally:
        os.close(stdout)
    assert (done.returncode, done.stderr.decode()) == (1, message)


def test_a_profiled_run_reports_its_profile(corpus):
    """Under python -m cProfile the entry point takes the normal exit, so
    the profiler still prints its report after the command's output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "citescore.cli", "snapshot-info", *_flags(corpus), "--year", "2017"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    info, _, profile = done.stdout.partition("}\n")
    assert json.loads(info + "}")["sources"] >= 10
    assert " function calls " in profile
