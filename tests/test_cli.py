"""The command-line surface: flags, exit codes, manifests, diagnostics."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
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
    assert err_lines[-1] == f"citescore: error: {message}"
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
    assert err.splitlines()[-1] == f"citescore: error: expected YYYY-MM, got {month!r}"
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
        assert err.splitlines()[-1].startswith(f"citescore: error: invalid corpus config: {config_path}")


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


def test_verify_detects_corrupted_row(corpus, tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify"] + _flags(corpus) + ["--year", "2017", "--out", str(out)]) == 0

    metrics = out / "engine" / "metrics.csv"
    lines = metrics.read_text().splitlines()
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
    assert [(r.pub_id, r.source_id, r.sort_year) for r in stored(index)[0].values()] == [
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
