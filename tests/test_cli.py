"""The command-line surface: flags, exit codes, manifests, diagnostics."""

from __future__ import annotations

import json
from datetime import date, timedelta

import pytest

from citescore.cli import main
from citescore.manifest import file_digest

from helpers import link_line, pub_line, source_line, write_corpus


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


@pytest.mark.parametrize("cutoff", ["2018-02-30", "30/04/2018", "20180430", "2018-W18-1", "2018-04-30\n"],
                         ids=["impossible", "not-iso", "basic-format", "week-date", "trailing-newline"])
@pytest.mark.parametrize("command", ["compute", "verify", "snapshot-info"])
def test_bad_cutoff_flag_is_usage_error(corpus, tmp_path, capsys, command, cutoff):
    # Python 3.11's date.fromisoformat takes the basic and week forms; the
    # flag takes YYYY-MM-DD only, on every version.
    flags = ["--cutoff", cutoff]
    if command != "snapshot-info":
        flags += ["--year", "2017", "--out", str(tmp_path / "x")]
    with pytest.raises(SystemExit) as excinfo:
        main([command] + _flags(corpus) + flags)
    assert excinfo.value.code == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines[-1] == f"citescore: error: --cutoff {cutoff!r} is not a valid YYYY-MM-DD date"
    assert not any(line.startswith("Traceback") for line in err_lines)


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


def test_tracker_reversed_range_is_usage_error(corpus, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["tracker"] + _flags(corpus)
             + ["--year", "2018", "--from", "2019-04", "--to", "2018-06",
                "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2


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


def test_verify_detects_corrupted_row(corpus, tmp_path):
    out = tmp_path / "verify"
    assert main(["verify"] + _flags(corpus) + ["--year", "2017", "--out", str(out)]) == 0

    metrics = out / "engine" / "metrics.csv"
    lines = metrics.read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = "9.99"  # corrupt one value
    lines[1] = ",".join(fields)
    metrics.write_text("\n".join(lines) + "\n")

    code = main(["verify"] + _flags(corpus)
                + ["--year", "2017", "--compare-only", "--out", str(out)])
    assert code == 3
    report = (out / "diff_report.txt").read_text().splitlines()
    assert len(report) == 1
    assert report[0].startswith("metrics.csv: row")


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
    with open(corpus["--links"], "ab") as handle:
        handle.write(b'\xff\xfe{"citing_pub_id": "a", "cited_pub_id": "b"}\n')
    code = main(command + _flags(corpus) + ["--out", str(tmp_path / "run")])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if not line.startswith("WARNING")] == [lines[-1]]
    assert lines[-1].startswith("ERROR: 'utf-8' codec can't decode byte 0xff")


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
