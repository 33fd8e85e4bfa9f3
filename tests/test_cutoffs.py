"""The year-to-cutoff table and its fallback rule."""

from __future__ import annotations

import json
from datetime import date

import pytest

from citescore import default_cutoff, load_cutoff_table
from citescore.cli import main

from helpers import pub_line, source_line, write_corpus


def test_pinned_years():
    assert default_cutoff(2011) == date(2012, 5, 31)
    assert default_cutoff(2016) == date(2017, 5, 31)
    assert default_cutoff(2017) == date(2018, 4, 30)


def test_years_beyond_table_follow_the_default_rule():
    assert default_cutoff(2018) == date(2019, 5, 31)
    assert default_cutoff(2025) == date(2026, 5, 31)
    assert default_cutoff(2005) == date(2006, 5, 31)


def test_custom_table_overrides(tmp_path):
    table_path = tmp_path / "cutoffs.json"
    table_path.write_text(json.dumps({
        "default_month_day": "06-15",
        "years": {"2016": "2016-12-31"},
    }))
    table = load_cutoff_table(str(table_path))
    assert default_cutoff(2016, table) == date(2016, 12, 31)
    assert default_cutoff(2017, table) == date(2018, 6, 15)


def test_malformed_table_rejected(tmp_path):
    table_path = tmp_path / "cutoffs.json"
    table_path.write_text(json.dumps({"years": {}}))
    with pytest.raises(ValueError):
        load_cutoff_table(str(table_path))


def test_cli_honours_cutoff_table_flag(tmp_path):
    s, p, l = write_corpus(
        tmp_path,
        [source_line(1)],
        [pub_line("d", 1, 2015, load_date="2015-06-01")],
        [],
    )
    table_path = tmp_path / "cutoffs.json"
    table_path.write_text(json.dumps({
        "default_month_day": "05-31",
        "years": {"2016": "2016-11-30"},
    }))
    out = tmp_path / "run"
    code = main(["compute", "--sources", str(s), "--pubs", str(p), "--links", str(l),
                 "--year", "2016", "--cutoff-table", str(table_path), "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["cutoff"] == "2016-11-30"
    assert manifest["parameters"]["cutoff_origin"] == "cutoff-table"

    info_out = tmp_path / "info"
    code = main(["snapshot-info", "--sources", str(s), "--pubs", str(p), "--links", str(l),
                 "--year", "2016", "--cutoff-table", str(table_path), "--out", str(info_out)])
    assert code == 0
    assert json.loads((info_out / "snapshot_info.json").read_text())["cutoff"] == "2016-11-30"
    assert json.loads((info_out / "manifest.json").read_text())["inputs"]["cutoff_table"]


@pytest.mark.parametrize("table_text", [
    "not json",
    json.dumps({"years": {}}),
    json.dumps({"default_month_day": "05-31", "years": {"2016": "2018-02-30"}}),
    "5",
    json.dumps({"default_month_day": "05-31", "years": [1]}),
    json.dumps({"default_month_day": "05-31", "years": {"2016": 20161130}}),
    json.dumps({"default_month_day": 531, "years": {}}),
    json.dumps({"default_month_day": "05-31", "years": {"2016": "20161130"}}),
    json.dumps({"default_month_day": "05-31", "years": {"2016": "2016-W48-3"}}),
], ids=["not-json", "missing-keys", "impossible-date", "not-object", "years-not-object",
        "pinned-non-string", "month-day-not-string", "pinned-basic-format", "pinned-week-date"])
def test_cli_bad_cutoff_table_is_usage_error(tmp_path, capsys, table_text):
    s, p, l = write_corpus(tmp_path, [source_line(1)], [pub_line("d", 1, 2015)], [])
    table_path = tmp_path / "cutoffs.json"
    table_path.write_text(table_text)
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--sources", str(s), "--pubs", str(p), "--links", str(l),
              "--year", "2016", "--cutoff-table", str(table_path), "--out", str(tmp_path / "run")])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"citescore: error: cutoff table {table_path}: ")

    with pytest.raises(SystemExit) as excinfo:
        main(["snapshot-info", "--sources", str(s), "--pubs", str(p), "--links", str(l),
              "--year", "2016", "--cutoff-table", str(table_path)])
    assert excinfo.value.code == 2
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines[-1].startswith(f"citescore: error: cutoff table {table_path}: ")
    assert not any(line.startswith(("Traceback", "ERROR")) for line in err_lines)
