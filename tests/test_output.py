"""The comparison verify reports from: compare_output_files."""

from __future__ import annotations

from citescore.output import compare_output_files


def _files(tmp_path, left, right):
    (tmp_path / "left.csv").write_text(left, encoding="utf-8")
    (tmp_path / "right.csv").write_text(right, encoding="utf-8")
    return tmp_path / "left.csv", tmp_path / "right.csv"


def test_header_mismatch_is_reported_with_the_rows(tmp_path):
    left, right = _files(tmp_path, "k,v\n1,x\n2,y\n", "k,w\n1,x\n2,z\n")
    assert compare_output_files(left, right, 1) == [
        "header mismatch: ['k', 'v'] != ['k', 'w']",
        "row [2]: ['2', 'y'] != ['2', 'z']",
    ]


def test_rows_in_only_one_file_name_that_file(tmp_path):
    left, right = _files(tmp_path, "k,v\n1,x\n2,y\n", "k,v\n1,x\n3,z\n")
    assert compare_output_files(left, right, 1) == [
        "row [2] only in left.csv: ['2', 'y']",
        "row [3] only in right.csv: ['3', 'z']",
    ]
