"""Golden digests of the engine's outputs: the bytes every command writes on
one small seeded corpus with a fixed handful of dirty lines appended. Any
change to a column, a number's form, a row's order, a warning or a manifest
entry changes one of these."""

from __future__ import annotations

import hashlib
import json

import pytest

from citescore import CorpusConfig, generate_corpus
from citescore.cli import main

from helpers import link_line, pub_line, source_line

CONFIG = CorpusConfig(seed=2024, n_journals=14, first_year=2013, last_year=2018, rename_probability=0.3,
                      aip_fraction=0.2, n_categories=3)

# Appended to the generated files: a source with an unknown field, a
# publication of an unknown source, a line that is not JSON, a
# self-citation and a link with a dangling endpoint.
DIRTY = {
    "sources": [source_line(999_001, publisher="x")],
    "publications": [pub_line("dirty-1", 999_999, 2016), "{bad"],
    "links": [link_line("p0000002", "p0000002"), link_line("ghost", "p0000001")],
}

# The five warnings of the dirty lines, which every command writes to stderr.
WARNINGS = "6a24f0a3660c0f73858096605bd9a39d3d2c8d2edecb7a2662ebe421c4683ba0"
# snapshot-info writes the same JSON to stdout and to snapshot_info.json.
SNAPSHOT_INFO = "157d4b2a2364584abd6a5eee868b2c45ef4c2a95652aee172e3e49e6c82fee2f"

# Each command, its files (and stdout or stderr) by name, and their sha256.
GOLDEN = {
    "compute": (
        ["compute", "--year", "2017"],
        {
            "metrics.csv": "20c9d6d5599edd3eed1fbf34693b709d2a3aa1b7657790d2af0d36c39e9216c6",
            "standings.csv": "6f80899c17e0bc243af67169992f8e8ad4f3983f8e4e2390b636fd3dde8497b2",
            "stderr": WARNINGS,
        },
    ),
    "tracker": (
        ["tracker", "--year", "2018", "--from", "2017-11", "--to", "2019-04", "--stability-report"],
        {
            "tracker.csv": "f2fcaca6914b2f6a586e21965e1164f5680df25f95c03cfc1a2ef15ad934337f",
            "stability.csv": "7ddc65fb65e982cbfe06ac616d98e744cbf093e0c4ed350208213d71c2ff6e68",
            "stderr": WARNINGS,
        },
    ),
    "snapshot-info": (
        ["snapshot-info", "--year", "2016"],
        {
            "snapshot_info.json": SNAPSHOT_INFO,
            "stdout": SNAPSHOT_INFO,
            "stderr": WARNINGS,
        },
    ),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    paths = generate_corpus(CONFIG, out)
    files = {"sources": paths.sources_path, "publications": paths.publications_path, "links": paths.links_path}
    for kind, lines in DIRTY.items():
        with open(files[kind], "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
    return ["--sources", str(files["sources"]), "--pubs", str(files["publications"]),
            "--links", str(files["links"])]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_output_digests(corpus, tmp_path, capsys, name):
    command, digests = GOLDEN[name]
    out = tmp_path / name
    assert main(command + corpus + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    got = {"stdout": _sha256(captured.out.encode()), "stderr": _sha256(captured.err.encode())}
    got.update((path.name, _sha256(path.read_bytes())) for path in out.iterdir() if path.name != "manifest.json")
    assert {key: got[key] for key in digests} == digests
    # The manifest names each output file by the digest pinned above.
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert {entry["file"]: entry["sha256"] for entry in manifest["outputs"].values()} == {
        file: digest for file, digest in digests.items() if file not in ("stdout", "stderr")
    }
