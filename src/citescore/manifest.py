"""Run manifests: every invocation records its inputs, effective parameters,
and output digests, so a run can be reproduced and checked byte for byte.

Manifests contain no timestamps or host details; the same invocation over
the same inputs yields the same manifest.
"""

from __future__ import annotations

import json
from pathlib import Path

_CHUNK_BYTES = 1 << 16


def file_digest(path: str | Path) -> str:
    import hashlib  # maps OpenSSL in: deferred until a CLI command has freed its index

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(_CHUNK_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(
    command: str,
    inputs: dict[str, str | Path],
    parameters: dict,
    outputs: dict[str, str | Path],
) -> dict:
    """Digest all inputs/outputs and assemble the manifest mapping.

    Output entries are keyed by file name so the manifest does not vary with
    the output directory location.
    """
    from . import __version__

    return {
        "tool": "citescore",
        "tool_version": __version__,
        "command": command,
        "inputs": {
            name: {"path": str(path), "sha256": file_digest(path)}
            for name, path in inputs.items()
        },
        "parameters": parameters,
        "outputs": {
            name: {"file": Path(path).name, "sha256": file_digest(path)}
            for name, path in outputs.items()
        },
    }


def write_manifest(path: str | Path, manifest: dict) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
