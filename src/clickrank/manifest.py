"""Reproducibility manifests for artifact-producing commands.

A manifest pins everything needed to re-create an artifact byte for byte:
the resolved configuration, the seed, content digests of every input, and
digests of the produced outputs. No timestamps, so identical reruns produce
identical manifests. Every artifact the package writes, manifests
included, goes through :func:`atomic_write`, so a reader never sees one
partly written.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Mapping

from . import __version__


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write to a temporary file beside ``path`` that replaces it on success.

    Text mode is UTF-8 with LF line ends. If the block raises, the temporary
    file is removed and ``path`` keeps its old contents. The replace is
    atomic against a crashed or killed process; it does not fsync, so it
    does not make the new contents durable against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return f"sha256:{h.hexdigest()}"


def write_manifest(
    path: str | Path,
    command: str,
    config: Mapping,
    seed: int | None,
    inputs: Mapping[str, str | Path],
    outputs: Mapping[str, str | Path],
) -> None:
    # paths are recorded relative to the manifest so re-running the same
    # command into a different directory reproduces the manifest bytes too
    base = Path(path).parent

    def entry(p: str | Path) -> dict:
        return {"path": os.path.relpath(p, start=base), "digest": file_digest(p)}

    manifest = {
        "toolkit_version": __version__,
        "command": command,
        "seed": seed,
        "config": dict(config),
        "inputs": {name: entry(p) for name, p in inputs.items()},
        "outputs": {name: entry(p) for name, p in outputs.items()},
    }
    with atomic_write(path) as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def manifest_path_for(output: str | Path) -> Path:
    """Manifest location convention: DIR/manifest.json or FILE.manifest.json."""
    output = Path(output)
    if output.is_dir():
        return output / "manifest.json"
    return output.with_name(output.name + ".manifest.json")
