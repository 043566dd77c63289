"""Reproducibility manifests for artifact-producing commands.

A manifest pins everything needed to re-create an artifact byte for byte:
the resolved configuration, the seed, content digests of every input, and
digests of the produced outputs. No timestamps, so identical reruns produce
identical manifests. Every artifact the package writes, manifests
included, goes through :func:`atomic_write`, so a reader never sees one
partly written, and every text input is read through :class:`TextRecords`,
so one set of line rules and one error form hold for all of them. JSON
settings (config values, an index header) are checked by :func:`check_kind`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path
from typing import IO, Iterator, Mapping, Sequence

from . import __version__

_WHITESPACE = re.compile(r"\s")


@contextmanager
def atomic_write(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write to a temporary file beside ``path`` that replaces it on success.

    Text mode is UTF-8 with LF line ends. If the block raises, the temporary
    file is removed and ``path`` keeps its old contents. An ``OSError`` from
    opening or replacing the file names ``path``, not the temporary file.
    The replace is atomic against a crashed or killed process; it does not
    fsync, so it does not make the new contents durable against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):  # the open or the replace
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


class TextRecords:
    """The fields of each line of a UTF-8 text input, with LF, CRLF or CR
    line ends, split on ``sep`` (whitespace when ``None``) at most
    ``maxsplit`` times. Blank lines are skipped: empty ones for a ``sep``
    format, ones without fields for a whitespace format. A line without
    exactly ``columns`` fields (any count when ``None``) raises ``expected``.
    The first ``ids`` fields are ids, and one that holds whitespace, which
    no run or qrels line can hold, raises ``id {id!r} contains whitespace``.
    A ``ValueError`` raised in the ``with`` block while line ``lineno`` is
    processed gets ``"{path}: line {lineno}: "`` in front.
    """

    def __init__(
        self,
        path: str | Path,
        columns: int | None,
        expected: str = "",
        sep: str | None = None,
        maxsplit: int = -1,
        ids: int = 0,
    ):
        self.path = path
        self.lineno = 0
        self._shape = columns, expected, sep, maxsplit, ids

    def __enter__(self) -> "TextRecords":
        self._file = open(self.path, "r", encoding="utf-8")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._file.close()
        if isinstance(exc, UnicodeDecodeError):
            # the codec counts its position within a decode chunk, not the file
            raise ValueError(f"{self.path}: not valid UTF-8 text") from None
        if isinstance(exc, ValueError):
            raise ValueError(f"{self.path}: line {self.lineno}: {exc}") from None

    def __iter__(self) -> Iterator[list[str]]:
        columns, expected, sep, maxsplit, ids = self._shape
        # the file turns every line end into LF; a whitespace split drops it
        lines = self._file if sep is None else map(str.rstrip, self._file, repeat("\n"))
        for self.lineno, line in enumerate(lines, start=1):
            fields = line.split(sep, maxsplit)
            if len(fields) != columns:
                if not fields or fields == [""]:
                    continue
                if columns is not None:
                    raise ValueError(expected)
            if ids and _WHITESPACE.search("".join(fields[:ids])):
                spaced = next(f for f in fields[:ids] if _WHITESPACE.search(f))
                raise ValueError(f"id {spaced!r} contains whitespace")
            yield fields


_KIND_NAMES = {
    dict: "a JSON object", str: "a string", list: "a list of numbers", float: "a number",
    int: "an integer",
}


def _is_kind(value, kind: type) -> bool:
    if kind is list:
        return isinstance(value, list) and all(_is_kind(v, float) for v in value)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        return _is_kind(value, float) and (isinstance(value, int) or value.is_integer())
    return isinstance(value, kind)


def check_kind(value, kind: type, what: str) -> None:
    """Raise ``{what} must be {kind}, got {value!r}`` unless the JSON value is
    a ``kind``: dict (an object), str, list (of numbers), float (any number)
    or int (an integral number, such as 3 or 3.0)."""
    if not _is_kind(value, kind):
        raise ValueError(f"{what} must be {_KIND_NAMES[kind]}, got {value!r}")


def finite(text: str, what: str) -> float:
    """``text`` as a finite float; anything else raises ``bad {what} {text!r}``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"bad {what} {text!r}")
    return value


def reject_spaced_ids(path: str | Path, ids: Sequence[str], offsets: Sequence[int]) -> None:
    """Raise if an id of a binary input holds whitespace, which no run or
    qrels line can hold, naming the file and the byte offset ``offsets[i]``
    of ``ids[i]``. One scan of the joined ids serves the common case."""
    if _WHITESPACE.search("".join(ids)):
        i = next(i for i, ident in enumerate(ids) if _WHITESPACE.search(ident))
        raise ValueError(f"{path}: offset {offsets[i]}: id {ids[i]!r} contains whitespace")


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
