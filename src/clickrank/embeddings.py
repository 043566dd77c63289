"""Stores for externally produced embeddings.

Two binary interchange formats, both little-endian with float32 payloads:

``TKV1`` (one vector per id)
    magic ``TKV1`` | u32 count | u32 dim | count x (u32 id_len, id utf-8)
    | count*dim float32.

``TKM1`` (one token matrix per id)
    magic ``TKM1`` | u32 count | u32 dim
    | count x (u32 id_len, id utf-8, u32 n_tokens, n_tokens*dim float32).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .manifest import atomic_write

VECTOR_MAGIC = b"TKV1"
MATRIX_MAGIC = b"TKM1"

_U32 = struct.Struct("<I")


class VectorStore:
    """Immutable id -> vector map with one shared dimensionality.

    The vectors live in one contiguous read-only (n, dim) float32 matrix,
    rows in insertion order, with an id -> row map beside it.
    """

    def __init__(self, dim: int, vectors: Mapping[str, np.ndarray]):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        rows = []
        for vid, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float32)
            if arr.shape != (dim,):
                raise ValueError(f"vector {vid!r}: expected shape ({dim},), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"vector {vid!r} contains a non-finite component")
            rows.append(arr)
        matrix = np.stack(rows) if rows else np.zeros((0, dim), dtype=np.float32)
        self._adopt(list(vectors), matrix)

    def _adopt(self, ids: list[str], matrix: np.ndarray) -> None:
        """Take over a checked matrix: finite rows, one per distinct id."""
        self.dim = int(matrix.shape[1])
        self._ids = ids
        self._rows = {vid: i for i, vid in enumerate(ids)}
        self._matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        self._matrix.flags.writeable = False
        # each row's position in ascending-id order: the tie-break of rankings
        self.id_rank = np.empty(len(ids), dtype=np.int64)
        self.id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, vid: str) -> bool:
        return vid in self._rows

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def vector(self, vid: str) -> np.ndarray:
        try:
            return self._matrix[self._rows[vid]]
        except KeyError:
            raise KeyError(f"no vector for id {vid!r}") from None

    def as_matrix(self) -> tuple[list[str], np.ndarray]:
        """The (n, dim) float32 matrix, ids aligned with its rows."""
        return self.ids, self._matrix

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return zip(self._ids, self._matrix)


class TokenMatrixStore:
    """Immutable id -> (n_tokens, dim) matrix map; n_tokens >= 1 per entry.

    Like ``VectorStore``, the matrices form one contiguous read-only
    (total_tokens, dim) float32 array, ``tokens``, entries in insertion
    order: entry i holds rows ``offsets[i]:offsets[i + 1]``. ``matrix``
    returns a read-only view; ``spans`` locates a batch of entries, so the
    scoring heads gather their rows from ``tokens`` by offset. The array is
    a view of one immutable ``bytes`` object, which pickles without a
    second copy of the rows.
    """

    def __init__(self, dim: int, matrices: Mapping[str, np.ndarray]):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        arrays = []
        for mid, mat in matrices.items():
            arr = np.asarray(mat, dtype=np.float32)
            if arr.ndim != 2 or arr.shape[1] != dim:
                raise ValueError(f"matrix {mid!r}: expected shape (n, {dim}), got {arr.shape}")
            if arr.shape[0] < 1:
                raise ValueError(f"matrix {mid!r} has no token rows")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"matrix {mid!r} contains a non-finite component")
            arrays.append(np.ascontiguousarray(arr, dtype="<f4"))
        self._adopt(list(matrices), [len(a) for a in arrays], dim, b"".join(arrays))

    def _adopt(self, ids: list[str], lengths: list[int], dim: int, rows: bytes) -> None:
        """Take over checked rows: ``lengths`` >= 1 per distinct id, and that
        many finite little-endian float32 rows of ``dim`` in ``rows``."""
        self.dim = int(dim)
        self._ids = ids
        self._entries = {mid: i for i, mid in enumerate(ids)}
        self.offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.offsets[1:])
        self.offsets.flags.writeable = False
        self._rows = rows

    @property
    def tokens(self) -> np.ndarray:
        return np.frombuffer(self._rows, dtype="<f4").reshape(-1, self.dim)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, mid: str) -> bool:
        return mid in self._entries

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def matrix(self, mid: str) -> np.ndarray:
        try:
            i = self._entries[mid]
        except KeyError:
            raise KeyError(f"no token matrix for id {mid!r}") from None
        return self.tokens[self.offsets[i] : self.offsets[i + 1]]

    def spans(self, mids: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
        """The first row in ``tokens`` and the token count of each id's matrix."""
        try:
            entries = np.fromiter((self._entries[mid] for mid in mids), dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"no token matrix for id {exc.args[0]!r}") from None
        starts = self.offsets[entries]
        return starts, self.offsets[entries + 1] - starts

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return zip(self._ids, np.split(self.tokens, self.offsets[1:-1]))


def _write_id(f, ident: str) -> None:
    raw = ident.encode("utf-8")
    f.write(_U32.pack(len(raw)))
    f.write(raw)


class _Reader:
    """Cursor over a fully loaded payload with size checking."""

    def __init__(self, data: bytes, path: Path):
        self.data = data
        self.pos = 0
        self.path = path

    def skip(self, n: int) -> int:
        """Move past ``n`` bytes; returns the offset they start at."""
        if self.pos + n > len(self.data):
            raise ValueError(
                f"{self.path}: truncated file (needed {n} bytes at offset {self.pos})"
            )
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        return self.data[self.skip(n) : self.pos]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def ident(self) -> str:
        return self.take(self.u32()).decode("utf-8")

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ValueError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes after payload"
            )


def write_vectors(store: VectorStore, path: str | Path) -> None:
    ids, matrix = store.as_matrix()
    with atomic_write(path, binary=True) as f:
        f.write(VECTOR_MAGIC)
        f.write(_U32.pack(len(ids)))
        f.write(_U32.pack(store.dim))
        for vid in ids:
            _write_id(f, vid)
        f.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def load_vectors(path: str | Path) -> VectorStore:
    path = Path(path)
    reader = _Reader(path.read_bytes(), path)
    if reader.take(4) != VECTOR_MAGIC:
        raise ValueError(f"{path}: not a vector file (bad magic)")
    count = reader.u32()
    dim = reader.u32()
    if dim < 1:
        raise ValueError(f"{path}: header dim must be >= 1, got {dim}")
    ids = [reader.ident() for _ in range(count)]
    payload = reader.take(count * dim * 4)
    reader.done()
    seen: set[str] = set()
    for vid in ids:
        if vid in seen:
            raise ValueError(f"{path}: duplicate id {vid!r}")
        seen.add(vid)
    matrix = np.frombuffer(payload, dtype="<f4").reshape(count, dim).astype(np.float32)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: vector for id {ids[bad[0]]!r} has a non-finite component")
    store = VectorStore.__new__(VectorStore)
    store._adopt(ids, matrix)
    return store


def write_token_matrices(store: TokenMatrixStore, path: str | Path) -> None:
    with atomic_write(path, binary=True) as f:
        f.write(MATRIX_MAGIC)
        f.write(_U32.pack(len(store)))
        f.write(_U32.pack(store.dim))
        for mid, mat in store.items():
            _write_id(f, mid)
            f.write(_U32.pack(mat.shape[0]))
            f.write(np.ascontiguousarray(mat, dtype="<f4").tobytes())


def load_token_matrices(path: str | Path) -> TokenMatrixStore:
    path = Path(path)
    data = path.read_bytes()
    reader = _Reader(data, path)
    if reader.take(4) != MATRIX_MAGIC:
        raise ValueError(f"{path}: not a token-matrix file (bad magic)")
    count = reader.u32()
    dim = reader.u32()
    if dim < 1:
        raise ValueError(f"{path}: header dim must be >= 1, got {dim}")
    # one pass over the entry headers, then one copy of all the payloads
    lengths: dict[str, int] = {}
    payloads: list[int] = []
    for _ in range(count):
        mid = reader.ident()
        if mid in lengths:
            raise ValueError(f"{path}: duplicate id {mid!r}")
        lengths[mid] = reader.u32()
        if lengths[mid] < 1:
            raise ValueError(f"{path}: entry {mid!r} has zero tokens")
        payloads.append(reader.skip(lengths[mid] * dim * 4))
    reader.done()
    ids, counts = list(lengths), list(lengths.values())
    view = memoryview(data)
    rows = b"".join(view[start : start + n * dim * 4] for start, n in zip(payloads, counts))
    tokens = np.frombuffer(rows, dtype="<f4").reshape(-1, dim)
    # min and max are NaN or infinite when any component is, and need no
    # (total_tokens, dim) mask; only a failing file pays for one
    if tokens.size and not (np.isfinite(tokens.min()) and np.isfinite(tokens.max())):
        row = np.argmin(np.isfinite(tokens).all(axis=1))
        entry = int(np.searchsorted(np.cumsum(counts), row, side="right"))
        raise ValueError(f"{path}: matrix for id {ids[entry]!r} has a non-finite component")
    store = TokenMatrixStore.__new__(TokenMatrixStore)
    store._adopt(ids, counts, dim, rows)
    return store
