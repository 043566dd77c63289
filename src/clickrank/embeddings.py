"""Stores for externally produced embeddings.

Two binary interchange formats, both little-endian with float32 payloads:

``TKV1`` (one vector per id)
    magic ``TKV1`` | u32 count | u32 dim | count x (u32 id_len, id utf-8)
    | count*dim float32.

``TKM1`` (one token matrix per id)
    magic ``TKM1`` | u32 count | u32 dim
    | count x (u32 id_len, id utf-8, u32 n_tokens, n_tokens*dim float32).

Both load into one in-memory layout, ``TokenMatrixStore``; a vector is a
one-row matrix, so ``VectorStore`` is a token-matrix store with one row per
id. Each loader parses its own file layout, then both take the same checks.
An id may not hold whitespace, which run and qrels lines are split on.
"""

from __future__ import annotations

import struct
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .manifest import atomic_write, reject_spaced_ids

VECTOR_MAGIC = b"TKV1"
MATRIX_MAGIC = b"TKM1"

_U32 = struct.Struct("<I")
_F32 = np.dtype("<f4")

# Upper bound on the bytes of the largest array formed for one block of a
# store's rows: here the float64 rows of ``row_norms``; in ``rankers`` the
# dense head's float64 products, late interaction's gathered passage rows and
# (query tokens, passage tokens) float64 screen bounds, and the kernel head's
# (kernels, passages, query tokens, tokens) values.
BLOCK_BYTES = 1 << 23


class TokenMatrixStore:
    """Immutable id -> (n_tokens, dim) matrix map; n_tokens >= 1 per entry.

    The matrices form one contiguous read-only (total_tokens, dim) float32
    array, ``tokens``, entries in insertion order: entry i holds rows
    ``offsets[i]:offsets[i + 1]``. ``matrix`` returns a read-only view;
    ``spans`` locates a batch of entries, so the scoring heads gather their
    rows from ``tokens`` by offset, with the norms ``row_norms`` caches once
    per store. The array is a view of one immutable ``bytes`` object, which
    pickles without a second copy of the rows.
    """

    _kind = "matrix"

    def __init__(self, dim: int, matrices: Mapping[str, np.ndarray]):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        arrays = [self._rows_of(mid, np.asarray(m, dtype=_F32), dim) for mid, m in matrices.items()]
        self._adopt(list(matrices), [len(a) for a in arrays], dim, b"".join(arrays))

    @staticmethod
    def _rows_of(mid: str, arr: np.ndarray, dim: int) -> np.ndarray:
        """One constructor value as its entry's contiguous (n_tokens, dim) rows."""
        if arr.ndim != 2 or arr.shape[1] != dim:
            raise ValueError(f"matrix {mid!r}: expected shape (n, {dim}), got {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError(f"matrix {mid!r} has no token rows")
        return np.ascontiguousarray(arr)

    @classmethod
    def from_rows(cls, ids: list[str], lengths, dim: int, rows: bytes, path=None):
        """The store of ``lengths`` (each >= 1) little-endian float32 rows of
        ``dim`` per id, held in ``rows`` in id order; ``path`` names the file
        they were read from. The one construction from a row buffer, for the
        loaders and ``synth``."""
        store = cls.__new__(cls)
        store._adopt(ids, lengths, dim, rows, path)
        return store

    def _adopt(self, ids: list[str], lengths, dim: int, rows: bytes, path=None) -> None:
        """Take over ``from_rows``' arguments, after checking that the ids
        are distinct and every component is finite."""
        self.dim = int(dim)
        self._ids = ids
        self._entries = {mid: i for i, mid in enumerate(ids)}
        if len(self._entries) < len(ids):
            first: dict[str, int] = {}
            dup = next(mid for i, mid in enumerate(ids) if first.setdefault(mid, i) != i)
            raise ValueError(f"{path}: duplicate id {dup!r}")
        self.offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.offsets[1:])
        self.offsets.flags.writeable = False
        self._rows = rows
        tokens = self.tokens
        # min and max are NaN or infinite when any component is, and need no
        # (total_tokens, dim) mask; only a failing store pays for one
        if tokens.size and not (np.isfinite(tokens.min()) and np.isfinite(tokens.max())):
            row = np.argmin(np.isfinite(tokens).all(axis=1))
            bad = ids[np.searchsorted(self.offsets, row, side="right") - 1]
            if path is None:
                raise ValueError(f"{self._kind} {bad!r} contains a non-finite component")
            raise ValueError(f"{path}: {self._kind} for id {bad!r} has a non-finite component")

    @property
    def tokens(self) -> np.ndarray:
        return np.frombuffer(self._rows, dtype=_F32).reshape(-1, self.dim)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, mid: str) -> bool:
        return mid in self._entries

    @property
    def ids(self) -> list[str]:
        return list(self._ids)

    def matrix(self, mid: str) -> np.ndarray:
        (start,), (n,) = self.spans([mid])
        return self.tokens[start : start + n]

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

    @cached_property
    def row_norms(self) -> np.ndarray:
        """Each row's Euclidean norm: the square root of numpy's pairwise sum
        of its float64 squares, the reduction of the dense score and of
        ``np.linalg.norm`` along a row. Formed ``BLOCK_BYTES`` of float64
        rows at a time, so the store is never copied to float64 whole."""
        tokens = self.tokens
        norms = np.empty(len(tokens), dtype=np.float64)
        step = max(1, BLOCK_BYTES // (8 * self.dim))
        for first in range(0, len(tokens), step):
            rows = tokens[first : first + step].astype(np.float64)
            norms[first : first + step] = np.sqrt((rows * rows).sum(axis=1))
        norms.flags.writeable = False
        return norms


class VectorStore(TokenMatrixStore):
    """Immutable id -> vector map with one shared dimensionality.

    A token-matrix store with one row per id, so ``tokens`` is the (n, dim)
    matrix of all vectors, row i belonging to ``ids[i]``.
    """

    _kind = "vector"

    @staticmethod
    def _rows_of(vid: str, arr: np.ndarray, dim: int) -> np.ndarray:
        if arr.shape != (dim,):
            raise ValueError(f"vector {vid!r}: expected shape ({dim},), got {arr.shape}")
        return np.ascontiguousarray(arr).reshape(1, dim)

    def vector(self, vid: str) -> np.ndarray:
        try:
            return self.tokens[self._entries[vid]]
        except KeyError:
            raise KeyError(f"no vector for id {vid!r}") from None

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each row's position in ascending-id order: the tie-break of rankings."""
        rank = np.empty(len(self._ids), dtype=np.int64)
        rank[sorted(range(len(self._ids)), key=self._ids.__getitem__)] = np.arange(len(self._ids))
        return rank


def _write_id(f, ident: str) -> None:
    raw = ident.encode("utf-8")
    f.write(_U32.pack(len(raw)))
    f.write(raw)


class _Reader:
    """Cursor with size checking over a whole embedding file, placed after
    the ``magic | u32 count | u32 dim`` header both formats start with."""

    def __init__(self, path: str | Path, magic: bytes, what: str):
        self.path = Path(path)
        self.data = self.path.read_bytes()
        self.pos = 0
        self.id_offsets: list[int] = []
        if self.take(4) != magic:
            raise ValueError(f"{self.path}: not a {what} file (bad magic)")
        self.count = self.u32()
        self.dim = self.u32()
        if self.dim < 1:
            raise ValueError(f"{self.path}: header dim must be >= 1, got {self.dim}")

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
        start = self.skip(self.u32())
        self.id_offsets.append(start)
        try:
            return self.data[start : self.pos].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{self.path}: id at offset {start} is not valid UTF-8") from None

    def done(self, ids: list[str]) -> None:
        """Check that the file ends here and that no id read holds whitespace."""
        if self.pos != len(self.data):
            raise ValueError(
                f"{self.path}: {len(self.data) - self.pos} trailing bytes after payload"
            )
        reject_spaced_ids(self.path, ids, self.id_offsets)


def write_vectors(store: VectorStore, path: str | Path) -> None:
    with atomic_write(path, binary=True) as f:
        f.write(VECTOR_MAGIC + _U32.pack(len(store)) + _U32.pack(store.dim))
        for vid in store.ids:
            _write_id(f, vid)
        f.write(store.tokens.tobytes())


def load_vectors(path: str | Path) -> VectorStore:
    reader = _Reader(path, VECTOR_MAGIC, "vector")
    ids = [reader.ident() for _ in range(reader.count)]
    rows = reader.take(reader.count * reader.dim * 4)
    reader.done(ids)
    return VectorStore.from_rows(
        ids, np.ones(reader.count, dtype=np.int64), reader.dim, rows, reader.path
    )


def write_token_matrices(store: TokenMatrixStore, path: str | Path) -> None:
    with atomic_write(path, binary=True) as f:
        f.write(MATRIX_MAGIC + _U32.pack(len(store)) + _U32.pack(store.dim))
        for mid, mat in store.items():
            _write_id(f, mid)
            f.write(_U32.pack(mat.shape[0]))
            f.write(mat.tobytes())


def load_token_matrices(path: str | Path) -> TokenMatrixStore:
    reader = _Reader(path, MATRIX_MAGIC, "token-matrix")
    dim = reader.dim
    # one pass over the entry headers, then one copy of all the payloads
    ids, lengths, payloads = [], [], []
    for _ in range(reader.count):
        ids.append(reader.ident())
        lengths.append(reader.u32())
        if lengths[-1] < 1:
            raise ValueError(f"{reader.path}: entry {ids[-1]!r} has zero tokens")
        payloads.append(reader.skip(lengths[-1] * dim * 4))
    reader.done(ids)
    view = memoryview(reader.data)
    rows = b"".join(view[start : start + n * dim * 4] for start, n in zip(payloads, lengths))
    return TokenMatrixStore.from_rows(ids, lengths, dim, rows, reader.path)
