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

import mmap
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
# store's rows: here the float64 rows of ``row_norms``; in ``rankers`` late
# interaction's gathered passage rows and (query tokens, passage tokens)
# float64 screen bounds, and the kernel head's (kernels, passages, query
# tokens, tokens) values. The dense head's products take smaller blocks.
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
        # the sum is NaN or infinite when any component is, and needs no
        # (total_tokens, dim) mask; only a store whose sum is not finite pays
        # for one, and a finite store whose float32 sum overflowed passes it
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(tokens.sum()):
                return
        finite_rows = np.isfinite(tokens).all(axis=1)
        if not finite_rows.all():
            row = np.argmin(finite_rows)
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
    """A whole embedding file mapped read-only; a context manager that
    closes the mapping. ``header`` checks the ``magic | u32 count | u32 dim``
    header both formats start with. The loaders walk the rest with
    ``_U32.unpack_from``, checking each field against ``size`` before they
    read it, and copy the rows out of the mapping once."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        with open(self.path, "rb") as f:
            try:
                self.data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:  # mmap refuses an empty file, which has no magic
                raise self.truncated(4, 0) from None
            except OSError as exc:
                raise ValueError(f"{self.path}: cannot map the file ({exc.strerror})") from None
        self.size = len(self.data)

    def header(self, magic: bytes, what: str) -> None:
        if self.size < 4:
            raise self.truncated(4, 0)
        if self.data[:4] != magic:
            raise ValueError(f"{self.path}: not a {what} file (bad magic)")
        if self.size < 12:
            raise self.truncated(4, 4 if self.size < 8 else 8)
        self.count, self.dim = struct.unpack_from("<II", self.data, 4)
        if self.dim < 1:
            raise ValueError(f"{self.path}: header dim must be >= 1, got {self.dim}")

    def __enter__(self) -> "_Reader":
        return self

    def __exit__(self, *exc) -> None:
        self.data.close()

    def truncated(self, n: int, pos: int) -> ValueError:
        return ValueError(f"{self.path}: truncated file (needed {n} bytes at offset {pos})")

    def ident(self, pos: int, end: int) -> str:
        """The id held in bytes ``pos:end``."""
        try:
            return str(self.data[pos:end], "utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{self.path}: id at offset {pos} is not valid UTF-8") from None

    def done(self, pos: int, ids: list[str], id_offsets: list[int]) -> None:
        """Check that the file ends at ``pos`` and that no id holds whitespace."""
        if pos != self.size:
            raise ValueError(f"{self.path}: {self.size - pos} trailing bytes after payload")
        reject_spaced_ids(self.path, ids, id_offsets)


def write_vectors(store: VectorStore, path: str | Path) -> None:
    with atomic_write(path, binary=True) as f:
        f.write(VECTOR_MAGIC + _U32.pack(len(store)) + _U32.pack(store.dim))
        for vid in store.ids:
            _write_id(f, vid)
        f.write(store.tokens.tobytes())


def load_vectors(path: str | Path) -> VectorStore:
    with _Reader(path) as reader:
        reader.header(VECTOR_MAGIC, "vector")
        data, size, pos = reader.data, reader.size, 12
        ids, id_offsets = [], []
        for _ in range(reader.count):
            if pos + 4 > size:
                raise reader.truncated(4, pos)
            end = pos + 4 + _U32.unpack_from(data, pos)[0]
            pos += 4
            if end > size:
                raise reader.truncated(end - pos, pos)
            ids.append(reader.ident(pos, end))
            id_offsets.append(pos)
            pos = end
        n = reader.count * reader.dim * 4
        if pos + n > size:
            raise reader.truncated(n, pos)
        reader.done(pos + n, ids, id_offsets)
        rows = data[pos : pos + n]
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
    with _Reader(path) as reader:
        reader.header(MATRIX_MAGIC, "token-matrix")
        data, size, pos, row_bytes = reader.data, reader.size, 12, reader.dim * 4
        # one pass over the entry headers, then one copy of all the payloads
        ids, id_offsets, lengths, payloads = [], [], [], []
        for _ in range(reader.count):
            if pos + 4 > size:
                raise reader.truncated(4, pos)
            end = pos + 4 + _U32.unpack_from(data, pos)[0]
            pos += 4
            if end > size:
                raise reader.truncated(end - pos, pos)
            ids.append(reader.ident(pos, end))
            id_offsets.append(pos)
            if end + 4 > size:
                raise reader.truncated(4, end)
            n = _U32.unpack_from(data, end)[0]
            if n < 1:
                raise ValueError(f"{reader.path}: entry {ids[-1]!r} has zero tokens")
            pos = end + 4
            if pos + n * row_bytes > size:
                raise reader.truncated(n * row_bytes, pos)
            lengths.append(n)
            payloads.append(pos)
            pos += n * row_bytes
        reader.done(pos, ids, id_offsets)
        with memoryview(data) as view:
            rows = b"".join([view[p : p + n * row_bytes] for p, n in zip(payloads, lengths)])
    return TokenMatrixStore.from_rows(ids, lengths, reader.dim, rows, reader.path)
