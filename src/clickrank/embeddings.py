"""Stores for externally produced embeddings.

Two binary interchange formats, both little-endian with float32 payloads:

``TKV1`` (one vector per id)
    magic ``TKV1`` | u32 count | u32 dim | count x (u32 id_len, id utf-8)
    | count*dim float32.

``TKM1`` (one token matrix per id)
    magic ``TKM1`` | u32 count | u32 dim
    | count x (u32 id_len, id utf-8, u32 n_tokens, n_tokens*dim float32).

Static word embeddings use the common text format ``term v1 ... v_dim``.
"""

from __future__ import annotations

import logging
import struct
from pathlib import Path
from typing import Callable, Iterator, Mapping

import numpy as np

logger = logging.getLogger(__name__)

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
    """Immutable id -> (n_tokens, dim) matrix map; n_tokens >= 1 per entry."""

    def __init__(self, dim: int, matrices: Mapping[str, np.ndarray]):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self._matrices: dict[str, np.ndarray] = {}
        for mid, mat in matrices.items():
            arr = np.asarray(mat, dtype=np.float32)
            if arr.ndim != 2 or arr.shape[1] != self.dim:
                raise ValueError(
                    f"matrix {mid!r}: expected shape (n, {self.dim}), got {arr.shape}"
                )
            if arr.shape[0] < 1:
                raise ValueError(f"matrix {mid!r} has no token rows")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"matrix {mid!r} contains a non-finite component")
            self._matrices[mid] = arr

    def __len__(self) -> int:
        return len(self._matrices)

    def __contains__(self, mid: str) -> bool:
        return mid in self._matrices

    @property
    def ids(self) -> list[str]:
        return list(self._matrices)

    def matrix(self, mid: str) -> np.ndarray:
        try:
            return self._matrices[mid]
        except KeyError:
            raise KeyError(f"no token matrix for id {mid!r}") from None

    def token_count(self, mid: str) -> int:
        return self.matrix(mid).shape[0]

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._matrices.items())


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

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError(
                f"{self.path}: truncated file (needed {n} bytes at offset {self.pos})"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

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
    with open(path, "wb") as f:
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
    with open(path, "wb") as f:
        f.write(MATRIX_MAGIC)
        f.write(_U32.pack(len(store)))
        f.write(_U32.pack(store.dim))
        for mid, mat in store.items():
            _write_id(f, mid)
            f.write(_U32.pack(mat.shape[0]))
            f.write(np.ascontiguousarray(mat, dtype="<f4").tobytes())


def load_token_matrices(path: str | Path) -> TokenMatrixStore:
    path = Path(path)
    reader = _Reader(path.read_bytes(), path)
    if reader.take(4) != MATRIX_MAGIC:
        raise ValueError(f"{path}: not a token-matrix file (bad magic)")
    count = reader.u32()
    dim = reader.u32()
    if dim < 1:
        raise ValueError(f"{path}: header dim must be >= 1, got {dim}")
    matrices: dict[str, np.ndarray] = {}
    for _ in range(count):
        mid = reader.ident()
        if mid in matrices:
            raise ValueError(f"{path}: duplicate id {mid!r}")
        n_tokens = reader.u32()
        if n_tokens < 1:
            raise ValueError(f"{path}: entry {mid!r} has zero tokens")
        payload = reader.take(n_tokens * dim * 4)
        mat = np.frombuffer(payload, dtype="<f4").reshape(n_tokens, dim).copy()
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"{path}: matrix for id {mid!r} has a non-finite component")
        matrices[mid] = mat
    reader.done()
    return TokenMatrixStore(dim, matrices)


class StaticEmbedding:
    """Per-term word vectors (non-contextual)."""

    def __init__(self, dim: int, table: Mapping[str, np.ndarray]):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self._table: dict[str, np.ndarray] = {}
        for term, vec in table.items():
            arr = np.asarray(vec, dtype=np.float32)
            if arr.shape != (self.dim,):
                raise ValueError(
                    f"term {term!r}: expected shape ({self.dim},), got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"term {term!r} has a non-finite component")
            self._table[term] = arr

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, term: str) -> bool:
        return term in self._table

    def vector(self, term: str) -> np.ndarray:
        return self._table[term]


def load_static_embedding(path: str | Path) -> StaticEmbedding:
    """Load ``term v1 ... v_dim`` lines; duplicate terms are an error."""
    path = Path(path)
    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            term, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise ValueError(f"{path}: line {lineno}: no vector components")
            if len(values) != dim:
                raise ValueError(
                    f"{path}: line {lineno}: expected {dim} components, got {len(values)}"
                )
            if term in table:
                raise ValueError(f"{path}: line {lineno}: duplicate term {term!r}")
            try:
                table[term] = np.array([float(v) for v in values], dtype=np.float32)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric component") from None
    if dim is None:
        raise ValueError(f"{path}: empty embedding file")
    return StaticEmbedding(dim, table)


def write_static_embedding(embedding: StaticEmbedding, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for term in sorted(embedding._table):
            components = " ".join(repr(float(v)) for v in embedding.vector(term))
            f.write(f"{term} {components}\n")


def embed_tokens_static(
    text: str,
    embedding: StaticEmbedding,
    tokenizer: Callable[[str], list[str]],
) -> np.ndarray:
    """Stack the embedding vectors of the in-vocabulary tokens of ``text``.

    Out-of-vocabulary tokens are dropped (the drop count is logged at DEBUG
    level). A text whose tokens are all out of vocabulary is an error, since
    a token matrix must have at least one row.
    """
    tokens = tokenizer(text)
    rows = [embedding.vector(t) for t in tokens if t in embedding]
    dropped = len(tokens) - len(rows)
    if dropped:
        logger.debug("dropped %d out-of-vocabulary tokens", dropped)
    if not rows:
        raise ValueError("no in-vocabulary tokens in text")
    return np.stack(rows)
