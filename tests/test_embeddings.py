import os
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from clickrank.embeddings import (
    TokenMatrixStore,
    VectorStore,
    load_token_matrices,
    load_vectors,
    write_token_matrices,
    write_vectors,
)


def _u32(n: int) -> bytes:
    return struct.pack("<I", n)


def _ident(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _u32(len(raw)) + raw


def _error(loader, path, blob: bytes) -> str:
    """The message of the ValueError ``loader`` raises on a file holding ``blob``."""
    path.write_bytes(blob)
    with pytest.raises(ValueError) as exc:
        loader(path)
    return str(exc.value)


def _vector_file_bytes(entries: dict[str, list[float]], dim: int) -> bytes:
    blob = b"TKV1" + _u32(len(entries)) + _u32(dim)
    for vid in entries:
        blob += _ident(vid)
    for vid, values in entries.items():
        blob += np.array(values, dtype="<f4").tobytes()
    return blob


class TestVectorStore:
    ENTRIES = {"a": [1, 2, 3], "bb": [4, 5, 6], "c": [0, -1, 0.5]}

    def test_dim_enforced(self):
        with pytest.raises(ValueError) as exc:
            VectorStore(3, {"a": np.zeros(2)})
        assert str(exc.value) == "vector 'a': expected shape (3,), got (2,)"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError) as exc:
            VectorStore(2, {"ok": [1.0, 2.0], "a": np.array([1.0, np.nan])})
        assert str(exc.value) == "vector 'a' contains a non-finite component"

    def test_manual_header_layout(self, tmp_path):
        # count=2, dim=4 -> exactly 32 payload bytes
        blob = _vector_file_bytes({"a": [1, 2, 3, 4], "b": [5, 6, 7, 8]}, 4)
        path = tmp_path / "v.tkv"
        path.write_bytes(blob)
        store = load_vectors(path)
        assert len(store) == 2
        assert store.dim == 4
        np.testing.assert_array_equal(store.vector("b"), np.array([5, 6, 7, 8], dtype=np.float32))

    def test_truncated_payload(self, tmp_path):
        blob = _vector_file_bytes({"a": [1, 2, 3, 4]}, 4)
        path = tmp_path / "v.tkv"
        # 12 header bytes and a 5-byte id record, then the 16-byte payload
        assert _error(load_vectors, path, blob[:-4]) == (
            f"{path}: truncated file (needed 16 bytes at offset 17)"
        )

    def test_header_truncated_mid_id(self, tmp_path):
        blob = _vector_file_bytes(self.ENTRIES, 3)
        cut = blob.index(b"bb") + 1
        path = tmp_path / "v.tkv"
        assert _error(load_vectors, path, blob[:cut]) == (
            f"{path}: truncated file (needed 2 bytes at offset {cut - 1})"
        )

    def test_trailing_bytes_rejected(self, tmp_path):
        blob = _vector_file_bytes({"a": [1, 2, 3, 4]}, 4) + b"junk"
        path = tmp_path / "v.tkv"
        assert _error(load_vectors, path, blob) == f"{path}: 4 trailing bytes after payload"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.tkv"
        assert _error(load_vectors, path, b"NOPE" + b"\x00" * 8) == (
            f"{path}: not a vector file (bad magic)"
        )

    def test_nan_names_the_id(self, tmp_path):
        blob = _vector_file_bytes({"good": [1, 1], "poisoned": [1, float("nan")]}, 2)
        path = tmp_path / "v.tkv"
        assert _error(load_vectors, path, blob) == (
            f"{path}: vector for id 'poisoned' has a non-finite component"
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("vid", ["a", "bb", "c"])
    def test_non_finite_component_names_the_id(self, tmp_path, value, vid):
        entries = {k: list(v) for k, v in self.ENTRIES.items()}
        entries[vid][1] = value
        path = tmp_path / "v.tkv"
        assert _error(load_vectors, path, _vector_file_bytes(entries, 3)) == (
            f"{path}: vector for id '{vid}' has a non-finite component"
        )

    def test_duplicate_id_rejected(self, tmp_path):
        blob = b"TKV1" + _u32(3) + _u32(1) + _ident("x") + _ident("y") + _ident("x")
        blob += np.ones(3, dtype="<f4").tobytes()
        path = tmp_path / "v.tkv"
        assert _error(load_vectors, path, blob) == f"{path}: duplicate id 'x'"

    def test_zero_dim_header(self, tmp_path):
        path = tmp_path / "v.tkv"
        assert _error(load_vectors, path, b"TKV1" + _u32(0) + _u32(0)) == (
            f"{path}: header dim must be >= 1, got 0"
        )

    def test_empty_file_has_no_entries(self, tmp_path):
        path = tmp_path / "v.tkv"
        path.write_bytes(b"TKV1" + _u32(0) + _u32(5))
        store = load_vectors(path)
        assert len(store) == 0 and store.ids == [] and store.dim == 5

    def test_vector_views_are_read_only(self, tmp_path):
        path = tmp_path / "v.tkv"
        path.write_bytes(_vector_file_bytes(self.ENTRIES, 3))
        store = load_vectors(path)
        for vid in store.ids:
            with pytest.raises(ValueError, match="read-only"):
                store.vector(vid)[0] = 42.0
        built = VectorStore(3, {"x": np.ones(3)})
        with pytest.raises(ValueError, match="read-only"):
            built.vector("x")[:] = 0.0

    def test_unknown_id_names_it(self):
        store = VectorStore(2, {"a": [1.0, 0.0]})
        with pytest.raises(KeyError) as exc:
            store.vector("zz")
        assert exc.value.args == ("no vector for id 'zz'",)

    def test_writer_matches_the_layout(self, tmp_path):
        path = tmp_path / "v.tkv"
        write_vectors(VectorStore(3, self.ENTRIES), path)
        assert path.read_bytes() == _vector_file_bytes(self.ENTRIES, 3)
        write_vectors(VectorStore(4, {}), path)
        assert path.read_bytes() == _vector_file_bytes({}, 4)

    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(9)
        store = VectorStore(
            16, {f"v{i:04d}": rng.standard_normal(16).astype(np.float32) for i in range(1000)}
        )
        path = tmp_path / "v.tkv"
        write_vectors(store, path)
        loaded = load_vectors(path)
        assert loaded.ids == store.ids
        for vid in store.ids:
            assert np.array_equal(loaded.vector(vid), store.vector(vid))
        # and rewriting produces identical bytes
        path2 = tmp_path / "v2.tkv"
        write_vectors(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


class TestTokenMatrixStore:
    def test_zero_token_entry_rejected(self):
        with pytest.raises(ValueError) as exc:
            TokenMatrixStore(4, {"a": np.zeros((0, 4))})
        assert str(exc.value) == "matrix 'a' has no token rows"

    @pytest.mark.parametrize(
        "matrices, message",
        [
            ({"a": np.zeros((2, 3))}, "matrix 'a': expected shape (n, 4), got (2, 3)"),
            ({"a": np.zeros(4)}, "matrix 'a': expected shape (n, 4), got (4,)"),
            (
                {"ok": np.ones((2, 4)), "a": np.array([[0, 0, 0, 0], [0, np.inf, 0, 0]])},
                "matrix 'a' contains a non-finite component",
            ),
        ],
    )
    def test_constructor_messages(self, matrices, message):
        with pytest.raises(ValueError) as exc:
            TokenMatrixStore(4, matrices)
        assert str(exc.value) == message

    @pytest.mark.parametrize("store", [TokenMatrixStore, VectorStore])
    def test_zero_dim_rejected(self, store):
        with pytest.raises(ValueError) as exc:
            store(0, {})
        assert str(exc.value) == "dim must be >= 1, got 0"

    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        store = TokenMatrixStore(
            8,
            {
                f"m{i}": rng.standard_normal((int(rng.integers(1, 7)), 8)).astype(np.float32)
                for i in range(50)
            },
        )
        path = tmp_path / "m.tkm"
        write_token_matrices(store, path)
        loaded = load_token_matrices(path)
        assert loaded.ids == store.ids
        for mid in store.ids:
            assert np.array_equal(loaded.matrix(mid), store.matrix(mid))

    @pytest.mark.parametrize("dim", [1, 7, 32, 300])
    def test_row_norms_are_numpys_row_norms_bit_for_bit(self, dim, monkeypatch):
        # the kernel head's cosine divides by these cached norms, where it
        # divided by np.linalg.norm of each batch's rows
        import clickrank.embeddings as embeddings

        rng = np.random.default_rng(dim)
        scale = lambda n: np.exp(rng.uniform(-40.0, 40.0, (n, 1)))
        matrices = {
            f"m{i}": (rng.standard_normal((n, dim)) * scale(n)).astype(np.float32)
            for i, n in enumerate(rng.integers(1, 9, 40))
        }
        # blocks of three rows, so rows and blocks do not line up with entries
        monkeypatch.setattr(embeddings, "BLOCK_BYTES", 8 * dim * 3)
        store = TokenMatrixStore(dim, matrices)
        want = np.concatenate([np.linalg.norm(m.astype(np.float64), axis=1) for m in matrices.values()])
        assert store.row_norms.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert not store.row_norms.flags.writeable

    def test_zero_token_in_file_rejected(self, tmp_path):
        blob = b"TKM1" + _u32(1) + _u32(4) + _ident("bad") + _u32(0)
        path = tmp_path / "m.tkm"
        assert _error(load_token_matrices, path, blob) == f"{path}: entry 'bad' has zero tokens"

    def test_duplicate_id_rejected(self, tmp_path):
        row = np.ones(2, dtype="<f4").tobytes()
        blob = b"TKM1" + _u32(2) + _u32(2)
        blob += _ident("x") + _u32(1) + row
        blob += _ident("x") + _u32(1) + row
        path = tmp_path / "m.tkm"
        assert _error(load_token_matrices, path, blob) == f"{path}: duplicate id 'x'"


def _matrix_file_bytes(entries: dict[str, list[list[float]]], dim: int) -> bytes:
    blob = b"TKM1" + _u32(len(entries)) + _u32(dim)
    for mid, rows in entries.items():
        blob += _ident(mid) + _u32(len(rows)) + np.array(rows, dtype="<f4").tobytes()
    return blob


class TestTokenMatrixLoader:
    ENTRIES = {"a": [[1, 2, 3]], "bb": [[4, 5, 6], [7, 8, 9]], "c": [[0, -1, 0.5]]}

    def _load(self, tmp_path, blob: bytes):
        path = tmp_path / "m.tkm"
        path.write_bytes(blob)
        return load_token_matrices(path)

    def _error(self, tmp_path, blob: bytes) -> str:
        """The message, with the file's path taken off its front."""
        path = tmp_path / "m.tkm"
        return _error(load_token_matrices, path, blob).removeprefix(f"{path}: ")

    def test_manual_layout(self, tmp_path):
        store = self._load(tmp_path, _matrix_file_bytes(self.ENTRIES, 3))
        assert store.ids == ["a", "bb", "c"]
        assert store.dim == 3
        for mid, rows in self.ENTRIES.items():
            assert store.matrix(mid).dtype == np.float32
            assert np.array_equal(store.matrix(mid), np.array(rows, dtype=np.float32))

    def test_bad_magic(self, tmp_path):
        blob = _matrix_file_bytes(self.ENTRIES, 3)
        assert self._error(tmp_path, b"TKV1" + blob[4:]) == "not a token-matrix file (bad magic)"

    def test_header_truncated_mid_id(self, tmp_path):
        # cut inside the second entry's id: its length says 2 bytes, one remains
        blob = _matrix_file_bytes(self.ENTRIES, 3)
        cut = blob.index(b"bb") + 1
        assert self._error(tmp_path, blob[:cut]) == f"truncated file (needed 2 bytes at offset {cut - 1})"

    def test_payload_truncated(self, tmp_path):
        blob = _matrix_file_bytes(self.ENTRIES, 3)
        # the last entry's 12-byte payload starts 12 bytes before the end
        assert self._error(tmp_path, blob[:-4]) == (
            f"truncated file (needed 12 bytes at offset {len(blob) - 12})"
        )

    def test_trailing_bytes(self, tmp_path):
        blob = _matrix_file_bytes(self.ENTRIES, 3) + b"xyz"
        assert self._error(tmp_path, blob) == "3 trailing bytes after payload"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("mid, row", [("a", 0), ("bb", 0), ("bb", 1), ("c", 0)])
    def test_non_finite_component_names_the_entry(self, tmp_path, value, mid, row):
        entries = {k: [list(r) for r in rows] for k, rows in self.ENTRIES.items()}
        entries[mid][row][2] = value
        assert self._error(tmp_path, _matrix_file_bytes(entries, 3)) == (
            f"matrix for id '{mid}' has a non-finite component"
        )

    def test_zero_dim_header(self, tmp_path):
        assert self._error(tmp_path, b"TKM1" + _u32(0) + _u32(0)) == "header dim must be >= 1, got 0"

    def test_empty_file_has_no_entries(self, tmp_path):
        store = self._load(tmp_path, b"TKM1" + _u32(0) + _u32(5))
        assert len(store) == 0 and store.ids == [] and store.dim == 5

    def test_matrix_views_are_read_only(self, tmp_path):
        store = self._load(tmp_path, _matrix_file_bytes(self.ENTRIES, 3))
        for mid in store.ids:
            with pytest.raises(ValueError, match="read-only"):
                store.matrix(mid)[0, 0] = 42.0
        built = TokenMatrixStore(3, {"x": np.ones((2, 3))})
        with pytest.raises(ValueError, match="read-only"):
            built.matrix("x")[:] = 0.0

    def test_unknown_id_names_it(self, tmp_path):
        store = self._load(tmp_path, _matrix_file_bytes(self.ENTRIES, 3))
        for lookup in (store.matrix, lambda mid: store.spans(["a", mid])):
            with pytest.raises(KeyError) as exc:
                lookup("zz")
            assert exc.value.args == ("no token matrix for id 'zz'",)

    def test_writer_matches_the_layout(self, tmp_path):
        path = tmp_path / "m.tkm"
        write_token_matrices(TokenMatrixStore(3, self.ENTRIES), path)
        assert path.read_bytes() == _matrix_file_bytes(self.ENTRIES, 3)
        write_token_matrices(TokenMatrixStore(4, {}), path)
        assert path.read_bytes() == _matrix_file_bytes({}, 4)


@pytest.mark.parametrize(
    "loader, blob",
    [
        (load_vectors, b"TKV1" + _u32(2) + _u32(1) + _ident("a") + _u32(2) + b"\xff\xfe"),
        (
            load_token_matrices,
            b"TKM1" + _u32(2) + _u32(1) + _ident("a") + _u32(1) + b"\0" * 4 + _u32(2) + b"\xff\xfe",
        ),
    ],
    ids=["vectors", "token-matrices"],
)
def test_invalid_utf8_id_names_the_file_and_offset(tmp_path, loader, blob):
    path = tmp_path / "e.bin"
    start = len(blob) - 2
    blob += b"\0" * 8
    assert _error(loader, path, blob) == f"{path}: id at offset {start} is not valid UTF-8"


VALID_FILES = {
    "vectors": (load_vectors, _vector_file_bytes(TestVectorStore.ENTRIES, 3)),
    "token-matrices": (load_token_matrices, _matrix_file_bytes(TestTokenMatrixLoader.ENTRIES, 3)),
}


def _still_mapped(path) -> bool:
    """Whether this process maps ``path``, where the OS lists the mappings."""
    maps = Path("/proc/self/maps")
    return maps.exists() and str(path) in maps.read_text()


@pytest.mark.parametrize("loader, blob", VALID_FILES.values(), ids=VALID_FILES)
def test_every_truncation_is_one_error_naming_the_file(tmp_path, loader, blob):
    path = tmp_path / "e.bin"
    # mmap refuses an empty file, so a zero-byte file takes its own path
    assert _error(loader, path, b"") == f"{path}: truncated file (needed 4 bytes at offset 0)"
    for cut in range(1, len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError) as exc:
            loader(path)
        assert str(exc.value).startswith(f"{path}: ") and "\n" not in str(exc.value), cut
        # the traceback keeps the loader's frames alive: only a close has unmapped the file
        assert not _still_mapped(path), cut
    path.write_bytes(blob)
    store = loader(path)
    assert len(store) == 3 and not _still_mapped(path)


@pytest.mark.skipif(sys.platform != "linux", reason="opens a FIFO read-write, which Linux allows")
@pytest.mark.parametrize("loader", [load_vectors, load_token_matrices])
def test_a_file_that_cannot_be_mapped_is_one_error_naming_it(tmp_path, loader):
    path = tmp_path / "e.fifo"
    os.mkfifo(path)
    # holding both ends open lets the loader's open return without a writer
    fd = os.open(path, os.O_RDWR)
    try:
        with pytest.raises(ValueError) as exc:
            loader(path)
    finally:
        os.close(fd)
    assert str(exc.value).startswith(f"{path}: cannot map the file (")


class TestFinitenessScreen:
    # the float32 sum of these components overflows, though each is finite
    BIG = 3e38

    def test_finite_store_whose_sum_overflows_loads(self, tmp_path):
        entries = {"a": [self.BIG, self.BIG], "bb": [self.BIG, -1.0], "c": [1.0, self.BIG]}
        path = tmp_path / "v.tkv"
        path.write_bytes(_vector_file_bytes(entries, 2))
        store = load_vectors(path)
        with np.errstate(over="ignore"):
            assert np.isinf(store.tokens.sum())
        assert store.tokens.tolist() == np.array(list(entries.values()), dtype=np.float32).tolist()
        rows = {"m": [[self.BIG, self.BIG], [self.BIG, self.BIG]]}
        path = tmp_path / "m.tkm"
        path.write_bytes(_matrix_file_bytes(rows, 2))
        want = np.float32(rows["m"]).tolist()
        assert load_token_matrices(path).matrix("m").tolist() == want
        assert TokenMatrixStore(2, rows).tokens.tolist() == want

    @pytest.mark.parametrize(
        "values, bad",
        [
            ({"a": [BIG, BIG], "b": [BIG, np.nan], "c": [1.0, 1.0]}, "b"),
            ({"a": [BIG, BIG], "b": [1.0, 1.0], "c": [-np.inf, 1.0]}, "c"),
            # the two infinities sum to NaN; the first one is named
            ({"a": [1.0, 1.0], "b": [np.inf, 0.0], "c": [-np.inf, 0.0]}, "b"),
            ({"a": [BIG, BIG], "b": [-BIG, -BIG], "c": [0.0, np.inf]}, "c"),
        ],
        ids=["nan-after-overflow", "minus-inf-after-overflow", "inf-minus-inf", "inf-after-cancelling"],
    )
    def test_non_finite_component_is_named_whatever_the_sum(self, tmp_path, values, bad):
        path = tmp_path / "v.tkv"
        assert _error(load_vectors, path, _vector_file_bytes(values, 2)) == (
            f"{path}: vector for id '{bad}' has a non-finite component"
        )
        with pytest.raises(ValueError) as exc:
            TokenMatrixStore(2, {k: [v] for k, v in values.items()})
        assert str(exc.value) == f"matrix '{bad}' contains a non-finite component"


@pytest.mark.parametrize("loader, blob", VALID_FILES.values(), ids=VALID_FILES)
def test_a_load_copies_the_rows_out_of_the_file(tmp_path, loader, blob):
    path = tmp_path / "e.bin"
    path.write_bytes(blob)
    store = loader(path)
    before = store.tokens.copy()
    owner = store.tokens  # the object that owns the rows' memory
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert type(owner) is bytes and len(owner) == len(store.tokens) * store.dim * 4 == before.nbytes
    # rewritten in place, so a store still reading the file would see the new rows
    with open(path, "r+b") as f:
        f.write(blob[:12] + bytes(len(blob) - 12))
    assert np.array_equal(store.tokens, before) and before.any()
