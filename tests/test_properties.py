"""Property tests over randomly drawn small inputs."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clickrank.bm25 import INDEX_FILES, InvertedIndex, build_index, tokenize
from clickrank.corpus import Passage, PassageStore
from clickrank.embeddings import (
    TokenMatrixStore,
    VectorStore,
    load_token_matrices,
    load_vectors,
    write_token_matrices,
    write_vectors,
)

# a small vocabulary, so documents share terms and scores tie often
_WORDS = ["a", "b", "c", "dd", "e1", "the"]

_corpora = st.dictionaries(
    keys=st.text(alphabet="pq01", min_size=1, max_size=4),
    values=st.lists(st.sampled_from(_WORDS), max_size=9).map(" ".join),
    min_size=1,
    max_size=14,
)


@settings(max_examples=80, deadline=None)
@given(
    corpus=_corpora,
    query=st.lists(st.sampled_from([*_WORDS, "zz"]), min_size=1, max_size=5),
    k=st.integers(1, 16),
    stopwords=st.frozensets(st.sampled_from(_WORDS), max_size=2),
    b=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_index_round_trip_and_search_equals_score(corpus, query, k, stopwords, b):
    index = build_index(
        PassageStore(Passage(pid, text) for pid, text in corpus.items()), b=b, stopwords=stopwords
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        index.save(first)
        loaded = InvertedIndex.load(first)
        loaded.save(second)
        for name in INDEX_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    wanted = set(query) - stopwords
    expected = sorted(
        ((pid, index.score(query, pid)) for pid, text in corpus.items() if wanted & set(tokenize(text))),
        key=lambda e: (-e[1], e[0]),
    )[:k]
    # bit for bit: == on the floats, ties broken by ascending passage id
    assert index.search(" ".join(query), k) == expected
    assert loaded.search(" ".join(query), k) == expected


_ids = st.text(min_size=1, max_size=6)
_finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 5))
def test_vector_store_round_trip(data, dim):
    ids = data.draw(st.lists(_ids, max_size=8, unique=True))
    vectors = {
        vid: np.array(data.draw(st.lists(_finite32, min_size=dim, max_size=dim)), dtype=np.float32)
        for vid in ids
    }
    store = VectorStore(dim, vectors)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.tkv", Path(tmp) / "second.tkv"
        write_vectors(store, first)
        loaded = load_vectors(first)
        write_vectors(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.ids == ids and loaded.dim == dim
    for vid in ids:
        # bit for bit, the sign of a zero included
        assert np.array_equal(_bits(loaded.vector(vid)), _bits(vectors[vid]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 5))
def test_token_matrix_store_round_trip(data, dim):
    ids = data.draw(st.lists(_ids, max_size=8, unique=True))
    matrices = {}
    for mid in ids:
        n = data.draw(st.integers(1, 4))
        values = data.draw(st.lists(_finite32, min_size=n * dim, max_size=n * dim))
        matrices[mid] = np.array(values, dtype=np.float32).reshape(n, dim)
    store = TokenMatrixStore(dim, matrices)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.tkm", Path(tmp) / "second.tkm"
        write_token_matrices(store, first)
        loaded = load_token_matrices(first)
        write_token_matrices(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.ids == ids and loaded.dim == dim
    for mid, (item_id, item) in zip(ids, loaded.items()):
        assert item_id == mid
        assert np.array_equal(_bits(loaded.matrix(mid)), _bits(matrices[mid]))
        assert np.array_equal(_bits(item), _bits(matrices[mid]))
    starts, lengths = loaded.spans(ids[::-1])
    assert lengths.tolist() == [len(matrices[mid]) for mid in ids[::-1]]
    for start, length, mid in zip(starts.tolist(), lengths.tolist(), ids[::-1]):
        assert np.array_equal(_bits(loaded.tokens[start : start + length]), _bits(matrices[mid]))
