"""Property tests over randomly drawn small inputs."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clickrank.bm25 import INDEX_FILES, InvertedIndex, build_index, tokenize
from clickrank.corpus import Passage, PassageStore

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
