"""Property tests over randomly drawn small inputs."""

import math
import random
import string
import sys
import tempfile
from collections import Counter
from itertools import permutations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from clickrank import bm25
from clickrank.bm25 import INDEX_FILES, InvertedIndex, build_index, tokenize
from clickrank.corpus import (
    Passage,
    PassageStore,
    Qrels,
    Query,
    QuerySet,
    load_qrels,
    write_qrels,
)
from clickrank.embeddings import (
    TokenMatrixStore,
    VectorStore,
    load_token_matrices,
    load_vectors,
    write_token_matrices,
    write_vectors,
)
from clickrank import rankers
from clickrank.evaluation import evaluate_run, fuse_runs
from clickrank.rankers import (
    KERNEL_EPSILON,
    DenseScorer,
    KernelBank,
    KernelScorer,
    KernelWeights,
    LateInteractionScorer,
    _gather,
    _kernel_feature_rows,
    dense_retrieve,
    dense_score,
    kernel_features,
    kernel_score,
    late_interaction_score,
    load_weights,
    write_weights,
)
from clickrank.runs import RankedRun, canonical_order, read_run, write_run
from clickrank.triples import (
    SamplingConfig,
    TrainingTriple,
    generate_triples,
    read_triples,
    stable_query_seed,
    write_triples,
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
    queries=st.lists(
        st.lists(st.sampled_from([*_WORDS, "zz"]), min_size=1, max_size=5), min_size=1, max_size=4
    ),
    k=st.integers(1, 16),
    stopwords=st.frozensets(st.sampled_from(_WORDS), max_size=2),
    b=st.sampled_from([0.0, 0.4, 1.0]),
)
def test_index_round_trip_and_search_equals_score(corpus, queries, k, stopwords, b):
    store = PassageStore(Passage(pid, text) for pid, text in corpus.items())
    index = build_index(store, b=b, stopwords=stopwords)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        index.save(first)
        loaded = InvertedIndex.load(first)
        loaded.save(second)
        for name in INDEX_FILES:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    # the drawn queries share terms; add one that repeats a token, one with
    # an unknown token and one with a stopword (when the index has one)
    head, tail = queries[0], queries[-1]
    queries = [*queries, [head[0], head[0], *tail], ["zz", *head], [min(stopwords, default="the"), *tail]]
    for query in queries:
        text = " ".join(query)
        wanted = set(query) - stopwords
        expected = sorted(
            ((pid, index.score(query, pid)) for pid, t in corpus.items() if wanted & set(tokenize(t))),
            key=lambda e: (-e[1], e[0]),
        )[:k]
        # bit for bit: == on the floats, ties broken by ascending passage id
        assert index.search(text, k) == expected
        assert loaded.search(text, k) == expected
        # an index that has answered earlier queries answers as a fresh one
        fresh = [a.tolist() for a in build_index(store, b=b, stopwords=stopwords).top_k(text, k)]
        assert [a.tolist() for a in loaded.top_k(text, k)] == fresh


def _id_miner(queries: QuerySet, qrels: Qrels, index: InvertedIndex, config: SamplingConfig):
    """Triple mining on passage ids, one ``search`` per query: the reference
    ``generate_triples`` must match in every triple and every counter."""
    triples = []
    counts = {"queries_processed": 0, "skipped_missing_qrels": 0, "skipped_no_eligible": 0}
    for qid in sorted(q.id for q in queries):
        positives = sorted(qrels.relevant_pool(qid))
        if not positives:
            counts["skipped_missing_qrels"] += 1
            continue
        pool = [pid for pid, _ in index.search(queries.text(qid), config.candidate_depth)]
        rng = np.random.default_rng(stable_query_seed(config.seed, qid))
        produced = 0
        for positive in positives:
            candidates = pool
            if config.legacy_mode:
                candidates = pool[: pool.index(positive)] if positive in pool else []
            eligible = [c for c in candidates if c not in positives]
            if eligible:
                n = min(config.max_negatives_per_positive, len(eligible))
                picks = rng.choice(len(eligible), size=n, replace=False)
                triples += [TrainingTriple(qid, positive, eligible[i]) for i in picks]
                produced += n
        counts["queries_processed" if produced else "skipped_no_eligible"] += 1
    if not triples:
        return "no training triples produced"
    order = np.random.default_rng(config.seed).permutation(len(triples))
    shuffled = [triples[i] for i in order]
    counts["truncated"] = len(shuffled) > config.triple_cap
    return shuffled[: config.triple_cap], counts


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    corpus=_corpora,
    max_neg=st.integers(1, 4),
    extra_depth=st.integers(0, 12),
    cap=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
    legacy_mode=st.booleans(),
)
def test_generate_triples_equals_the_id_based_miner(
    data, corpus, max_neg, extra_depth, cap, seed, legacy_mode
):
    index = build_index(PassageStore(Passage(pid, text) for pid, text in corpus.items()))
    # 1-4 positives per judged query, drawn with ids the index lacks
    ids = st.sampled_from([*sorted(corpus), "absent", "zz9"])
    queries, grades = [], {}
    for n in range(data.draw(st.integers(1, 4), label="queries")):
        words = data.draw(st.lists(st.sampled_from([*_WORDS, "zz"]), min_size=1, max_size=4))
        queries.append(Query(f"q{n}", " ".join(words), "train"))
        if data.draw(st.booleans(), label="judged"):
            positives = data.draw(st.lists(ids, min_size=1, max_size=4, unique=True))
            grades[f"q{n}"] = {pid: data.draw(st.integers(1, 2)) for pid in positives}
    queries = QuerySet(queries)
    config = SamplingConfig(max_neg + extra_depth, max_neg, cap, seed, legacy_mode)

    for query in queries:
        docs, scores = index.top_k(query.text, config.candidate_depth)
        pairs = [(index.ids[d], s.hex()) for d, s in zip(docs.tolist(), scores.tolist())]
        assert [(pid, s.hex()) for pid, s in index.search(query.text, config.candidate_depth)] == pairs

    expected = _id_miner(queries, Qrels(grades), index, config)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            generate_triples(queries, Qrels(grades), index, config)
        return
    report = generate_triples(queries, Qrels(grades), index, config)
    counts = {key: getattr(report, key) for key in expected[1]}
    assert (report.triples, counts) == expected


def _counter_build(store: PassageStore, stopwords: frozenset[str]) -> InvertedIndex:
    """The index built one passage at a time with a ``Counter``: the reference
    ``build_index`` must match in every bit."""
    ids = sorted(store)
    vocabulary: dict[str, int] = {}  # term -> number in first-seen order
    lengths, distinct, seen_terms, frequencies = [], [], [], []
    for pid in ids:
        tokens = [t for t in tokenize(store.text(pid)) if t not in stopwords]
        counts = Counter(tokens)
        lengths.append(len(tokens))
        distinct.append(len(counts))
        seen_terms.extend(vocabulary.setdefault(t, len(vocabulary)) for t in counts)
        frequencies.extend(counts.values())
    terms = sorted(vocabulary)
    rank = np.empty(len(terms), dtype=np.int64)
    rank[[vocabulary[t] for t in terms]] = np.arange(len(terms))
    term_of = rank[np.asarray(seen_terms, dtype=np.int64)]
    order = np.argsort(term_of, kind="stable")
    doc_of = np.repeat(np.arange(len(ids), dtype=np.int32), distinct)
    term_offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_of, minlength=len(terms)), out=term_offsets[1:])
    tf = np.asarray(frequencies, dtype=np.int32)[order]
    lengths = np.asarray(lengths, dtype=np.int32)
    return InvertedIndex(ids, terms, term_offsets, doc_of[order], tf, lengths, stopwords=stopwords)


# mixed case, digits and underscores, and non-ASCII letters (some lowercase to
# two characters), joined by separators: ASCII punctuation, LF, CR, tab and
# \x1c among them; "" leaves a separator alone
_ASCII_WORDS = ["", "a", "A", "ab", "aB", "x1", "42", "the"]
_WORDS = [*_ASCII_WORDS, "Ä", "ä", "straße", "ΣΑΣ", "σας", "İ"]
_SEPARATORS = [" ", ". ", "", "\n", "\r", "\t", "\x1c", *string.punctuation]


def _corpora(words: list[str]):
    pieces = st.tuples(st.sampled_from(words), st.sampled_from(_SEPARATORS))
    texts = st.lists(pieces, max_size=10).map(lambda parts: "".join(w + sep for w, sep in parts))
    ids = st.text(alphabet="pq01", min_size=1, max_size=4)
    return st.dictionaries(ids, texts, min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(
    # an all-ASCII corpus takes the chunk path wherever a chunk holds no LF of its own
    corpus=st.one_of(_corpora(_ASCII_WORDS), _corpora(_WORDS)),
    stopwords=st.frozensets(st.sampled_from(["a", "ab", "ä", "the", "42", "σας"]), max_size=3),
    stop_everything=st.booleans(),
    block_tokens=st.sampled_from([1, 5, 20, bm25._BLOCK_TOKENS]),
    chunk_passages=st.sampled_from([1, 2, 3, bm25._CHUNK_PASSAGES]),
)
def test_build_index_equals_the_per_passage_counter_build(
    corpus, stopwords, stop_everything, block_tokens, chunk_passages
):
    store = PassageStore(Passage(pid, text) for pid, text in corpus.items())
    if stop_everything:
        stopwords |= {t for text in corpus.values() for t in tokenize(text)}
    with (
        mock.patch.object(bm25, "_BLOCK_TOKENS", block_tokens),
        mock.patch.object(bm25, "_CHUNK_PASSAGES", chunk_passages),
    ):
        index = build_index(store, stopwords=stopwords)
    want = _counter_build(store, stopwords)
    assert index.ids == want.ids and index.terms == want.terms
    if stop_everything:
        assert index.terms == [] and not index.lengths.any()
    for column in ("term_offsets", "postings_doc", "postings_tf", "lengths", "norm"):
        got, expected = getattr(index, column), getattr(want, column)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), column
    with tempfile.TemporaryDirectory() as tmp:
        got, expected = Path(tmp) / "got", Path(tmp) / "want"
        index.save(got)
        want.save(expected)
        for name in INDEX_FILES:
            assert (got / name).read_bytes() == (expected / name).read_bytes(), name


# any character but whitespace, which no id may hold: a TREC line splits on it
_WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
_ids = st.text(
    st.characters(codec="utf-8", exclude_characters=_WHITESPACE), min_size=1, max_size=6
)
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


# ---------------------------------------------------------------------------
# dense retrieval: the exhaustive scan, scorer equality and permutation oracles
# ---------------------------------------------------------------------------


def _dense_scan(vectors, q, k, similarity="dot"):
    """The exhaustive oracle: each row's score by the definition, one row at
    a time (float32 components widened to float64, float64 products, numpy's
    pairwise sum; cosine over the norms by the same sum), then a full sort by
    descending score, ties by ascending id."""
    q = np.asarray(q, dtype=np.float64)
    scored = []
    for pid, v in vectors.items():
        d = np.asarray(v, dtype=np.float32).astype(np.float64)
        score = (d * q).sum()
        if similarity == "cosine":
            score = score / (np.sqrt((d * d).sum()) * np.sqrt((q * q).sum()))
        scored.append((pid, float(score)))
    return sorted(scored, key=lambda e: (-e[1], e[0]))[:k]


def _hex(ranking):
    """A ranking with its scores as exact bit patterns (the sign of a zero too)."""
    return [(pid, float(score).hex()) for pid, score in ranking]


# small integers tie exactly; the full float32 range reaches overflow of a
# float32 product and subnormal components
_component = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-4.0, 4.0, width=32),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)
# float64 query components, most of them not float32-representable
_query_component = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-4.0, 4.0),
    st.floats(-1e-30, 1e-30),
    st.floats(-1e6, 1e6, width=32),
)


def _dense_case(data, dim, n, component):
    ids = data.draw(st.lists(_ids, min_size=n, max_size=n, unique=True))
    pool = [
        np.array(data.draw(st.lists(_component, min_size=dim, max_size=dim)), dtype=np.float32)
        for _ in range(data.draw(st.integers(1, n)))
    ]
    # rows drawn from a pool, so some are equal and their scores tie exactly
    vectors = {pid: pool[data.draw(st.integers(0, len(pool) - 1))] for pid in ids}
    q = np.array(data.draw(st.lists(component, min_size=dim, max_size=dim)), dtype=np.float64)
    return vectors, q, data.draw(st.integers(1, n + 2))


def _undefined_cosine(vectors, q, similarity):
    """A zero norm as computed: a tiny nonzero query's squares can underflow."""
    norms = [(q * q).sum()] + [(v.astype(np.float64) ** 2).sum() for v in vectors.values()]
    return similarity == "cosine" and min(norms) == 0.0


_similarities = st.sampled_from(["dot", "cosine"])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6), n=st.integers(1, 24), similarity=_similarities)
def test_dense_retrieve_equals_an_exhaustive_scan(data, dim, n, similarity):
    vectors, q, k = _dense_case(data, dim, n, _query_component)
    store = VectorStore(dim, vectors)
    if _undefined_cosine(vectors, q, similarity):
        with pytest.raises(ValueError, match="zero-norm"):
            dense_retrieve(store, q, k, similarity)
        return
    got = dense_retrieve(store, q, k, similarity)
    assert _hex(got) == _hex(_dense_scan(vectors, q, k, similarity))
    for pid, score in got:
        assert score == dense_score(q, vectors[pid], similarity)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6), n=st.integers(1, 24), similarity=_similarities)
def test_dense_retrieve_scores_equal_the_dense_scorer(data, dim, n, similarity):
    vectors, q, k = _dense_case(data, dim, n, _component)
    store = VectorStore(dim, vectors)
    if _undefined_cosine(vectors, q, similarity):
        return
    scorer = DenseScorer(VectorStore(dim, {"query": q}), store, similarity)
    got = dense_retrieve(store, q, k, similarity)
    for pid, score in got:
        assert score == scorer.score("query", pid)
    batch = scorer.score_batch("query", [pid for pid, _ in got])
    assert _hex(zip([pid for pid, _ in got], batch.tolist())) == _hex(got)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6), n=st.integers(1, 24), similarity=_similarities)
def test_dense_retrieve_is_invariant_under_row_permutation(data, dim, n, similarity):
    vectors, q, k = _dense_case(data, dim, n, _query_component)
    if _undefined_cosine(vectors, q, similarity):
        return
    order = data.draw(st.permutations(list(vectors)))
    got = dense_retrieve(VectorStore(dim, vectors), q, k, similarity)
    permuted = VectorStore(dim, {pid: vectors[pid] for pid in order})
    assert _hex(dense_retrieve(permuted, q, k, similarity)) == _hex(got)


def _check_against_scan(vectors, q, similarities=("dot", "cosine")):
    vectors = {pid: np.asarray(v, dtype=np.float32) for pid, v in vectors.items()}
    store = VectorStore(len(q), vectors)
    for similarity in similarities:
        for k in range(1, len(vectors) + 2):
            want = _dense_scan(vectors, q, k, similarity)
            assert _hex(dense_retrieve(store, q, k, similarity)) == _hex(want), (similarity, k)
    return store


def test_dense_rows_one_ulp_apart_around_the_kth_score():
    # exact scores 1 + j 2^-52, one float64 ulp apart and all 1.0 in float32;
    # ascending ids run against the scores, so a false tie would be visible
    q = np.array([1.0, 2.0**-52])
    vectors = {f"p{j}": [1.0, j] for j in range(8)}
    vectors.update({f"f{j}": [0.5, -j] for j in range(3)})
    store = _check_against_scan(vectors, q)
    got = dense_retrieve(store, q, 8)
    assert got == [(f"p{j}", 1.0 + j * 2.0**-52) for j in range(7, -1, -1)]


def test_dense_query_not_float32_representable():
    # q[1] rounds to 1.0 in float32; there b's float32 sum 7 + 5 * 2^-24
    # rounds up to 7 + 2^-21, above a's 7, while exactly a is first
    q = np.array([1.0, 1.0 + 2.0**-24 - 2.0**-40])
    assert np.float32(q[1]) == 1.0
    vectors = {"a": [0.0, 7.0], "b": [7.0, 5 * 2.0**-24], "c": [6.0, 0.0], "d": [0.0, 1.0]}
    store = _check_against_scan(vectors, q)
    assert [pid for pid, _ in dense_retrieve(store, q, 2)] == ["a", "b"]


def test_dense_components_near_float32_overflow():
    # the float32 products and sums overflow; the float64 scores do not
    vectors = {
        "a": [3e38, 3e38],
        "b": [1.0, 1.0],
        "c": [-3e38, -3e38],
        "d": [3e38, -3e38],
        "e": [2.0, 0.5],
    }
    for q in ([1.0, 1.0], [2.0, 0.5], [1.0, -1.0], [1e-3, 3.0]):
        _check_against_scan(vectors, np.array(q))
    assert dense_retrieve(VectorStore(2, vectors), np.array([1.0, 1.0]), 1)[0][0] == "a"


def test_dense_components_below_float32_smallest_normal():
    # each of a's float32 products, 0.49 of the smallest subnormal, rounds
    # to 0, and b's (0.6 of it) to the subnormal: in float32 b outscores a
    t = 2.0**-89
    vectors = {
        "a": [0.49 * t, 0.49 * t],
        "b": [0.6 * t, 0.0],
        "c": [1e-45, 1e-45],
        "d": [0.0, 0.0],
        "e": [-1e-45, 3e-39],
    }
    q = np.array([2.0**-60, 2.0**-60])
    _check_against_scan(vectors, q, ("dot",))
    _check_against_scan({p: v for p, v in vectors.items() if p != "d"}, q, ("cosine",))
    assert dense_retrieve(VectorStore(2, vectors), q, 1)[0][0] == "a"


def test_dense_float32_error_that_grows_with_dim():
    # rows of 1024 equal components, consecutive float32 values: the exact
    # scores are 1024 x, one float32 step of x apart, while a float32 sum of
    # 1024 terms can be off by many steps, more than 2^-23 ‖d‖‖q‖
    dim = 1024
    vectors = {f"p{j:04d}": np.full(dim, 1.0 + j * 2.0**-23, dtype=np.float32) for j in range(600)}
    store = VectorStore(dim, vectors)
    q = np.ones(dim)
    for similarity in ("dot", "cosine"):
        for k in (1, 2, 10, 300, 599):
            want = _dense_scan(vectors, q, k, similarity)
            assert _hex(dense_retrieve(store, q, k, similarity)) == _hex(want), (similarity, k)
    assert dense_retrieve(store, q, 1)[0][0] == "p0599"


# ---------------------------------------------------------------------------
# late interaction: the nested-loop oracle over the float32 screen
# ---------------------------------------------------------------------------


def _loop_late(Q, D, similarity):
    """The exactly rounded sum of each query row's maximum dense dot product
    (float64 products, numpy's pairwise sum) over D's rows, first row on
    ties; cosine over the rows' norms."""
    Q, D = np.asarray(Q, dtype=np.float64), np.asarray(D, dtype=np.float64)
    if similarity == "cosine":
        Q = Q / np.sqrt((Q * Q).sum(axis=1))[:, None]
        D = D / np.sqrt((D * D).sum(axis=1))[:, None]
    return math.fsum(max(float(np.multiply(d, q).sum()) for d in D) for q in Q)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dim=st.integers(1, 6), similarity=_similarities)
def test_late_interaction_equals_the_nested_loop(data, dim, similarity):
    row = lambda component: st.lists(component, min_size=dim, max_size=dim)
    rows = lambda component, count: np.array(
        data.draw(st.lists(row(component), min_size=1, max_size=count))
    )
    # passage rows drawn from a pool, so some are equal and tie exactly
    pool = rows(_component, 6).astype(np.float32)
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5)
    passages = {f"p{i}": pool[data.draw(picks)] for i in range(data.draw(st.integers(1, 4)))}
    Q = rows(_query_component, 3)
    Q32 = rows(_component, 3).astype(np.float32)
    # a zero norm as computed: tiny components' squares can underflow
    undefined = lambda M: (
        similarity == "cosine" and ((M.astype(np.float64) ** 2).sum(axis=1) == 0.0).any()
    )
    for q in (Q, Q32):
        want = {}
        for pid, D in passages.items():
            if undefined(q) or undefined(D):
                with pytest.raises(ValueError, match="zero-norm"):
                    late_interaction_score(q, D, similarity)
                continue
            want[pid] = _loop_late(q, D, similarity).hex()
            assert late_interaction_score(q, D, similarity).hex() == want[pid]
        if q is Q32 and len(want) == len(passages):
            scorer = LateInteractionScorer(
                TokenMatrixStore(dim, {"q": q}), TokenMatrixStore(dim, passages), similarity
            )
            got = scorer.score_batch("q", list(passages)).tolist()
            assert [x.hex() for x in got] == list(want.values())


# ---------------------------------------------------------------------------
# kernel pooling: a batch of passages against one passage at a time
# ---------------------------------------------------------------------------

# token counts on both sides of numpy's pairwise-sum blocks (8 and 128)
_token_counts = st.one_of(
    st.sampled_from([1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 136, 150]), st.integers(1, 150)
)


def _kernel_one_passage(Q, D, bank, cosine):
    """One passage's kernel features by the expression that scored one
    token count at a time: ``Q @ D.T``, the clip, the kernels, the sum over
    the passage tokens, the log and the sum over the query tokens."""
    Q, D = np.asarray(Q, dtype=np.float64), np.asarray(D, dtype=np.float64)
    if cosine:
        Q = Q / np.sqrt((Q * Q).sum(axis=1))[:, None]
        D = D / np.sqrt((D * D).sum(axis=1))[:, None]
    M = Q @ D.T
    if cosine:
        M = np.clip(M, -1.0, 1.0)
    mus = np.array(bank.mus)[:, None, None]
    widths = 2.0 * np.array(bank.sigmas)[:, None, None] ** 2
    kernel = np.exp(-((M - mus) ** 2) / widths)
    return np.log(KERNEL_EPSILON + kernel.sum(-1)).sum(-1)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 5),
    width=st.integers(1, 40),
    similarity=_similarities,
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_features_equal_one_passage_at_a_time(data, dim, width, similarity, seed):
    rng = np.random.default_rng(seed)
    cosine = similarity == "cosine"
    bank = KernelBank.default()
    # repeated token counts, so one count's group holds several passages
    pool = data.draw(st.lists(_token_counts, min_size=1, max_size=4))
    counts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    Q = rng.standard_normal((width, dim))
    # dot components near 1e154 make products near 1e308: matches overflow
    scale = data.draw(st.sampled_from([1.0, 1e154] if not cosine else [1.0]))
    passages = []
    for n in counts:
        D = rng.standard_normal((n, dim)) * rng.choice([1.0, scale], size=(n, 1))
        # rows along a query row's direction: cosines at and past ±1
        along = np.flatnonzero(rng.random(n) < 0.3)
        D[along] = Q[rng.integers(width, size=len(along))] * rng.choice([-3.0, 0.5, 1.0], (len(along), 1))
        passages.append(D)
    Q[0] *= scale
    tokens = np.concatenate(passages)
    lengths = np.array(counts)
    starts = np.cumsum(lengths) - lengths
    order = rng.permutation(len(counts))
    # a cap in passage rows per chunk small enough to split one count's group
    cap = data.draw(st.integers(1, 300))
    with np.errstate(over="ignore", invalid="ignore"):
        qnorms, norms = np.sqrt((Q * Q).sum(axis=1)), np.sqrt((tokens * tokens).sum(axis=1))
        query = _gather(Q, qnorms, np.array([0]), np.array([width]), "query", cosine)
        with mock.patch.object(rankers, "BLOCK_BYTES", 8 * len(bank) * width * cap):
            got = _kernel_feature_rows(query, tokens, norms, starts, lengths, bank)
            permuted = _kernel_feature_rows(
                query, tokens, norms, starts[order], lengths[order], bank
            )
        want = np.array([_kernel_one_passage(Q, D, bank, cosine) for D in passages])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(permuted.view(np.int64), got[order].view(np.int64))
    if scale != 1.0:
        return
    # the scorer over float32 stores: permuted candidates, permuted scores
    ids = [f"p{i}" for i in range(len(passages))]
    store = TokenMatrixStore(dim, {pid: D.astype(np.float32) for pid, D in zip(ids, passages)})
    queries = TokenMatrixStore(dim, {"q": Q.astype(np.float32)})
    weights = KernelWeights(rng.standard_normal(len(bank)), float(rng.standard_normal()))
    scorer = KernelScorer(queries, store, bank, weights, similarity)
    with mock.patch.object(rankers, "BLOCK_BYTES", 8 * len(bank) * width * cap):
        scores = scorer.score_batch("q", ids)
        permuted = scorer.score_batch("q", [ids[i] for i in order])
    one = lambda pid: _kernel_one_passage(queries.matrix("q"), store.matrix(pid), bank, cosine)
    want = [kernel_score(one(pid), weights) for pid in ids]
    assert [s.hex() for s in scores.tolist()] == [s.hex() for s in want]
    assert [s.hex() for s in permuted.tolist()] == [want[i].hex() for i in order]


def test_kernel_features_of_nan_dot_matches_keep_every_bit():
    # inf * 0 makes a NaN match whatever the BLAS; the features keep the sign
    # the one-passage expression gives it, as well as the overflowed matches
    Q = np.array([[np.inf, 1.0], [1e155, -1e155]])
    D = np.array([[0.0, 1.0], [1e155, 1e155], [0.5, 0.25]])
    bank = KernelBank.default()
    with np.errstate(over="ignore", invalid="ignore"):
        want = _kernel_one_passage(Q, D, bank, cosine=False)
        got = kernel_features(Q, D, bank, similarity="dot")
    assert np.isnan(want).all()
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_kernel_features_of_cosines_past_one_keep_every_bit():
    # each row's normalised self-match rounds to 1 + 2^-52; the clip makes it 1
    Q = np.array([[1.304, 0.947, -0.704], [1.802, 1.315, 0.357]])
    D = np.vstack([Q, -Q, [[0.696, -1.184, -0.662]]])
    U = Q / np.sqrt((Q * Q).sum(axis=1))[:, None]
    assert (U @ U.T).diagonal().tolist() == [1.0 + 2.0**-52] * 2
    bank = KernelBank.default()
    want = _kernel_one_passage(Q, D, bank, cosine=True)
    assert np.array_equal(kernel_features(Q, D, bank).view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

_QIDS = ["q0", "q1", "q2"]
_run_entries = st.dictionaries(
    keys=st.sampled_from([f"p{i}" for i in range(8)]), values=st.integers(-6, 6).map(float), max_size=8
)


def _runs(data, count):
    return [
        RankedRun(
            name=f"r{i}",
            results={qid: canonical_order(data.draw(_run_entries).items()) for qid in _QIDS},
        )
        for i in range(count)
    ]


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    count=st.integers(2, 4),
    method=st.sampled_from(["rrf", "minmax"]),
    rrf_k=st.integers(0, 70),
    scale=st.sampled_from([1.0, 0.3, 7.1]),
)
def test_fusion_does_not_depend_on_the_order_of_the_runs(data, count, method, rrf_k, scale):
    # scaled scores, so min-max normalized values are inexact
    runs = [
        RankedRun(r.name, results={q: [(p, s * scale) for p, s in e] for q, e in r.results.items()})
        for r in _runs(data, count)
    ]
    want = fuse_runs(runs, method, rrf_k).results
    for order in permutations(runs):
        got = fuse_runs(list(order), method, rrf_k).results
        assert {qid: _hex(e) for qid, e in got.items()} == {qid: _hex(e) for qid, e in want.items()}


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    count=st.integers(2, 3),
    scale=st.integers(-3, 3).map(lambda e: 2.0**e),
    shift=st.integers(-8, 8).map(float),
)
def test_minmax_fusion_is_invariant_under_a_positive_affine_map(data, count, scale, shift):
    # small integers and a power-of-two scale keep every step exact
    runs = _runs(data, count)
    which = data.draw(st.integers(0, count - 1))
    mapped = list(runs)
    mapped[which] = RankedRun(
        name="mapped",
        results={
            qid: [(pid, scale * s + shift) for pid, s in entries]
            for qid, entries in runs[which].results.items()
        },
    )
    want = fuse_runs(runs, "minmax").results
    got = fuse_runs(mapped, "minmax").results
    assert {qid: _hex(e) for qid, e in got.items()} == {qid: _hex(e) for qid, e in want.items()}


# ---------------------------------------------------------------------------
# runs: the canonical order and evaluation's invariances
# ---------------------------------------------------------------------------

_scores = st.one_of(st.integers(-4, 4).map(float), st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))
_entries = st.lists(st.tuples(st.text(alphabet="pq01", min_size=1, max_size=3), _scores), max_size=12)


@settings(max_examples=200, deadline=None)
@given(entries=_entries, data=st.data())
def test_canonical_order_sorts_by_score_then_id(entries, data):
    ids = [pid for pid, _ in entries]
    if len(set(ids)) < len(ids):
        with pytest.raises(ValueError, match="duplicate passage"):
            canonical_order(entries)
        return
    got = canonical_order(entries)
    assert sorted(got) == sorted(entries)  # a permutation of the input
    assert all((-a[1], a[0]) <= (-b[1], b[0]) for a, b in zip(got, got[1:]))
    assert canonical_order(got) == got
    shuffled = data.draw(st.permutations(entries))
    assert canonical_order(shuffled) == got


_GRADES = st.dictionaries(
    keys=st.sampled_from(_QIDS),
    values=st.dictionaries(keys=st.sampled_from([f"p{i}" for i in range(8)]), values=st.integers(0, 3)),
)


def _reports_equal(a, b):
    return a.splits == b.splits and a.per_query == b.per_query and a.metric_names == b.metric_names


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    grades=_GRADES,
    seed=st.integers(0, 2**16),
    factor=st.sampled_from([2.0**-3, 0.5, 4.0, 1024.0]),
)
def test_evaluation_ignores_line_order_and_positive_scaling(data, grades, seed, factor):
    # a run file holds no query without entries
    run = RankedRun("r", results={q: e for q, e in _runs(data, 1)[0].results.items() if e})
    qrels = Qrels(grades)
    want = evaluate_run(run, qrels, recall_cutoffs=(1, 3, 100))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.trec"
        write_run(run, path)
        lines = path.read_text().splitlines(keepends=True)
        random.Random(seed).shuffle(lines)
        path.write_text("".join(lines))
        loaded = read_run(path)
    assert loaded.results == run.results
    assert _reports_equal(evaluate_run(loaded, qrels, recall_cutoffs=(1, 3, 100)), want)
    # a power of two scales every score exactly, so no order changes
    scaled = RankedRun(
        run.name, results={q: [(p, s * factor) for p, s in e] for q, e in run.results.items()}
    )
    assert _reports_equal(evaluate_run(scaled, qrels, recall_cutoffs=(1, 3, 100)), want)


# ---------------------------------------------------------------------------
# text artifacts: qrels, triples and kernel weights read back as written
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(grades=st.dictionaries(_ids, st.dictionaries(_ids, st.integers(0, 2**40), min_size=1)))
def test_qrels_round_trip(grades):
    qrels = Qrels(grades)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.trec", Path(tmp) / "second.trec"
        write_qrels(qrels, first)
        loaded = load_qrels(first)
        write_qrels(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded == qrels


@settings(max_examples=100, deadline=None)
@given(triples=st.lists(st.tuples(_ids, _ids, _ids).filter(lambda t: t[1] != t[2]), max_size=12))
def test_triples_round_trip(triples):
    triples = [TrainingTriple(*t) for t in triples]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.tsv", Path(tmp) / "second.tsv"
        write_triples(triples, first)
        loaded = read_triples(first)
        write_triples(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded == triples


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _bits64(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    mus=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12, unique=True),
    bias=_finite,
)
def test_weights_round_trip_bit_exact(data, mus, bias):
    mus = sorted(mus, reverse=True)
    n = len(mus)
    positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
    sigmas = data.draw(st.lists(positive, min_size=n, max_size=n))
    w = np.array(data.draw(st.lists(_finite, min_size=n, max_size=n)))
    bank, weights = KernelBank(tuple(mus), tuple(sigmas)), KernelWeights(w, bias)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weights.txt"
        write_weights(bank, weights, path)
        bank2, weights2 = load_weights(path)
    # bit for bit, the sign of a zero included
    assert _bits64(bank2.mus) == _bits64(mus) and _bits64(bank2.sigmas) == _bits64(sigmas)
    assert _bits64(weights2.w) == _bits64(w) and _bits64(weights2.bias) == _bits64(bias)
