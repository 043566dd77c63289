"""Seeded synthetic fixtures: a corpus with known relevance plantings.

The generator builds a self-consistent bundle: passages, queries, a click
log, graded qrels derived from it, frequency splits, and embedding files in
which every relevant passage has a strictly higher dot product with its
query than any non-relevant passage. Lexical relevance is injected through
per-query signal terms, but deliberately imperfectly (some relevant passages
carry only a subset of the signal terms, or none, and some non-relevant
passages carry a stray signal term), so exact-term retrieval is beatable by
the planted vectors.

Everything is a pure function of the fixture parameters and their seed. The
generator works on row numbers into one vocabulary: background words come
from one Zipf CDF built once (``_zipf_sampler``), and each token-matrix store
is one gather from a ``(vocabulary, term_dim)`` float32 table of unit-length
term vectors.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import (
    DEFAULT_CTR_THRESHOLDS,
    ClickRecord,
    Passage,
    PassageStore,
    Query,
    QuerySet,
    build_qrels_from_clicks,
    write_qrels,
)
from .embeddings import TokenMatrixStore, VectorStore, write_token_matrices, write_vectors
from .manifest import atomic_write

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SIGNAL_TERMS_PER_QUERY = 2
_BACKGROUND_VOCAB_SIZE = 600
# the share of non-relevant passages that carry one stray signal term
_DISTRACTOR_RATE = 0.15


@dataclass(frozen=True)
class FixtureSpec:
    n_passages: int = 1000
    n_queries: int = 100
    dim: int = 64
    term_dim: int = 32
    seed: int = 0
    max_relevant_per_query: int = 4

    def __post_init__(self) -> None:
        if self.n_passages < 1 or self.n_queries < 1:
            raise ValueError("fixture sizes must be >= 1")
        if self.dim < 1 or self.term_dim < 1:
            raise ValueError("dim and term_dim must be >= 1")
        if self.max_relevant_per_query < 1:
            raise ValueError("max_relevant_per_query must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Fixture:
    """In-memory fixture bundle; ``write`` materializes every file."""

    spec: FixtureSpec
    store: PassageStore
    queries: QuerySet
    clicks: list[ClickRecord]
    relevant: dict[str, dict[str, int]]  # query -> passage -> planted grade
    query_vectors: VectorStore
    passage_vectors: VectorStore
    query_matrices: TokenMatrixStore
    passage_matrices: TokenMatrixStore
    split_of: dict[str, str]

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "collection": out / "collection.tsv",
            "queries": out / "queries.tsv",
            "clicks": out / "clicks.tsv",
            "qrels": out / "qrels.trec",
            "splits": out / "splits.tsv",
            "query_vectors": out / "query_vectors.tkv",
            "passage_vectors": out / "passage_vectors.tkv",
            "query_matrices": out / "query_matrices.tkm",
            "passage_matrices": out / "passage_matrices.tkm",
        }
        with atomic_write(paths["collection"]) as f:
            for pid, text in self.store.items():
                f.write(f"{pid}\t{text}\n")
        with atomic_write(paths["queries"]) as f:
            for q in self.queries:
                f.write(f"{q.id}\t{q.text}\n")
        with atomic_write(paths["clicks"]) as f:
            for rec in self.clicks:
                f.write(
                    f"{rec.query_id}\t{rec.passage_id}\t{rec.impressions}\t{rec.clicks}\n"
                )
        write_qrels(
            build_qrels_from_clicks(self.clicks, "dctr", DEFAULT_CTR_THRESHOLDS), paths["qrels"]
        )
        with atomic_write(paths["splits"]) as f:
            for qid in sorted(self.split_of):
                f.write(f"{qid}\t{self.split_of[qid]}\n")
        write_vectors(self.query_vectors, paths["query_vectors"])
        write_vectors(self.passage_vectors, paths["passage_vectors"])
        write_token_matrices(self.query_matrices, paths["query_matrices"])
        write_token_matrices(self.passage_matrices, paths["passage_matrices"])
        return paths


def _make_word(rng: np.random.Generator, syllables: int) -> str:
    parts = []
    for _ in range(syllables):
        parts.append(_CONSONANTS[rng.integers(len(_CONSONANTS))])
        parts.append(_VOWELS[rng.integers(len(_VOWELS))])
    return "".join(parts)


def _make_vocabulary(rng: np.random.Generator, count: int, syllables: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        w = _make_word(rng, syllables)
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _zipf_sampler(rng: np.random.Generator, size: int) -> Callable[[int], list[int]]:
    """``n -> rng.choice(size, size=n, p=zipf).tolist()`` for weights 1/rank,
    from the same stream: the ``cumsum``-over-last-entry CDF that ``choice``
    checks and rebuilds on every call is built once here."""
    zipf = 1.0 / np.arange(1, size + 1)
    zipf /= zipf.sum()
    cdf = zipf.cumsum()
    cdf /= cdf[-1]

    def draw(n: int) -> list[int]:
        return cdf.searchsorted(rng.random(n), side="right").tolist()

    return draw


def generate_fixture(spec: FixtureSpec = FixtureSpec()) -> Fixture:
    rng = np.random.default_rng(spec.seed)
    taken: set[str] = set()
    background = _make_vocabulary(rng, _BACKGROUND_VOCAB_SIZE, 2, taken)
    signal_terms = {
        f"q{i:05d}": _make_vocabulary(rng, _SIGNAL_TERMS_PER_QUERY, 4, taken)
        for i in range(spec.n_queries)
    }
    query_ids = sorted(signal_terms)
    vocabulary = background + [t for qid in query_ids for t in signal_terms[qid]]
    row_of = {t: i for i, t in enumerate(vocabulary)}
    signal_rows = {qid: [row_of[t] for t in signal_terms[qid]] for qid in query_ids}

    # word frequencies fall off with rank so common terms exist for queries
    # to share with most passages
    background_rows = _zipf_sampler(rng, len(background))

    relevant_counts = {
        qid: int(rng.integers(1, spec.max_relevant_per_query + 1)) for qid in query_ids
    }
    total_relevant = sum(relevant_counts.values())
    if total_relevant + spec.n_queries > spec.n_passages:
        raise ValueError(
            f"{spec.n_passages} passages cannot host {total_relevant} relevant "
            f"passages plus a background pool; raise n_passages"
        )

    passage_ids = [f"p{i:06d}" for i in range(spec.n_passages)]
    owner_of: dict[str, str] = {}
    relevant: dict[str, dict[str, int]] = {qid: {} for qid in query_ids}
    cursor = 0
    for qid in query_ids:
        for j in range(relevant_counts[qid]):
            pid = passage_ids[cursor]
            cursor += 1
            owner_of[pid] = qid
            relevant[qid][pid] = int(rng.integers(1, 3))
    background_pids = passage_ids[cursor:]

    passage_rows = []
    for pid in passage_ids:
        rows = background_rows(int(rng.integers(15, 50)))
        qid = owner_of.get(pid)
        if qid is not None:
            first_of_query = pid == min(relevant[qid])
            terms = signal_rows[qid]
            if first_of_query:
                chosen = terms
            else:
                u = rng.random()
                if u < 0.5:
                    chosen = terms
                elif u < 0.8:
                    chosen = [terms[int(rng.integers(len(terms)))]]
                else:
                    chosen = []  # relevance visible only in the planted vectors
            for term in chosen:
                for _ in range(int(rng.integers(1, 3))):
                    rows.insert(int(rng.integers(len(rows) + 1)), term)
        elif rng.random() < _DISTRACTOR_RATE:
            stray_q = query_ids[int(rng.integers(len(query_ids)))]
            term = signal_rows[stray_q][int(rng.integers(_SIGNAL_TERMS_PER_QUERY))]
            rows.insert(int(rng.integers(len(rows) + 1)), term)
        passage_rows.append(rows)
    store = PassageStore(
        Passage(pid, " ".join([vocabulary[r] for r in rows]))
        for pid, rows in zip(passage_ids, passage_rows)
    )

    queries = []
    query_rows = []
    splits = ("head", "torso", "tail")
    split_of: dict[str, str] = {}
    for i, qid in enumerate(query_ids):
        rows = signal_rows[qid] + background_rows(int(rng.integers(1, 3)))
        split = splits[i % len(splits)]
        split_of[qid] = split
        queries.append(Query(qid, " ".join([vocabulary[r] for r in rows]), split))
        query_rows.append(rows)
    query_set = QuerySet(queries)

    clicks: list[ClickRecord] = []
    for qid in query_ids:
        for pid in sorted(relevant[qid]):
            grade = relevant[qid][pid]
            impressions = 20
            if grade == 2:
                n_clicks = int(rng.integers(6, 13))   # rate in [0.30, 0.60]
            else:
                n_clicks = int(rng.integers(2, 6))    # rate in [0.10, 0.25]
            clicks.append(ClickRecord(qid, pid, impressions, n_clicks))
        judged_zero = rng.choice(len(background_pids), size=2, replace=False)
        for idx in sorted(judged_zero):
            clicks.append(
                ClickRecord(qid, background_pids[idx], int(rng.integers(5, 21)), 0)
            )

    query_vectors, passage_vectors = _plant_vectors(spec, rng, query_ids, passage_ids, relevant)

    # one draw per term in vocabulary order; each row's norm is the 1-D
    # np.linalg.norm (a dot product), since a norm along axis 1 sums in
    # another order and can round differently
    draws = rng.standard_normal((len(vocabulary), spec.term_dim))
    norms = np.array([np.linalg.norm(v) for v in draws])
    table = (draws / norms[:, None]).astype("<f4")

    def matrices_for(ids: list[str], rows: list[list[int]]) -> TokenMatrixStore:
        lengths = [len(r) for r in rows]
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=sum(lengths))
        return TokenMatrixStore.from_rows(ids, lengths, spec.term_dim, table[flat].tobytes())

    query_matrices = matrices_for(query_ids, query_rows)
    passage_matrices = matrices_for(passage_ids, passage_rows)

    return Fixture(
        spec=spec,
        store=store,
        queries=query_set,
        clicks=clicks,
        relevant=relevant,
        query_vectors=query_vectors,
        passage_vectors=passage_vectors,
        query_matrices=query_matrices,
        passage_matrices=passage_matrices,
        split_of=split_of,
    )


def _plant_vectors(
    spec: FixtureSpec,
    rng: np.random.Generator,
    query_ids: list[str],
    passage_ids: list[str],
    relevant: dict[str, dict[str, int]],
) -> tuple[VectorStore, VectorStore]:
    """Vectors with a guaranteed dense-retrieval margin.

    Each query gets an orthonormal direction; a relevant passage carries
    component 1.0 along its query's direction while every other component
    of every passage stays within +/-0.3, so dot(query, relevant) = 1.0
    beats dot(query, anything else) <= 0.3 by construction. A random
    rotation is applied for texture; it preserves dot products.
    """
    dim = max(spec.dim, len(query_ids))
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))

    query_axis = {qid: i for i, qid in enumerate(query_ids)}
    raw_passages = rng.uniform(-0.3, 0.3, size=(len(passage_ids), dim))
    pid_row = {pid: i for i, pid in enumerate(passage_ids)}
    for qid, pool in relevant.items():
        for pid in pool:
            raw_passages[pid_row[pid], query_axis[qid]] = 1.0

    raw_queries = np.zeros((len(query_ids), dim))
    for qid, axis in query_axis.items():
        raw_queries[query_axis[qid], axis] = 1.0

    rotated_queries = raw_queries @ rotation
    rotated_passages = raw_passages @ rotation
    return tuple(
        VectorStore.from_rows(ids, [1] * len(ids), dim, rows.astype("<f4").tobytes())
        for ids, rows in ((query_ids, rotated_queries), (passage_ids, rotated_passages))
    )
