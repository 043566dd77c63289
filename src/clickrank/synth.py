"""Seeded synthetic fixtures: a corpus with known relevance plantings.

The generator builds a self-consistent bundle: passages, queries, a click
log, graded qrels derived from it, frequency splits, and embedding files in
which every relevant passage has a strictly higher dot product with its
query than any non-relevant passage. Lexical relevance is injected through
per-query signal terms, but deliberately imperfectly (some relevant passages
carry only a subset of the signal terms, or none, and some non-relevant
passages carry a stray signal term), so exact-term retrieval is beatable by
the planted vectors.

Everything is a pure function of the fixture parameters and their seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bm25 import tokenize
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


@dataclass(frozen=True)
class FixtureSpec:
    n_passages: int = 1000
    n_queries: int = 100
    dim: int = 64
    term_dim: int = 32
    seed: int = 0
    signal_terms_per_query: int = 2
    max_relevant_per_query: int = 4
    background_vocab_size: int = 600
    distractor_rate: float = 0.15

    def __post_init__(self) -> None:
        if self.n_passages < 1 or self.n_queries < 1:
            raise ValueError("fixture sizes must be >= 1")
        if self.signal_terms_per_query < 1:
            raise ValueError("need at least one signal term per query")
        if not 0.0 <= self.distractor_rate < 1.0:
            raise ValueError("distractor_rate must lie in [0, 1)")


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


def generate_fixture(spec: FixtureSpec = FixtureSpec()) -> Fixture:
    rng = np.random.default_rng(spec.seed)
    taken: set[str] = set()
    background = _make_vocabulary(rng, spec.background_vocab_size, 2, taken)
    signal_terms = {
        f"q{i:05d}": _make_vocabulary(rng, spec.signal_terms_per_query, 4, taken)
        for i in range(spec.n_queries)
    }
    query_ids = sorted(signal_terms)

    # word frequencies fall off with rank so common terms exist for queries
    # to share with most passages
    zipf = 1.0 / np.arange(1, len(background) + 1)
    zipf /= zipf.sum()

    def background_words(n: int) -> list[str]:
        picks = rng.choice(len(background), size=n, p=zipf)
        return [background[i] for i in picks]

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

    passages = []
    for pid in passage_ids:
        words = background_words(int(rng.integers(15, 50)))
        qid = owner_of.get(pid)
        if qid is not None:
            first_of_query = pid == min(relevant[qid])
            terms = signal_terms[qid]
            if first_of_query:
                chosen = list(terms)
            else:
                u = rng.random()
                if u < 0.5:
                    chosen = list(terms)
                elif u < 0.8:
                    chosen = [terms[int(rng.integers(len(terms)))]]
                else:
                    chosen = []  # relevance visible only in the planted vectors
            for term in chosen:
                for _ in range(int(rng.integers(1, 3))):
                    words.insert(int(rng.integers(len(words) + 1)), term)
        elif rng.random() < spec.distractor_rate:
            stray_q = query_ids[int(rng.integers(len(query_ids)))]
            term = signal_terms[stray_q][int(rng.integers(spec.signal_terms_per_query))]
            words.insert(int(rng.integers(len(words) + 1)), term)
        passages.append(Passage(pid, " ".join(words)))
    store = PassageStore(passages)

    queries = []
    splits = ("head", "torso", "tail")
    split_of: dict[str, str] = {}
    for i, qid in enumerate(query_ids):
        words = list(signal_terms[qid]) + background_words(int(rng.integers(1, 3)))
        split = splits[i % len(splits)]
        split_of[qid] = split
        queries.append(Query(qid, " ".join(words), split))
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

    vocabulary = background + [t for qid in query_ids for t in signal_terms[qid]]
    term_table = {}
    for term in vocabulary:
        v = rng.standard_normal(spec.term_dim)
        term_table[term] = (v / np.linalg.norm(v)).astype(np.float32)

    def matrices_for(texts: dict[str, str]) -> TokenMatrixStore:
        mats = {
            ident: np.stack([term_table[t] for t in tokenize(text)])
            for ident, text in texts.items()
        }
        return TokenMatrixStore(spec.term_dim, mats)

    query_matrices = matrices_for({q.id: q.text for q in query_set})
    passage_matrices = matrices_for(dict(store.items()))

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
    qstore = VectorStore(
        dim, {qid: rotated_queries[i] for i, qid in enumerate(query_ids)}
    )
    pstore = VectorStore(
        dim, {pid: rotated_passages[i] for i, pid in enumerate(passage_ids)}
    )
    return qstore, pstore
