"""Training-triple generation with relevant-pool-safe negative sampling.

For every training query BM25 ranks a deep candidate pool, kept as
document numbers; for every (query, clicked-positive) pair up to
``max_negatives_per_positive`` negatives are drawn uniformly without
replacement from that pool after removing every passage with any positive
grade for the query. Candidate rank positions are discarded, and only the
drawn negatives are turned into passage ids. The pooled triples are
shuffled under the configured seed and truncated to ``triple_cap``.

A legacy mode reproduces the known-bad alternative for A/B diagnosis: it
cuts the pool at the positive's rank, so negatives come only from
candidates ranked above the positive, and still masks the relevant pool.
Its hazard is relevant passages that nobody clicked and that BM25 ranks
above the positive: they carry no grade, so the mask cannot remove them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .bm25 import InvertedIndex
from .corpus import PassageStore, Qrels, QuerySet
from .manifest import TextRecords, atomic_write


@dataclass(frozen=True, order=True)
class TrainingTriple:
    query_id: str
    positive_id: str
    negative_id: str

    def __post_init__(self) -> None:
        if self.positive_id == self.negative_id:
            raise ValueError(
                f"triple for query {self.query_id!r}: positive and negative are both "
                f"{self.positive_id!r}"
            )


@dataclass(frozen=True)
class SamplingConfig:
    candidate_depth: int = 500
    max_negatives_per_positive: int = 20
    triple_cap: int = 10_000_000
    seed: int = 0
    legacy_mode: bool = False

    def __post_init__(self) -> None:
        if self.max_negatives_per_positive < 1:
            raise ValueError("max_negatives_per_positive must be >= 1")
        if self.candidate_depth < self.max_negatives_per_positive:
            raise ValueError(
                "candidate_depth must be >= max_negatives_per_positive "
                f"({self.candidate_depth} < {self.max_negatives_per_positive})"
            )
        if self.triple_cap < 1:
            raise ValueError("triple_cap must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class GenerationReport:
    triples: list[TrainingTriple]
    queries_processed: int = 0
    skipped_missing_qrels: int = 0
    skipped_no_eligible: int = 0
    truncated: bool = False


def stable_query_seed(seed: int, query_id: str) -> int:
    """Per-query RNG seed: the global seed XOR a stable 64-bit id digest.

    Python's built-in hash is salted per process, so a cryptographic digest
    keeps the stream identical across runs and worker layouts.
    """
    digest = hashlib.sha256(query_id.encode("utf-8")).digest()
    h = int.from_bytes(digest[:8], "little")
    return (seed ^ h) & 0xFFFFFFFFFFFFFFFF


def sample_negatives(
    candidates: Sequence | np.ndarray,
    relevant_pool: Iterable,
    max_n: int,
    rng: np.random.Generator,
) -> list:
    """Uniform without-replacement draw from candidates outside the relevant pool.

    Candidates are ids or document numbers, compared with ``!=`` against each
    relevant one. Returns min(max_n, #eligible) of them in draw order; rank
    positions of the candidates are not carried along.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    candidates = np.asarray(candidates)
    keep = np.ones(len(candidates), dtype=bool)
    for relevant in relevant_pool:
        keep &= candidates != relevant
    eligible = candidates[keep]
    if not len(eligible):
        return []
    n = min(max_n, len(eligible))
    picks = rng.choice(len(eligible), size=n, replace=False)
    return eligible[picks].tolist()


def generate_triples(
    queries: QuerySet,
    qrels: Qrels,
    index: InvertedIndex,
    config: SamplingConfig = SamplingConfig(),
) -> GenerationReport:
    """Generate training triples for every query with at least one positive.

    A query's pool is its BM25 top-``candidate_depth`` ranking as document
    numbers (:meth:`InvertedIndex.top_k`). The positives' numbers (-1 for a
    passage the index lacks) make the relevant pool, and legacy mode takes
    the numbers ranked above the positive; only the drawn negatives become
    passage ids. Queries are processed in sorted id order with a per-query
    RNG stream, so the output is a pure function of (inputs, seed)
    regardless of execution order. Queries absent from the qrels, or with
    positives but no eligible negatives, are skipped and counted.
    """
    triples: list[TrainingTriple] = []
    report = GenerationReport(triples)
    ids = index.ids
    for qid in sorted(q.id for q in queries):
        positives = sorted(qrels.relevant_pool(qid))
        if not positives:
            report.skipped_missing_qrels += 1
            continue
        pool, _ = index.top_k(queries.text(qid), config.candidate_depth)
        numbers = [index.doc_number(positive) for positive in positives]
        rng = np.random.default_rng(stable_query_seed(config.seed, qid))
        produced = 0
        for positive, number in zip(positives, numbers):
            candidates = pool
            if config.legacy_mode:
                at = np.flatnonzero(pool == number)
                candidates = pool[: at[0] if len(at) else 0]
            negatives = sample_negatives(
                candidates, numbers, config.max_negatives_per_positive, rng
            )
            triples.extend(TrainingTriple(qid, positive, ids[d]) for d in negatives)
            produced += len(negatives)
        if produced == 0:
            report.skipped_no_eligible += 1
        else:
            report.queries_processed += 1

    if not triples:
        raise ValueError(
            f"no training triples produced (skipped: {report.skipped_missing_qrels} without "
            f"positives, {report.skipped_no_eligible} without eligible negatives)"
        )

    shuffle_rng = np.random.default_rng(config.seed)
    order = shuffle_rng.permutation(len(triples))
    shuffled = [triples[i] for i in order]
    if len(shuffled) > config.triple_cap:
        shuffled = shuffled[: config.triple_cap]
        report.truncated = True
    report.triples = shuffled
    return report


def write_triples(triples: Iterable[TrainingTriple], path: str | Path) -> None:
    with atomic_write(path) as f:
        for t in triples:
            f.write(f"{t.query_id}\t{t.positive_id}\t{t.negative_id}\n")


def read_triples(path: str | Path) -> list[TrainingTriple]:
    with TextRecords(path, 3, "expected 3 tab-separated ids", "\t", ids=3) as records:
        return [TrainingTriple(*ids) for ids in records]


def write_text_triples(
    triples: Iterable[TrainingTriple],
    store: PassageStore,
    queries: QuerySet,
    path: str | Path,
) -> None:
    """Materialize id triples as text triples for trainer consumption.

    Id triples are the canonical artifact (two orders of magnitude smaller
    and lossless given the collection); this expands them on demand.
    """
    with atomic_write(path) as f:
        for t in triples:
            f.write(
                f"{queries.text(t.query_id)}\t{store.text(t.positive_id)}\t"
                f"{store.text(t.negative_id)}\n"
            )
