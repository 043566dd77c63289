"""BM25 retrieval over an in-memory inverted index.

Scoring uses the smoothed, always-positive idf variant

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))

and the usual saturated term-frequency form

    score(q, d) = sum_t idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avgdl))

summed over the query token sequence (a token occurring twice in the query
contributes twice). Ranks are deterministic: score ties break by ascending
passage id.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from pathlib import Path

from .corpus import PassageStore
from .runs import RankedRun

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

INDEX_FORMAT = "clickrank-inverted-index"
INDEX_VERSION = 1

# Maximal runs of alphanumeric characters; underscore is a separator too.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character. No stemming."""
    return _TOKEN_RE.findall(text.lower())


class InvertedIndex:
    """Postings per term plus the document statistics BM25 needs.

    Posting lists are sorted by passage id. An optional stopword list is
    applied symmetrically to documents (at build time) and to queries, and
    is persisted with the index so both sides always agree. The index is
    immutable after construction and safe for concurrent readers.
    """

    def __init__(
        self,
        postings: dict[str, list[tuple[str, int]]],
        doc_lengths: dict[str, int],
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
        stopwords: frozenset[str] = frozenset(),
    ):
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.doc_count = len(doc_lengths)
        total = sum(doc_lengths.values())
        self.avg_doc_length = total / self.doc_count if self.doc_count else 0.0
        self.k1 = float(k1)
        self.b = float(b)
        self.stopwords = frozenset(stopwords)
        # id-sorted key columns for per-document tf lookups via bisect
        self._posting_keys = {t: [pid for pid, _ in pl] for t, pl in postings.items()}

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self.doc_lengths

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        if df == 0:
            return 0.0
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def term_frequency(self, term: str, passage_id: str) -> int:
        keys = self._posting_keys.get(term)
        if not keys:
            return 0
        i = bisect_left(keys, passage_id)
        if i < len(keys) and keys[i] == passage_id:
            return self.postings[term][i][1]
        return 0

    def _length_norm(self, passage_id: str) -> float:
        length = self.doc_lengths[passage_id]
        return 1.0 - self.b + self.b * length / self.avg_doc_length

    def score(self, query_tokens: list[str], passage_id: str) -> float:
        if passage_id not in self.doc_lengths:
            raise KeyError(f"unknown passage id {passage_id!r}")
        total = 0.0
        for token in query_tokens:
            if token in self.stopwords:
                continue
            tf = self.term_frequency(token, passage_id)
            if tf == 0:
                continue
            norm = self._length_norm(passage_id)
            total += self.idf(token) * tf * (self.k1 + 1.0) / (tf + self.k1 * norm)
        return total

    def search(self, query_text: str, k: int) -> list[tuple[str, float]]:
        """Top-k passages with at least one matching term.

        Accumulates term contributions in query-token order, so every
        returned score is bit-identical to :meth:`score` for that passage.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        tokens = [t for t in tokenize(query_text) if t not in self.stopwords]
        accumulator: dict[str, float] = {}
        for token in tokens:
            posting = self.postings.get(token)
            if not posting:
                continue
            idf = self.idf(token)
            k1 = self.k1
            for pid, tf in posting:
                norm = self._length_norm(pid)
                contribution = idf * tf * (k1 + 1.0) / (tf + k1 * norm)
                accumulator[pid] = accumulator.get(pid, 0.0) + contribution
        ranked = sorted(accumulator.items(), key=lambda e: (-e[1], e[0]))
        return ranked[:k]

    def save(self, directory: str | Path) -> None:
        """Persist to a directory; the layout round-trips exactly."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "k1": self.k1,
            "b": self.b,
            "doc_count": self.doc_count,
            "avg_doc_length": self.avg_doc_length,
            "stopwords": sorted(self.stopwords),
        }
        (directory / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        with open(directory / "doc_lengths.json", "w", encoding="utf-8") as f:
            json.dump(self.doc_lengths, f, sort_keys=True)
        with open(directory / "postings.json", "w", encoding="utf-8") as f:
            json.dump(
                {t: [[pid, tf] for pid, tf in pl] for t, pl in self.postings.items()},
                f,
                sort_keys=True,
            )

    @classmethod
    def load(cls, directory: str | Path) -> "InvertedIndex":
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.exists():
            raise ValueError(f"{directory}: not an index directory (meta.json missing)")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("format") != INDEX_FORMAT:
            raise ValueError(f"{directory}: unexpected index format {meta.get('format')!r}")
        if meta.get("version") != INDEX_VERSION:
            raise ValueError(f"{directory}: unsupported index version {meta.get('version')!r}")
        with open(directory / "doc_lengths.json", "r", encoding="utf-8") as f:
            doc_lengths = {pid: int(n) for pid, n in json.load(f).items()}
        with open(directory / "postings.json", "r", encoding="utf-8") as f:
            postings = {
                t: [(pid, int(tf)) for pid, tf in pl] for t, pl in json.load(f).items()
            }
        index = cls(
            postings,
            doc_lengths,
            k1=meta["k1"],
            b=meta["b"],
            stopwords=frozenset(meta.get("stopwords", ())),
        )
        if index.doc_count != meta["doc_count"]:
            raise ValueError(f"{directory}: doc count mismatch with meta.json")
        return index


def build_index(
    store: PassageStore,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    stopwords: frozenset[str] = frozenset(),
) -> InvertedIndex:
    """Tokenize every passage and build the inverted index.

    Stopwords (if any) are dropped from passages here and from queries at
    search time; they do not contribute to document lengths.
    """
    if len(store) == 0:
        raise ValueError("cannot index an empty passage store")
    stopwords = frozenset(stopwords)
    doc_lengths: dict[str, int] = {}
    postings: dict[str, list[tuple[str, int]]] = {}
    for pid, text in store.items():
        tokens = [t for t in tokenize(text) if t not in stopwords]
        doc_lengths[pid] = len(tokens)
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, tf in counts.items():
            postings.setdefault(term, []).append((pid, tf))
    for plist in postings.values():
        plist.sort(key=lambda e: e[0])
    return InvertedIndex(postings, doc_lengths, k1=k1, b=b, stopwords=stopwords)


def batch_search(index: InvertedIndex, queries, k: int, run_name: str = "bm25") -> RankedRun:
    """Search every query in a QuerySet; results keyed and ordered by query id."""
    run = RankedRun(name=run_name, stage="first-stage")
    for qid in sorted(q.id for q in queries):
        run.results[qid] = index.search(queries.text(qid), k)
    return run
