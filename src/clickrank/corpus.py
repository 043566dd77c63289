"""Collections, queries, click logs, and click-derived relevance labels.

File formats:
    collection / queries   TSV ``id<TAB>text``
    click log              TSV ``query_id<TAB>passage_id<TAB>impressions<TAB>clicks``
    qrels                  TREC ``qid 0 pid grade``, space separated

No id may hold whitespace: a run or qrels line could not hold it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .manifest import TextRecords, atomic_write

VALID_SPLITS = ("head", "torso", "tail", "train", "validation")

DEFAULT_CTR_THRESHOLDS = (0.1, 0.3)


@dataclass(frozen=True)
class Passage:
    id: str
    text: str


@dataclass(frozen=True)
class Query:
    id: str
    text: str
    split: str


@dataclass(frozen=True)
class ClickRecord:
    """One aggregated click-log row for a (query, passage) pair."""

    query_id: str
    passage_id: str
    impressions: int
    clicks: int

    def __post_init__(self) -> None:
        if self.impressions < 1:
            raise ValueError(
                f"click record ({self.query_id}, {self.passage_id}): "
                f"impressions must be >= 1, got {self.impressions}"
            )
        if self.clicks < 0 or self.clicks > self.impressions:
            raise ValueError(
                f"click record ({self.query_id}, {self.passage_id}): "
                f"clicks must be in [0, impressions], got {self.clicks}"
            )


class PassageStore:
    """Immutable id -> text map preserving load order."""

    def __init__(self, passages: Iterable[Passage]):
        self._texts: dict[str, str] = {}
        for p in passages:
            if not p.id:
                raise ValueError("empty passage id")
            if p.id in self._texts:
                raise ValueError(f"duplicate passage id {p.id!r}")
            self._texts[p.id] = p.text

    def __len__(self) -> int:
        return len(self._texts)

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._texts

    def __iter__(self) -> Iterator[str]:
        return iter(self._texts)

    @property
    def ids(self) -> list[str]:
        return list(self._texts)

    def text(self, passage_id: str) -> str:
        try:
            return self._texts[passage_id]
        except KeyError:
            raise KeyError(f"unknown passage id {passage_id!r}") from None

    def items(self) -> Iterator[tuple[str, str]]:
        return iter(self._texts.items())


class QuerySet:
    """Immutable query collection; every query carries its split tag."""

    def __init__(self, queries: Iterable[Query]):
        self._queries: dict[str, Query] = {}
        for q in queries:
            if not q.id:
                raise ValueError("empty query id")
            if q.split not in VALID_SPLITS:
                raise ValueError(
                    f"query {q.id!r}: split {q.split!r} not in {VALID_SPLITS}"
                )
            if q.id in self._queries:
                raise ValueError(f"duplicate query id {q.id!r}")
            self._queries[q.id] = q

    def __len__(self) -> int:
        return len(self._queries)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._queries

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries.values())

    @property
    def ids(self) -> list[str]:
        return list(self._queries)

    def get(self, query_id: str) -> Query:
        try:
            return self._queries[query_id]
        except KeyError:
            raise KeyError(f"unknown query id {query_id!r}") from None

    def text(self, query_id: str) -> str:
        return self.get(query_id).text


class Qrels:
    """Graded relevance per (query, passage).

    Grade 0 entries mean judged-but-non-relevant; they are kept distinct
    from unjudged pairs so judged-coverage metrics can tell them apart.
    The relevant pool of a query is everything with grade >= 1.
    """

    def __init__(self, grades: Mapping[str, Mapping[str, int]] | None = None):
        self._grades: dict[str, dict[str, int]] = {}
        if grades:
            for qid, per_doc in grades.items():
                for pid, grade in per_doc.items():
                    self.add(qid, pid, grade)

    def add(self, query_id: str, passage_id: str, grade: int) -> None:
        if grade < 0:
            raise ValueError(
                f"qrels ({query_id}, {passage_id}): grade must be >= 0, got {grade}"
            )
        self._grades.setdefault(query_id, {})[passage_id] = int(grade)

    def grade(self, query_id: str, passage_id: str) -> int | None:
        """Grade of a pair, or None when the pair is unjudged."""
        return self._grades.get(query_id, {}).get(passage_id)

    def judged_for(self, query_id: str) -> dict[str, int]:
        return dict(self._grades.get(query_id, {}))

    def relevant_pool(self, query_id: str) -> set[str]:
        """All passages with any positive grade for the query."""
        return {p for p, g in self._grades.get(query_id, {}).items() if g >= 1}

    @property
    def query_ids(self) -> list[str]:
        return list(self._grades)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._grades

    def __len__(self) -> int:
        return sum(len(d) for d in self._grades.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Qrels):
            return NotImplemented
        return self._grades == other._grades


def _read_tsv_pairs(path: str | Path, what: str) -> Iterator[tuple[str, str]]:
    """Yield (id, text) from an id<TAB>text file; the ids, which errors call
    ``what`` ids, must be distinct and hold no whitespace.

    Text may itself contain tabs; only the first tab separates the columns.
    """
    seen: set[str] = set()
    with TextRecords(path, 2, "expected id<TAB>text", "\t", 1, ids=1) as records:
        for ident, text in records:
            if not ident:
                raise ValueError("empty id column")
            if ident in seen:
                raise ValueError(f"duplicate {what} id {ident!r}")
            seen.add(ident)
            yield ident, text


def load_collection(path: str | Path) -> PassageStore:
    """Load a passage collection from a TSV file, one passage per line."""
    return PassageStore(Passage(pid, text) for pid, text in _read_tsv_pairs(path, "passage"))


def load_queries(path: str | Path, split_tag: str) -> QuerySet:
    """Load queries from a TSV file, tagging every query with ``split_tag``."""
    if split_tag not in VALID_SPLITS:
        raise ValueError(f"split tag {split_tag!r} not in {VALID_SPLITS}")
    return QuerySet(Query(qid, text, split_tag) for qid, text in _read_tsv_pairs(path, "query"))


def load_clicks(path: str | Path) -> list[ClickRecord]:
    """Load a click log; repeated (query, passage) rows are kept as-is."""
    records = []
    with TextRecords(path, 4, "expected 4 tab-separated columns", "\t", ids=2) as rows:
        for qid, pid, imp_s, clk_s in rows:
            try:
                imp, clk = int(imp_s), int(clk_s)
            except ValueError:
                raise ValueError("non-integer counts") from None
            records.append(ClickRecord(qid, pid, imp, clk))
    return records


def build_qrels_from_clicks(
    records: Sequence[ClickRecord],
    mode: str = "dctr",
    thresholds: Sequence[float] = DEFAULT_CTR_THRESHOLDS,
) -> Qrels:
    """Turn a click log into graded qrels.

    mode="raw": grade 1 for any pair with at least one click; pairs without
    clicks are omitted entirely.

    mode="dctr": aggregate clicks and impressions per pair, compute the
    click-through rate, and grade by the number of thresholds at or below
    it. Zero-click pairs are kept at grade 0 (judged non-relevant).

    Repeated rows for a pair are aggregated by summing both counters.
    """
    if mode not in ("raw", "dctr"):
        raise ValueError(f"unknown qrels mode {mode!r}")
    thresholds = tuple(thresholds)
    if any(not (0.0 < t <= 1.0) for t in thresholds):
        raise ValueError(f"thresholds must lie in (0, 1], got {thresholds}")
    if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be strictly ascending, got {thresholds}")

    totals: dict[tuple[str, str], list[int]] = {}
    for rec in records:
        t = totals.setdefault((rec.query_id, rec.passage_id), [0, 0])
        t[0] += rec.impressions
        t[1] += rec.clicks

    qrels = Qrels()
    for (qid, pid), (impressions, clicks) in totals.items():
        if mode == "raw":
            if clicks >= 1:
                qrels.add(qid, pid, 1)
        else:
            rate = clicks / impressions
            grade = sum(1 for t in thresholds if t <= rate)
            qrels.add(qid, pid, grade)
    return qrels


def write_qrels(qrels: Qrels, path: str | Path) -> None:
    """Write qrels in TREC format, sorted by (query, passage) for stable bytes."""
    with atomic_write(path) as f:
        for qid in sorted(qrels.query_ids):
            for pid, grade in sorted(qrels.judged_for(qid).items()):
                f.write(f"{qid} 0 {pid} {grade}\n")


def load_qrels(path: str | Path) -> Qrels:
    """Read TREC qrels; a pair given twice must get the same grade both times."""
    qrels = Qrels()
    with TextRecords(path, 4, "expected 'qid 0 pid grade'") as records:
        for qid, _, pid, grade_s in records:
            try:
                grade = int(grade_s)
            except ValueError:
                raise ValueError("non-integer grade") from None
            old = qrels.grade(qid, pid)
            if old not in (None, grade):
                raise ValueError(f"pair {(qid, pid)!r} graded both {old} and {grade}")
            qrels.add(qid, pid, grade)
    return qrels
