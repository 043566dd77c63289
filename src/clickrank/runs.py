"""Ranked runs: the exchange type between retrieval, re-ranking, and eval.

A run holds, per query, a list of (passage_id, score) ordered by descending
score with ties broken by ascending passage id. Run files use the TREC
format ``qid Q0 pid rank score run_name``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .manifest import TextRecords, atomic_write, finite


def canonical_order(entries: Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    """Sort entries by descending score, ties by ascending passage id.

    Raises on duplicate passage ids: a query may rank a passage only once.
    """
    items = list(entries)
    seen: set[str] = set()
    for pid, _ in items:
        if pid in seen:
            raise ValueError(f"duplicate passage {pid!r} in ranked list")
        seen.add(pid)
    items.sort(key=lambda e: (-e[1], e[0]))
    return items


@dataclass
class RankedRun:
    """Per-query ordered result lists plus run metadata."""

    name: str
    stage: str = ""
    results: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    def add(self, query_id: str, entries: Iterable[tuple[str, float]]) -> None:
        if query_id in self.results:
            raise ValueError(f"query {query_id!r} already present in run {self.name!r}")
        self.results[query_id] = canonical_order(entries)

    @property
    def query_ids(self) -> list[str]:
        return list(self.results)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self.results

    def __getitem__(self, query_id: str) -> list[tuple[str, float]]:
        return self.results[query_id]

    def __len__(self) -> int:
        return len(self.results)


def write_run(run: RankedRun, path: str | Path) -> None:
    """Write a run in TREC format; queries sorted by id for stable bytes.

    Scores are written with ``repr`` so reading the file back reproduces the
    exact float values.
    """
    with atomic_write(path) as f:
        for qid in sorted(run.results):
            for rank, (pid, score) in enumerate(run.results[qid], start=1):
                f.write(f"{qid} Q0 {pid} {rank} {float(score)!r} {run.name}\n")


def read_run(path: str | Path) -> RankedRun:
    """Read a TREC run file, which holds one run: every line names the same run.

    Entries are re-canonicalized (score desc, passage id asc), so the result
    is independent of the file's line order. A score that is not a finite
    number (``nan``, ``inf``) is rejected: NaN has no place in that order.
    """
    per_query: dict[str, list[tuple[str, float]]] = {}
    run_name = None
    with TextRecords(path, 6, "expected 'qid Q0 pid rank score run'") as records:
        for qid, _, pid, _, score_s, tag in records:
            if tag != run_name:
                if run_name is not None:
                    raise ValueError(f"run {tag!r} after run {run_name!r}; a file holds one run")
                run_name = tag
            per_query.setdefault(qid, []).append((pid, finite(score_s, "score")))
    run = RankedRun(name=run_name or "run", stage="loaded")
    try:
        for qid in sorted(per_query):
            run.add(qid, per_query[qid])
    except ValueError:
        # a passage ranked twice for a query; only now is its line looked for
        seen: set[tuple[str, str]] = set()
        with TextRecords(path, 6) as records:
            for qid, _, pid, *_ in records:
                if (qid, pid) in seen:
                    raise ValueError(f"duplicate passage {pid!r} for query {qid!r}")
                seen.add((qid, pid))
        raise
    return run


def runs_cover_same_queries(runs: Sequence[RankedRun]) -> None:
    """Raise unless all runs share one query set; names the missing ids."""
    if len(runs) < 2:
        raise ValueError("need at least two runs")
    reference = set(runs[0].query_ids)
    for other in runs[1:]:
        qids = set(other.query_ids)
        if qids != reference:
            missing = sorted(reference ^ qids)
            raise ValueError(
                f"runs {runs[0].name!r} and {other.name!r} rank different query "
                f"sets; mismatched ids: {missing[:20]}"
            )
