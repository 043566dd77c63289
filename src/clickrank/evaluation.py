"""Rank metrics, frequency-split reports, run fusion, and depth sweeps.

All metrics are computed from the rank order of a run, never from raw score
magnitudes, so they are invariant to positive rescaling and to run-file line
permutations. Aggregates are arithmetic means over the per-query values of a
split.

Conventions (the common trec_eval ones):
* nDCG gain is 2^grade - 1 with a 1/log2(rank+1) discount; the ideal DCG
  ranks every judged document of the query, truncated at the cutoff.
* Unjudged documents count as non-relevant for nDCG/MRR/recall; the judged
  fraction J@k reports how often that assumption is being exercised.
* Queries judged without any positive grade are excluded from nDCG/MRR/recall
  means (and counted); queries missing from the qrels entirely score 0 and
  are counted as unjudged.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Qrels
from .rankers import score_candidates
from .runs import RankedRun, canonical_order, runs_cover_same_queries

logger = logging.getLogger(__name__)

DEFAULT_RANK_CUTOFF = 10
DEFAULT_RECALL_CUTOFFS = (100, 200, 1000)


@dataclass
class MetricResult:
    """Per-query values plus their mean.

    ``excluded`` lists queries left out of the mean (no positive grades);
    ``unjudged`` lists queries missing from the qrels (scored 0, kept in
    the mean, surfaced as a warning).
    """

    values: dict[str, float]
    mean: float
    excluded: tuple[str, ...] = ()
    unjudged: tuple[str, ...] = ()


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _mean_by_query(values: Mapping[str, float]) -> float:
    # summation in sorted-qid order keeps aggregates independent of the
    # order queries happened to be inserted (e.g. run-file line order)
    return _mean(values[q] for q in sorted(values))


def _split_queries(
    run: RankedRun, qrels: Qrels, zero_positive_policy: str
) -> tuple[list[str], list[str], list[str]]:
    """Partition run queries into (scoreable, excluded, unjudged)."""
    if zero_positive_policy not in ("exclude", "zero"):
        raise ValueError(f"unknown zero-positive policy {zero_positive_policy!r}")
    scoreable: list[str] = []
    excluded: list[str] = []
    unjudged: list[str] = []
    for qid in run.query_ids:
        if qid not in qrels:
            unjudged.append(qid)
        elif not qrels.relevant_pool(qid) and zero_positive_policy == "exclude":
            excluded.append(qid)
        else:
            scoreable.append(qid)
    if unjudged:
        logger.warning("%d queries in run %r have no qrels entries", len(unjudged), run.name)
    return scoreable, excluded, unjudged


def mrr_at_k(
    run: RankedRun, qrels: Qrels, k: int = 10, zero_positive_policy: str = "exclude"
) -> MetricResult:
    """Reciprocal rank of the first positive-grade result within the top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scoreable, excluded, unjudged = _split_queries(run, qrels, zero_positive_policy)
    values: dict[str, float] = {qid: 0.0 for qid in unjudged}
    for qid in scoreable:
        rr = 0.0
        for rank, (pid, _) in enumerate(run[qid][:k], start=1):
            grade = qrels.grade(qid, pid)
            if grade is not None and grade >= 1:
                rr = 1.0 / rank
                break
        values[qid] = rr
    return MetricResult(values, _mean_by_query(values), tuple(excluded), tuple(unjudged))


def _dcg(grades: Sequence[int]) -> float:
    return sum((2.0**g - 1.0) / math.log2(r + 1) for r, g in enumerate(grades, start=1))


def ndcg_at_k(
    run: RankedRun, qrels: Qrels, k: int = 10, zero_positive_policy: str = "exclude"
) -> MetricResult:
    """Normalized DCG at cutoff k; ideal ranking over all judged documents."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scoreable, excluded, unjudged = _split_queries(run, qrels, zero_positive_policy)
    values: dict[str, float] = {qid: 0.0 for qid in unjudged}
    for qid in scoreable:
        judged = qrels.judged_for(qid)
        run_grades = [judged.get(pid, 0) for pid, _ in run[qid][:k]]
        ideal_grades = sorted(judged.values(), reverse=True)[:k]
        idcg = _dcg(ideal_grades)
        values[qid] = _dcg(run_grades) / idcg if idcg > 0 else 0.0
    return MetricResult(values, _mean_by_query(values), tuple(excluded), tuple(unjudged))


def recall_at_k(run: RankedRun, qrels: Qrels, k: int) -> MetricResult:
    """Fraction of the query's positive-grade passages found in the top k.

    Queries with zero relevant passages are always excluded: recall is
    undefined for them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scoreable, excluded, unjudged = _split_queries(run, qrels, "exclude")
    values: dict[str, float] = {qid: 0.0 for qid in unjudged}
    for qid in scoreable:
        relevant = qrels.relevant_pool(qid)
        found = sum(1 for pid, _ in run[qid][:k] if pid in relevant)
        values[qid] = found / len(relevant)
    return MetricResult(values, _mean_by_query(values), tuple(excluded), tuple(unjudged))


def judged_at_k(run: RankedRun, qrels: Qrels, k: int = 10) -> MetricResult:
    """Fraction of the top-k slots holding a judged passage (any grade).

    The denominator is k itself, so short or empty result lists lower the
    judged fraction rather than inflating it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    values: dict[str, float] = {}
    for qid in run.query_ids:
        judged = sum(1 for pid, _ in run[qid][:k] if qrels.is_judged(qid, pid))
        values[qid] = judged / k
    return MetricResult(values, _mean_by_query(values))


def load_splits(path: str | Path) -> dict[str, str]:
    """Read a ``query_id<TAB>split`` file into a query -> split map."""
    split_of: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected query_id<TAB>split")
            qid, split = parts
            if qid in split_of and split_of[qid] != split:
                raise ValueError(
                    f"{path}: line {lineno}: query {qid!r} assigned to both "
                    f"{split_of[qid]!r} and {split!r}"
                )
            split_of[qid] = split
    return split_of


def splits_from_sets(sets: Mapping[str, Iterable[str]]) -> dict[str, str]:
    """Build a query -> split map from per-split id sets; overlaps are an error."""
    split_of: dict[str, str] = {}
    for split, qids in sets.items():
        for qid in qids:
            if qid in split_of:
                raise ValueError(
                    f"query {qid!r} assigned to both {split_of[qid]!r} and {split!r}"
                )
            split_of[qid] = split
    return split_of


@dataclass
class SplitReport:
    split: str
    query_count: int
    metrics: dict[str, float]
    excluded: dict[str, int] = field(default_factory=dict)
    unjudged: int = 0


@dataclass
class MetricsReport:
    splits: dict[str, SplitReport]
    per_query: dict[str, dict[str, float]]
    split_of: dict[str, str]
    metric_names: list[str]


def evaluate_run(
    run: RankedRun,
    qrels: Qrels,
    split_map: Mapping[str, str] | None = None,
    rank_cutoff: int = DEFAULT_RANK_CUTOFF,
    recall_cutoffs: Sequence[int] = DEFAULT_RECALL_CUTOFFS,
    zero_positive_policy: str = "exclude",
) -> MetricsReport:
    """Aggregate every metric per split (or over one "all" split).

    ``split_map`` must assign each run query to exactly one split; a missing
    assignment is an error so silently dropped queries cannot skew a split.
    """
    if split_map is None:
        split_map = {qid: "all" for qid in run.query_ids}
    missing = [qid for qid in run.query_ids if qid not in split_map]
    if missing:
        raise ValueError(f"queries missing from the split map: {sorted(missing)[:20]}")

    metric_results: dict[str, MetricResult] = {
        f"nDCG@{rank_cutoff}": ndcg_at_k(run, qrels, rank_cutoff, zero_positive_policy),
        f"MRR@{rank_cutoff}": mrr_at_k(run, qrels, rank_cutoff, zero_positive_policy),
        f"J@{rank_cutoff}": judged_at_k(run, qrels, rank_cutoff),
    }
    for c in recall_cutoffs:
        metric_results[f"R@{c}"] = recall_at_k(run, qrels, c)
    metric_names = list(metric_results)

    per_query: dict[str, dict[str, float]] = {}
    for name, result in metric_results.items():
        for qid, value in result.values.items():
            per_query.setdefault(qid, {})[name] = value

    split_names = sorted(set(split_map[qid] for qid in run.query_ids))
    splits: dict[str, SplitReport] = {}
    for split in split_names:
        qids = sorted(qid for qid in run.query_ids if split_map[qid] == split)
        metrics: dict[str, float] = {}
        excluded: dict[str, int] = {}
        for name, result in metric_results.items():
            in_split = [result.values[q] for q in qids if q in result.values]
            metrics[name] = _mean(in_split)
            n_excluded = sum(1 for q in qids if q in result.excluded)
            if n_excluded:
                excluded[name] = n_excluded
        unjudged = sum(1 for q in qids if q not in qrels)
        splits[split] = SplitReport(split, len(qids), metrics, excluded, unjudged)

    return MetricsReport(splits, per_query, dict(split_map), metric_names)


def write_report(report: MetricsReport, path: str | Path) -> None:
    """Summary block plus a per-query TSV table."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        header = ["split", "queries", "unjudged"] + report.metric_names
        f.write("\t".join(header) + "\n")
        for split in sorted(report.splits):
            sr = report.splits[split]
            row = [split, str(sr.query_count), str(sr.unjudged)]
            row += [f"{sr.metrics[m]:.4f}" for m in report.metric_names]
            f.write("\t".join(row) + "\n")
        f.write("\n")
        f.write("\t".join(["query_id", "split"] + report.metric_names) + "\n")
        for qid in sorted(report.per_query):
            values = report.per_query[qid]
            row = [qid, report.split_of.get(qid, "")]
            row += [
                f"{values[m]:.6f}" if m in values else "-" for m in report.metric_names
            ]
            f.write("\t".join(row) + "\n")


def report_to_json(report: MetricsReport) -> dict:
    """The same values as the TSV report, JSON-shaped."""
    return {
        "splits": {
            split: {
                "query_count": sr.query_count,
                "unjudged": sr.unjudged,
                "metrics": sr.metrics,
                "excluded": sr.excluded,
            }
            for split, sr in report.splits.items()
        },
        "per_query": report.per_query,
    }


def write_report_json(report: MetricsReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(report_to_json(report), f, indent=2, sort_keys=True)
        f.write("\n")


def _minmax_normalize(entries: list[tuple[str, float]]) -> dict[str, float]:
    scores = [s for _, s in entries]
    low, high = min(scores), max(scores)
    span = high - low
    if span == 0.0:
        return {pid: 1.0 for pid, _ in entries}
    return {pid: (s - low) / span for pid, s in entries}


def fuse_runs(
    runs: Sequence[RankedRun],
    method: str = "minmax",
    rrf_k: int = 60,
    run_name: str = "fused",
) -> RankedRun:
    """Fuse two or more runs over the same query set.

    "minmax": per query, normalize each run's scores to [0, 1] and average
    across runs; a passage missing from a run contributes 0 for it. Ordering
    is therefore invariant to any positive affine transform of a run's
    scores. "rrf": reciprocal-rank fusion, sum of 1/(rrf_k + rank).
    """
    if method not in ("minmax", "rrf"):
        raise ValueError(f"unknown fusion method {method!r}")
    runs_cover_same_queries(runs)
    fused = RankedRun(name=run_name, stage="fusion")
    for qid in runs[0].query_ids:
        combined: dict[str, float] = {}
        if method == "minmax":
            normalized = [_minmax_normalize(r[qid]) for r in runs if r[qid]]
            pids = set().union(*(n.keys() for n in normalized)) if normalized else set()
            for pid in pids:
                combined[pid] = sum(n.get(pid, 0.0) for n in normalized) / len(runs)
        else:
            for r in runs:
                for rank, (pid, _) in enumerate(r[qid], start=1):
                    combined[pid] = combined.get(pid, 0.0) + 1.0 / (rrf_k + rank)
        fused.results[qid] = canonical_order(combined.items())
    return fused


def depth_sweep(
    first_stage: RankedRun,
    scorer,
    depths: Sequence[int],
    qrels: Qrels,
    rank_cutoff: int = DEFAULT_RANK_CUTOFF,
    recall_cutoffs: Sequence[int] = DEFAULT_RECALL_CUTOFFS,
    on_missing: str = "error",
) -> dict[int, dict[str, float]]:
    """Re-rank at each depth and tabulate the aggregate metrics.

    The re-ranking-depth robustness diagnostic: a well-trained scorer keeps
    improving (or holds steady) as more candidates are exposed to it, while
    a scorer poisoned by false-negative training degrades. Each query's top
    ``max(depths)`` candidates are scored once (``score_candidates``).
    """
    depths = _check_depths(depths)
    if not depths:
        return {}
    scored = score_candidates(first_stage, depths[-1], scorer, on_missing)
    return sweep_table(first_stage, scored, depths, qrels, rank_cutoff, recall_cutoffs)


def sweep_table(
    first_stage: RankedRun,
    scored: Mapping[str, list[tuple[str, float]]],
    depths: Sequence[int],
    qrels: Qrels,
    rank_cutoff: int = DEFAULT_RANK_CUTOFF,
    recall_cutoffs: Sequence[int] = DEFAULT_RECALL_CUTOFFS,
) -> dict[int, dict[str, float]]:
    """The ``depth_sweep`` table from candidates that ``score_candidates``
    already scored to at least the deepest depth: each depth re-ranks the
    scored ones among each query's top ``depth``."""
    table: dict[int, dict[str, float]] = {}
    for depth in _check_depths(depths):
        reranked = RankedRun(name=first_stage.name, stage="rerank")
        for qid, entries in first_stage.results.items():
            top = {pid for pid, _ in entries[:depth]}
            reranked.add(qid, [e for e in scored[qid] if e[0] in top])
        report = evaluate_run(
            reranked, qrels, None, rank_cutoff=rank_cutoff, recall_cutoffs=recall_cutoffs
        )
        table[depth] = dict(report.splits["all"].metrics)
    return table


def _check_depths(depths: Sequence[int]) -> list[int]:
    depths = list(depths)
    if any(d < 1 for d in depths):
        raise ValueError("depths must be >= 1")
    if any(a >= b for a, b in zip(depths, depths[1:])):
        raise ValueError(f"depths must be strictly ascending, got {depths}")
    return depths


def write_sweep_table(table: Mapping[int, Mapping[str, float]], path: str | Path) -> None:
    depths = sorted(table)
    if not depths:
        raise ValueError("empty sweep table")
    metric_names = list(table[depths[0]])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\t".join(["depth"] + metric_names) + "\n")
        for depth in depths:
            row = [str(depth)] + [f"{table[depth][m]:.4f}" for m in metric_names]
            f.write("\t".join(row) + "\n")
