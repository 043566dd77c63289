"""Rank metrics, frequency-split reports, run fusion, and depth sweeps.

All metrics are computed from the rank order of a run, never from raw score
magnitudes, so they are invariant to positive rescaling and to run-file line
permutations. ``evaluate_run`` scans each query's ranked list once into a
row of nDCG@k, MRR@k, J@k and R@c per recall cutoff c; a split's aggregate
is the mean of the values its rows hold, summed in sorted query-id order.

Conventions (the common trec_eval ones):
* nDCG gain is 2^grade - 1 with a 1/log2(rank+1) discount; the ideal DCG
  ranks every judged document of the query, truncated at the cutoff.
* Unjudged documents count as non-relevant for nDCG/MRR/recall; the judged
  fraction J@k reports how often that assumption is being exercised.
* A query missing from the qrels scores 0 on every metric and stays in the
  means; a split counts such queries as ``unjudged``.
* A query judged without any positive grade has no recall (it is undefined);
  its nDCG and MRR are left out under the "exclude" zero-positive policy and
  0 under "zero". A split's ``excluded`` counts, per metric, the rows that
  leave it out.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import VALID_SPLITS, Qrels
from .manifest import TextRecords, atomic_write
from .rankers import score_candidates
from .runs import RankedRun, canonical_order, runs_cover_same_queries

DEFAULT_RANK_CUTOFF = 10
DEFAULT_RECALL_CUTOFFS = (100, 200, 1000)


def _dcg(grades: Sequence[int]) -> float:
    return sum((2.0**g - 1.0) / math.log2(r + 1) for r, g in enumerate(grades, start=1))


def load_splits(path: str | Path) -> dict[str, str]:
    """Read a ``query_id<TAB>split`` file into a query -> split map; each
    split is one of ``VALID_SPLITS``."""
    split_of: dict[str, str] = {}
    with TextRecords(path, 2, "expected query_id<TAB>split", "\t", ids=1) as records:
        for qid, split in records:
            if split not in VALID_SPLITS:
                raise ValueError(f"split {split!r} not in {VALID_SPLITS}")
            if split_of.setdefault(qid, split) != split:
                raise ValueError(f"query {qid!r} assigned to both {split_of[qid]!r} and {split!r}")
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
    return _evaluate(run, qrels, split_map, rank_cutoff, recall_cutoffs, zero_positive_policy)


def _evaluate(
    run, qrels, split_map, rank_cutoff, recall_cutoffs, zero_positive_policy
) -> MetricsReport:
    """``evaluate_run``'s body. ``sweep_table`` calls it once per depth, so a
    trace of ``evaluate_run`` times whole-run evaluations only."""
    if split_map is None:
        split_map = {qid: "all" for qid in run.query_ids}
    missing = [qid for qid in run.query_ids if qid not in split_map]
    if missing:
        raise ValueError(f"queries missing from the split map: {sorted(missing)[:20]}")
    for k in (rank_cutoff, *recall_cutoffs):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    if zero_positive_policy not in ("exclude", "zero"):
        raise ValueError(f"unknown zero-positive policy {zero_positive_policy!r}")

    ndcg, mrr, judged_at = (f"{m}@{rank_cutoff}" for m in ("nDCG", "MRR", "J"))
    recall = {c: f"R@{c}" for c in recall_cutoffs}
    metric_names = [ndcg, mrr, judged_at, *recall.values()]
    depth = max((rank_cutoff, *recall_cutoffs))

    per_query: dict[str, dict[str, float]] = {}
    unjudged: set[str] = set()
    for qid, entries in run.results.items():
        if qid not in qrels:
            unjudged.add(qid)
            per_query[qid] = dict.fromkeys(metric_names, 0.0)
            continue
        judged = qrels.judged_for(qid)
        relevant = qrels.relevant_pool(qid)
        # the one scan to the deepest cutoff: the rank of each positive passage
        hits = [r for r, (pid, _) in enumerate(entries[:depth], start=1) if pid in relevant]
        grades = [judged.get(pid, -1) for pid, _ in entries[:rank_cutoff]]  # -1: unjudged
        row: dict[str, float] = {}
        if relevant or zero_positive_policy == "zero":
            ideal = _dcg(sorted(judged.values(), reverse=True)[:rank_cutoff])
            row[ndcg] = _dcg([max(g, 0) for g in grades]) / ideal if ideal > 0 else 0.0
            row[mrr] = 1.0 / hits[0] if hits and hits[0] <= rank_cutoff else 0.0
        row[judged_at] = sum(g >= 0 for g in grades) / rank_cutoff
        if relevant:
            for c, name in recall.items():
                row[name] = bisect_right(hits, c) / len(relevant)
        per_query[qid] = row

    members: dict[str, list[str]] = {}
    for qid in sorted(per_query):
        members.setdefault(split_map[qid], []).append(qid)
    splits: dict[str, SplitReport] = {}
    for split in sorted(members):
        qids = members[split]
        metrics: dict[str, float] = {}
        excluded: dict[str, int] = {}
        for name in metric_names:
            # summed in sorted-qid order, so no mean depends on the order
            # queries were inserted (e.g. run-file line order)
            values = [per_query[q][name] for q in qids if name in per_query[q]]
            metrics[name] = sum(values) / len(values) if values else 0.0
            if len(values) < len(qids):
                excluded[name] = len(qids) - len(values)
        n_unjudged = sum(q in unjudged for q in qids)
        splits[split] = SplitReport(split, len(qids), metrics, excluded, n_unjudged)

    return MetricsReport(splits, per_query, dict(split_map), metric_names)


def write_report(report: MetricsReport, path: str | Path) -> None:
    """Summary block plus a per-query TSV table."""
    with atomic_write(path) as f:
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
    with atomic_write(path) as f:
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
    scores. "rrf": reciprocal-rank fusion, sum of 1/(rrf_k + rank). Both
    sums are exactly rounded, so the order of the runs cannot change a
    fused score.
    """
    if method not in ("minmax", "rrf"):
        raise ValueError(f"unknown fusion method {method!r}")
    if method == "rrf" and rrf_k < 0:
        raise ValueError(f"rrf_k must be >= 0, got {rrf_k}")
    runs_cover_same_queries(runs)
    fused = RankedRun(name=run_name, stage="fusion")
    for qid in runs[0].query_ids:
        combined: dict[str, float] = {}
        if method == "minmax":
            normalized = [_minmax_normalize(r[qid]) for r in runs if r[qid]]
            pids = set().union(*(n.keys() for n in normalized)) if normalized else set()
            for pid in pids:
                combined[pid] = math.fsum(n.get(pid, 0.0) for n in normalized) / len(runs)
        else:
            terms: dict[str, list[float]] = {}
            for r in runs:
                for rank, (pid, _) in enumerate(r[qid], start=1):
                    terms.setdefault(pid, []).append(1.0 / (rrf_k + rank))
            combined = {pid: math.fsum(t) for pid, t in terms.items()}
        fused.results[qid] = canonical_order(combined.items())
    return fused


def depth_sweep(
    first_stage: RankedRun,
    scorer,
    depths: Sequence[int],
    qrels: Qrels,
) -> dict[int, dict[str, float]]:
    """Re-rank at each depth and tabulate the aggregate metrics: nDCG@10,
    MRR@10, J@10 and R@100, R@200 and R@1000.

    The re-ranking-depth robustness diagnostic: a well-trained scorer keeps
    improving (or holds steady) as more candidates are exposed to it, while
    a scorer poisoned by false-negative training degrades. Each query's top
    ``max(depths)`` candidates are scored once (``score_candidates``), and a
    candidate the scorer cannot score is an error.
    """
    depths = check_depths(depths)
    scored = score_candidates(first_stage, depths[-1], scorer)
    return sweep_table(first_stage, scored, depths, qrels)


def sweep_table(
    first_stage: RankedRun,
    scored: Mapping[str, list[tuple[str, float]]],
    depths: Sequence[int],
    qrels: Qrels,
) -> dict[int, dict[str, float]]:
    """The ``depth_sweep`` table from candidates that ``score_candidates``
    already scored to at least the deepest depth: each depth re-ranks the
    scored ones among each query's top ``depth``."""
    depths = check_depths(depths)
    if not first_stage.results:
        raise ValueError(f"run {first_stage.name!r} has no queries to sweep")
    # sorted once: a depth's re-ranked list keeps the scored candidates among
    # its top ``depth`` in this order
    ranked = {qid: canonical_order(scored[qid]) for qid in first_stage.results}
    table: dict[int, dict[str, float]] = {}
    for depth in depths:
        reranked = RankedRun(name=first_stage.name, stage="rerank")
        for qid, entries in first_stage.results.items():
            top = {pid for pid, _ in entries[:depth]}
            reranked.results[qid] = [e for e in ranked[qid] if e[0] in top]
        report = _evaluate(
            reranked, qrels, None, DEFAULT_RANK_CUTOFF, DEFAULT_RECALL_CUTOFFS, "exclude"
        )
        table[depth] = dict(report.splits["all"].metrics)
    return table


def check_depths(depths: Sequence[int]) -> list[int]:
    """The sweep depths as a list; raises unless they are some, all >= 1, rising."""
    depths = list(depths)
    if not depths:
        raise ValueError("need at least one depth")
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
    with atomic_write(path) as f:
        f.write("\t".join(["depth"] + metric_names) + "\n")
        for depth in depths:
            row = [str(depth)] + [f"{table[depth][m]:.4f}" for m in metric_names]
            f.write("\t".join(row) + "\n")
