"""Benchmark-side tracing: spans recorded around clickrank's public functions.

Nothing here lives in the package under test. ``install`` replaces each
target function (and every module-level alias of it inside the package) with
a wrapper that records a span
``[name, layer, start, end, parent, op, attrs, excluded]`` while the tracer is
active; ``excluded`` is the time counters took inside the span (see
``wrap``). Spans stay in memory; the caller writes them out when the run
ends. ``pass_layer_metrics`` turns one round's spans into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("corpus", "bm25", "triples", "embeddings", "rankers", "runs", "evaluation", "manifest", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.active = False

    def wrap(self, name: str, layer: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [name, layer, 0.0, 0.0, parent, tracer.op, None, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            # counters are computed after the span closes but inside its
            # parents' spans; their time is taken out of those spans again
            if attrs is not None:
                a0 = time.perf_counter()
                span[6] = attrs(result, *args, **kwargs)
                cost = time.perf_counter() - a0
                for i in tracer.stack:
                    tracer.spans[i][7] += cost
            return result

        return traced

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


# --- counters recorded at the span boundaries ------------------------------


def _search_counts(result, index, query_text, k):
    from clickrank.bm25 import tokenize

    tokens = [t for t in tokenize(query_text) if t not in index.stopwords]
    scanned = sum(len(index.postings.get(t, ())) for t in tokens)
    return {"scanned": scanned, "returned": len(result)}


def _dir_bytes(result, index, directory):
    return {"bytes": sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())}


def _file_bytes(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _passages(result, *args, **kwargs):
    return {"passages": len(result)}


def _triple_report(result, *args, **kwargs):
    return {
        "count": len(result.triples),
        "skipped_missing_qrels": result.skipped_missing_qrels,
        "skipped_no_eligible": result.skipped_no_eligible,
        "truncated": int(result.truncated),
    }


def _resolved(result, *args, **kwargs):
    return {"resolved": result[1].resolved_triples}


def _rerank_counts(result, first_stage, depth, scorer, *args, **kwargs):
    offered = sum(min(depth, len(e)) for e in first_stage.results.values())
    kept = sum(len(e) for e in result.results.values())
    return {"scorer": scorer.name, "skipped": offered - kept}


def _pair(result, scorer, query_id, passage_id):
    return {"pair": (query_id, passage_id)}


def _run_lines(result, run, path):
    return {"lines": sum(len(e) for e in run.results.values())}


# (layer, qualified name in that module, counter function)
TARGETS = (
    ("corpus", "load_collection", _passages),
    ("corpus", "load_queries", None),
    ("corpus", "load_clicks", None),
    ("corpus", "build_qrels_from_clicks", None),
    ("corpus", "load_qrels", None),
    ("corpus", "write_qrels", None),
    ("bm25", "build_index", None),
    ("bm25", "batch_search", None),
    ("bm25", "InvertedIndex.search", _search_counts),
    ("bm25", "InvertedIndex.save", _dir_bytes),
    ("bm25", "InvertedIndex.load", None),
    ("triples", "generate_triples", _triple_report),
    ("triples", "write_triples", None),
    ("triples", "read_triples", None),
    ("embeddings", "load_vectors", _file_bytes),
    ("embeddings", "load_token_matrices", _file_bytes),
    ("rankers", "dense_retrieve", None),
    ("rankers", "kernel_features", None),
    ("rankers", "late_interaction_score", None),
    ("rankers", "fit_hinge", None),
    ("rankers", "train_kernel_weights", _resolved),
    ("rankers", "rerank", _rerank_counts),
    ("rankers", "DenseScorer.score", _pair),
    ("rankers", "KernelScorer.score", _pair),
    ("rankers", "LateInteractionScorer.score", _pair),
    ("rankers", "write_weights", None),
    ("rankers", "load_weights", None),
    ("runs", "write_run", _run_lines),
    ("runs", "read_run", None),
    ("evaluation", "evaluate_run", None),
    ("evaluation", "fuse_runs", None),
    ("evaluation", "depth_sweep", None),
    ("evaluation", "write_report", None),
    ("evaluation", "write_report_json", None),
    ("evaluation", "write_sweep_table", None),
    ("manifest", "file_digest", _file_bytes),
    ("manifest", "write_manifest", None),
    ("cli", "main", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every target; every clickrank module must already be imported."""
    modules = [m for n, m in sys.modules.items() if n.startswith("clickrank.")]
    for layer, qualname, attrs in TARGETS:
        module = sys.modules[f"clickrank.{layer}"]
        name = f"{layer}.{qualname}"
        if "." in qualname:
            cls_name, method = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(tracer.wrap(name, layer, raw.__func__, attrs)))
            else:
                setattr(cls, method, tracer.wrap(name, layer, raw, attrs))
            continue
        original = getattr(module, qualname)
        wrapped = tracer.wrap(name, layer, original, attrs)
        # modules that imported the function by name hold their own reference
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


# --- per-layer metrics -------------------------------------------------------


def _tail(values_ms: list[float]) -> tuple[float, float, float, int]:
    """Median, the highest percentile with ten samples beyond it, that percentile, n."""
    xs = sorted(values_ms)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    if n > 10:
        return statistics.median(xs), xs[n - 11], 100.0 * (n - 10) / n, n
    return statistics.median(xs), xs[-1], 100.0, n


def duration(span: list) -> float:
    """Span time without the counters computed inside it."""
    return span[3] - span[2] - span[7]


def pass_layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals, self times and counters for the spans of one round."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += duration(s)

    def ancestors(i):
        p = spans[i][4]
        while p is not None:
            yield spans[p][0]
            p = spans[p][4]

    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    attr_sum: dict[str, float] = {}
    train_features = train_feature_calls = 0.0
    sweep_pairs: list[tuple] = []
    rerank_dense = rerank_skipped = 0.0
    for i, span in enumerate(spans):
        name, layer, parent, attrs = span[0], span[1], span[4], span[6]
        dur = duration(span)
        self_time = dur - child_time[i]
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1
        layer_self[layer] = layer_self.get(layer, 0.0) + self_time
        if attrs:
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0.0) + value
        if name == "rankers.kernel_features" and parent is not None and spans[parent][0] == "rankers.train_kernel_weights":
            train_features += dur
            train_feature_calls += 1
        if name.endswith("Scorer.score") and "evaluation.depth_sweep" in ancestors(i):
            sweep_pairs.append(attrs["pair"])
        if name == "rankers.rerank":
            rerank_skipped += attrs["skipped"]
            if attrs["scorer"] == "dense":
                rerank_dense += dur

    lookups = 2 * attr_sum.get("rankers.train_kernel_weights.resolved", 0.0)
    returned = attr_sum.get("bm25.InvertedIndex.search.returned", 0.0)
    m = {
        "corpus.load_collection_s": total.get("corpus.load_collection", 0.0),
        "corpus.build_qrels_s": total.get("corpus.build_qrels_from_clicks", 0.0),
        "corpus.passages": attr_sum.get("corpus.load_collection.passages", 0.0) / max(1, calls.get("corpus.load_collection", 0)),
        "bm25.search_s": own.get("bm25.InvertedIndex.search", 0.0),
        "bm25.postings_scanned": attr_sum.get("bm25.InvertedIndex.search.scanned", 0.0),
        "bm25.scanned_per_returned": attr_sum.get("bm25.InvertedIndex.search.scanned", 0.0) / returned if returned else 0.0,
        "bm25.build_s": total.get("bm25.build_index", 0.0),
        "bm25.save_s": total.get("bm25.InvertedIndex.save", 0.0),
        "bm25.index_bytes": attr_sum.get("bm25.InvertedIndex.save.bytes", 0.0),
        "bm25.load_s": total.get("bm25.InvertedIndex.load", 0.0),
        "triples.generate_s": total.get("triples.generate_triples", 0.0),
        "triples.self_s": own.get("triples.generate_triples", 0.0),
        "triples.count": attr_sum.get("triples.generate_triples.count", 0.0),
        "triples.skipped_missing_qrels": attr_sum.get("triples.generate_triples.skipped_missing_qrels", 0.0),
        "triples.skipped_no_eligible": attr_sum.get("triples.generate_triples.skipped_no_eligible", 0.0),
        "triples.truncated": attr_sum.get("triples.generate_triples.truncated", 0.0),
        "embeddings.load_vectors_s": total.get("embeddings.load_vectors", 0.0),
        "embeddings.load_token_matrices_s": total.get("embeddings.load_token_matrices", 0.0),
        "embeddings.bytes_read": attr_sum.get("embeddings.load_vectors.bytes", 0.0)
        + attr_sum.get("embeddings.load_token_matrices.bytes", 0.0),
        "rankers.dense_retrieve_s": total.get("rankers.dense_retrieve", 0.0),
        "rankers.kernel_features_s": total.get("rankers.kernel_features", 0.0),
        "rankers.score_calls.kernel": float(calls.get("rankers.KernelScorer.score", 0)),
        "rankers.late_interaction_s": total.get("rankers.late_interaction_score", 0.0),
        "rankers.score_calls.colbert": float(calls.get("rankers.LateInteractionScorer.score", 0)),
        "rankers.rerank_dense_s": rerank_dense,
        "rankers.train_features_s": train_features,
        "rankers.fit_hinge_s": total.get("rankers.fit_hinge", 0.0),
        "rankers.train_pair_lookups": lookups,
        "rankers.train_cache_hit_ratio": 1.0 - train_feature_calls / lookups if lookups else 0.0,
        "rankers.rerank_skipped": rerank_skipped,
        "runs.write_run_s": total.get("runs.write_run", 0.0),
        "runs.read_run_s": total.get("runs.read_run", 0.0),
        "runs.lines": attr_sum.get("runs.write_run.lines", 0.0),
        "evaluation.evaluate_run_s": total.get("evaluation.evaluate_run", 0.0),
        "evaluation.fuse_s": total.get("evaluation.fuse_runs", 0.0),
        "evaluation.sweep_pairs_scored": float(len(sweep_pairs)),
        "evaluation.sweep_useful_ratio": len(set(sweep_pairs)) / len(sweep_pairs) if sweep_pairs else 0.0,
        "manifest.digest_s": total.get("manifest.file_digest", 0.0),
        "manifest.bytes_digested": attr_sum.get("manifest.file_digest.bytes", 0.0),
        "manifest.write_s": own.get("manifest.write_manifest", 0.0),
        "trace.spans": float(len(spans)),
    }
    for layer in LAYERS:
        if layer != "triples":  # triples.self_s above is that layer's self time
            m[f"{layer}.self_s"] = layer_self[layer]
    return m


def call_durations_ms(spans: list[list], name: str) -> list[float]:
    return [1000.0 * duration(s) for s in spans if s[0] == name]


def tail_metrics(prefix: str, durations_ms: list[float]) -> dict[str, float]:
    p50, tail, pct, n = _tail(durations_ms)
    return {
        f"{prefix}_ms_p50": p50,
        f"{prefix}_ms_tail": tail,
        f"{prefix}_tail_pct": pct,
        f"{prefix}_samples": float(n),
    }
