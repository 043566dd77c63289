"""A workload's calls: one warm-up pass, then timed rounds of interleaved calls.

The warm-up pass (``library_warmup``, ``cli_warmup``) runs the workload
once in dependency order, the way a user would: every operation after the
previous one returns. It produces every input the operations need and
writes every artifact, which the caller digests and checks.

A round then calls every operation again on those inputs (``*_units``), one
call at a time, timing each call on its own. Operations that work per query
(search, triples, dense retrieval, re-ranking, the depth sweep) are split
into chunks of queries; a short operation that cannot be split and that an
end-to-end stage metric is made of is called several times (its ``reps``)
and counts as the mean of its calls. The calls of all operations are
interleaved evenly over the round, so every operation's time is an average
over the whole run rather than over one stretch of it: on a shared host
whose speed swings by up to 1.7x for seconds at a time, a back-to-back burst
of calls lands wholly in a fast or a slow stretch. The last round of a run
is cut short when the measuring time is up, so the whole time is measured
however long a round is.

Every call's result is digested and must equal the first round's; after
every round the output directory must still equal the warm-up's, which
covers the calls that write files.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import checks
from clickrank import bm25, corpus, embeddings, evaluation, rankers, runs, triples
from shapes import ROOT, sha256_file

CLI_DRIVER = Path(__file__).resolve().parent / "clidriver.py"

# An operation that an end-to-end stage metric is made of, that is not split
# into chunks and whose warm-up call took less than STAGE_OP_SECONDS is
# called ``reps`` times per round, so its calls add up to at least that much
# (at most MAX_REPS calls): such a metric rests on that operation's calls
# alone. An operation that only adds to ``wall_s`` is called once per round,
# since there it is averaged with all the others.
STAGE_OP_SECONDS = 0.3
MAX_REPS = 32


@dataclass
class Unit:
    """One call of an operation: a library call ``fn`` or a ``clickrank``
    command ``args``. ``item`` names the work it counts for rates."""

    op: str
    fn: Callable | None = None
    item: str | None = None
    count: Callable | int | None = None
    args: list | None = None


class Pass:
    """One pass or round: times calls, records failures and result digests,
    runs CLI children and keeps their rusage."""

    def __init__(self, out: Path, tracer=None):
        self.out = out
        self.tracer = tracer
        self.times: dict[str, float] = {}
        self.calls: dict[str, list[float]] = {}
        # by call key (operation#unit): each call's time, and the work one
        # call counts for a rate
        self.keyed: dict[str, list[float]] = {}
        self.work: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.failed: list[str] = []
        self.child_spans: list[list] = []
        self.cli_startups: list[float] = []
        self.child_maxrss_kb = 0
        self.traced = False
        self.cut = False
        self.wall = 0.0

    def stop(self) -> None:
        """End the timed part; later writes are neither timed nor traced."""
        self.wall = sum(self.times.values())
        if self.tracer is not None:
            self.tracer.active = False

    def op(self, name: str, fn, weight: float = 1.0):
        """Time one call; it counts ``weight`` towards the operation's time."""
        if self.tracer is not None:
            self.tracer.op = name
        # the call starts with empty collector generations, so it pays for
        # the collections its own allocations trigger, not its predecessor's
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a call that raises is counted and the pass goes on
            traceback.print_exc(file=sys.stderr)
            self.failed.append(name)
            result = None
        spent = time.perf_counter() - t0
        self.calls.setdefault(name, []).append(spent)
        self.times[name] = self.times.get(name, 0.0) + weight * spent
        return result

    def unit(self, key: str, u: Unit, weight: float) -> None:
        fn = u.fn if u.args is None else (lambda: self._spawn(u.op, u.args))
        result = self.op(u.op, fn, weight)
        self.keyed.setdefault(key, []).append(self.calls[u.op][-1])
        if result is None:
            return
        if u.item is not None:
            self.work[key] = u.count(result) if callable(u.count) else u.count
        digest = hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            self.failed.append(f"{key}: result differs between calls")

    def cli(self, name: str, args: list) -> None:
        self.op(name, lambda: self._spawn(name, [str(a) for a in args]))

    def _spawn(self, name: str, args: list[str]) -> bool:
        env = dict(os.environ)
        trace_file = None
        if self.tracer is not None and self.tracer.active:
            trace_file = self.out / f".spans-{name.replace(':', '_').replace(' ', '_')}.json"
            env["PERFBENCH_TRACE_OUT"] = str(trace_file)
        log = self.out / ".cli.log"
        with open(log, "w", encoding="utf-8") as logf:
            env["PERFBENCH_SPAWN_T"] = repr(time.perf_counter())
            child = subprocess.Popen(
                [sys.executable, str(CLI_DRIVER), *args],
                cwd=ROOT, env=env, stdout=logf, stderr=subprocess.STDOUT,
            )
            _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
        if trace_file is not None and trace_file.exists():
            data = json.loads(trace_file.read_text(encoding="utf-8"))
            trace_file.unlink()
            self.cli_startups.append(data["startup_s"])
            for span in data["spans"]:
                span[5] = name
                if span[6] and "pair" in span[6]:
                    span[6]["pair"] = tuple(span[6]["pair"])
            self.child_spans.append(data["spans"])
        if child.returncode != 0:
            raise RuntimeError(f"{name} exited {child.returncode}: {log.read_text(encoding='utf-8')[-2000:]}")
        return True


# --- rounds -------------------------------------------------------------------


def reps_from(warmup: Pass, ops: dict[str, list[Unit]], stage_ops: set[str]) -> dict[str, int]:
    """Calls per round of each operation, from its warm-up call's time."""
    reps = {}
    for name, units in ops.items():
        spent = warmup.times.get(name)
        if name not in stage_ops or len(units) > 1 or not spent:
            reps[name] = 1
        else:
            reps[name] = max(1, min(MAX_REPS, math.ceil(STAGE_OP_SECONDS / spent)))
    return reps


def schedule(ops: dict[str, list[Unit]], reps: dict[str, int]) -> list[tuple[str, Unit, float]]:
    """Every call of a round as (key, unit, weight), interleaved evenly.

    The i-th of an operation's n calls sits at (i + phase) / n, where the
    phase (0 to 1) staggers operations in the order they are listed, so a
    round of single calls keeps that order.
    """
    placed = []
    for rank, (name, units) in enumerate(ops.items()):
        phase = (rank + 0.5) / len(ops)
        r = reps[name]
        calls = [(f"{name}#{j}", u) for j, u in enumerate(units) for _ in range(r)]
        for i, (key, u) in enumerate(calls):
            placed.append(((i + phase) / len(calls), rank, key, u, 1.0 / r))
    placed.sort(key=lambda e: (e[0], e[1]))
    return [(key, u, weight) for _, _, key, u, weight in placed]


def run_round(p: Pass, calls: list[tuple[str, Unit, float]], deadline: float | None = None) -> None:
    """Make the calls in order; past ``deadline`` the round is cut short
    (``p.cut``), so the measuring time does not depend on how many whole
    rounds fit in it."""
    for key, u, weight in calls:
        if deadline is not None and time.perf_counter() >= deadline:
            p.cut = True
            break
        p.unit(key, u, weight)
    p.stop()


def _chunks(seq: list, size: int) -> list[list]:
    return [seq[i : i + size] for i in range(0, len(seq), size)]


# --- library workloads --------------------------------------------------------


def _subset(queries: corpus.QuerySet, ids: list[str]) -> corpus.QuerySet:
    return corpus.QuerySet([queries.get(qid) for qid in ids])


def _head(run: runs.RankedRun, qids: list[str]) -> runs.RankedRun:
    return runs.RankedRun(run.name, run.stage, {q: run.results[q] for q in qids})


def _dense_run(qv, pv, qids: list[str], k: int) -> runs.RankedRun:
    run = runs.RankedRun(name="dense", stage="dense-retrieval")
    for qid in qids:
        run.results[qid] = rankers.dense_retrieve(pv, qv.vector(qid), k)
    return run


def _load_embeddings(f: dict) -> tuple:
    return (
        embeddings.load_vectors(f["query_vectors"]),
        embeddings.load_vectors(f["passage_vectors"]),
        embeddings.load_token_matrices(f["query_matrices"]),
        embeddings.load_token_matrices(f["passage_matrices"]),
    )


def _pairs(run: runs.RankedRun, depth: int) -> int:
    return sum(min(depth, len(e)) for e in run.results.values())


HEADS = ("dense", "kernel", "colbert")


def _library_calls(shape: dict, f: dict, seed: int, s: SimpleNamespace, out: Path, neural: bool) -> dict:
    """Every operation as a call on the state ``s``; the operations a round
    splits into chunks take their chunk of queries (or of the run)."""
    first_stage = f["bm25_run"] if neural else out / "bm25.trec"
    depth = shape["rerank_depth"]
    calls = {
        "load_collection": lambda: corpus.load_collection(f["collection"]),
        "load_queries": lambda: corpus.load_queries(f["queries"], "train"),
        "load_splits": lambda: evaluation.load_splits(f["splits"]),
        "build_qrels": lambda: corpus.build_qrels_from_clicks(corpus.load_clicks(f["clicks"]), "dctr"),
        "read_run": lambda: runs.read_run(first_stage),
        "read_triples": lambda: triples.read_triples(f["triples"]),
        "build_index": lambda: bm25.build_index(s.index_store),
        "index_save": lambda: s.index.save(out / "index"),
        "index_load": lambda: bm25.InvertedIndex.load(out / "index"),
        "batch_search": lambda qs: bm25.batch_search(s.index, qs, shape["k"]),
        "write_run": lambda: runs.write_run(s.run, out / "bm25.trec"),
        "generate_triples": lambda qs: triples.generate_triples(qs, s.qrels, s.index, s.sampling),
        "load_embeddings": lambda: _load_embeddings(f),
        "dense_retrieve": lambda ids: _dense_run(s.qv, s.pv, ids, shape["dense_k"]),
        "train_kernel": lambda: rankers.train_kernel_weights(
            s.train_set, s.qm, s.pm, s.bank, epochs=shape["epochs"], seed=seed
        ),
        "depth_sweep": lambda top: evaluation.depth_sweep(top, s.scorers["kernel"], shape["sweep_depths"], s.qrels),
        "fuse_runs": lambda: evaluation.fuse_runs(s.fuse_inputs),
        "evaluate_run": lambda: {name: evaluation.evaluate_run(r, s.qrels, s.splits) for name, r in s.evaluated},
    }
    for name in HEADS:
        calls[f"rerank_{name}"] = lambda top, name=name: rankers.rerank(top, depth, s.scorers[name])
    return calls


def library_warmup(p: Pass, shape: dict, f: dict, seed: int, neural: bool) -> SimpleNamespace:
    """The workload once, each call after the last; returns the state the
    rounds call on. ``neural`` starts from set-up's first-stage run and
    triples, and its BM25 calls work on a probe index over the first
    ``probe_passages`` passages, so they stay a small share of the round
    and every end-to-end metric exists."""
    out = p.out
    s = SimpleNamespace()
    c = s.calls = _library_calls(shape, f, seed, s, out, neural)
    s.store = p.op("load_collection", c["load_collection"])
    s.queries = p.op("load_queries", c["load_queries"])
    s.splits = p.op("load_splits", c["load_splits"])
    s.qrels = p.op("build_qrels", c["build_qrels"])
    ids = sorted(s.queries.ids)
    if neural:
        s.first = p.op("read_run", c["read_run"])
        s.train = p.op("read_triples", c["read_triples"])
        n = shape["probe_passages"]
        s.index_store = corpus.PassageStore(corpus.Passage(pid, s.store.text(pid)) for pid in s.store.ids[:n])
        s.searched = _subset(s.queries, ids[: shape["probe_queries"]])
    else:
        s.index_store = s.store
        s.searched = _subset(s.queries, ids[: shape["bm25_queries"]])
    s.sampling = triples.SamplingConfig(shape["triples_depth"], shape["max_neg"], shape["cap"], seed)
    s.index = p.op("build_index", c["build_index"])
    p.op("index_save", c["index_save"])
    s.index = p.op("index_load", c["index_load"])
    s.run = p.op("batch_search", lambda: c["batch_search"](s.searched))
    s.report = p.op("generate_triples", lambda: c["generate_triples"](s.searched))
    if not neural:
        p.op("write_run", c["write_run"])
        s.first = p.op("read_run", c["read_run"])
        s.train = s.report.triples if s.report else None
    s.qv, s.pv, s.qm, s.pm = p.op("load_embeddings", c["load_embeddings"]) or (None,) * 4
    s.dense_ids = ids[: shape["dense_queries"]]
    s.dense = p.op("dense_retrieve", lambda: c["dense_retrieve"](s.dense_ids))
    s.bank = rankers.KernelBank.default()
    s.train_set = s.train[: shape["train_triples"]] if s.train else None
    s.trained = p.op("train_kernel", c["train_kernel"])
    s.top_ids = sorted(s.first.query_ids)[: shape["rerank_queries"]] if s.first else []
    s.top = _head(s.first, s.top_ids) if s.first else None
    s.scorers = {
        "dense": rankers.DenseScorer(s.qv, s.pv),
        "kernel": rankers.KernelScorer(s.qm, s.pm, s.bank, s.trained[0]) if s.trained else None,
        "colbert": rankers.LateInteractionScorer(s.qm, s.pm),
    }
    s.reranked = {name: p.op(f"rerank_{name}", lambda name=name: c[f"rerank_{name}"](s.top)) for name in HEADS}
    s.sweep = p.op("depth_sweep", lambda: c["depth_sweep"](s.top))
    s.fuse_inputs = [s.reranked["kernel"], s.reranked["colbert"], s.reranked["dense"]]
    s.fused = p.op("fuse_runs", c["fuse_runs"])
    s.evaluated = [("bm25", s.first), ("dense", s.dense), ("fused", s.fused)]
    s.reports = p.op("evaluate_run", c["evaluate_run"])
    s.cli_args = [
        str(a) for a in ("index", "search", "--index", out / "index", "--queries", f["cli_queries"],
                         "--k", shape["cli_k"], "--out", out / "cli_bm25.trec")
    ]
    p.cli("cli:index search", s.cli_args)
    p.stop()
    s.order = list(p.calls)

    # untimed: write what the warm-up produced, for digests and checks
    writers = [
        (s.run if neural else None, lambda: runs.write_run(s.run, out / "bm25.trec")),
        (s.report, lambda: triples.write_triples(s.report.triples, out / "triples.tsv")),
        (s.trained, lambda: rankers.write_weights(s.bank, s.trained[0], out / "weights.txt")),
        (s.dense, lambda: runs.write_run(s.dense, out / "dense.trec")),
        (s.fused, lambda: runs.write_run(s.fused, out / "fused.trec")),
        (s.sweep, lambda: evaluation.write_sweep_table(s.sweep, out / "sweep.tsv")),
    ]
    for name, r in s.reranked.items():
        writers.append((r, lambda r=r, name=name: runs.write_run(r, out / f"rerank_{name}.trec")))
    for name, r in (s.reports or {}).items():
        writers.append((r, lambda r=r, name=name: evaluation.write_report(r, out / f"report_{name}.tsv")))
    for value, write in writers:
        if value is not None:
            write()
    return s


def library_units(shape: dict, s: SimpleNamespace) -> dict[str, list[Unit]]:
    """The calls of one round, by operation, in the warm-up's order."""
    c, chunk, depth = s.calls, shape["chunk"], shape["rerank_depth"]
    searches = [_subset(s.searched, ids) for ids in _chunks(sorted(s.searched.ids), chunk["search"])]
    tops = [_head(s.top, ids) for ids in _chunks(s.top_ids, chunk["rerank"])]
    chunked = {
        "batch_search": [Unit("batch_search", partial(c["batch_search"], qs), "bm25_queries", len(qs)) for qs in searches],
        "generate_triples": [
            Unit("generate_triples", partial(c["generate_triples"], qs), "triples", lambda r: len(r.triples))
            for qs in searches
        ],
        "dense_retrieve": [
            Unit("dense_retrieve", partial(c["dense_retrieve"], ids), "dense_queries", len(ids))
            for ids in _chunks(s.dense_ids, chunk["dense"])
        ],
        "depth_sweep": [Unit("depth_sweep", partial(c["depth_sweep"], top)) for top in tops],
    }
    for name in HEADS:
        item = "pairs" if name != "dense" else None
        chunked[f"rerank_{name}"] = [
            Unit(f"rerank_{name}", partial(c[f"rerank_{name}"], top), item, _pairs(top, depth)) for top in tops
        ]
    ops = {}
    for name in s.order:
        if name == "cli:index search":
            ops[name] = [Unit(name, args=s.cli_args)]
        else:
            ops[name] = chunked.get(name) or [Unit(name, c[name])]
    return ops


# --- cli-artifacts --------------------------------------------------------------


def cli_commands(shape: dict, f: dict, seed: int, out: Path) -> list[tuple[str, list]]:
    """The README pipeline, one ``clickrank`` command per entry."""
    index = out / "index"
    qrels = out / "qrels.trec"
    matrices = ["--query-matrices", f["query_matrices"], "--passage-matrices", f["passage_matrices"]]
    depth = shape["rerank_depth"]
    commands = [
        ("index build", ["index", "build", "--collection", f["collection"], "--out", index]),
        ("index search", ["index", "search", "--index", index, "--queries", f["cli_queries"], "--k", shape["k"],
                          "--out", out / "bm25.trec"]),
        ("qrels build", ["qrels", "build", "--clicks", f["clicks"], "--out", qrels]),
        ("triples generate", ["triples", "generate", "--index", index, "--queries", f["cli_queries"], "--qrels", qrels,
                              "--depth", shape["triples_depth"], "--max-neg", shape["max_neg"], "--cap", shape["cap"],
                              "--seed", seed, "--out", out / "triples.tsv"]),
        ("train kernel", ["train", "kernel", "--triples", out / "triples.tsv", *matrices, "--epochs", shape["epochs"],
                          "--seed", seed, "--out", out / "weights.txt", "--telemetry", out / "telemetry.json"]),
    ]
    for scorer in ("kernel", "colbert"):
        weights = ["--weights", out / "weights.txt"] if scorer == "kernel" else []
        commands.append((f"rerank {scorer}", ["rerank", "--run", out / "bm25.trec", "--depth", depth, "--scorer", scorer,
                                              *matrices, *weights, "--out", out / f"rerank_{scorer}.trec"]))
    commands += [
        ("dense retrieve", ["dense", "retrieve", "--query-vectors", f["query_vectors"], "--passage-vectors",
                            f["passage_vectors"], "--k", shape["dense_k"], "--out", out / "dense.trec"]),
        ("fuse", ["fuse", "--runs", out / "rerank_kernel.trec", out / "rerank_colbert.trec", out / "dense.trec",
                  "--out", out / "fused.trec"]),
        ("eval", ["eval", "--run", out / "fused.trec", "--qrels", qrels, "--splits", f["splits"],
                  "--out", out / "report.tsv", "--json", out / "report.json"]),
        ("sweep", ["sweep", "--run", out / "bm25.trec", "--qrels", qrels, "--depths",
                   ",".join(map(str, shape["sweep_depths"])), "--scorer", "kernel", *matrices,
                   "--weights", out / "weights.txt", "--out", out / "sweep.tsv"]),
    ]
    return [(f"cli:{name}", [str(a) for a in args]) for name, args in commands]


def cli_warmup(p: Pass, shape: dict, f: dict, seed: int) -> SimpleNamespace:
    """The pipeline once, then the library reading back what it wrote, as a
    notebook user would; returns what the rounds need."""
    out = p.out
    s = SimpleNamespace(commands=cli_commands(shape, f, seed, out))
    s.calls = {
        "index_load": lambda: bm25.InvertedIndex.load(out / "index"),
        "load_embeddings": lambda: _load_embeddings(f),
    }
    for name, args in s.commands:
        p.cli(name, args)
    for name, call in s.calls.items():
        p.op(name, call)
    p.stop()
    bm25_run = checks.read_trec_run(out / "bm25.trec") if (out / "bm25.trec").exists() else {}
    pairs = ("pairs", sum(min(shape["rerank_depth"], len(e)) for e in bm25_run.values()))
    dense_queries = len(checks.read_trec_run(out / "dense.trec")) if (out / "dense.trec").exists() else 0
    s.counted = {
        "cli:index search": ("bm25_queries", len(bm25_run)),
        "cli:triples generate": ("triples", _lines(out / "triples.tsv")),
        "cli:dense retrieve": ("dense_queries", dense_queries),
        "cli:rerank kernel": pairs,
        "cli:rerank colbert": pairs,
    }
    return s


def cli_units(s: SimpleNamespace) -> dict[str, list[Unit]]:
    """One call per command and read-back per round, in the warm-up's order."""
    ops = {}
    for name, args in s.commands:
        item, count = s.counted.get(name, (None, None))
        ops[name] = [Unit(name, item=item, count=count, args=args)]
    for name, call in s.calls.items():
        ops[name] = [Unit(name, call)]
    return ops


def _lines(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def digests(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): sha256_file(path)
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.startswith(".")
    }
