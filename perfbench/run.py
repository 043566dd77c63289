"""clickrank benchmark: one workload, one seed, a fixed measuring time.

Usage:
    python3 perfbench/run.py --workload {lexical,neural,cli-artifacts} \
        --seed N --seconds S --trace {0,1} [--scale tiny] [--corrupt]

Run from the root of a clickrank checkout; the package is imported from its
``src`` directory. A run:

1. sets up in a child process (fixture.py): the seed drives
   ``clickrank.synth.generate_fixture``, and the program only ever sees the
   written files. It sets up again after each of the first rounds of step 2,
   so the set-ups spread over the run like the rounds do; ``setup_s`` is the
   mean of the SETUPS set-ups, and every set-up must write identical files.
2. in this process, runs one warm-up pass of the workload, then rounds of
   interleaved calls for ``--seconds`` (workloads.py); the last round is cut
   short when the time is up. An operation's time sums, over its call keys,
   the mean time of that key's calls, and a rate is the work of those keys
   over that time; the set-ups between rounds do not count towards
   ``--seconds``. With ``--trace 1`` every other round is traced
   (spans.py); the difference in round time between whole traced and
   untraced rounds is the tracing overhead.
3. checks the warm-up's artifacts (checks.py) and that every round
   reproduced them and the first round's call results.
4. prints every end-to-end metric (``--trace 0``) or every per-layer metric
   (``--trace 1``) named in BENCHMARK.json, then the result as one JSON line.

``--scale tiny`` and ``--corrupt`` serve the smoke check (smoke.py) only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from shapes import BLAS_THREADS, ROOT, SHAPES, shape_for, use_checkout_package

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 2
# set-ups per run: the first, then one after each of the first three rounds
SETUPS = 4
BM25_CHECK_SAMPLE = 3
RESULTS = ROOT / ".perfbench" / "results"

# end-to-end metric -> (item counted, library operations, CLI operation)
STAGES = {
    "index_build_s": (None, ("build_index", "index_save"), "cli:index build"),
    "index_load_s": (None, ("index_load",), None),
    "bm25_qps": ("bm25_queries", ("batch_search",), "cli:index search"),
    "triples_per_s": ("triples", ("generate_triples",), "cli:triples generate"),
    "dense_qps": ("dense_queries", ("dense_retrieve",), "cli:dense retrieve"),
    "rerank_kernel_pairs_per_s": ("pairs", ("rerank_kernel",), "cli:rerank kernel"),
    "rerank_colbert_pairs_per_s": ("pairs", ("rerank_colbert",), "cli:rerank colbert"),
    "train_kernel_s": (None, ("train_kernel",), "cli:train kernel"),
    "sweep_s": (None, ("depth_sweep",), "cli:sweep"),
    "embed_load_s": (None, ("load_embeddings",), None),
    "cli_search_s": (None, ("cli:index search",), None),
}

CLI_COMMANDS = (
    "index build", "index search", "qrels build", "triples generate", "train kernel",
    "rerank kernel", "rerank colbert", "dense retrieve", "fuse", "eval", "sweep",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--corrupt", action="store_true", help="damage one output before the checks")
    return parser.parse_args(argv)


def environment(args, rounds: int, calls_per_round: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "rounds": rounds,
        "calls_per_round": calls_per_round,
    }


def run_setup(args, out: Path) -> dict:
    """Set up in a child process; returns its record (see fixture.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "fixture.py"), args.workload, str(args.seed), args.scale, str(out)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(rounds, setups, rss_kb) -> dict[str, float]:
    """An operation's time is the sum over its call keys (one per chunk) of
    the mean time of that key's calls in the untraced rounds, the cut last
    round included; ``wall_s`` sums all operations, and a rate is the work of
    the operation's keys over its time. Means, not medians: a shared host's
    speed can change by 1.7x for seconds at a time, and a median of a few
    calls jumps with it where a mean moves with the share of slow ones.
    ``setup_s`` is the mean of the set-ups for the same reason."""
    calls, work = {}, {}
    for p in rounds:
        if not p.traced:
            for key, spent in p.keyed.items():
                calls.setdefault(key, []).extend(spent)
            work.update(p.work)
    op_time, op_work = {}, {}
    for key, spent in calls.items():
        op = key.rsplit("#", 1)[0]
        op_time[op] = op_time.get(op, 0.0) + statistics.fmean(spent)
        op_work[op] = op_work.get(op, 0.0) + work.get(key, 0.0)
    m = {
        "setup_s": statistics.fmean(s["setup_s"] for s in setups),
        "wall_s": sum(op_time.values()),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    for name, (item, lib, cli) in STAGES.items():
        ops = lib if lib[0] in op_time else (cli,)
        seconds = sum(op_time.get(op, 0.0) for op in ops)
        if item is None:
            m[name] = seconds
        else:
            m[name] = sum(op_work.get(op, 0.0) for op in ops) / seconds if seconds > 0 else 0.0
    return m


def merged_spans(p) -> list[list]:
    """The round's own spans plus its CLI children's, parent links re-based."""
    out = list(p.spans)
    for child in p.child_spans:
        offset = len(out)
        for s in child:
            s = list(s)
            if s[4] is not None:
                s[4] += offset
            out.append(s)
    return out


def per_layer(rounds, setups, failed_frac: float) -> dict[str, float]:
    import spans

    traced = [p for p in rounds if p.traced and not p.cut]
    untraced = [p for p in rounds if not p.traced and not p.cut]
    all_spans = [merged_spans(p) for p in traced]
    per_round = [spans.pass_layer_metrics(s) for s in all_spans]
    m = {key: statistics.median(pm[key] for pm in per_round) for key in per_round[0]}
    pooled = [s for ss in all_spans for s in ss]
    m.update(spans.tail_metrics("bm25.search", spans.call_durations_ms(pooled, "bm25.InvertedIndex.search")))
    m.update(spans.tail_metrics("rankers.dense", spans.call_durations_ms(pooled, "rankers.dense_retrieve")))
    m["synth.generate_s"] = statistics.fmean(s["generate_s"] for s in setups)
    m["synth.write_s"] = statistics.fmean(s["write_s"] for s in setups)
    m["synth.bytes_written"] = float(setups[0]["bytes_written"])
    startups = [t for p in traced for t in p.cli_startups]
    m["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    for command in CLI_COMMANDS:
        key = "cli." + command.replace(" ", "_") + "_s"
        m[key] = statistics.median(p.times.get(f"cli:{command}", 0.0) for p in traced)
    m["failed_frac"] = failed_frac
    m["trace.overhead_s"] = statistics.fmean(p.wall for p in traced) - statistics.fmean(p.wall for p in untraced)
    return m, all_spans


def run_checks(args, shape, fixture, out) -> dict[str, list[str]]:
    import checks

    if args.corrupt:
        checks.corrupt_run(out / "dense.trec")
    library = shape["interface"] == "library"
    queries = fixture["queries"] if library else fixture["cli_queries"]
    depth = shape["rerank_depth"]
    todo = {
        "bm25": lambda: checks.check_bm25(out / "bm25.trec", out / "index", queries, shape["k"], BM25_CHECK_SAMPLE, args.seed),
        "dense": lambda: checks.check_dense(out / "dense.trec", fixture["query_vectors"], fixture["passage_vectors"], shape["dense_k"]),
        "triples": lambda: checks.check_triples(out / "triples.tsv", out / "bm25.trec", fixture["qrels"], shape["triples_depth"]),
    }
    # neural re-ranks set-up's first-stage run; its own BM25 run is the probe's
    first = fixture.get("bm25_run", out / "bm25.trec")
    if "bm25_run" in fixture:
        todo["setup_bm25"] = lambda: checks.check_bm25(first, fixture["index"], queries, shape["k"], BM25_CHECK_SAMPLE, args.seed)
        todo["setup_triples"] = lambda: checks.check_triples(fixture["triples"], first, fixture["qrels"], shape["triples_depth"])
    for scorer in ("dense", "kernel", "colbert") if library else ("kernel", "colbert"):
        todo[f"rerank_{scorer}"] = lambda s=scorer: checks.check_permutation(out / f"rerank_{s}.trec", first, depth)
    if library:
        todo["cli_bm25"] = lambda: checks.check_bm25(out / "cli_bm25.trec", out / "index", fixture["cli_queries"], shape["cli_k"], BM25_CHECK_SAMPLE, args.seed)
    results = {}
    for name, check in todo.items():
        try:
            results[name] = check()
        except Exception as exc:  # a check that cannot read its inputs is a failed check
            results[name] = [f"{type(exc).__name__}: {exc}"]
    return results


def timed_phase(args, shape: dict, fixture: dict, out: Path, tracer, between):
    """The warm-up pass, then rounds until the next would end ``--seconds``
    after the first began; ``between`` runs after each round, off the clock."""
    import workloads

    warm = workloads.Pass(out, tracer)
    if args.workload == "cli-artifacts":
        ops = workloads.cli_units(workloads.cli_warmup(warm, shape, fixture, args.seed))
    else:
        state = workloads.library_warmup(warm, shape, fixture, args.seed, neural=args.workload == "neural")
        ops = workloads.library_units(shape, state)
    warm.out_digests = workloads.digests(out)
    stage_ops = {op for _, lib, cli in STAGES.values() for op in (*lib, cli) if op}
    plain = workloads.schedule(ops, workloads.reps_from(warm, ops, stage_ops))
    # a traced round calls every operation once, so its spans add up to one
    # execution of the workload
    once = workloads.schedule(ops, {name: 1 for name in ops})
    # what the warm-up left in memory is never collected again; the
    # collections before each call then only walk what the round allocates
    gc.collect()
    gc.freeze()
    rounds = []
    paused = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - paused
        if len(rounds) >= MIN_ROUNDS and elapsed >= args.seconds:
            break
        # the first MIN_ROUNDS rounds run whole; a later one stops when the
        # measuring time is up
        deadline = time.perf_counter() + args.seconds - elapsed if len(rounds) >= MIN_ROUNDS else None
        p = workloads.Pass(out, tracer)
        p.traced = bool(args.trace) and len(rounds) % 2 == 1
        if tracer is not None:
            tracer.take()
            tracer.active = p.traced
        t0 = time.perf_counter()
        try:
            workloads.run_round(p, once if p.traced else plain, deadline)
        except Exception:  # the round could not go on; what it did so far still counts
            traceback.print_exc(file=sys.stderr)
            p.failed.append("round")
            p.stop()
        p.spans = tracer.take() if p.traced else []
        p.out_digests = workloads.digests(out)
        p.total = time.perf_counter() - t0
        rounds.append(p)
        t1 = time.perf_counter()
        between()
        paused += time.perf_counter() - t1
    gc.unfreeze()
    return warm, rounds, len(plain)


def measure(args, bench: dict, shape: dict, work: Path) -> int:
    import spans

    setups = [run_setup(args, work / "setup")]
    fixture = {key: ROOT / rel for key, rel in setups[0]["paths"].items()}

    def set_up_again():
        if len(setups) >= SETUPS:
            return
        again = work / "setup-again"
        shutil.rmtree(again, ignore_errors=True)
        setups.append(run_setup(args, again))

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    out = work / "out"
    out.mkdir()
    warm, rounds, calls_per_round = timed_phase(args, shape, fixture, out, tracer, set_up_again)
    rss_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss] + [p.child_maxrss_kb for p in [warm, *rounds]])

    attempted = len(setups)
    failed = sum(1 for s in setups[1:] if s["digests"] != setups[0]["digests"])
    # every call, then one comparison per round of its results and of the
    # output directory with the first round's and the warm-up's
    attempted += sum(len(c) for c in warm.calls.values()) + sum(len(c) for p in rounds for c in p.calls.values())
    attempted += 2 * len(rounds)
    failed += len(warm.failed) + sum(len(p.failed) for p in rounds)
    failed += sum(1 for p in rounds if any(rounds[0].digests.get(k) != d for k, d in p.digests.items()))
    failed += sum(1 for p in rounds if p.out_digests != warm.out_digests)
    check_errors = run_checks(args, shape, fixture, out)
    attempted += len(check_errors)
    failed += sum(1 for errors in check_errors.values() if errors)
    for name, errors in check_errors.items():
        for error in errors:
            print(f"check {name} failed: {error}", file=sys.stderr)

    if args.trace:
        computed, all_spans = per_layer(rounds, setups, failed / attempted)
        listed = bench["per_layer"]
    else:
        computed, all_spans = end_to_end(rounds, setups, rss_kb), None
        listed = bench["end_to_end"]
    metrics = {}
    for entry in listed:
        metrics[entry["name"]] = {"value": float(computed[entry["name"]]), "unit": entry["unit"]}
        print(f"{entry['name']:34s} {computed[entry['name']]:>16.6f} {entry['unit']:8s} {entry.get('better', '')}")

    env = environment(args, len(rounds), calls_per_round)
    print("environment: " + json.dumps(env, sort_keys=True))
    print("output digests: " + json.dumps(warm.out_digests, sort_keys=True))
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "setups": [{k: v for k, v in s.items() if k != "paths"} for s in setups],
        "output_digests": warm.out_digests,
        "checks": check_errors,
        "warmup": {"calls": warm.calls, "failed": warm.failed},
        "rounds": [
            {"traced": p.traced, "wall_s": p.wall, "total_s": p.total, "cut": p.cut, "times": p.times,
             "keyed": p.keyed, "work": p.work, "failed": p.failed}
            for p in rounds
        ],
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if all_spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(all_spans), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_package()
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        raise SystemExit(f"error: {bench_file} not found")
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    import clickrank.cli  # noqa: F401  every package module is loaded before tracing wraps them

    shape = shape_for(args.workload, args.scale)
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, bench, shape, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
