"""Set-up step, run as its own process: generate and write one seeded fixture.

Usage: python3 perfbench/fixture.py WORKLOAD SEED SCALE OUT_DIR

Sets up once: generates the fixture with
``clickrank.synth.generate_fixture`` and writes it; for a workload whose shape has ``first_stage_queries`` (neural)
it then builds the BM25 index from the written collection, searches those
queries and mines training triples from the result, so that the timed phase
starts from a first-stage run, as a re-ranking user would.

Prints one JSON object: the set-up's times, the digest of every file it
wrote, the bytes the fixture takes and the paths of the files. The benchmark
sets up several times per run (run.py); keeping set-up out of the timed
process keeps its memory out of ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from shapes import ROOT, shape_for, use_checkout_package, sha256_file

def first_stage(shape: dict, paths: dict, out: Path, seed: int) -> None:
    from clickrank import bm25, corpus, runs, triples

    store = corpus.load_collection(paths["collection"])
    queries = corpus.load_queries(paths["queries"], "train")
    searched = corpus.QuerySet([queries.get(q) for q in sorted(queries.ids)[: shape["first_stage_queries"]]])
    index = bm25.build_index(store)
    paths["index"] = out / "index"
    index.save(paths["index"])
    run = bm25.batch_search(index, searched, shape["k"])
    paths["bm25_run"] = out / "bm25.trec"
    runs.write_run(run, paths["bm25_run"])
    sampling = triples.SamplingConfig(shape["triples_depth"], shape["max_neg"], shape["cap"], seed)
    report = triples.generate_triples(searched, corpus.load_qrels(paths["qrels"]), index, sampling)
    paths["triples"] = out / "triples.tsv"
    triples.write_triples(report.triples, paths["triples"])


def set_up(shape: dict, seed: int, out: Path) -> tuple[dict, dict, int]:
    from clickrank.synth import FixtureSpec, generate_fixture

    spec = FixtureSpec(
        n_passages=shape["passages"],
        n_queries=shape["queries"],
        max_relevant_per_query=shape["max_relevant"],
        term_dim=shape["term_dim"],
        seed=seed,
    )
    t0 = time.perf_counter()
    fixture = generate_fixture(spec)
    t1 = time.perf_counter()
    paths = fixture.write(out)
    # the handful of queries the CLI commands search, in id order
    cli_ids = sorted(q.id for q in fixture.queries)[: shape["cli_queries"]]
    paths["cli_queries"] = out / "queries_cli.tsv"
    with open(paths["cli_queries"], "w", encoding="utf-8", newline="\n") as f:
        for qid in cli_ids:
            f.write(f"{qid}\t{fixture.queries.text(qid)}\n")
    t2 = time.perf_counter()
    synth_bytes = sum(p.stat().st_size for p in paths.values())
    if "first_stage_queries" in shape:
        first_stage(shape, paths, out, seed)
    t3 = time.perf_counter()
    times = {"generate_s": t1 - t0, "write_s": t2 - t1, "first_stage_s": t3 - t2, "setup_s": t3 - t0}
    return times, paths, synth_bytes


def files(paths: dict) -> list[Path]:
    found = []
    for p in paths.values():
        p = Path(p)
        found.extend(sorted(x for x in p.iterdir() if x.is_file()) if p.is_dir() else [p])
    return found


def main(argv: list[str]) -> int:
    workload, seed, scale, out = argv[0], int(argv[1]), argv[2], Path(argv[3])
    use_checkout_package()
    times, paths, synth_bytes = set_up(shape_for(workload, scale), seed, out)
    times["digests"] = {str(p.relative_to(out)): sha256_file(p) for p in files(paths)}
    times["bytes_written"] = synth_bytes
    times["paths"] = {k: str(Path(p).relative_to(ROOT)) for k, p in paths.items()}
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
