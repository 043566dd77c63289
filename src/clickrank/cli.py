"""Command-line pipeline driver.

Subcommands: index build|search, qrels build, triples generate|text, rerank,
dense retrieve, train kernel, eval, fuse, sweep, synth. Every command that
produces artifacts also writes a reproducibility manifest next to them.

A JSON config file (``--config``) may preseed any option, including input
and output paths under a "paths" section; explicit flags always win, and
``--seed`` is accepted globally as well as per subcommand. Exit codes:
0 success, 1 runtime failure (one-line ``error: ...`` on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .bm25 import DEFAULT_B, DEFAULT_K1, InvertedIndex, batch_search, build_index
from .corpus import (
    DEFAULT_CTR_THRESHOLDS,
    build_qrels_from_clicks,
    load_clicks,
    load_collection,
    load_qrels,
    load_queries,
    write_qrels,
)
from .embeddings import load_token_matrices, load_vectors
from .evaluation import (
    evaluate_run,
    fuse_runs,
    load_splits,
    sweep_table,
    write_report,
    write_report_json,
    write_sweep_table,
)
from .manifest import manifest_path_for, write_manifest
from .rankers import (
    DenseScorer,
    ExternalScoreScorer,
    GradeOracleScorer,
    KernelBank,
    KernelScorer,
    LateInteractionScorer,
    MissingEmbeddingError,
    dense_retrieve,
    load_weights,
    rerank,
    score_candidates,
    train_kernel_weights,
    write_weights,
)
from .runs import RankedRun, read_run, write_run
from .synth import FixtureSpec, generate_fixture
from .triples import (
    SamplingConfig,
    generate_triples,
    read_triples,
    write_text_triples,
    write_triples,
)


class CommandError(Exception):
    """Raised for runtime failures; reported as one line on stderr."""


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise CommandError(f"config file not found: {p}")
    try:
        config = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CommandError(f"config file {p} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise CommandError(f"config file {p} must hold a JSON object")
    return config


def _cfg(cli_value, config: dict, section: str, key: str, default):
    """Resolution order: explicit flag, config file entry, built-in default."""
    if cli_value is not None:
        return cli_value
    return config.get(section, {}).get(key, default)


# flags whose values the config file's "paths" section may preseed
_PATH_KEYS = (
    "collection",
    "queries",
    "qrels",
    "clicks",
    "index",
    "run",
    "triples",
    "splits",
    "scores",
    "weights",
    "stopwords",
    "query_vectors",
    "passage_vectors",
    "query_matrices",
    "passage_matrices",
    "out",
)


def _apply_config_paths(args, config: dict) -> None:
    paths = config.get("paths", {})
    for key in _PATH_KEYS:
        if hasattr(args, key) and getattr(args, key) is None and key in paths:
            setattr(args, key, str(paths[key]))


def _arg(args, name: str, what: str) -> str:
    value = getattr(args, name, None)
    if value is None:
        raise CommandError(
            f"missing {what}: pass --{name.replace('_', '-')} or set paths.{name} in the config"
        )
    return value


def _seed(args, config: dict, section: str) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    if getattr(args, "global_seed", None) is not None:
        return int(args.global_seed)
    return int(config.get(section, {}).get("seed", 0))


def _require(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.exists():
        raise CommandError(f"{what} not found: {path}")
    return path


def _input(args, name: str, what: str) -> Path:
    return _require(_arg(args, name, what), what)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise CommandError(f"expected a comma-separated integer list, got {text!r}") from None


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError:
        raise CommandError(f"expected a comma-separated float list, got {text!r}") from None


def _kernel_bank(args, config: dict) -> KernelBank:
    mus = _float_list(args.mus) if getattr(args, "mus", None) else config.get(
        "kernel_bank", {}
    ).get("mus")
    sigmas = _float_list(args.sigmas) if getattr(args, "sigmas", None) else config.get(
        "kernel_bank", {}
    ).get("sigmas")
    if mus is None and sigmas is None:
        return KernelBank.default()
    if mus is None or sigmas is None:
        raise CommandError("kernel bank needs both centers and widths")
    return KernelBank(tuple(mus), tuple(sigmas))


def _matrix_inputs(args) -> dict[str, Path]:
    return {
        "query_matrices": _require(args.query_matrices, "query matrices"),
        "passage_matrices": _require(args.passage_matrices, "passage matrices"),
    }


def _build_scorer(args, config: dict):
    """The scorer the flags select, and the files it read by manifest input name."""
    kind = args.scorer
    if kind == "dense":
        if not (args.query_vectors and args.passage_vectors):
            raise CommandError("dense scorer needs --query-vectors and --passage-vectors")
        inputs = {
            "query_vectors": _require(args.query_vectors, "query vectors"),
            "passage_vectors": _require(args.passage_vectors, "passage vectors"),
        }
        scorer = DenseScorer(
            load_vectors(inputs["query_vectors"]),
            load_vectors(inputs["passage_vectors"]),
            similarity=args.similarity or "dot",
        )
        return scorer, inputs
    if kind == "colbert":
        if not (args.query_matrices and args.passage_matrices):
            raise CommandError("colbert scorer needs --query-matrices and --passage-matrices")
        inputs = _matrix_inputs(args)
        scorer = LateInteractionScorer(
            load_token_matrices(inputs["query_matrices"]),
            load_token_matrices(inputs["passage_matrices"]),
            similarity=args.similarity or "dot",
        )
        return scorer, inputs
    if kind == "kernel":
        if not (args.query_matrices and args.passage_matrices and args.weights):
            raise CommandError(
                "kernel scorer needs --query-matrices, --passage-matrices and --weights"
            )
        inputs = {"weights": _require(args.weights, "weights file"), **_matrix_inputs(args)}
        bank, weights = load_weights(inputs["weights"])
        scorer = KernelScorer(
            load_token_matrices(inputs["query_matrices"]),
            load_token_matrices(inputs["passage_matrices"]),
            bank,
            weights,
            similarity=args.similarity or "cosine",
        )
        return scorer, inputs
    if kind == "scores":
        if not args.scores:
            raise CommandError("scores scorer needs --scores")
        inputs = {"scores": _require(args.scores, "score file")}
        return ExternalScoreScorer.from_file(inputs["scores"]), inputs
    if kind == "oracle":
        if not args.qrels:
            raise CommandError("oracle scorer needs --qrels")
        inputs = {"qrels": _require(args.qrels, "qrels")}
        return GradeOracleScorer(load_qrels(inputs["qrels"])), inputs
    raise CommandError(f"unknown scorer {kind!r}")


# --------------------------------------------------------------------------
# command handlers
# --------------------------------------------------------------------------


def _cmd_index_build(args, config: dict) -> int:
    collection = _input(args, "collection", "collection")
    out = Path(_arg(args, "out", "index output directory"))
    k1 = float(_cfg(args.k1, config, "bm25", "k1", DEFAULT_K1))
    b = float(_cfg(args.b, config, "bm25", "b", DEFAULT_B))
    stopwords: frozenset[str] = frozenset()
    inputs = {"collection": collection}
    if args.stopwords:
        stopword_path = _require(args.stopwords, "stopword list")
        stopwords = frozenset(
            w.strip().lower() for w in stopword_path.read_text(encoding="utf-8").split() if w.strip()
        )
        inputs["stopwords"] = stopword_path
    store = load_collection(collection)
    index = build_index(store, k1=k1, b=b, stopwords=stopwords)
    index.save(out)
    write_manifest(
        manifest_path_for(out),
        "index build",
        {"k1": k1, "b": b, "stopwords": sorted(stopwords)},
        None,
        inputs,
        {name: out / name for name in ("meta.json", "postings.json", "doc_lengths.json")},
    )
    print(f"indexed {index.doc_count} passages -> {out}")
    return 0


def _cmd_index_search(args, config: dict) -> int:
    index_dir = _input(args, "index", "index directory")
    queries_path = _input(args, "queries", "query file")
    out = _arg(args, "out", "run output path")
    index = InvertedIndex.load(index_dir)
    queries = load_queries(queries_path, args.split)
    k = int(_cfg(args.k, config, "bm25", "k", 500))
    run = batch_search(index, queries, k, run_name=args.run_name)
    write_run(run, out)
    write_manifest(
        manifest_path_for(out),
        "index search",
        {"k": k, "run_name": args.run_name, "split": args.split},
        None,
        {"index": index_dir / "meta.json", "queries": queries_path},
        {"run": out},
    )
    print(f"searched {len(run)} queries at k={k} -> {out}")
    return 0


def _cmd_qrels_build(args, config: dict) -> int:
    clicks_path = _input(args, "clicks", "click log")
    out = _arg(args, "out", "qrels output path")
    clicks = load_clicks(clicks_path)
    thresholds = (
        _float_list(args.thresholds)
        if args.thresholds
        else config.get("qrels", {}).get("thresholds", list(DEFAULT_CTR_THRESHOLDS))
    )
    qrels = build_qrels_from_clicks(clicks, args.mode, thresholds)
    write_qrels(qrels, out)
    write_manifest(
        manifest_path_for(out),
        "qrels build",
        {"mode": args.mode, "thresholds": list(thresholds)},
        None,
        {"clicks": clicks_path},
        {"qrels": out},
    )
    print(f"wrote {len(qrels)} judgments for {len(qrels.query_ids)} queries -> {out}")
    return 0


def _cmd_triples_generate(args, config: dict) -> int:
    index_dir = _input(args, "index", "index directory")
    queries_path = _input(args, "queries", "query file")
    qrels_path = _input(args, "qrels", "qrels")
    out = _arg(args, "out", "triple output path")
    index = InvertedIndex.load(index_dir)
    queries = load_queries(queries_path, args.split)
    qrels = load_qrels(qrels_path)
    sampling = SamplingConfig(
        candidate_depth=int(_cfg(args.depth, config, "sampling", "depth", 500)),
        max_negatives_per_positive=int(_cfg(args.max_neg, config, "sampling", "max_neg", 20)),
        triple_cap=int(_cfg(args.cap, config, "sampling", "cap", 10_000_000)),
        seed=_seed(args, config, "sampling"),
        legacy_mode=bool(args.legacy_mode),
    )
    report = generate_triples(queries, qrels, index, sampling)
    write_triples(report.triples, out)
    write_manifest(
        manifest_path_for(out),
        "triples generate",
        {
            "depth": sampling.candidate_depth,
            "max_neg": sampling.max_negatives_per_positive,
            "cap": sampling.triple_cap,
            "legacy_mode": sampling.legacy_mode,
            "split": args.split,
        },
        sampling.seed,
        {"index": index_dir / "meta.json", "queries": queries_path, "qrels": qrels_path},
        {"triples": out},
    )
    print(
        f"wrote {len(report.triples)} triples from {report.queries_processed} queries "
        f"(skipped: {report.skipped_missing_qrels} without positives, "
        f"{report.skipped_no_eligible} without eligible negatives) -> {out}"
    )
    return 0


def _cmd_triples_text(args, config: dict) -> int:
    triples_path = _input(args, "triples", "triple file")
    collection = _input(args, "collection", "collection")
    queries_path = _input(args, "queries", "query file")
    out = _arg(args, "out", "text triple output path")
    triples = read_triples(triples_path)
    store = load_collection(collection)
    queries = load_queries(queries_path, args.split)
    write_text_triples(triples, store, queries, out)
    write_manifest(
        manifest_path_for(out),
        "triples text",
        {"split": args.split},
        None,
        {"triples": triples_path, "collection": collection, "queries": queries_path},
        {"text_triples": out},
    )
    print(f"materialized {len(triples)} text triples -> {out}")
    return 0


def _dropped(first_stage: RankedRun, depth: int, kept) -> int:
    """Candidates offered to the scorer minus those it scored."""
    offered = sum(min(depth, len(entries)) for entries in first_stage.results.values())
    return offered - sum(len(entries) for entries in kept.values())


def _cmd_rerank(args, config: dict) -> int:
    scorer, scorer_inputs = _build_scorer(args, config)
    run_path = _input(args, "run", "run file")
    out = _arg(args, "out", "run output path")
    first_stage = read_run(run_path)
    depth = int(_cfg(args.depth, config, "rerank", "depth", 200))
    reranked = rerank(
        first_stage, depth, scorer, on_missing=args.on_missing, run_name=args.run_name
    )
    write_run(reranked, out)
    write_manifest(
        manifest_path_for(out),
        "rerank",
        {
            "depth": depth,
            "scorer": args.scorer,
            "on_missing": args.on_missing,
            "similarity": getattr(scorer, "similarity", None),
        },
        None,
        {"run": run_path, **scorer_inputs},
        {"run": out},
    )
    dropped = _dropped(first_stage, depth, reranked.results)
    print(
        f"re-ranked {len(reranked)} queries at depth {depth} "
        f"(dropped {dropped} candidates the scorer could not score) -> {out}"
    )
    return 0


def _cmd_dense_retrieve(args, config: dict) -> int:
    query_vectors_path = _input(args, "query_vectors", "query vectors")
    passage_vectors_path = _input(args, "passage_vectors", "passage vectors")
    out = _arg(args, "out", "run output path")
    query_vectors = load_vectors(query_vectors_path)
    passage_vectors = load_vectors(passage_vectors_path)
    k = int(_cfg(args.k, config, "dense", "k", 1000))
    run = RankedRun(name=args.run_name, stage="dense-retrieval")
    for qid in sorted(query_vectors.ids):
        run.results[qid] = dense_retrieve(
            passage_vectors, query_vectors.vector(qid), k, similarity=args.similarity
        )
    write_run(run, out)
    write_manifest(
        manifest_path_for(out),
        "dense retrieve",
        {"k": k, "run_name": args.run_name, "similarity": args.similarity},
        None,
        {"query_vectors": query_vectors_path, "passage_vectors": passage_vectors_path},
        {"run": out},
    )
    print(f"retrieved top-{k} for {len(run)} queries -> {out}")
    return 0


def _cmd_train_kernel(args, config: dict) -> int:
    triples_path = _input(args, "triples", "triple file")
    query_matrices_path = _input(args, "query_matrices", "query matrices")
    passage_matrices_path = _input(args, "passage_matrices", "passage matrices")
    out = _arg(args, "out", "weights output path")
    triples = read_triples(triples_path)
    query_matrices = load_token_matrices(query_matrices_path)
    passage_matrices = load_token_matrices(passage_matrices_path)
    bank = _kernel_bank(args, config)
    hyper = {
        "lr": float(_cfg(args.lr, config, "train", "lr", 0.01)),
        "epochs": int(_cfg(args.epochs, config, "train", "epochs", 100)),
        "margin": float(_cfg(args.margin, config, "train", "margin", 1.0)),
        "seed": _seed(args, config, "train"),
    }
    weights, telemetry = train_kernel_weights(
        triples, query_matrices, passage_matrices, bank, **hyper
    )
    write_weights(bank, weights, out)
    outputs = {"weights": out}
    if args.telemetry:
        with open(args.telemetry, "w", encoding="utf-8", newline="\n") as f:
            json.dump(
                {
                    "pairwise_accuracy": telemetry.pairwise_accuracy,
                    "mean_margin": telemetry.mean_margin,
                    "loss_curve": telemetry.loss_curve,
                    "resolved_triples": telemetry.resolved_triples,
                    "skipped_triples": telemetry.skipped_triples,
                },
                f,
                indent=2,
            )
            f.write("\n")
        outputs["telemetry"] = args.telemetry
    write_manifest(
        manifest_path_for(out),
        "train kernel",
        {**hyper, "mus": list(bank.mus), "sigmas": list(bank.sigmas)},
        hyper["seed"],
        {
            "triples": triples_path,
            "query_matrices": query_matrices_path,
            "passage_matrices": passage_matrices_path,
        },
        outputs,
    )
    print(
        f"trained on {telemetry.resolved_triples} triples: "
        f"pairwise_accuracy={telemetry.pairwise_accuracy:.3f} "
        f"mean_margin={telemetry.mean_margin:.3f} -> {out}"
    )
    return 0


def _cmd_eval(args, config: dict) -> int:
    run_path = _input(args, "run", "run file")
    qrels_path = _input(args, "qrels", "qrels")
    out = _arg(args, "out", "report output path")
    run = read_run(run_path)
    qrels = load_qrels(qrels_path)
    split_map = load_splits(_require(args.splits, "splits file")) if args.splits else None
    cutoffs = _int_list(
        args.cutoffs
        if args.cutoffs
        else config.get("eval", {}).get("cutoffs", "10,100,200,1000")
    )
    if not cutoffs:
        raise CommandError("need at least one cutoff")
    report = evaluate_run(
        run,
        qrels,
        split_map,
        rank_cutoff=cutoffs[0],
        recall_cutoffs=cutoffs[1:] or (100, 200, 1000),
        zero_positive_policy=args.zero_positive,
    )
    write_report(report, out)
    outputs = {"report": out}
    if args.json:
        write_report_json(report, args.json)
        outputs["json"] = args.json
    inputs = {"run": run_path, "qrels": qrels_path}
    if args.splits:
        inputs["splits"] = args.splits
    write_manifest(
        manifest_path_for(out),
        "eval",
        {"cutoffs": cutoffs, "zero_positive": args.zero_positive},
        None,
        inputs,
        outputs,
    )
    for split in sorted(report.splits):
        sr = report.splits[split]
        summary = " ".join(f"{m}={sr.metrics[m]:.4f}" for m in report.metric_names)
        print(f"{split} ({sr.query_count} queries): {summary}")
    return 0


def _cmd_fuse(args, config: dict) -> int:
    out = _arg(args, "out", "run output path")
    runs = [read_run(_require(p, "run file")) for p in args.runs]
    fused = fuse_runs(runs, method=args.method, rrf_k=args.rrf_k, run_name=args.run_name)
    write_run(fused, out)
    write_manifest(
        manifest_path_for(out),
        "fuse",
        {"method": args.method, "rrf_k": args.rrf_k},
        None,
        {f"run_{i}": p for i, p in enumerate(args.runs)},
        {"run": out},
    )
    print(f"fused {len(runs)} runs over {len(fused)} queries -> {out}")
    return 0


def _cmd_sweep(args, config: dict) -> int:
    scorer, scorer_inputs = _build_scorer(args, config)
    run_path = _input(args, "run", "run file")
    qrels_path = _input(args, "qrels", "qrels")
    out = _arg(args, "out", "table output path")
    first_stage = read_run(run_path)
    qrels = load_qrels(qrels_path)
    depths = _int_list(args.depths)
    if not depths:
        raise CommandError("need at least one depth")
    scored = score_candidates(first_stage, max(depths), scorer, on_missing=args.on_missing)
    table = sweep_table(first_stage, scored, depths, qrels)
    write_sweep_table(table, out)
    write_manifest(
        manifest_path_for(out),
        "sweep",
        {
            "depths": depths,
            "scorer": args.scorer,
            "on_missing": args.on_missing,
            "similarity": getattr(scorer, "similarity", None),
        },
        None,
        {"run": run_path, "qrels": qrels_path, **scorer_inputs},
        {"table": out},
    )
    for depth in sorted(table):
        metrics = " ".join(f"{m}={v:.4f}" for m, v in table[depth].items())
        print(f"depth {depth}: {metrics}")
    dropped = _dropped(first_stage, max(depths), scored)
    print(f"dropped {dropped} of the top-{max(depths)} candidates the scorer could not score")
    return 0


def _cmd_synth(args, config: dict) -> int:
    out = _arg(args, "out", "fixture output directory")
    spec = FixtureSpec(
        n_passages=args.passages,
        n_queries=args.queries,
        dim=args.dim,
        term_dim=args.term_dim,
        seed=_seed(args, config, "synth"),
    )
    fixture = generate_fixture(spec)
    paths = fixture.write(out)
    write_manifest(
        Path(out) / "manifest.json",
        "synth",
        {
            "passages": spec.n_passages,
            "queries": spec.n_queries,
            "dim": spec.dim,
            "term_dim": spec.term_dim,
        },
        spec.seed,
        {},
        paths,
    )
    print(f"generated fixture with {spec.n_passages} passages / {spec.n_queries} queries -> {out}")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _add_scorer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scorer",
        required=True,
        choices=["dense", "colbert", "kernel", "scores", "oracle"],
        help="scoring head to apply",
    )
    parser.add_argument("--query-vectors")
    parser.add_argument("--passage-vectors")
    parser.add_argument("--query-matrices")
    parser.add_argument("--passage-matrices")
    parser.add_argument("--weights", help="kernel weights file")
    parser.add_argument("--scores", help="external score file (qid<TAB>pid<TAB>score)")
    parser.add_argument("--on-missing", choices=["error", "skip"], default="error")
    parser.add_argument(
        "--similarity",
        choices=["dot", "cosine"],
        help="override the scorer's similarity (dense/colbert default dot, kernel cosine)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clickrank",
        description="Retrieval experimentation pipeline: index, sample, score, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument(
        "--seed", type=int, dest="global_seed", help="global seed (subcommand --seed wins)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    index = sub.add_parser("index", help="build or query the BM25 index")
    index_sub = index.add_subparsers(dest="subcommand", required=True)
    p = index_sub.add_parser("build", help="tokenize a collection and build the index")
    p.add_argument("--collection")
    p.add_argument("--out", help="index output directory")
    p.add_argument("--k1", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--stopwords", help="optional file of words to drop (whitespace separated)")
    p.set_defaults(handler=_cmd_index_build)
    p = index_sub.add_parser("search", help="retrieve top-k candidates for each query")
    p.add_argument("--index")
    p.add_argument("--queries")
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.add_argument("--run-name", default="bm25")
    p.add_argument("--split", default="train", help="split tag for the query file")
    p.set_defaults(handler=_cmd_index_search)

    qrels = sub.add_parser("qrels", help="derive qrels from click logs")
    qrels_sub = qrels.add_subparsers(dest="subcommand", required=True)
    p = qrels_sub.add_parser("build", help="grade (query, passage) pairs from clicks")
    p.add_argument("--clicks")
    p.add_argument("--mode", choices=["raw", "dctr"], default="dctr")
    p.add_argument("--thresholds", help="comma-separated ascending rates, e.g. 0.1,0.3")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_qrels_build)

    triples = sub.add_parser("triples", help="training-triple generation")
    triples_sub = triples.add_subparsers(dest="subcommand", required=True)
    p = triples_sub.add_parser("generate", help="sample negatives and emit id triples")
    p.add_argument("--index")
    p.add_argument("--queries")
    p.add_argument("--qrels")
    p.add_argument("--out")
    p.add_argument("--depth", type=int)
    p.add_argument("--max-neg", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--split", default="train")
    p.add_argument(
        "--legacy-mode",
        action="store_true",
        help="known-bad sampling (candidates ranked above the positive) for A/B diagnosis",
    )
    p.set_defaults(handler=_cmd_triples_generate)
    p = triples_sub.add_parser("text", help="materialize id triples as text triples")
    p.add_argument("--triples")
    p.add_argument("--collection")
    p.add_argument("--queries")
    p.add_argument("--out")
    p.add_argument("--split", default="train")
    p.set_defaults(handler=_cmd_triples_text)

    p = sub.add_parser("rerank", help="rescore the top candidates of a run")
    p.add_argument("--run")
    p.add_argument("--depth", type=int)
    p.add_argument("--out")
    p.add_argument("--run-name")
    p.add_argument("--qrels", help="for --scorer oracle")
    _add_scorer_flags(p)
    p.set_defaults(handler=_cmd_rerank)

    dense = sub.add_parser("dense", help="dense retrieval over the full collection")
    dense_sub = dense.add_subparsers(dest="subcommand", required=True)
    p = dense_sub.add_parser("retrieve", help="exact top-k scan of the vector store")
    p.add_argument("--query-vectors")
    p.add_argument("--passage-vectors")
    p.add_argument("--k", type=int)
    p.add_argument("--out")
    p.add_argument("--run-name", default="dense")
    p.add_argument("--similarity", choices=["dot", "cosine"], default="dot")
    p.set_defaults(handler=_cmd_dense_retrieve)

    train = sub.add_parser("train", help="train scoring heads")
    train_sub = train.add_subparsers(dest="subcommand", required=True)
    p = train_sub.add_parser("kernel", help="fit the kernel-feature linear layer")
    p.add_argument("--triples")
    p.add_argument("--query-matrices")
    p.add_argument("--passage-matrices")
    p.add_argument("--out")
    p.add_argument("--telemetry", help="optional JSON telemetry output")
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--mus", help="comma-separated kernel centers")
    p.add_argument("--sigmas", help="comma-separated kernel widths")
    p.set_defaults(handler=_cmd_train_kernel)

    p = sub.add_parser("eval", help="score a run against qrels")
    p.add_argument("--run")
    p.add_argument("--qrels")
    p.add_argument("--splits", help="query_id<TAB>split file")
    p.add_argument("--cutoffs", help="rank cutoff then recall cutoffs, e.g. 10,100,200,1000")
    p.add_argument("--zero-positive", choices=["exclude", "zero"], default="exclude")
    p.add_argument("--out")
    p.add_argument("--json", help="optional JSON report path")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("fuse", help="ensemble two or more runs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--method", choices=["minmax", "rrf"], default="minmax")
    p.add_argument("--rrf-k", type=int, default=60)
    p.add_argument("--run-name", default="fused")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("sweep", help="re-ranking depth robustness table")
    p.add_argument("--run")
    p.add_argument("--qrels")
    p.add_argument("--depths", default="50,100,200,500")
    p.add_argument("--out")
    _add_scorer_flags(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("synth", help="generate a seeded synthetic fixture")
    p.add_argument("--out")
    p.add_argument("--passages", type=int, default=1000)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--term-dim", type=int, default=32)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        _apply_config_paths(args, config)
        return args.handler(args, config)
    except (CommandError, MissingEmbeddingError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
