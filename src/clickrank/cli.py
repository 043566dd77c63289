"""Command-line pipeline driver.

Subcommands: index build|search, qrels build, triples generate|text, rerank,
dense retrieve, train kernel, eval, fuse, sweep, synth. Every command writes
a reproducibility manifest next to its output (``DIR/manifest.json`` for a
directory, ``FILE.manifest.json`` for a file).

Each handler resolves every file it reads through one ``_Inputs`` recorder,
which records the file under its manifest input name as it hands the path
over (an index directory as one ``index_<stem>`` input per index file), and
returns what it wrote. ``main`` then writes the manifest from the recorded
inputs and the returned outputs, and prints the command's summary.

A JSON config file (``--config``) may preseed any option, including input
and output paths under a "paths" section; explicit flags always win, and
``--seed`` is accepted globally as well as per subcommand. Exit codes:
0 success, 1 runtime failure (one-line ``error: ...`` on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .bm25 import DEFAULT_B, DEFAULT_K1, INDEX_FILES, InvertedIndex, batch_search, build_index
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
    DEFAULT_RECALL_CUTOFFS,
    check_depths,
    evaluate_run,
    fuse_runs,
    load_splits,
    sweep_table,
    write_report,
    write_report_json,
    write_sweep_table,
)
from .manifest import TextRecords, atomic_write, manifest_path_for, write_manifest
from .rankers import (
    DenseScorer,
    ExternalScoreScorer,
    GradeOracleScorer,
    KernelBank,
    KernelScorer,
    LateInteractionScorer,
    MissingEmbeddingError,
    check_dims,
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


_KIND_NAMES = {str: "a string", list: "a list of numbers", float: "a number", int: "an integer"}


def _is_kind(value, kind: type) -> bool:
    if kind is list:
        return isinstance(value, list) and all(_is_kind(v, float) for v in value)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        return _is_kind(value, float) and (isinstance(value, int) or value.is_integer())
    return isinstance(value, kind)


def _config_value(config: dict, section: str, key: str, default, kind: type):
    """The config file's ``section.key``, or ``default`` when it is unset.

    Every section must be a JSON object, and a set value a ``kind``: str,
    list (of numbers), float (any JSON number) or int (an integral number,
    such as 3 or 3.0).
    """
    entries = config.get(section, {})
    if not isinstance(entries, dict):
        raise CommandError(f"config section {section} must be a JSON object, got {entries!r}")
    value = entries.get(key, default)
    if key in entries and not _is_kind(value, kind):
        kind_name = _KIND_NAMES[kind]
        raise CommandError(f"config value {section}.{key} must be {kind_name}, got {value!r}")
    return value


def _cfg(cli_value, config: dict, section: str, key: str, default, kind: type = float):
    """Resolution order: explicit flag, config file number, built-in default.

    ``kind`` is float, or int for an integer option.
    """
    if cli_value is not None:
        return cli_value
    return _config_value(config, section, key, default, kind)


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
    for key in _PATH_KEYS:
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, _config_value(config, "paths", key, None, str))


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
    return int(_config_value(config, section, "seed", 0, int))


def _require(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.exists():
        raise CommandError(f"{what} not found: {path}")
    return path


class _Inputs:
    """The files a command reads, each recorded under its manifest input name.

    Handlers resolve every input path through this recorder, so the manifest
    ``main`` writes lists exactly the files the command opened.
    """

    def __init__(self, args):
        self.args = args
        self.files: dict[str, Path] = {}

    def add(self, name: str, path_str: str, what: str) -> Path:
        path = _require(path_str, what)
        self.files[name] = path
        return path

    def flag(self, name: str, what: str) -> Path:
        """The path ``--NAME`` or the config's ``paths.NAME`` gives, recorded as ``name``."""
        return self.add(name, _arg(self.args, name, what), what)

    def index(self) -> Path:
        """The ``--index`` directory; each of its files is recorded as ``index_<stem>``."""
        directory = _require(_arg(self.args, "index", "index directory"), "index directory")
        for name in INDEX_FILES:
            self.files[f"index_{Path(name).stem}"] = directory / name
        return directory


@dataclass
class _Wrote:
    """What a handler wrote; ``main`` puts the manifest beside ``out``."""

    out: str | Path
    outputs: dict[str, str | Path]
    config: dict
    summary: list[str]
    seed: int | None = None


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
    mus = _float_list(args.mus) if getattr(args, "mus", None) else _config_value(
        config, "kernel_bank", "mus", None, list
    )
    sigmas = _float_list(args.sigmas) if getattr(args, "sigmas", None) else _config_value(
        config, "kernel_bank", "sigmas", None, list
    )
    if mus is None and sigmas is None:
        return KernelBank.default()
    if mus is None or sigmas is None:
        raise CommandError("kernel bank needs both centers and widths")
    return KernelBank(tuple(mus), tuple(sigmas))


def _build_scorer(args, inputs: _Inputs):
    """The scorer the flags select; its files are recorded under their flag names."""
    kind = args.scorer
    if kind == "dense":
        return DenseScorer(
            load_vectors(inputs.flag("query_vectors", "query vectors")),
            load_vectors(inputs.flag("passage_vectors", "passage vectors")),
            similarity=args.similarity or "dot",
        )
    if kind == "colbert":
        return LateInteractionScorer(
            load_token_matrices(inputs.flag("query_matrices", "query matrices")),
            load_token_matrices(inputs.flag("passage_matrices", "passage matrices")),
            similarity=args.similarity or "dot",
        )
    if kind == "kernel":
        bank, weights = load_weights(inputs.flag("weights", "weights file"))
        return KernelScorer(
            load_token_matrices(inputs.flag("query_matrices", "query matrices")),
            load_token_matrices(inputs.flag("passage_matrices", "passage matrices")),
            bank,
            weights,
            similarity=args.similarity or "cosine",
        )
    if kind == "scores":
        return ExternalScoreScorer.from_file(inputs.flag("scores", "score file"))
    if kind == "oracle":
        return GradeOracleScorer(load_qrels(inputs.flag("qrels", "qrels")))
    raise CommandError(f"unknown scorer {kind!r}")


# --------------------------------------------------------------------------
# command handlers: each reads through ``inputs`` and returns what it wrote
# --------------------------------------------------------------------------


def _cmd_index_build(args, config: dict, inputs: _Inputs) -> _Wrote:
    out = Path(_arg(args, "out", "index output directory"))
    k1 = float(_cfg(args.k1, config, "bm25", "k1", DEFAULT_K1))
    b = float(_cfg(args.b, config, "bm25", "b", DEFAULT_B))
    # before the collection is read and tokenized, which takes as long as the build
    InvertedIndex.check_parameters(k1, b)
    stopwords: frozenset[str] = frozenset()
    if args.stopwords:
        with TextRecords(inputs.flag("stopwords", "stopword list"), None) as records:
            stopwords = frozenset(word.lower() for words in records for word in words)
    store = load_collection(inputs.flag("collection", "collection"))
    index = build_index(store, k1=k1, b=b, stopwords=stopwords)
    index.save(out)
    return _Wrote(
        out,
        {name: out / name for name in INDEX_FILES},
        {"k1": k1, "b": b, "stopwords": sorted(stopwords)},
        [f"indexed {index.doc_count} passages -> {out}"],
    )


def _cmd_index_search(args, config: dict, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "run output path")
    index = InvertedIndex.load(inputs.index())
    queries = load_queries(inputs.flag("queries", "query file"), args.split)
    k = int(_cfg(args.k, config, "bm25", "k", 500, int))
    run = batch_search(index, queries, k, run_name=args.run_name)
    write_run(run, out)
    return _Wrote(
        out,
        {"run": out},
        {"k": k, "run_name": args.run_name, "split": args.split},
        [f"searched {len(run)} queries at k={k} -> {out}"],
    )


def _cmd_qrels_build(args, config: dict, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "qrels output path")
    clicks = load_clicks(inputs.flag("clicks", "click log"))
    thresholds = (
        _float_list(args.thresholds)
        if args.thresholds
        else _config_value(config, "qrels", "thresholds", list(DEFAULT_CTR_THRESHOLDS), list)
    )
    qrels = build_qrels_from_clicks(clicks, args.mode, thresholds)
    write_qrels(qrels, out)
    return _Wrote(
        out,
        {"qrels": out},
        {"mode": args.mode, "thresholds": list(thresholds)},
        [f"wrote {len(qrels)} judgments for {len(qrels.query_ids)} queries -> {out}"],
    )


def _cmd_triples_generate(args, config: dict, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "triple output path")
    index = InvertedIndex.load(inputs.index())
    queries = load_queries(inputs.flag("queries", "query file"), args.split)
    qrels = load_qrels(inputs.flag("qrels", "qrels"))
    sampling = SamplingConfig(
        candidate_depth=int(_cfg(args.depth, config, "sampling", "depth", 500, int)),
        max_negatives_per_positive=int(_cfg(args.max_neg, config, "sampling", "max_neg", 20, int)),
        triple_cap=int(_cfg(args.cap, config, "sampling", "cap", 10_000_000, int)),
        seed=_seed(args, config, "sampling"),
        legacy_mode=bool(args.legacy_mode),
    )
    report = generate_triples(queries, qrels, index, sampling)
    write_triples(report.triples, out)
    truncated = f"; truncated to cap {sampling.triple_cap}" if report.truncated else ""
    return _Wrote(
        out,
        {"triples": out},
        {
            "depth": sampling.candidate_depth,
            "max_neg": sampling.max_negatives_per_positive,
            "cap": sampling.triple_cap,
            "legacy_mode": sampling.legacy_mode,
            "split": args.split,
        },
        [
            f"wrote {len(report.triples)} triples from {report.queries_processed} queries "
            f"(skipped: {report.skipped_missing_qrels} without positives, "
            f"{report.skipped_no_eligible} without eligible negatives{truncated}) -> {out}"
        ],
        seed=sampling.seed,
    )


def _cmd_triples_text(args, config: dict, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "text triple output path")
    triples = read_triples(inputs.flag("triples", "triple file"))
    store = load_collection(inputs.flag("collection", "collection"))
    queries = load_queries(inputs.flag("queries", "query file"), args.split)
    write_text_triples(triples, store, queries, out)
    return _Wrote(
        out,
        {"text_triples": out},
        {"split": args.split},
        [f"materialized {len(triples)} text triples -> {out}"],
    )


def _dropped(first_stage: RankedRun, depth: int, kept) -> int:
    """Candidates offered to the scorer minus those it scored."""
    offered = sum(min(depth, len(entries)) for entries in first_stage.results.values())
    return offered - sum(len(entries) for entries in kept.values())


def _cmd_rerank(args, config: dict, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "run output path")
    scorer = _build_scorer(args, inputs)
    first_stage = read_run(inputs.flag("run", "run file"))
    depth = int(_cfg(args.depth, config, "rerank", "depth", 200, int))
    reranked = rerank(
        first_stage, depth, scorer, on_missing=args.on_missing, run_name=args.run_name
    )
    write_run(reranked, out)
    dropped = _dropped(first_stage, depth, reranked.results)
    return _Wrote(
        out,
        {"run": out},
        {
            "depth": depth,
            "scorer": args.scorer,
            "on_missing": args.on_missing,
            "similarity": getattr(scorer, "similarity", None),
        },
        [
            f"re-ranked {len(reranked)} queries at depth {depth} "
            f"(dropped {dropped} candidates the scorer could not score) -> {out}"
        ],
    )


def _cmd_dense_retrieve(args, config: dict, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "run output path")
    query_vectors = load_vectors(inputs.flag("query_vectors", "query vectors"))
    passage_vectors = load_vectors(inputs.flag("passage_vectors", "passage vectors"))
    check_dims(query_vectors, passage_vectors, "vectors")
    k = int(_cfg(args.k, config, "dense", "k", 1000, int))
    run = RankedRun(name=args.run_name, stage="dense-retrieval")
    for qid in sorted(query_vectors.ids):
        run.results[qid] = dense_retrieve(
            passage_vectors, query_vectors.vector(qid), k, similarity=args.similarity
        )
    write_run(run, out)
    return _Wrote(
        out,
        {"run": out},
        {"k": k, "run_name": args.run_name, "similarity": args.similarity},
        [f"retrieved top-{k} for {len(run)} queries -> {out}"],
    )


def _cmd_train_kernel(args, config: dict, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "weights output path")
    triples = read_triples(inputs.flag("triples", "triple file"))
    query_matrices = load_token_matrices(inputs.flag("query_matrices", "query matrices"))
    passage_matrices = load_token_matrices(inputs.flag("passage_matrices", "passage matrices"))
    bank = _kernel_bank(args, config)
    hyper = {
        "lr": float(_cfg(args.lr, config, "train", "lr", 0.01)),
        "epochs": int(_cfg(args.epochs, config, "train", "epochs", 100, int)),
        "margin": float(_cfg(args.margin, config, "train", "margin", 1.0)),
        "seed": _seed(args, config, "train"),
    }
    weights, telemetry = train_kernel_weights(
        triples, query_matrices, passage_matrices, bank, **hyper
    )
    write_weights(bank, weights, out)
    outputs = {"weights": out}
    if args.telemetry:
        with atomic_write(args.telemetry) as f:
            json.dump(asdict(telemetry), f, indent=2)
            f.write("\n")
        outputs["telemetry"] = args.telemetry
    return _Wrote(
        out,
        outputs,
        {**hyper, "mus": list(bank.mus), "sigmas": list(bank.sigmas)},
        [
            f"trained on {telemetry.resolved_triples} triples: "
            f"pairwise_accuracy={telemetry.pairwise_accuracy:.3f} "
            f"mean_margin={telemetry.mean_margin:.3f} -> {out}"
        ],
        seed=hyper["seed"],
    )


def _cmd_eval(args, config: dict, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "report output path")
    run = read_run(inputs.flag("run", "run file"))
    qrels = load_qrels(inputs.flag("qrels", "qrels"))
    split_map = load_splits(inputs.flag("splits", "splits file")) if args.splits else None
    cutoffs = _int_list(
        args.cutoffs
        if args.cutoffs
        else _config_value(config, "eval", "cutoffs", "10,100,200,1000", str)
    )
    if not cutoffs:
        raise CommandError("need at least one cutoff")
    if len(cutoffs) == 1:
        cutoffs += DEFAULT_RECALL_CUTOFFS
        print(f"no recall cutoffs given; using {','.join(map(str, DEFAULT_RECALL_CUTOFFS))}")
    report = evaluate_run(
        run,
        qrels,
        split_map,
        rank_cutoff=cutoffs[0],
        recall_cutoffs=cutoffs[1:],
        zero_positive_policy=args.zero_positive,
    )
    write_report(report, out)
    outputs = {"report": out}
    if args.json:
        write_report_json(report, args.json)
        outputs["json"] = args.json
    summary = []
    for split in sorted(report.splits):
        sr = report.splits[split]
        metrics = " ".join(f"{m}={sr.metrics[m]:.4f}" for m in report.metric_names)
        summary.append(f"{split} ({sr.query_count} queries): {metrics}")
    return _Wrote(
        out, outputs, {"cutoffs": cutoffs, "zero_positive": args.zero_positive}, summary
    )


def _cmd_fuse(args, config: dict, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "run output path")
    runs = [read_run(inputs.add(f"run_{i}", p, "run file")) for i, p in enumerate(args.runs)]
    fused = fuse_runs(runs, method=args.method, rrf_k=args.rrf_k, run_name=args.run_name)
    write_run(fused, out)
    return _Wrote(
        out,
        {"run": out},
        # min-max fusion has no rrf_k to record
        {"method": args.method, **({"rrf_k": args.rrf_k} if args.method == "rrf" else {})},
        [f"fused {len(runs)} runs over {len(fused)} queries -> {out}"],
    )


def _cmd_sweep(args, config: dict, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "table output path")
    depths = check_depths(_int_list(args.depths))
    scorer = _build_scorer(args, inputs)
    first_stage = read_run(inputs.flag("run", "run file"))
    qrels = load_qrels(inputs.flag("qrels", "qrels"))
    scored = score_candidates(first_stage, max(depths), scorer, on_missing=args.on_missing)
    table = sweep_table(first_stage, scored, depths, qrels)
    write_sweep_table(table, out)
    summary = []
    for depth in sorted(table):
        metrics = " ".join(f"{m}={v:.4f}" for m, v in table[depth].items())
        summary.append(f"depth {depth}: {metrics}")
    dropped = _dropped(first_stage, max(depths), scored)
    summary.append(
        f"dropped {dropped} of the top-{max(depths)} candidates the scorer could not score"
    )
    return _Wrote(
        out,
        {"table": out},
        {
            "depths": depths,
            "scorer": args.scorer,
            "on_missing": args.on_missing,
            "similarity": getattr(scorer, "similarity", None),
        },
        summary,
    )


def _cmd_synth(args, config: dict, inputs: _Inputs) -> _Wrote:
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
    return _Wrote(
        out,
        paths,
        {
            "passages": spec.n_passages,
            "queries": spec.n_queries,
            "dim": fixture.query_vectors.dim,
            "term_dim": spec.term_dim,
        },
        [f"generated fixture with {spec.n_passages} passages / {spec.n_queries} queries -> {out}"],
        seed=spec.seed,
    )


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
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    inputs = _Inputs(args)
    try:
        config = _load_config(args.config)
        _apply_config_paths(args, config)
        wrote = args.handler(args, config, inputs)
        write_manifest(
            manifest_path_for(wrote.out),
            command,
            wrote.config,
            wrote.seed,
            inputs.files,
            wrote.outputs,
        )
    except (CommandError, MissingEmbeddingError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in wrote.summary:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
