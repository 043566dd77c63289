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

Every option a JSON config file (``--config``) can set, input and output
paths included, is one row of ``_OPTIONS``: its ``section.key`` (the key is
the flag's dest), kind and default. ``main`` checks the whole config against
that table, then fills each option of the command that the command line
left unset (flag, then the global ``--seed`` for a seed, then config, then
default), so handlers read only ``args``. Exit codes: 0 success, 1 runtime
failure (one-line ``error: ...`` on stderr), 2 usage.
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
from .manifest import TextRecords, atomic_write, check_kind, manifest_path_for, write_manifest
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


def _comma_list(text: str, kind: type) -> list:
    """The ``kind`` (int or float) numbers of a comma-separated list."""
    try:
        return [kind(part) for part in text.split(",") if part]
    except ValueError:
        name = "integer" if kind is int else "float"
        raise CommandError(f"expected a comma-separated {name} list, got {text!r}") from None


@dataclass(frozen=True)
class _Option:
    """The config's ``section.key``, which the flag ``--key`` overrides.

    ``kind`` is str, list (of numbers), float (any number) or int (an
    integral number). A comma-list option names the kind of its ``items``:
    its flag's text is a comma-separated list (an empty one is unset), and
    so is its config value when the ``kind`` is str.
    """

    section: str
    key: str
    kind: type
    default: object = None
    help: str | None = None
    items: type | None = None


_OPTIONS = {
    (option.section, option.key): option
    for option in (
        _Option("bm25", "k1", float, DEFAULT_K1),
        _Option("bm25", "b", float, DEFAULT_B),
        _Option("bm25", "k", int, 500),
        _Option("qrels", "thresholds", list, DEFAULT_CTR_THRESHOLDS,
                "comma-separated ascending rates, e.g. 0.1,0.3", float),
        _Option("sampling", "depth", int, SamplingConfig.candidate_depth),
        _Option("sampling", "max_neg", int, SamplingConfig.max_negatives_per_positive),
        _Option("sampling", "cap", int, SamplingConfig.triple_cap),
        _Option("sampling", "seed", int, SamplingConfig.seed),
        _Option("rerank", "depth", int, 200),
        _Option("dense", "k", int, 1000),
        _Option("train", "lr", float, 0.01),
        _Option("train", "epochs", int, 100),
        _Option("train", "margin", float, 1.0),
        _Option("train", "seed", int, 0),
        _Option("kernel_bank", "mus", list, None, "comma-separated kernel centers", float),
        _Option("kernel_bank", "sigmas", list, None, "comma-separated kernel widths", float),
        _Option("eval", "cutoffs", str, "10,100,200,1000",
                "rank cutoff then recall cutoffs, e.g. 10,100,200,1000", int),
        _Option("synth", "seed", int, FixtureSpec.seed),
        *(
            _Option("paths", key, str)
            for key in ("collection", "queries", "clicks", "index", "run", "triples",
                        "query_vectors", "passage_vectors", "query_matrices", "passage_matrices")
        ),
        _Option("paths", "qrels", str, help="qrels file (rerank reads it for --scorer oracle)"),
        _Option("paths", "splits", str, help="query_id<TAB>split file"),
        _Option("paths", "scores", str, help="external score file (qid<TAB>pid<TAB>score)"),
        _Option("paths", "weights", str, help="kernel weights file"),
        _Option("paths", "stopwords", str,
                help="optional file of words to drop (whitespace separated)"),
        _Option("paths", "out", str, help="output file, or directory for index build and synth"),
    )
}


def _load_config(path: str | None) -> dict:
    """The config file, checked against ``_OPTIONS`` whichever command runs."""
    if not path:
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
    for section, entries in config.items():
        keys = [key for known, key in _OPTIONS if known == section]
        if not keys:
            raise CommandError(f"unknown config section {section!r}")
        check_kind(entries, dict, f"config section {section}")
        for key, value in entries.items():
            if key not in keys:
                raise CommandError(f"unknown config key {section}.{key}; {section} takes {keys}")
            check_kind(value, _OPTIONS[section, key].kind, f"config value {section}.{key}")
    return config


def _resolve(args, config: dict) -> None:
    """Fill each option of the command from its flag (empty is unset), then the global
    ``--seed`` (for a seed), then the config, then the table's default."""
    for option in args.options:
        value = getattr(args, option.key)
        if value is None or value == "":
            value = args.global_seed if option.key == "seed" else None
        if value is None:
            value = config.get(option.section, {}).get(option.key)
            value = option.default if value is None else option.kind(value)
        if option.items and isinstance(value, str):
            value = _comma_list(value, option.items)
        setattr(args, option.key, value)


def _arg(args, name: str, what: str) -> str:
    value = getattr(args, name, None)
    if not value:  # an empty path from the config would name the working directory
        raise CommandError(
            f"missing {what}: pass --{name.replace('_', '-')} or set paths.{name} in the config"
        )
    return value


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


def _cmd_index_build(args, inputs: _Inputs) -> _Wrote:
    out = Path(_arg(args, "out", "index output directory"))
    # before the collection is read and indexed, so a bad parameter costs no build
    InvertedIndex.check_parameters(args.k1, args.b)
    stopwords: frozenset[str] = frozenset()
    if args.stopwords:
        with TextRecords(inputs.flag("stopwords", "stopword list"), None) as records:
            stopwords = frozenset(word.lower() for words in records for word in words)
    store = load_collection(inputs.flag("collection", "collection"))
    index = build_index(store, k1=args.k1, b=args.b, stopwords=stopwords)
    index.save(out)
    return _Wrote(
        out,
        {name: out / name for name in INDEX_FILES},
        {"k1": args.k1, "b": args.b, "stopwords": sorted(stopwords)},
        [f"indexed {index.doc_count} passages -> {out}"],
    )


def _cmd_index_search(args, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "run output path")
    index = InvertedIndex.load(inputs.index())
    queries = load_queries(inputs.flag("queries", "query file"), args.split)
    run = batch_search(index, queries, args.k, run_name=args.run_name)
    write_run(run, out)
    return _Wrote(
        out,
        {"run": out},
        {"k": args.k, "run_name": args.run_name, "split": args.split},
        [f"searched {len(run)} queries at k={args.k} -> {out}"],
    )


def _cmd_qrels_build(args, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "qrels output path")
    clicks = load_clicks(inputs.flag("clicks", "click log"))
    qrels = build_qrels_from_clicks(clicks, args.mode, args.thresholds)
    write_qrels(qrels, out)
    return _Wrote(
        out,
        {"qrels": out},
        {"mode": args.mode, "thresholds": list(args.thresholds)},
        [f"wrote {len(qrels)} judgments for {len(qrels.query_ids)} queries -> {out}"],
    )


def _cmd_triples_generate(args, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "triple output path")
    index = InvertedIndex.load(inputs.index())
    queries = load_queries(inputs.flag("queries", "query file"), args.split)
    qrels = load_qrels(inputs.flag("qrels", "qrels"))
    sampling = SamplingConfig(
        candidate_depth=args.depth,
        max_negatives_per_positive=args.max_neg,
        triple_cap=args.cap,
        seed=args.seed,
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


def _cmd_triples_text(args, inputs: _Inputs) -> _Wrote:
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


def _cmd_rerank(args, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "run output path")
    scorer = _build_scorer(args, inputs)
    first_stage = read_run(inputs.flag("run", "run file"))
    reranked = rerank(
        first_stage, args.depth, scorer, on_missing=args.on_missing, run_name=args.run_name
    )
    write_run(reranked, out)
    dropped = _dropped(first_stage, args.depth, reranked.results)
    return _Wrote(
        out,
        {"run": out},
        {
            "depth": args.depth,
            "scorer": args.scorer,
            "on_missing": args.on_missing,
            "similarity": getattr(scorer, "similarity", None),
        },
        [
            f"re-ranked {len(reranked)} queries at depth {args.depth} "
            f"(dropped {dropped} candidates the scorer could not score) -> {out}"
        ],
    )


def _cmd_dense_retrieve(args, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "run output path")
    query_vectors = load_vectors(inputs.flag("query_vectors", "query vectors"))
    passage_vectors = load_vectors(inputs.flag("passage_vectors", "passage vectors"))
    check_dims(query_vectors, passage_vectors, "vectors")
    run = RankedRun(name=args.run_name, stage="dense-retrieval")
    for qid in sorted(query_vectors.ids):
        run.results[qid] = dense_retrieve(
            passage_vectors, query_vectors.vector(qid), args.k, similarity=args.similarity
        )
    write_run(run, out)
    return _Wrote(
        out,
        {"run": out},
        {"k": args.k, "run_name": args.run_name, "similarity": args.similarity},
        [f"retrieved top-{args.k} for {len(run)} queries -> {out}"],
    )


def _cmd_train_kernel(args, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "weights output path")
    triples = read_triples(inputs.flag("triples", "triple file"))
    query_matrices = load_token_matrices(inputs.flag("query_matrices", "query matrices"))
    passage_matrices = load_token_matrices(inputs.flag("passage_matrices", "passage matrices"))
    if args.mus is None and args.sigmas is None:
        bank = KernelBank.default()
    elif args.mus is None or args.sigmas is None:
        raise CommandError("kernel bank needs both centers and widths")
    else:
        bank = KernelBank(tuple(args.mus), tuple(args.sigmas))
    hyper = {"lr": args.lr, "epochs": args.epochs, "margin": args.margin, "seed": args.seed}
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


def _cmd_eval(args, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "report output path")
    run = read_run(inputs.flag("run", "run file"))
    qrels = load_qrels(inputs.flag("qrels", "qrels"))
    split_map = load_splits(inputs.flag("splits", "splits file")) if args.splits else None
    cutoffs = args.cutoffs
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


def _cmd_fuse(args, inputs: _Inputs) -> _Wrote:
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


def _cmd_sweep(args, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "table output path")
    depths = check_depths(_comma_list(args.depths, int))
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


def _cmd_synth(args, inputs: _Inputs) -> _Wrote:
    out = _arg(args, "out", "fixture output directory")
    spec = FixtureSpec(
        n_passages=args.passages,
        n_queries=args.queries,
        dim=args.dim,
        term_dim=args.term_dim,
        seed=args.seed,
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


def _add_options(parser: argparse.ArgumentParser, section: str, *keys: str) -> None:
    """Add ``--KEY`` for each named option of ``section``; ``main`` fills the
    ones the command line leaves unset."""
    options = [_OPTIONS[section, key] for key in keys]
    for option in options:
        parser.add_argument(
            "--" + option.key.replace("_", "-"),
            type=option.kind if option.kind in (int, float) else None,
            help=option.help,
        )
    parser.set_defaults(options=(parser.get_default("options") or []) + options)


def _add_scorer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scorer",
        required=True,
        choices=["dense", "colbert", "kernel", "scores", "oracle"],
        help="scoring head to apply",
    )
    _add_options(parser, "paths", "query_vectors", "passage_vectors", "weights", "scores")
    _add_options(parser, "paths", "query_matrices", "passage_matrices")
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
    _add_options(p, "paths", "collection", "out", "stopwords")
    _add_options(p, "bm25", "k1", "b")
    p.set_defaults(handler=_cmd_index_build)
    p = index_sub.add_parser("search", help="retrieve top-k candidates for each query")
    _add_options(p, "paths", "index", "queries", "out")
    _add_options(p, "bm25", "k")
    p.add_argument("--run-name", default="bm25")
    p.add_argument("--split", default="train", help="split tag for the query file")
    p.set_defaults(handler=_cmd_index_search)

    qrels = sub.add_parser("qrels", help="derive qrels from click logs")
    qrels_sub = qrels.add_subparsers(dest="subcommand", required=True)
    p = qrels_sub.add_parser("build", help="grade (query, passage) pairs from clicks")
    _add_options(p, "paths", "clicks", "out")
    p.add_argument("--mode", choices=["raw", "dctr"], default="dctr")
    _add_options(p, "qrels", "thresholds")
    p.set_defaults(handler=_cmd_qrels_build)

    triples = sub.add_parser("triples", help="training-triple generation")
    triples_sub = triples.add_subparsers(dest="subcommand", required=True)
    p = triples_sub.add_parser("generate", help="sample negatives and emit id triples")
    _add_options(p, "paths", "index", "queries", "qrels", "out")
    _add_options(p, "sampling", "depth", "max_neg", "cap", "seed")
    p.add_argument("--split", default="train")
    p.add_argument(
        "--legacy-mode",
        action="store_true",
        help="known-bad sampling (candidates ranked above the positive) for A/B diagnosis",
    )
    p.set_defaults(handler=_cmd_triples_generate)
    p = triples_sub.add_parser("text", help="materialize id triples as text triples")
    _add_options(p, "paths", "triples", "collection", "queries", "out")
    p.add_argument("--split", default="train")
    p.set_defaults(handler=_cmd_triples_text)

    p = sub.add_parser("rerank", help="rescore the top candidates of a run")
    _add_options(p, "paths", "run", "out", "qrels")
    _add_options(p, "rerank", "depth")
    p.add_argument("--run-name")
    _add_scorer_flags(p)
    p.set_defaults(handler=_cmd_rerank)

    dense = sub.add_parser("dense", help="dense retrieval over the full collection")
    dense_sub = dense.add_subparsers(dest="subcommand", required=True)
    p = dense_sub.add_parser("retrieve", help="exact top-k scan of the vector store")
    _add_options(p, "paths", "query_vectors", "passage_vectors", "out")
    _add_options(p, "dense", "k")
    p.add_argument("--run-name", default="dense")
    p.add_argument("--similarity", choices=["dot", "cosine"], default="dot")
    p.set_defaults(handler=_cmd_dense_retrieve)

    train = sub.add_parser("train", help="train scoring heads")
    train_sub = train.add_subparsers(dest="subcommand", required=True)
    p = train_sub.add_parser("kernel", help="fit the kernel-feature linear layer")
    _add_options(p, "paths", "triples", "query_matrices", "passage_matrices", "out")
    p.add_argument("--telemetry", help="optional JSON telemetry output")
    _add_options(p, "train", "lr", "epochs", "margin", "seed")
    _add_options(p, "kernel_bank", "mus", "sigmas")
    p.set_defaults(handler=_cmd_train_kernel)

    p = sub.add_parser("eval", help="score a run against qrels")
    _add_options(p, "paths", "run", "qrels", "splits", "out")
    _add_options(p, "eval", "cutoffs")
    p.add_argument("--zero-positive", choices=["exclude", "zero"], default="exclude")
    p.add_argument("--json", help="optional JSON report path")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("fuse", help="ensemble two or more runs")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--method", choices=["minmax", "rrf"], default="minmax")
    p.add_argument("--rrf-k", type=int, default=60)
    p.add_argument("--run-name", default="fused")
    _add_options(p, "paths", "out")
    p.set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("sweep", help="re-ranking depth robustness table")
    _add_options(p, "paths", "run", "qrels", "out")
    p.add_argument("--depths", default="50,100,200,500")
    _add_scorer_flags(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("synth", help="generate a seeded synthetic fixture")
    _add_options(p, "paths", "out")
    p.add_argument("--passages", type=int, default=FixtureSpec.n_passages)
    p.add_argument("--queries", type=int, default=FixtureSpec.n_queries)
    p.add_argument("--dim", type=int, default=FixtureSpec.dim)
    p.add_argument("--term-dim", type=int, default=FixtureSpec.term_dim)
    _add_options(p, "synth", "seed")
    p.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    inputs = _Inputs(args)
    try:
        _resolve(args, _load_config(args.config))
        wrote = args.handler(args, inputs)
        write_manifest(
            manifest_path_for(wrote.out),
            command,
            wrote.config,
            wrote.seed,
            inputs.files,
            wrote.outputs,
        )
    except (CommandError, MissingEmbeddingError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    for line in wrote.summary:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
