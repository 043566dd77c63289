"""Command-line pipeline driver.

Every subcommand (index build|search, qrels build, triples generate|text,
rerank, dense retrieve, train kernel, eval, fuse, sweep, synth) is one row
of ``_COMMANDS``: name, handler, ``--help`` line, the noun of its ``--out``
path and its flags; ``build_parser`` builds every parser from the rows.
Every option a JSON config file (``--config``) can set, paths included, is
one row of ``_OPTIONS``: its ``section.key`` (the key is the flag's dest),
kind, default and, for an input path, its noun. ``main`` checks the whole
config against that table, fills each option of the command's row that the
command line left unset (flag, then the global ``--seed`` for a seed, then
config, then default) and resolves ``--out``, so handlers read only ``args``.

Each handler resolves every file it reads through one ``_Inputs`` recorder,
which records it under its manifest input name (an index directory as one
``index_<stem>`` input per index file), writes ``out`` and returns what it
wrote. ``main`` then writes the reproducibility manifest beside ``out``
(``DIR/manifest.json`` for a directory, ``FILE.manifest.json`` for a file)
and prints the summary. Exit codes: 0 success, 1 runtime failure (one-line
``error: ...`` on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from . import __version__
from .bm25 import (
    DEFAULT_B,
    DEFAULT_K1,
    INDEX_FILES,
    InvertedIndex,
    batch_search,
    build_index,
    check_stopword,
)
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
    so is its config value when the ``kind`` is str. An input path names
    its ``noun`` for the missing and not-found errors.
    """

    section: str
    key: str
    kind: type
    default: object = None
    help: str | None = None
    items: type | None = None
    noun: str | None = None


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
            _Option("paths", key, str, noun=noun)
            for key, noun in (
                ("collection", "collection"), ("queries", "query file"), ("clicks", "click log"),
                ("index", "index directory"), ("run", "run file"), ("triples", "triple file"),
                ("query_vectors", "query vectors"), ("passage_vectors", "passage vectors"),
                ("query_matrices", "query matrices"), ("passage_matrices", "passage matrices"),
            )
        ),
        _Option("paths", "qrels", str, help="qrels file (rerank reads it for --scorer oracle)",
                noun="qrels"),
        _Option("paths", "splits", str, help="query_id<TAB>split file", noun="splits file"),
        _Option("paths", "scores", str, help="external score file (qid<TAB>pid<TAB>score)",
                noun="score file"),
        _Option("paths", "weights", str, help="kernel weights file", noun="weights file"),
        _Option("paths", "stopwords", str,
                help="optional file of words to drop (whitespace separated)",
                noun="stopword list"),
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


def _resolve(args, config: dict, options: list[_Option]) -> None:
    """Fill each of the command's ``options`` from its flag (empty is unset), then the
    global ``--seed`` (for a seed), then the config, then the table's default."""
    for option in options:
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

    def flag(self, name: str) -> Path:
        """The path ``--NAME`` or the config's ``paths.NAME`` gives, recorded as ``name``."""
        what = _OPTIONS["paths", name].noun
        return self.add(name, _arg(self.args, name, what), what)

    def index(self) -> Path:
        """The ``--index`` directory; each of its files is recorded as ``index_<stem>``."""
        what = _OPTIONS["paths", "index"].noun
        directory = _require(_arg(self.args, "index", what), what)
        for name in INDEX_FILES:
            self.files[f"index_{Path(name).stem}"] = directory / name
        return directory


@dataclass
class _Wrote:
    """What a handler wrote; ``main`` puts the manifest beside ``--out``."""

    outputs: dict[str, str | Path]
    config: dict
    summary: list[str]
    seed: int | None = None


def _build_scorer(args, inputs: _Inputs):
    """The scorer the flags select; its files are recorded under their flag names."""
    kind = args.scorer
    if kind == "dense":
        return DenseScorer(
            load_vectors(inputs.flag("query_vectors")),
            load_vectors(inputs.flag("passage_vectors")),
            similarity=args.similarity or "dot",
        )
    if kind == "colbert":
        return LateInteractionScorer(
            load_token_matrices(inputs.flag("query_matrices")),
            load_token_matrices(inputs.flag("passage_matrices")),
            similarity=args.similarity or "dot",
        )
    if kind == "kernel":
        bank, weights = load_weights(inputs.flag("weights"))
        return KernelScorer(
            load_token_matrices(inputs.flag("query_matrices")),
            load_token_matrices(inputs.flag("passage_matrices")),
            bank,
            weights,
            similarity=args.similarity or "cosine",
        )
    if kind == "scores":
        return ExternalScoreScorer.from_file(inputs.flag("scores"))
    if kind == "oracle":
        return GradeOracleScorer(load_qrels(inputs.flag("qrels")))
    raise CommandError(f"unknown scorer {kind!r}")


# --------------------------------------------------------------------------
# command handlers: each reads through ``inputs``, writes ``out``, returns what it wrote
# --------------------------------------------------------------------------


def _cmd_index_build(args, inputs: _Inputs, out: str) -> _Wrote:
    out = Path(out)
    # before the collection is read and indexed, so a bad parameter costs no build
    InvertedIndex.check_parameters(args.k1, args.b)
    stopwords: frozenset[str] = frozenset()
    if args.stopwords:
        with TextRecords(inputs.flag("stopwords"), None) as records:
            stopwords = frozenset(
                check_stopword(word.lower()) for words in records for word in words
            )
    store = load_collection(inputs.flag("collection"))
    index = build_index(store, k1=args.k1, b=args.b, stopwords=stopwords)
    index.save(out)
    return _Wrote(
        {name: out / name for name in INDEX_FILES},
        {"k1": args.k1, "b": args.b, "stopwords": sorted(stopwords)},
        [f"indexed {index.doc_count} passages -> {out}"],
    )


def _cmd_index_search(args, inputs: _Inputs, out: str) -> _Wrote:
    index = InvertedIndex.load(inputs.index())
    queries = load_queries(inputs.flag("queries"), args.split)
    run = batch_search(index, queries, args.k, run_name=args.run_name)
    write_run(run, out)
    return _Wrote(
        {"run": out},
        {"k": args.k, "run_name": args.run_name, "split": args.split},
        [f"searched {len(run)} queries at k={args.k} -> {out}"],
    )


def _cmd_qrels_build(args, inputs: _Inputs, out: str) -> _Wrote:
    clicks = load_clicks(inputs.flag("clicks"))
    qrels = build_qrels_from_clicks(clicks, args.mode, args.thresholds)
    write_qrels(qrels, out)
    return _Wrote(
        {"qrels": out},
        {"mode": args.mode, "thresholds": list(args.thresholds)},
        [f"wrote {len(qrels)} judgments for {len(qrels.query_ids)} queries -> {out}"],
    )


def _cmd_triples_generate(args, inputs: _Inputs, out: str) -> _Wrote:
    # before the inputs are read, so a bad setting costs no load
    sampling = SamplingConfig(
        candidate_depth=args.depth,
        max_negatives_per_positive=args.max_neg,
        triple_cap=args.cap,
        seed=args.seed,
        legacy_mode=bool(args.legacy_mode),
    )
    index = InvertedIndex.load(inputs.index())
    queries = load_queries(inputs.flag("queries"), args.split)
    qrels = load_qrels(inputs.flag("qrels"))
    report = generate_triples(queries, qrels, index, sampling)
    write_triples(report.triples, out)
    truncated = f"; truncated to cap {sampling.triple_cap}" if report.truncated else ""
    return _Wrote(
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


def _cmd_triples_text(args, inputs: _Inputs, out: str) -> _Wrote:
    triples = read_triples(inputs.flag("triples"))
    store = load_collection(inputs.flag("collection"))
    queries = load_queries(inputs.flag("queries"), args.split)
    write_text_triples(triples, store, queries, out)
    return _Wrote(
        {"text_triples": out},
        {"split": args.split},
        [f"materialized {len(triples)} text triples -> {out}"],
    )


def _dropped(first_stage: RankedRun, depth: int, kept) -> int:
    """Candidates offered to the scorer minus those it scored."""
    offered = sum(min(depth, len(entries)) for entries in first_stage.results.values())
    return offered - sum(len(entries) for entries in kept.values())


def _cmd_rerank(args, inputs: _Inputs, out: str) -> _Wrote:
    scorer = _build_scorer(args, inputs)
    first_stage = read_run(inputs.flag("run"))
    reranked = rerank(
        first_stage, args.depth, scorer, on_missing=args.on_missing, run_name=args.run_name
    )
    write_run(reranked, out)
    dropped = _dropped(first_stage, args.depth, reranked.results)
    return _Wrote(
        {"run": out},
        {
            "depth": args.depth,
            "scorer": args.scorer,
            "on_missing": args.on_missing,
            "run_name": reranked.name,
            "similarity": getattr(scorer, "similarity", None),
        },
        [
            f"re-ranked {len(reranked)} queries at depth {args.depth} "
            f"(dropped {dropped} candidates the scorer could not score) -> {out}"
        ],
    )


def _cmd_dense_retrieve(args, inputs: _Inputs, out: str) -> _Wrote:
    query_vectors = load_vectors(inputs.flag("query_vectors"))
    passage_vectors = load_vectors(inputs.flag("passage_vectors"))
    check_dims(query_vectors, passage_vectors, "vectors")
    run = RankedRun(name=args.run_name, stage="dense-retrieval")
    for qid in sorted(query_vectors.ids):
        run.results[qid] = dense_retrieve(
            passage_vectors, query_vectors.vector(qid), args.k, similarity=args.similarity
        )
    write_run(run, out)
    return _Wrote(
        {"run": out},
        {"k": args.k, "run_name": args.run_name, "similarity": args.similarity},
        [f"retrieved top-{args.k} for {len(run)} queries -> {out}"],
    )


def _cmd_train_kernel(args, inputs: _Inputs, out: str) -> _Wrote:
    triples = read_triples(inputs.flag("triples"))
    query_matrices = load_token_matrices(inputs.flag("query_matrices"))
    passage_matrices = load_token_matrices(inputs.flag("passage_matrices"))
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
    n = telemetry.skipped_triples
    skipped = f" (skipped {n} without token matrices)" if n else ""
    return _Wrote(
        outputs,
        {**hyper, "mus": list(bank.mus), "sigmas": list(bank.sigmas)},
        [
            f"trained on {telemetry.resolved_triples} triples{skipped}: "
            f"pairwise_accuracy={telemetry.pairwise_accuracy:.3f} "
            f"mean_margin={telemetry.mean_margin:.3f} -> {out}"
        ],
        seed=hyper["seed"],
    )


def _cmd_eval(args, inputs: _Inputs, out: str) -> _Wrote:
    run = read_run(inputs.flag("run"))
    qrels = load_qrels(inputs.flag("qrels"))
    split_map = load_splits(inputs.flag("splits")) if args.splits else None
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
        unjudged = f", {sr.unjudged} without qrels" if sr.unjudged else ""
        summary.append(f"{split} ({sr.query_count} queries{unjudged}): {metrics}")
    return _Wrote(outputs, {"cutoffs": cutoffs, "zero_positive": args.zero_positive}, summary)


def _cmd_fuse(args, inputs: _Inputs, out: str) -> _Wrote:
    runs = [read_run(inputs.add(f"run_{i}", p, "run file")) for i, p in enumerate(args.runs)]
    fused = fuse_runs(runs, method=args.method, rrf_k=args.rrf_k, run_name=args.run_name)
    write_run(fused, out)
    return _Wrote(
        {"run": out},
        # min-max fusion has no rrf_k to record
        {
            "method": args.method,
            **({"rrf_k": args.rrf_k} if args.method == "rrf" else {}),
            "run_name": args.run_name,
        },
        [f"fused {len(runs)} runs over {len(fused)} queries -> {out}"],
    )


def _cmd_sweep(args, inputs: _Inputs, out: str) -> _Wrote:
    depths = check_depths(_comma_list(args.depths, int))
    scorer = _build_scorer(args, inputs)
    first_stage = read_run(inputs.flag("run"))
    qrels = load_qrels(inputs.flag("qrels"))
    scored = score_candidates(first_stage, max(depths), scorer, on_missing=args.on_missing)
    table = sweep_table(first_stage, scored, depths, qrels)
    write_sweep_table(table, out)
    summary = []
    for depth in sorted(table):
        metrics = " ".join(f"{m}={v:.4f}" for m, v in table[depth].items())
        summary.append(f"depth {depth}: {metrics}")
    dropped = _dropped(first_stage, max(depths), scored)
    n = sum(qid not in qrels for qid in first_stage.results)
    unjudged = f"; {n} queries without qrels" if n else ""
    summary.append(
        f"dropped {dropped} of the top-{max(depths)} candidates the scorer could not score"
        f"{unjudged}"
    )
    return _Wrote(
        {"table": out},
        {
            "depths": depths,
            "scorer": args.scorer,
            "on_missing": args.on_missing,
            "similarity": getattr(scorer, "similarity", None),
        },
        summary,
    )


def _cmd_synth(args, inputs: _Inputs, out: str) -> _Wrote:
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
# command table and parser
# --------------------------------------------------------------------------


def _flag(*names: str, **kwargs) -> tuple:
    """A flag that no config sets: the arguments of its ``add_argument`` call."""
    return names, kwargs


@dataclass(frozen=True)
class _Command:
    """One subcommand: its name (``"group leaf"`` or ``"leaf"``), its handler, its
    ``--help`` line, the noun of its ``--out`` path, and its flags in ``--help``
    order. A flag is an ``_OPTIONS`` ``"section.key"`` or a ``_flag(...)``."""

    name: str
    handler: Callable[..., _Wrote]
    help: str
    out: str
    flags: tuple

    @property
    def options(self) -> list[_Option]:
        return [_OPTIONS[tuple(flag.split("."))] for flag in self.flags if isinstance(flag, str)]


_SCORER_FLAGS = (
    _flag("--scorer", required=True, choices=["dense", "colbert", "kernel", "scores", "oracle"],
          help="scoring head to apply"),
    "paths.query_vectors", "paths.passage_vectors", "paths.weights", "paths.scores",
    "paths.query_matrices", "paths.passage_matrices",
    _flag("--on-missing", choices=["error", "skip"], default="error"),
    _flag("--similarity", choices=["dot", "cosine"],
          help="override the scorer's similarity (dense/colbert default dot, kernel cosine)"),
)

_GROUPS = {
    "index": "build or query the BM25 index",
    "qrels": "derive qrels from click logs",
    "triples": "training-triple generation",
    "dense": "dense retrieval over the full collection",
    "train": "train scoring heads",
}

_COMMANDS = (
    _Command("index build", _cmd_index_build, "tokenize a collection and build the index",
             "index output directory",
             ("paths.collection", "paths.out", "paths.stopwords", "bm25.k1", "bm25.b")),
    _Command("index search", _cmd_index_search, "retrieve top-k candidates for each query",
             "run output path",
             ("paths.index", "paths.queries", "paths.out", "bm25.k",
              _flag("--run-name", default="bm25"),
              _flag("--split", default="train", help="split tag for the query file"))),
    _Command("qrels build", _cmd_qrels_build, "grade (query, passage) pairs from clicks",
             "qrels output path",
             ("paths.clicks", "paths.out",
              _flag("--mode", choices=["raw", "dctr"], default="dctr"), "qrels.thresholds")),
    _Command("triples generate", _cmd_triples_generate, "sample negatives and emit id triples",
             "triple output path",
             ("paths.index", "paths.queries", "paths.qrels", "paths.out", "sampling.depth",
              "sampling.max_neg", "sampling.cap", "sampling.seed",
              _flag("--split", default="train"),
              _flag("--legacy-mode", action="store_true", help="known-bad sampling (candidates "
                    "ranked above the positive) for A/B diagnosis"))),
    _Command("triples text", _cmd_triples_text, "materialize id triples as text triples",
             "text triple output path",
             ("paths.triples", "paths.collection", "paths.queries", "paths.out",
              _flag("--split", default="train"))),
    _Command("rerank", _cmd_rerank, "rescore the top candidates of a run", "run output path",
             ("paths.run", "paths.out", "paths.qrels", "rerank.depth", _flag("--run-name"),
              *_SCORER_FLAGS)),
    _Command("dense retrieve", _cmd_dense_retrieve, "exact top-k scan of the vector store",
             "run output path",
             ("paths.query_vectors", "paths.passage_vectors", "paths.out", "dense.k",
              _flag("--run-name", default="dense"),
              _flag("--similarity", choices=["dot", "cosine"], default="dot"))),
    _Command("train kernel", _cmd_train_kernel, "fit the kernel-feature linear layer",
             "weights output path",
             ("paths.triples", "paths.query_matrices", "paths.passage_matrices", "paths.out",
              _flag("--telemetry", help="optional JSON telemetry output"), "train.lr",
              "train.epochs", "train.margin", "train.seed", "kernel_bank.mus",
              "kernel_bank.sigmas")),
    _Command("eval", _cmd_eval, "score a run against qrels", "report output path",
             ("paths.run", "paths.qrels", "paths.splits", "paths.out", "eval.cutoffs",
              _flag("--zero-positive", choices=["exclude", "zero"], default="exclude"),
              _flag("--json", help="optional JSON report path"))),
    _Command("fuse", _cmd_fuse, "ensemble two or more runs", "run output path",
             (_flag("--runs", nargs="+", required=True),
              _flag("--method", choices=["minmax", "rrf"], default="minmax"),
              _flag("--rrf-k", type=int, default=60), _flag("--run-name", default="fused"),
              "paths.out")),
    _Command("sweep", _cmd_sweep, "re-ranking depth robustness table", "table output path",
             ("paths.run", "paths.qrels", "paths.out",
              _flag("--depths", default="50,100,200,500"), *_SCORER_FLAGS)),
    _Command("synth", _cmd_synth, "generate a seeded synthetic fixture",
             "fixture output directory",
             ("paths.out", _flag("--passages", type=int, default=FixtureSpec.n_passages),
              _flag("--queries", type=int, default=FixtureSpec.n_queries),
              _flag("--dim", type=int, default=FixtureSpec.dim),
              _flag("--term-dim", type=int, default=FixtureSpec.term_dim), "synth.seed")),
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
    parents = {"": sub}
    for row in _COMMANDS:
        group, _, leaf = row.name.rpartition(" ")
        if group not in parents:
            parents[group] = sub.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", required=True
            )
        p = parents[group].add_parser(leaf, help=row.help)
        for flag in row.flags:
            if isinstance(flag, str):
                option = _OPTIONS[tuple(flag.split("."))]
                p.add_argument(
                    "--" + option.key.replace("_", "-"),
                    type=option.kind if option.kind in (int, float) else None,
                    help=option.help,
                )
            else:
                names, kwargs = flag
                p.add_argument(*names, **kwargs)
        p.set_defaults(row=row)  # not "command": the top-level dest is named in usage errors
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    row = args.row
    inputs = _Inputs(args)
    try:
        _resolve(args, _load_config(args.config), row.options)
        out = _arg(args, "out", row.out)
        wrote = row.handler(args, inputs, out)
        write_manifest(
            manifest_path_for(out), row.name, wrote.config, wrote.seed, inputs.files, wrote.outputs
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
