import numpy as np
import pytest

from clickrank.bm25 import INDEX_FILES, build_index
from clickrank.cli import main
from clickrank.corpus import Passage, PassageStore, Qrels, Query, QuerySet, write_qrels
from clickrank.embeddings import TokenMatrixStore, VectorStore, write_token_matrices, write_vectors
from clickrank.evaluation import evaluate_run, write_report, write_report_json, write_sweep_table
from clickrank.manifest import write_manifest
from clickrank.rankers import KernelBank, KernelWeights, write_weights
from clickrank.runs import (
    RankedRun,
    canonical_order,
    read_run,
    runs_cover_same_queries,
    write_run,
)
from clickrank.synth import FixtureSpec, generate_fixture
from clickrank.triples import TrainingTriple, write_text_triples, write_triples


class TestCanonicalOrder:
    def test_sorts_by_score_then_id(self):
        entries = [("b", 1.0), ("c", 2.0), ("a", 1.0)]
        assert canonical_order(entries) == [("c", 2.0), ("a", 1.0), ("b", 1.0)]

    def test_duplicate_passage_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            canonical_order([("a", 1.0), ("a", 0.5)])


class TestRankedRun:
    def test_add_canonicalizes(self):
        run = RankedRun(name="r")
        run.add("q1", [("b", 0.5), ("a", 0.9)])
        assert run["q1"] == [("a", 0.9), ("b", 0.5)]

    def test_add_twice_rejected(self):
        run = RankedRun(name="r")
        run.add("q1", [("a", 1.0)])
        with pytest.raises(ValueError, match="q1"):
            run.add("q1", [("b", 1.0)])


class TestRunFiles:
    def test_roundtrip_preserves_exact_scores(self, tmp_path):
        rng = np.random.default_rng(0)
        run = RankedRun(name="r")
        for q in range(5):
            entries = [(f"p{i:03d}", float(s)) for i, s in enumerate(rng.standard_normal(20))]
            run.add(f"q{q}", entries)
        path = tmp_path / "run.trec"
        write_run(run, path)
        loaded = read_run(path)
        assert loaded.results == run.results
        assert loaded.name == "r"

    def test_line_order_irrelevant_on_read(self, tmp_path):
        run = RankedRun(name="r")
        run.add("q1", [("a", 3.0), ("b", 2.0)])
        run.add("q2", [("c", 1.0)])
        path = tmp_path / "run.trec"
        write_run(run, path)
        lines = path.read_text().splitlines()
        shuffled = tmp_path / "shuffled.trec"
        shuffled.write_text("\n".join(reversed(lines)) + "\n")
        assert read_run(shuffled).results == run.results

    def test_trec_field_count_enforced(self, tmp_path):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 p1 1 2.0\n")
        with pytest.raises(ValueError, match="line 1"):
            read_run(path)

    @pytest.mark.parametrize("score", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        # a NaN would make the canonical order depend on the line order
        path = tmp_path / "bad.trec"
        path.write_text(f"q1 Q0 p2 1 1.0 r\nq1 Q0 p1 2 {score} r\n")
        with pytest.raises(ValueError) as exc:
            read_run(path)
        assert str(exc.value) == f"{path}: line 2: bad score {score!r}"

    def test_unparsable_score_message(self, tmp_path):
        path = tmp_path / "bad.trec"
        path.write_text("q1 Q0 p1 1 high r\n")
        with pytest.raises(ValueError) as exc:
            read_run(path)
        assert str(exc.value) == f"{path}: line 1: bad score 'high'"

    def test_duplicate_passage_in_file(self, tmp_path):
        path = tmp_path / "dup.trec"
        path.write_text("q1 Q0 p1 1 2.0 r\nq1 Q0 p1 2 1.0 r\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_run(path)


def _tiny_run():
    run = RankedRun(name="r")
    run.add("q1", [("p1", 1.0), ("p2", 0.5)])
    return run


def _tiny_report():
    return evaluate_run(_tiny_run(), Qrels({"q1": {"p1": 1}}), recall_cutoffs=[10])


def _train_kernel_with_telemetry(out):
    inputs = out.parent / "inputs"
    assert main(["synth", "--out", str(inputs), "--passages", "20", "--queries", "3"]) == 0
    write_triples([TrainingTriple("q00000", "p000000", "p000001")], inputs / "triples.tsv")
    assert main(
        ["train", "kernel", "--triples", str(inputs / "triples.tsv"),
         "--query-matrices", str(inputs / "query_matrices.tkm"),
         "--passage-matrices", str(inputs / "passage_matrices.tkm"), "--epochs", "2",
         "--out", str(out / "weights.txt"), "--telemetry", str(out / "telemetry.json")]
    ) == 0


_FIXTURE_FILES = [
    "clicks.tsv", "collection.tsv", "passage_matrices.tkm", "passage_vectors.tkv",
    "qrels.trec", "queries.tsv", "query_matrices.tkm", "query_vectors.tkv", "splits.tsv",
]

# (write into the directory `out`, the files it must leave there)
_WRITERS = [
    pytest.param(lambda out: write_run(_tiny_run(), out / "run.trec"), ["run.trec"], id="run"),
    pytest.param(
        lambda out: write_triples([TrainingTriple("q1", "p1", "p2")], out / "triples.tsv"),
        ["triples.tsv"],
        id="triples",
    ),
    pytest.param(
        lambda out: write_manifest(out / "m.json", "test", {}, None, {}, {}), ["m.json"], id="manifest"
    ),
    pytest.param(
        lambda out: build_index(PassageStore([Passage("p1", "a b")])).save(out / "index"),
        sorted(f"index/{name}" for name in INDEX_FILES),
        id="index",
    ),
    pytest.param(
        lambda out: write_qrels(Qrels({"q1": {"p1": 1}}), out / "qrels.trec"), ["qrels.trec"], id="qrels"
    ),
    pytest.param(
        lambda out: write_text_triples(
            [TrainingTriple("q1", "p1", "p2")],
            PassageStore([Passage("p1", "a"), Passage("p2", "b")]),
            QuerySet([Query("q1", "x", "train")]),
            out / "text.tsv",
        ),
        ["text.tsv"],
        id="text-triples",
    ),
    pytest.param(
        lambda out: write_weights(
            KernelBank.default(), KernelWeights(np.zeros(len(KernelBank.default())), 0.0), out / "w.txt"
        ),
        ["w.txt"],
        id="weights",
    ),
    pytest.param(lambda out: write_report(_tiny_report(), out / "r.tsv"), ["r.tsv"], id="report"),
    pytest.param(
        lambda out: write_report_json(_tiny_report(), out / "r.json"), ["r.json"], id="report-json"
    ),
    pytest.param(
        lambda out: write_sweep_table({10: {"mrr@10": 0.5}}, out / "s.tsv"), ["s.tsv"], id="sweep-table"
    ),
    pytest.param(
        lambda out: write_vectors(VectorStore(2, {"a": [1.0, 0.0]}), out / "v.tkv"),
        ["v.tkv"],
        id="vectors",
    ),
    pytest.param(
        lambda out: write_token_matrices(TokenMatrixStore(2, {"a": np.ones((3, 2))}), out / "m.tkm"),
        ["m.tkm"],
        id="token-matrices",
    ),
    pytest.param(
        lambda out: generate_fixture(FixtureSpec(n_passages=20, n_queries=3, seed=1)).write(out),
        _FIXTURE_FILES,
        id="fixture",
    ),
    pytest.param(
        _train_kernel_with_telemetry,
        ["telemetry.json", "weights.txt", "weights.txt.manifest.json"],
        id="train-kernel-telemetry",
    ),
]


class TestAtomicWrites:
    @pytest.mark.parametrize("write, expected", _WRITERS)
    def test_writers_leave_only_their_file(self, tmp_path, write, expected):
        out = tmp_path / "out"
        out.mkdir()
        write(out)
        left = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert left == expected

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("old\n")
        run = RankedRun(name="r")
        run.results = {"q1": [("p1", 1.0)], "q2": [("p2", "not a score")]}
        with pytest.raises(ValueError):
            write_run(run, path)  # fails after the first line is written
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_binary_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "m.tkm"
        path.write_bytes(b"old")
        # a lone surrogate cannot be encoded: the write fails after the first entry
        store = TokenMatrixStore(2, {"a": np.ones((1, 2)), "\ud800": np.ones((1, 2))})
        with pytest.raises(UnicodeEncodeError):
            write_token_matrices(store, path)
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]


class TestQueryCoverage:
    def test_same_sets_pass(self):
        a = RankedRun(name="a", results={"q1": [("p", 1.0)], "q2": [("p", 1.0)]})
        b = RankedRun(name="b", results={"q2": [("x", 1.0)], "q1": [("y", 1.0)]})
        runs_cover_same_queries([a, b])

    def test_mismatch_lists_ids(self):
        a = RankedRun(name="a", results={"q1": [("p", 1.0)]})
        b = RankedRun(name="b", results={"q2": [("p", 1.0)]})
        with pytest.raises(ValueError, match="q1"):
            runs_cover_same_queries([a, b])
