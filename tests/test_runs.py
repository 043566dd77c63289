import numpy as np
import pytest

from clickrank.manifest import write_manifest
from clickrank.runs import (
    RankedRun,
    canonical_order,
    read_run,
    runs_cover_same_queries,
    write_run,
)
from clickrank.triples import TrainingTriple, write_triples


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

    def test_duplicate_passage_in_file(self, tmp_path):
        path = tmp_path / "dup.trec"
        path.write_text("q1 Q0 p1 1 2.0 r\nq1 Q0 p1 2 1.0 r\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_run(path)


class TestAtomicWrites:
    def test_writers_leave_only_their_file(self, tmp_path):
        run = RankedRun(name="r")
        run.add("q1", [("p1", 1.0)])
        write_run(run, tmp_path / "run.trec")
        write_triples([TrainingTriple("q1", "p1", "p2")], tmp_path / "triples.tsv")
        write_manifest(tmp_path / "m.json", "test", {}, None, {"run": tmp_path / "run.trec"}, {})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "run.trec", "triples.tsv"]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "run.trec"
        path.write_text("old\n")
        run = RankedRun(name="r")
        run.results = {"q1": [("p1", 1.0)], "q2": [("p2", "not a score")]}
        with pytest.raises(ValueError):
            write_run(run, path)  # fails after the first line is written
        assert path.read_text() == "old\n"
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
