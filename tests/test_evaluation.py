import json

import numpy as np
import pytest

from clickrank.corpus import VALID_SPLITS, Qrels
from clickrank.evaluation import (
    depth_sweep,
    evaluate_run,
    fuse_runs,
    load_splits,
    report_to_json,
    write_report,
    write_sweep_table,
)
from clickrank.rankers import GradeOracleScorer
from clickrank.runs import RankedRun, read_run, write_run


def _run(per_query: dict[str, list[str]], name="r") -> RankedRun:
    """Ranked run from ordered id lists; scores descend with rank."""
    run = RankedRun(name=name)
    for qid, pids in per_query.items():
        run.add(qid, [(pid, float(len(pids) - i)) for i, pid in enumerate(pids)])
    return run


def _rows(run, qrels, k=10, recall_cutoffs=()):
    """``evaluate_run``'s per-query metric rows."""
    return evaluate_run(run, qrels, rank_cutoff=k, recall_cutoffs=recall_cutoffs).per_query


class TestMRR:
    def test_first_rank(self):
        run = _run({"q": ["a", "b"]})
        qrels = Qrels({"q": {"a": 1}})
        assert _rows(run, qrels)["q"]["MRR@10"] == 1.0

    def test_third_rank(self):
        run = _run({"q": ["x", "y", "a"]})
        qrels = Qrels({"q": {"a": 1}})
        assert _rows(run, qrels)["q"]["MRR@10"] == pytest.approx(1 / 3)

    def test_cutoff(self):
        run = _run({"q": [f"x{i}" for i in range(10)] + ["a"]})
        qrels = Qrels({"q": {"a": 1}})
        assert _rows(run, qrels)["q"]["MRR@10"] == 0.0
        run = _run({"q": [f"x{i}" for i in range(9)] + ["a"]})
        assert _rows(run, qrels)["q"]["MRR@10"] == pytest.approx(0.1)

    def test_grade_zero_is_not_relevant(self):
        run = _run({"q": ["z", "a"]})
        qrels = Qrels({"q": {"z": 0, "a": 2}})
        assert _rows(run, qrels)["q"]["MRR@10"] == pytest.approx(0.5)

    def test_unjudged_query_scores_zero_and_is_flagged(self):
        run = _run({"q": ["a"], "unknown": ["b"]})
        qrels = Qrels({"q": {"a": 1}})
        report = evaluate_run(run, qrels, recall_cutoffs=(10,))
        assert report.per_query["unknown"] == {"nDCG@10": 0.0, "MRR@10": 0.0, "J@10": 0.0, "R@10": 0.0}
        assert report.splits["all"].unjudged == 1
        assert report.splits["all"].excluded == {}
        assert report.splits["all"].metrics["MRR@10"] == pytest.approx((1.0 + 0.0) / 2)

    def test_zero_positive_query_excluded(self):
        run = _run({"q": ["a"], "noPos": ["z"]})
        qrels = Qrels({"q": {"a": 1}, "noPos": {"z": 0}})
        report = evaluate_run(run, qrels, recall_cutoffs=(10,))
        assert report.per_query["noPos"] == {"J@10": pytest.approx(0.1)}
        assert report.splits["all"].excluded == {"nDCG@10": 1, "MRR@10": 1, "R@10": 1}
        assert report.splits["all"].metrics["MRR@10"] == 1.0
        # and the policy is togglable; recall stays undefined under it
        report = evaluate_run(run, qrels, recall_cutoffs=(10,), zero_positive_policy="zero")
        assert report.per_query["noPos"] == {"nDCG@10": 0.0, "MRR@10": 0.0, "J@10": pytest.approx(0.1)}
        assert report.splits["all"].excluded == {"R@10": 1}
        assert report.splits["all"].metrics["MRR@10"] == pytest.approx(0.5)


class TestNDCG:
    def test_worked_graded_case(self):
        # run grades [3, 0, 1]; the judged set is exactly those three docs.
        # DCG = 7 + 0 + 1/log2(4) = 7.5; ideal order [3, 1, 0] gives
        # IDCG = 7 + 1/log2(3); both derived with the scratch oracle.
        run = _run({"q": ["a", "b", "c"]})
        qrels = Qrels({"q": {"a": 3, "b": 0, "c": 1}})
        got = _rows(run, qrels)["q"]["nDCG@10"]
        assert got == pytest.approx(0.9828422279067397, abs=1e-12)

    def test_perfect_ordering_is_one(self):
        run = _run({"q": ["a", "b", "c"]})
        qrels = Qrels({"q": {"a": 3, "b": 2, "c": 1}})
        assert _rows(run, qrels)["q"]["nDCG@10"] == pytest.approx(1.0)

    def test_single_relevant_at_rank_one(self):
        run = _run({"q": ["a", "x"]})
        qrels = Qrels({"q": {"a": 1}})
        assert _rows(run, qrels)["q"]["nDCG@10"] == pytest.approx(1.0)

    def test_unjudged_leading_result_counts_as_zero_gain(self):
        # run [unjudged, grade2, grade1]; judged pool adds a grade-0 doc.
        # hand-derived: DCG = 3/log2(3) + 1/log2(4), IDCG = 3 + 1/log2(3)
        run = _run({"q": ["u", "a", "b"]})
        qrels = Qrels({"q": {"a": 2, "b": 1, "c": 0}})
        got = _rows(run, qrels)["q"]["nDCG@10"]
        assert got == pytest.approx(0.6590018048024133, abs=1e-12)

    def test_graded_swap_penalized(self):
        run = _run({"q": ["low", "high"]})
        qrels = Qrels({"q": {"low": 1, "high": 2}})
        assert _rows(run, qrels)["q"]["nDCG@10"] == pytest.approx(0.7967075809905066, abs=1e-12)

    def test_ideal_uses_all_judged_not_only_retrieved(self):
        # a grade-2 doc that the run never retrieved still raises the bar
        run = _run({"q": ["a"]})
        qrels = Qrels({"q": {"a": 1, "missing": 2}})
        got = _rows(run, qrels)["q"]["nDCG@10"]
        import math

        expected = 1.0 / (3.0 + 1.0 / math.log2(3))
        assert got == pytest.approx(expected, abs=1e-12)


class TestRecall:
    def test_all_found(self):
        run = _run({"q": [f"r{i}" for i in range(4)] + ["x"]})
        qrels = Qrels({"q": {f"r{i}": 1 for i in range(4)}})
        assert _rows(run, qrels, recall_cutoffs=(100,))["q"]["R@100"] == 1.0

    def test_half_found(self):
        run = _run({"q": ["r0", "x", "y"]})
        qrels = Qrels({"q": {"r0": 1, "r1": 2}})
        assert _rows(run, qrels, recall_cutoffs=(3,))["q"]["R@3"] == 0.5

    def test_cutoff_limits_credit(self):
        run = _run({"q": ["x", "r0"]})
        qrels = Qrels({"q": {"r0": 1}})
        assert _rows(run, qrels, recall_cutoffs=(1,))["q"]["R@1"] == 0.0
        assert _rows(run, qrels, recall_cutoffs=(2,))["q"]["R@2"] == 1.0

    def test_zero_relevant_excluded(self):
        run = _run({"q": ["a"], "empty": ["b"]})
        qrels = Qrels({"q": {"a": 1}, "empty": {"b": 0}})
        report = evaluate_run(run, qrels, recall_cutoffs=(10,))
        assert report.splits["all"].excluded["R@10"] == 1
        assert "R@10" not in report.per_query["empty"]


class TestJudged:
    def test_fully_judged(self):
        run = _run({"q": [f"p{i}" for i in range(10)]})
        qrels = Qrels({"q": {f"p{i}": i % 2 for i in range(10)}})
        assert _rows(run, qrels, k=10)["q"]["J@10"] == 1.0

    def test_partial(self):
        run = _run({"q": [f"p{i}" for i in range(10)]})
        qrels = Qrels({"q": {"p0": 1, "p3": 0, "p7": 2}})
        assert _rows(run, qrels, k=10)["q"]["J@10"] == pytest.approx(0.3)

    def test_empty_result_list(self):
        run = RankedRun(name="r", results={"q": []})
        qrels = Qrels({"q": {"a": 1}})
        assert _rows(run, qrels, k=10)["q"]["J@10"] == 0.0

    def test_grade_zero_counts_as_judged(self):
        run = _run({"q": ["a", "b"]})
        qrels = Qrels({"q": {"a": 0, "zz": 1}})
        assert _rows(run, qrels, k=2)["q"]["J@2"] == pytest.approx(0.5)


class TestEvaluateRun:
    def test_single_query_per_split(self):
        run = _run({"h1": ["a", "x"], "t1": ["y", "b"]})
        qrels = Qrels({"h1": {"a": 1}, "t1": {"b": 1}})
        split_map = {"h1": "head", "t1": "tail"}
        report = evaluate_run(run, qrels, split_map, rank_cutoff=10, recall_cutoffs=(2,))
        assert report.splits["head"].metrics["MRR@10"] == 1.0
        assert report.splits["tail"].metrics["MRR@10"] == pytest.approx(0.5)
        assert report.splits["head"].query_count == 1

    def test_metrics_bounded(self, small_fixture, small_qrels):
        from clickrank.bm25 import batch_search, build_index

        index = build_index(small_fixture.store)
        run = batch_search(index, small_fixture.queries, 200)
        report = evaluate_run(run, small_qrels, small_fixture.split_of)
        for sr in report.splits.values():
            for value in sr.metrics.values():
                assert 0.0 <= value <= 1.0

    def test_line_permutation_invariance(self, tmp_path, small_fixture, small_qrels):
        from clickrank.bm25 import batch_search, build_index

        index = build_index(small_fixture.store)
        run = batch_search(index, small_fixture.queries, 50)
        path = tmp_path / "run.trec"
        write_run(run, path)
        lines = path.read_text().splitlines()
        rng = np.random.default_rng(0)
        shuffled_path = tmp_path / "shuffled.trec"
        shuffled_path.write_text("\n".join(lines[i] for i in rng.permutation(len(lines))) + "\n")
        a = evaluate_run(read_run(path), small_qrels)
        b = evaluate_run(read_run(shuffled_path), small_qrels)
        assert a.splits["all"].metrics == b.splits["all"].metrics
        assert a.per_query == b.per_query

    def test_score_rescaling_invariance(self):
        qrels = Qrels({"q": {"a": 2, "b": 1}})
        base = RankedRun(name="r", results={"q": [("a", 3.0), ("b", 1.5), ("x", 0.5)]})
        scaled = RankedRun(
            name="r", results={"q": [(p, s * 17.0) for p, s in base["q"]]}
        )
        a = evaluate_run(base, qrels)
        b = evaluate_run(scaled, qrels)
        assert a.splits["all"].metrics == b.splits["all"].metrics

    def test_unjudged_queries_counted_per_split(self):
        run = _run({"q": ["a"], "u1": ["b"], "u2": ["c"]})
        qrels = Qrels({"q": {"a": 1}})
        report = evaluate_run(run, qrels, {"q": "head", "u1": "head", "u2": "tail"})
        assert {split: sr.unjudged for split, sr in report.splits.items()} == {"head": 1, "tail": 1}
        assert evaluate_run(_run({"q": ["a"]}), qrels).splits["all"].unjudged == 0

    def test_missing_split_assignment_is_an_error(self):
        run = _run({"q1": ["a"], "q2": ["b"]})
        qrels = Qrels({"q1": {"a": 1}, "q2": {"b": 1}})
        with pytest.raises(ValueError, match="q2"):
            evaluate_run(run, qrels, {"q1": "head"})

    def test_report_files(self, tmp_path):
        run = _run({"q": ["a", "x"]})
        qrels = Qrels({"q": {"a": 1}})
        report = evaluate_run(run, qrels, rank_cutoff=10, recall_cutoffs=(2,))
        out = tmp_path / "report.tsv"
        write_report(report, out)
        text = out.read_text()
        assert "nDCG@10" in text and "q\t" in text
        payload = report_to_json(report)
        assert payload["splits"]["all"]["metrics"]["MRR@10"] == 1.0
        json.dumps(payload)  # JSON-serializable

    def test_load_splits(self, tmp_path):
        path = tmp_path / "splits.tsv"
        path.write_text("q1\thead\nq2\ttail\n")
        assert load_splits(path) == {"q1": "head", "q2": "tail"}
        path.write_text("q1\thead\nq1\ttail\n")
        with pytest.raises(ValueError, match="q1"):
            load_splits(path)

    @pytest.mark.parametrize(
        "text, line, label",
        [
            ("q1\thead\nq2\thead \n", 2, "head "),
            ("q1\tHead\n", 1, "Head"),
            ("q1\ttail\nq2\ttorso\nq3\tlong tail\n", 3, "long tail"),
            ("q1\t\n", 1, ""),
        ],
        ids=["trailing-space", "capitalised", "two-words", "empty"],
    )
    def test_load_splits_rejects_unknown_labels(self, tmp_path, text, line, label):
        path = tmp_path / "splits.tsv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            load_splits(path)
        assert str(exc.value) == f"{path}: line {line}: split {label!r} not in {VALID_SPLITS}"


def _naive_minmax_fusion(runs, qid):
    """Independent fusion oracle: dict arithmetic, no shared helpers."""
    per_run = []
    for run in runs:
        entries = run[qid]
        scores = [s for _, s in entries]
        lo, hi = min(scores), max(scores)
        if hi == lo:
            per_run.append({p: 1.0 for p, _ in entries})
        else:
            per_run.append({p: (s - lo) / (hi - lo) for p, s in entries})
    pids = set()
    for d in per_run:
        pids |= set(d)
    fused = {p: sum(d.get(p, 0.0) for d in per_run) / len(runs) for p in pids}
    return sorted(fused.items(), key=lambda e: (-e[1], e[0]))


class TestFusion:
    def test_self_fusion_preserves_order(self):
        rng = np.random.default_rng(1)
        run = RankedRun(name="r")
        for q in range(4):
            run.add(f"q{q}", [(f"p{i}", float(s)) for i, s in enumerate(rng.standard_normal(12))])
        fused = fuse_runs([run, run])
        for qid in run.query_ids:
            assert [p for p, _ in fused[qid]] == [p for p, _ in run[qid]]

    def test_agreed_top_passage_scores_one(self):
        a = RankedRun(name="a", results={"q": [("top", 9.0), ("z", 1.0)]})
        b = RankedRun(name="b", results={"q": [("top", 4.0), ("y", 2.0)]})
        fused = fuse_runs([a, b])
        assert fused["q"][0] == ("top", 1.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        runs = []
        for r in range(3):
            run = RankedRun(name=f"r{r}")
            for q in range(20):
                pids = [f"p{i}" for i in rng.permutation(5)]
                run.add(f"q{q}", [(p, float(rng.standard_normal())) for p in pids])
            runs.append(run)
        fused = fuse_runs(runs)
        for q in range(20):
            oracle = _naive_minmax_fusion(runs, f"q{q}")
            assert [p for p, _ in fused[f"q{q}"]] == [p for p, _ in oracle]
            for (_, a), (_, b) in zip(fused[f"q{q}"], oracle):
                assert a == pytest.approx(b, abs=1e-12)

    def test_positive_affine_transform_invariance(self):
        rng = np.random.default_rng(3)
        a = RankedRun(name="a")
        b = RankedRun(name="b")
        for q in range(5):
            a.add(f"q{q}", [(f"p{i}", float(rng.standard_normal())) for i in range(8)])
            b.add(f"q{q}", [(f"p{i}", float(rng.standard_normal())) for i in range(8)])
        transformed = RankedRun(
            name="a2",
            results={q: [(p, 3.5 * s + 11.0) for p, s in a[q]] for q in a.query_ids},
        )
        f1 = fuse_runs([a, b])
        f2 = fuse_runs([transformed, b])
        for q in a.query_ids:
            assert [p for p, _ in f1[q]] == [p for p, _ in f2[q]]

    def test_mismatched_query_sets_rejected(self):
        a = RankedRun(name="a", results={"q1": [("p", 1.0)]})
        b = RankedRun(name="b", results={"q2": [("p", 1.0)]})
        with pytest.raises(ValueError, match="q1"):
            fuse_runs([a, b])

    def test_rrf_matches_formula(self):
        a = RankedRun(name="a", results={"q": [("x", 2.0), ("y", 1.0)]})
        b = RankedRun(name="b", results={"q": [("y", 2.0), ("x", 1.0)]})
        fused = fuse_runs([a, b], method="rrf", rrf_k=60)
        expected = 1 / 61 + 1 / 62
        for _, score in fused["q"]:
            assert score == pytest.approx(expected)

    def test_negative_rrf_k_rejected(self):
        a = RankedRun(name="a", results={"q": [("x", 2.0), ("y", 1.0)]})
        b = RankedRun(name="b", results={"q": [("y", 2.0), ("x", 1.0)]})
        for rrf_k in (-1, -100):
            with pytest.raises(ValueError, match="rrf_k must be >= 0"):
                fuse_runs([a, b], method="rrf", rrf_k=rrf_k)
        assert fuse_runs([a, b], method="rrf", rrf_k=0)["q"] == [("x", 1.5), ("y", 1.5)]

    def test_single_run_rejected(self):
        a = RankedRun(name="a", results={"q": [("p", 1.0)]})
        with pytest.raises(ValueError, match="two"):
            fuse_runs([a])


class TestDepthSweep:
    def _fixture_run(self):
        qrels = Qrels(
            {
                "q1": {"a": 2, "b": 1, "z": 0},
                "q2": {"c": 1},
            }
        )
        run = RankedRun(name="first")
        run.add("q1", [(p, 10.0 - i) for i, p in enumerate(["x1", "a", "x2", "b", "z"])])
        run.add("q2", [(p, 10.0 - i) for i, p in enumerate(["x3", "x4", "c"])])
        return run, qrels

    def test_depth_one_equals_rescored_top_one(self):
        run, qrels = self._fixture_run()
        scorer = GradeOracleScorer(qrels)
        from clickrank.rankers import rerank

        manual = rerank(run, 1, scorer)
        assert all(len(manual[q]) == 1 for q in manual.query_ids)
        assert [p for p, _ in manual["q1"]] == ["x1"]
        table = depth_sweep(run, scorer, [1], qrels)
        assert set(table) == {1}

    def test_oracle_scorer_monotone(self):
        run, qrels = self._fixture_run()
        table = depth_sweep(run, GradeOracleScorer(qrels), [1, 2, 4, 5], qrels)
        ndcgs = [table[d]["nDCG@10"] for d in (1, 2, 4, 5)]
        assert all(a <= b for a, b in zip(ndcgs, ndcgs[1:]))

    def test_constant_scorer_equals_tiebroken_truncation(self):
        run, qrels = self._fixture_run()

        class Constant:
            name = "const"

            def score_batch(self, qid, pids):
                return [1.0] * len(pids)

        from clickrank.rankers import rerank

        for depth in (1, 3, 5):
            reranked = rerank(run, depth, Constant())
            for qid in run.query_ids:
                expected = sorted(p for p, _ in run[qid][:depth])
                assert [p for p, _ in reranked[qid]] == expected

    def test_depths_must_ascend(self):
        run, qrels = self._fixture_run()
        with pytest.raises(ValueError, match="ascending"):
            depth_sweep(run, GradeOracleScorer(qrels), [10, 5], qrels)

    def test_run_without_queries_rejected(self):
        _, qrels = self._fixture_run()
        with pytest.raises(ValueError, match="no queries"):
            depth_sweep(RankedRun(name="empty"), GradeOracleScorer(qrels), [1, 2], qrels)

    def test_unjudged_queries_stay_in_every_depth(self):
        run, qrels = self._fixture_run()
        judged = depth_sweep(run, GradeOracleScorer(qrels), [1, 2, 4, 5], qrels)
        run.add("u1", [("x5", 1.0)])
        run.add("u2", [("x6", 1.0)])
        assert evaluate_run(run, qrels).splits["all"].unjudged == 2
        table = depth_sweep(run, GradeOracleScorer(qrels), [1, 2, 4, 5], qrels)
        # two judged and two unjudged queries: each unjudged one scores 0 in every mean
        assert table == {
            depth: {name: pytest.approx(value / 2) for name, value in metrics.items()}
            for depth, metrics in judged.items()
        }

    def test_table_file(self, tmp_path):
        run, qrels = self._fixture_run()
        table = depth_sweep(run, GradeOracleScorer(qrels), [1, 3], qrels)
        out = tmp_path / "sweep.tsv"
        write_sweep_table(table, out)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("depth\t")
        assert len(lines) == 3
