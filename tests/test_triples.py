import numpy as np
import pytest

from clickrank.bm25 import build_index
from clickrank.corpus import Passage, PassageStore, Qrels, Query, QuerySet
from clickrank.triples import (
    SamplingConfig,
    TrainingTriple,
    generate_triples,
    read_triples,
    sample_negatives,
    stable_query_seed,
    write_text_triples,
    write_triples,
)


def _tiny_corpus(n_docs=12, shared="shared"):
    """Every doc carries a shared term so one query matches all of them."""
    store = PassageStore(
        [Passage(f"p{i:02d}", f"{shared} filler{i % 3}") for i in range(n_docs)]
    )
    queries = QuerySet([Query("q1", shared, "train")])
    return store, queries


class TestSamplingConfig:
    def test_defaults(self):
        config = SamplingConfig()
        assert config.candidate_depth == 500
        assert config.max_negatives_per_positive == 20
        assert config.triple_cap == 10_000_000

    def test_validation(self):
        with pytest.raises(ValueError, match="candidate_depth"):
            SamplingConfig(candidate_depth=5, max_negatives_per_positive=10)
        with pytest.raises(ValueError, match="triple_cap"):
            SamplingConfig(triple_cap=0)
        with pytest.raises(ValueError, match="max_negatives"):
            SamplingConfig(max_negatives_per_positive=0)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            SamplingConfig(seed=-1)

    def test_triple_self_contradiction_rejected(self):
        with pytest.raises(ValueError, match="positive and negative"):
            TrainingTriple("q", "p1", "p1")


class TestStableSeed:
    def test_deterministic_and_distinct(self):
        assert stable_query_seed(7, "q1") == stable_query_seed(7, "q1")
        assert stable_query_seed(7, "q1") != stable_query_seed(7, "q2")
        assert stable_query_seed(7, "q1") != stable_query_seed(8, "q1")


class TestSampleNegatives:
    def test_all_relevant_yields_nothing(self):
        rng = np.random.default_rng(0)
        assert sample_negatives(["a", "b"], {"a", "b"}, 5, rng) == []

    def test_exhaustion_returns_every_eligible(self):
        rng = np.random.default_rng(0)
        candidates = [f"c{i}" for i in range(8)]
        relevant = {"c0", "c1", "c2"}
        picked = sample_negatives(candidates, relevant, 20, rng)
        assert sorted(picked) == ["c3", "c4", "c5", "c6", "c7"]

    def test_no_duplicates_and_subset(self):
        rng = np.random.default_rng(1)
        candidates = [f"c{i}" for i in range(30)]
        relevant = {"c5", "c6"}
        for _ in range(50):
            picked = sample_negatives(candidates, relevant, 10, rng)
            assert len(picked) == 10
            assert len(set(picked)) == 10
            assert set(picked) <= set(candidates) - relevant

    def test_uniform_inclusion_frequency(self):
        # every eligible candidate should be included with rate max_n / n;
        # here 3/10, within 3 sigma of the binomial sampling error
        rng = np.random.default_rng(2)
        candidates = [f"c{i}" for i in range(10)]
        reps = 1000
        counts = {c: 0 for c in candidates}
        for _ in range(reps):
            for pick in sample_negatives(candidates, set(), 3, rng):
                counts[pick] += 1
        expected = 0.3
        sigma = (expected * (1 - expected) / reps) ** 0.5
        for c, n in counts.items():
            assert abs(n / reps - expected) <= 3 * sigma, (c, n / reps)


class TestGenerateTriples:
    def test_exhaustion_produces_all_eligible(self):
        store, queries = _tiny_corpus(n_docs=9)
        index = build_index(store)
        qrels = Qrels({"q1": {"p00": 1, "p01": 0}})  # grade 0 stays eligible
        report = generate_triples(
            queries, qrels, index, SamplingConfig(candidate_depth=500, seed=1)
        )
        # 9 candidates minus the single positive -> 8 eligible (p01 included)
        assert len(report.triples) == 8
        assert all(t.positive_id == "p00" for t in report.triples)
        assert {t.negative_id for t in report.triples} == {f"p{i:02d}" for i in range(1, 9)}

    def test_negative_never_in_relevant_pool(self):
        store, queries = _tiny_corpus(n_docs=12)
        index = build_index(store)
        qrels = Qrels({"q1": {"p00": 2, "p01": 1, "p02": 1}})
        report = generate_triples(queries, qrels, index, SamplingConfig(seed=4))
        pool = qrels.relevant_pool("q1")
        for t in report.triples:
            assert t.negative_id not in pool
            assert t.positive_id in pool

    def test_negatives_come_from_candidate_pool(self):
        store, queries = _tiny_corpus(n_docs=12)
        index = build_index(store)
        qrels = Qrels({"q1": {"p00": 1}})
        depth = 5
        report = generate_triples(
            queries,
            qrels,
            index,
            SamplingConfig(candidate_depth=depth, max_negatives_per_positive=5, seed=0),
        )
        pool = {pid for pid, _ in index.search("shared", depth)}
        assert all(t.negative_id in pool for t in report.triples)

    def test_max_negatives_respected(self):
        store, queries = _tiny_corpus(n_docs=40)
        index = build_index(store)
        qrels = Qrels({"q1": {"p00": 1, "p01": 1}})
        report = generate_triples(
            queries, qrels, index, SamplingConfig(max_negatives_per_positive=7, seed=0)
        )
        per_pair: dict[tuple[str, str], int] = {}
        for t in report.triples:
            per_pair[(t.query_id, t.positive_id)] = per_pair.get((t.query_id, t.positive_id), 0) + 1
        assert all(n <= 7 for n in per_pair.values())
        assert set(per_pair) == {("q1", "p00"), ("q1", "p01")}

    def test_same_seed_same_bytes(self, tmp_path):
        store, queries = _tiny_corpus(n_docs=25)
        index = build_index(store)
        qrels = Qrels({"q1": {"p00": 1, "p03": 2}})
        paths = []
        for tag in ("a", "b"):
            report = generate_triples(queries, qrels, index, SamplingConfig(seed=99))
            path = tmp_path / f"{tag}.tsv"
            write_triples(report.triples, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_different_seed_same_multiset_under_exhaustion(self):
        # with fewer eligible candidates than max_n every seed must pick them all
        store, queries = _tiny_corpus(n_docs=10)
        index = build_index(store)
        qrels = Qrels({"q1": {"p00": 1}})
        a = generate_triples(queries, qrels, index, SamplingConfig(seed=1)).triples
        b = generate_triples(queries, qrels, index, SamplingConfig(seed=2)).triples
        assert sorted(a) == sorted(b)

    def test_different_seed_different_sample_when_not_exhausted(self):
        store, queries = _tiny_corpus(n_docs=60)
        index = build_index(store)
        qrels = Qrels({"q1": {"p00": 1}})
        a = generate_triples(queries, qrels, index, SamplingConfig(seed=1, max_negatives_per_positive=5)).triples
        b = generate_triples(queries, qrels, index, SamplingConfig(seed=2, max_negatives_per_positive=5)).triples
        assert len(a) == len(b) == 5
        assert {t.negative_id for t in a} != {t.negative_id for t in b}

    def test_cap_truncates_after_shuffle(self):
        store, queries = _tiny_corpus(n_docs=30)
        index = build_index(store)
        qrels = Qrels({"q1": {"p00": 1}})
        report = generate_triples(
            queries, qrels, index, SamplingConfig(triple_cap=3, max_negatives_per_positive=20, seed=0)
        )
        assert len(report.triples) == 3
        assert report.truncated

    def test_queries_without_positives_counted(self):
        store, _ = _tiny_corpus(n_docs=8)
        index = build_index(store)
        queries = QuerySet(
            [Query("q1", "shared", "train"), Query("q2", "shared", "train")]
        )
        qrels = Qrels({"q1": {"p00": 1}})
        report = generate_triples(queries, qrels, index, SamplingConfig(seed=0))
        assert report.queries_processed == 1
        assert report.skipped_missing_qrels == 1

    def test_zero_triples_is_an_error(self):
        store, queries = _tiny_corpus(n_docs=4)
        index = build_index(store)
        with pytest.raises(ValueError, match="no training triples"):
            generate_triples(queries, Qrels(), index, SamplingConfig(seed=0))

    def test_legacy_mode_takes_candidates_above_positive(self):
        # doc texts tuned so the positive lands mid-ranking
        store = PassageStore(
            [Passage("p0", "shared shared shared")]
            + [Passage(f"p{i}", "shared pad pad pad pad pad") for i in range(1, 8)]
        )
        queries = QuerySet([Query("q1", "shared", "train")])
        index = build_index(store)
        ranked = [pid for pid, _ in index.search("shared", 100)]
        positive = ranked[3]
        qrels = Qrels({"q1": {positive: 1}})
        report = generate_triples(
            queries, qrels, index, SamplingConfig(seed=0, legacy_mode=True)
        )
        above = set(ranked[:3])
        assert report.triples  # something was sampled
        assert all(t.negative_id in above for t in report.triples)

    def test_legacy_mode_draws_match_reference(self, small_fixture, small_qrels):
        index = build_index(small_fixture.store)
        config = SamplingConfig(
            candidate_depth=60, max_negatives_per_positive=4, seed=6, legacy_mode=True
        )
        report = generate_triples(small_fixture.queries, small_qrels, index, config)
        # reference: the unclicked candidates ranked above each positive, drawn
        # from the query's own rng stream, then one seeded shuffle
        expected = []
        unranked_positives = 0
        for qid in sorted(q.id for q in small_fixture.queries):
            positives = sorted(small_qrels.relevant_pool(qid))
            ranked = [pid for pid, _ in index.search(small_fixture.queries.text(qid), 60)]
            rng = np.random.default_rng(stable_query_seed(6, qid))
            for positive in positives:
                if positive not in ranked:
                    unranked_positives += 1
                    continue
                above = [p for p in ranked[: ranked.index(positive)] if p not in positives]
                if above:
                    picks = rng.choice(len(above), size=min(4, len(above)), replace=False)
                    expected += [TrainingTriple(qid, positive, above[i]) for i in picks]
        assert expected and unranked_positives  # both branches of the policy ran
        order = np.random.default_rng(6).permutation(len(expected))
        assert report.triples == [expected[i] for i in order]


class TestTripleFiles:
    def test_roundtrip(self, tmp_path):
        triples = [TrainingTriple("q1", "a", "b"), TrainingTriple("q2", "c", "d")]
        path = tmp_path / "triples.tsv"
        write_triples(triples, path)
        assert read_triples(path) == triples

    def test_text_materialization(self, tmp_path):
        store = PassageStore([Passage("a", "text A"), Passage("b", "text B")])
        queries = QuerySet([Query("q1", "the query", "train")])
        path = tmp_path / "text.tsv"
        write_text_triples([TrainingTriple("q1", "a", "b")], store, queries, path)
        assert path.read_text() == "the query\ttext A\ttext B\n"

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\tonly-two\n")
        with pytest.raises(ValueError, match="line 1"):
            read_triples(path)
