import filecmp

import numpy as np
import pytest

from clickrank.bm25 import batch_search, build_index
from clickrank.corpus import DEFAULT_CTR_THRESHOLDS, build_qrels_from_clicks
from clickrank.synth import FixtureSpec, generate_fixture


class TestDeterminism:
    def test_identical_specs_give_identical_files(self, tmp_path):
        spec = FixtureSpec(n_passages=120, n_queries=12, seed=42)
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            generate_fixture(spec).write(out)
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
        assert mismatch == [] and errors == []
        assert len(match) == len(names)

    def test_seed_changes_output(self, tmp_path):
        a = generate_fixture(FixtureSpec(n_passages=120, n_queries=12, seed=1))
        b = generate_fixture(FixtureSpec(n_passages=120, n_queries=12, seed=2))
        assert dict(a.store.items()) != dict(b.store.items())


class TestPlantedRelevance:
    def test_clicks_agree_with_planted_grades(self, small_fixture, small_qrels):
        for qid, pool in small_fixture.relevant.items():
            for pid, grade in pool.items():
                assert small_qrels.grade(qid, pid) == grade
        # every relevant passage got at least one click
        clicked = {(r.query_id, r.passage_id) for r in small_fixture.clicks if r.clicks >= 1}
        for qid, pool in small_fixture.relevant.items():
            for pid in pool:
                assert (qid, pid) in clicked

    def test_judged_zero_entries_exist(self, small_fixture, small_qrels):
        zeros = sum(
            1
            for qid in small_qrels.query_ids
            for pid, g in small_qrels.judged_for(qid).items()
            if g == 0
        )
        assert zeros >= len(small_fixture.relevant)  # two per query by construction

    def test_dctr_thresholds_are_the_published_default(self):
        assert DEFAULT_CTR_THRESHOLDS == (0.1, 0.3)

    def test_dense_margin_exhaustive(self, small_fixture):
        ids = small_fixture.passage_vectors.ids
        matrix = small_fixture.passage_vectors.tokens.astype(np.float64)
        for qid, pool in small_fixture.relevant.items():
            dots = matrix @ small_fixture.query_vectors.vector(qid).astype(np.float64)
            relevant = set(pool)
            rel_min = min(d for i, d in zip(ids, dots) if i in relevant)
            other_max = max(d for i, d in zip(ids, dots) if i not in relevant)
            assert rel_min > other_max

    def test_bm25_reaches_most_relevant_in_top_500(self, small_fixture):
        index = build_index(small_fixture.store)
        run = batch_search(index, small_fixture.queries, 500)
        hits = 0
        for qid, pool in small_fixture.relevant.items():
            top = {pid for pid, _ in run[qid]}
            if top & set(pool):
                hits += 1
        assert hits / len(small_fixture.relevant) >= 0.95


class TestShape:
    def test_splits_cover_all_queries(self, small_fixture):
        assert set(small_fixture.split_of) == {q.id for q in small_fixture.queries}
        assert set(small_fixture.split_of.values()) <= {"head", "torso", "tail"}

    def test_matrices_cover_everything(self, small_fixture):
        assert set(small_fixture.query_matrices.ids) == {q.id for q in small_fixture.queries}
        assert set(small_fixture.passage_matrices.ids) == set(small_fixture.store.ids)

    def test_too_few_passages_rejected(self):
        with pytest.raises(ValueError, match="passages"):
            generate_fixture(FixtureSpec(n_passages=20, n_queries=30, seed=0))

    def test_written_bundle_is_loadable(self, tmp_path, small_fixture):
        from clickrank.corpus import load_clicks, load_collection, load_qrels, load_queries
        from clickrank.embeddings import load_token_matrices, load_vectors
        from clickrank.evaluation import load_splits

        paths = small_fixture.write(tmp_path / "fx")
        store = load_collection(paths["collection"])
        assert len(store) == len(small_fixture.store)
        queries = load_queries(paths["queries"], "train")
        assert len(queries) == len(small_fixture.queries)
        clicks = load_clicks(paths["clicks"])
        assert clicks == small_fixture.clicks
        qrels = load_qrels(paths["qrels"])
        assert qrels == build_qrels_from_clicks(small_fixture.clicks, "dctr", DEFAULT_CTR_THRESHOLDS)
        vectors = load_vectors(paths["passage_vectors"])
        assert len(vectors) == len(small_fixture.store)
        matrices = load_token_matrices(paths["query_matrices"])
        assert len(matrices) == len(small_fixture.queries)
        assert load_splits(paths["splits"]) == small_fixture.split_of
