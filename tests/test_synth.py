import filecmp
import hashlib

import numpy as np
import pytest

from clickrank.bm25 import batch_search, build_index, tokenize
from clickrank.corpus import DEFAULT_CTR_THRESHOLDS, build_qrels_from_clicks
from clickrank.synth import FixtureSpec, _zipf_sampler, generate_fixture

# SHA-256 of every file ``Fixture.write`` writes, per spec. A change to the
# generator, to a writer or to numpy's random streams shows here first.
GOLDEN = {
    FixtureSpec(n_passages=300, n_queries=30, seed=11): {
        "clicks.tsv": "f8ec55d24769536859d284e44763b456e40a605e6cc27a375f980e90ec5d45b5",
        "collection.tsv": "262095c8143c02185ab24c7bfe3c8c90b3c69928ef1bc2d948bea89ac40623cd",
        "passage_matrices.tkm": "3d5e67be62f3362f5d6a50127bf87c40904329d8580868aa6309266b27bc45be",
        "passage_vectors.tkv": "2a13fdf550f8506438dd5da169d9cb7645ccacb9eebe026469b78a6b5af80e55",
        "qrels.trec": "69543820fb64c4f6ea433b64ba8962923e38b7da114a3d0a19f5f2a45c3d7e9a",
        "queries.tsv": "b5cd3b8be14e17645ef3f2d96d84cee35ff123114a72d9a5fe4197f5c7d5b19f",
        "query_matrices.tkm": "3e696c303a29e3f471518fa8f1ee79cb1908bdb18aa2d26b206ce4bf95d966a0",
        "query_vectors.tkv": "99e45d785ab96a8eb0652fdee3643fce2009040ad07119117f69533febd1788b",
        "splits.tsv": "058f205c4af58a1ad1634003515e111a292f99e674b4c96e64bea363d11cf1ab",
    },
    FixtureSpec(n_passages=120, n_queries=12, term_dim=8, seed=5): {
        "clicks.tsv": "90cd9fb171d0e48553ebc84cf0c3f7372ca107dac44e8c1e366c8500f9aae939",
        "collection.tsv": "8a4b5472fcfdf90f18bce96e5ea1099a750cb05b440f59cb7beaa7a4860c252b",
        "passage_matrices.tkm": "f4a42e466084cd2362c98c0385ad1bea956f56bd9109895bbb64e1393e06ade0",
        "passage_vectors.tkv": "c2782591c49158c917dc141614222d944f035e96d5d68efa68b5cedbd51f68c7",
        "qrels.trec": "211d679f04ffc5061955d354efb85574d42cee833fdbfd2f4ec6d0d3b9e472df",
        "queries.tsv": "06b9d985a46306513a36cc32ac76ad6f1abec3b865a7658dc60946caf78b8091",
        "query_matrices.tkm": "98abb48082e6ad7d284db564e992881f42d696c9e857ab69dcfa7d61565dedbe",
        "query_vectors.tkv": "220fdb7b89a1c05b5d5a50908c7387f01085478c70152056cacdf4cac24209a7",
        "splits.tsv": "e19450698b5bb3479c9807b7094aa4cce868b6c46199201f139fc5503ac3f8f0",
    },
}


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

    @pytest.mark.parametrize("spec", list(GOLDEN), ids=["conftest-spec", "term-dim-8"])
    def test_written_files_are_pinned(self, tmp_path, spec):
        paths = generate_fixture(spec).write(tmp_path)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths.values()}
        assert digests == GOLDEN[spec]

    def test_seed_changes_output(self, tmp_path):
        a = generate_fixture(FixtureSpec(n_passages=120, n_queries=12, seed=1))
        b = generate_fixture(FixtureSpec(n_passages=120, n_queries=12, seed=2))
        assert dict(a.store.items()) != dict(b.store.items())


class TestBackgroundDraws:
    """The generator's background draws are ``Generator.choice`` with ``p``;
    a numpy whose ``choice`` draws differently fails here rather than
    silently changing every fixture."""

    @pytest.mark.parametrize("seed", [0, 1, 11, 2024])
    @pytest.mark.parametrize("size", [1, 600, 7225])
    def test_sampler_matches_choice_with_p(self, seed, size):
        zipf = 1.0 / np.arange(1, size + 1)
        zipf /= zipf.sum()
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = _zipf_sampler(ours, size)
        mixed = np.random.default_rng(seed + 1).integers(1, 61, size=100).tolist()
        for n in [*range(1, 61), *mixed]:
            assert draw(n) == reference.choice(size, size=n, p=zipf).tolist()
        assert ours.bit_generator.state == reference.bit_generator.state


class TestSpecValidation:
    @pytest.mark.parametrize(
        "bad, named",
        [
            ({"dim": 0}, "dim"),
            ({"dim": -3}, "dim"),
            ({"term_dim": 0}, "term_dim"),
            ({"max_relevant_per_query": 0}, "max_relevant_per_query"),
            ({"max_relevant_per_query": -2}, "max_relevant_per_query"),
            ({"seed": -2}, r"^seed must be >= 0, got -2$"),
        ],
        ids=[
            "dim-0", "dim-negative", "term-dim-0",
            "max-relevant-0", "max-relevant-negative", "seed-negative",
        ],
    )
    def test_rejected(self, bad, named):
        with pytest.raises(ValueError, match=named):
            FixtureSpec(n_passages=100, n_queries=5, **bad)


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

    def test_matrix_rows_are_the_text_tokens(self, small_fixture):
        """One unit-length row per token of the text, the same row wherever a
        term occurs, in the query and the passage stores alike."""
        row_of: dict[str, bytes] = {}
        texts = [*((q.id, q.text) for q in small_fixture.queries), *small_fixture.store.items()]
        stores = [small_fixture.query_matrices] * len(small_fixture.queries) + [
            small_fixture.passage_matrices
        ] * len(small_fixture.store)
        for (ident, text), matrices in zip(texts, stores):
            matrix = matrices.matrix(ident)
            tokens = tokenize(text)
            assert matrix.shape == (len(tokens), small_fixture.spec.term_dim)
            np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0, rtol=1e-6)
            for token, row in zip(tokens, matrix):
                assert row_of.setdefault(token, row.tobytes()) == row.tobytes()

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
