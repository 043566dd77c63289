"""Optional checks against the full licensed click collection.

The production corpus is distributed under a data-use agreement and is not
bundled here. Point ``CLICK_CORPUS_DIR`` at a directory containing:

    collection.tsv      id<TAB>text passage collection
    queries_head.tsv    id<TAB>text head test queries
    qrels_head.trec     qid 0 pid grade

to run these. Expected reference values can be overridden through the
``EXPECTED_*`` environment variables; defaults match the collection's
published summary statistics and its reported first-stage baseline, with
the caveat that the original baseline's exact BM25 configuration is
unknown, hence the wide tolerance.
"""

import os
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    "CLICK_CORPUS_DIR" not in os.environ,
    reason="licensed collection not available (set CLICK_CORPUS_DIR to run)",
)


@pytest.fixture(scope="module")
def corpus_dir():
    path = Path(os.environ["CLICK_CORPUS_DIR"])
    for name in ("collection.tsv", "queries_head.tsv", "qrels_head.trec"):
        if not (path / name).exists():
            pytest.skip(f"{name} missing under {path}")
    return path


def _expected(name, default):
    return float(os.environ.get(name, default))


def test_collection_statistics(corpus_dir):
    from clickrank.corpus import load_collection, load_queries

    store = load_collection(corpus_dir / "collection.tsv")
    queries = load_queries(corpus_dir / "queries_head.tsv", "head")
    avg_passage_words = sum(len(text.split()) for _, text in store.items()) / len(store)
    avg_query_words = sum(len(q.text.split()) for q in queries) / len(queries)

    expected_passage_words = _expected("EXPECTED_AVG_PASSAGE_WORDS", 259.0)
    expected_query_words = _expected("EXPECTED_AVG_QUERY_WORDS", 4.4)
    assert abs(avg_passage_words - expected_passage_words) <= 0.05 * expected_passage_words
    assert abs(avg_query_words - expected_query_words) <= 0.05 * expected_query_words
    assert len(store) > 1_000_000
    assert len(queries) == int(_expected("EXPECTED_HEAD_QUERIES", 1175))


def test_first_stage_head_ndcg(corpus_dir):
    from clickrank.bm25 import batch_search, build_index
    from clickrank.corpus import load_collection, load_qrels, load_queries
    from clickrank.evaluation import evaluate_run

    store = load_collection(corpus_dir / "collection.tsv")
    queries = load_queries(corpus_dir / "queries_head.tsv", "head")
    qrels = load_qrels(corpus_dir / "qrels_head.trec")

    index = build_index(store)
    run = batch_search(index, queries, 1000)
    report = evaluate_run(run, qrels)
    ndcg = report.splits["all"].metrics["nDCG@10"]

    expected = _expected("EXPECTED_HEAD_NDCG10", 0.140)
    assert abs(ndcg - expected) <= 0.03, f"nDCG@10 {ndcg:.3f} vs expected {expected:.3f}"
