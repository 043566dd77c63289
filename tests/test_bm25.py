import math

import numpy as np
import pytest

from clickrank.bm25 import (
    DEFAULT_B,
    DEFAULT_K1,
    InvertedIndex,
    batch_search,
    build_index,
    tokenize,
)
from clickrank.corpus import Passage, PassageStore, Query, QuerySet
from clickrank.runs import write_run


def _store(texts: dict[str, str]) -> PassageStore:
    return PassageStore([Passage(pid, text) for pid, text in texts.items()])


def _oracle_score(doc_tokens, all_doc_tokens, query_tokens, k1, b):
    """Independent scalar BM25: recounts tf/df from raw token lists."""
    N = len(all_doc_tokens)
    avgdl = sum(len(d) for d in all_doc_tokens.values()) / N
    counts = {}
    for t in doc_tokens:
        counts[t] = counts.get(t, 0) + 1
    score = 0.0
    for t in query_tokens:
        tf = counts.get(t, 0)
        if tf == 0:
            continue
        df = sum(1 for toks in all_doc_tokens.values() if t in toks)
        idf = math.log(1 + (N - df + 0.5) / (df + 0.5))
        norm = 1 - b + b * len(doc_tokens) / avgdl
        score += idf * tf * (k1 + 1) / (tf + k1 * norm)
    return score


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("Heart-Attack risk!") == ["heart", "attack", "risk"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_kept(self):
        assert tokenize("COVID-19") == ["covid", "19"]

    def test_underscore_is_a_separator(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_lowercasing(self):
        assert tokenize("AbC aBc") == ["abc", "abc"]

    def test_unicode_alphanumerics_kept(self):
        assert tokenize("Müller's naïve café") == ["müller", "s", "naïve", "café"]


class TestBuildIndex:
    def test_counting(self):
        index = build_index(_store({"d1": "a b a", "d2": "b c"}))
        assert len(index.postings["a"]) == 1
        assert len(index.postings["b"]) == 2
        assert index.term_frequency("a", "d1") == 2
        assert index.doc_lengths == {"d1": 3, "d2": 2}
        assert index.avg_doc_length == pytest.approx(2.5)

    def test_empty_text_document(self):
        index = build_index(_store({"d1": ""}))
        assert index.doc_lengths["d1"] == 0
        assert index.postings == {}

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_index(_store({}))

    def test_postings_sorted_by_passage_id(self):
        index = build_index(_store({"z": "tok", "a": "tok", "m": "tok"}))
        assert [pid for pid, _ in index.postings["tok"]] == ["a", "m", "z"]

    def test_postings_match_independent_recount(self):
        # build a larger synthetic corpus and recount everything by hand
        rng = np.random.default_rng(3)
        vocab = [f"w{i}" for i in range(80)]
        texts = {
            f"d{i:05d}": " ".join(vocab[j] for j in rng.integers(0, len(vocab), rng.integers(1, 40)))
            for i in range(10_000)
        }
        index = build_index(_store(texts))
        expected_df: dict[str, int] = {}
        expected_tf_total: dict[str, int] = {}
        for text in texts.values():
            toks = text.split()
            for t in set(toks):
                expected_df[t] = expected_df.get(t, 0) + 1
            for t in toks:
                expected_tf_total[t] = expected_tf_total.get(t, 0) + 1
        assert {t: len(pl) for t, pl in index.postings.items()} == expected_df
        assert {t: sum(tf for _, tf in pl) for t, pl in index.postings.items()} == expected_tf_total


class TestScore:
    def test_no_matching_terms_scores_zero(self):
        index = build_index(_store({"d1": "alpha beta"}))
        assert index.score(["gamma"], "d1") == 0.0

    def test_single_doc_matches_scalar_formula(self):
        index = build_index(_store({"d1": "a b"}))
        got = index.score(["a", "b"], "d1")
        # direct evaluation: N=1, df=1, tf=1, len=avgdl=2
        idf = math.log(1 + (1 - 1 + 0.5) / (1 + 0.5))
        norm = 1 - DEFAULT_B + DEFAULT_B * 1.0
        expected = 2 * idf * 1 * (DEFAULT_K1 + 1) / (1 + DEFAULT_K1 * norm)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.5753641449035617, rel=1e-12)

    def test_three_doc_ranking(self):
        texts = {
            "d1": "heart attack symptoms",
            "d2": "heart disease",
            "d3": "broken heart",
        }
        index = build_index(_store(texts))
        tokens = tokenize("heart attack")
        all_tokens = {pid: t.split() for pid, t in texts.items()}
        oracle = {
            pid: _oracle_score(all_tokens[pid], all_tokens, tokens, DEFAULT_K1, DEFAULT_B)
            for pid in texts
        }
        best = max(oracle, key=oracle.get)
        assert best == "d1"
        ranked = index.search("heart attack", 3)
        assert ranked[0][0] == "d1"
        for pid, score in ranked:
            assert score == pytest.approx(oracle[pid], rel=1e-12)

    def test_unknown_passage(self):
        index = build_index(_store({"d1": "a"}))
        with pytest.raises(KeyError, match="nope"):
            index.score(["a"], "nope")

    def test_score_strictly_increasing_in_tf(self):
        # same lengths, one more occurrence of the query term
        index = build_index(_store({"d1": "x pad pad pad", "d2": "x x pad pad"}))
        s1 = index.score(["x"], "d1")
        s2 = index.score(["x"], "d2")
        assert s2 > s1


class TestSearch:
    def test_result_count_bounded_by_matches(self):
        texts = {f"m{i:03d}": "needle filler" for i in range(40)}
        texts.update({f"x{i:03d}": "other stuff" for i in range(60)})
        index = build_index(_store(texts))
        results = index.search("needle", 500)
        assert len(results) == 40

    def test_unknown_terms_give_empty_result(self):
        index = build_index(_store({"d1": "a b"}))
        assert index.search("zzz qqq", 10) == []

    def test_k_validation(self):
        index = build_index(_store({"d1": "a"}))
        with pytest.raises(ValueError, match="k"):
            index.search("a", 0)

    def test_prefix_property(self):
        rng = np.random.default_rng(5)
        vocab = [f"t{i}" for i in range(30)]
        texts = {
            f"d{i:04d}": " ".join(vocab[j] for j in rng.integers(0, 30, rng.integers(2, 12)))
            for i in range(200)
        }
        index = build_index(_store(texts))
        for _ in range(20):
            query = " ".join(vocab[j] for j in rng.integers(0, 30, 3))
            full = index.search(query, 200)
            for k in (1, 5, 17, 50):
                assert index.search(query, k) == full[:k]

    def test_matches_exhaustive_scoring(self):
        rng = np.random.default_rng(11)
        vocab = [f"t{i}" for i in range(40)]
        texts = {
            f"d{i:04d}": " ".join(vocab[j] for j in rng.integers(0, 40, rng.integers(1, 25)))
            for i in range(500)
        }
        index = build_index(_store(texts))
        all_tokens = {pid: t.split() for pid, t in texts.items()}
        for _ in range(25):
            tokens = [vocab[j] for j in rng.integers(0, 40, int(rng.integers(1, 4)))]
            oracle = []
            for pid in texts:
                s = _oracle_score(all_tokens[pid], all_tokens, tokens, DEFAULT_K1, DEFAULT_B)
                if s > 0:
                    oracle.append((pid, s))
            oracle.sort(key=lambda e: (-e[1], e[0]))
            got = index.search(" ".join(tokens), len(texts))
            assert [p for p, _ in got] == [p for p, _ in oracle]
            for (_, a), (_, b) in zip(got, oracle):
                assert a == pytest.approx(b, rel=1e-9)

    def test_deterministic_run_files(self, tmp_path):
        texts = {f"d{i:03d}": f"alpha beta w{i % 7}" for i in range(50)}
        queries = QuerySet([Query("q1", "alpha w3", "train"), Query("q2", "beta", "train")])
        files = []
        for tag in ("one", "two"):
            index = build_index(_store(texts))
            run = batch_search(index, queries, 20, run_name="bm25")
            out = tmp_path / f"{tag}.trec"
            write_run(run, out)
            files.append(out.read_bytes())
        assert files[0] == files[1]


class TestStopwords:
    def test_stopwords_excluded_from_postings_and_lengths(self):
        index = build_index(_store({"d1": "the heart the attack"}), stopwords=frozenset({"the"}))
        assert "the" not in index.postings
        assert index.doc_lengths["d1"] == 2

    def test_query_side_filtering_matches(self):
        stop = frozenset({"the", "of"})
        index = build_index(
            _store({"d1": "signs of the heart attack", "d2": "the the the unrelated"}),
            stopwords=stop,
        )
        results = index.search("the heart", 10)
        assert [pid for pid, _ in results] == ["d1"]
        # score() applies the same filter
        assert index.score(["the", "heart"], "d1") == results[0][1]

    def test_stopwords_survive_persistence(self, tmp_path):
        index = build_index(_store({"d1": "the heart"}), stopwords=frozenset({"the"}))
        index.save(tmp_path / "idx")
        loaded = InvertedIndex.load(tmp_path / "idx")
        assert loaded.stopwords == frozenset({"the"})


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        index = build_index(_store({"d1": "a b a", "d2": "b c"}), k1=1.2, b=0.75)
        index.save(tmp_path / "idx")
        loaded = InvertedIndex.load(tmp_path / "idx")
        assert loaded.postings == index.postings
        assert loaded.doc_lengths == index.doc_lengths
        assert loaded.k1 == index.k1 and loaded.b == index.b
        assert loaded.avg_doc_length == index.avg_doc_length
        assert loaded.search("a b", 5) == index.search("a b", 5)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ValueError, match="meta.json"):
            InvertedIndex.load(tmp_path / "nothing")

    def test_version_header_checked(self, tmp_path):
        index = build_index(_store({"d1": "a"}))
        index.save(tmp_path / "idx")
        meta = tmp_path / "idx" / "meta.json"
        meta.write_text(meta.read_text().replace('"version": 1', '"version": 99'))
        with pytest.raises(ValueError, match="version"):
            InvertedIndex.load(tmp_path / "idx")
