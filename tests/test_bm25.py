import io
import json
import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from clickrank import bm25
from clickrank.bm25 import (
    DEFAULT_B,
    DEFAULT_K1,
    INDEX_FILES,
    InvertedIndex,
    batch_search,
    build_index,
    tokenize,
)
from clickrank.corpus import Passage, PassageStore, Query, QuerySet
from clickrank.runs import write_run


def _store(texts: dict[str, str]) -> PassageStore:
    return PassageStore([Passage(pid, text) for pid, text in texts.items()])


def _decoded(index: InvertedIndex) -> dict[str, list[tuple[str, int]]]:
    """The CSR columns read back as term -> [(passage id, tf), ...]."""
    out = {}
    for t, term in enumerate(index.terms):
        lo, hi = index.term_offsets[t], index.term_offsets[t + 1]
        docs, tfs = index.postings_doc[lo:hi].tolist(), index.postings_tf[lo:hi].tolist()
        out[term] = [(index.ids[d], tf) for d, tf in zip(docs, tfs)]
    return out


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
        assert _decoded(index) == {"a": [("d1", 2)], "b": [("d1", 1), ("d2", 1)], "c": [("d2", 1)]}
        assert index.doc_lengths == {"d1": 3, "d2": 2}
        assert index.avg_doc_length == pytest.approx(2.5)

    def test_empty_text_document(self):
        index = build_index(_store({"d1": ""}))
        assert index.doc_lengths["d1"] == 0
        assert len(index.postings) == 0 and index.term_offsets.tolist() == [0]

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_index(_store({}))

    @pytest.mark.parametrize(
        "k1, b, accepted",
        [
            (-1.0, DEFAULT_B, False),
            (math.nan, DEFAULT_B, False),
            (math.inf, DEFAULT_B, False),
            (DEFAULT_K1, 1.5, False),
            (DEFAULT_K1, -0.1, False),
            (DEFAULT_K1, math.nan, False),
            (0.0, 0.0, True),
            (DEFAULT_K1, 1.0, True),
        ],
        ids=["k1-negative", "k1-nan", "k1-inf", "b-above-1", "b-negative", "b-nan", "zeros", "b-1"],
    )
    def test_parameters_out_of_range_rejected(self, tmp_path, k1, b, accepted):
        store = _store({"d1": "a b", "d2": "b c"})
        build_index(store).save(tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        # json writes an infinite k1 as Infinity, which it reads back
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "k1": k1, "b": b}))
        if accepted:
            built = build_index(store, k1=k1, b=b)
            assert InvertedIndex.load(tmp_path / "idx").search("b", 2) == built.search("b", 2)
            return
        with pytest.raises(ValueError, match="BM25 (k1|b) must be"):
            build_index(store, k1=k1, b=b)
        with pytest.raises(ValueError, match="meta.json: BM25 (k1|b) must be"):
            InvertedIndex.load(tmp_path / "idx")

    def test_postings_sorted_by_passage_id(self):
        index = build_index(_store({"z": "tok", "a": "tok", "m": "tok"}))
        assert index.ids == ["a", "m", "z"]
        assert index.postings["tok"].tolist() == [0, 1, 2]
        assert [pid for pid, _ in _decoded(index)["tok"]] == ["a", "m", "z"]

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
        decoded = _decoded(index)
        assert {t: sum(tf for _, tf in pl) for t, pl in decoded.items()} == expected_tf_total
        for pl in decoded.values():
            assert [pid for pid, _ in pl] == sorted({pid for pid, _ in pl})


def _bags(index: InvertedIndex) -> dict[str, dict[str, int]]:
    """Passage id -> {term: tf}, read back from the postings."""
    bags = {pid: {} for pid in index.ids}
    for term, postings in _decoded(index).items():
        for pid, tf in postings:
            bags[pid][term] = tf
    return bags


def _assert_tokenized_per_passage(index: InvertedIndex, texts: dict[str, str]) -> None:
    """The index holds what ``tokenize`` gives for each passage on its own."""
    assert _bags(index) == {pid: dict(Counter(tokenize(text))) for pid, text in texts.items()}
    assert index.doc_lengths == {pid: len(tokenize(text)) for pid, text in texts.items()}


class TestChunkedTokenizing:
    """``build_index`` tokenizes a chunk of ASCII passages with str methods;
    the postings are those of ``tokenize`` run on each passage."""

    def test_every_ascii_character(self):
        for c in map(chr, range(128)):
            texts = {"p0": c, "p1": f"a{c}B", "p2": f"{c}x{c}"}
            _assert_tokenized_per_passage(build_index(_store(texts)), texts)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize(
        "text, per_passage",
        [
            ("one\ntwo", True),
            ("", False),
            ("one\r\ntwo", True),
            ("one\x1ctwo", False),
            ("one_two", False),
            ("Straße", True),
            ("ΣΑΣ σας", True),
            ("İx", True),
        ],
        ids=["lf", "empty", "crlf", "x1c", "underscore", "strasse", "sigma", "dotted-i"],
    )
    def test_a_chunk_that_cannot_be_split_whole_goes_passage_by_passage(
        self, chunk, text, per_passage
    ):
        texts = {"p0": "Alpha beta", "p1": text, "p2": "Gamma-delta 7", "p3": "eps,eps"}
        with (
            mock.patch.object(bm25, "_CHUNK_PASSAGES", chunk),
            mock.patch.object(bm25, "tokenize", wraps=tokenize) as per_text,
        ):
            index = build_index(_store(texts))
        _assert_tokenized_per_passage(index, texts)
        # only the chunk holding p1 falls back: the first, or p1 alone, ``chunk`` passages
        assert per_text.call_count == (chunk if per_passage else 0)


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

    @pytest.mark.parametrize("word", ["e-mail", "covid_19", "don't", "The", ""])
    def test_stopword_that_is_not_one_token_rejected(self, word):
        with pytest.raises(ValueError, match=f"^stopword {re.escape(repr(word))} is not one token"):
            build_index(_store({"d1": "the e mail covid 19"}), stopwords=frozenset({"the", word}))

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
        assert sorted(p.name for p in (tmp_path / "idx").iterdir()) == sorted(INDEX_FILES)
        assert _decoded(loaded) == _decoded(index)
        for column in ("term_offsets", "postings_doc", "postings_tf", "lengths", "norm"):
            assert np.array_equal(getattr(loaded, column), getattr(index, column)), column
        assert loaded.ids == index.ids and loaded.terms == index.terms
        assert loaded.doc_lengths == index.doc_lengths
        assert loaded.k1 == index.k1 and loaded.b == index.b
        assert loaded.avg_doc_length == index.avg_doc_length
        assert loaded.search("a b", 5) == index.search("a b", 5)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ValueError, match="meta.json"):
            InvertedIndex.load(tmp_path / "nothing")

    def test_interrupted_save_over_an_index_is_refused(self, tmp_path, monkeypatch):
        directory = tmp_path / "idx"
        build_index(_store({"p1": "a a b", "p2": "b c c"})).save(directory)
        replacement = build_index(_store({"p1": "a b b", "p2": "a c c"}))
        real = bm25.atomic_write

        def failing(path, binary=False):
            if path.name == "postings_tf.npy":
                raise OSError("no space left on device")
            return real(path, binary)

        monkeypatch.setattr(bm25, "atomic_write", failing)
        with pytest.raises(OSError):
            replacement.save(directory)
        # the files written so far mix the two indexes; read as one, they would rank p1 by neither
        with pytest.raises(ValueError, match=r"not an index directory \(meta.json missing\)"):
            InvertedIndex.load(directory)
        monkeypatch.undo()
        replacement.save(directory)
        assert InvertedIndex.load(directory).search("a", 2) == replacement.search("a", 2)

    def test_version_header_checked(self, tmp_path):
        index = build_index(_store({"d1": "a"}))
        index.save(tmp_path / "idx")
        meta = tmp_path / "idx" / "meta.json"
        meta.write_text(meta.read_text().replace('"version": 2', '"version": 99'))
        with pytest.raises(ValueError, match="version 99"):
            InvertedIndex.load(tmp_path / "idx")

    def test_version_1_directory_asks_for_a_rebuild(self, tmp_path):
        # the JSON layout earlier releases wrote
        old = tmp_path / "old"
        old.mkdir()
        meta = {"format": "clickrank-inverted-index", "version": 1, "k1": 0.9, "b": 0.4,
                "doc_count": 1, "avg_doc_length": 1.0, "stopwords": []}
        (old / "meta.json").write_text(json.dumps(meta))
        (old / "doc_lengths.json").write_text('{"d1": 1}')
        (old / "postings.json").write_text('{"a": [["d1", 1]]}')
        with pytest.raises(ValueError, match="rebuild it with `clickrank index build`"):
            InvertedIndex.load(old)


def _corrupt_array(name, edit):
    def corrupt(directory):
        values = np.load(directory / name)
        np.save(directory / name, edit(values.copy()))
    return corrupt


def _corrupt_json(name, edit):
    def corrupt(directory):
        path = directory / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return corrupt


def _overwrite(name, text):
    def corrupt(directory):
        (directory / name).write_text(text)
    return corrupt


def _without(key):
    return _corrupt_json("meta.json", lambda meta: {k: v for k, v in meta.items() if k != key})


def _set(values, i, v):
    values[i] = v
    return values


def _swap_first_two(values):
    values[[0, 1]] = values[[1, 0]]
    return values


class TestLoadValidation:
    """Each broken invariant is one ValueError naming the file it is in."""

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            (_corrupt_array("term_offsets.npy", lambda v: _set(v, 1, 6)), "term_offsets.npy"),
            (_corrupt_array("term_offsets.npy", lambda v: _set(v, 0, 1)), "term_offsets.npy"),
            (_corrupt_array("term_offsets.npy", lambda v: _set(v, -1, v[-1] - 1)), "term_offsets.npy"),
            (_corrupt_array("term_offsets.npy", lambda v: v[:-1]), "term_offsets.npy"),
            (_corrupt_array("term_offsets.npy", lambda v: v.astype("<i4")), "term_offsets.npy"),
            (_corrupt_array("postings_doc.npy", lambda v: _set(v, -1, 3)), "postings_doc.npy"),
            (_corrupt_array("postings_doc.npy", lambda v: _set(v, 0, -1)), "postings_doc.npy"),
            (_corrupt_array("postings_doc.npy", _swap_first_two), "postings_doc.npy"),
            (_corrupt_array("postings_tf.npy", lambda v: _set(v, 0, 0)), "postings_tf.npy"),
            (_corrupt_array("postings_tf.npy", lambda v: v[:-1]), "postings_tf.npy"),
            (_corrupt_array("doc_lengths.npy", lambda v: v[:-1]), "doc_lengths.npy"),
            (_corrupt_json("ids.json", lambda ids: ids[:-1]), "doc_lengths.npy"),
            (_corrupt_json("ids.json", lambda ids: ids[::-1]), "ids.json"),
            (_corrupt_json("ids.json", lambda ids: [ids[0], ids[0], ids[2]]), "ids.json"),
            (_corrupt_json("terms.json", lambda terms: terms[:-1]), "term_offsets.npy"),
            (_corrupt_json("terms.json", lambda terms: [terms[0]] * len(terms)), "terms.json"),
            (_corrupt_json("terms.json", lambda terms: {"terms": terms}), "terms.json"),
            (_corrupt_json("meta.json", lambda meta: {**meta, "doc_count": 4}), "meta.json"),
            (_corrupt_json("meta.json", lambda meta: {**meta, "avg_doc_length": 2.0}), "meta.json"),
            (_corrupt_json("meta.json", lambda meta: [meta]), "meta.json"),
            (_corrupt_json("meta.json", lambda meta: {**meta, "b": None}), "meta.json"),
            (_corrupt_json("meta.json", lambda meta: {**meta, "k1": "0.9"}), "meta.json"),
            (_corrupt_json("meta.json", lambda meta: {**meta, "stopwords": 5}), "meta.json"),
            (_corrupt_json("meta.json", lambda meta: {**meta, "stopwords": "the"}), "meta.json"),
            (_corrupt_json("meta.json", lambda meta: {**meta, "stopwords": ["E-mail", "the"]}),
             "meta.json"),
            (_without("k1"), "meta.json"),
            (_without("doc_count"), "meta.json"),
            (_overwrite("meta.json", '{"format": \n'), "meta.json"),
            (_overwrite("ids.json", '["d1",\n'), "ids.json"),
        ],
        ids=[
            "offsets-not-monotone", "offsets-not-from-0", "offsets-not-to-end", "offsets-short",
            "offsets-dtype", "doc-out-of-range", "doc-negative", "doc-not-increasing",
            "tf-zero", "tf-short", "lengths-short", "ids-short", "ids-descending",
            "ids-duplicate", "terms-short", "terms-duplicate", "terms-not-a-list",
            "meta-doc-count", "meta-avg-doc-length", "meta-a-list", "meta-b-null",
            "meta-k1-string", "meta-stopwords-number", "meta-stopwords-string",
            "meta-stopword-not-one-token", "meta-k1-missing",
            "meta-doc-count-missing", "meta-not-json", "ids-not-json",
        ],
    )
    def test_corruption_named(self, tmp_path, corrupt, named):
        index = build_index(_store({"d1": "a b", "d2": "a c c", "d3": "a b c"}))
        assert index.term_offsets.tolist() == [0, 3, 5, 7]
        assert index.postings_doc.tolist() == [0, 1, 2, 0, 2, 1, 2]
        directory = tmp_path / "idx"
        index.save(directory)
        InvertedIndex.load(directory)
        corrupt(directory)
        with pytest.raises(ValueError) as exc:
            InvertedIndex.load(directory)
        assert str(exc.value).startswith(str(directory / named) + ":")

    def test_unreadable_array(self, tmp_path):
        directory = tmp_path / "idx"
        build_index(_store({"d1": "a"})).save(directory)
        (directory / "postings_tf.npy").write_bytes(b"not an array")
        with pytest.raises(ValueError, match="postings_tf.npy"):
            InvertedIndex.load(directory)

    @pytest.mark.parametrize(
        "offset, byte",
        [(8, b'"'), (21, b","), (26, b"B")],
        # numpy's header parser fails on each, with whatever exception its
        # version raises
        ids=["length-quote", "descr-comma", "dict-bytes-key"],
    )
    def test_unreadable_header(self, tmp_path, offset, byte):
        directory = tmp_path / "idx"
        build_index(_store({"d1": "a b", "d2": "a c c", "d3": "a b c"})).save(directory)
        path = directory / "doc_lengths.npy"
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 1] = byte
        path.write_bytes(bytes(blob))
        with pytest.raises(Exception) as raw:
            np.load(path, allow_pickle=False)
        with pytest.raises(ValueError) as exc:
            InvertedIndex.load(directory)
        assert str(exc.value) == f"{path}: not a readable .npy array ({raw.value})"

    @pytest.mark.parametrize("count", [10**15, 2, 4], ids=["too-large-to-allocate", "short", "long"])
    def test_header_shape_must_match_the_file_size(self, tmp_path, count):
        directory = tmp_path / "idx"
        build_index(_store({"d1": "a b", "d2": "a c c", "d3": "a b c"})).save(directory)
        path = directory / "doc_lengths.npy"
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {"descr": "<i4", "fortran_order": False, "shape": (count,)})
        path.write_bytes(header.getvalue() + bytes(12))
        with pytest.raises(ValueError) as exc:
            InvertedIndex.load(directory)
        assert str(exc.value) == f"{path}: the header declares {count} values, but 12 bytes follow it"
