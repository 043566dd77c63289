import numpy as np
import pytest

from clickrank.corpus import (
    ClickRecord,
    Passage,
    PassageStore,
    Query,
    QuerySet,
    build_qrels_from_clicks,
    load_clicks,
    load_collection,
    load_qrels,
    load_queries,
    write_qrels,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCollection:
    def test_three_line_tsv(self, tmp_path):
        p = _write(tmp_path / "c.tsv", "d1\talpha beta\nd2\tgamma\nd3\t\n")
        store = load_collection(p)
        assert len(store) == 3
        assert store.text("d1") == "alpha beta"
        assert store.text("d3") == ""

    def test_duplicate_id_names_the_id(self, tmp_path):
        p = _write(tmp_path / "c.tsv", "d1\ta\nd1\tb\n")
        with pytest.raises(ValueError, match="d1"):
            load_collection(p)

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = _write(tmp_path / "c.tsv", "d1\ta\nno-tab-here\n")
        with pytest.raises(ValueError, match="line 2"):
            load_collection(p)

    def test_text_may_contain_tabs(self, tmp_path):
        p = _write(tmp_path / "c.tsv", "d1\tleft\tright\n")
        store = load_collection(p)
        assert store.text("d1") == "left\tright"


class TestLoadQueries:
    def test_split_tag_applied(self, tmp_path):
        p = _write(tmp_path / "q.tsv", "q1\theart\nq2\tlung\n")
        qs = load_queries(p, "head")
        assert len(qs) == 2
        assert all(q.split == "head" for q in qs)

    def test_empty_file_gives_empty_set(self, tmp_path):
        p = _write(tmp_path / "q.tsv", "")
        assert len(load_queries(p, "head")) == 0

    def test_bad_split_tag(self, tmp_path):
        p = _write(tmp_path / "q.tsv", "q1\tx\n")
        with pytest.raises(ValueError, match="split"):
            load_queries(p, "weird")

    def test_duplicate_query_id(self, tmp_path):
        p = _write(tmp_path / "q.tsv", "q1\ta\nq1\tb\n")
        with pytest.raises(ValueError, match="q1"):
            load_queries(p, "train")


class TestClickRecords:
    def test_zero_impressions_rejected(self):
        with pytest.raises(ValueError, match="impressions"):
            ClickRecord("q", "p", 0, 0)

    def test_clicks_cannot_exceed_impressions(self):
        with pytest.raises(ValueError, match="clicks"):
            ClickRecord("q", "p", 2, 3)

    def test_load_clicks_roundtrip(self, tmp_path):
        p = _write(tmp_path / "clicks.tsv", "q1\tp1\t10\t3\nq1\tp2\t5\t0\n")
        recs = load_clicks(p)
        assert recs == [ClickRecord("q1", "p1", 10, 3), ClickRecord("q1", "p2", 5, 0)]

    def test_load_clicks_bad_line(self, tmp_path):
        p = _write(tmp_path / "clicks.tsv", "q1\tp1\t10\n")
        with pytest.raises(ValueError, match="line 1"):
            load_clicks(p)


class TestQrelsFromClicks:
    def test_raw_mode_grades_clicked_pairs(self):
        qrels = build_qrels_from_clicks([ClickRecord("q1", "p1", 9, 2)], mode="raw")
        assert qrels.grade("q1", "p1") == 1

    def test_raw_mode_omits_unclicked_pairs(self):
        qrels = build_qrels_from_clicks([ClickRecord("q1", "p1", 9, 0)], mode="raw")
        assert qrels.grade("q1", "p1") is None

    def test_dctr_threshold_counting(self):
        # rate 3/10 = 0.3 meets both thresholds
        qrels = build_qrels_from_clicks(
            [ClickRecord("q1", "p1", 10, 3)], mode="dctr", thresholds=[0.1, 0.3]
        )
        assert qrels.grade("q1", "p1") == 2

    def test_dctr_keeps_judged_nonrelevant(self):
        qrels = build_qrels_from_clicks(
            [ClickRecord("q1", "p1", 4, 0)], mode="dctr", thresholds=[0.1, 0.3]
        )
        assert qrels.grade("q1", "p1") == 0
        assert qrels.relevant_pool("q1") == set()

    def test_repeated_pairs_aggregate_by_summation(self):
        records = [ClickRecord("q1", "p1", 10, 1), ClickRecord("q1", "p1", 10, 5)]
        qrels = build_qrels_from_clicks(records, mode="dctr", thresholds=[0.1, 0.3])
        # combined rate 6/20 = 0.3 -> grade 2
        assert qrels.grade("q1", "p1") == 2

    def test_unordered_thresholds_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            build_qrels_from_clicks([], mode="dctr", thresholds=[0.3, 0.1])

    def test_threshold_range_enforced(self):
        with pytest.raises(ValueError, match="\\(0, 1\\]"):
            build_qrels_from_clicks([], mode="dctr", thresholds=[0.0, 0.3])

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            build_qrels_from_clicks([], mode="fancy")

    def test_raw_grades_imply_a_click(self):
        rng = np.random.default_rng(42)
        records = []
        for i in range(300):
            imp = int(rng.integers(1, 20))
            records.append(
                ClickRecord(f"q{rng.integers(30)}", f"p{i}", imp, int(rng.integers(0, imp + 1)))
            )
        qrels = build_qrels_from_clicks(records, mode="raw")
        clicked = {(r.query_id, r.passage_id) for r in records if r.clicks >= 1}
        for qid in qrels.query_ids:
            for pid in qrels.judged_for(qid):
                assert (qid, pid) in clicked

    def test_dctr_grading_is_monotone_in_rate(self):
        rng = np.random.default_rng(7)
        thresholds = [0.05, 0.2, 0.6]
        rates_and_grades = []
        for i in range(200):
            imp = int(rng.integers(1, 50))
            clk = int(rng.integers(0, imp + 1))
            qrels = build_qrels_from_clicks(
                [ClickRecord("q", "p", imp, clk)], mode="dctr", thresholds=thresholds
            )
            rates_and_grades.append((clk / imp, qrels.grade("q", "p")))
        rates_and_grades.sort()
        grades = [g for _, g in rates_and_grades]
        assert all(a <= b for a, b in zip(grades, grades[1:]))


class TestQrelsFile:
    def test_roundtrip_identity(self, tmp_path):
        qrels = build_qrels_from_clicks(
            [
                ClickRecord("q1", "p1", 10, 4),
                ClickRecord("q1", "p2", 10, 0),
                ClickRecord("q2", "p3", 10, 1),
            ],
            mode="dctr",
        )
        path = tmp_path / "qrels.trec"
        write_qrels(qrels, path)
        assert load_qrels(path) == qrels

    def test_trec_line_format(self, tmp_path):
        qrels = build_qrels_from_clicks([ClickRecord("q1", "p1", 10, 4)], mode="dctr")
        path = tmp_path / "qrels.trec"
        write_qrels(qrels, path)
        assert path.read_text() == "q1 0 p1 2\n"

    def test_malformed_qrels_line(self, tmp_path):
        path = _write(tmp_path / "bad.trec", "q1 0 p1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_qrels(path)
