"""The line rules every text input shares: LF, CRLF and CR line ends read
alike, blank lines are skipped, and a line of spaces is blank only where
fields are split on whitespace; a tab-separated format rejects it with its
own column-count message. In a tab-separated format, an id holding
whitespace is an error on its line, and other columns may hold it."""

import pytest

from clickrank.corpus import ClickRecord, load_clicks, load_collection, load_qrels, load_queries
from clickrank.evaluation import load_splits
from clickrank.rankers import ExternalScoreScorer, load_weights
from clickrank.runs import read_run
from clickrank.triples import read_triples


def _weights(path):
    bank, weights = load_weights(path)
    return bank.mus, bank.sigmas, weights.w.tolist(), weights.bias


# name -> (loader with a comparable result, valid LF text, column-count
# message of a tab-separated format, None for a whitespace-separated one)
INPUTS = {
    "collection": (
        lambda p: list(load_collection(p).items()),
        "p0\tfirst passage\np1\tsecond\ttabbed passage\n",
        "expected id<TAB>text",
    ),
    "queries": (
        lambda p: [(q.id, q.text) for q in load_queries(p, "head")],
        "q0\tfirst query\nq1\tsecond query\n",
        "expected id<TAB>text",
    ),
    "clicks": (load_clicks, "q0\tp0\t3\t1\nq1\tp1\t2\t0\n", "expected 4 tab-separated columns"),
    "qrels": (load_qrels, "q0 0 p0 1\nq1  0\tp1 0\n", None),
    "run": (read_run, "q0 Q0 p0 1 2.5 bm25\nq0 Q0 p1 2 -1.0 bm25\n", None),
    "triples": (read_triples, "q0\tp0\tp1\nq1\tp1\tp0\n", "expected 3 tab-separated ids"),
    "weights": (_weights, "1.0 0.001 0.5\n0.5 0.1 -0.25\nbias 0.125\n", None),
    "splits": (load_splits, "q0\thead\nq1\ttail\n", "expected query_id<TAB>split"),
    "scores": (
        lambda p: ExternalScoreScorer.from_file(p).scores,
        "q0\tp0\t1.5\nq0\tp1\t-2\n",
        "expected query_id<TAB>passage_id<TAB>score",
    ),
}


def _load(tmp_path, name, text):
    path = tmp_path / f"{name}.txt"
    path.write_text(text, encoding="utf-8", newline="")
    return INPUTS[name][0](path)


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_read_alike(tmp_path, name, end):
    text = INPUTS[name][1]
    expected = _load(tmp_path, name, text)
    assert _load(tmp_path, name, text.replace("\n", end)) == expected
    # a last line without its line end
    assert _load(tmp_path, name, text.replace("\n", end)[: -len(end)]) == expected


@pytest.mark.parametrize("name", INPUTS)
def test_blank_lines(tmp_path, name):
    _, text, message = INPUTS[name]
    expected = _load(tmp_path, name, text)
    first, rest = text.split("\n", 1)
    assert _load(tmp_path, name, f"\n{first}\r\n\r\r{rest}\n\n") == expected
    path = tmp_path / f"{name}.txt"
    if message is None:
        assert _load(tmp_path, name, f"{first}\n \t \n{rest}") == expected
    else:
        with pytest.raises(ValueError) as exc:
            _load(tmp_path, name, f"{first}\n   \n{rest}")
        assert str(exc.value) == f"{path}: line 2: {message}"


# name -> a file whose first spaced id is on line 2 and that id; where the
# format has several id columns, line 3's spaced id sits in an earlier one
SPACED_IDS = {
    "collection": ("p0\tfirst passage\np 1\tsecond\np 2\tthird\n", "p 1"),
    "queries": ("q0\tfirst query\nq\u00a01\tsecond\nq 2\tthird\n", "q\u00a01"),
    "clicks": ("q0\tp0\t3\t1\nq1\tp 1\t2\t0\nq 2\tp2\t1\t0\n", "p 1"),
    "triples": ("q0\tp0\tp1\nq1\tp0\tp\x0b1\nq 2\tp1\tp0\n", "p\x0b1"),
    "splits": ("q0\thead\nq 1\ttail\nq 2\ttorso\n", "q 1"),
    "scores": ("q0\tp0\t1.5\nq0\tp 1\t-2\nq 1\tp0\t0\n", "p 1"),
}


@pytest.mark.parametrize("name", SPACED_IDS)
def test_spaced_id_names_the_earlier_line(tmp_path, name):
    text, spaced = SPACED_IDS[name]
    with pytest.raises(ValueError) as exc:
        _load(tmp_path, name, text)
    assert str(exc.value) == f"{tmp_path / name}.txt: line 2: id {spaced!r} contains whitespace"


# name -> a file with whitespace in columns that hold no id, and its load
SPACED_VALUES = {
    "collection": ("p0\tfirst  passage\twith a tab\n", [("p0", "first  passage\twith a tab")]),
    "queries": ("q0\t two words \n", [("q0", " two words ")]),
    "clicks": ("q0\tp0\t 3\t1 \n", [ClickRecord("q0", "p0", 3, 1)]),
    "scores": ("q0\tp0\t 1.5 \n", {("q0", "p0"): 1.5}),
}


@pytest.mark.parametrize("name", SPACED_VALUES)
def test_whitespace_outside_the_ids_loads(tmp_path, name):
    text, expected = SPACED_VALUES[name]
    assert _load(tmp_path, name, text) == expected
