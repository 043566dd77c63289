"""The line rules every text input shares: LF, CRLF and CR line ends read
alike, blank lines are skipped, and a line of spaces is blank only where
fields are split on whitespace; a tab-separated format rejects it with its
own column-count message."""

import pytest

from clickrank.corpus import load_clicks, load_collection, load_qrels, load_queries
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
