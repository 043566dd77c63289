"""BM25 retrieval over a columnar inverted index.

Scoring uses the smoothed, always-positive idf variant

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))

and the usual saturated term-frequency form

    score(q, d) = sum_t idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avgdl))

summed over the query token sequence (a token occurring twice in the query
contributes twice). Ranks are deterministic: score ties break by ascending
passage id.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import defaultdict
from collections.abc import Iterator, Mapping
from itertools import count
from pathlib import Path
from tokenize import TokenError

import numpy as np

from .corpus import PassageStore
from .manifest import atomic_write, check_kind
from .runs import RankedRun

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

INDEX_FORMAT = "clickrank-inverted-index"
INDEX_VERSION = 2

# The arrays of an index directory, one little-endian .npy file each.
_ARRAYS = {
    "term_offsets": np.dtype("<i8"),
    "postings_doc": np.dtype("<i4"),
    "postings_tf": np.dtype("<i4"),
    "doc_lengths": np.dtype("<i4"),
}
# Every file of an index directory; meta.json is written last.
INDEX_FILES = ("ids.json", "terms.json", *(f"{name}.npy" for name in _ARRAYS), "meta.json")

# tokens after which ``build_index`` ends a block of passages (1 MiB of int64 keys)
_BLOCK_TOKENS = 1 << 17

# passages ``build_index`` tokenizes with one pass of str methods
_CHUNK_PASSAGES = 1024

# Maximal runs of alphanumeric characters; underscore is a separator too.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# every ASCII character but a letter, a digit or LF, to a space
_SEPARATORS = {c: " " for c in range(128) if not chr(c).isalnum() and c != ord("\n")}


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character. No stemming."""
    return _TOKEN_RE.findall(text.lower())


def check_stopword(word: str) -> str:
    """``word`` if ``tokenize`` keeps it as exactly one token; otherwise raise,
    since no token could ever equal it."""
    tokens = tokenize(word)
    if tokens != [word]:
        raise ValueError(f"stopword {word!r} is not one token (it tokenizes to {tokens})")
    return word


def _token_lists(texts: list[str]) -> Iterator[list[str]]:
    """``tokenize`` of each text, ``_CHUNK_PASSAGES`` texts at a time.

    A chunk joined by LF that is ASCII and holds no other LF is lowercased,
    translated and split once: on ASCII, ``lower`` maps only A-Z and the
    regex's alphanumerics are [a-z0-9]. Any other chunk goes text by text.
    """
    for start in range(0, len(texts), _CHUNK_PASSAGES):
        chunk = texts[start : start + _CHUNK_PASSAGES]
        joined = "\n".join(chunk)
        if joined.isascii() and joined.count("\n") == len(chunk) - 1:
            yield from map(str.split, joined.lower().translate(_SEPARATORS).split("\n"))
        else:
            yield from map(tokenize, chunk)


class _Postings(Mapping):
    """Read-only term -> the ascending document numbers of its postings."""

    def __init__(self, term_numbers: dict[str, int], offsets: np.ndarray, postings_doc: np.ndarray):
        self._term_numbers = term_numbers
        self._offsets = offsets
        self._doc = postings_doc

    def __getitem__(self, term: str) -> np.ndarray:
        t = self._term_numbers[term]
        return self._doc[self._offsets[t] : self._offsets[t + 1]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._term_numbers)

    def __len__(self) -> int:
        return len(self._term_numbers)


class InvertedIndex:
    """Compressed-sparse-row postings plus the document statistics BM25 needs.

    Documents are numbered ``0..N-1`` in ascending passage-id order, so
    integer order is the tie-break order. Term ``t``'s postings are
    ``postings_doc[term_offsets[t]:term_offsets[t + 1]]`` (ascending
    document numbers) with their term frequencies in ``postings_tf``.
    ``postings`` maps each term to that slice. An optional stopword list is
    applied symmetrically to documents (at build time) and to queries, and
    is persisted with the index so both sides always agree. The postings
    and statistics are immutable after construction. :meth:`top_k` fills a
    per-term cache of BM25 contributions as queries read the index, 8 bytes
    per posting of each queried term, which lives as long as the index; the
    index stays safe for concurrent readers, because an entry's value does
    not depend on which reader computes it.
    """

    def __init__(
        self,
        ids: list[str],
        terms: list[str],
        term_offsets: np.ndarray,
        postings_doc: np.ndarray,
        postings_tf: np.ndarray,
        doc_lengths: np.ndarray,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
        stopwords: frozenset[str] = frozenset(),
    ):
        self.ids = ids
        self.terms = terms
        self.term_offsets = term_offsets
        self.postings_doc = postings_doc
        self.postings_tf = postings_tf
        self.lengths = doc_lengths
        self.doc_count = len(ids)
        total = int(doc_lengths.sum())
        self.avg_doc_length = total / self.doc_count if self.doc_count else 0.0
        self.k1 = float(k1)
        self.b = float(b)
        self.check_parameters(self.k1, self.b)
        self.stopwords = frozenset(stopwords)
        # the same operations, in the same order, as the scalar norm in score()
        self.norm = (
            1.0 - self.b + self.b * doc_lengths / self.avg_doc_length
            if total
            else np.ones(self.doc_count)
        )
        self._doc_numbers = dict(zip(ids, range(len(ids))))
        self._term_numbers = dict(zip(terms, range(len(terms))))
        self.postings = _Postings(self._term_numbers, term_offsets, postings_doc)
        # term -> (its postings' document numbers, their BM25 contributions),
        # filled by top_k the first time a query uses the term
        self._contributions: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @staticmethod
    def check_parameters(k1: float, b: float) -> None:
        """Reject a ``k1`` that is not a finite number >= 0 or a ``b``
        outside [0, 1], NaN included."""
        # written so that NaN fails both checks
        if not 0 <= k1 < math.inf:
            raise ValueError(f"BM25 k1 must be >= 0 and finite, got {k1!r}")
        if not 0 <= b <= 1:
            raise ValueError(f"BM25 b must be in [0, 1], got {b!r}")

    @property
    def doc_lengths(self) -> dict[str, int]:
        """Passage id -> token count, in id order (built on each access)."""
        return dict(zip(self.ids, self.lengths.tolist()))

    def __contains__(self, passage_id: str) -> bool:
        return passage_id in self._doc_numbers

    def doc_number(self, passage_id: str) -> int:
        """The document number of a passage id, or -1 if the index lacks it."""
        return self._doc_numbers.get(passage_id, -1)

    def _span(self, term: str) -> tuple[int, int] | None:
        t = self._term_numbers.get(term)
        if t is None:
            return None
        return int(self.term_offsets[t]), int(self.term_offsets[t + 1])

    def idf(self, term: str) -> float:
        span = self._span(term)
        if span is None:
            return 0.0
        df = span[1] - span[0]
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def score(self, query_tokens: list[str], passage_id: str) -> float:
        """Scalar BM25 of one passage: the reference :meth:`search` matches."""
        d = self._doc_numbers.get(passage_id)
        if d is None:
            raise KeyError(f"unknown passage id {passage_id!r}")
        total = 0.0
        for token in query_tokens:
            if token in self.stopwords:
                continue
            span = self._span(token)
            if span is None:
                continue
            lo, hi = span
            i = lo + int(np.searchsorted(self.postings_doc[lo:hi], d))
            if i == hi or self.postings_doc[i] != d:
                continue
            tf = int(self.postings_tf[i])
            norm = 1.0 - self.b + self.b * int(self.lengths[d]) / self.avg_doc_length
            total += self.idf(token) * tf * (self.k1 + 1.0) / (tf + self.k1 * norm)
        return total

    def top_k(self, query_text: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The document numbers and scores of the top-k passages with at
        least one matching term, ranked.

        Accumulates term contributions in query-token order, so every
        returned score is bit-identical to :meth:`score` for that passage.
        A term's contributions are computed by the first query that uses it
        and kept for later ones.
        Every passage tied at the k-th score survives the partition, and the
        final order is (score descending, document number ascending).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        accumulator = np.zeros(self.doc_count)
        touched = np.zeros(self.doc_count, dtype=bool)
        contributions = self._contributions
        for token in tokenize(query_text):
            entry = contributions.get(token)
            if entry is None:
                if token in self.stopwords:
                    continue
                span = self._span(token)
                if span is None:
                    continue
                docs = self.postings_doc[span[0] : span[1]]
                tf = self.postings_tf[span[0] : span[1]]
                k1 = self.k1
                values = self.idf(token) * tf * (k1 + 1.0) / (tf + k1 * self.norm[docs])
                entry = contributions[token] = docs, values
            docs, values = entry
            accumulator[docs] += values
            touched[docs] = True
        hits = np.flatnonzero(touched)
        scores = accumulator[hits]
        if len(hits) > k:
            kth = np.partition(scores, len(hits) - k)[len(hits) - k]
            keep = scores >= kth
            hits, scores = hits[keep], scores[keep]
        order = np.lexsort((hits, -scores))[:k]
        return hits[order], scores[order]

    def search(self, query_text: str, k: int) -> list[tuple[str, float]]:
        """:meth:`top_k` as (passage id, score) pairs."""
        docs, scores = self.top_k(query_text, k)
        return list(zip(map(self.ids.__getitem__, docs.tolist()), scores.tolist()))

    def save(self, directory: str | Path) -> None:
        """Persist to a directory; the layout round-trips exactly.

        Each file is replaced whole. ``meta.json`` is removed first and
        written last, so ``load`` refuses a directory whose save over an
        older index was interrupted, rather than reading a mix of the two.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "meta.json").unlink(missing_ok=True)
        for name, values in (("ids.json", self.ids), ("terms.json", self.terms)):
            with atomic_write(directory / name) as f:
                json.dump(values, f)
        columns = (self.term_offsets, self.postings_doc, self.postings_tf, self.lengths)
        for (name, dtype), values in zip(_ARRAYS.items(), columns):
            with atomic_write(directory / f"{name}.npy", binary=True) as f:
                np.save(f, values.astype(dtype, copy=False), allow_pickle=False)
        meta = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "k1": self.k1,
            "b": self.b,
            "doc_count": self.doc_count,
            "avg_doc_length": self.avg_doc_length,
            "stopwords": sorted(self.stopwords),
        }
        with atomic_write(directory / "meta.json") as f:
            f.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, directory: str | Path) -> "InvertedIndex":
        """Read and validate an index directory; any inconsistency is a
        ``ValueError`` naming the file it was found in."""
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if not meta_path.exists():
            raise ValueError(f"{directory}: not an index directory (meta.json missing)")
        meta = _read_json(meta_path)
        check_kind(meta, dict, f"{meta_path}: the header")
        if meta.get("format") != INDEX_FORMAT:
            raise ValueError(f"{directory}: unexpected index format {meta.get('format')!r}")
        if meta.get("version") == 1:
            raise ValueError(
                f"{directory}: index version 1 (JSON postings) is no longer readable; "
                "rebuild it with `clickrank index build`"
            )
        if meta.get("version") != INDEX_VERSION:
            raise ValueError(f"{directory}: unsupported index version {meta.get('version')!r}")
        kinds = {"k1": float, "b": float, "doc_count": int, "avg_doc_length": float}
        for key, kind in kinds.items():
            check_kind(meta.get(key), kind, f"{meta_path}: {key}")
        stopwords = _strings(meta.get("stopwords", []), f"{meta_path}: stopwords")
        ids = _strings(_read_json(directory / "ids.json"), directory / "ids.json")
        terms = _strings(_read_json(directory / "terms.json"), directory / "terms.json")
        arrays = {name: _read_array(directory / f"{name}.npy", dt) for name, dt in _ARRAYS.items()}
        try:
            index = cls(
                ids,
                terms,
                **arrays,
                k1=meta["k1"],
                b=meta["b"],
                stopwords=frozenset(map(check_stopword, stopwords)),
            )
        except ValueError as exc:
            raise ValueError(f"{meta_path}: {exc}") from None
        _validate(directory, index, meta)
        return index


def _read_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _strings(values, where: str | Path) -> list[str]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ValueError(f"{where}: expected a JSON list of strings")
    return values


def _read_array(path: Path, dtype: np.dtype) -> np.ndarray:
    """The header is checked against ``dtype`` and the file's size before
    anything is allocated, so a damaged header is an error naming the file
    and only a valid array too large for memory raises MemoryError."""
    fmt = np.lib.format
    with open(path, "rb") as f:
        # a damaged header can fail in numpy's parser with any of these;
        # versions 2 and 3 share the header layout
        try:
            version = fmt.read_magic(f)
            read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
            shape, _, stored = read_header(f)
        except (ValueError, EOFError, SyntaxError, TypeError, TokenError) as exc:
            raise ValueError(f"{path}: not a readable .npy array ({exc})") from None
        if stored != dtype or len(shape) != 1:
            raise ValueError(f"{path}: expected a 1-D {dtype.str} array, got {len(shape)}-D {stored.str}")
        size = path.stat().st_size - f.tell()
        if size != shape[0] * dtype.itemsize:
            raise ValueError(f"{path}: the header declares {shape[0]} values, but {size} bytes follow it")
        return np.fromfile(f, dtype=dtype, count=shape[0])


def _validate(directory: Path, index: InvertedIndex, meta: dict) -> None:
    """The structure search and score rely on, checked with whole-array operations."""

    def require(ok, name: str, what: str) -> None:
        if not ok:
            raise ValueError(f"{directory / name}: {what}")

    n, terms, offsets = index.doc_count, index.terms, index.term_offsets
    doc, tf = index.postings_doc, index.postings_tf
    ascending = index.ids == sorted(index.ids) and len(index._doc_numbers) == n
    require(ascending, "ids.json", "passage ids must be strictly ascending")
    require(len(index._term_numbers) == len(terms), "terms.json", "duplicate terms")
    require(len(index.lengths) == n, "doc_lengths.npy", f"{len(index.lengths)} lengths for {n} ids")
    require(
        len(offsets) == len(terms) + 1,
        "term_offsets.npy",
        f"{len(offsets)} offsets for {len(terms)} terms",
    )
    require(
        offsets[0] == 0 and offsets[-1] == len(doc) and np.all(np.diff(offsets) >= 0),
        "term_offsets.npy",
        f"offsets must rise monotonically from 0 to {len(doc)} postings",
    )
    require(len(tf) == len(doc), "postings_tf.npy", f"{len(tf)} frequencies, {len(doc)} postings")
    if len(doc):
        require(tf.min() >= 1, "postings_tf.npy", "term frequencies must be >= 1")
        in_range = doc.min() >= 0 and doc.max() < n
        require(in_range, "postings_doc.npy", f"document numbers must lie in [0, {n})")
        rising = np.diff(doc) > 0
        # a term's first posting need not exceed the previous term's last
        starts = offsets[1:-1]
        rising[starts[(starts > 0) & (starts < len(doc))] - 1] = True
        require(np.all(rising), "postings_doc.npy", "document numbers must rise within each term")
    require(meta["doc_count"] == n, "meta.json", f"doc_count {meta['doc_count']!r} != {n} ids")
    require(
        meta["avg_doc_length"] == index.avg_doc_length,
        "meta.json",
        f"avg_doc_length {meta['avg_doc_length']!r} != {index.avg_doc_length!r} from the lengths",
    )


def build_index(
    store: PassageStore,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
    stopwords: frozenset[str] = frozenset(),
) -> InvertedIndex:
    """Tokenize every passage (``_token_lists``) and build the inverted index.

    Stopwords (if any) must each be one token (:func:`check_stopword`); they
    are dropped from passages here and from queries at search time, and do
    not contribute to document lengths. A block of passages ends at the
    first passage end past ``_BLOCK_TOKENS`` tokens; beyond the int32
    postings, the build holds one block's tokens at a time.
    """
    if len(store) == 0:
        raise ValueError("cannot index an empty passage store")
    stopwords = frozenset(map(check_stopword, sorted(stopwords)))
    ids = sorted(store)
    vocabulary = defaultdict(count().__next__)  # term -> number in first-seen order
    lengths = array("i")
    block = array("q")  # term numbers of the block's tokens
    blocks: list[tuple[np.ndarray, ...]] = []  # (document, term, frequency) postings
    first = 0  # document number of the block's first passage
    for end, tokens in enumerate(_token_lists([store.text(pid) for pid in ids]), 1):
        if stopwords:
            tokens = [t for t in tokens if t not in stopwords]
        block.extend(map(vocabulary.__getitem__, tokens))
        lengths.append(len(tokens))
        if len(block) >= _BLOCK_TOKENS or end == len(ids):
            keys = np.repeat(np.arange(first, end, dtype=np.int64) << 32, lengths[first:end])
            keys |= np.frombuffer(block, dtype=np.int64)
            del block[:]
            keys, tf = np.unique(keys, return_counts=True)
            blocks.append(tuple(a.astype(np.int32) for a in (keys >> 32, keys & 0xFFFFFFFF, tf)))
            first = end
    doc_of, seen_terms, frequencies = (np.concatenate(column) for column in zip(*blocks))
    del blocks  # the per-block columns, copied above
    terms = sorted(vocabulary)
    rank = np.empty(len(terms), dtype=np.int64)
    rank[[vocabulary[t] for t in terms]] = np.arange(len(terms))
    term_of = rank[seen_terms]
    # (term, document) keys are unique: any sort is term-major, documents ascending
    order = np.argsort(term_of << 32 | doc_of)
    term_offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_of, minlength=len(terms)), out=term_offsets[1:])
    return InvertedIndex(
        ids,
        terms,
        term_offsets,
        doc_of[order],
        frequencies[order],
        np.asarray(lengths, dtype=np.int32),
        k1=k1,
        b=b,
        stopwords=stopwords,
    )


def batch_search(index: InvertedIndex, queries, k: int, run_name: str = "bm25") -> RankedRun:
    """Search every query in a QuerySet; results keyed and ordered by query id."""
    run = RankedRun(name=run_name, stage="first-stage")
    for qid in sorted(q.id for q in queries):
        run.results[qid] = index.search(queries.text(qid), k)
    return run
