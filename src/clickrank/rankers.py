"""Scoring heads and re-ranking.

Three scoring families over ingested embeddings:

* dense: one vector per query/passage, scored by raw dot product;
* late interaction: per-token matrices, scored by summing each query
  token's maximum dot product against the passage tokens;
* kernel pooling: a cosine match matrix soft-binned by Gaussian kernels,
  reduced to per-kernel features and combined by a trained linear layer.

Scores from an opaque external model can be routed through the same
re-ranking path via a score file (``query_id<TAB>passage_id<TAB>score``).

Every scorer implements one protocol: ``name`` and
``score_batch(query_id, passage_ids) -> np.ndarray``, one float64 score per
passage id in order. It raises ``MissingEmbeddingError`` naming the first
id it cannot score; the error's ``passage_ids`` lists every unscorable
candidate, so ``score_candidates`` can drop them under ``on_missing="skip"``.
``rerank`` and ``evaluation.depth_sweep`` make one call per query. A pair's
score does not depend on the other candidates of the batch: the batched
heads return bit for bit what scoring the pair alone returns, and
``score(query_id, passage_id)`` is that one-pair call.

The token-level heads gather a batch's float32 passage rows, and the norms
each store caches once, from the store's one contiguous token array by
offset (``_gather``), and score them in blocks of candidates. Late
interaction screens each block with one float32 matrix product and an error
bound from the norms (``_bounds``), and scores only the token rows that can
still hold a maximum, each by the dense score's definition (``_dense_dots``).
Dense retrieval screens the store with the same bound and scores only the
rows that can still reach the top k.

The kernel head sorts a batch's candidates by token count (a stable sort)
and gathers their rows once in that order, so each token count's passages
are one contiguous slice. Their matches fill one buffer, each passage's
from its own BLAS product of the shape it has alone; the kernels run once
over that buffer, and each sum keeps the axis and length it has for one
passage, so every feature keeps its bits (``_kernel_feature_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .embeddings import BLOCK_BYTES, TokenMatrixStore, VectorStore
from .manifest import TextRecords, atomic_write, finite
from .runs import RankedRun, canonical_order

KERNEL_EPSILON = 1e-10


class MissingEmbeddingError(LookupError):
    """A scorer had no representation for a query or passage id.

    ``passage_ids`` holds the candidates of the failed ``score_batch`` call
    that cannot be scored: all of them when the query id is unknown.
    """

    def __init__(self, message: str, passage_ids: Sequence[str] = ()):
        super().__init__(message)
        self.passage_ids = tuple(passage_ids)


@dataclass(frozen=True)
class KernelBank:
    """Gaussian kernel centers and widths for match-matrix pooling."""

    mus: tuple[float, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.mus) != len(self.sigmas):
            raise ValueError("mus and sigmas must have the same length")
        if not self.mus:
            raise ValueError("kernel bank must contain at least one kernel")
        if any(not -1.0 <= m <= 1.0 for m in self.mus):
            raise ValueError(f"kernel centers must lie in [-1, 1], got {self.mus}")
        if any(a <= b for a, b in zip(self.mus, self.mus[1:])):
            raise ValueError(f"kernel centers must be strictly descending, got {self.mus}")
        if not all(0 < s < math.inf for s in self.sigmas):
            raise ValueError(f"kernel widths must be finite and positive, got {self.sigmas}")

    def __len__(self) -> int:
        return len(self.mus)

    @classmethod
    def default(cls) -> "KernelBank":
        """11 kernels: an exact-match kernel at 1.0 plus ten centers evenly
        spaced from 0.9 down to -0.9; tight width on the exact-match kernel,
        0.1 elsewhere."""
        mus = (1.0,) + tuple(round(0.9 - 0.2 * i, 1) for i in range(10))
        sigmas = tuple(0.001 if mu == 1.0 else 0.1 for mu in mus)
        return cls(mus, sigmas)


@dataclass
class KernelWeights:
    w: np.ndarray
    bias: float

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 1:
            raise ValueError("kernel weights must be a 1-d vector")
        if not (np.all(np.isfinite(self.w)) and np.isfinite(self.bias)):
            raise ValueError("kernel weights must be finite")


def write_weights(bank: KernelBank, weights: KernelWeights, path: str | Path) -> None:
    """Text format: one ``mu sigma w`` row per kernel, then ``bias <value>``."""
    if len(weights.w) != len(bank):
        raise ValueError("weight vector size does not match kernel bank")
    with atomic_write(path) as f:
        for mu, sigma, w in zip(bank.mus, bank.sigmas, weights.w):
            f.write(f"{float(mu)!r} {float(sigma)!r} {float(w)!r}\n")
        f.write(f"bias {float(weights.bias)!r}\n")


def load_weights(path: str | Path) -> tuple[KernelBank, KernelWeights]:
    rows: list[list[float]] = []
    bias: float | None = None
    with TextRecords(path, None) as records:
        for parts in records:
            if parts[0] != "bias":
                if len(parts) != 3:
                    raise ValueError("expected 'mu sigma w'")
                rows.append([finite(text, "number") for text in parts])
            elif len(parts) != 2:
                raise ValueError("malformed bias line")
            elif bias is not None:
                raise ValueError("second bias line")
            else:
                bias = finite(parts[1], "number")
    if bias is None:
        raise ValueError(f"{path}: missing bias line")
    mus, sigmas, ws = zip(*rows) if rows else ((), (), ())
    try:
        bank = KernelBank(mus, sigmas)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return bank, KernelWeights(np.array(ws), bias)


def _check_similarity(similarity: str) -> None:
    if similarity not in ("dot", "cosine"):
        raise ValueError(f"similarity must be 'dot' or 'cosine', got {similarity!r}")


def _dense_dots(tokens: np.ndarray, rows: Sequence[int], q: np.ndarray) -> np.ndarray:
    """The dense dot product of the float64 query q with each of ``rows`` of
    tokens: the components widened to float64, each product rounded to
    float64, and numpy's pairwise sum along the row.

    This is the one definition of a dot product: the dense score's, and
    each late-interaction lane's (``_late_interaction_block`` forms the same
    products and sum over two gathered row arrays). A row's value depends on
    that row and q alone, not on which other rows share the call, how many
    or in what order; a BLAS gemv gives no such guarantee. The rows are
    widened ``BLOCK_BYTES`` at a time.
    """
    scores = np.empty(len(rows), dtype=np.float64)
    step = max(1, BLOCK_BYTES // (8 * tokens.shape[1]))
    for first in range(0, len(rows), step):
        block = rows[first : first + step]
        # the float32 rows widen exactly inside the float64 multiply
        scores[first : first + step] = np.multiply(tokens[block], q).sum(axis=1)
    return scores


def _norms(M: np.ndarray) -> np.ndarray:
    """The norm of a float64 vector, or of each row of a float64 matrix, by
    the reduction of ``TokenMatrixStore.row_norms``."""
    return np.sqrt((M * M).sum(axis=-1))


def _check_cosine_norms(qn: float, norms: np.ndarray, ids: Sequence[str]) -> None:
    """The zero-norm checks of cosine scoring; ``ids`` names ``norms``' rows."""
    if qn == 0.0:
        raise ValueError("cosine similarity undefined for a zero-norm query")
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm passage vector {ids[zero[0]]!r}")


def dense_score(q_vec: np.ndarray, d_vec: np.ndarray, similarity: str = "dot") -> float:
    """Dot product of a query and a passage vector (cosine selectable), by
    the one dense score definition (``_dense_dots``); cosine divides it by
    the product of the two norms."""
    _check_similarity(similarity)
    q = np.asarray(q_vec, dtype=np.float64)
    d = np.asarray(d_vec, dtype=np.float64)
    if q.shape != d.shape or q.ndim != 1:
        raise ValueError(f"dimension mismatch: {q.shape} vs {d.shape}")
    score = _dense_dots(d[None, :], [0], q)[0]
    if similarity == "cosine":
        qn, dn = _norms(q), _norms(d)
        if qn == 0.0 or dn == 0.0:
            raise ValueError("cosine similarity undefined for a zero-norm vector")
        score = score / (dn * qn)
    return float(score)


def dense_retrieve(
    store: VectorStore, q_vec: np.ndarray, k: int, similarity: str = "dot"
) -> list[tuple[str, float]]:
    """Exact top-k over the whole store (no approximation): the k best
    ``dense_score`` values bit for bit, ties by ascending id.

    When k is below the store size, a float32 product screens the store
    first (``_screen``) and only the rows that can still reach the top k
    are scored exactly; no float64 copy of the store is made.
    """
    _check_similarity(similarity)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(store) == 0:
        raise ValueError("cannot retrieve from an empty vector store")
    q = np.asarray(q_vec, dtype=np.float64)
    if q.shape != (store.dim,):
        raise ValueError(f"query dim {q.shape} does not match store dim {store.dim}")
    ids, tokens, norms, qn = store.ids, store.tokens, store.row_norms, _norms(q)
    cosine = similarity == "cosine"
    if cosine:
        _check_cosine_norms(qn, norms, ids)
    rows = np.arange(len(ids))
    if k < len(ids):
        rows = _screen(tokens, norms, q, qn, k, cosine)
    scores = _dense_dots(tokens, rows, q)
    if cosine:
        scores = scores / (norms[rows] * qn)
    top = np.arange(len(rows))
    if k < len(rows):
        # every row tied with the k-th best score, so the id tie-break decides
        kth = np.partition(scores, len(rows) - k)[len(rows) - k]
        top = np.flatnonzero(scores >= kth)
    top = top[np.lexsort((store.id_rank[rows[top]], -scores[top]))][:k]
    return [(ids[i], s) for i, s in zip(rows[top].tolist(), scores[top].tolist())]


def _screen(
    tokens: np.ndarray, norms: np.ndarray, q: np.ndarray, qn: float, k: int, cosine: bool
) -> np.ndarray:
    """The rows of tokens that can hold one of the k best dense scores of q.

    ``approx = tokens @ float32(q)`` approximates every score, and
    ``_bounds`` encloses each score as computed. At least k rows have a
    score >= their lower bound >= the k-th largest lower bound L, so every
    row of the top k, ties with the k-th included, has an upper bound >= L
    and is kept.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        approx = tokens @ q.astype(np.float32)
    lower, upper = _bounds(approx, norms, qn, tokens.shape[1], cosine)
    kth = np.partition(lower, len(lower) - k)[len(lower) - k]
    return np.flatnonzero(upper >= kth)


def _bounds(
    approx: np.ndarray, norms: np.ndarray, qn: np.ndarray, n: int, cosine: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Float64 lower and upper bounds on exact scores from their float32
    approximations ``approx``, given the norms of the rows d and of the
    queries q (broadcast against approx) and the dim n.

    approx holds float32 dot products of d and q rounded to float32 (exact
    for store rows), in any order, with or without fused multiply-adds. The
    exact score S is the dense score (``_dense_dots``), which also scores
    each late-interaction lane: float64 products, summed pairwise. With
    u = 2^-24, u' = 2^-53 and s = sum d_i q_i exactly (Higham, Accuracy and
    Stability of Numerical Algorithms, §2.1, §3.1 and Lemma 3.3):

    * S is within γ'_n sum|d_i q_i| + n 2^-1075 of s;
    * rounding to float32 moves a component by at most u times itself, or
      2^-150 where it underflows, so a product of rounded components is
      within (2u + u^2)|d_i q_i| + 2^-149 (|d_i| + |q_i|) of d_i q_i;
    * approx is within γ_n times the sum of those products' magnitudes of
      their exact sum, plus 2^-150 (1 + γ_n) per float32 product that
      underflows.

    With γ_n (1 + u)^2 + 2u + u^2 <= γ_{n+2}, sum|d_i q_i| <= ‖d‖‖q‖ and
    sum|d_i| <= √n ‖d‖, |approx - S| <= (γ_{n+2} + γ'_n) ‖d‖‖q‖ +
    n 2^-148 (1 + ‖d‖ + ‖q‖). For (n + 2) u <= 1/4, γ_{n+2} <= (4/3)(n + 2) u,
    so ``bound``, 2 (n + 2) u ‖d‖‖q‖ + n 2^-124 (1 + ‖d‖)(1 + ‖q‖), holds
    with room for γ'_n, for the float64 rounding of the norms, of the bound
    and of approx ± bound, for norms whose squares underflowed (short by at
    most √n 2^-537 each) and for a BLAS that flushes subnormals to zero.
    Rows of more than 2^22 - 2 components are not bounded.

    Under cosine the bounds are divided by ``norms * qn`` (rounding each by
    u') and widened by 2^-50 = 8u'. The dense score divides S by the same
    product. A late-interaction lane is the dense dot product of the rows
    over their norms, whose components each round once more, so it is
    within (3u' + γ'_n) sum|d_i q_i| / (‖d‖‖q‖) of s / (‖d‖‖q‖), a ratio of
    about 1 at most. ``bound`` over ‖d‖‖q‖ leaves (2/3)(n + 2) u >= 2^-23
    unused by γ_{n+2}, which covers that, and the underflow term over the
    norms covers what underflowed squares add to it.

    A bound that is not finite (an approximation that overflowed, a NaN or
    infinite bound, a zero or overflowed divisor) bounds nothing: it is
    returned as -inf and inf.
    """
    if n + 2 > 1 << 22:
        return np.full(approx.shape, -np.inf), np.full(approx.shape, np.inf)
    # overflow, 0 / 0 and inf - inf only loosen bounds, which the mask below catches
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tiny = n * 2.0**-124 * (1.0 + qn)
        bound = norms * (2.0 * (n + 2) * 2.0**-24 * qn + tiny)
        bound += tiny
        lower = approx - bound
        upper = np.add(approx, bound, out=bound)
        if cosine:
            scale = norms * qn
            lower /= scale
            upper /= scale
            lower -= 2.0**-50
            upper += 2.0**-50
        # any NaN or infinity makes a sum non-finite: only then is the mask formed
        if not np.isfinite(lower.sum() + upper.sum()):
            loose = ~(np.isfinite(lower) & np.isfinite(upper))
            lower[loose], upper[loose] = -np.inf, np.inf
    return lower, upper


def late_interaction_score(Q: np.ndarray, D: np.ndarray, similarity: str = "dot") -> float:
    """Sum over query tokens of the max dot product against passage tokens.

    Each dot product is the dense score's (``_dense_dots``: float64 products
    and numpy's pairwise sum along the row), so a one-row Q and D score as
    ``dense_score`` does under dot. The sum of the maxima is exactly rounded
    (``math.fsum``). The score is therefore bit-identical under any
    permutation of the rows of Q or D: a dot product sums along the dim,
    which no row permutation touches, and an exactly rounded sum does not
    depend on its order. BLAS reductions give no such guarantee: their
    summation grouping can change with memory alignment and the CPU.
    """
    _check_similarity(similarity)
    Q = np.asarray(Q, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if Q.ndim != 2 or D.ndim != 2:
        raise ValueError("expected 2-d token matrices")
    if Q.shape[0] == 0 or D.shape[0] == 0:
        raise ValueError("token matrices must have at least one row")
    if Q.shape[1] != D.shape[1]:
        raise ValueError(f"dimension mismatch: {Q.shape[1]} vs {D.shape[1]}")
    Q = _gather(Q, _norms(Q), *_whole(Q), "query", similarity == "cosine")
    return _late_interaction_scores(Q, D, _norms(D), *_whole(D))[0]


def check_dims(queries: TokenMatrixStore, passages: TokenMatrixStore, what: str) -> None:
    """The one dim check of a query and a passage store (``what`` names
    their entries), made once before any pair is scored."""
    if queries.dim != passages.dim:
        raise ValueError(
            f"query {what} have dim {queries.dim}, passage {what} have dim {passages.dim}"
        )


def _whole(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one span that covers all rows of D."""
    return np.zeros(1, dtype=np.int64), np.array([len(D)], dtype=np.int64)


class _Rows(NamedTuple):
    """Token rows as the token heads score them: the rows (float32 from a
    store, or a caller's float64), their float64 norms, and whether they
    are scored over those norms (cosine)."""

    rows: np.ndarray
    norms: np.ndarray
    unit: bool

    def widened(self, index: np.ndarray | None = None) -> np.ndarray:
        """The rows (those at ``index``) as float64, over their norms when
        ``unit``."""
        rows, norms = self.rows, self.norms
        if index is not None:
            rows, norms = rows.take(index, axis=0), norms[index]
        return rows / norms[:, None] if self.unit else rows.astype(np.float64)


def _gather(
    tokens: np.ndarray,
    norms: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    name: str,
    cosine: bool,
) -> _Rows:
    """The rows ``starts[i]:starts[i] + lengths[i]`` of tokens for each i in
    turn, with their ``norms``. Under cosine a zero row is an error, named
    by its index within its span."""
    ends = np.cumsum(lengths)
    index = np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)
    # take gathers whole rows, here about 2.5 times as fast as tokens[index]
    gathered = _Rows(tokens.take(index, axis=0), norms[index], cosine)
    if cosine and (gathered.norms == 0.0).any():
        row = int(np.argmax(gathered.norms == 0.0))
        span = int(np.searchsorted(ends, row, side="right"))
        within = row - (ends[span] - lengths[span])
        raise ValueError(f"zero-norm {name} token row at index {within}")
    return gathered


def _late_interaction_scores(
    Q: _Rows, tokens: np.ndarray, norms: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> list[float]:
    """``late_interaction_score(Q, D)`` for the passage D at each span of
    tokens (``_gather``), bit for bit; ``norms`` are the norms of tokens' rows."""
    longest = int(lengths.max(initial=1))
    per_block = max(1, BLOCK_BYTES // (8 * longest * max(Q.rows.shape)))
    scores: list[float] = []
    for first in range(0, len(lengths), per_block):
        block = lengths[first : first + per_block]
        D = _gather(tokens, norms, starts[first : first + per_block], block, "passage", Q.unit)
        scores.extend(_late_interaction_block(Q, D, block))
    return scores


def _late_interaction_block(Q: _Rows, D: _Rows, lengths: np.ndarray) -> list[float]:
    """Late-interaction scores of the passages stacked in D.

    A token row's dot product is the dense score's, over the rows' norms for
    cosine: float64 products and numpy's pairwise sum along the row. The
    float32 product ``D @ Q.T`` approximates every one, and ``_bounds``
    encloses each float64 value from the rows' norms. Within a passage, a
    row whose upper bound lies below another row's lower bound cannot hold
    the maximum, so only the remaining rows (about two per query token) are
    widened to float64 and summed, all lanes in one row-wise sum. The maxima
    are then those over all rows, and each passage's score is the exactly
    rounded sum of its query tokens' maxima.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        approx = D.rows.astype(np.float32, copy=False) @ Q.rows.astype(np.float32, copy=False).T
    # one row per query token, so the bound arithmetic runs along passage rows
    approx = np.array(approx.T, dtype=np.float64, order="C")
    lower, upper = _bounds(approx, D.norms, Q.norms[:, None], Q.rows.shape[1], Q.unit)
    starts = np.cumsum(lengths) - lengths
    floor = np.maximum.reduceat(lower, starts, axis=1)
    keep = upper >= np.repeat(floor, lengths, axis=1)
    token, row = divmod(np.flatnonzero(keep), keep.shape[1])
    dots = (Q.widened().take(token, axis=0) * D.widened(row)).sum(axis=1)
    passage = np.repeat(np.arange(len(lengths)), lengths)[row]
    best = np.full((len(Q.rows), len(lengths)), -np.inf)
    # maximum.at keeps the later of equal values; reversed, that is the
    # first row, as max() over the rows picks it (the sign of a zero)
    np.maximum.at(best, (token[::-1], passage[::-1]), dots[::-1])
    return [math.fsum(col) for col in best.T.tolist()]


def kernel_features(
    Q: np.ndarray,
    D: np.ndarray,
    bank: KernelBank,
    similarity: str = "cosine",
) -> np.ndarray:
    """Soft match counts: feature_k = sum_i log(eps + sum_j exp(-(M_ij - mu_k)^2 / (2 sigma_k^2))),
    with eps = ``KERNEL_EPSILON``.

    The match matrix uses cosine similarity clamped to [-1, 1] (the kernel
    centers live there); raw dot products are selectable for experiments.
    """
    _check_similarity(similarity)
    Q = np.asarray(Q, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if Q.ndim != 2 or D.ndim != 2 or Q.shape[0] == 0 or D.shape[0] == 0:
        raise ValueError("expected non-empty 2-d token matrices")
    if Q.shape[1] != D.shape[1]:
        raise ValueError(f"dimension mismatch: {Q.shape[1]} vs {D.shape[1]}")
    Q = _gather(Q, _norms(Q), *_whole(Q), "query", similarity == "cosine")
    return _kernel_feature_rows(Q, D, _norms(D), *_whole(D), bank)[0]


def _kernel_feature_rows(
    Q: _Rows,
    tokens: np.ndarray,
    norms: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    bank: KernelBank,
) -> np.ndarray:
    """``kernel_features(Q, D)`` for the passage D at each span of tokens
    (``_gather``), as rows of one array; ``norms`` are the norms of tokens'
    rows.

    The candidates are sorted by token count (a stable sort) and their rows
    gathered once in that order, so the passages of one count lie in one
    contiguous slice. Each group's per-passage products ``Qw @ Dᵀ`` write
    into one match buffer; the clip and the kernels run once over that
    buffer, and each group sums its kernel values along the token axis into
    one (kernels, candidates, query tokens) array, which is logged and
    summed over the query tokens once. Buffers hold at most ``BLOCK_BYTES``
    of kernel values: longer lists are cut into chunks of candidates.

    Each feature is bit-identical to the one-passage call, whatever the
    other candidates, their order or the chunks:
    * elementwise operations do not depend on layout;
    * each passage's matches still come from its own BLAS product of the
      same shape;
    * every reduction keeps its axis, length and contiguity;
    * the kernels' ``(mu - M)^2 / -w`` is ``-((M - mu)^2) / w`` exactly:
      ``mu - M`` is the exact negation of ``M - mu``, ``x / -w == -(x / w)``,
      and negating the matches first gives a NaN match the sign that
      negating its square gives it.
    """
    count, kernels, width = len(lengths), len(bank), len(Q.rows)
    features = np.empty((count, kernels), dtype=np.float64)
    if not count:
        return features
    order = np.argsort(lengths, kind="stable")
    try:
        D = _gather(tokens, norms, starts[order], lengths[order], "passage", Q.unit)
    except ValueError:
        # name the zero row the candidates' own order meets first
        _gather(tokens, norms, starts, lengths, "passage", Q.unit)
        raise
    X, Qw, lengths = D.widened(), Q.widened(), lengths[order]
    ends = np.cumsum(lengths)
    # the candidates at which a run of equal token counts begins, then count
    cuts = np.flatnonzero(np.diff(lengths, prepend=0, append=0)).tolist()
    mus, sigmas = np.array(bank.mus)[:, None], np.array(bank.sigmas)[:, None]
    widths = -2.0 * sigmas * sigmas  # negated: x / -w == -(x / w)
    sums = np.empty((kernels, count, width))
    per_chunk = max(1, BLOCK_BYTES // (8 * kernels * width))  # passage rows
    first = 0
    while first < count:
        top = ends[first] - lengths[first]
        last = max(first + 1, int(np.searchsorted(ends, top + per_chunk, side="right")))
        bounds = [first, *(c for c in cuts if first < c < last), last]
        # each group's candidates a:b and rows r0:r1 of the chunk
        pairs = zip(bounds, bounds[1:])
        groups = [(a, b, ends[a] - lengths[a] - top, ends[b - 1] - top) for a, b in pairs]
        chunk = X[top : ends[last - 1]]
        M = np.empty(width * len(chunk))
        for a, b, r0, r1 in groups:
            passages = chunk[r0:r1].reshape(b - a, lengths[a], -1).transpose(0, 2, 1)
            np.matmul(Qw, passages, out=M[width * r0 : width * r1].reshape(b - a, width, -1))
        if Q.unit:
            # rounding can push |cos| marginally past 1; the kernels assume [-1, 1]
            np.clip(M, -1.0, 1.0, out=M)
        # -(M - mu)^2 / w as (mu - M)^2 / -w: one negation over the matches,
        # not one per kernel
        kernel = np.add(np.negative(M, out=M), mus)
        np.square(kernel, out=kernel)
        np.divide(kernel, widths, out=kernel)
        np.exp(kernel, out=kernel)
        for a, b, r0, r1 in groups:
            span = kernel[:, width * r0 : width * r1].reshape(kernels, b - a, width, -1)
            span.sum(axis=3, out=sums[:, a:b])
        first = last
    np.add(sums, KERNEL_EPSILON, out=sums)
    features[order] = np.log(sums, out=sums).sum(axis=2).T
    return features


def kernel_score(features: np.ndarray, weights: KernelWeights) -> float:
    features = np.asarray(features, dtype=np.float64)
    if features.shape != weights.w.shape:
        raise ValueError(
            f"feature size {features.shape} does not match weights {weights.w.shape}"
        )
    return float(np.dot(weights.w, features) + weights.bias)


@dataclass
class TrainTelemetry:
    """Diagnostics from triple training.

    pairwise_accuracy is the fraction of training triples whose positive
    outscores its negative under the final weights; a low value flags a
    poisoned training set before any evaluation run does.
    """

    pairwise_accuracy: float
    mean_margin: float
    loss_curve: list[float] = field(default_factory=list)
    resolved_triples: int = 0
    skipped_triples: int = 0


def hinge_loss_and_grad(
    w: np.ndarray,
    bias: float,
    pos_features: np.ndarray,
    neg_features: np.ndarray,
    margin: float = 1.0,
) -> tuple[float, np.ndarray, float]:
    """Mean hinge loss max(0, margin - (s_pos - s_neg)) and its gradient.

    The bias cancels in the score difference, so its gradient is exactly 0;
    it is reported anyway so gradient checks can cover the full parameter
    vector.
    """
    w = np.asarray(w, dtype=np.float64)
    diffs = pos_features - neg_features          # (n, k)
    margins = diffs @ w                          # s_pos - s_neg
    slack = margin - margins
    active = slack > 0.0
    loss = float(np.where(active, slack, 0.0).mean())
    if active.any():
        grad_w = -diffs[active].sum(axis=0) / len(diffs)
    else:
        grad_w = np.zeros_like(w)
    return loss, grad_w, 0.0


def fit_hinge(
    pos_features: np.ndarray,
    neg_features: np.ndarray,
    lr: float = 0.01,
    epochs: int = 100,
    margin: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, float, TrainTelemetry]:
    """Full-batch gradient descent on the pairwise hinge objective.

    Deterministic given the seed, which draws the initial weights from
    N(0, 0.01^2); feature rows are paired (pos_features[i], neg_features[i])
    per training triple.
    """
    _check_hyperparameters(lr, epochs, margin, seed)
    pos = np.asarray(pos_features, dtype=np.float64)
    neg = np.asarray(neg_features, dtype=np.float64)
    if pos.shape != neg.shape or pos.ndim != 2 or pos.shape[0] == 0:
        raise ValueError("need matching non-empty (n, k) feature matrices")
    w = np.random.default_rng(seed).normal(0.0, 0.01, size=pos.shape[1])
    bias = 0.0
    curve: list[float] = []
    for _ in range(epochs):
        loss, grad_w, grad_b = hinge_loss_and_grad(w, bias, pos, neg, margin)
        curve.append(loss)
        w = w - lr * grad_w
        bias = bias - lr * grad_b
    margins = (pos - neg) @ w
    telemetry = TrainTelemetry(
        pairwise_accuracy=float(np.mean(margins > 0.0)),
        mean_margin=float(margins.mean()),
        loss_curve=curve,
        resolved_triples=pos.shape[0],
    )
    return w, bias, telemetry


def _check_hyperparameters(lr: float, epochs: int, margin: float, seed: int) -> None:
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not 0.0 < lr < math.inf:
        raise ValueError(f"lr must be finite and above 0, got {lr}")
    if not math.isfinite(margin):
        raise ValueError(f"margin must be finite, got {margin}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def train_kernel_weights(
    triples,
    query_matrices: TokenMatrixStore,
    passage_matrices: TokenMatrixStore,
    bank: KernelBank,
    lr: float = 0.01,
    epochs: int = 100,
    margin: float = 1.0,
    seed: int = 0,
) -> tuple[KernelWeights, TrainTelemetry]:
    """Train the kernel-feature linear layer on (query, positive, negative) triples.

    Triples whose query or passages have no stored token matrix are skipped
    and counted; it is an error if none remain.
    """
    _check_hyperparameters(lr, epochs, margin, seed)
    check_dims(query_matrices, passage_matrices, "token matrices")
    resolved = []
    skipped = 0
    for triple in triples:
        if (
            triple.query_id not in query_matrices
            or triple.positive_id not in passage_matrices
            or triple.negative_id not in passage_matrices
        ):
            skipped += 1
            continue
        resolved.append(triple)
    if not resolved:
        raise ValueError("no training triples with resolvable token matrices")

    # each query's distinct passages go through the batched feature path once
    by_query: dict[str, dict[str, None]] = {}
    for triple in resolved:
        by_query.setdefault(triple.query_id, {}).update(
            {triple.positive_id: None, triple.negative_id: None}
        )
    queries, passages = query_matrices, passage_matrices
    features: dict[tuple[str, str], np.ndarray] = {}
    for qid, pids in by_query.items():
        Q = _gather(queries.tokens, queries.row_norms, *queries.spans([qid]), "query", cosine=True)
        rows = _kernel_feature_rows(
            Q, passages.tokens, passages.row_norms, *passages.spans(pids), bank
        )
        features.update(((qid, pid), row) for pid, row in zip(pids, rows))
    pos_rows = [features[(t.query_id, t.positive_id)] for t in resolved]
    neg_rows = [features[(t.query_id, t.negative_id)] for t in resolved]

    w, bias, telemetry = fit_hinge(
        np.stack(pos_rows), np.stack(neg_rows), lr=lr, epochs=epochs, margin=margin, seed=seed
    )
    telemetry.skipped_triples = skipped
    return KernelWeights(w, bias), telemetry


# ---------------------------------------------------------------------------
# Scorers: score_batch(query_id, passage_ids) -> one float64 score per id.
# ---------------------------------------------------------------------------


def _spans(query_id: str, passage_ids: Sequence[str], queries, passages, what: str):
    """The spans (first rows, token counts) of the query's and of each
    passage's rows in their stores, each id looked up once. A missing id
    raises ``MissingEmbeddingError``; only then are the passages looked up
    again, to list every missing one."""
    try:
        query = queries.spans([query_id])
    except KeyError:
        raise MissingEmbeddingError(f"no query {what} for {query_id!r}", passage_ids) from None
    try:
        return query, passages.spans(passage_ids)
    except KeyError:
        missing = [pid for pid in passage_ids if pid not in passages]
        raise MissingEmbeddingError(f"no passage {what} for {missing[0]!r}", missing) from None


class DenseScorer:
    name = "dense"

    def __init__(
        self,
        query_vectors: VectorStore,
        passage_vectors: VectorStore,
        similarity: str = "dot",
    ):
        _check_similarity(similarity)
        check_dims(query_vectors, passage_vectors, "vectors")
        self.query_vectors = query_vectors
        self.passage_vectors = passage_vectors
        self.similarity = similarity

    def score(self, query_id: str, passage_id: str) -> float:
        return float(self.score_batch(query_id, [passage_id])[0])

    def score_batch(self, query_id: str, passage_ids: Sequence[str]) -> np.ndarray:
        ((query,), _), (rows, _) = _spans(
            query_id, passage_ids, self.query_vectors, self.passage_vectors, "vector"
        )
        q = self.query_vectors.tokens[query].astype(np.float64)
        scores = _dense_dots(self.passage_vectors.tokens, rows, q)
        if self.similarity == "cosine":
            norms, qn = self.passage_vectors.row_norms[rows], _norms(q)
            _check_cosine_norms(qn, norms, passage_ids)
            scores = scores / (norms * qn)
        return scores


class LateInteractionScorer:
    name = "late_interaction"

    def __init__(
        self,
        query_matrices: TokenMatrixStore,
        passage_matrices: TokenMatrixStore,
        similarity: str = "dot",
    ):
        _check_similarity(similarity)
        check_dims(query_matrices, passage_matrices, "token matrices")
        self.query_matrices = query_matrices
        self.passage_matrices = passage_matrices
        self.similarity = similarity

    def score(self, query_id: str, passage_id: str) -> float:
        return float(self.score_batch(query_id, [passage_id])[0])

    def score_batch(self, query_id: str, passage_ids: Sequence[str]) -> np.ndarray:
        queries, passages = self.query_matrices, self.passage_matrices
        query, (starts, lengths) = _spans(query_id, passage_ids, queries, passages, "token matrix")
        Q = _gather(queries.tokens, queries.row_norms, *query, "query", self.similarity == "cosine")
        scores = _late_interaction_scores(Q, passages.tokens, passages.row_norms, starts, lengths)
        return np.array(scores, dtype=np.float64)


class KernelScorer:
    name = "kernel"

    def __init__(
        self,
        query_matrices: TokenMatrixStore,
        passage_matrices: TokenMatrixStore,
        bank: KernelBank,
        weights: KernelWeights,
        similarity: str = "cosine",
    ):
        _check_similarity(similarity)
        if len(weights.w) != len(bank):
            raise ValueError("weight vector size does not match kernel bank")
        check_dims(query_matrices, passage_matrices, "token matrices")
        self.query_matrices = query_matrices
        self.passage_matrices = passage_matrices
        self.bank = bank
        self.weights = weights
        self.similarity = similarity

    def score(self, query_id: str, passage_id: str) -> float:
        return float(self.score_batch(query_id, [passage_id])[0])

    def score_batch(self, query_id: str, passage_ids: Sequence[str]) -> np.ndarray:
        queries, passages = self.query_matrices, self.passage_matrices
        query, (starts, lengths) = _spans(query_id, passage_ids, queries, passages, "token matrix")
        Q = _gather(queries.tokens, queries.row_norms, *query, "query", self.similarity == "cosine")
        F = _kernel_feature_rows(Q, passages.tokens, passages.row_norms, starts, lengths, self.bank)
        # one ddot per row, the value kernel_score's np.dot gives
        return (F[:, None, :] @ self.weights.w[:, None])[:, 0, 0] + self.weights.bias


class ExternalScoreScorer:
    """Scores produced by an opaque outside model, loaded from a TSV file."""

    name = "scores"

    def __init__(self, scores: Mapping[tuple[str, str], float]):
        self.scores = dict(scores)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExternalScoreScorer":
        scores: dict[tuple[str, str], float] = {}
        expected = "expected query_id<TAB>passage_id<TAB>score"
        with TextRecords(path, 3, expected, "\t", ids=2) as records:
            for qid, pid, score_s in records:
                score = finite(score_s, "score")
                if scores.setdefault((qid, pid), score) != score:
                    old = scores[(qid, pid)]
                    raise ValueError(f"pair {(qid, pid)!r} scored both {old!r} and {score!r}")
        return cls(scores)

    def score(self, query_id: str, passage_id: str) -> float:
        return float(self.score_batch(query_id, [passage_id])[0])

    def score_batch(self, query_id: str, passage_ids: Sequence[str]) -> np.ndarray:
        missing = [pid for pid in passage_ids if (query_id, pid) not in self.scores]
        if missing:
            raise MissingEmbeddingError(
                f"no external score for ({query_id!r}, {missing[0]!r})", missing
            )
        return np.array([self.scores[(query_id, pid)] for pid in passage_ids], dtype=np.float64)


class GradeOracleScorer:
    """Scores each passage by its relevance grade (unjudged scores 0).

    Diagnostic scorer: a healthy re-ranker should approach its behavior,
    and under it deeper re-ranking can never hurt rank metrics.
    """

    name = "oracle"

    def __init__(self, qrels):
        self.qrels = qrels

    def score(self, query_id: str, passage_id: str) -> float:
        return float(self.score_batch(query_id, [passage_id])[0])

    def score_batch(self, query_id: str, passage_ids: Sequence[str]) -> np.ndarray:
        grades = [self.qrels.grade(query_id, pid) for pid in passage_ids]
        return np.array([0.0 if g is None else float(g) for g in grades], dtype=np.float64)


def score_candidates(
    first_stage: RankedRun,
    depth: int,
    scorer,
    on_missing: str = "error",
) -> dict[str, list[tuple[str, float]]]:
    """Score the top ``depth`` candidates of every query, one
    ``scorer.score_batch`` call per query, keeping first-stage order.

    ``on_missing`` controls what happens when the scorer has no
    representation for an item: "error" raises, "skip" drops the
    candidates it cannot score.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if on_missing not in ("error", "skip"):
        raise ValueError(f"on_missing must be 'error' or 'skip', got {on_missing!r}")
    scored: dict[str, list[tuple[str, float]]] = {}
    for qid, entries in first_stage.results.items():
        pids = [pid for pid, _ in entries[:depth]]
        try:
            scores = scorer.score_batch(qid, pids) if pids else ()
        except MissingEmbeddingError as exc:
            if on_missing == "error":
                raise
            unscorable = set(exc.passage_ids)
            pids = [pid for pid in pids if pid not in unscorable]
            scores = scorer.score_batch(qid, pids) if pids else ()
        scored[qid] = list(zip(pids, np.asarray(scores, dtype=np.float64).tolist()))
    return scored


def rerank(
    first_stage: RankedRun,
    depth: int,
    scorer,
    on_missing: str = "error",
    run_name: str | None = None,
) -> RankedRun:
    """Rescore the top ``depth`` candidates of every query and resort.

    Candidates beyond ``depth`` are dropped. The output never contains a
    passage absent from the first stage. ``on_missing`` is as for
    ``score_candidates``.
    """
    scored = score_candidates(first_stage, depth, scorer, on_missing)
    name = run_name or f"{first_stage.name}+{scorer.name}"
    results = {qid: canonical_order(entries) for qid, entries in scored.items()}
    return RankedRun(name=name, stage="rerank", results=results)
