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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .embeddings import TokenMatrixStore, VectorStore
from .runs import RankedRun, canonical_order

logger = logging.getLogger(__name__)

KERNEL_EPSILON = 1e-10

# Upper bound on the bytes of the largest array a batched head forms for one
# block of candidates: late interaction's (query tokens, passage tokens, dim)
# products, the kernel head's (kernels, passages, query tokens, tokens) values.
BLOCK_BYTES = 1 << 23


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
        if any(s <= 0 for s in self.sigmas):
            raise ValueError(f"kernel widths must be positive, got {self.sigmas}")

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
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for mu, sigma, w in zip(bank.mus, bank.sigmas, weights.w):
            f.write(f"{float(mu)!r} {float(sigma)!r} {float(w)!r}\n")
        f.write(f"bias {float(weights.bias)!r}\n")


def load_weights(path: str | Path) -> tuple[KernelBank, KernelWeights]:
    mus: list[float] = []
    sigmas: list[float] = []
    ws: list[float] = []
    bias: float | None = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "bias":
                if len(parts) != 2:
                    raise ValueError(f"{path}: line {lineno}: malformed bias line")
                bias = float(parts[1])
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 'mu sigma w'")
            mus.append(float(parts[0]))
            sigmas.append(float(parts[1]))
            ws.append(float(parts[2]))
    if bias is None:
        raise ValueError(f"{path}: missing bias line")
    bank = KernelBank(tuple(mus), tuple(sigmas))
    return bank, KernelWeights(np.array(ws), bias)


def _check_similarity(similarity: str) -> None:
    if similarity not in ("dot", "cosine"):
        raise ValueError(f"similarity must be 'dot' or 'cosine', got {similarity!r}")


def dense_score(q_vec: np.ndarray, d_vec: np.ndarray, similarity: str = "dot") -> float:
    """Dot product of a query and a passage vector (cosine selectable)."""
    _check_similarity(similarity)
    q = np.asarray(q_vec, dtype=np.float64)
    d = np.asarray(d_vec, dtype=np.float64)
    if q.shape != d.shape or q.ndim != 1:
        raise ValueError(f"dimension mismatch: {q.shape} vs {d.shape}")
    if similarity == "cosine":
        qn, dn = np.linalg.norm(q), np.linalg.norm(d)
        if qn == 0.0 or dn == 0.0:
            raise ValueError("cosine similarity undefined for a zero-norm vector")
        return float(np.dot(q, d) / (qn * dn))
    return float(np.dot(q, d))


def dense_retrieve(
    store: VectorStore, q_vec: np.ndarray, k: int, similarity: str = "dot"
) -> list[tuple[str, float]]:
    """Exact top-k over the whole store (no approximation)."""
    _check_similarity(similarity)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(store) == 0:
        raise ValueError("cannot retrieve from an empty vector store")
    q = np.asarray(q_vec, dtype=np.float64)
    if q.shape != (store.dim,):
        raise ValueError(f"query dim {q.shape} does not match store dim {store.dim}")
    ids, matrix = store.as_matrix()
    matrix = matrix.astype(np.float64)
    scores = matrix @ q
    if similarity == "cosine":
        norms = np.linalg.norm(matrix, axis=1)
        qn = np.linalg.norm(q)
        if qn == 0.0:
            raise ValueError("cosine similarity undefined for a zero-norm query")
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ValueError(f"zero-norm passage vector {ids[zero[0]]!r}")
        scores = scores / (norms * qn)
    top = np.arange(len(ids))
    if k < len(ids):
        # every row tied with the k-th best score, so the id tie-break decides
        kth = np.partition(scores, len(ids) - k)[len(ids) - k]
        top = np.flatnonzero(scores >= kth)
    top = top[np.lexsort((store.id_rank[top], -scores[top]))][:k]
    return [(ids[i], s) for i, s in zip(top.tolist(), scores[top].tolist())]


def late_interaction_score(Q: np.ndarray, D: np.ndarray, similarity: str = "dot") -> float:
    """Sum over query tokens of the max dot product against passage tokens.

    Every dot product and the final sum use exactly rounded summation
    (``math.fsum``), so the score is bit-identical under any permutation of
    the rows of Q or D. BLAS reductions do not give that guarantee: their
    summation grouping can change with memory alignment.
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
    return _late_interaction_scores(Q, [D], similarity)[0]


def _late_interaction_scores(Q: np.ndarray, Ds: Sequence[np.ndarray], similarity: str) -> list[float]:
    """``late_interaction_score(Q, D)`` for every D in Ds, bit for bit."""
    Q = np.asarray(Q, dtype=np.float64)
    if similarity == "cosine":
        Q = _normalized_rows(Q, "query")
        Ds = [_normalized_rows(np.asarray(D, dtype=np.float64), "passage") for D in Ds]
    longest = max((len(D) for D in Ds), default=1)
    per_block = max(1, BLOCK_BYTES // (Q.shape[0] * longest * Q.shape[1] * 8))
    scores: list[float] = []
    for start in range(0, len(Ds), per_block):
        scores.extend(_late_interaction_block(Q, Ds[start : start + per_block]))
    return scores


def _late_interaction_block(Q: np.ndarray, Ds: Sequence[np.ndarray]) -> list[float]:
    """Exact late-interaction scores of one block of candidates.

    A token row's exact dot product is ``math.fsum`` of its products; a
    plain float sum of ``dim`` terms is within ``(dim - 1) * 2**-53 *
    sum|p|`` of it in any summation order, and ``bound`` is twice that.
    Within a passage, a row whose upper bound lies below another row's
    lower bound cannot hold the maximum, so only the remaining rows (about
    two per query token) are summed exactly. The maxima are then those of
    the exact sums over all rows.
    """
    lengths = [len(D) for D in Ds]
    D = np.concatenate(Ds).astype(np.float64, copy=False)
    products = Q[:, None, :] * D[None, :, :]
    approx = products.sum(axis=2)
    bound = (2.0 * Q.shape[1] * 2.0**-53) * np.abs(products).sum(axis=2)
    starts = np.cumsum([0] + lengths[:-1])
    floor = np.maximum.reduceat(approx - bound, starts, axis=1)
    # a NaN or infinite bound compares False and keeps its row
    keep = ~(approx + bound < np.repeat(floor, lengths, axis=1))
    token, row = np.nonzero(keep)
    exact = np.array([math.fsum(lane) for lane in products[token, row].tolist()])
    passage = np.repeat(np.arange(len(Ds)), lengths)[row]
    best = np.full((Q.shape[0], len(Ds)), -np.inf)
    # maximum.at keeps the later of equal values; reversed, that is the
    # first row, as max() over the rows picks it (the sign of a zero)
    np.maximum.at(best, (token[::-1], passage[::-1]), exact[::-1])
    return [math.fsum(column) for column in best.T.tolist()]


def _normalized_rows(M: np.ndarray, name: str) -> np.ndarray:
    norms = np.linalg.norm(M, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero-norm {name} token row at index {zero[0]}")
    return M / norms[:, None]


def kernel_features(
    Q: np.ndarray,
    D: np.ndarray,
    bank: KernelBank,
    eps: float = KERNEL_EPSILON,
    similarity: str = "cosine",
) -> np.ndarray:
    """Soft match counts: feature_k = sum_i log(eps + sum_j exp(-(M_ij - mu_k)^2 / (2 sigma_k^2))).

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
    return _kernel_feature_rows(Q, [D], bank, eps, similarity)[0]


def _kernel_feature_rows(
    Q: np.ndarray,
    Ds: Sequence[np.ndarray],
    bank: KernelBank,
    eps: float = KERNEL_EPSILON,
    similarity: str = "cosine",
) -> np.ndarray:
    """``kernel_features(Q, D)`` for every D in Ds as rows of one array.

    Passages with the same token count are stacked and matched against Q
    in one batched matmul, and all kernels are evaluated at once. Every
    reduction still runs along the same axis and length as for a single
    passage, so each feature is bit-identical.
    """
    if not Ds:
        return np.empty((0, len(bank)), dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    lengths = np.array([len(D) for D in Ds])
    starts = np.cumsum(lengths) - lengths
    D = np.concatenate(Ds).astype(np.float64, copy=False)
    if similarity == "cosine":
        Q = _normalized_rows(Q, "query")
        norms = np.linalg.norm(D, axis=1)
        if not norms.all():
            row = int(np.argmin(norms != 0.0))
            first = np.searchsorted(starts, row, side="right") - 1
            raise ValueError(f"zero-norm passage token row at index {row - starts[first]}")
        D = D / norms[:, None]
    mus = np.array(bank.mus)[:, None, None, None]
    sigmas = np.array(bank.sigmas)[:, None, None, None]
    widths = 2.0 * sigmas * sigmas
    features = np.empty((len(Ds), len(bank)), dtype=np.float64)
    for length in np.unique(lengths).tolist():
        same = np.flatnonzero(lengths == length)
        per_block = max(1, BLOCK_BYTES // (len(bank) * Q.shape[0] * length * 8))
        for block in np.array_split(same, -(-len(same) // per_block)):
            tokens = (starts[block][:, None] + np.arange(length)).ravel()
            M = Q @ D[tokens].reshape(len(block), length, -1).transpose(0, 2, 1)
            if similarity == "cosine":
                # rounding can push |cos| marginally past 1; the kernels assume [-1, 1]
                M = np.clip(M, -1.0, 1.0)
            kernel = np.exp(-((M - mus) ** 2) / widths)
            features[block] = np.log(eps + kernel.sum(axis=3)).sum(axis=2).T
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
    init_scale: float = 0.01,
    init_w: np.ndarray | None = None,
) -> tuple[np.ndarray, float, TrainTelemetry]:
    """Full-batch gradient descent on the pairwise hinge objective.

    Deterministic given the seed; feature rows are paired (pos_features[i],
    neg_features[i]) per training triple. ``init_w`` overrides the seeded
    random initialization.
    """
    pos = np.asarray(pos_features, dtype=np.float64)
    neg = np.asarray(neg_features, dtype=np.float64)
    if pos.shape != neg.shape or pos.ndim != 2 or pos.shape[0] == 0:
        raise ValueError("need matching non-empty (n, k) feature matrices")
    if init_w is not None:
        w = np.asarray(init_w, dtype=np.float64).copy()
        if w.shape != (pos.shape[1],):
            raise ValueError(f"init_w shape {w.shape} does not match features")
    else:
        rng = np.random.default_rng(seed)
        w = rng.normal(0.0, init_scale, size=pos.shape[1])
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
    if skipped:
        logger.warning("skipped %d triples with missing token matrices", skipped)

    # each query's distinct passages go through the batched feature path once
    by_query: dict[str, dict[str, None]] = {}
    for triple in resolved:
        by_query.setdefault(triple.query_id, {}).update(
            {triple.positive_id: None, triple.negative_id: None}
        )
    features: dict[tuple[str, str], np.ndarray] = {}
    for qid, pids in by_query.items():
        rows = _kernel_feature_rows(
            query_matrices.matrix(qid), [passage_matrices.matrix(pid) for pid in pids], bank
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


def _check_ids(query_id: str, passage_ids: Sequence[str], queries, passages, what: str) -> None:
    """The missing-id check of the scorers that look both ids up in stores."""
    if query_id not in queries:
        raise MissingEmbeddingError(f"no query {what} for {query_id!r}", passage_ids)
    missing = [pid for pid in passage_ids if pid not in passages]
    if missing:
        raise MissingEmbeddingError(f"no passage {what} for {missing[0]!r}", missing)


class DenseScorer:
    name = "dense"

    def __init__(
        self,
        query_vectors: VectorStore,
        passage_vectors: VectorStore,
        similarity: str = "dot",
    ):
        _check_similarity(similarity)
        self.query_vectors = query_vectors
        self.passage_vectors = passage_vectors
        self.similarity = similarity

    def score(self, query_id: str, passage_id: str) -> float:
        return float(self.score_batch(query_id, [passage_id])[0])

    def score_batch(self, query_id: str, passage_ids: Sequence[str]) -> np.ndarray:
        _check_ids(query_id, passage_ids, self.query_vectors, self.passage_vectors, "vector")
        q = self.query_vectors.vector(query_id).astype(np.float64)
        vector = self.passage_vectors.vector
        scores = [dense_score(q, vector(pid), self.similarity) for pid in passage_ids]
        return np.array(scores, dtype=np.float64)


class LateInteractionScorer:
    name = "late_interaction"

    def __init__(
        self,
        query_matrices: TokenMatrixStore,
        passage_matrices: TokenMatrixStore,
        similarity: str = "dot",
    ):
        _check_similarity(similarity)
        self.query_matrices = query_matrices
        self.passage_matrices = passage_matrices
        self.similarity = similarity

    def score(self, query_id: str, passage_id: str) -> float:
        return float(self.score_batch(query_id, [passage_id])[0])

    def score_batch(self, query_id: str, passage_ids: Sequence[str]) -> np.ndarray:
        _check_ids(query_id, passage_ids, self.query_matrices, self.passage_matrices, "token matrix")
        scores = _late_interaction_scores(
            self.query_matrices.matrix(query_id),
            [self.passage_matrices.matrix(pid) for pid in passage_ids],
            self.similarity,
        )
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
        self.query_matrices = query_matrices
        self.passage_matrices = passage_matrices
        self.bank = bank
        self.weights = weights
        self.similarity = similarity

    def score(self, query_id: str, passage_id: str) -> float:
        return float(self.score_batch(query_id, [passage_id])[0])

    def score_batch(self, query_id: str, passage_ids: Sequence[str]) -> np.ndarray:
        _check_ids(query_id, passage_ids, self.query_matrices, self.passage_matrices, "token matrix")
        features = _kernel_feature_rows(
            self.query_matrices.matrix(query_id),
            [self.passage_matrices.matrix(pid) for pid in passage_ids],
            self.bank,
            similarity=self.similarity,
        )
        return np.array([kernel_score(f, self.weights) for f in features], dtype=np.float64)


class ExternalScoreScorer:
    """Scores produced by an opaque outside model, loaded from a TSV file."""

    name = "scores"

    def __init__(self, scores: Mapping[tuple[str, str], float]):
        self.scores = dict(scores)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExternalScoreScorer":
        scores: dict[tuple[str, str], float] = {}
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(
                        f"{path}: line {lineno}: expected query_id<TAB>passage_id<TAB>score"
                    )
                qid, pid, score_s = parts
                try:
                    scores[(qid, pid)] = float(score_s)
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: bad score {score_s!r}") from None
        return cls(scores)

    @classmethod
    def from_run(cls, run: RankedRun) -> "ExternalScoreScorer":
        scores = {
            (qid, pid): score
            for qid, entries in run.results.items()
            for pid, score in entries
        }
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
    candidates it cannot score and counts them.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if on_missing not in ("error", "skip"):
        raise ValueError(f"on_missing must be 'error' or 'skip', got {on_missing!r}")
    scored: dict[str, list[tuple[str, float]]] = {}
    skipped = 0
    for qid, entries in first_stage.results.items():
        pids = [pid for pid, _ in entries[:depth]]
        try:
            scores = scorer.score_batch(qid, pids) if pids else ()
        except MissingEmbeddingError as exc:
            if on_missing == "error":
                raise
            unscorable = set(exc.passage_ids)
            kept = [pid for pid in pids if pid not in unscorable]
            skipped += len(pids) - len(kept)
            pids = kept
            scores = scorer.score_batch(qid, pids) if pids else ()
        scored[qid] = list(zip(pids, np.asarray(scores, dtype=np.float64).tolist()))
    if skipped:
        logger.warning("rerank dropped %d candidates without embeddings", skipped)
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
