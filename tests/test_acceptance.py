"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line. Everything runs on seeded synthetic data;
the oracles here are deliberately independent re-derivations (exhaustive
scans, nested loops, finite differences), not calls back into the code
under test.
"""

import hashlib
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from clickrank.bm25 import batch_search, build_index
from clickrank.corpus import Passage, PassageStore, build_qrels_from_clicks
from clickrank.embeddings import VectorStore
from clickrank.evaluation import (
    depth_sweep,
    evaluate_run,
    fuse_runs,
    judged_at_k,
    mrr_at_k,
    ndcg_at_k,
    recall_at_k,
)
from clickrank.corpus import Qrels
from clickrank.rankers import (
    GradeOracleScorer,
    KernelBank,
    KernelScorer,
    KernelWeights,
    dense_retrieve,
    fit_hinge,
    hinge_loss_and_grad,
    kernel_features,
    late_interaction_score,
    rerank,
    train_kernel_weights,
)
from clickrank.runs import RankedRun
from clickrank.synth import FixtureSpec, generate_fixture
from clickrank.triples import SamplingConfig, candidate_pool, generate_triples, write_triples


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[criterion] {name}: FAIL")
        raise
    print(f"[criterion] {name}: PASS")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def planted_fixture():
    """1k passages / 100 queries with planted embeddings and clicks."""
    return generate_fixture(FixtureSpec(n_passages=1000, n_queries=100, seed=7))


@pytest.fixture(scope="module")
def planted_qrels(planted_fixture):
    return build_qrels_from_clicks(planted_fixture.clicks, "dctr", (0.1, 0.3))


@pytest.fixture(scope="module")
def planted_index(planted_fixture):
    return build_index(planted_fixture.store)


@pytest.fixture(scope="module")
def planted_bm25_run(planted_index, planted_fixture):
    return batch_search(planted_index, planted_fixture.queries, 1000)


# ---------------------------------------------------------------------------
# criterion 1: BM25 oracle equivalence
# ---------------------------------------------------------------------------


class _NaiveBM25:
    """From-scratch reference: recounts statistics, scores every document."""

    def __init__(self, texts: dict[str, str], k1: float, b: float):
        self.tokens = {pid: text.split() for pid, text in texts.items()}
        self.N = len(texts)
        self.avgdl = sum(len(t) for t in self.tokens.values()) / self.N
        self.df: dict[str, int] = {}
        for toks in self.tokens.values():
            for t in set(toks):
                self.df[t] = self.df.get(t, 0) + 1
        self.k1, self.b = k1, b

    def score(self, query_tokens, pid):
        toks = self.tokens[pid]
        counts: dict[str, int] = {}
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
        s = 0.0
        for t in query_tokens:
            tf = counts.get(t, 0)
            if tf == 0:
                continue
            idf = math.log(1 + (self.N - self.df[t] + 0.5) / (self.df[t] + 0.5))
            norm = 1 - self.b + self.b * len(toks) / self.avgdl
            s += idf * tf * (self.k1 + 1) / (tf + self.k1 * norm)
        return s

    def top_k(self, query_tokens, k):
        scored = []
        for pid in self.tokens:
            s = self.score(query_tokens, pid)
            if s > 0.0:
                scored.append((pid, s))
        scored.sort(key=lambda e: (-e[1], e[0]))
        return scored[:k]


def test_bm25_oracle_equivalence():
    with criterion("bm25-oracle-equivalence"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        mismatches = 0
        for corpus_i in range(100):
            n_docs = 1000 if corpus_i == 0 else int(rng.integers(20, 120))
            vocab = [f"w{j}" for j in range(max(10, n_docs // 2))]
            texts = {}
            for d in range(n_docs):
                n = int(rng.integers(3, 25))
                texts[f"d{d:05d}"] = " ".join(
                    vocab[j] for j in rng.integers(0, len(vocab), n)
                )
            store = PassageStore([Passage(pid, t) for pid, t in texts.items()])
            index = build_index(store)
            oracle = _NaiveBM25(texts, index.k1, index.b)
            for _ in range(100):
                tokens = [vocab[j] for j in rng.integers(0, len(vocab), int(rng.integers(1, 5)))]
                k = int(rng.integers(1, n_docs + 5))
                got = index.search(" ".join(tokens), k)
                want = oracle.top_k(tokens, k)
                if [p for p, _ in got] != [p for p, _ in want]:
                    mismatches += 1
        elapsed = time.monotonic() - start
        assert mismatches == 0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: dense retrieval oracle equivalence
# ---------------------------------------------------------------------------


def test_dense_retrieval_oracle_equivalence():
    with criterion("dense-oracle-equivalence"):
        start = time.monotonic()
        rng = np.random.default_rng(202)
        ids = [f"p{i:05d}" for i in range(10_000)]
        vectors = {pid: rng.standard_normal(64).astype(np.float32) for pid in ids}
        store = VectorStore(64, vectors)
        for _ in range(50):
            q = rng.standard_normal(64)
            got = dense_retrieve(store, q, 100)
            # exhaustive oracle: one dot product per row, then a full sort
            scored = [(pid, float(np.dot(vectors[pid].astype(np.float64), q))) for pid in ids]
            scored.sort(key=lambda e: (-e[1], e[0]))
            want = scored[:100]
            assert [p for p, _ in got] == [p for p, _ in want]
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: triple-policy invariants on a 1k-query fixture
# ---------------------------------------------------------------------------


def test_triple_policy_invariants(tmp_path):
    with criterion("triple-policy-invariants"):
        start = time.monotonic()
        fixture = generate_fixture(FixtureSpec(n_passages=5000, n_queries=1000, seed=13))
        qrels = build_qrels_from_clicks(fixture.clicks, "dctr", (0.1, 0.3))
        index = build_index(fixture.store)
        config = SamplingConfig(
            candidate_depth=500, max_negatives_per_positive=20, triple_cap=10_000_000, seed=21
        )
        report = generate_triples(fixture.queries, qrels, index, config)
        assert report.triples

        # no negative may carry any positive grade for its query
        violations = sum(
            1 for t in report.triples if t.negative_id in qrels.relevant_pool(t.query_id)
        )
        assert violations == 0

        # every negative must come from the query's top-500 candidates
        pools = {
            qid: set(candidate_pool(index, fixture.queries.text(qid), 500))
            for qid in {t.query_id for t in report.triples}
        }
        assert all(t.negative_id in pools[t.query_id] for t in report.triples)

        # at most 20 negatives per (query, positive) pair
        per_pair: dict[tuple[str, str], int] = {}
        for t in report.triples:
            key = (t.query_id, t.positive_id)
            per_pair[key] = per_pair.get(key, 0) + 1
        assert max(per_pair.values()) <= 20

        # byte-identical regeneration under the same seed
        again = generate_triples(fixture.queries, qrels, index, config)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_triples(report.triples, a)
        write_triples(again.triples, b)
        assert a.read_bytes() == b.read_bytes()

        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 4: scoring math
# ---------------------------------------------------------------------------


def test_late_interaction_permutation_and_monotonicity():
    with criterion("late-interaction-invariants"):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            Q = rng.standard_normal((int(rng.integers(1, 6)), 8))
            D = rng.standard_normal((int(rng.integers(1, 8)), 8))
            base = late_interaction_score(Q, D)
            # exact equality under row permutations of either matrix
            assert late_interaction_score(Q[rng.permutation(Q.shape[0])], D) == base
            assert late_interaction_score(Q, D[rng.permutation(D.shape[0])]) == base
            # appending a document row can only help
            extra = rng.standard_normal((1, 8))
            assert late_interaction_score(Q, np.vstack([D, extra])) >= base


def test_kernel_features_match_nested_loop_oracle():
    with criterion("kernel-features-oracle"):
        rng = np.random.default_rng(404)
        bank = KernelBank.default()
        for _ in range(1000):
            Q = rng.standard_normal((int(rng.integers(1, 5)), 6))
            D = rng.standard_normal((int(rng.integers(1, 6)), 6))
            got = kernel_features(Q, D, bank)
            want = np.empty(len(bank))
            for k, (mu, sigma) in enumerate(zip(bank.mus, bank.sigmas)):
                total = 0.0
                for qi in Q:
                    inner = 0.0
                    for dj in D:
                        cos = float(np.dot(qi, dj)) / (
                            float(np.linalg.norm(qi)) * float(np.linalg.norm(dj))
                        )
                        cos = max(-1.0, min(1.0, cos))
                        inner += math.exp(-((cos - mu) ** 2) / (2 * sigma * sigma))
                    total += math.log(1e-10 + inner)
                want[k] = total
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


def test_hinge_gradient_vs_finite_differences():
    with criterion("hinge-gradient-check"):
        rng = np.random.default_rng(505)
        pos = rng.standard_normal((100, 11))
        neg = rng.standard_normal((100, 11))
        w = rng.standard_normal(11)
        bias = float(rng.standard_normal())
        h = 1e-4
        _, grad_w, grad_b = hinge_loss_and_grad(w, bias, pos, neg, margin=1.0)
        worst = 0.0
        for i in range(11):
            bump = np.zeros(11)
            bump[i] = h
            up, _, _ = hinge_loss_and_grad(w + bump, bias, pos, neg, margin=1.0)
            down, _, _ = hinge_loss_and_grad(w - bump, bias, pos, neg, margin=1.0)
            worst = max(worst, abs(grad_w[i] - (up - down) / (2 * h)))
        up, _, _ = hinge_loss_and_grad(w, bias + h, pos, neg, margin=1.0)
        down, _, _ = hinge_loss_and_grad(w, bias - h, pos, neg, margin=1.0)
        worst = max(worst, abs(grad_b - (up - down) / (2 * h)))
        assert worst <= 1e-4, f"max abs gradient error {worst:.2e}"


# ---------------------------------------------------------------------------
# criterion 5: metric correctness on a hand-derived fixture suite
# ---------------------------------------------------------------------------


def _ranked(pids):
    return [(pid, float(len(pids) - i)) for i, pid in enumerate(pids)]


def test_metric_correctness_fixture_suite(tmp_path):
    with criterion("metric-hand-oracle-suite"):
        # (name, ranked ids, judged grades, metric fn, expected value);
        # expectations derived by hand / scratch oracle before implementation
        inv_log2_3 = 1.0 / math.log2(3)
        cases = [
            ("mrr rank 1", ["a", "b"], {"a": 1}, lambda r, q: mrr_at_k(r, q).values["q"], 1.0),
            ("mrr rank 3", ["x", "y", "a"], {"a": 1}, lambda r, q: mrr_at_k(r, q).values["q"], 1 / 3),
            (
                "mrr beyond cutoff",
                [f"x{i}" for i in range(10)] + ["a"],
                {"a": 1},
                lambda r, q: mrr_at_k(r, q, k=10).values["q"],
                0.0,
            ),
            (
                "ndcg worked graded case",
                ["a", "b", "c"],
                {"a": 3, "b": 0, "c": 1},
                lambda r, q: ndcg_at_k(r, q, k=10).values["q"],
                0.9828422279067397,
            ),
            (
                "ndcg perfect ordering",
                ["a", "b", "c"],
                {"a": 3, "b": 2, "c": 1},
                lambda r, q: ndcg_at_k(r, q, k=10).values["q"],
                1.0,
            ),
            (
                "ndcg unjudged head",
                ["u", "a", "b"],
                {"a": 2, "b": 1, "c": 0},
                lambda r, q: ndcg_at_k(r, q, k=10).values["q"],
                0.6590018048024133,
            ),
            (
                "recall all found",
                ["r0", "r1", "r2", "r3", "x"],
                {f"r{i}": 1 for i in range(4)},
                lambda r, q: recall_at_k(r, q, 100).values["q"],
                1.0,
            ),
            (
                "recall half found",
                ["r0", "x", "y"],
                {"r0": 1, "r1": 2},
                lambda r, q: recall_at_k(r, q, 3).values["q"],
                0.5,
            ),
            (
                "judged 3 of 10",
                [f"p{i}" for i in range(10)],
                {"p0": 1, "p3": 0, "p7": 2},
                lambda r, q: judged_at_k(r, q, 10).values["q"],
                0.3,
            ),
            (
                "ndcg unretrieved judged doc raises the bar",
                ["a"],
                {"a": 1, "missing": 2},
                lambda r, q: ndcg_at_k(r, q, k=10).values["q"],
                1.0 / (3.0 + inv_log2_3),
            ),
        ]
        for name, pids, grades, fn, expected in cases:
            run = RankedRun(name="case", results={"q": _ranked(pids)})
            qrels = Qrels({"q": grades})
            got = fn(run, qrels)
            assert got == pytest.approx(expected, abs=1e-9), name

        # invariance to run-file line order
        from clickrank.runs import read_run, write_run

        run = RankedRun(name="perm")
        rng = np.random.default_rng(42)
        for q in range(10):
            run.add(f"q{q}", [(f"p{i}", float(rng.standard_normal())) for i in range(30)])
        qrels = Qrels({f"q{q}": {"p3": 2, "p7": 1, "p11": 0} for q in range(10)})
        path = tmp_path / "perm.trec"
        write_run(run, path)
        lines = path.read_text().splitlines()
        permuted = tmp_path / "permuted.trec"
        permuted.write_text("\n".join(lines[i] for i in rng.permutation(len(lines))) + "\n")
        a = evaluate_run(read_run(path), qrels)
        b = evaluate_run(read_run(permuted), qrels)
        assert a.splits["all"].metrics == b.splits["all"].metrics


# ---------------------------------------------------------------------------
# criterion 6: dense retrieval beats the term-matching baseline
# ---------------------------------------------------------------------------


def test_dense_outperforms_bm25_on_planted_fixture(
    planted_fixture, planted_qrels, planted_bm25_run
):
    with criterion("dense-beats-bm25"):
        start = time.monotonic()
        dense_run = RankedRun(name="dense", stage="dense-retrieval")
        for qid in sorted(planted_fixture.query_vectors.ids):
            dense_run.results[qid] = dense_retrieve(
                planted_fixture.passage_vectors,
                planted_fixture.query_vectors.vector(qid),
                1000,
            )
        bm25_report = evaluate_run(planted_bm25_run, planted_qrels)
        dense_report = evaluate_run(dense_run, planted_qrels)
        bm25_metrics = bm25_report.splits["all"].metrics
        dense_metrics = dense_report.splits["all"].metrics
        assert dense_metrics["nDCG@10"] > bm25_metrics["nDCG@10"]
        assert dense_metrics["R@100"] > bm25_metrics["R@100"]
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 7: training works (telemetry + end-to-end gain)
# ---------------------------------------------------------------------------


def test_training_reaches_full_accuracy_on_separable_triples():
    with criterion("training-separable-accuracy"):
        rng = np.random.default_rng(606)
        direction = rng.standard_normal(11)
        direction /= np.linalg.norm(direction)
        base = rng.standard_normal((60, 11))
        pos = base + np.outer(np.ones(60), direction) + rng.standard_normal((60, 11)) * 0.05
        neg = base
        _, _, telemetry = fit_hinge(pos, neg, lr=0.2, epochs=200, margin=1.0, seed=0)
        assert telemetry.pairwise_accuracy == 1.0


def test_trained_reranker_beats_random_weights(
    planted_fixture, planted_qrels, planted_index, planted_bm25_run
):
    with criterion("training-improves-reranking"):
        config = SamplingConfig(
            candidate_depth=500, max_negatives_per_positive=20, triple_cap=10_000_000, seed=3
        )
        report = generate_triples(planted_fixture.queries, planted_qrels, planted_index, config)
        bank = KernelBank.default()
        weights, telemetry = train_kernel_weights(
            report.triples,
            planted_fixture.query_matrices,
            planted_fixture.passage_matrices,
            bank,
            lr=0.05,
            epochs=120,
            seed=5,
        )
        assert telemetry.pairwise_accuracy > 0.5  # the signal was learnable

        rng = np.random.default_rng(5)
        random_weights = KernelWeights(rng.normal(0.0, 0.01, size=len(bank)), 0.0)
        trained_run = rerank(
            planted_bm25_run,
            200,
            KernelScorer(
                planted_fixture.query_matrices, planted_fixture.passage_matrices, bank, weights
            ),
        )
        random_run = rerank(
            planted_bm25_run,
            200,
            KernelScorer(
                planted_fixture.query_matrices,
                planted_fixture.passage_matrices,
                bank,
                random_weights,
            ),
        )
        trained_ndcg = evaluate_run(trained_run, planted_qrels).splits["all"].metrics["nDCG@10"]
        random_ndcg = evaluate_run(random_run, planted_qrels).splits["all"].metrics["nDCG@10"]
        assert trained_ndcg - random_ndcg > 0.05, (trained_ndcg, random_ndcg)


# ---------------------------------------------------------------------------
# criterion 8: re-ranking depth robustness diagnostic
# ---------------------------------------------------------------------------


class _CorruptedScorer:
    """Mimics false-negative-poisoned training: a stable 2% slice of the
    non-relevant candidates gets spuriously high scores, so exposing more
    candidates (deeper re-ranking) only floods the top ranks with junk."""

    name = "corrupted"

    def __init__(self, qrels):
        self.qrels = qrels

    def score(self, qid, pid):
        grade = self.qrels.grade(qid, pid)
        relevant = grade is not None and grade >= 1
        h = int.from_bytes(hashlib.sha256(f"{qid}|{pid}".encode()).digest()[:4], "little")
        if not relevant and h % 50 == 0:
            return 10.0 + (h % 1000) / 1000.0
        if relevant:
            return 2.0 + grade
        return (h % 1000) / 1000.0

    def score_batch(self, qid, pids):
        return [self.score(qid, pid) for pid in pids]


def test_depth_sweep_diagnostic(planted_bm25_run, planted_qrels):
    with criterion("depth-robustness-diagnostic"):
        depths = [50, 100, 200, 500]
        healthy = depth_sweep(planted_bm25_run, GradeOracleScorer(planted_qrels), depths, planted_qrels)
        healthy_ndcg = [healthy[d]["nDCG@10"] for d in depths]
        assert all(a <= b for a, b in zip(healthy_ndcg, healthy_ndcg[1:])), healthy_ndcg

        corrupted = depth_sweep(planted_bm25_run, _CorruptedScorer(planted_qrels), depths, planted_qrels)
        corrupted_ndcg = [corrupted[d]["nDCG@10"] for d in depths]
        assert all(a > b for a, b in zip(corrupted_ndcg, corrupted_ndcg[1:])), corrupted_ndcg
        assert corrupted_ndcg[-1] < corrupted_ndcg[0]


# ---------------------------------------------------------------------------
# criterion 9: ensemble fusion
# ---------------------------------------------------------------------------


def test_ensemble_fusion(planted_bm25_run):
    with criterion("ensemble-fusion"):
        # self-fusion preserves the ordering exactly
        fused_self = fuse_runs([planted_bm25_run, planted_bm25_run])
        for qid in planted_bm25_run.query_ids:
            assert [p for p, _ in fused_self[qid]] == [p for p, _ in planted_bm25_run[qid]]

        # three-run fusion against a brute-force oracle on 20 queries
        rng = np.random.default_rng(707)
        runs = []
        for r in range(3):
            run = RankedRun(name=f"r{r}")
            for q in range(20):
                pids = [f"p{i}" for i in rng.permutation(6)]
                run.add(f"q{q}", [(p, float(rng.standard_normal())) for p in pids])
            runs.append(run)
        fused = fuse_runs(runs)
        for q in range(20):
            qid = f"q{q}"
            per_run = []
            for run in runs:
                scores = [s for _, s in run[qid]]
                lo, hi = min(scores), max(scores)
                per_run.append(
                    {p: 1.0 if hi == lo else (s - lo) / (hi - lo) for p, s in run[qid]}
                )
            pids = set()
            for d in per_run:
                pids |= set(d)
            oracle = sorted(
                ((p, sum(d.get(p, 0.0) for d in per_run) / 3) for p in pids),
                key=lambda e: (-e[1], e[0]),
            )
            assert [p for p, _ in fused[qid]] == [p for p, _ in oracle]
            for (_, a), (_, b) in zip(fused[qid], oracle):
                assert a == pytest.approx(b, abs=1e-12)
