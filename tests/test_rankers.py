import math
import re

import numpy as np
import pytest

from clickrank import rankers
from clickrank.embeddings import TokenMatrixStore, VectorStore
from clickrank.rankers import (
    DenseScorer,
    ExternalScoreScorer,
    GradeOracleScorer,
    KernelBank,
    KernelScorer,
    KernelWeights,
    LateInteractionScorer,
    MissingEmbeddingError,
    _gather,
    _kernel_feature_rows,
    dense_retrieve,
    dense_score,
    fit_hinge,
    hinge_loss_and_grad,
    kernel_features,
    kernel_score,
    late_interaction_score,
    load_weights,
    rerank,
    train_kernel_weights,
    write_weights,
)
from clickrank.runs import RankedRun
from clickrank.triples import TrainingTriple


def _loop_dot(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += float(x) * float(y)
    return total


def _loop_kernel_features(Q, D, bank, eps=1e-10):
    """Nested-loop re-derivation of the kernel features."""
    feats = []
    for mu, sigma in zip(bank.mus, bank.sigmas):
        total = 0.0
        for qi in Q:
            inner = 0.0
            for dj in D:
                cos = _loop_dot(qi, dj) / (
                    math.sqrt(_loop_dot(qi, qi)) * math.sqrt(_loop_dot(dj, dj))
                )
                cos = max(-1.0, min(1.0, cos))
                inner += math.exp(-((cos - mu) ** 2) / (2 * sigma * sigma))
            total += math.log(eps + inner)
        feats.append(total)
    return np.array(feats)


def _lane(d, q):
    """One token pair's dot product by the dense score's definition: float64
    products and numpy's pairwise sum of the one row."""
    d, q = np.asarray(d, dtype=np.float64), np.asarray(q, dtype=np.float64)
    return float(np.multiply(d, q).sum())


def _loop_late_interaction(Q, D, similarity="dot"):
    """Nested-loop late interaction: dense dot products, first row wins
    ties, and the exactly rounded sum of the maxima."""
    Q = np.asarray(Q, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if similarity == "cosine":
        Q = Q / np.linalg.norm(Q, axis=1, keepdims=True)
        D = D / np.linalg.norm(D, axis=1, keepdims=True)
    return math.fsum(max(_lane(dj, qi) for dj in D) for qi in Q)


def _near_tie_rows(rng, base, count, dtype):
    """``base`` and ``count`` copies of it, each one ulp of dtype off in one component."""
    rows = np.repeat(base[None, :].astype(dtype), count + 1, axis=0)
    for i in range(1, count + 1):
        j = int(rng.integers(len(base)))
        rows[i, j] = np.nextafter(rows[i, j], dtype(np.inf) if i % 2 else dtype(-np.inf))
    return rows


class TestDenseScore:
    def test_orthogonal(self):
        assert dense_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_arithmetic(self):
        assert dense_score(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 5.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = rng.standard_normal(128)
            d = rng.standard_normal(128)
            assert dense_score(q, d) == pytest.approx(_loop_dot(q, d), rel=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dense_score(np.zeros(3), np.zeros(4))

    def test_cosine_variant(self):
        q = np.array([2.0, 0.0])
        d = np.array([3.0, 3.0])
        assert dense_score(q, d, similarity="cosine") == pytest.approx(1 / np.sqrt(2))
        with pytest.raises(ValueError, match="zero-norm"):
            dense_score(q, np.zeros(2), similarity="cosine")
        with pytest.raises(ValueError, match="similarity"):
            dense_score(q, d, similarity="euclid")


class TestDenseRetrieve:
    def test_k_covers_store(self):
        store = VectorStore(2, {"b": [0.0, 1.0], "a": [1.0, 0.0]})
        results = dense_retrieve(store, np.array([1.0, 1.0]), 10)
        assert [pid for pid, _ in results] == ["a", "b"]  # tie broken by id

    def test_self_vector_first(self):
        rng = np.random.default_rng(2)
        vectors = {f"v{i}": rng.standard_normal(8) for i in range(20)}
        for vid in vectors:
            vectors[vid] = vectors[vid] / np.linalg.norm(vectors[vid])
        store = VectorStore(8, vectors)
        results = dense_retrieve(store, store.vector("v7"), 1)
        assert results[0][0] == "v7"

    def test_matches_argsort_oracle(self):
        rng = np.random.default_rng(3)
        ids = [f"p{i:04d}" for i in range(1000)]
        vectors = {pid: rng.standard_normal(32).astype(np.float32) for pid in ids}
        store = VectorStore(32, vectors)
        for _ in range(5):
            q = rng.standard_normal(32)
            oracle = sorted(
                ((pid, float(np.dot(vectors[pid].astype(np.float64), q))) for pid in ids),
                key=lambda e: (-e[1], e[0]),
            )[:50]
            got = dense_retrieve(store, q, 50)
            assert [p for p, _ in got] == [p for p, _ in oracle]

    def test_ties_straddling_the_kth_position(self):
        # insertion order is not id order; p3, p5 and p8 tie for ranks 3-5
        vectors = {f"p{i}": [float(10 - i), 0.0] for i in range(10)}
        for pid in ("p8", "p5", "p3"):
            vectors[pid] = [7.0, 0.0]
        store = VectorStore(2, dict(reversed(list(vectors.items()))))
        q = np.array([1.0, 0.0])
        oracle = sorted(((p, v[0]) for p, v in vectors.items()), key=lambda e: (-e[1], e[0]))
        for k in range(1, 11):
            assert dense_retrieve(store, q, k) == oracle[:k]

    def test_empty_store(self):
        store = VectorStore(2, {})
        with pytest.raises(ValueError, match="empty"):
            dense_retrieve(store, np.zeros(2), 1)


class TestLateInteraction:
    def test_worked_example(self):
        Q = np.array([[1.0, 0.0], [0.0, 1.0]])
        D = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert late_interaction_score(Q, D) == pytest.approx(1.5, abs=1e-12)

    def test_doc_row_permutation_exact(self):
        rng = np.random.default_rng(4)
        Q = rng.standard_normal((3, 6))
        D = rng.standard_normal((5, 6))
        base = late_interaction_score(Q, D)
        assert late_interaction_score(Q, D[rng.permutation(5)]) == base

    def test_query_row_permutation_exact(self):
        rng = np.random.default_rng(5)
        Q = rng.standard_normal((4, 6))
        D = rng.standard_normal((5, 6))
        base = late_interaction_score(Q, D)
        assert late_interaction_score(Q[rng.permutation(4)], D) == base

    def test_appending_doc_row_never_decreases(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            Q = rng.standard_normal((3, 4))
            D = rng.standard_normal((4, 4))
            extra = rng.standard_normal((1, 4))
            assert late_interaction_score(Q, np.vstack([D, extra])) >= late_interaction_score(Q, D)

    def test_empty_matrices_rejected(self):
        with pytest.raises(ValueError, match="row"):
            late_interaction_score(np.zeros((0, 3)), np.ones((2, 3)))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            late_interaction_score(np.ones((2, 3)), np.ones((2, 4)))

    def test_cosine_variant_is_scale_invariant(self):
        rng = np.random.default_rng(20)
        Q = rng.standard_normal((3, 5))
        D = rng.standard_normal((4, 5))
        base = late_interaction_score(Q, D, similarity="cosine")
        assert late_interaction_score(Q * 7.0, D * 0.2, similarity="cosine") == pytest.approx(
            base, rel=1e-12
        )
        assert base <= 3.0 + 1e-12  # each per-token max is a cosine <= 1


    @pytest.mark.parametrize("similarity", ["dot", "cosine"])
    @pytest.mark.parametrize("dim", [1, 32, 256])
    def test_near_ties_match_nested_loop_oracle(self, dim, similarity):
        rng = np.random.default_rng(dim)
        for dtype in (np.float64, np.float32):
            for _ in range(10):
                base = rng.standard_normal(dim)
                Q = np.vstack([base, rng.standard_normal((2, dim))]).astype(dtype)
                ties = _near_tie_rows(rng, base, 5, dtype)
                D = np.vstack([ties, rng.standard_normal((3, dim)).astype(dtype)])
                D = D[rng.permutation(len(D))]
                want = _loop_late_interaction(Q, D, similarity)
                assert late_interaction_score(Q, D, similarity) == want
        # one float64 ulp apart after the dot product: 1 against 1 + 2**-52
        q = np.ones((1, dim))
        rows = np.zeros((2, dim))
        rows[:, 0] = 1.0
        rows[1, -1] += 2.0**-52
        for D in (rows, rows[::-1]):
            want = _loop_late_interaction(q, D, similarity)
            assert late_interaction_score(q, D, similarity) == want
            if similarity == "dot":
                assert want == 1.0 + 2.0**-52

    @pytest.mark.parametrize("similarity", ["dot", "cosine"])
    def test_scorer_batch_matches_oracle_across_block_boundaries(self, similarity, monkeypatch):
        import clickrank.rankers as rankers

        rng = np.random.default_rng(31)
        dim = 32
        base = rng.standard_normal(dim)
        Q = np.vstack([base, rng.standard_normal((3, dim))]).astype(np.float32)
        mats = {}
        for i in range(10):
            ties = _near_tie_rows(rng, base, int(rng.integers(0, 4)), np.float32)
            extra = rng.standard_normal((int(rng.integers(1, 6)), dim)).astype(np.float32)
            D = np.vstack([ties, extra])
            mats[f"d{i}"] = D[rng.permutation(len(D))]
        q_store = TokenMatrixStore(dim, {"q": Q})
        p_store = TokenMatrixStore(dim, mats)
        pairs = [late_interaction_score(Q, D, similarity) for D in mats.values()]
        assert pairs == [_loop_late_interaction(Q, D, similarity) for D in mats.values()]

        longest = max(len(D) for D in mats.values())
        # three passages per block: blocks of 3, 3, 3 and 1
        monkeypatch.setattr(rankers, "BLOCK_BYTES", 8 * longest * dim * 3)
        blocks = []
        block = rankers._late_interaction_block
        monkeypatch.setattr(
            rankers, "_late_interaction_block", lambda Q, D, lengths: blocks.append(len(lengths)) or block(Q, D, lengths)
        )
        scorer = LateInteractionScorer(q_store, p_store, similarity)
        assert scorer.score_batch("q", p_store.ids).tolist() == pairs
        assert blocks == [3, 3, 3, 1]

    def test_cancelling_rows_match_nested_loop_oracle(self):
        # a float sum of the first row loses ones against 1e16; how many
        # depends on the summation order, which the dense score fixes and
        # a BLAS Q @ D.T does not
        dim = 64
        q = np.ones((1, dim))
        cancel = np.ones(dim)
        cancel[0], cancel[1] = 1e16, -1e16
        assert late_interaction_score(q, cancel[None]) == dense_score(q[0], cancel)
        for rival in (40.0, 50.0, 55.0, 61.0, 63.0):
            D = np.vstack([cancel, np.eye(dim)[2] * rival])
            for rows in (D, D[::-1]):
                assert late_interaction_score(q, rows) == _loop_late_interaction(q, rows)
            assert late_interaction_score(q, D) == max(dense_score(q[0], cancel), rival)

    def test_overflowing_dot_products_keep_their_rows(self):
        # inf products make the bound inf and the screen NaN: every row is kept
        Q = np.array([[1e200, 1.0]])
        D = np.array([[1e200, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert late_interaction_score(Q, D) == _loop_late_interaction(Q, D) == math.inf

    @pytest.mark.parametrize("head", ["late_interaction", "kernel"])
    def test_zero_norm_passage_row_named_within_its_passage(self, head):
        bad, long, short = np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((5, 2)), np.ones((2, 2))
        long[4], short[0] = 0.0, 0.0
        q_store = TokenMatrixStore(2, {"q": np.array([[1.0, 0.0]])})
        p_store = TokenMatrixStore(2, {"ok": np.ones((3, 2)), "bad": bad, "long": long, "short": short})
        scorer = (
            LateInteractionScorer(q_store, p_store, "cosine")
            if head == "late_interaction"
            else KernelScorer(q_store, p_store, KernelBank.default(), KernelWeights(np.ones(11), 0.0))
        )
        # the kernel head gathers the shorter passage first; the error still
        # names the zero row of the first candidate that has one
        for pids, index in ((["ok", "bad"], 1), (["long", "short"], 4), (["short", "long"], 0)):
            with pytest.raises(ValueError, match=f"zero-norm passage token row at index {index}"):
                scorer.score_batch("q", pids)

    def test_sign_of_a_zero_maximum_is_the_first_rows(self):
        # every dot product is a zero; max() over the rows keeps the first
        Q = np.array([[1.0, 1.0], [-1.0, 0.0]])
        D = np.array([[-0.0, -0.0], [0.0, 0.0], [0.0, -0.0]])
        for rows in (D, D[::-1], D[[1, 0, 2]]):
            got = late_interaction_score(Q, rows)
            want = _loop_late_interaction(Q, rows)
            assert got == want == 0.0
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
        q_store = TokenMatrixStore(2, {"q": Q})
        p_store = TokenMatrixStore(2, {"a": D, "b": D[::-1], "c": np.array([[0.0, 1.0]])})
        got = LateInteractionScorer(q_store, p_store).score_batch("q", p_store.ids).tolist()
        want = [_loop_late_interaction(Q, p_store.matrix(p)) for p in p_store.ids]
        assert got == want
        assert [math.copysign(1.0, g) for g in got] == [math.copysign(1.0, w) for w in want]


def _check_late(Q, passages, similarities=("dot", "cosine")):
    """Every passage's late-interaction score, through the public function
    and, for float32 inputs, through a scorer over stores, against the
    nested loop, bit for bit (the sign of a zero too)."""
    Q = np.asarray(Q, dtype=np.float64)
    passages = {p: np.asarray(D, dtype=np.float64) for p, D in passages.items()}
    float32 = all(np.array_equal(M.astype(np.float32), M) for M in (Q, *passages.values()))
    wanted = {}
    for similarity in similarities:
        want = wanted[similarity] = [
            _loop_late_interaction(Q, D, similarity).hex() for D in passages.values()
        ]
        got = [late_interaction_score(Q, D, similarity).hex() for D in passages.values()]
        assert got == want, similarity
        if float32:
            dim = Q.shape[1]
            scorer = LateInteractionScorer(
                TokenMatrixStore(dim, {"q": Q}), TokenMatrixStore(dim, passages), similarity
            )
            got = [x.hex() for x in scorer.score_batch("q", list(passages)).tolist()]
            assert got == want, similarity
    return wanted


class TestLateInteractionScreen:
    """Cases built against the float32 screen: each one's float32 dot
    products order some rows unlike their exact values."""

    def test_rows_one_float32_ulp_apart(self):
        # exact dot products 8 x, one float32 step of x apart; rows shuffled
        dim = 8
        rng = np.random.default_rng(40)
        steps = rng.permutation(64)
        D = np.vstack([np.full(dim, 1.0 + j * 2.0**-23, dtype=np.float32) for j in steps])
        Q = np.vstack([np.ones(dim), np.full(dim, -1.0), np.eye(dim)[3]])
        want = _check_late(Q, {"all": D, "half": D[:32], "one": D[:1]})
        top = 1.0 + 63 * 2.0**-23
        assert want["dot"][0] == math.fsum([8 * top, -8.0, top]).hex()

    def test_float32_products_that_overflow(self):
        # every row's float64 products are finite; the float32 ones overflow:
        # "nan" to inf - inf, "big" to inf
        q = [[1e20, 1e20, 1.0], [0.0, 0.0, -1.0]]
        nan, big, five = [1e20, -1e20, 0.0], [1e19, 1e19, 0.0], [0.0, 0.0, 5.0]
        passages = {
            "nan-five": [nan, five],
            "five-nan": [five, nan],
            "big-five": [five, big],
            "nan-big-five": [nan, big, five],
            "nan": [nan],
        }
        want = _check_late(q, passages)
        assert [float.fromhex(x) for x in want["dot"]] == [5.0, 5.0, 2e39 + 0.0, 2e39 + 0.0, 0.0]

    def test_components_below_float32_smallest_normal(self):
        # a's float32 products, 0.49 of the smallest subnormal, round to 0,
        # and b's (0.6 of it) to the subnormal: in float32 b outscores a
        t = 2.0**-89
        a, b = [0.49 * t, 0.49 * t], [0.6 * t, 0.0]
        q = [[2.0**-60, 2.0**-60]]
        for rows in ([a, b], [b, a], [b, a, [1e-45, 1e-45], [-1e-45, 3e-39]]):
            _check_late(q, {"p": rows})
        assert late_interaction_score(q, [b, a]) == _loop_late_interaction(q, [a])
        # float64 components below float32's smallest subnormal round to 0
        # (a's) or up to it (b's)
        a, b = [0.49 * 2.0**-149, 0.49 * 2.0**-149], [0.76 * 2.0**-149, 0.0]
        for rows in ([a, b], [b, a]):
            _check_late([[1.0, 1.0]], {"p": rows})
        assert late_interaction_score([[1.0, 1.0]], [b, a]) == 0.98 * 2.0**-149

    @pytest.mark.parametrize("similarity", ["dot", "cosine"])
    def test_float32_error_that_grows_with_dim(self, similarity):
        dim = 1024
        # equal components, consecutive float32 values: the exact dot products
        # are 1024 x, one float32 step of x apart, while a float32 sum of 1024
        # terms can be off by many steps
        rng = np.random.default_rng(41)
        steps = rng.permutation(200)
        D = np.vstack([np.full(dim, 1.0 + j * 2.0**-23, dtype=np.float32) for j in steps])
        passages = {"all": D, "top": D[steps >= 150], "low": D[steps < 60]}
        # a row whose float32 products below half an ulp of 1 are lost beside
        # the 1, against single-component rows just under its exact value
        d = np.full(dim, np.float32(2.0**-12 * 0.95))
        d[0] = 1.0
        exact = math.fsum((d.astype(np.float64) ** 2).tolist())
        below = [1.0 + m * 2.0**-23 for m in range(1, int((exact - 1.0) * 2.0**23) + 1)]
        for m, value in enumerate(below[-120:]):
            passages[f"b{m}"] = np.vstack([np.eye(dim)[0] * value, d])
        _check_late(np.vstack([np.ones(dim), d]), passages, (similarity,))

    @pytest.mark.parametrize("similarity", ["dot", "cosine"])
    def test_float64_inputs_not_float32_representable(self, similarity):
        # q[1] rounds to 1.0 in float32; there b's float32 dot product
        # 7 + 5 * 2^-24 rounds up to 7 + 2^-21, above a's 7, while exactly a
        # is first
        q = [[1.0, 1.0 + 2.0**-24 - 2.0**-40]]
        a, b, c = [0.0, 7.0], [7.0, 5 * 2.0**-24], [6.0, 0.0]
        passages = {"ab": [a, b], "ba": [b, a], "cba": [c, b, a]}
        want = _check_late(q, passages, (similarity,))
        if similarity == "dot":
            assert want["dot"][1] == _loop_late_interaction(q, [a]).hex()
        # float64 rows one float64 ulp apart, equal in float32
        rng = np.random.default_rng(42)
        base = rng.standard_normal(16)
        rows = np.vstack([base + j * np.spacing(base) for j in range(6)])
        _check_late(np.vstack([base, -base]), {"p": rows[rng.permutation(6)]}, (similarity,))


class TestKernelBank:
    def test_default_bank_shape(self):
        bank = KernelBank.default()
        assert len(bank) == 11
        assert bank.mus == (1.0, 0.9, 0.7, 0.5, 0.3, 0.1, -0.1, -0.3, -0.5, -0.7, -0.9)
        assert bank.sigmas[0] == 0.001
        assert all(s == 0.1 for s in bank.sigmas[1:])

    def test_validation(self):
        with pytest.raises(ValueError, match="descending"):
            KernelBank((0.5, 0.9), (0.1, 0.1))
        for width in (0.0, -0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                KernelBank((0.9, 0.5), (0.1, width))
        with pytest.raises(ValueError, match="length"):
            KernelBank((0.9,), (0.1, 0.1))


class TestKernelFeatures:
    def test_exact_match_kernel(self):
        v = np.array([[0.0, 1.0]])
        bank = KernelBank((1.0,), (0.001,))
        feats = kernel_features(v, v, bank)
        assert feats[0] == pytest.approx(math.log(1e-10 + 1.0), abs=1e-15)

    def test_kernel_terms_bounded(self):
        # every Gaussian response lies in (0, 1]; with one query row the
        # feature is at most log(eps + n_docs)
        rng = np.random.default_rng(7)
        bank = KernelBank.default()
        for _ in range(20):
            Q = rng.standard_normal((1, 5))
            D = rng.standard_normal((6, 5))
            feats = kernel_features(Q, D, bank)
            assert np.all(feats <= math.log(1e-10 + 6.0) + 1e-12)
            assert np.all(np.isfinite(feats))

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(8)
        bank = KernelBank.default()
        for _ in range(25):
            Q = rng.standard_normal((3, 4))
            D = rng.standard_normal((4, 4))
            got = kernel_features(Q, D, bank)
            expected = _loop_kernel_features(Q, D, bank)
            np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-9)

    def test_zero_norm_row_named(self):
        Q = np.array([[1.0, 0.0], [0.0, 0.0]])
        D = np.array([[1.0, 1.0]])
        with pytest.raises(ValueError, match="query token row at index 1"):
            kernel_features(Q, D, KernelBank.default())

    def test_raw_dot_match_matrix_selectable(self):
        # with raw dot products the zero-norm row is legal and scaling matters
        Q = np.array([[2.0, 0.0], [0.0, 0.0]])
        D = np.array([[2.0, 0.0]])
        bank = KernelBank((1.0,), (0.5,))
        feats = kernel_features(Q, D, bank, similarity="dot")
        import math

        expected = math.log(1e-10 + math.exp(-((4.0 - 1.0) ** 2) / 0.5)) + math.log(
            1e-10 + math.exp(-1.0 / 0.5)
        )
        assert feats[0] == pytest.approx(expected, rel=1e-9)


class TestKernelScore:
    def test_zero_weights_give_bias(self):
        weights = KernelWeights(np.zeros(3), bias=0.7)
        assert kernel_score(np.array([1.0, 2.0, 3.0]), weights) == pytest.approx(0.7)

    def test_one_hot_selects_feature(self):
        weights = KernelWeights(np.array([0.0, 1.0, 0.0]), bias=0.0)
        assert kernel_score(np.array([5.0, -2.5, 7.0]), weights) == pytest.approx(-2.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            feats = rng.standard_normal(11)
            w = rng.standard_normal(11)
            b = float(rng.standard_normal())
            expected = _loop_dot(w, feats) + b
            assert kernel_score(feats, KernelWeights(w, b)) == pytest.approx(expected, rel=1e-6)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            kernel_score(np.zeros(3), KernelWeights(np.zeros(4), 0.0))


class TestHingeTraining:
    def test_satisfied_margins_leave_weights_unchanged(self):
        # the start that seed 10 draws, since no epoch moves it
        w0, _, _ = fit_hinge(np.zeros((1, 4)), np.ones((1, 4)), epochs=0, seed=10)
        # score differences all equal margin + 1 along w0
        diffs = np.outer(np.full(10, 2.0 / np.dot(w0, w0)), w0)
        pos = np.random.default_rng(10).standard_normal((10, 4))
        neg = pos - diffs
        w, bias, telemetry = fit_hinge(pos, neg, lr=0.5, epochs=50, margin=1.0, seed=10)
        np.testing.assert_array_equal(w, w0)
        assert bias == 0.0
        assert telemetry.loss_curve == [0.0] * 50
        assert telemetry.pairwise_accuracy == 1.0

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        pos = rng.standard_normal((20, 7))
        neg = rng.standard_normal((20, 7))
        w = rng.standard_normal(7)
        bias = float(rng.standard_normal())
        h = 1e-4
        loss, grad_w, grad_b = hinge_loss_and_grad(w, bias, pos, neg, margin=1.0)
        for i in range(7):
            bump = np.zeros(7)
            bump[i] = h
            up, _, _ = hinge_loss_and_grad(w + bump, bias, pos, neg, margin=1.0)
            down, _, _ = hinge_loss_and_grad(w - bump, bias, pos, neg, margin=1.0)
            numeric = (up - down) / (2 * h)
            assert abs(grad_w[i] - numeric) <= 1e-4
        up, _, _ = hinge_loss_and_grad(w, bias + h, pos, neg, margin=1.0)
        down, _, _ = hinge_loss_and_grad(w, bias - h, pos, neg, margin=1.0)
        assert abs(grad_b - (up - down) / (2 * h)) <= 1e-4

    def test_separable_features_reach_full_accuracy(self):
        rng = np.random.default_rng(12)
        direction = rng.standard_normal(6)
        direction /= np.linalg.norm(direction)
        base = rng.standard_normal((40, 6))
        # positive side sits one unit further along the separating direction
        noise = rng.standard_normal((40, 6)) * 0.05
        pos = base + np.outer(np.ones(40), direction) + noise
        neg = base
        w, bias, telemetry = fit_hinge(pos, neg, lr=0.2, epochs=200, margin=1.0, seed=0)
        assert telemetry.pairwise_accuracy == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        pos = rng.standard_normal((15, 5))
        neg = rng.standard_normal((15, 5))
        w1, b1, t1 = fit_hinge(pos, neg, lr=0.1, epochs=30, seed=21)
        w2, b2, t2 = fit_hinge(pos, neg, lr=0.1, epochs=30, seed=21)
        np.testing.assert_array_equal(w1, w2)
        assert t1.loss_curve == t2.loss_curve

    @pytest.mark.parametrize(
        "hyper, message",
        [
            ({"epochs": -3}, "epochs must be >= 0, got -3"),
            ({"lr": 0.0}, "lr must be finite and above 0, got 0.0"),
            ({"lr": -0.1}, "lr must be finite and above 0, got -0.1"),
            ({"lr": math.nan}, "lr must be finite and above 0, got nan"),
            ({"lr": math.inf}, "lr must be finite and above 0, got inf"),
            ({"margin": math.nan}, "margin must be finite, got nan"),
            ({"margin": -math.inf}, "margin must be finite, got -inf"),
            ({"seed": -3}, "seed must be >= 0, got -3"),
        ],
    )
    def test_nonsense_hyperparameters_rejected(self, hyper, message):
        pos, neg = np.ones((2, 3)), np.zeros((2, 3))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_hinge(pos, neg, **hyper)


class TestTrainKernelWeights:
    def _stores(self):
        rng = np.random.default_rng(14)
        terms = {t: rng.standard_normal(6) for t in "abcdefgh"}
        q_mats = {f"q{i}": np.stack([terms[t] for t in ("a", "b")]) for i in range(3)}
        p_mats = {}
        for i in range(3):
            p_mats[f"pos{i}"] = np.stack([terms["a"], terms["b"], terms["c"]])
            p_mats[f"neg{i}"] = np.stack([terms["g"], terms["h"]])
        return (
            TokenMatrixStore(6, q_mats),
            TokenMatrixStore(6, p_mats),
        )

    def test_training_runs_and_is_deterministic(self):
        q_store, p_store = self._stores()
        triples = [TrainingTriple(f"q{i}", f"pos{i}", f"neg{i}") for i in range(3)]
        bank = KernelBank.default()
        out1 = train_kernel_weights(triples, q_store, p_store, bank, lr=0.05, epochs=50, seed=1)
        out2 = train_kernel_weights(triples, q_store, p_store, bank, lr=0.05, epochs=50, seed=1)
        np.testing.assert_array_equal(out1[0].w, out2[0].w)
        assert out1[1].resolved_triples == 3

    def test_missing_matrices_skipped_and_counted(self):
        q_store, p_store = self._stores()
        triples = [
            TrainingTriple("q0", "pos0", "neg0"),
            TrainingTriple("q9", "pos0", "neg0"),  # unknown query
        ]
        weights, telemetry = train_kernel_weights(
            triples, q_store, p_store, KernelBank.default(), epochs=5
        )
        assert telemetry.resolved_triples == 1
        assert telemetry.skipped_triples == 1

    def test_negative_seed_rejected_before_any_feature(self, monkeypatch):
        q_store, p_store = self._stores()

        def no_features(*args):
            raise AssertionError("features computed for a rejected seed")

        monkeypatch.setattr(rankers, "_kernel_feature_rows", no_features)
        triples = [TrainingTriple("q0", "pos0", "neg0")]
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -3$"):
            train_kernel_weights(triples, q_store, p_store, KernelBank.default(), seed=-3)

    def test_nothing_resolvable_is_an_error(self):
        q_store, p_store = self._stores()
        with pytest.raises(ValueError, match="resolvable"):
            train_kernel_weights(
                [TrainingTriple("zz", "pos0", "neg0")], q_store, p_store, KernelBank.default()
            )


class TestWeightsFile:
    def test_roundtrip(self, tmp_path):
        bank = KernelBank.default()
        rng = np.random.default_rng(15)
        weights = KernelWeights(rng.standard_normal(len(bank)), float(rng.standard_normal()))
        path = tmp_path / "weights.txt"
        write_weights(bank, weights, path)
        bank2, weights2 = load_weights(path)
        assert bank2 == bank
        np.testing.assert_array_equal(weights2.w, weights.w)
        assert weights2.bias == weights.bias

    def test_missing_bias_line(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("1.0 0.001 0.5\n")
        with pytest.raises(ValueError, match="bias"):
            load_weights(path)


class TestRerank:
    def _first_stage(self, n_queries=3, n_docs=30):
        rng = np.random.default_rng(16)
        run = RankedRun(name="first", stage="first-stage")
        for q in range(n_queries):
            entries = [(f"p{i:03d}", float(rng.random())) for i in range(n_docs)]
            run.add(f"q{q}", entries)
        return run

    def test_depth_truncation(self):
        run = self._first_stage(n_docs=30)
        scorer = ExternalScoreScorer({(q, p): s for q, e in run.results.items() for p, s in e})
        out = rerank(run, 10, scorer)
        assert all(len(entries) == 10 for entries in out.results.values())

    def test_constant_scorer_falls_back_to_id_order(self):
        run = self._first_stage()

        class Constant:
            name = "const"

            def score_batch(self, qid, pids):
                return [0.5] * len(pids)

        out = rerank(run, 30, Constant())
        for qid, entries in out.results.items():
            assert [p for p, _ in entries] == sorted(p for p, _ in run[qid])

    def test_original_scores_are_idempotent(self):
        run = self._first_stage()
        scorer = ExternalScoreScorer({(q, p): s for q, e in run.results.items() for p, s in e})
        out = rerank(run, 10, scorer)
        assert out.results == {qid: entries[:10] for qid, entries in run.results.items()}

    def test_never_introduces_new_passages(self, small_fixture, small_qrels):
        from clickrank.bm25 import batch_search, build_index

        index = build_index(small_fixture.store)
        run = batch_search(index, small_fixture.queries, 100)
        scorer = DenseScorer(small_fixture.query_vectors, small_fixture.passage_vectors)
        out = rerank(run, 50, scorer)
        for qid, entries in out.results.items():
            first_stage_ids = set(p for p, _ in run[qid])
            assert set(p for p, _ in entries) <= first_stage_ids

    def test_missing_embedding_error_and_skip(self):
        run = RankedRun(name="r", results={"q1": [("a", 1.0), ("b", 0.5)]})
        q_vecs = VectorStore(2, {"q1": [1.0, 0.0]})
        p_vecs = VectorStore(2, {"a": [1.0, 0.0]})  # "b" missing
        scorer = DenseScorer(q_vecs, p_vecs)
        with pytest.raises(MissingEmbeddingError, match="b"):
            rerank(run, 2, scorer, on_missing="error")
        out = rerank(run, 2, scorer, on_missing="skip")
        assert [p for p, _ in out["q1"]] == ["a"]
        # an unknown query id makes every candidate of that query unscorable
        run = RankedRun(name="r", results={"q1": [("a", 1.0)], "q9": [("a", 1.0), ("b", 0.5)]})
        with pytest.raises(MissingEmbeddingError, match="q9"):
            rerank(run, 2, scorer, on_missing="error")
        out = rerank(run, 2, scorer, on_missing="skip")
        assert out["q9"] == [] and [p for p, _ in out["q1"]] == ["a"]

    @pytest.mark.parametrize("head", ["dense", "late_interaction", "kernel"])
    def test_missing_ids_named_and_each_candidate_looked_up_once(self, head):
        class Counting(dict):
            lookups = 0

            def __getitem__(self, key):
                Counting.lookups += 1
                return super().__getitem__(key)

            def __contains__(self, key):
                Counting.lookups += 1
                return super().__contains__(key)

        store = VectorStore if head == "dense" else TokenMatrixStore
        rows = (lambda v: v) if head == "dense" else (lambda v: [v])
        queries = store(2, {"q": rows([1.0, 0.5])})
        passages = store(2, {p: rows([1.0, i]) for i, p in enumerate("abcde")})
        scorer = {
            "dense": lambda: DenseScorer(queries, passages),
            "late_interaction": lambda: LateInteractionScorer(queries, passages),
            "kernel": lambda: KernelScorer(
                queries, passages, KernelBank.default(), KernelWeights(np.ones(11), 0.0)
            ),
        }[head]()
        what = "vector" if head == "dense" else "token matrix"
        passages._entries = Counting(passages._entries)
        scorer.score_batch("q", list("edcba"))
        assert Counting.lookups == 5
        with pytest.raises(MissingEmbeddingError) as exc:
            scorer.score_batch("q", ["a", "x", "b", "y"])
        assert str(exc.value) == f"no passage {what} for 'x'"
        assert exc.value.passage_ids == ("x", "y")
        with pytest.raises(MissingEmbeddingError) as exc:
            scorer.score_batch("q9", ["a", "x"])
        assert str(exc.value) == f"no query {what} for 'q9'"
        assert exc.value.passage_ids == ("a", "x")

    def test_depth_validation(self):
        run = self._first_stage()
        scorer = ExternalScoreScorer({(q, p): s for q, e in run.results.items() for p, s in e})
        with pytest.raises(ValueError, match="depth"):
            rerank(run, 0, scorer)


class TestScoreBatch:
    """score_batch against the per-pair path, and independence of a pair's
    score from the other candidates of the batch."""

    @pytest.fixture(scope="class")
    def heads(self, small_fixture, small_qrels):
        fx = small_fixture
        rng = np.random.default_rng(21)
        bank = KernelBank.default()
        weights = KernelWeights(rng.standard_normal(len(bank)), 0.2)
        scores = {
            (qid, pid): float(rng.standard_normal())
            for qid in fx.query_matrices.ids
            for pid in fx.passage_matrices.ids
        }
        scorers = [ExternalScoreScorer(scores), GradeOracleScorer(small_qrels)]
        for similarity in ("dot", "cosine"):
            scorers += [
                DenseScorer(fx.query_vectors, fx.passage_vectors, similarity),
                LateInteractionScorer(fx.query_matrices, fx.passage_matrices, similarity),
                KernelScorer(fx.query_matrices, fx.passage_matrices, bank, weights, similarity),
            ]
        return scorers

    def test_batch_equals_per_pair_bitwise(self, heads, small_fixture):
        rng = np.random.default_rng(22)
        pids = small_fixture.passage_matrices.ids
        for scorer in heads:
            for qid in sorted(small_fixture.query_matrices.ids)[:4]:
                batch = [str(p) for p in rng.choice(pids, 60, replace=False)]
                got = scorer.score_batch(qid, batch)
                assert got.dtype == np.float64
                assert got.tolist() == [scorer.score(qid, pid) for pid in batch], scorer.name

    def test_pair_score_independent_of_other_candidates(self, heads, small_fixture):
        rng = np.random.default_rng(23)
        pids = small_fixture.passage_matrices.ids
        for scorer in heads:
            qid = sorted(small_fixture.query_matrices.ids)[5]
            batch = [str(p) for p in rng.choice(pids, 80, replace=False)]
            base = dict(zip(batch, scorer.score_batch(qid, batch).tolist()))
            shuffled = [batch[i] for i in rng.permutation(len(batch))]
            subset = shuffled[: len(batch) // 3]
            extended = subset + [p for p in pids if p not in base][:40]
            for variant in (shuffled, subset, extended):
                got = dict(zip(variant, scorer.score_batch(qid, variant).tolist()))
                assert all(got[p] == base[p] for p in variant if p in base), scorer.name

    def test_blocks_do_not_change_scores(self, heads, small_fixture, monkeypatch):
        import clickrank.rankers as rankers

        qid = small_fixture.query_matrices.ids[3]
        batch = small_fixture.passage_matrices.ids[:50]
        whole = [scorer.score_batch(qid, batch).tolist() for scorer in heads]
        monkeypatch.setattr(rankers, "BLOCK_BYTES", 1)  # one passage per block
        assert [scorer.score_batch(qid, batch).tolist() for scorer in heads] == whole

    def test_empty_batch(self, heads, small_fixture):
        qid = small_fixture.query_matrices.ids[0]
        for scorer in heads:
            assert scorer.score_batch(qid, []).shape == (0,)

    def test_late_interaction_near_ties_exact(self):
        # the rows' dot products with q differ by one ulp
        q = np.array([[1.0, 1.0]], dtype=np.float32)
        rows = np.array([[1.0, 0.0], [1.0, 2.0**-52]], dtype=np.float32)
        assert late_interaction_score(q, rows) == 1.0 + 2.0**-52
        assert late_interaction_score(q, rows[::-1]) == 1.0 + 2.0**-52
        # the dense score of the first row reads 0.0 (1e16 + 1 rounds to
        # 1e16) and ranks it below the second, though its exact sum is 1.0
        q = np.array([[1.0, 1.0, 1.0]])
        rows = np.array([[1e16, 1.0, -1e16], [0.5, 0.0, 0.0]])
        assert late_interaction_score(q, rows) == max(dense_score(q[0], r) for r in rows)
        # the same through a scorer batch, beside other candidates
        q_store = TokenMatrixStore(2, {"q": np.array([[1.0, 1.0], [0.5, -0.25]])})
        p_store = TokenMatrixStore(
            2,
            {
                "tie": np.array([[1.0, 0.0], [1.0, 2.0**-52], [0.0, 1.0]]),
                "low": np.array([[0.25, 0.25]]),
                "flip": np.array([[1.0, 2.0**-52], [1.0, 0.0]]),
            },
        )
        scorer = LateInteractionScorer(q_store, p_store)
        got = scorer.score_batch("q", ["tie", "low", "flip"]).tolist()
        oracle = [
            math.fsum(max(_lane(dj, qi) for dj in p_store.matrix(p)) for qi in q_store.matrix("q"))
            for p in ("tie", "low", "flip")
        ]
        assert got == oracle
        assert got[0] == got[2]

    def test_late_interaction_matches_loop_oracle_on_ties(self):
        # small integer entries make many token rows tie exactly
        rng = np.random.default_rng(24)
        for _ in range(30):
            Q = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), 4)).astype(np.float64)
            Ds = [
                rng.integers(-2, 3, size=(int(rng.integers(1, 6)), 4)).astype(np.float64)
                for _ in range(6)
            ]
            q_store = TokenMatrixStore(4, {"q": Q})
            p_store = TokenMatrixStore(4, {f"d{i}": D for i, D in enumerate(Ds)})
            got = LateInteractionScorer(q_store, p_store).score_batch("q", p_store.ids)
            oracle = [
                math.fsum(max(_lane(dj, qi) for dj in D) for qi in Q) for D in Ds
            ]
            assert got.tolist() == oracle


    def test_late_interaction_float32_stores_with_repeated_rows(self):
        # as in synth, every term has one float32 embedding, so a passage
        # that repeats a term holds identical rows: all of them pass the
        # screen, and sums of float32 products often fall exactly halfway
        # between two floats
        rng = np.random.default_rng(31)
        for dim in (1, 3, 8, 32):
            terms = rng.standard_normal((12, dim)).astype(np.float32)
            draw = lambda most: terms[rng.integers(0, 12, int(rng.integers(1, most)))]
            q_store = TokenMatrixStore(dim, {f"q{i}": draw(5) for i in range(4)})
            p_store = TokenMatrixStore(dim, {f"p{i}": np.vstack([draw(6)] * 2) for i in range(30)})
            for similarity in ("dot", "cosine"):
                scorer = LateInteractionScorer(q_store, p_store, similarity)
                for qid in q_store.ids:
                    got = scorer.score_batch(qid, p_store.ids).tolist()
                    want = [
                        _loop_late_interaction(q_store.matrix(qid), p_store.matrix(p), similarity)
                        for p in p_store.ids
                    ]
                    assert [x.hex() for x in got] == [x.hex() for x in want]


class TestScorers:
    def test_late_interaction_scorer(self):
        q_store = TokenMatrixStore(2, {"q1": np.array([[1.0, 0.0], [0.0, 1.0]])})
        p_store = TokenMatrixStore(2, {"d1": np.array([[1.0, 0.0], [0.5, 0.5]])})
        scorer = LateInteractionScorer(q_store, p_store)
        assert scorer.score("q1", "d1") == pytest.approx(1.5)
        with pytest.raises(MissingEmbeddingError):
            scorer.score("q1", "nope")

    def test_kernel_scorer_matches_direct_path(self):
        rng = np.random.default_rng(17)
        bank = KernelBank.default()
        weights = KernelWeights(rng.standard_normal(len(bank)), 0.1)
        Q = rng.standard_normal((2, 4))
        D = rng.standard_normal((3, 4))
        scorer = KernelScorer(
            TokenMatrixStore(4, {"q": Q}), TokenMatrixStore(4, {"d": D}), bank, weights
        )
        assert scorer.score("q", "d") == pytest.approx(
            kernel_score(kernel_features(Q, D, bank), weights)
        )

    @pytest.mark.parametrize("count", [0, 1, 400])
    def test_kernel_scorer_linear_layer_is_kernel_score_bit_for_bit(self, count):
        rng = np.random.default_rng(19)
        bank = KernelBank.default()
        # weights of mixed magnitudes, so that the summation order shows
        scales = 10.0 ** rng.integers(-8, 9, len(bank))
        weights = KernelWeights(rng.standard_normal(len(bank)) * scales, 0.3)
        passages = {f"p{i}": rng.standard_normal((int(rng.integers(1, 40)), 6)) for i in range(count)}
        queries = TokenMatrixStore(6, {"q": rng.standard_normal((4, 6))})
        store = TokenMatrixStore(6, passages)
        pids = list(passages)
        Q = _gather(queries.tokens, queries.row_norms, *queries.spans(["q"]), "query", cosine=True)
        rows = _kernel_feature_rows(Q, store.tokens, store.row_norms, *store.spans(pids), bank)
        got = KernelScorer(queries, store, bank, weights).score_batch("q", pids)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert [s.hex() for s in got.tolist()] == [kernel_score(r, weights).hex() for r in rows]

    def test_kernel_rows_gathered_by_token_count_ties_in_candidate_order(self, monkeypatch):
        # a stable sort: the gather order, and so the chunks, follow from the
        # candidate list alone, whatever sort numpy picks for the platform
        rng = np.random.default_rng(23)
        lengths = rng.integers(1, 4, 300)
        passages = {f"p{i}": rng.standard_normal((n, 3)) for i, n in enumerate(lengths)}
        store = TokenMatrixStore(3, passages)
        queries = TokenMatrixStore(3, {"q": rng.standard_normal((2, 3))})
        pids = [f"p{i}" for i in rng.permutation(len(lengths))]
        gathered = []
        real = rankers._gather

        def spy(tokens, norms, starts, counts, name, cosine):
            gathered.append((name, starts.tolist()))
            return real(tokens, norms, starts, counts, name, cosine)

        monkeypatch.setattr(rankers, "_gather", spy)
        scorer = KernelScorer(queries, store, KernelBank.default(), KernelWeights(np.ones(11), 0.0))
        scorer.score_batch("q", pids)
        starts, counts = store.spans(pids)
        assert gathered[-1] == ("passage", starts[np.argsort(counts, kind="stable")].tolist())

    def test_external_scorer_file_roundtrip(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("q1\tp1\t0.75\nq1\tp2\t-1.5\n")
        scorer = ExternalScoreScorer.from_file(path)
        assert scorer.score("q1", "p1") == 0.75
        assert scorer.score("q1", "p2") == -1.5
        with pytest.raises(MissingEmbeddingError):
            scorer.score("q2", "p1")

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1e999", "x"])
    def test_external_scorer_rejects_a_bad_score(self, tmp_path, score):
        path = tmp_path / "scores.tsv"
        path.write_text(f"q1\tp1\t0.75\nq1\tp2\t{score}\n")
        with pytest.raises(ValueError) as exc:
            ExternalScoreScorer.from_file(path)
        assert str(exc.value) == f"{path}: line 2: bad score {score!r}"

    def test_grade_oracle_scorer(self, small_qrels):
        scorer = GradeOracleScorer(small_qrels)
        qid = small_qrels.query_ids[0]
        pid = next(iter(small_qrels.relevant_pool(qid)))
        assert scorer.score(qid, pid) >= 1.0
        assert scorer.score(qid, "unseen-passage") == 0.0
