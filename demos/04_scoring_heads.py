"""The three scoring heads over ingested embeddings.

Dense: one vector each side, one dot product, usable for full-collection
retrieval. Late interaction: per-token vectors, max dot per query token,
summed. Kernel pooling: soft-count the cosine match matrix with Gaussian
kernels and combine the counts with a small trained linear layer.

Run with: python3 demos/04_scoring_heads.py
"""

import numpy as np

from clickrank.embeddings import TokenMatrixStore, VectorStore
from clickrank.rankers import (
    KernelBank,
    dense_retrieve,
    dense_score,
    fit_hinge,
    kernel_features,
    kernel_score,
    KernelWeights,
    late_interaction_score,
)

rng = np.random.default_rng(1)

# --- dense -----------------------------------------------------------------
q = np.array([0.8, 0.1, 0.0, 0.6])
print("dense score:", round(dense_score(q, np.array([1.0, 0.0, 0.0, 0.5])), 3))

store = VectorStore(4, {f"p{i}": rng.standard_normal(4) for i in range(50)})
top = dense_retrieve(store, q, k=3)
print("dense top-3 over 50 vectors:", [(pid, round(s, 3)) for pid, s in top])

# --- late interaction --------------------------------------------------------
Q = np.array([[1.0, 0.0], [0.0, 1.0]])          # two query tokens
D = np.array([[1.0, 0.0], [0.5, 0.5]])          # two passage tokens
print("\nlate-interaction score:", late_interaction_score(Q, D))
# row order never matters, and adding passage tokens can only help
print("permuted D, same score:", late_interaction_score(Q, D[::-1]))

# --- kernel pooling ----------------------------------------------------------
bank = KernelBank.default()
print(f"\nkernel bank: {len(bank)} kernels, centers {bank.mus}")
feats = kernel_features(Q, D, bank)
print("features (soft match counts per center):", np.round(feats, 2))
weights = KernelWeights(np.linspace(1.0, 0.0, len(bank)), bias=0.0)
print("linear score over features:", round(kernel_score(feats, weights), 3))

# --- training the kernel head -------------------------------------------------
# The layer is trained on triples with a pairwise hinge: push the positive's
# score at least `margin` above the negative's. Telemetry exposes the
# fraction of triples already ordered correctly; a low number is the
# classic symptom of poisoned negatives.
direction = rng.standard_normal(len(bank))
direction /= np.linalg.norm(direction)
base = rng.standard_normal((200, len(bank)))
pos_features = base + direction          # separable by construction
neg_features = base
w, bias, telemetry = fit_hinge(pos_features, neg_features, lr=0.2, epochs=150, seed=0)
print("\ntrained pairwise accuracy:", telemetry.pairwise_accuracy)
print("mean margin:", round(telemetry.mean_margin, 3))
print("loss start -> end:", round(telemetry.loss_curve[0], 4), "->", round(telemetry.loss_curve[-1], 4))

# Token-matrix stores used by the real trainer are plain id -> matrix maps:
matrices = TokenMatrixStore(2, {"q1": Q, "d1": D})
print("\nstored token counts:", {i: matrices.matrix(i).shape[0] for i in matrices.ids})
