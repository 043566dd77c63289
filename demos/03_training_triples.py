"""Negative sampling for training triples, and why the policy matters.

A training triple is (query, relevant passage, sampled non-relevant
passage). The crucial rule: a negative may never be drawn from the query's
relevant pool, at any grade. Click data is full of relevant-but-unclicked
passages; sampling them as negatives teaches a model that relevant looks
wrong, which shows up later as re-rankers that get worse the deeper you
let them re-rank.

Run with: python3 demos/03_training_triples.py
"""

import numpy as np

from clickrank.bm25 import build_index
from clickrank.corpus import build_qrels_from_clicks
from clickrank.synth import FixtureSpec, generate_fixture
from clickrank.triples import SamplingConfig, generate_triples, sample_negatives

# A seeded synthetic corpus with known relevance plantings.
fixture = generate_fixture(FixtureSpec(n_passages=400, n_queries=40, seed=3))
qrels = build_qrels_from_clicks(fixture.clicks, "dctr", (0.1, 0.3))
index = build_index(fixture.store)

# The sampling primitive: uniform, without replacement, relevant pool
# excluded, candidate ranks discarded.
rng = np.random.default_rng(0)
candidates = [f"c{i}" for i in range(10)]
print("sampled:", sample_negatives(candidates, relevant_pool={"c0", "c1"}, max_n=4, rng=rng))

# Full generation: per-query candidate pools from the first stage, up to
# max_negatives per (query, positive), global shuffle, cap.
config = SamplingConfig(candidate_depth=200, max_negatives_per_positive=10, seed=42)
report = generate_triples(fixture.queries, qrels, index, config)
print(f"\ngenerated {len(report.triples)} triples from {report.queries_processed} queries")
print("first three:", report.triples[:3])

# Policy check: no negative carries a positive grade for its query.
violations = sum(
    1 for t in report.triples if t.negative_id in qrels.relevant_pool(t.query_id)
)
print("relevant-pool violations:", violations)

# Determinism: the same seed reproduces the same triples, in the same order,
# regardless of where or when generation runs (per-query RNG streams).
again = generate_triples(fixture.queries, qrels, index, config)
print("same seed reproduces byte-identical output:", report.triples == again.triples)

# The legacy switch reproduces the known-bad alternative for A/B diagnosis:
# it cuts the pool at the positive's rank, so negatives come only from
# candidates the first stage ranked above the positive. It still masks the
# relevant pool; its hazard is relevant passages that nobody clicked and
# that rank above the positive, which carry no grade, so the mask cannot
# remove them. Don't train on it; measure what it does to your model.
legacy = generate_triples(
    fixture.queries, qrels, index,
    SamplingConfig(candidate_depth=200, max_negatives_per_positive=10, seed=42, legacy_mode=True),
)
print(f"legacy mode yields {len(legacy.triples)} triples (often far fewer, and biased)")
