"""Workload shapes and the helpers every benchmark process shares.

Each workload runs the whole clickrank loop; the shapes differ in where the
work goes (see LAYERS.md for why each was chosen):

* ``lexical``: the largest collection and every query searched at k=1000,
  with triples at depth 500. BM25 posting traversal and sorting dominate;
  the embedding heads only score a few queries at shallow depth.
* ``neural``: a smaller collection whose first-stage run and training
  triples are made in set-up; dense retrieval for every query and three
  heads plus a depth sweep over the same top-200 candidates of a query
  subset. The scoring heads dominate; the timed BM25 calls only touch a
  small probe index.
* ``cli-artifacts``: a collection as large as ``neural``'s but a handful of
  queries, run as one fresh ``clickrank`` process per command. Interpreter
  start, artifact load/save and manifest digests dominate.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# one BLAS thread: every workload runs single-process, single-threaded
BLAS_THREADS = 1
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}

# every query has exactly one relevant passage, so the triple count (20 per
# query) does not depend on the seed; a drawn 1-4 positives per query would
# move triples_per_s and the training set with it
SHAPES = {
    "lexical": {
        "interface": "library",
        "passages": 8000,
        "queries": 240,
        "max_relevant": 1,
        "term_dim": 8,
        "bm25_queries": 240,
        "k": 1000,
        "triples_depth": 500,
        "max_neg": 20,
        "cap": 1_000_000,
        "train_triples": 400,
        "epochs": 100,
        "dense_queries": 8,
        "dense_k": 100,
        "rerank_queries": 16,
        "rerank_depth": 50,
        "sweep_depths": (10, 25, 50),
        "cli_queries": 4,
        "cli_k": 100,
        # queries per call when a round splits an operation into calls
        "chunk": {"search": 16, "dense": 1, "rerank": 2},
    },
    "neural": {
        "interface": "library",
        "passages": 4000,
        # the probe searches every query: over 256 queries the seed moves the
        # postings a search scans by about half as much as over 128
        "queries": 256,
        "max_relevant": 1,
        "term_dim": 32,
        # set-up searches these queries and mines the training triples
        "first_stage_queries": 64,
        "k": 200,
        "triples_depth": 200,
        "max_neg": 20,
        "cap": 1_000_000,
        "train_triples": 1000,
        "epochs": 100,
        "dense_queries": 128,
        "dense_k": 1000,
        "rerank_queries": 16,
        "rerank_depth": 200,
        "sweep_depths": (50, 100, 200),
        # the timed BM25 calls use an index over this many passages
        "probe_passages": 500,
        "probe_queries": 256,
        "cli_queries": 4,
        "cli_k": 100,
        "chunk": {"search": 256, "dense": 8, "rerank": 1},
    },
    "cli-artifacts": {
        "interface": "cli",
        "passages": 4000,
        "queries": 8,
        "max_relevant": 1,
        "term_dim": 32,
        "k": 100,
        "triples_depth": 100,
        "max_neg": 20,
        "cap": 1_000_000,
        "epochs": 100,
        "dense_k": 100,
        "rerank_depth": 100,
        "sweep_depths": (25, 50, 100),
        "cli_queries": 8,
    },
}

# the smoke check's scale: same code paths, seconds instead of minutes
TINY = {
    "passages": 300, "queries": 12, "bm25_queries": 12, "first_stage_queries": 12, "dense_queries": 6,
    "rerank_queries": 4, "probe_passages": 150, "probe_queries": 4, "cli_queries": 8,
}


def shape_for(workload: str, scale: str = "full") -> dict:
    shape = dict(SHAPES[workload])
    if scale == "tiny":
        for key, value in TINY.items():
            if key in shape:
                shape[key] = min(shape[key], value)
        shape["k"] = min(shape["k"], 100)
        shape["dense_k"] = min(shape["dense_k"], 100)
        shape["triples_depth"] = min(shape["triples_depth"], 100)
        shape["rerank_depth"] = min(shape["rerank_depth"], 50)
        shape["sweep_depths"] = (10, 25, 50)
        shape["epochs"] = 20
    return shape


def use_checkout_package() -> None:
    """Import clickrank from this checkout's ``src``; fail without it."""
    if not (SRC / "clickrank" / "__init__.py").is_file():
        raise SystemExit(f"error: no clickrank package under {SRC}; run from a clickrank checkout")
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_ENV)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
