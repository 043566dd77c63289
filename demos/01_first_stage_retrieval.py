"""First-stage retrieval walkthrough: tokenize, index, search, persist.

Run with: python3 demos/01_first_stage_retrieval.py
"""

import tempfile
from pathlib import Path

from clickrank.bm25 import InvertedIndex, build_index, tokenize
from clickrank.corpus import Passage, PassageStore
from clickrank.runs import RankedRun, write_run

# A toy health-flavoured collection. Ids are arbitrary strings; texts are
# plain UTF-8.
store = PassageStore(
    [
        Passage("p1", "Early warning signs of a heart attack include chest pain."),
        Passage("p2", "Regular exercise lowers the risk of heart disease."),
        Passage("p3", "Migraine headaches respond to rest in a dark room."),
        Passage("p4", "Chest pain after exercise should be checked by a doctor."),
    ]
)

# Tokenization is deliberately dumb: lowercase, split on anything that is
# not alphanumeric, no stemming. Deterministic beats clever here.
print("tokens:", tokenize("Heart-Attack risk!"))

index = build_index(store, k1=0.9, b=0.4)
print(f"indexed {index.doc_count} passages, avgdl={index.avg_doc_length:.2f}")

# Top-k search. Scores are classic saturated-tf BM25 with a smoothed,
# always-positive idf; ties break by ascending passage id.
for query in ("heart attack", "chest pain exercise", "broken leg"):
    results = index.search(query, k=3)
    print(f"query {query!r:28} ->", [(pid, round(s, 3)) for pid, s in results])

# Runs travel between tools as TREC files: qid Q0 pid rank score run_name.
run = RankedRun(name="bm25-demo", stage="first-stage")
run.add("q1", index.search("heart attack", 10))

with tempfile.TemporaryDirectory() as tmp:
    run_path = Path(tmp) / "demo.trec"
    write_run(run, run_path)
    print("\nrun file contents:")
    print(run_path.read_text())

    # The index persists to a directory and round-trips exactly.
    index.save(Path(tmp) / "index")
    reloaded = InvertedIndex.load(Path(tmp) / "index")
    assert reloaded.search("heart attack", 3) == index.search("heart attack", 3)
    print("reloaded index reproduces the search results exactly")
