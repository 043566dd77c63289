"""From click logs to graded labels to rank metrics.

Run with: python3 demos/02_click_labels_and_metrics.py
"""

from clickrank.corpus import ClickRecord, build_qrels_from_clicks
from clickrank.evaluation import evaluate_run
from clickrank.runs import RankedRun

# A click log aggregates impressions and clicks per (query, passage).
records = [
    ClickRecord("q1", "p1", impressions=20, clicks=9),   # rate 0.45
    ClickRecord("q1", "p2", impressions=20, clicks=3),   # rate 0.15
    ClickRecord("q1", "p3", impressions=12, clicks=0),   # seen, never clicked
    ClickRecord("q2", "p4", impressions=5, clicks=1),
]
print("click-through rates:", [round(r.clicks / r.impressions, 2) for r in records])

# Two labeling modes. "raw": one click anywhere makes the pair grade 1.
raw = build_qrels_from_clicks(records, mode="raw")
print("raw grades q1:", raw.judged_for("q1"))

# "dctr": the rate is binned by ascending thresholds; zero-click pairs stay
# in the map at grade 0, which lets judged-coverage metrics tell
# "judged non-relevant" apart from "never judged".
dctr = build_qrels_from_clicks(records, mode="dctr", thresholds=[0.1, 0.3])
print("dctr grades q1:", dctr.judged_for("q1"))
print("relevant pool q1 (grade >= 1):", sorted(dctr.relevant_pool("q1")))

# Score a small run against the graded labels.
run = RankedRun(name="demo")
run.add("q1", [("p1", 3.0), ("p9", 2.5), ("p2", 2.0), ("p3", 1.0)])
run.add("q2", [("p8", 2.0), ("p4", 1.0)])

# evaluate_run computes one metric row per query and averages the rows
# per split (here one "all" split).
report = evaluate_run(run, dctr, rank_cutoff=10, recall_cutoffs=(2, 4))
print()
for metric in ("nDCG@10", "MRR@10", "J@10"):
    values = {q: round(row[metric], 4) for q, row in report.per_query.items()}
    print(f"per-query {metric + ':':8}", values)
# p9 and p8 were never judged: J@10 shows how much of the ranking the
# labels actually cover, which matters when comparing systems on click data.
print("\naggregates:", {m: round(v, 4) for m, v in report.splits["all"].metrics.items()})
