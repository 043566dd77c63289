"""Output checks, run after the timed phase on the files a pass wrote.

Each check returns a list of error strings; an empty list is a pass. Run,
qrels and vector files are parsed here independently of clickrank, so a
reader bug in the package cannot hide a writer bug.
"""

from __future__ import annotations

import random
import struct
from pathlib import Path

import numpy as np


def read_trec_run(path) -> dict[str, list[tuple[str, float]]]:
    """Per query, (pid, score) in file order; ranks must count up from 1."""
    run: dict[str, list[tuple[str, float]]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            qid, _, pid, rank, score, _ = line.split()
            entries = run.setdefault(qid, [])
            if int(rank) != len(entries) + 1:
                raise ValueError(f"{path}: query {qid}: rank {rank} out of order")
            entries.append((pid, float(score)))
    return run


def read_relevant(qrels_path) -> dict[str, set[str]]:
    relevant: dict[str, set[str]] = {}
    with open(qrels_path, encoding="utf-8") as f:
        for line in f:
            qid, _, pid, grade = line.split()
            if int(grade) >= 1:
                relevant.setdefault(qid, set()).add(pid)
    return relevant


def read_tkv(path) -> tuple[list[str], np.ndarray]:
    data = Path(path).read_bytes()
    if data[:4] != b"TKV1":
        raise ValueError(f"{path}: bad magic")
    count, dim = struct.unpack_from("<II", data, 4)
    pos, ids = 12, []
    for _ in range(count):
        (n,) = struct.unpack_from("<I", data, pos)
        ids.append(data[pos + 4 : pos + 4 + n].decode("utf-8"))
        pos += 4 + n
    matrix = np.frombuffer(data, dtype="<f4", count=count * dim, offset=pos).reshape(count, dim)
    return ids, matrix


def check_dense(run_path, query_vectors, passage_vectors, k: int) -> list[str]:
    """Top-k by a plain numpy sort of the stacked vectors, ties by ascending id."""
    run = read_trec_run(run_path)
    qids, Q = read_tkv(query_vectors)
    pids, P = read_tkv(passage_vectors)
    P64 = P.astype(np.float64)
    id_rank = np.argsort(np.argsort(np.array(pids)))
    errors = []
    for qid, q in zip(qids, Q.astype(np.float64)):
        if qid not in run:
            continue
        scores = P64 @ q
        order = np.lexsort((id_rank, -scores))[:k]
        want_ids = [pids[i] for i in order]
        got = run[qid]
        if [pid for pid, _ in got] != want_ids:
            errors.append(f"dense {qid}: ranking differs from the numpy reference")
        elif not np.allclose([s for _, s in got], scores[order], rtol=1e-9, atol=0.0):
            errors.append(f"dense {qid}: scores differ from the numpy reference")
    if not run:
        errors.append("dense run is empty")
    return errors


def check_bm25(run_path, index_dir, queries_path, k: int, sample: int, seed: int) -> list[str]:
    """Sampled queries against an exhaustive ``InvertedIndex.score`` scan."""
    from clickrank.bm25 import InvertedIndex, tokenize

    run = read_trec_run(run_path)
    index = InvertedIndex.load(index_dir)
    texts = {}
    with open(queries_path, encoding="utf-8") as f:
        for line in f:
            qid, text = line.rstrip("\n").split("\t", 1)
            texts[qid] = text
    errors = []
    for qid in random.Random(seed).sample(sorted(run), min(sample, len(run))):
        tokens = tokenize(texts[qid])
        scored = [(pid, index.score(tokens, pid)) for pid in index.doc_lengths]
        want = sorted(((p, s) for p, s in scored if s > 0.0), key=lambda e: (-e[1], e[0]))[:k]
        if run[qid] != want:
            errors.append(f"bm25 {qid}: top-{k} differs from the exhaustive scan")
    return errors


def check_triples(triples_path, run_path, qrels_path, depth: int) -> list[str]:
    """Negatives avoid the relevant pool and come from the top-``depth`` candidates."""
    run = read_trec_run(run_path)
    relevant = read_relevant(qrels_path)
    errors = []
    count = 0
    with open(triples_path, encoding="utf-8") as f:
        for line in f:
            qid, pos, neg = line.rstrip("\n").split("\t")
            count += 1
            pool = relevant.get(qid, set())
            if pos not in pool:
                errors.append(f"triple {qid}: positive {pos} is not relevant")
            if neg in pool:
                errors.append(f"triple {qid}: negative {neg} is in the relevant pool")
            if neg not in {pid for pid, _ in run.get(qid, [])[:depth]}:
                errors.append(f"triple {qid}: negative {neg} is not a top-{depth} candidate")
    if count == 0:
        errors.append("no triples written")
    return errors[:20]


def check_permutation(rerank_path, first_stage_path, depth: int) -> list[str]:
    """Every re-ranked list is a permutation of the first stage's top ``depth``."""
    reranked = read_trec_run(rerank_path)
    first = read_trec_run(first_stage_path)
    errors = []
    for qid, entries in reranked.items():
        want = sorted(pid for pid, _ in first.get(qid, [])[:depth])
        if sorted(pid for pid, _ in entries) != want:
            errors.append(f"{Path(rerank_path).name} {qid}: not a permutation of the top-{depth}")
    if not reranked:
        errors.append(f"{Path(rerank_path).name} is empty")
    return errors


def corrupt_run(path) -> None:
    """Swap the passages at ranks 1 and 2 of the first query, keeping the scores."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    a, b = lines[0].split(" "), lines[1].split(" ")
    a[2], b[2] = b[2], a[2]
    lines[0], lines[1] = " ".join(a), " ".join(b)
    Path(path).write_text("".join(lines), encoding="utf-8")
