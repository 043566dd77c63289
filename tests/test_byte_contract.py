"""The byte contract: the README pipeline, run in-process through ``cli.main``
on a small ``synth`` fixture, writes the same bytes and prints the same
summaries as the tables below pin.

A change that alters an output byte on purpose edits these tables in the
same diff; any other change must leave them alone. The tables depend on
numpy's random streams, as the fixture pins in ``test_synth.py`` do.

The kernel head's scores come from a BLAS matrix product, so its bytes hold
for one BLAS build only (README, "The kernel score"). Everything that
carries them is left out by name, and ``CPU_DEPENDENT`` must name exactly
what the pipeline writes or prints from them.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clickrank.cli import main

# (stdout key, argv); ``{fx}`` and ``{w}`` are the fixture and working directories.
PIPELINE = (
    ("synth", "synth --out {fx} --passages 300 --queries 30 --seed 7"),
    ("index build", "index build --collection {fx}/collection.tsv --out {fx}/index "
                    "--k1 0.9 --b 0.4"),
    ("index search", "index search --index {fx}/index --queries {fx}/queries.tsv --k 500 "
                     "--out {w}/bm25.trec"),
    ("qrels build", "qrels build --clicks {fx}/clicks.tsv --mode dctr --thresholds 0.1,0.3 "
                    "--out {w}/qrels.trec"),
    ("triples generate", "triples generate --index {fx}/index --queries {fx}/queries.tsv "
                         "--qrels {w}/qrels.trec --depth 500 --max-neg 20 --cap 10000000 "
                         "--seed 1 --out {w}/triples.tsv"),
    ("triples text", "triples text --triples {w}/triples.tsv --collection {fx}/collection.tsv "
                     "--queries {fx}/queries.tsv --out {w}/triples_text.tsv"),
    ("train kernel", "train kernel --triples {w}/triples.tsv "
                     "--query-matrices {fx}/query_matrices.tkm "
                     "--passage-matrices {fx}/passage_matrices.tkm --lr 0.01 --epochs 300 "
                     "--seed 2 --out {w}/weights.txt --telemetry {w}/telemetry.json"),
    ("rerank", "rerank --run {w}/bm25.trec --depth 200 --scorer kernel "
               "--query-matrices {fx}/query_matrices.tkm "
               "--passage-matrices {fx}/passage_matrices.tkm --weights {w}/weights.txt "
               "--out {w}/kernel.trec"),
    ("dense retrieve", "dense retrieve --query-vectors {fx}/query_vectors.tkv "
                       "--passage-vectors {fx}/passage_vectors.tkv --k 1000 "
                       "--out {w}/dense.trec"),
    ("eval", "eval --run {w}/dense.trec --qrels {w}/qrels.trec --splits {fx}/splits.tsv "
             "--cutoffs 10,100,200,1000 --out {w}/report.tsv --json {w}/report.json"),
    ("fuse", "fuse --runs {w}/kernel.trec {w}/dense.trec --out {w}/ensemble.trec"),
    ("sweep", "sweep --run {w}/bm25.trec --qrels {w}/qrels.trec --depths 50,100,200,500 "
              "--scorer oracle --out {w}/sweep.tsv"),
)

# what the kernel head's BLAS product reaches: files by path, stdout by command
CPU_DEPENDENT = {
    "weights.txt", "weights.txt.manifest.json", "telemetry.json",
    "kernel.trec", "kernel.trec.manifest.json",
    "ensemble.trec", "ensemble.trec.manifest.json",
    "train kernel",
}

# SHA-256 of every other file the pipeline writes, by path under the working directory
DIGESTS = {
    "bm25.trec": "cfc1593f1badf9d3dc45790d8cd6ac49134d101b613e2f8c5d3e0249b0e86ddb",
    "bm25.trec.manifest.json": "9bf8aae524bf975da2c520b1ffb5cace41da27e759d31a8e9fc1a3f867d72cf8",
    "dense.trec": "cae2d65889d6a2e7e08a25d7ad458c5c3b4f9e6893b2b677301a5f40a3a978bc",
    "dense.trec.manifest.json": "964294b3921e25f086ddd72d3cecc2fd057feeccd8b2ae69cb42bb02d9b27088",
    "fx/clicks.tsv": "32b0618a8d4c08d44a3331d434d5ac0b55f619a508319db7b10b3c13abb0b447",
    "fx/collection.tsv": "430bf6b1aaa5f5d290c7d767230ae5d2f589b2bb956023558a2c44ca2b15698e",
    "fx/index/doc_lengths.npy": "73f1963a701f9a17e5b6b30d8c70782ed1810a9c76cad40c1eb3797044cc7e83",
    "fx/index/ids.json": "c3e44c68dddcdc81d00a793d28ce33b886d2c51328a9555774ed2bf4da5ccfe5",
    "fx/index/manifest.json": "cac010ee4c8a3c8f26a8a202f749cf51cfa1ad4114712e909fd35af6c51f0d3c",
    "fx/index/meta.json": "e953bf80050fb4da18afa055082d4b21ffa0ab4e54bfa5f817ab0766eb348b5d",
    "fx/index/postings_doc.npy": "13a857e6b592b419e3a0c9427c8dc894e975846f184b38c72aa9b5ca08ab269b",
    "fx/index/postings_tf.npy": "6ff2d4365a3b2c86bae55feb3cf373d58f70c9393cb6f513c14b808033476389",
    "fx/index/term_offsets.npy": "e846db5ef5f3e22c8abf9390efeb4091c14b3fa7c4e15586204b32a3acf75371",
    "fx/index/terms.json": "c992feec27ab86cc66cc2813f2bfd505e2449460c6169ffc58c898295f5f3524",
    "fx/manifest.json": "5fe8bc9c7d6b93045ec366a2f41e4d2fe305b00c7d9c9e638a75abefbec10b14",
    "fx/passage_matrices.tkm": "d49c1078370f2496293df00c8964612d97a6e6d6a032734f5f9b12b6577dc1dd",
    "fx/passage_vectors.tkv": "93a89d4c2a2d07cbf26dfd8f90dd46bc244c5b11404428b12ee7d4f286a9f71e",
    "fx/qrels.trec": "af553bb1fcd4c68d2480e02e1bdf0d1ef2f8a2c58cd41a1b63e913fd73de944b",
    "fx/queries.tsv": "dd4dc22cefd0bbbcd0dbe8a5e6694babae3c5ed1d2cd96d8de7359d440abc9ef",
    "fx/query_matrices.tkm": "1cdb19d446cb50064b024489a109e794071ec3d724aa7fa42db4432a7c63ce06",
    "fx/query_vectors.tkv": "82155103f685bb2a9c79717254a5b15e699ccedd6e73b3e1ac72a3ea3de4753a",
    "fx/splits.tsv": "058f205c4af58a1ad1634003515e111a292f99e674b4c96e64bea363d11cf1ab",
    "qrels.trec": "af553bb1fcd4c68d2480e02e1bdf0d1ef2f8a2c58cd41a1b63e913fd73de944b",
    "qrels.trec.manifest.json": "b6c26e0149d5a670b56aaa17d37306945579c8a3a83c0a45bef1ea6c0925b3d2",
    "report.json": "81636159f3ca33e701eb046244ed222c72fa6906fa053670313e60a863a06ba4",
    "report.tsv": "07d9a525be2ef582ab9bece2d9a0662eb6a2a3283f324410f96b3681f513c14b",
    "report.tsv.manifest.json": "a33f0e6f1e2759cb78f907bcf981dae5862287fe6f33b88fefa38c9451e155c9",
    "sweep.tsv": "8a7cc98f0f017d8d37e15ae38bb86a5a2d7e1e459967046eec61512e82c4aa47",
    "sweep.tsv.manifest.json": "4d9eaac19e46a00b69b9a711b6f3d5690d10ecebb5bff0b973135d4c0ed08c49",
    "triples.tsv": "e6ddbaca8eb518407794414b97766e2a439a76ea20ceff7f10966865fb9a3a06",
    "triples.tsv.manifest.json": "fb7db366f2ffd3b4a523cfc526ba5eda7ae14554c8915d79f2f0d194adc94561",
    "triples_text.tsv": "8539969eecb78503f032d955043d15db33e0ea708c486992148e6be09c5b63fc",
    "triples_text.tsv.manifest.json": "173de327c077bee76af6aa7dd87ebd622cedb3fd61609f426f96349b7200635b",
}

# each other command's stdout, with the working directory written as <w>
STDOUT = {
    "synth": "generated fixture with 300 passages / 30 queries -> <w>/fx\n",
    "index build": "indexed 300 passages -> <w>/fx/index\n",
    "index search": "searched 30 queries at k=500 -> <w>/bm25.trec\n",
    "qrels build": "wrote 136 judgments for 30 queries -> <w>/qrels.trec\n",
    "triples generate": (
        "wrote 1428 triples from 30 queries (skipped: 0 without positives, 0 without eligible "
        "negatives) -> <w>/triples.tsv\n"
    ),
    "triples text": "materialized 1428 text triples -> <w>/triples_text.tsv\n",
    "rerank": (
        "re-ranked 30 queries at depth 200 (dropped 0 candidates the scorer could not score) -> "
        "<w>/kernel.trec\n"
    ),
    "dense retrieve": "retrieved top-1000 for 30 queries -> <w>/dense.trec\n",
    "eval": (
        "head (10 queries): nDCG@10=0.9227 MRR@10=1.0000 J@10=0.2600 R@100=1.0000 R@200=1.0000 "
        "R@1000=1.0000\n"
        "tail (10 queries): nDCG@10=0.8732 MRR@10=1.0000 J@10=0.3000 R@100=1.0000 R@200=1.0000 "
        "R@1000=1.0000\n"
        "torso (10 queries): nDCG@10=0.9797 MRR@10=1.0000 J@10=0.2100 R@100=1.0000 R@200=1.0000 "
        "R@1000=1.0000\n"
    ),
    "fuse": "fused 2 runs over 30 queries -> <w>/ensemble.trec\n",
    "sweep": (
        "depth 50: nDCG@10=0.9592 MRR@10=1.0000 J@10=0.2400 R@100=0.9472 R@200=0.9472 "
        "R@1000=0.9472\n"
        "depth 100: nDCG@10=0.9592 MRR@10=1.0000 J@10=0.2400 R@100=0.9472 R@200=0.9472 "
        "R@1000=0.9472\n"
        "depth 200: nDCG@10=0.9907 MRR@10=1.0000 J@10=0.2467 R@100=0.9722 R@200=0.9722 "
        "R@1000=0.9722\n"
        "depth 500: nDCG@10=0.9928 MRR@10=1.0000 J@10=0.2500 R@100=0.9806 R@200=0.9806 "
        "R@1000=0.9806\n"
        "dropped 0 of the top-500 candidates the scorer could not score\n"
    ),
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    work = tmp_path_factory.mktemp("contract")
    stdout, stderr = {}, {}
    for name, template in PIPELINE:
        argv = template.format(fx=work / "fx", w=work).split()
        out, stderr[name] = _capture(argv)
        stdout[name] = out.replace(str(work), "<w>")
    digests = {
        path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.rglob("*"))
        if path.is_file()
    }
    return digests, stdout, stderr


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0, argv
    return out.getvalue(), err.getvalue()


def test_left_out_names_are_exactly_the_cpu_dependent_ones(pipeline):
    digests, stdout, _ = pipeline
    assert (set(digests) | set(stdout)) - set(DIGESTS) - set(STDOUT) == CPU_DEPENDENT


def test_every_file_is_pinned(pipeline):
    digests, _, _ = pipeline
    assert {path: digest for path, digest in digests.items() if path in DIGESTS} == DIGESTS


def test_every_summary_is_pinned(pipeline):
    _, stdout, _ = pipeline
    assert {name: text for name, text in stdout.items() if name in STDOUT} == STDOUT


def test_stderr_is_empty(pipeline):
    _, _, stderr = pipeline
    assert stderr == {name: "" for name, _ in PIPELINE}


def test_the_cli_does_not_load_logging():
    # counts go to the summaries, so no command has a log channel to configure
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys, clickrank.cli; print('logging' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")
