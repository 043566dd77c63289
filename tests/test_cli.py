import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from clickrank.bm25 import DEFAULT_K1, INDEX_FILES
from clickrank.cli import _COMMANDS, _OPTIONS, main
from clickrank.embeddings import load_vectors
from clickrank.manifest import manifest_path_for


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "fx"
    code = main(
        ["synth", "--out", str(out), "--passages", "400", "--queries", "40", "--seed", "5"]
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_outputs_and_manifest(self, fixture_dir):
        for name in (
            "collection.tsv",
            "queries.tsv",
            "clicks.tsv",
            "qrels.trec",
            "splits.tsv",
            "query_vectors.tkv",
            "passage_vectors.tkv",
            "query_matrices.tkm",
            "passage_matrices.tkm",
            "manifest.json",
        ):
            assert (fixture_dir / name).exists(), name
        manifest = json.loads((fixture_dir / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["command"] == "synth"
        assert "collection" in manifest["outputs"]

    def test_reexecution_reproduces_digests(self, tmp_path):
        args = ["synth", "--passages", "150", "--queries", "15", "--seed", "9"]
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(args + ["--out", str(out)]) == 0
            outs.append(out)
        for name in ("collection.tsv", "passage_vectors.tkv", "manifest.json"):
            assert _sha(outs[0] / name) == _sha(outs[1] / name), name


    @pytest.mark.parametrize("queries, dim", [(15, 8), (15, 64)])
    def test_manifest_records_the_written_dim(self, tmp_path, queries, dim):
        out = tmp_path / "fx"
        assert main(["synth", "--out", str(out), "--passages", "150", "--queries", str(queries),
                     "--dim", str(dim), "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        written = {load_vectors(out / name).dim for name in ("query_vectors.tkv", "passage_vectors.tkv")}
        assert written == {manifest["config"]["dim"]} == {max(queries, dim)}

    @pytest.mark.parametrize(
        "flags", [["--dim", "0"], ["--dim", "-3"], ["--term-dim", "0"]], ids=["dim-0", "dim-neg", "term-dim-0"]
    )
    def test_nonpositive_dim_is_one_error_line(self, tmp_path, capsys, flags):
        out = tmp_path / "fx"
        assert main(["synth", "--out", str(out), "--passages", "60", "--queries", "5", *flags]) == 1
        assert capsys.readouterr().err == "error: dim and term_dim must be >= 1\n"
        assert not out.exists()


class TestPipeline:
    def test_full_pipeline(self, fixture_dir, tmp_path):
        work = tmp_path

        index_dir = work / "index"
        assert main(
            ["index", "build", "--collection", str(fixture_dir / "collection.tsv"),
             "--out", str(index_dir)]
        ) == 0
        assert (index_dir / "manifest.json").exists()

        run_path = work / "bm25.trec"
        assert main(
            ["index", "search", "--index", str(index_dir),
             "--queries", str(fixture_dir / "queries.tsv"),
             "--k", "200", "--out", str(run_path)]
        ) == 0
        assert run_path.exists() and run_path.stat().st_size > 0

        qrels_path = work / "qrels.trec"
        assert main(
            ["qrels", "build", "--clicks", str(fixture_dir / "clicks.tsv"),
             "--mode", "dctr", "--thresholds", "0.1,0.3", "--out", str(qrels_path)]
        ) == 0
        assert qrels_path.read_bytes() == (fixture_dir / "qrels.trec").read_bytes()

        triples_path = work / "triples.tsv"
        assert main(
            ["triples", "generate", "--index", str(index_dir),
             "--queries", str(fixture_dir / "queries.tsv"),
             "--qrels", str(qrels_path), "--depth", "200", "--max-neg", "5",
             "--seed", "3", "--out", str(triples_path)]
        ) == 0

        text_path = work / "triples_text.tsv"
        assert main(
            ["triples", "text", "--triples", str(triples_path),
             "--collection", str(fixture_dir / "collection.tsv"),
             "--queries", str(fixture_dir / "queries.tsv"), "--out", str(text_path)]
        ) == 0
        assert text_path.stat().st_size > 0

        dense_path = work / "dense.trec"
        assert main(
            ["dense", "retrieve", "--query-vectors", str(fixture_dir / "query_vectors.tkv"),
             "--passage-vectors", str(fixture_dir / "passage_vectors.tkv"),
             "--k", "200", "--out", str(dense_path)]
        ) == 0

        rerank_path = work / "reranked.trec"
        assert main(
            ["rerank", "--run", str(run_path), "--depth", "100", "--scorer", "dense",
             "--query-vectors", str(fixture_dir / "query_vectors.tkv"),
             "--passage-vectors", str(fixture_dir / "passage_vectors.tkv"),
             "--out", str(rerank_path)]
        ) == 0

        weights_path = work / "weights.txt"
        telemetry_path = work / "telemetry.json"
        assert main(
            ["train", "kernel", "--triples", str(triples_path),
             "--query-matrices", str(fixture_dir / "query_matrices.tkm"),
             "--passage-matrices", str(fixture_dir / "passage_matrices.tkm"),
             "--lr", "0.05", "--epochs", "30", "--seed", "2",
             "--out", str(weights_path), "--telemetry", str(telemetry_path)]
        ) == 0
        telemetry = json.loads(telemetry_path.read_text())
        assert 0.0 <= telemetry["pairwise_accuracy"] <= 1.0
        assert len(telemetry["loss_curve"]) == 30

        kernel_rerank = work / "kernel.trec"
        assert main(
            ["rerank", "--run", str(run_path), "--depth", "100", "--scorer", "kernel",
             "--query-matrices", str(fixture_dir / "query_matrices.tkm"),
             "--passage-matrices", str(fixture_dir / "passage_matrices.tkm"),
             "--weights", str(weights_path), "--out", str(kernel_rerank)]
        ) == 0

        report_path = work / "report.tsv"
        report_json = work / "report.json"
        assert main(
            ["eval", "--run", str(rerank_path), "--qrels", str(qrels_path),
             "--splits", str(fixture_dir / "splits.tsv"),
             "--cutoffs", "10,50,100", "--out", str(report_path),
             "--json", str(report_json)]
        ) == 0
        payload = json.loads(report_json.read_text())
        assert set(payload["splits"]) == {"head", "torso", "tail"}

        fused_path = work / "fused.trec"
        assert main(
            ["fuse", "--runs", str(run_path), str(dense_path), str(rerank_path),
             "--out", str(fused_path)]
        ) == 0
        assert fused_path.stat().st_size > 0

        sweep_path = work / "sweep.tsv"
        assert main(
            ["sweep", "--run", str(run_path), "--qrels", str(qrels_path),
             "--depths", "10,50,100", "--scorer", "oracle", "--out", str(sweep_path)]
        ) == 0
        lines = sweep_path.read_text().splitlines()
        assert len(lines) == 4  # header + 3 depths

    def test_triples_reexecution_identical_digests(self, fixture_dir, tmp_path):
        index_dir = tmp_path / "index"
        assert main(
            ["index", "build", "--collection", str(fixture_dir / "collection.tsv"),
             "--out", str(index_dir)]
        ) == 0
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.tsv"
            assert main(
                ["triples", "generate", "--index", str(index_dir),
                 "--queries", str(fixture_dir / "queries.tsv"),
                 "--qrels", str(fixture_dir / "qrels.trec"),
                 "--depth", "100", "--max-neg", "5", "--seed", "77",
                 "--out", str(out)]
            ) == 0
            digests.append(_sha(out))
        assert digests[0] == digests[1]

    def test_index_reading_manifests_pin_every_index_file(self, fixture_dir, tmp_path):
        index_dir = tmp_path / "index"
        assert main(
            ["index", "build", "--collection", str(fixture_dir / "collection.tsv"),
             "--out", str(index_dir)]
        ) == 0
        edited = tmp_path / "edited"
        edited.mkdir()
        for name in INDEX_FILES:
            (edited / name).write_bytes((index_dir / name).read_bytes())
        blob = bytearray((index_dir / "postings_tf.npy").read_bytes())
        blob[-4] += 1  # lowest byte of the last term frequency
        (edited / "postings_tf.npy").write_bytes(bytes(blob))
        commands = {
            "search": ["index", "search", "--k", "50"],
            "triples": ["triples", "generate", "--qrels", str(fixture_dir / "qrels.trec"),
                        "--depth", "50", "--max-neg", "2"],
        }
        for tag, command in commands.items():
            manifests = []
            for directory in (index_dir, edited):
                out = tmp_path / f"{tag}_{directory.name}.out"
                assert main(
                    [*command, "--index", str(directory),
                     "--queries", str(fixture_dir / "queries.tsv"), "--out", str(out)]
                ) == 0
                manifests.append(json.loads((tmp_path / f"{out.name}.manifest.json").read_text()))
            orig, edit = (m["inputs"] for m in manifests)
            pinned = {name for name in orig if name.startswith("index_")}
            assert pinned == {f"index_{name.split('.')[0]}" for name in INDEX_FILES}
            assert orig["index_postings_tf"]["digest"] != edit["index_postings_tf"]["digest"]
            for name in pinned - {"index_postings_tf"}:
                assert orig[name]["digest"] == edit[name]["digest"], name

    @pytest.mark.parametrize(
        "argv",
        [["rerank", "--run", "{work}/bm25.trec", "--scorer", "dense", "--query-vectors",
          "{fx}/query_vectors.tkv", "--passage-vectors", "{fx}/passage_vectors.tkv"],
         ["rerank", "--run", "{work}/bm25.trec", "--scorer", "colbert", "--query-matrices",
          "{fx}/query_matrices.tkm", "--passage-matrices", "{fx}/passage_matrices.tkm"],
         ["dense", "retrieve", "--query-vectors", "{fx}/query_vectors.tkv", "--passage-vectors",
          "{fx}/passage_vectors.tkv", "--k", "400"]],
        ids=["rerank-dense", "rerank-colbert", "dense-retrieve"],
    )
    def test_zero_passage_scores_zero_under_dot(self, fixture_dir, work, tmp_path, argv):
        from clickrank.embeddings import (
            TokenMatrixStore,
            VectorStore,
            load_token_matrices,
            load_vectors,
            write_token_matrices,
            write_vectors,
        )

        # the first candidate of the first query, so re-ranking meets it
        zero = (work / "bm25.trec").read_text().split()[2]
        vectors = load_vectors(fixture_dir / "passage_vectors.tkv")
        matrices = load_token_matrices(fixture_dir / "passage_matrices.tkm")
        write_vectors(
            VectorStore(vectors.dim, {p: vectors.vector(p) * (p != zero) for p in vectors.ids}),
            tmp_path / "passage_vectors.tkv",
        )
        write_token_matrices(
            TokenMatrixStore(matrices.dim, {p: m * (p != zero) for p, m in matrices.items()}),
            tmp_path / "passage_matrices.tkm",
        )
        for name in ("query_vectors.tkv", "query_matrices.tkm"):
            (tmp_path / name).write_bytes((fixture_dir / name).read_bytes())
        out = tmp_path / "out.trec"
        assert main([a.format(work=work, fx=tmp_path) for a in argv] + ["--out", str(out)]) == 0
        scores = [float(line.split()[4]) for line in out.read_text().splitlines()
                  if line.split()[2] == zero]
        assert scores and all(s == 0.0 for s in scores)


class TestErrorHandling:
    def test_missing_collection_path(self, tmp_path, capsys):
        code = main(
            ["index", "build", "--collection", str(tmp_path / "absent.tsv"),
             "--out", str(tmp_path / "idx")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "absent.tsv" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["index", "build", "--bogus", "x"],
            ["--seed", "5", "synth", "--out", "d"],
            ["rerank", "--run", "r.trec", "--scorer", "dense", "--similarity", "cosine",
             "--out", "o"],
            ["dense", "retrieve", "--similarity", "dot", "--out", "o"],
        ],
        ids=["bogus", "global-seed", "rerank-similarity", "dense-retrieve-similarity"],
    )
    def test_unknown_flag_exits_two(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_scorer_flag_validation(self, fixture_dir, tmp_path, capsys):
        code = main(
            ["rerank", "--run", str(fixture_dir / "queries.tsv"), "--depth", "10",
             "--scorer", "dense", "--out", str(tmp_path / "o.trec")]
        )
        assert code == 1
        assert "query-vectors" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{not json", "config file {conf} is not valid JSON: "),
            ('[{"synth": {"seed": 1}}]', "config file {conf} must hold a JSON object"),
            (None, "config file not found: {conf}"),
        ],
        ids=["not-json", "json-list", "missing"],
    )
    def test_bad_config_file(self, tmp_path, capsys, text, message):
        conf = tmp_path / "conf.json"
        if text is not None:
            conf.write_text(text)
        out = tmp_path / "fx"
        code = main(
            ["--config", str(conf), "synth", "--out", str(out),
             "--passages", "50", "--queries", "5"]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: " + message.format(conf=conf))
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, command, named",
        [
            ({"eval": {"cutoffs": [10, 100]}}, "eval", "config value eval.cutoffs"),
            ({"bm25": 5}, "index build", "config section bm25"),
            ({"paths": []}, "index build", "config section paths"),
            ({"train": {"epochs": "many"}}, "train kernel", "config value train.epochs"),
            ({"train": {"epochs": 2.5}}, "train kernel", "config value train.epochs must be an integer"),
        ],
        ids=[
            "eval-cutoffs-list", "bm25-number", "paths-list", "train-epochs-string",
            "train-epochs-fractional",
        ],
    )
    def test_config_value_of_wrong_type(
        self, fixture_dir, tmp_path, capsys, config, command, named
    ):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        run = tmp_path / "run.trec"
        run.write_text("q00000 Q0 p000000 1 1.0 r\n")
        triples = tmp_path / "triples.tsv"
        triples.write_text("q00000\tp000000\tp000001\n")
        flags = {
            "eval": ["--run", str(run), "--qrels", str(fixture_dir / "qrels.trec")],
            "index build": ["--collection", str(fixture_dir / "collection.tsv")],
            "train kernel": [
                "--triples", str(triples),
                "--query-matrices", str(fixture_dir / "query_matrices.tkm"),
                "--passage-matrices", str(fixture_dir / "passage_matrices.tkm"),
            ],
        }[command]
        code = main(
            ["--config", str(conf), *command.split(), *flags, "--out", str(tmp_path / "out")]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert named in lines[0]


    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--epochs", "-3"], "epochs must be >= 0, got -3"),
            (["--lr", "0"], "lr must be finite and above 0, got 0.0"),
            (["--lr", "nan"], "lr must be finite and above 0, got nan"),
            (["--margin", "nan"], "margin must be finite, got nan"),
            (["--margin", "inf"], "margin must be finite, got inf"),
        ],
        ids=["epochs-negative", "lr-zero", "lr-nan", "margin-nan", "margin-inf"],
    )
    def test_train_kernel_rejects_nonsense_hyperparameters(
        self, fixture_dir, tmp_path, capsys, flags, named
    ):
        triples = tmp_path / "triples.tsv"
        triples.write_text("q00000\tp000000\tp000001\n")
        out = tmp_path / "weights.txt"
        code = main(
            ["train", "kernel", "--triples", str(triples),
             "--query-matrices", str(fixture_dir / "query_matrices.tkm"),
             "--passage-matrices", str(fixture_dir / "passage_matrices.tkm"),
             *flags, "--out", str(out), "--telemetry", str(tmp_path / "telemetry.json")]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists() and not (tmp_path / "telemetry.json").exists()

    @pytest.mark.parametrize(
        "argv, seed",
        [
            # the index and query file do not exist: the seed is checked first
            (["triples", "generate", "--index", "{tmp}/no-index", "--queries", "{tmp}/none.tsv",
              "--qrels", "{fx}/qrels.trec"], "-1"),
            (["train", "kernel", "--triples", "{tmp}/triples.tsv",
              "--query-matrices", "{fx}/query_matrices.tkm",
              "--passage-matrices", "{fx}/passage_matrices.tkm"], "-3"),
            (["synth", "--passages", "20", "--queries", "3"], "-2"),
        ],
        ids=["triples-generate", "train-kernel", "synth"],
    )
    def test_negative_seed_is_one_error_line(self, fixture_dir, tmp_path, capsys, argv, seed):
        (tmp_path / "triples.tsv").write_text("q00000\tp000000\tp000001\n")
        out = tmp_path / "out"
        argv = [a.format(tmp=tmp_path, fx=fixture_dir) for a in argv]
        code = main([*argv, "--seed", seed, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", f"error: seed must be >= 0, got {seed}\n")
        assert not out.exists() and not manifest_path_for(out).exists()

    def test_corrupt_index_is_one_error_line(self, fixture_dir, tmp_path, capsys):
        corruptions = {
            # the last term frequency becomes 0
            "tf-zero": ("postings_tf.npy", lambda blob: blob[:-4] + bytes(4)),
            # the .npy header length byte becomes a quote, which numpy's
            # header parser fails on with tokenize.TokenError
            "npy-header-quote": ("doc_lengths.npy", lambda blob: blob[:8] + b'"' + blob[9:]),
            # the header loses its closing brace
            "meta-truncated": ("meta.json", lambda blob: blob[:-2]),
            # a k1 that JSON's reader takes as inf
            "meta-k1-infinity": (
                "meta.json", lambda blob: re.sub(rb'"k1": [^,\n]+', b'"k1": Infinity', blob)
            ),
            # a header of another format
            "meta-other-format": (
                "meta.json", lambda blob: re.sub(rb'"format": "[^"]*"', b'"format": "other"', blob)
            ),
        }
        for case, (name, corrupt) in corruptions.items():
            index_dir = tmp_path / case / "index"
            assert main(
                ["index", "build", "--collection", str(fixture_dir / "collection.tsv"),
                 "--out", str(index_dir)]
            ) == 0
            blob = (index_dir / name).read_bytes()
            assert corrupt(blob) != blob
            (index_dir / name).write_bytes(corrupt(blob))
            capsys.readouterr()
            run = tmp_path / case / "run.trec"
            code = main(
                ["index", "search", "--index", str(index_dir),
                 "--queries", str(fixture_dir / "queries.tsv"), "--out", str(run)]
            )
            assert code == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(f"error: {index_dir / name}:")
            assert not run.exists()

    @pytest.mark.parametrize(
        "triple, message",
        [
            ("q00000\tp000000\tpXXX\n", "unknown passage id 'pXXX'"),
            ("qXXX\tp000000\tp000001\n", "unknown query id 'qXXX'"),
        ],
        ids=["passage", "query"],
    )
    def test_unknown_id_is_named_without_quotes(
        self, fixture_dir, tmp_path, capsys, triple, message
    ):
        triples = tmp_path / "triples.tsv"
        triples.write_text(triple)
        code = main(
            ["triples", "text", "--triples", str(triples),
             "--collection", str(fixture_dir / "collection.tsv"),
             "--queries", str(fixture_dir / "queries.tsv"), "--out", str(tmp_path / "text.tsv")]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, named",
        [
            (["fuse", "--method", "rrf", "--rrf-k", "-1"], "rrf_k must be >= 0"),
            (["fuse", "--method", "rrf", "--rrf-k", "-100"], "rrf_k must be >= 0"),
            (["index", "build", "--k1", "-1"], "BM25 k1 must be >= 0"),
            (["index", "build", "--k1", "inf"], "BM25 k1 must be >= 0 and finite, got inf"),
            (["index", "build", "--b", "1.5"], "BM25 b must be in [0, 1]"),
            (["train", "kernel", "--mus", "1.0,0.5", "--sigmas", "nan,0.1"],
             "kernel widths must be finite and positive, got (nan, 0.1)"),
            (["train", "kernel", "--mus", "1.0,0.5", "--sigmas", "0.1,inf"],
             "kernel widths must be finite and positive, got (0.1, inf)"),
            (["train", "kernel", "--mus", "1.0"], "kernel bank needs both centers and widths"),
            (["eval", "--cutoffs", ","], "need at least one cutoff"),
            (["qrels", "build", "--thresholds", "0.1,x"],
             "expected a comma-separated float list, got '0.1,x'"),
        ],
        ids=["rrf-k-minus-1", "rrf-k-minus-100", "k1-negative", "k1-inf", "b-above-1", "sigma-nan",
             "sigma-inf", "mus-without-sigmas", "cutoffs-empty", "thresholds-not-numbers"],
    )
    def test_out_of_range_parameter_is_one_error_line(
        self, fixture_dir, work, tmp_path, capsys, command, named
    ):
        run = tmp_path / "run.trec"
        run.write_text("q00000 Q0 p000000 1 1.0 r\n")
        inputs = {
            "fuse": ["--runs", str(run), str(run)],
            "index": ["--collection", str(fixture_dir / "collection.tsv")],
            "train": ["--triples", str(work / "triples.tsv"),
                      *[a.format(fx=fixture_dir) for a in _MATRICES], "--epochs", "1"],
            "eval": ["--run", str(run), "--qrels", str(fixture_dir / "qrels.trec")],
            "qrels": ["--clicks", str(fixture_dir / "clicks.tsv")],
        }[command[0]]
        out = tmp_path / "out"
        code = main([*command, *inputs, "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert named in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["rerank", "--run", "{work}/bm25.trec", "--scorer", "colbert"],
            ["rerank", "--run", "{work}/bm25.trec", "--scorer", "kernel", "--weights", "{work}/weights.txt"],
            ["train", "kernel", "--triples", "{work}/triples.tsv", "--epochs", "2"],
        ],
        ids=["rerank-colbert", "rerank-kernel", "train-kernel"],
    )
    def test_token_matrix_dim_mismatch_is_one_error_line(
        self, fixture_dir, work, tmp_path, capsys, argv
    ):
        from clickrank.embeddings import TokenMatrixStore, load_token_matrices, write_token_matrices

        queries = load_token_matrices(fixture_dir / "query_matrices.tkm")
        wider = tmp_path / "wider.tkm"
        dim = queries.dim + 1
        write_token_matrices(TokenMatrixStore(dim, {q: np.ones((2, dim)) for q in queries.ids}), wider)
        capsys.readouterr()
        passages = fixture_dir / "passage_matrices.tkm"
        code = main(
            [a.format(work=work) for a in argv]
            + ["--query-matrices", str(wider), "--passage-matrices", str(passages),
               "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: query token matrices have dim {dim}, passage token matrices have dim {queries.dim}\n"
        )

    @pytest.mark.parametrize("score", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["eval", "--run", "{bad}", "--qrels", "{fx}/qrels.trec"], "run"),
            (["rerank", "--run", "{work}/bm25.trec", "--scorer", "scores", "--scores", "{bad}"], "scores"),
        ],
        ids=["eval-run", "rerank-scores"],
    )
    def test_non_finite_score_is_one_error_line(
        self, fixture_dir, work, tmp_path, capsys, argv, bad, score
    ):
        source = work / ("bm25.trec" if bad == "run" else "scores.tsv")
        lines = source.read_text().splitlines(keepends=True)
        fields = lines[2].rstrip("\n").split("\t" if bad == "scores" else " ")
        fields[-1 if bad == "scores" else 4] = score
        lines[2] = ("\t" if bad == "scores" else " ").join(fields) + "\n"
        path = tmp_path / source.name
        path.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "out"
        code = main([a.format(work=work, fx=fixture_dir, bad=path) for a in argv] + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: line 3: bad score {score!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["rerank", "--run", "{work}/bm25.trec", "--scorer", "dense"], ["dense", "retrieve"]],
        ids=["rerank-dense", "dense-retrieve"],
    )
    def test_vector_dim_mismatch_is_one_error_line(self, fixture_dir, work, tmp_path, capsys, argv):
        from clickrank.embeddings import VectorStore, load_vectors, write_vectors

        queries = load_vectors(fixture_dir / "query_vectors.tkv")
        wider = tmp_path / "wider.tkv"
        dim = queries.dim + 1
        write_vectors(VectorStore(dim, {q: np.ones(dim) for q in queries.ids}), wider)
        capsys.readouterr()
        out = tmp_path / "out.trec"
        code = main(
            [a.format(work=work) for a in argv]
            + ["--query-vectors", str(wider), "--passage-vectors", str(fixture_dir / "passage_vectors.tkv"),
               "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: query vectors have dim {dim}, passage vectors have dim {queries.dim}\n"
        )
        assert not out.exists()

    def test_bm25_parameters_checked_before_the_collection_is_read(self, tmp_path, capsys):
        code = main(
            ["index", "build", "--collection", str(tmp_path / "absent.tsv"), "--b", "1.5",
             "--out", str(tmp_path / "index")]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: BM25 b must be in [0, 1], got 1.5"]
        assert not (tmp_path / "index").exists()

    def test_minmax_fuse_manifest_does_not_record_rrf_k(self, tmp_path):
        first, second = tmp_path / "a.trec", tmp_path / "b.trec"
        first.write_text("q1 Q0 p1 1 2.0 a\nq1 Q0 p2 2 1.0 a\n")
        second.write_text("q1 Q0 p2 1 0.5 b\nq1 Q0 p3 2 0.25 b\n")
        out = tmp_path / "fused.trec"
        fuse = ["fuse", "--runs", str(first), str(second), "--out", str(out)]
        manifests = []
        for rrf_k in ("60", "-5"):
            assert main([*fuse, "--method", "minmax", "--rrf-k", rrf_k]) == 0
            manifests.append(manifest_path_for(out).read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["config"] == {"method": "minmax", "run_name": "fused"}
        assert main([*fuse, "--method", "rrf", "--rrf-k", "7"]) == 0
        assert json.loads(manifest_path_for(out).read_text())["config"] == {
            "method": "rrf", "rrf_k": 7, "run_name": "fused"
        }

    @pytest.mark.parametrize(
        "config, accepted",
        [
            ({"sampling": {"depth": 50.5}}, False),
            ({"sampling": {"max_neg": 2.5}}, False),
            ({"sampling": {"cap": 1e3 + 0.5}}, False),
            ({"sampling": {"seed": 7.5}}, False),
            ({"sampling": {"depth": 50.0, "max_neg": 2.0, "cap": 100.0, "seed": 7.0}}, True),
        ],
        ids=["depth", "max-neg", "cap", "seed", "integral-floats"],
    )
    def test_integer_options_reject_fractions(self, fixture_dir, tmp_path, capsys, config, accepted):
        index_dir = tmp_path / "index"
        assert main(
            ["index", "build", "--collection", str(fixture_dir / "collection.tsv"),
             "--out", str(index_dir)]
        ) == 0
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"sampling": {"depth": 50, "max_neg": 2, **config["sampling"]}}))
        out = tmp_path / "triples.tsv"
        capsys.readouterr()
        code = main(
            ["--config", str(conf), "triples", "generate", "--index", str(index_dir),
             "--queries", str(fixture_dir / "queries.tsv"),
             "--qrels", str(fixture_dir / "qrels.trec"), "--out", str(out)]
        )
        err = capsys.readouterr().err.splitlines()
        if accepted:
            assert code == 0 and err == []
            manifest = json.loads((tmp_path / "triples.tsv.manifest.json").read_text())
            assert manifest["config"]["cap"] == 100 and manifest["seed"] == 7
        else:
            (key,) = config["sampling"]
            assert code == 1 and len(err) == 1
            assert err[0].startswith(f"error: config value sampling.{key} must be an integer")


class TestSummaries:
    @pytest.fixture(scope="class")
    def searched(self, fixture_dir, tmp_path_factory):
        work = tmp_path_factory.mktemp("summaries")
        assert main(
            ["index", "build", "--collection", str(fixture_dir / "collection.tsv"),
             "--out", str(work / "index")]
        ) == 0
        assert main(
            ["index", "search", "--index", str(work / "index"),
             "--queries", str(fixture_dir / "queries.tsv"), "--k", "100",
             "--out", str(work / "bm25.trec")]
        ) == 0
        return work

    def test_eval_names_the_recall_cutoff_fallback(self, fixture_dir, searched, tmp_path, capsys):
        outputs = {}
        for tag, cutoffs in (("short", "10"), ("full", "10,100,200,1000")):
            (tmp_path / tag).mkdir()
            capsys.readouterr()
            assert main(
                ["eval", "--run", str(searched / "bm25.trec"),
                 "--qrels", str(fixture_dir / "qrels.trec"), "--cutoffs", cutoffs,
                 "--out", str(tmp_path / tag / "report.tsv")]
            ) == 0
            printed = capsys.readouterr().out
            assert ("no recall cutoffs given; using 100,200,1000" in printed) == (tag == "short")
            outputs[tag] = [
                (tmp_path / tag / name).read_bytes() for name in ("report.tsv", "report.tsv.manifest.json")
            ]
        manifest = json.loads(outputs["short"][1])
        assert manifest["config"]["cutoffs"] == [10, 100, 200, 1000]
        assert outputs["short"] == outputs["full"]

    def test_triples_summary_names_truncation(self, fixture_dir, searched, tmp_path, capsys):
        for cap, truncated in ((7, True), (None, False)):
            out = tmp_path / f"triples_{cap}.tsv"
            capsys.readouterr()
            assert main(
                ["triples", "generate", "--index", str(searched / "index"),
                 "--queries", str(fixture_dir / "queries.tsv"),
                 "--qrels", str(fixture_dir / "qrels.trec"), "--depth", "50", "--max-neg", "2",
                 *(["--cap", str(cap)] if cap else []), "--out", str(out)]
            ) == 0
            printed = capsys.readouterr().out
            assert ("; truncated to cap 7)" in printed) == truncated
            assert ("truncated" in printed) == truncated
            if truncated:
                assert len(out.read_text().splitlines()) == 7


def _run_cli(*argv):
    """``python -m clickrank.cli`` in a fresh interpreter, so that stdout and
    stderr are the streams a user sees, not pytest's in-process capture."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "clickrank.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestStderrContract:
    """stderr holds a failing command's one ``error:`` line and nothing else;
    the skipped and unjudged counts go to the stdout summary."""

    @pytest.mark.parametrize("empty, without_positives", [("qrels", 40), ("queries", 0)])
    def test_no_triples_is_one_error_line(
        self, fixture_dir, work, tmp_path, empty, without_positives
    ):
        inputs = {"qrels": fixture_dir / "qrels.trec", "queries": fixture_dir / "queries.tsv"}
        inputs[empty] = tmp_path / f"empty_{empty}"
        inputs[empty].write_text("")
        result = _run_cli(
            "triples", "generate", "--index", work / "index", "--queries", inputs["queries"],
            "--qrels", inputs["qrels"], "--out", tmp_path / "triples.tsv",
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", "error: no training triples produced (skipped: "
            f"{without_positives} without positives, 0 without eligible negatives)\n"
        )

    @pytest.fixture
    def partial_qrels(self, fixture_dir, work, tmp_path):
        """The fixture's qrels without the first two queries of the BM25 run,
        and the number of queries that run holds."""
        run_queries = list(dict.fromkeys(
            line.split()[0] for line in (work / "bm25.trec").read_text().splitlines()
        ))
        lines = (fixture_dir / "qrels.trec").read_text().splitlines(keepends=True)
        assert set(run_queries) <= {line.split()[0] for line in lines}
        path = tmp_path / "partial.trec"
        path.write_text("".join(line for line in lines if line.split()[0] not in run_queries[:2]))
        return path, len(run_queries)

    def test_eval_names_unjudged_queries_on_stdout(self, work, tmp_path, partial_qrels):
        qrels, queries = partial_qrels
        result = _run_cli(
            "eval", "--run", work / "bm25.trec", "--qrels", qrels, "--cutoffs", "10,20",
            "--out", tmp_path / "report.tsv",
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith(f"all ({queries} queries, 2 without qrels): nDCG@10=")

    def test_sweep_names_unjudged_queries_on_stdout(self, work, tmp_path, partial_qrels):
        qrels, _ = partial_qrels
        result = _run_cli(
            "sweep", "--run", work / "bm25.trec", "--qrels", qrels, "--depths", "5,10",
            "--scorer", "oracle", "--out", tmp_path / "sweep.tsv",
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines()[-1] == (
            "dropped 0 of the top-10 candidates the scorer could not score; "
            "2 queries without qrels"
        )

    def test_train_kernel_names_skipped_triples_on_stdout(self, fixture_dir, work, tmp_path):
        resolvable = (work / "triples.tsv").read_text()
        triples = tmp_path / "triples.tsv"
        triples.write_text(resolvable + "q00000\tp000000\tpXXX\n")
        result = _run_cli(
            "train", "kernel", "--triples", triples,
            *[a.format(fx=fixture_dir) for a in _MATRICES], "--epochs", "2",
            "--out", tmp_path / "weights.txt",
        )
        assert (result.returncode, result.stderr) == (0, "")
        count = len(resolvable.splitlines())
        assert result.stdout.startswith(
            f"trained on {count} triples (skipped 1 without token matrices): "
        )


class TestConfigFile:
    def test_config_supplies_paths(self, fixture_dir, tmp_path):
        config = tmp_path / "conf.json"
        idx = tmp_path / "idx"
        config.write_text(
            json.dumps({"paths": {"collection": str(fixture_dir / "collection.tsv")}})
        )
        assert main(["--config", str(config), "index", "build", "--out", str(idx)]) == 0
        assert (idx / "meta.json").exists()
        # a missing path that neither flag nor config supplies is a clean error
        empty_conf = tmp_path / "empty.json"
        empty_conf.write_text("{}")
        assert main(["--config", str(empty_conf), "index", "build", "--out", str(idx)]) == 1

    def test_config_supplies_defaults_and_flags_override(self, fixture_dir, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"bm25": {"k1": 1.5, "b": 0.6}}))
        idx_a = tmp_path / "idx_a"
        assert main(
            ["--config", str(config), "index", "build",
             "--collection", str(fixture_dir / "collection.tsv"), "--out", str(idx_a)]
        ) == 0
        meta = json.loads((idx_a / "meta.json").read_text())
        assert meta["k1"] == 1.5 and meta["b"] == 0.6

        idx_b = tmp_path / "idx_b"
        assert main(
            ["--config", str(config), "index", "build",
             "--collection", str(fixture_dir / "collection.tsv"),
             "--out", str(idx_b), "--k1", "0.8"]
        ) == 0
        meta = json.loads((idx_b / "meta.json").read_text())
        assert meta["k1"] == 0.8 and meta["b"] == 0.6


class TestRerankAndSweepManifests:
    @pytest.fixture(scope="class")
    def bm25_run(self, fixture_dir, tmp_path_factory):
        work = tmp_path_factory.mktemp("rerank")
        assert main(
            ["index", "build", "--collection", str(fixture_dir / "collection.tsv"),
             "--out", str(work / "index")]
        ) == 0
        run_path = work / "bm25.trec"
        assert main(
            ["index", "search", "--index", str(work / "index"),
             "--queries", str(fixture_dir / "queries.tsv"), "--k", "30", "--out", str(run_path)]
        ) == 0
        return run_path

    def _colbert(self, command, bm25_run, fixture_dir, matrices, out, *extra):
        args = [command, "--run", str(bm25_run), "--scorer", "colbert",
                "--query-matrices", str(fixture_dir / "query_matrices.tkm"),
                "--passage-matrices", str(matrices), "--out", str(out), *extra]
        if command == "sweep":
            args += ["--qrels", str(fixture_dir / "qrels.trec"), "--depths", "10,30"]
        return main(args)

    def test_scorer_files_pinned(self, fixture_dir, bm25_run, tmp_path):
        edited = tmp_path / "passage_matrices.tkm"
        blob = bytearray((fixture_dir / "passage_matrices.tkm").read_bytes())
        blob[-4] ^= 1  # lowest mantissa bit of the last float
        edited.write_bytes(bytes(blob))
        for command in ("rerank", "sweep"):
            manifests = []
            for tag, matrices in (("orig", fixture_dir / "passage_matrices.tkm"), ("edit", edited)):
                out = tmp_path / f"{command}_{tag}.out"
                assert self._colbert(command, bm25_run, fixture_dir, matrices, out) == 0
                manifests.append(json.loads((tmp_path / f"{out.name}.manifest.json").read_text()))
            orig, edit = manifests
            assert {"run", "query_matrices", "passage_matrices"} <= set(orig["inputs"])
            assert "similarity" not in orig["config"]
            assert orig["config"]["on_missing"] == "error"
            assert orig["inputs"]["passage_matrices"]["digest"] != edit["inputs"]["passage_matrices"]["digest"]
            assert orig["inputs"]["run"] == edit["inputs"]["run"]

    def test_colbert_and_dense_bytes_do_not_depend_on_the_cpu(self, fixture_dir, bm25_run, tmp_path):
        # colbert and dense scores are numpy's pairwise sums and math.fsum;
        # their float32 BLAS screens only choose which rows are scored, so
        # another BLAS kernel or SIMD level must give the same bytes
        try:
            config = np.show_config(mode="dicts")
            blas = config["Build Dependencies"]["blas"].get("openblas configuration", "")
            found = config["SIMD Extensions"]["found"] or []
        except (TypeError, KeyError):
            pytest.skip("this numpy does not report its BLAS build and SIMD targets")
        if "DYNAMIC_ARCH" not in blas:
            pytest.skip("OpenBLAS without DYNAMIC_ARCH cannot switch kernels")
        if "X86_V4" not in found:
            pytest.skip("the CPU has no AVX-512 loops to switch off")
        avx512 = " ".join(f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if f in found)
        script = textwrap.dedent(
            """
            import sys
            from clickrank.cli import main

            out, fx, run = sys.argv[1:]
            matrices = ["--query-matrices", f"{fx}/query_matrices.tkm",
                        "--passage-matrices", f"{fx}/passage_matrices.tkm"]
            vectors = ["--query-vectors", f"{fx}/query_vectors.tkv",
                       "--passage-vectors", f"{fx}/passage_vectors.tkv"]
            assert main(["rerank", "--run", run, "--scorer", "colbert", *matrices,
                         "--out", f"{out}/colbert.trec"]) == 0
            assert main(["dense", "retrieve", *vectors, "--k", "50",
                         "--out", f"{out}/dense.trec"]) == 0
            """
        )
        forced = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
        base = {k: v for k, v in os.environ.items() if k not in forced}
        src = str(Path(__file__).resolve().parents[1] / "src")
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
        settings = {
            "default": {},
            "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
            "no_avx512": {"NPY_DISABLE_CPU_FEATURES": avx512},
        }
        written = {}
        for name, extra in settings.items():
            out = tmp_path / name
            out.mkdir()
            result = subprocess.run(
                [sys.executable, "-c", script, str(out), str(fixture_dir), str(bm25_run)],
                env={**base, **extra}, capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            written[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(written["default"]) == 4  # two runs and their manifests
        assert written["prescott"] == written["default"]
        assert written["no_avx512"] == written["default"]

    def test_oracle_qrels_and_kernel_weights_pinned(self, fixture_dir, bm25_run, tmp_path):
        out = tmp_path / "oracle.trec"
        assert main(
            ["rerank", "--run", str(bm25_run), "--scorer", "oracle",
             "--qrels", str(fixture_dir / "qrels.trec"), "--out", str(out)]
        ) == 0
        manifest = json.loads((tmp_path / "oracle.trec.manifest.json").read_text())
        assert set(manifest["inputs"]) == {"run", "qrels"}
        assert "similarity" not in manifest["config"]

    def test_dropped_candidates_reported(self, fixture_dir, bm25_run, tmp_path, capsys):
        from clickrank.embeddings import TokenMatrixStore, load_token_matrices, write_token_matrices

        store = load_token_matrices(fixture_dir / "passage_matrices.tkm")
        first = bm25_run.read_text().split()[2]
        offered = sum(line.split()[2] == first for line in bm25_run.read_text().splitlines())
        missing = tmp_path / "missing.tkm"
        write_token_matrices(
            TokenMatrixStore(store.dim, {p: m for p, m in store.items() if p != first}), missing
        )
        for command in ("rerank", "sweep"):
            out = tmp_path / f"{command}.out"
            capsys.readouterr()
            assert self._colbert(command, bm25_run, fixture_dir, missing, out) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and first in err and err.count("\n") == 1
            assert self._colbert(
                command, bm25_run, fixture_dir, missing, out, "--on-missing", "skip"
            ) == 0
            assert f"dropped {offered} " in capsys.readouterr().out
            assert self._colbert(command, bm25_run, fixture_dir, fixture_dir / "passage_matrices.tkm", out) == 0
            assert "dropped 0 " in capsys.readouterr().out


_INDEX_INPUTS = {f"index_{name.split('.')[0]}" for name in INDEX_FILES}
_INPUT_FLAGS = {
    "--collection", "--queries", "--qrels", "--clicks", "--index", "--run", "--runs", "--triples",
    "--splits", "--scores", "--weights", "--stopwords", "--query-vectors", "--passage-vectors",
    "--query-matrices", "--passage-matrices",
}
_MATRICES = ["--query-matrices", "{fx}/query_matrices.tkm", "--passage-matrices", "{fx}/passage_matrices.tkm"]
_VECTORS = ["--query-vectors", "{fx}/query_vectors.tkv", "--passage-vectors", "{fx}/passage_vectors.tkv"]
_KERNEL = ["rerank", "--run", "{work}/bm25.trec", "--scorer", "kernel", "--weights", "{bad}", *_MATRICES]
_TRIPLES = ["train", "kernel", "--triples", "{bad}", *_MATRICES, "--epochs", "1"]
_SPLITS = ["eval", "--run", "{work}/bm25.trec", "--qrels", "{fx}/qrels.trec", "--splits", "{bad}"]
_SCORES = ["rerank", "--run", "{work}/bm25.trec", "--scorer", "scores", "--scores", "{bad}"]


def _tkv(ids: list[str], rows, dim: int = 2) -> bytes:
    """A ``TKV1`` file's bytes, written field by field so that any field can be wrong."""
    head = b"TKV1" + struct.pack("<II", len(ids), dim)
    names = b"".join(struct.pack("<I", len(i.encode())) + i.encode() for i in ids)
    return head + names + np.asarray(rows, dtype="<f4").tobytes()


_TKV_GOOD = _tkv(["p0", "p1"], [[1.0, 0.0], [0.0, 1.0]])


@pytest.fixture(scope="module")
def work(fixture_dir, tmp_path_factory):
    """Inputs made from the fixture: an index, BM25 and dense runs, triples,
    kernel weights, a stopword list, a score file and a config."""
    work = tmp_path_factory.mktemp("inputs")
    fx = str(fixture_dir)
    for command in (
        ["index", "build", "--collection", f"{fx}/collection.tsv", "--out", f"{work}/index"],
        ["index", "search", "--index", f"{work}/index", "--queries", f"{fx}/queries.tsv",
         "--k", "20", "--out", f"{work}/bm25.trec"],
        ["dense", "retrieve", *[a.format(fx=fx) for a in _VECTORS], "--k", "20",
         "--out", f"{work}/dense.trec"],
        ["triples", "generate", "--index", f"{work}/index", "--queries", f"{fx}/queries.tsv",
         "--qrels", f"{fx}/qrels.trec", "--depth", "20", "--max-neg", "2",
         "--out", f"{work}/triples.tsv"],
        ["train", "kernel", "--triples", f"{work}/triples.tsv",
         *[a.format(fx=fx) for a in _MATRICES], "--epochs", "2", "--out", f"{work}/weights.txt"],
    ):
        assert main(command) == 0
    (work / "stop.txt").write_text("the of\n")
    run_lines = [line.split() for line in (work / "bm25.trec").read_text().splitlines()]
    (work / "scores.tsv").write_text("".join(f"{f[0]}\t{f[2]}\t{f[4]}\n" for f in run_lines))
    (work / "conf.json").write_text(
        json.dumps({"paths": {"run": f"{work}/bm25.trec", "qrels": f"{fx}/qrels.trec"}})
    )
    return work


class TestManifestInputs:
    """Each command's manifest pins exactly the files it read."""

    @pytest.mark.parametrize(
        "argv, out_name, expected",
        [
            (["synth", "--passages", "30", "--queries", "5"], "synth", set()),
            (["index", "build", "--collection", "{fx}/collection.tsv"], "index", {"collection"}),
            (["index", "build", "--collection", "{fx}/collection.tsv", "--stopwords", "{work}/stop.txt"],
             "index", {"collection", "stopwords"}),
            (["index", "search", "--index", "{work}/index", "--queries", "{fx}/queries.tsv"],
             "run.trec", _INDEX_INPUTS | {"queries"}),
            (["qrels", "build", "--clicks", "{fx}/clicks.tsv"], "qrels.trec", {"clicks"}),
            (["triples", "generate", "--index", "{work}/index", "--queries", "{fx}/queries.tsv",
              "--qrels", "{fx}/qrels.trec", "--depth", "20"],
             "triples.tsv", _INDEX_INPUTS | {"queries", "qrels"}),
            (["triples", "text", "--triples", "{work}/triples.tsv",
              "--collection", "{fx}/collection.tsv", "--queries", "{fx}/queries.tsv"],
             "text.tsv", {"triples", "collection", "queries"}),
            (["rerank", "--run", "{work}/bm25.trec", "--scorer", "kernel", "--weights",
              "{work}/weights.txt", *_MATRICES],
             "rerank.trec", {"run", "weights", "query_matrices", "passage_matrices"}),
            (["rerank", "--run", "{work}/bm25.trec", "--scorer", "dense", *_VECTORS],
             "rerank.trec", {"run", "query_vectors", "passage_vectors"}),
            (["rerank", "--run", "{work}/bm25.trec", "--scorer", "scores", "--scores", "{work}/scores.tsv"],
             "rerank.trec", {"run", "scores"}),
            (["rerank", "--run", "{work}/bm25.trec", "--scorer", "oracle", "--qrels", "{fx}/qrels.trec"],
             "rerank.trec", {"run", "qrels"}),
            (["dense", "retrieve", *_VECTORS], "dense.trec", {"query_vectors", "passage_vectors"}),
            (["train", "kernel", "--triples", "{work}/triples.tsv", *_MATRICES, "--epochs", "2"],
             "weights.txt", {"triples", "query_matrices", "passage_matrices"}),
            (["eval", "--run", "{work}/bm25.trec", "--qrels", "{fx}/qrels.trec"],
             "report.tsv", {"run", "qrels"}),
            (["eval", "--run", "{work}/bm25.trec", "--qrels", "{fx}/qrels.trec",
              "--splits", "{fx}/splits.tsv"],
             "report.tsv", {"run", "qrels", "splits"}),
            (["--config", "{work}/conf.json", "eval", "--splits", "{fx}/splits.tsv"],
             "report.tsv", {"run", "qrels", "splits"}),
            (["fuse", "--runs", "{work}/bm25.trec", "{work}/dense.trec"], "fused.trec", {"run_0", "run_1"}),
            (["sweep", "--run", "{work}/bm25.trec", "--qrels", "{fx}/qrels.trec", "--depths", "5,10",
              "--scorer", "colbert", *_MATRICES],
             "sweep.tsv", {"run", "qrels", "query_matrices", "passage_matrices"}),
        ],
        ids=[
            "synth", "index-build", "index-build-stopwords", "index-search", "qrels-build",
            "triples-generate", "triples-text", "rerank-kernel", "rerank-dense", "rerank-scores",
            "rerank-oracle", "dense-retrieve", "train-kernel", "eval", "eval-splits",
            "eval-config-paths", "fuse", "sweep",
        ],
    )
    def test_manifest_pins_exactly_the_files_read(
        self, fixture_dir, work, tmp_path, argv, out_name, expected
    ):
        argv = [a.format(fx=fixture_dir, work=work) for a in argv]
        out = tmp_path / out_name
        assert main([*argv, "--out", str(out)]) == 0
        manifest_path = manifest_path_for(out)
        inputs = json.loads(manifest_path.read_text())["inputs"]
        assert set(inputs) == expected
        pinned = set()
        for name, entry in inputs.items():
            path = (manifest_path.parent / entry["path"]).resolve()
            assert entry["digest"] == f"sha256:{_sha(path)}", name
            pinned.add(path)
        given = set()
        flag = None
        for arg in argv if argv[0] != "synth" else ():  # synth's --queries is a count
            if arg.startswith("--"):
                flag = arg
            elif flag in _INPUT_FLAGS:
                path = Path(arg).resolve()
                given |= {path / name for name in INDEX_FILES} if path.is_dir() else {path}
                flag = flag if flag == "--runs" else None
        if argv[0] == "--config":
            config = json.loads(Path(argv[1]).read_text())
            given |= {Path(p).resolve() for p in config["paths"].values()}
        assert given == pinned


class TestMalformedInputs:
    """A malformed input file gives one ``error:`` line naming the file and,
    unless the file is not UTF-8, the line (or byte offset) at fault, exit 1,
    and no output."""

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["eval", "--run", "{work}/bm25.trec", "--qrels", "{bad}"], "q1 0 p1 1\nq1 0 p2 -1\n",
             "line 2: qrels (q1, p2): grade must be >= 0, got -1"),
            (["train", "kernel", "--triples", "{bad}", *_MATRICES, "--epochs", "1"],
             "q\tp1\tp2\nq\tp3\tp3\n",
             "line 2: triple for query 'q': positive and negative are both 'p3'"),
            (_KERNEL, "1.0 0.001 x\nbias 0.0\n", "line 1: bad number 'x'"),
            (_KERNEL, "1.0 0.001 0.5\nbias nan\n", "line 2: bad number 'nan'"),
            (_KERNEL, "1.0 0.001 0.5\nbias 0.0\nbias 1.0\n", "line 3: second bias line"),
            (_KERNEL, "bias 0.0\n", "kernel bank must contain at least one kernel"),
            (_KERNEL, "0.5 0.1 1.0\n0.9 0.1 1.0\nbias 0.0\n",
             "kernel centers must be strictly descending, got (0.5, 0.9)"),
            (_KERNEL, "1.0 0.0 0.5\nbias 0.0\n",
             "kernel widths must be finite and positive, got (0.0,)"),
            (["index", "build", "--collection", "{bad}"], "p0\tsome text\np 1\tmore text\n",
             "line 2: id 'p 1' contains whitespace"),
            (["index", "search", "--index", "{work}/index", "--queries", "{bad}"],
             "q0\ttext\n\nq\u00a01\ttext\n", "line 3: id 'q\\xa01' contains whitespace"),
            (["qrels", "build", "--clicks", "{bad}"], "q0\tp0\t3\t1\nq 1\tp0\t3\t1\n",
             "line 2: id 'q 1' contains whitespace"),
            (["qrels", "build", "--clicks", "{bad}"], "q0\tp0\t3\t1\nq1\tp\x0b0\t3\t1\n",
             "line 2: id 'p\\x0b0' contains whitespace"),
            (_TRIPLES, "q\tp1\tp2 \n", "line 1: id 'p2 ' contains whitespace"),
            (_SPLITS, "q0\thead\nq 1\ttail\n", "line 2: id 'q 1' contains whitespace"),
            (_SCORES, "q0\tp0\t1.0\nq0\tp\t1\t2.0\n", "line 2: expected query_id<TAB>passage_id<TAB>score"),
            (_SCORES, "q0\tp0\t1.0\nq0\tp 1\t2.0\n", "line 2: id 'p 1' contains whitespace"),
            (_SCORES, "q0\tp0\t1.5\nq0\tp0\t2.0\n", "line 2: pair ('q0', 'p0') scored both 1.5 and 2.0"),
            (["eval", "--run", "{work}/bm25.trec", "--qrels", "{bad}"], "q1 0 p1 2\nq1 0 p1 0\n",
             "line 2: pair ('q1', 'p1') graded both 2 and 0"),
            (["eval", "--run", "{work}/bm25.trec", "--qrels", "{bad}"], "q1 0 p1 x\n",
             "line 1: non-integer grade"),
            (_SPLITS, "q0\thead\tx\n", "line 1: expected query_id<TAB>split"),
            (_SPLITS, "q0\thead\nq1\thead \n",
             "line 2: split 'head ' not in ('head', 'torso', 'tail', 'train', 'validation')"),
            (["eval", "--run", "{bad}", "--qrels", "{fx}/qrels.trec"], "q1 Q0 p1 1 2.0\n",
             "line 1: expected 'qid Q0 pid rank score run'"),
            (["eval", "--run", "{bad}", "--qrels", "{fx}/qrels.trec"],
             "q1 Q0 p1 1 2.0 r\nq1 Q0 p2 2 1.0 r\nq1 Q0 p1 3 0.5 r\n",
             "line 3: duplicate passage 'p1' for query 'q1'"),
            (["eval", "--run", "{bad}", "--qrels", "{fx}/qrels.trec"],
             "q1 Q0 p1 1 2.0 bm25\nq2 Q0 p2 1 1.0 dense\n",
             "line 2: run 'dense' after run 'bm25'; a file holds one run"),
            (["qrels", "build", "--clicks", "{bad}"], "q0\tp0\t3\n",
             "line 1: expected 4 tab-separated columns"),
            (["qrels", "build", "--clicks", "{bad}"], "q0\tp0\t3\tx\n", "line 1: non-integer counts"),
            (_TRIPLES, "q\tp1\n", "line 1: expected 3 tab-separated ids"),
            (["index", "build", "--collection", "{bad}"], "p0\ttext\n\tno id\n", "line 2: empty id column"),
            (["eval", "--run", "{work}/bm25.trec", "--qrels", "{bad}"], b"q1 0 p\xff 1\n",
             "not valid UTF-8 text"),
            (["index", "build", "--collection", "{bad}"], b"p0\ttext\np1\tt\xffxt\n", "not valid UTF-8 text"),
            (["index", "build", "--collection", "{fx}/collection.tsv", "--stopwords", "{bad}"],
             b"the\n\xff\n", "not valid UTF-8 text"),
            (["index", "build", "--collection", "{fx}/collection.tsv", "--stopwords", "{bad}"],
             "the\nof E-mail\n",
             "line 2: stopword 'e-mail' is not one token (it tokenizes to ['e', 'mail'])"),
            (["index", "build", "--collection", "{fx}/collection.tsv", "--stopwords", "{bad}"],
             "covid_19\n", "line 1: stopword 'covid_19' is not one token (it tokenizes to "
             "['covid', '19'])"),
            (["index", "build", "--collection", "{fx}/collection.tsv", "--stopwords", "{bad}"],
             "a\n\nthe don't\n",
             "line 3: stopword \"don't\" is not one token (it tokenizes to ['don', 't'])"),
        ],
        ids=[
            "qrels-negative-grade", "triples-same-id", "weights-unparsable", "weights-nan-bias",
            "weights-second-bias", "weights-bias-only", "weights-ascending-centers",
            "weights-zero-width", "collection-spaced-id", "queries-spaced-id",
            "clicks-spaced-query-id", "clicks-spaced-passage-id", "triples-spaced-id",
            "splits-spaced-id", "scores-columns", "scores-spaced-id", "scores-repeated-pair",
            "qrels-repeated-pair", "qrels-non-integer-grade", "splits-columns",
            "splits-unknown-label", "run-columns",
            "run-duplicate-passage", "run-two-names", "clicks-columns", "clicks-non-integer-counts",
            "triples-columns",
            "collection-empty-id", "qrels-not-utf8", "collection-not-utf8", "stopwords-not-utf8",
            "stopword-hyphen", "stopword-underscore", "stopword-apostrophe",
        ],
    )
    def test_malformed_input_names_file_and_line(
        self, fixture_dir, work, tmp_path, capsys, argv, text, message
    ):
        bad = tmp_path / "bad.txt"
        if isinstance(text, bytes):
            bad.write_bytes(text)
        else:
            bad.write_text(text, encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "out"
        code = main([a.format(work=work, fx=fixture_dir, bad=bad) for a in argv] + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["index", "build", "--collection", "{fx}/collection.tsv", "--out", ""], {},
             "missing index output directory: pass --out or set paths.out in the config"),
            (["index", "build", "--collection", "", "--out", "{tmp}/index"], {},
             "missing collection: pass --collection or set paths.collection in the config"),
            (["index", "search", "--index", "", "--queries", "{fx}/queries.tsv",
              "--out", "{tmp}/run.trec"], {},
             "missing index directory: pass --index or set paths.index in the config"),
            (["index", "build", "--collection", "{fx}/collection.tsv"], {"paths": {"out": ""}},
             "missing index output directory: pass --out or set paths.out in the config"),
        ],
        ids=["out-flag", "collection-flag", "index-flag", "out-config"],
    )
    def test_empty_path_counts_as_missing(
        self, fixture_dir, tmp_path, monkeypatch, capsys, argv, config, message
    ):
        # an empty path read as a path names the working directory
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        capsys.readouterr()
        code = main(["--config", str(conf), *(a.format(fx=fixture_dir, tmp=tmp_path) for a in argv)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json", "cwd"]
        assert list(cwd.iterdir()) == []

    def test_empty_path_flag_leaves_the_config_path(self, fixture_dir, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"paths": {"out": str(tmp_path / "index")}}))
        argv = ["index", "build", "--collection", str(fixture_dir / "collection.tsv"), "--out", ""]
        assert main(["--config", str(conf), *argv]) == 0
        assert (tmp_path / "index" / "meta.json").exists()
        # an empty --config is no config file
        argv[-1] = str(tmp_path / "default")
        assert main(["--config", "", *argv]) == 0
        assert json.loads((tmp_path / "default" / "meta.json").read_text())["k1"] == DEFAULT_K1

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["dense", "retrieve", "--query-vectors", "{fx}/query_vectors.tkv",
              "--passage-vectors", "{bad}"], "vectors"),
            (["rerank", "--run", "{work}/bm25.trec", "--scorer", "colbert",
              "--query-matrices", "{fx}/query_matrices.tkm", "--passage-matrices", "{bad}"],
             "matrices"),
        ],
        ids=["tkv1", "tkm1"],
    )
    def test_embedding_id_with_whitespace_names_its_offset(
        self, fixture_dir, work, tmp_path, capsys, argv, kind
    ):
        from clickrank.embeddings import (
            TokenMatrixStore,
            VectorStore,
            write_token_matrices,
            write_vectors,
        )

        bad = tmp_path / "bad.bin"
        if kind == "vectors":
            write_vectors(VectorStore(2, {"p0": np.ones(2), "p 1": np.ones(2)}), bad)
        else:
            write_token_matrices(TokenMatrixStore(2, {"p0": np.ones((3, 2)), "p 1": np.ones((1, 2))}), bad)
        offset = bad.read_bytes().index(b"p 1")
        capsys.readouterr()
        out = tmp_path / "out"
        code = main([a.format(work=work, fx=fixture_dir, bad=bad) for a in argv] + ["--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: offset {offset}: id 'p 1' contains whitespace\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--query-vectors", "--passage-vectors"])
    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"TKM1" + _TKV_GOOD[4:], "not a vector file (bad magic)"),
            (b"", "truncated file (needed 4 bytes at offset 0)"),
            (_TKV_GOOD[:-4], "truncated file (needed 16 bytes at offset 24)"),
            (_TKV_GOOD + b"\0", "1 trailing bytes after payload"),
            (_tkv(["p0"], [], dim=0), "header dim must be >= 1, got 0"),
            (_tkv(["p0", "p0"], [[1.0, 0.0], [0.0, 1.0]]), "duplicate id 'p0'"),
            (_tkv(["p0", "p1"], [[1.0, np.nan], [0.0, 1.0]]),
             "vector for id 'p0' has a non-finite component"),
        ],
        ids=["bad-magic", "empty", "truncated", "trailing-bytes", "dim-0", "duplicate-id", "nan"],
    )
    def test_malformed_vector_file(self, fixture_dir, tmp_path, capsys, flag, payload, message):
        bad = tmp_path / "bad.tkv"
        bad.write_bytes(payload)
        argv = [a.format(fx=fixture_dir) for a in _VECTORS]
        argv[argv.index(flag) + 1] = str(bad)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["dense", "retrieve", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        # no run, manifest or temporary file
        assert [p.name for p in tmp_path.iterdir()] == ["bad.tkv"]

    @pytest.mark.parametrize(
        "depths, message",
        [
            ("10,5", "depths must be strictly ascending, got [10, 5]"),
            ("0,5", "depths must be >= 1"),
            ("", "need at least one depth"),
        ],
        ids=["falling", "zero", "none"],
    )
    def test_sweep_checks_depths_before_scoring(
        self, fixture_dir, work, tmp_path, capsys, monkeypatch, depths, message
    ):
        from clickrank import cli

        calls = []

        class Counting:
            name = "counting"

            def score_batch(self, qid, pids):
                calls.append(qid)
                return np.zeros(len(pids))

        monkeypatch.setattr(cli, "_build_scorer", lambda args, inputs: Counting())
        argv = ["sweep", "--run", f"{work}/bm25.trec", "--qrels", f"{fixture_dir}/qrels.trec",
                "--scorer", "oracle", "--out", str(tmp_path / "sweep.tsv")]
        assert main(argv + ["--depths", "5,10"]) == 0
        assert calls
        calls.clear()
        capsys.readouterr()
        assert main(argv + ["--depths", depths]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []

    def test_sweep_over_a_run_without_queries(self, fixture_dir, tmp_path, capsys):
        empty = tmp_path / "empty.trec"
        empty.write_text("")
        out = tmp_path / "sweep.tsv"
        code = main(
            ["sweep", "--run", str(empty), "--qrels", str(fixture_dir / "qrels.trec"),
             "--scorer", "oracle", "--depths", "5,10", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: run 'run' has no queries to sweep\n"
        assert not out.exists()


# For each setting in the option table: the command that reads it (its other
# inputs given as flags), a config value, a flag value, and what the manifest
# records from each.
_SETTINGS = {
    ("bm25", "k1"): (["index", "build", "--collection", "{fx}/collection.tsv"], 1.1, "0.7", 1.1, 0.7),
    ("bm25", "b"): (["index", "build", "--collection", "{fx}/collection.tsv"], 0.5, "0.3", 0.5, 0.3),
    ("bm25", "k"): (["index", "search", "--index", "{work}/index", "--queries", "{fx}/queries.tsv"],
                    7, "9", 7, 9),
    ("qrels", "thresholds"): (["qrels", "build", "--clicks", "{fx}/clicks.tsv"],
                              [0.2, 1], "0.15,0.5", [0.2, 1], [0.15, 0.5]),
    **{
        ("sampling", key): (
            ["triples", "generate", "--index", "{work}/index", "--queries", "{fx}/queries.tsv",
             "--qrels", "{fx}/qrels.trec"],
            config, flag, int(config), int(flag),
        )
        for key, config, flag in (
            ("depth", 20.0, "25"), ("max_neg", 2, "4"), ("cap", 40, "60"), ("seed", 3.0, "4")
        )
    },
    ("rerank", "depth"): (["rerank", "--run", "{work}/bm25.trec", "--scorer", "oracle",
                           "--qrels", "{fx}/qrels.trec"], 5, "7", 5, 7),
    ("dense", "k"): (["dense", "retrieve", *_VECTORS], 5, "7", 5, 7),
    **{
        ("train", key): (
            ["train", "kernel", "--triples", "{work}/triples.tsv", *_MATRICES,
             *(["--epochs", "1"] if key != "epochs" else [])],
            config, flag, config, type(config)(flag),
        )
        for key, config, flag in (
            ("lr", 0.02, "0.05"), ("epochs", 2, "3"), ("margin", 0.5, "1.5"), ("seed", 3, "4")
        )
    },
    ("kernel_bank", "mus"): (
        ["train", "kernel", "--triples", "{work}/triples.tsv", *_MATRICES, "--epochs", "1",
         "--sigmas", "0.001,0.1"],
        [1, 0.5], "1.0,0.2", [1, 0.5], [1.0, 0.2],
    ),
    ("kernel_bank", "sigmas"): (
        ["train", "kernel", "--triples", "{work}/triples.tsv", *_MATRICES, "--epochs", "1",
         "--mus", "1.0,0.5"],
        [0.001, 0.2], "0.001,0.3", [0.001, 0.2], [0.001, 0.3],
    ),
    ("eval", "cutoffs"): (["eval", "--run", "{work}/bm25.trec", "--qrels", "{fx}/qrels.trec"],
                          "5,50,100", "10,20", [5, 50, 100], [10, 20]),
    ("synth", "seed"): (["synth", "--passages", "20", "--queries", "3"], 3, "4", 3, 4),
}
# For each path: the command that reads it (its other inputs given as flags)
# and the file it names, copied once for the config and once for the flag.
_PATHS = {
    "collection": (["index", "build"], "{fx}/collection.tsv"),
    "stopwords": (["index", "build", "--collection", "{fx}/collection.tsv"], "{work}/stop.txt"),
    "index": (["index", "search", "--queries", "{fx}/queries.tsv", "--k", "5"], "{work}/index"),
    "queries": (["index", "search", "--index", "{work}/index", "--k", "5"], "{fx}/queries.tsv"),
    "clicks": (["qrels", "build"], "{fx}/clicks.tsv"),
    "qrels": (["eval", "--run", "{work}/bm25.trec"], "{fx}/qrels.trec"),
    "run": (["eval", "--qrels", "{fx}/qrels.trec"], "{work}/bm25.trec"),
    "splits": (["eval", "--run", "{work}/bm25.trec", "--qrels", "{fx}/qrels.trec"], "{fx}/splits.tsv"),
    "triples": (["train", "kernel", *_MATRICES, "--epochs", "1"], "{work}/triples.tsv"),
    "weights": (["rerank", "--run", "{work}/bm25.trec", "--scorer", "kernel", "--depth", "5",
                 *_MATRICES], "{work}/weights.txt"),
    "scores": (["rerank", "--run", "{work}/bm25.trec", "--scorer", "scores"], "{work}/scores.tsv"),
    "query_vectors": (["dense", "retrieve", *_VECTORS[2:], "--k", "5"], "{fx}/query_vectors.tkv"),
    "passage_vectors": (["dense", "retrieve", *_VECTORS[:2], "--k", "5"], "{fx}/passage_vectors.tkv"),
    "query_matrices": (["rerank", "--run", "{work}/bm25.trec", "--scorer", "colbert", "--depth", "5",
                        *_MATRICES[2:]], "{fx}/query_matrices.tkm"),
    "passage_matrices": (["rerank", "--run", "{work}/bm25.trec", "--scorer", "colbert",
                          "--depth", "5", *_MATRICES[:2]], "{fx}/passage_matrices.tkm"),
    "out": (["synth", "--passages", "20", "--queries", "3"], None),
}


class TestUnwritableOutputs:
    """A write that fails names the path the user gave, not the temporary
    file beside it, and leaves no temporary file behind."""

    @pytest.mark.parametrize("flag", ["--out", "--json"])
    def test_output_under_a_missing_directory(self, fixture_dir, work, tmp_path, capsys, flag):
        missing = tmp_path / "missing" / "report"
        paths = {"--out": tmp_path / "report.tsv", "--json": tmp_path / "report.json", flag: missing}
        argv = ["eval", "--run", f"{work}/bm25.trec", "--qrels", f"{fixture_dir}/qrels.trec"]
        for name, path in paths.items():
            argv += [name, str(path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n"
        )

    def test_output_naming_a_directory(self, fixture_dir, work, tmp_path, capsys, monkeypatch):
        (tmp_path / "adir").mkdir()
        monkeypatch.chdir(tmp_path)
        argv = ["eval", "--run", f"{work}/bm25.trec", "--qrels", f"{fixture_dir}/qrels.trec"]
        assert main([*argv, "--out", "adir"]) == 1
        assert capsys.readouterr().err == "error: [Errno 21] Is a directory: 'adir'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]


class TestOptionTable:
    """Every option of ``cli._OPTIONS`` reads its config key and loses to its
    flag; the whole config is checked whichever command runs."""

    @pytest.mark.parametrize(
        "section, key", sorted(_OPTIONS), ids=[".".join(option) for option in sorted(_OPTIONS)]
    )
    def test_config_value_reaches_the_manifest_and_the_flag_overrides_it(
        self, fixture_dir, work, tmp_path, section, key
    ):
        if section == "paths":
            argv, source = _PATHS[key]
            source = source and Path(source.format(fx=fixture_dir, work=work))
            expected = []
            for tag in ("config", "flag"):
                path = tmp_path / tag / (source.name if source else "out")
                path.parent.mkdir()
                if source:
                    (shutil.copytree if source.is_dir() else shutil.copy)(source, path)
                expected.append(path.resolve())
            config, flag = map(str, expected)
        else:
            argv, config, flag, *expected = _SETTINGS[section, key]
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({section: {key: config}}))
        argv = ["--config", str(conf), *(a.format(fx=fixture_dir, work=work) for a in argv)]
        recorded = []
        for i, extra in enumerate(([], [f"--{key.replace('_', '-')}", flag])):
            if key == "out":
                out = Path(extra[1] if extra else config)
                assert main(argv + extra) == 0
            else:
                out = tmp_path / f"out{i}"
                assert main(argv + ["--out", str(out)] + extra) == 0
            manifest_path = manifest_path_for(out)
            manifest = json.loads(manifest_path.read_text())  # where the command wrote it
            if key == "out":
                recorded.append(manifest_path.parent.resolve())
            elif section == "paths":
                entry = manifest["inputs"]["index_meta" if key == "index" else key]
                path = (manifest_path.parent / entry["path"]).resolve()
                recorded.append(path.parent if key == "index" else path)
            else:
                recorded.append(manifest["seed"] if key == "seed" else manifest["config"][key])
        assert recorded == expected

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"bm52": {"k1": 1.0}}, "unknown config section 'bm52'"),
            ({"bm25": {"k_1": 3.0}}, "unknown config key bm25.k_1; bm25 takes ['k1', 'b', 'k']"),
            ({"paths": {"telemetry": "t.json"}}, "unknown config key paths.telemetry; paths takes"),
        ],
        ids=["section", "bm25-k_1", "paths-telemetry"],
    )
    def test_unknown_section_or_key_is_one_error_line(
        self, fixture_dir, tmp_path, capsys, config, named
    ):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        out = tmp_path / "index"
        code = main(
            ["--config", str(conf), "index", "build",
             "--collection", str(fixture_dir / "collection.tsv"), "--out", str(out)]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {named}")
        assert not out.exists()

    def test_wrong_kind_in_a_section_the_command_does_not_read_is_rejected(
        self, fixture_dir, tmp_path, capsys
    ):
        # index build reads only bm25 and paths; the whole file is checked all the same
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"bm25": {"k1": 1.2}, "train": {"epochs": "many"}}))
        out = tmp_path / "index"
        code = main(
            ["--config", str(conf), "index", "build",
             "--collection", str(fixture_dir / "collection.tsv"), "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: config value train.epochs must be an integer, got 'many'\n"
        )
        assert not out.exists()

    def test_infinite_k1_is_one_error_line(self, fixture_dir, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text('{"bm25": {"k1": 1e999}}')  # JSON's reader takes 1e999 as inf
        out = tmp_path / "index"
        code = main(
            ["--config", str(conf), "index", "build",
             "--collection", str(fixture_dir / "collection.tsv"), "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: BM25 k1 must be >= 0 and finite, got inf\n"
        assert not out.exists()

    def test_readme_lists_exactly_the_table(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(
            r"^\| `(\w+)\.(\w+)` \| `[^|]*` \| ([^|]*) \|", readme.read_text(), re.MULTILINE
        )
        assert sorted((section, key) for section, key, _ in rows) == sorted(_OPTIONS)
        every = ", ".join(f"`{row.name}`" for row in _COMMANDS)
        for section, key, listed in rows:
            option = _OPTIONS[section, key]
            taking = ", ".join(f"`{row.name}`" for row in _COMMANDS if option in row.options)
            assert listed == ("every command" if taking == every else taking), f"{section}.{key}"

    def test_readme_lists_exactly_the_flags_without_a_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = re.search(r"The other flags \((.*?)\)\s+have no config key", readme, re.DOTALL)[1]
        flags = {
            row.name: {flag[0][0] for flag in row.flags if not isinstance(flag, str)}
            for row in _COMMANDS
        }
        assert flags.pop("synth") == {"--passages", "--queries", "--dim", "--term-dim"}
        assert listed.endswith("`synth`'s sizes")
        assert set(re.findall(r"`(--[\w-]+)`", listed)) == set().union(*flags.values())
