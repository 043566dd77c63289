import hashlib
import json

import pytest

from clickrank.cli import main


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
            "static_embedding.txt",
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

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["index", "build", "--bogus", "x"])
        assert exc.value.code == 2

    def test_scorer_flag_validation(self, fixture_dir, tmp_path, capsys):
        code = main(
            ["rerank", "--run", str(fixture_dir / "queries.tsv"), "--depth", "10",
             "--scorer", "dense", "--out", str(tmp_path / "o.trec")]
        )
        assert code == 1
        assert "query-vectors" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "conf.json"
        bad.write_text("{not json")
        code = main(
            ["--config", str(bad), "synth", "--out", str(tmp_path / "fx"),
             "--passages", "50", "--queries", "5"]
        )
        assert code == 1
        assert "JSON" in capsys.readouterr().err


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

    def test_global_seed_flag(self, fixture_dir, tmp_path):
        index_dir = tmp_path / "idx"
        assert main(
            ["index", "build", "--collection", str(fixture_dir / "collection.tsv"),
             "--out", str(index_dir)]
        ) == 0
        outs = []
        for tag, args in (
            ("global", ["--seed", "55", "triples", "generate"]),
            ("local", ["triples", "generate", "--seed", "55"]),
        ):
            out = tmp_path / f"{tag}.tsv"
            assert main(
                args + ["--index", str(index_dir),
                        "--queries", str(fixture_dir / "queries.tsv"),
                        "--qrels", str(fixture_dir / "qrels.trec"),
                        "--depth", "100", "--max-neg", "5", "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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
            assert orig["config"]["similarity"] == "dot"
            assert orig["config"]["on_missing"] == "error"
            assert orig["inputs"]["passage_matrices"]["digest"] != edit["inputs"]["passage_matrices"]["digest"]
            assert orig["inputs"]["run"] == edit["inputs"]["run"]

    def test_oracle_qrels_and_kernel_weights_pinned(self, fixture_dir, bm25_run, tmp_path):
        out = tmp_path / "oracle.trec"
        assert main(
            ["rerank", "--run", str(bm25_run), "--scorer", "oracle",
             "--qrels", str(fixture_dir / "qrels.trec"), "--out", str(out)]
        ) == 0
        manifest = json.loads((tmp_path / "oracle.trec.manifest.json").read_text())
        assert set(manifest["inputs"]) == {"run", "qrels"}
        assert manifest["config"]["similarity"] is None

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
