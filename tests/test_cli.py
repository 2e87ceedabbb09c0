"""End-to-end command line runs, in process via main(argv)."""

import argparse
import json
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from recforest import cli
from recforest.cli import _write_predictions, build_parser, main
from recforest.data import _BLOCK, load_dataset
from recforest.forest import predict_many
from recforest.serialize import load_forest

from helpers import predictions_text_whole, save_dataset_whole


def _gen(tmp_path, name="data", extra=()):
    out = str(tmp_path / name)
    rc = main(["gen", "--out", out, "--m", "80", "--n", "8",
               "--seed", "3", *extra])
    assert rc == 0
    return out


def _train(tmp_path, data, name="forest.json", extra=()):
    out = str(tmp_path / name)
    rc = main(["train", "--data", data, "--out", out,
               "--trees", "2", "--max-depth", "4", *extra])
    assert rc == 0
    return out


class TestGen:
    def test_writes_dataset_and_metadata(self, tmp_path, capsys):
        out = _gen(tmp_path)
        assert os.path.exists(os.path.join(out, "dataset.json"))
        assert os.path.exists(os.path.join(out, "metadata.json"))
        line = capsys.readouterr().out.strip()
        assert line.startswith("M=80 C=5 N=8 F=")

    def test_invalid_size_fails_cleanly(self, tmp_path, capsys):
        out = str(tmp_path / "bad")
        rc = main(["gen", "--out", out, "--m", "0"])
        assert rc == 1
        assert "M must be" in capsys.readouterr().err
        assert not os.path.exists(out)  # nothing written for a bad config

    @pytest.mark.parametrize(
        "flag, field",
        [
            ("--yaw-range=-1e308,1e308", "yaw_range"),
            ("--yaw-range=-inf,inf", "yaw_range"),
            ("--half-width=nan", "cluster_half_width"),
            ("--in-noise=nan", "in_noise"),
            ("--centers=nan", "cluster_centers"),
            ("--score-noise=inf", "score_noise"),
        ],
    )
    def test_non_finite_value_fails_cleanly(self, tmp_path, capsys, flag, field):
        out = str(tmp_path / "bad")
        assert main(["gen", "--out", out, "--m", "4", flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: %s " % field) and err.count("\n") == 1
        assert "Traceback" not in err
        assert not os.path.exists(out)

    def test_deterministic_bytes(self, tmp_path):
        a = _gen(tmp_path, "a")
        b = _gen(tmp_path, "b")
        c = _gen(tmp_path, "c", extra=("--score-noise", "0.2"))
        ds_a = open(os.path.join(a, "dataset.json"), "rb").read()
        assert ds_a == open(os.path.join(b, "dataset.json"), "rb").read()
        assert ds_a != open(os.path.join(c, "dataset.json"), "rb").read()

    def test_flags_beat_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"sample_count": 30, "landmark_count": 6}))
        out = str(tmp_path / "cfg")
        rc = main(["gen", "--out", out, "--config", str(cfg)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("M=30 C=5 N=6")
        rc = main(["gen", "--out", out, "--config", str(cfg), "--m", "40"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("M=40 C=5 N=6")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"smaple_count": 30}))
        rc = main(["gen", "--out", str(tmp_path / "x"), "--config", str(cfg)])
        assert rc == 1
        assert "unknown config keys for gen: smaple_count" in capsys.readouterr().err


class TestConfigTypes:
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("train", {"tree_count": "3"}),
            ("train", {"tree_count": None}),
            ("train", {"bootstrap_fraction": "0.5"}),
            ("train", {"max_depth": 2.5}),
            ("train", {"val": "0.3"}),
            ("gen", {"cluster_centers": 5}),
            ("gen", {"sample_count": "40"}),
            ("gen", {"in_cluster_only": "yes"}),
            ("compare", {"fold_count": "2"}),
            ("compare", {"train": {"tree_count": "2"}}),
            ("compare", {"strategies": "rec-forest"}),
            ("compare", {"cluster_centers": [None, 1, 2, 3, 4]}),
        ],
    )
    def test_wrong_json_type_fails_cleanly(self, tmp_path, capsys, command, doc):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg)]
        if command == "gen":
            argv += ["--out", str(tmp_path / "data")]
        else:
            argv += ["--data", _gen(tmp_path)]
            if command == "train":
                argv += ["--out", str(tmp_path / "f.json")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_flag_overrides_mistyped_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"sample_count": "30", "landmark_count": 6}))
        argv = ["gen", "--out", str(tmp_path / "data"), "--config", str(cfg)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: sample_count must be an integer\n"
        assert main(argv + ["--m", "40"]) == 0
        assert capsys.readouterr().out.startswith("M=40 C=5 N=6")

    def test_config_value_error_before_data_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"tree_count": 0}))
        rc = main(["train", "--data", str(tmp_path / "missing"), "--config", str(cfg),
                   "--out", str(tmp_path / "f.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: tree_count must be >= 1\n"


class TestTrain:
    def test_rec_method(self, tmp_path, capsys):
        data = _gen(tmp_path)
        forest_path = _train(tmp_path, data)
        out = capsys.readouterr().out
        assert "method=rec trees=2 gamma=" in out
        assert "val-visibility-accuracy=" in out
        forest = load_forest(forest_path)
        assert len(forest.trees) == 2

    def test_class_method(self, tmp_path, capsys):
        data = _gen(tmp_path)
        forest_path = _train(tmp_path, data, "cls.json", extra=("--method", "class"))
        assert "method=class" in capsys.readouterr().out
        forest = load_forest(forest_path)
        assert forest.kind == "classification"

    def test_same_seed_same_file(self, tmp_path):
        data = _gen(tmp_path)
        a = _train(tmp_path, data, "a.json")
        b = _train(tmp_path, data, "b.json")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_bad_val_fraction(self, tmp_path, capsys):
        data = _gen(tmp_path)
        rc = main(["train", "--data", data, "--out", str(tmp_path / "f.json"),
                   "--trees", "1", "--val", "0"])
        assert rc == 1
        assert "--val" in capsys.readouterr().err

    def test_malformed_dataset_fails_cleanly(self, tmp_path, capsys):
        data = _gen(tmp_path)
        path = os.path.join(data, "dataset.json")
        doc = json.loads(open(path).read())
        doc["sampleCount"] = None
        with open(path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        rc = main(["train", "--data", data, "--out", str(tmp_path / "f.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sampleCount")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mutate", [
        lambda d: d["samples"][0]["features"].__setitem__(0, "0.5"),
        lambda d: d["masks"][0].__setitem__(0, True),
        lambda d: d["masks"][0].append(1),
    ], ids=["string-feature-score", "bool-mask-entry", "ragged-masks"])
    def test_wrong_json_type_fails_cleanly(self, tmp_path, capsys, mutate):
        data = _gen(tmp_path)
        path = os.path.join(data, "dataset.json")
        save_dataset_whole(load_dataset(path), path)
        doc = json.loads(open(path).read())
        mutate(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        rc = main(["train", "--data", data, "--out", str(tmp_path / "f.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_malformed_version_2_block_fails_cleanly(self, tmp_path, capsys):
        data = _gen(tmp_path)
        path = os.path.join(data, "dataset.json")
        doc = json.loads(open(path).read())
        doc["blocks"][0]["features"] = "*" + doc["blocks"][0]["features"][1:]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        assert main(["train", "--data", data, "--out", str(tmp_path / "f.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: block 0: features is not base64: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_val_checked_before_the_data_is_read(self, tmp_path, capsys, source):
        argv = ["train", "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "f.json")]
        if source == "flag":
            argv += ["--val", "2"]
        else:
            (tmp_path / "c.json").write_text(json.dumps({"val": 2}))
            argv += ["--config", str(tmp_path / "c.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --val must be in (0, 1)\n"

    def test_missing_data_dir(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "f.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestDatasetVersions:
    def test_version_1_and_2_give_the_same_outputs(self, tmp_path, monkeypatch, capsys):
        """At the preset, `train`, `predict` and `eval` read a data directory
        holding the version-1 document as they read the version-2 file `gen`
        writes: every output file and every stdout byte for byte."""
        assert main(["gen", "--out", str(tmp_path / "v2" / "data"), "--seed", "0"]) == 0
        shutil.copytree(tmp_path / "v2" / "data", tmp_path / "v1" / "data")
        v1_path = tmp_path / "v1" / "data" / "dataset.json"
        save_dataset_whole(load_dataset(v1_path), v1_path)
        assert json.loads(v1_path.read_text())["formatVersion"] == 1
        outputs = {}
        for version in ("v1", "v2"):
            monkeypatch.chdir(tmp_path / version)
            capsys.readouterr()
            scoring = ["--forest", "forest.json", "--data", "data"]
            assert main(["train", "--data", "data", "--out", "forest.json",
                         "--trees", "3", "--seed", "1"]) == 0
            assert main(["predict", *scoring, "--out", "predictions.json"]) == 0
            assert main(["eval", *scoring, "--format", "records", "--out", "eval.json"]) == 0
            outputs[version] = [capsys.readouterr().out] + [
                open(name, "rb").read()
                for name in ("forest.json", "predictions.json", "eval.json")]
        assert outputs["v1"] == outputs["v2"]


class TestPredict:
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_gamma_out_of_range_fails_cleanly(self, tmp_path, capsys, monkeypatch, command):
        """A forest whose `gamma` is set out of range after loading, as a
        library caller may do, is refused with one `error:` line."""
        data = _gen(tmp_path)
        forest_path = _train(tmp_path, data)

        def load_nan_gamma(path):
            forest = load_forest(path)
            forest.gamma = float("nan")
            return forest

        monkeypatch.setattr(cli, "load_forest", load_nan_gamma)
        capsys.readouterr()
        out = str(tmp_path / "out.json")
        assert main([command, "--forest", forest_path, "--data", data, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: gamma must lie in [0, 1]\n"
        assert captured.out == "" and not os.path.exists(out)

    def test_record_file_matches_in_process(self, tmp_path):
        data = _gen(tmp_path)
        forest_path = _train(tmp_path, data)
        out = str(tmp_path / "pred.json")
        rc = main(["predict", "--forest", forest_path, "--data", data,
                   "--out", out])
        assert rc == 0
        doc = json.loads(open(out).read())
        assert doc["formatVersion"] == 1
        assert doc["sampleCount"] == 80
        forest = load_forest(forest_path)
        dataset = load_dataset(os.path.join(data, "dataset.json"))
        landmarks, conf, flags = predict_many(
            forest, dataset.responses, dataset.features
        )
        for m, sample in enumerate(doc["samples"]):
            assert np.array_equal(np.asarray(sample["landmarks"]), landmarks[m])
            assert np.array_equal(np.asarray(sample["confidences"]), conf[m])
            assert np.array_equal(np.asarray(sample["flags"]), flags[m])

    def test_rerun_byte_identical(self, tmp_path):
        data = _gen(tmp_path)
        forest_path = _train(tmp_path, data)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["predict", "--forest", forest_path, "--data", data, "--out", a]) == 0
        assert main(["predict", "--forest", forest_path, "--data", data, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_protocol_mismatch(self, tmp_path, capsys):
        data = _gen(tmp_path)
        other = _gen(tmp_path, "other", extra=("--centers=-30,30",))
        forest_path = _train(tmp_path, data)
        rc = main(["predict", "--forest", forest_path, "--data", other,
                   "--out", str(tmp_path / "p.json")])
        assert rc == 1
        assert "protocol" in capsys.readouterr().err


def _predictions(rng, M, N):
    """Random prediction arrays with the values whose text is easiest to
    get wrong: -0.0, a subnormal-scale 1e-300, 1e16 (written `1e+16`), and
    confidences of exactly 0.0 and 1.0."""
    landmarks = rng.normal(size=(M, N, 2))
    confidences = rng.random((M, N))
    special = [-0.0, 1e-300, 1e16, -1e16, 0.5]
    landmarks.reshape(-1)[:len(special)] = special[:landmarks.size]
    confidences.reshape(-1)[:2] = [0.0, 1.0][:confidences.size]
    return landmarks, confidences, confidences >= 0.5


class TestPredictionsWriter:
    """`cli._write_predictions` against one `json.dumps(indent=1)` of the
    whole payload (`tests/helpers.py`)."""

    @pytest.mark.parametrize("M, N", [(0, 5), (1, 5), (_BLOCK - 1, 5), (_BLOCK, 3),
                                      (_BLOCK + 1, 5), (2 * _BLOCK + 1, 4), (40, 1),
                                      (1, 1), (0, 1)])
    def test_bytes_equal_whole_document(self, tmp_path, M, N):
        arrays = _predictions(np.random.default_rng(M + N), M, N)
        _write_predictions(tmp_path / "p.json", *arrays)
        assert (tmp_path / "p.json").read_text() == predictions_text_whole(*arrays)

    def test_empty_sample_list(self, tmp_path):
        arrays = _predictions(np.random.default_rng(0), 0, 4)
        _write_predictions(tmp_path / "p.json", *arrays)
        assert '"samples": []' in (tmp_path / "p.json").read_text()

    def test_non_finite_values_written_as_json_does(self, tmp_path):
        landmarks, confidences, flags = _predictions(np.random.default_rng(1),
                                                     _BLOCK + 2, 3)
        landmarks[0, 0, 0], landmarks[_BLOCK + 1, 2, 1] = np.nan, -np.inf
        confidences[5, 1] = np.inf
        _write_predictions(tmp_path / "p.json", landmarks, confidences, flags)
        text = (tmp_path / "p.json").read_text()
        assert text == predictions_text_whole(landmarks, confidences, flags)
        assert "NaN" in text and "-Infinity" in text

    def test_preset_bytes_and_peak_memory(self, tmp_path):
        """At the preset's size (M=2000, N=12) the writer holds one block of
        text: the whole-payload `json.dumps` peaks near 17.5 MB."""
        arrays = _predictions(np.random.default_rng(2), 2000, 12)
        path = tmp_path / "p.json"
        tracemalloc.start()
        try:
            _write_predictions(path, *arrays)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert path.read_text() == predictions_text_whole(*arrays)
        assert peak <= 2.0, "predictions writer peak %.1f MB" % peak

    def test_command_writes_the_whole_document_text(self, tmp_path):
        data = _gen(tmp_path)
        forest_path = _train(tmp_path, data)
        out = tmp_path / "pred.json"
        assert main(["predict", "--forest", forest_path, "--data", data,
                     "--out", str(out)]) == 0
        dataset = load_dataset(os.path.join(data, "dataset.json"))
        arrays = predict_many(load_forest(forest_path), dataset.responses,
                              dataset.features)
        assert out.read_text() == predictions_text_whole(*arrays)


class TestEval:
    def test_table_output(self, tmp_path, capsys):
        data = _gen(tmp_path)
        forest_path = _train(tmp_path, data)
        rc = main(["eval", "--forest", forest_path, "--data", data])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean-error" in out and "vis-accuracy" in out and "vis-AP" in out

    def test_records_output_and_file(self, tmp_path, capsys):
        data = _gen(tmp_path)
        forest_path = _train(tmp_path, data)
        capsys.readouterr()  # drop the gen/train progress lines
        report = str(tmp_path / "report.json")
        rc = main(["eval", "--forest", forest_path, "--data", data,
                   "--format", "records", "--out", report])
        assert rc == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(open(report).read())
        assert stdout_doc == file_doc
        assert file_doc["formatVersion"] == 1
        assert file_doc["meanError"] > 0.0
        assert 0.0 <= file_doc["visibilityAccuracy"] <= 1.0

    def test_records_match_numpy_scoring(self, tmp_path, capsys):
        data = _gen(tmp_path)
        forest_path = _train(tmp_path, data)
        capsys.readouterr()
        rc = main(["eval", "--forest", forest_path, "--data", data,
                   "--format", "records"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        ds = load_dataset(os.path.join(data, "dataset.json"))
        lm, _, flags = predict_many(load_forest(forest_path), ds.responses,
                                    ds.features)
        dist = np.linalg.norm(lm - np.nan_to_num(ds.ground_truth), axis=2)
        seen = ds.visible.sum(axis=1)
        keep = seen > 0
        per_sample = (100.0 * (dist * ds.visible).sum(axis=1)[keep]
                      / seen[keep] / ds.normalizer[keep])
        assert doc["meanError"] == pytest.approx(per_sample.mean(), rel=1e-12)
        assert doc["visibilityAccuracy"] == pytest.approx(
            np.mean(flags == ds.visible), rel=1e-12
        )

    @pytest.mark.parametrize("fmt", ["table", "records"])
    def test_out_in_missing_directory_prints_nothing(self, tmp_path, capsys, fmt):
        """A report that cannot be written is a failed run: one `error:`
        line and no report on stdout."""
        data = _gen(tmp_path)
        forest_path = _train(tmp_path, data)
        capsys.readouterr()
        rc = main(["eval", "--forest", forest_path, "--data", data, "--format", fmt,
                   "--out", str(tmp_path / "missing" / "r.txt")])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_class_forest_selectors(self, tmp_path, capsys):
        data = _gen(tmp_path)
        forest_path = _train(tmp_path, data, "cls.json", extra=("--method", "class"))
        for selector in ("top-vote", "posterior-rating"):
            rc = main(["eval", "--forest", forest_path, "--data", data,
                       "--selector", selector])
            assert rc == 0
        capsys.readouterr()


class TestCompare:
    def _compare(self, data, extra=()):
        return ["compare", "--data", data, "--folds", "2",
                "--trees", "2", "--max-depth", "3", *extra]

    def test_single_strategy_table(self, tmp_path, capsys):
        data = _gen(tmp_path)
        capsys.readouterr()
        rc = main(self._compare(data, ("--strategies", "rec-forest")))
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("rec-forest")

    def test_reruns_and_workers_byte_identical(self, tmp_path, capsys):
        data = _gen(tmp_path)
        capsys.readouterr()
        argv = self._compare(data, ("--strategies", "rec-forest,top-vote"))
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_output_directory(self, tmp_path, capsys):
        data = _gen(tmp_path)
        out = str(tmp_path / "cmp")
        rc = main(self._compare(
            data, ("--strategies", "rec-forest", "--format", "records",
                   "--out", out)
        ))
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(open(os.path.join(out, "report.json")).read())
        assert "rec-forest" in doc["strategies"]
        ced = open(os.path.join(out, "rec-forest-ced.txt")).read()
        assert len(ced.splitlines()) == 51
        assert os.path.exists(os.path.join(out, "rec-forest-pr.txt"))

    def test_uses_metadata_centers(self, tmp_path, capsys):
        # fixed-frontal needs centers; gen stores them in metadata
        data = _gen(tmp_path)
        capsys.readouterr()
        rc = main(self._compare(data, ("--strategies", "fixed-frontal")))
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("fixed-frontal")

    def test_config_file_matches_flags(self, tmp_path, capsys):
        # centers differ from the metadata's, and --folds beats fold_count
        data = _gen(tmp_path)
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({
            "strategies": ["rec-forest", "fixed-frontal"],
            "fold_count": 3,
            "cluster_centers": [-50, -25, 0, 25, 50],
            "train": {"tree_count": 2, "max_depth": 3},
        }))
        capsys.readouterr()
        rc = main(["compare", "--data", data, "--config", str(cfg),
                   "--folds", "2", "--format", "records"])
        assert rc == 0
        from_config = capsys.readouterr().out
        rc = main(self._compare(data, (
            "--strategies", "rec-forest,fixed-frontal",
            "--centers=-50,-25,0,25,50", "--format", "records",
        )))
        assert rc == 0
        assert capsys.readouterr().out == from_config

    def test_only_compare_and_class_training_read_metadata(self, tmp_path, capsys):
        """`predict`, `eval` and `train --method rec` never open metadata.json,
        so one that `load_metadata` rejects does not stop them."""
        data = _gen(tmp_path)
        with open(os.path.join(data, "metadata.json"), "w") as fh:
            fh.write("{}")
        forest = _train(tmp_path, data)
        out = str(tmp_path / "p.json")
        assert main(["predict", "--forest", forest, "--data", data, "--out", out]) == 0
        assert main(["eval", "--forest", forest, "--data", data]) == 0
        capsys.readouterr()
        for argv in (self._compare(data), ["train", "--data", data, "--out", out,
                                           "--method", "class", "--trees", "1"]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: unsupported formatVersion")

    def test_malformed_metadata_fails_cleanly(self, tmp_path, capsys):
        data = _gen(tmp_path)
        path = os.path.join(data, "metadata.json")
        doc = json.loads(open(path).read())
        doc["clusterId"] = None
        with open(path, "w") as fh:
            json.dump(doc, fh)
        capsys.readouterr()
        rc = main(self._compare(data))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, field",
        [
            ("--pose-noise=nan", "pose_noise_deg"),
            ("--pose-noise=inf", "pose_noise_deg"),
            ("--centers=nan,0,10,20,30", "cluster_centers"),
            ("metadata", "cluster_centers"),
        ],
    )
    def test_non_finite_value_fails_cleanly(self, tmp_path, capsys, flag, field):
        data = _gen(tmp_path)
        extra = [flag]
        if flag == "metadata":  # NaN in the centers `gen` stored
            path = os.path.join(data, "metadata.json")
            text = open(path).read()
            doc = json.loads(text)
            doc["clusterCenters"][0] = float("nan")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            assert "NaN" in open(path).read() and "NaN" not in text
            extra = []
        capsys.readouterr()
        assert main(["compare", "--data", data, "--folds", "2", "--trees", "1",
                     *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_unknown_strategy(self, tmp_path, capsys):
        data = _gen(tmp_path)
        rc = main(self._compare(data, ("--strategies", "oracle")))
        assert rc == 1
        assert "unknown strategy" in capsys.readouterr().err

    @pytest.mark.parametrize("folds", ["81", "1000"])
    def test_more_folds_than_samples_fails_cleanly(self, tmp_path, capsys, folds):
        data = _gen(tmp_path)  # 80 samples
        capsys.readouterr()
        assert main(self._compare(data, ("--folds", folds))) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: fold_count must be at most the sample count, 80\n"


def _split_chain(depth, leaf):
    """Forest-file text of a tree whose left spine is `depth` splits deep."""
    split = ('{"type": "split", "featureIndex": 0, "threshold": 0.5, '
             '"gain": 0.1, "right": %s, "left": ' % leaf)
    return split * depth + leaf + "}" * depth


class TestDeepJson:
    """Nesting too deep for the JSON parser is a malformed file, not a crash."""

    @pytest.mark.parametrize("reader", ["dataset", "metadata", "forest", "config"])
    def test_deeply_nested_file_fails_cleanly(self, tmp_path, capsys, reader):
        data = _gen(tmp_path)
        forest = _train(tmp_path, data)
        argv = ["predict", "--forest", forest, "--data", data,
                "--out", str(tmp_path / "p.json")]
        if reader == "dataset":
            with open(os.path.join(data, "dataset.json"), "w") as fh:
                fh.write("[" * 100_000 + "]" * 100_000)
        elif reader == "metadata":
            with open(os.path.join(data, "metadata.json"), "w") as fh:
                fh.write("[" * 100_000 + "]" * 100_000)
            argv = ["compare", "--data", data, "--folds", "2", "--trees", "1"]
        elif reader == "forest":
            doc = json.loads(open(forest).read())
            tree = doc["trees"][0]
            while tree["type"] == "split":
                tree = tree["left"]
            doc["trees"] = ["TREE"]
            text = json.dumps(doc).replace('"TREE"', _split_chain(3000, json.dumps(tree)))
            with open(forest, "w") as fh:
                fh.write(text)
        else:
            cfg = tmp_path / "config.json"
            cfg.write_text('{"a": ' * 50_000 + "1" + "}" * 50_000)
            argv = ["train", "--data", data, "--out", str(tmp_path / "f.json"),
                    "--config", str(cfg)]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unparseable ")
        assert "Traceback" not in err


class TestWorkersEnv:
    def test_env_sets_default(self, tmp_path, monkeypatch, capsys):
        data = _gen(tmp_path)
        monkeypatch.setenv("RECFOREST_WORKERS", "2")
        forest_path = _train(tmp_path, data, "env.json")
        baseline = _train(tmp_path, data, "one.json")
        assert open(forest_path, "rb").read() == open(baseline, "rb").read()

    def test_env_must_be_integer(self, tmp_path, monkeypatch, capsys):
        data = _gen(tmp_path)
        monkeypatch.setenv("RECFOREST_WORKERS", "many")
        rc = main(["train", "--data", data, "--out", str(tmp_path / "f.json"),
                   "--trees", "1"])
        assert rc == 1
        assert "RECFOREST_WORKERS" in capsys.readouterr().err


_SEL = ("top-vote", "posterior-rating")
_FMT = ("table", "records")
_CLASSIFIER_RULE = "prediction rule for classification forests"
_GROWTH = [
    ("--trees", "tree_count", None, int, None, False, None),
    ("--max-depth", "max_depth", None, int, None, False, None),
    ("--min-samples-leaf", "min_samples_per_leaf", None, int, None, False, None),
    ("--candidate-features", "candidate_feature_count", None, int, None, False, None),
    ("--candidate-thresholds", "candidate_threshold_count", None, int, None, False, None),
    ("--min-gain", "min_gain", None, float, None, False, None),
    ("--bootstrap", "bootstrap_fraction", None, float, None, False, None),
    ("--seed", "rng_seed", None, int, None, False, None),
    ("--workers", "workers", None, int, None, False, None),
    ("--verbose", "verbose", False, None, None, False, None),
]
# per subcommand: (flag, dest, default, type, choices, required, help)
FLAGS = {
    "gen": [
        ("--preset", "preset", "aflw-like-5view", None, ["aflw-like-5view"], False, None),
        ("--config", "config", None, None, None, False, "JSON file with generator fields"),
        ("--m", "sample_count", None, int, None, False, None),
        ("--n", "landmark_count", None, int, None, False, None),
        ("--centers", "cluster_centers", None, None, None, False,
         "comma-separated cluster centers in degrees"),
        ("--half-width", "cluster_half_width", None, float, None, False, None),
        ("--yaw-range", "yaw_range", None, None, None, False, "lo,hi in degrees"),
        ("--in-noise", "in_noise", None, float, None, False, None),
        ("--out-noise-slope", "out_noise_slope", None, float, None, False, None),
        ("--score-sharpness", "score_sharpness", None, float, None, False, None),
        ("--score-noise", "score_noise", None, float, None, False, None),
        ("--occlusion-rate", "occlusion_rate", None, float, None, False, None),
        ("--in-cluster-only", "in_cluster_only", None, None, None, False, None),
        ("--seed", "rng_seed", None, int, None, False, None),
        ("--out", "out", None, None, None, True, "output directory"),
    ],
    "train": _GROWTH + [
        ("--data", "data", None, None, None, True, "directory from `gen`"),
        ("--out", "out", None, None, None, True, "forest file to write"),
        ("--method", "method", "rec", None, ("rec", "class"), False, None),
        ("--val", "val", None, float, None, False,
         "fraction held out for gamma calibration (default 0.2)"),
        ("--config", "config", None, None, None, False, "JSON file with training fields"),
    ],
    "predict": [
        ("--forest", "forest", None, None, None, True, None),
        ("--data", "data", None, None, None, True, None),
        ("--out", "out", None, None, None, True, "record file to write"),
        ("--selector", "selector", "top-vote", None, _SEL, False, _CLASSIFIER_RULE),
    ],
    "eval": [
        ("--forest", "forest", None, None, None, True, None),
        ("--data", "data", None, None, None, True, None),
        ("--selector", "selector", "top-vote", None, _SEL, False, _CLASSIFIER_RULE),
        ("--format", "format", "table", None, _FMT, False, None),
        ("--out", "out", None, None, None, False, "also write the report to this file"),
    ],
    "compare": _GROWTH + [
        ("--data", "data", None, None, None, True, None),
        ("--out", "out", None, None, None, False, "directory for report and curve files"),
        ("--strategies", "strategies", None, None, None, False, "comma list, default all five"),
        ("--folds", "fold_count", None, int, None, False, None),
        ("--val", "validation_fraction", None, float, None, False, None),
        ("--pose-noise", "pose_noise_deg", None, float, None, False, None),
        ("--centers", "cluster_centers", None, None, None, False,
         "override cluster centers for the prior baselines"),
        ("--config", "config", None, None, None, False, "JSON file with comparison fields"),
        ("--format", "format", "table", None, _FMT, False, None),
    ],
}


def test_every_subcommand_keeps_its_flags():
    """Each subcommand's options, read from the parser, match the table;
    only their order in `--help` may change."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(FLAGS)
    for name, parser in sub.choices.items():
        got = [(*a.option_strings, a.dest, a.default, a.type, a.choices, a.required, a.help)
               for a in parser._actions if a.dest != "help"]
        assert sorted(got, key=lambda row: row[0]) == sorted(FLAGS[name], key=lambda row: row[0])


class TestUsageErrors:
    """Flag texts of the wrong type or outside `choices` are in the fuzz
    tests; these are the usage errors without a flag value."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--forest", "f.json"],
            ["gen", "--m", "4", "--out", "x", "--no-such-flag"],
            [],
        ],
    )
    def test_one_error_line_exit_1(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert "--method" in capsys.readouterr().out
