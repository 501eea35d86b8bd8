"""Command line interface: exit codes, wiring, and a small end-to-end run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tcnad
import tcnad.cli
import tcnad.forecaster
from tcnad.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from tcnad.data import (
    ManifestEntry,
    NormalizationStats,
    read_labels_csv,
    read_matrix,
    read_scores_csv,
    write_labels_csv,
    write_manifest,
    write_matrix_csv,
    write_scores_csv,
)
from tcnad.evaluation import AnomalySegment
from tcnad.forecaster import ModelConfig, init_forecaster, save_checkpoint
from tcnad.thresholds import ScoreSequence

CONFIG = """\
window = 8
tcn_channels = 8
dilations = 1, 2
mlp_layers = 1
mlp_units = 8
dropout = 0.0
epochs = 2
batch_size = 64
learning_rate = 0.01
seed = 1
"""


def _write_dataset(root, n_train=160, n_test=120, m=2, seg=(70, 85)):
    """Small sine dataset with one level-shift anomaly in the test split."""
    rng = np.random.default_rng(3)

    def signal(n):
        t = np.arange(n)
        base = np.stack(
            [np.sin(2 * np.pi * t / 20), np.cos(2 * np.pi * t / 16)], axis=1
        )
        return base + 0.01 * rng.normal(size=(n, m))

    train = signal(n_train)
    test = signal(n_test)
    test[seg[0] : seg[1] + 1] += 0.9
    (root / "train").mkdir()
    (root / "test").mkdir()
    write_matrix_csv(root / "train" / "C-1.csv", train)
    write_matrix_csv(root / "test" / "C-1.csv", test)
    write_manifest(
        root / "labeled_anomalies.csv",
        [ManifestEntry("C-1", [AnomalySegment(*seg)], "X", n_test)],
    )


def _write_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(CONFIG)
    return path


@pytest.fixture
def four_point(tmp_path):
    """Scores/labels where any threshold in [0.2, 0.8) gives a perfect F1."""
    scores = tmp_path / "C-1.csv"
    labels = tmp_path / "labels.csv"
    write_scores_csv(scores, ScoreSequence(np.array([0.1, 0.9, 0.2, 0.8]), 0))
    write_labels_csv(labels, np.array([0, 1, 0, 1]))
    return scores, labels


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["score", "--checkpoint", "x"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "train" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["evaluate", "export-curves"])
    def test_nan_threshold(self, four_point, tmp_path, command, capsys):
        # every comparison with NaN is False, so it would flag no timestep
        scores, labels = four_point
        out = tmp_path / "out.csv"
        assert main([command, "--scores", str(scores), "--labels", str(labels),
                     "--threshold", "nan", "--out", str(out)]) == EXIT_USAGE
        assert "argument --threshold: not a number: 'nan'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["inf", "-inf"])
    def test_infinite_threshold_is_valid(self, four_point, threshold, capsys):
        scores, labels = four_point
        assert main(["evaluate", "--scores", str(scores), "--labels", str(labels),
                     f"--threshold={threshold}"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("threshold", ["-inf", "-1e-3"])
    def test_negative_threshold_as_separate_argument(self, four_point, tmp_path, threshold,
                                                     capsys):
        # argparse alone reads "-inf" and "-1e-3" as unknown flags
        scores, labels = four_point
        curve = tmp_path / "curve.csv"
        assert main(["export-curves", "--scores", str(scores), "--labels", str(labels),
                     "--threshold", threshold, "--out", str(curve)]) == EXIT_OK
        rows = curve.read_text().splitlines()[1:]
        assert {row.split(",")[2] for row in rows} == {repr(float(threshold))}
        assert all(row.endswith(",1") for row in rows)       # every score is above it
        other = tmp_path / "C-2.csv"
        other.write_bytes(scores.read_bytes())
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--scores", str(scores), str(other), "--labels", str(labels),
                     "--threshold", "0.5", threshold, "--out", str(report)]) == EXIT_OK
        lines = report.read_text().splitlines()
        assert lines[1].startswith("C-1,2,0,0,") and lines[2].startswith("C-2,2,2,0,")
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["train", "sweep-window"])
    def test_negative_seed_flag(self, tmp_path, command, capsys):
        _write_dataset(tmp_path)
        extra = ["--out", str(tmp_path / "run")] if command == "train" else ["--windows", "8"]
        code = main([command, "--data", str(tmp_path), "--channel", "C-1", "--seed", "-1",
                     "--config", str(_write_config(tmp_path)), "--quiet", *extra])
        assert code == EXIT_USAGE
        assert f"tcnad {command}: error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_fitting_commands_share_option_help(self, capsys):
        def option_help(command):
            assert main([command, "--help"]) == EXIT_OK
            blocks = {}
            for line in capsys.readouterr().out.split("options:\n", 1)[1].splitlines():
                if line.startswith("  -"):
                    words = blocks.setdefault(line.split()[0], [])
                words += line.split()
            return blocks

        train, sweep = option_help("train"), option_help("sweep-window")
        for option in ("--data", "--channel", "--config", "--seed", "--epochs", "--quiet"):
            assert len(train[option]) > 2 and sweep[option] == train[option], option

    @pytest.mark.parametrize("command", ["train", "sweep-window"])
    def test_global_minmax_flag(self, tmp_path, command, capsys):
        # per-feature min-max is the only normalization
        _write_dataset(tmp_path)
        extra = ["--out", str(tmp_path / "run")] if command == "train" else ["--windows", "8"]
        assert main([command, "--data", str(tmp_path), "--channel", "C-1", "--global-minmax",
                     "--config", str(_write_config(tmp_path)), "--quiet", *extra]) == EXIT_USAGE
        assert "unrecognized arguments: --global-minmax" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_calls_share_the_parser_but_no_arguments(self, four_point, capsys):
        scores, labels = four_point
        argv = ["evaluate", "--scores", str(scores), "--labels", str(labels), "--threshold", "0.5"]
        assert main([*argv, "--channel", "A"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("A: ")
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("C-1: ")  # the file stem again
        assert tcnad.cli.build_parser() is tcnad.cli.build_parser()

    def test_grid_without_labels(self, four_point, capsys):
        scores, _ = four_point
        assert main(["threshold", "--scores", str(scores), "--method", "grid"]) == EXIT_USAGE
        assert "needs --labels" in capsys.readouterr().err


class TestDataErrors:
    def test_missing_scores_file(self, tmp_path, capsys):
        code = main(
            ["threshold", "--scores", str(tmp_path / "nope.csv"), "--method", "epsilon"]
        )
        assert code == EXIT_DATA
        capsys.readouterr()

    def test_bad_config_key(self, tmp_path, capsys):
        _write_dataset(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("momentum = 0.9\n")
        code = main(
            ["train", "--data", str(tmp_path), "--channel", "C-1",
             "--out", str(tmp_path / "run"), "--config", str(cfg)]
        )
        assert code == EXIT_DATA
        assert "unknown key" in capsys.readouterr().err

    def test_non_finite_learning_rate(self, tmp_path, capsys):
        _write_dataset(tmp_path)
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(CONFIG.replace("learning_rate = 0.01", "learning_rate = nan"))
        code = main(
            ["train", "--data", str(tmp_path), "--channel", "C-1",
             "--out", str(tmp_path / "run"), "--config", str(cfg), "--quiet"]
        )
        assert code == EXIT_DATA
        assert "learning_rate must be finite and > 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "run" / "C-1.ckpt").exists()

    def test_manifest_missing_channel(self, tmp_path, four_point, capsys):
        scores, _ = four_point
        manifest = tmp_path / "labeled_anomalies.csv"
        write_manifest(manifest, [ManifestEntry("Z-9", [], "X", None)])
        code = main(
            ["threshold", "--scores", str(scores), "--method", "grid",
             "--labels", str(manifest)]
        )
        assert code == EXIT_DATA
        capsys.readouterr()


    def test_manifest_shorter_than_scores(self, tmp_path, four_point, capsys):
        scores, _ = four_point  # timesteps 0..3
        manifest = tmp_path / "labeled_anomalies.csv"
        write_manifest(manifest, [ManifestEntry("C-1", [], "X", 3)])
        code = main(
            ["threshold", "--scores", str(scores), "--method", "grid",
             "--labels", str(manifest)]
        )
        assert code == EXIT_DATA
        assert "labels cover timesteps 0..2 but scores need 0..3" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["manifest", "csv"])
    def test_both_label_sources_report_short_labels_alike(self, tmp_path, four_point, source,
                                                         capsys):
        scores, _ = four_point  # timesteps 0..3
        if source == "manifest":
            labels = tmp_path / "labeled_anomalies.csv"
            write_manifest(labels, [ManifestEntry("C-1", [AnomalySegment(1, 1)], "X", 3)])
            where = f"{labels}: channel 'C-1'"
        else:
            labels = tmp_path / "short.csv"
            write_labels_csv(labels, np.array([0, 1, 0]))
            where = str(labels)
        for argv in (["threshold", "--method", "grid"], ["evaluate", "--threshold", "0.5"],
                     ["export-curves", "--threshold", "0.5", "--out", str(tmp_path / "c.csv")]):
            assert main([*argv, "--scores", str(scores), "--labels", str(labels)]) == EXIT_DATA
            assert (f"data error: {where}: labels cover timesteps 0..2 but scores need 0..3"
                    in capsys.readouterr().err)
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("source", ["manifest", "csv"])
    def test_label_file_read_once_a_command(self, tmp_path, four_point, source, monkeypatch,
                                            capsys):
        # telling the two label formats apart reads the header line only
        scores, labels = four_point
        if source == "manifest":
            labels = tmp_path / "labeled_anomalies.csv"
            write_manifest(labels, [ManifestEntry("C-1", [AnomalySegment(1, 1),
                                                          AnomalySegment(3, 3)], "X", None)])
        reads, real_read = [], tcnad.data._read_text

        def counting_read_text(path, first_line=False):
            if Path(path) == labels:
                reads.append(first_line)
            return real_read(path, first_line)

        monkeypatch.setattr(tcnad.data, "_read_text", counting_read_text)
        for argv in (["threshold", "--method", "grid"], ["evaluate", "--threshold", "0.5"],
                     ["export-curves", "--threshold", "0.5", "--out", str(tmp_path / "c.csv")]):
            reads.clear()
            assert main([*argv, "--scores", str(scores), "--labels", str(labels)]) == EXIT_OK
            assert reads == [True, False]
        capsys.readouterr()

    def test_manifest_segment_past_its_labels(self, tmp_path, four_point, capsys):
        scores, _ = four_point  # timesteps 0..3
        manifest = tmp_path / "labeled_anomalies.csv"
        write_manifest(manifest, [ManifestEntry("C-1", [AnomalySegment(3, 5)], "X", None)])
        code = main(["threshold", "--scores", str(scores), "--method", "grid",
                     "--labels", str(manifest)])
        assert code == EXIT_DATA
        assert f"{manifest}: channel 'C-1': segment [3, 5] exceeds length 4" in (
            capsys.readouterr().err)

    def test_negative_seed_in_config(self, tmp_path, capsys):
        _write_dataset(tmp_path)
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(CONFIG.replace("seed = 1", "seed = -1"))
        code = main(["train", "--data", str(tmp_path), "--channel", "C-1",
                     "--out", str(tmp_path / "run"), "--config", str(cfg), "--quiet"])
        assert code == EXIT_DATA
        assert f"{cfg}: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run" / "C-1.ckpt").exists()

    def test_score_feature_count_mismatch(self, tmp_path, capsys):
        ckpt = tmp_path / "m3.ckpt"
        cfg = ModelConfig(window=8, tcn_channels=4, dilations=(1,), mlp_layers=0)
        save_checkpoint(ckpt, init_forecaster(3, cfg, seed=0))
        test = tmp_path / "test.csv"
        write_matrix_csv(test, np.zeros((200, 4)))
        code = main(["score", "--checkpoint", str(ckpt), "--test", str(test),
                     "--out", str(tmp_path / "scores.csv")])
        assert code == EXIT_DATA
        assert "checkpoint expects 3 features, matrix has 4" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

    def test_score_non_finite_matrix(self, tmp_path, capsys):
        ckpt = tmp_path / "m2.ckpt"
        cfg = ModelConfig(window=8, tcn_channels=4, dilations=(1,), mlp_layers=0)
        save_checkpoint(ckpt, init_forecaster(2, cfg, seed=0))
        test = tmp_path / "test.csv"
        matrix = np.zeros((50, 2))
        matrix[17, 1] = np.nan
        write_matrix_csv(test, matrix)
        code = main(["score", "--checkpoint", str(ckpt), "--test", str(test),
                     "--out", str(tmp_path / "scores.csv")])
        assert code == EXIT_DATA
        assert f"{test}: matrix contains non-finite value nan at row 17, column 1" in (
            capsys.readouterr().err)
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.parametrize("write, message", [
        (lambda p: np.save(p, np.zeros(5)), "expected a 2-D matrix, got shape (5,)"),
        (lambda p: np.save(p, np.zeros((4, 2, 2))), "expected a 2-D matrix, got shape (4, 2, 2)"),
        (lambda p: np.save(p, np.zeros((0, 2))), "no data rows (0 rows, 2 columns)"),
        (lambda p: np.save(p, np.zeros((4, 0))), "no data rows (4 rows, 0 columns)"),
        (lambda p: np.save(p, np.zeros((0, 0))), "no data rows (0 rows, 0 columns)"),
        (lambda p: np.save(p, np.array([[1.0, None]])), "unreadable .npy file"),
        (lambda p: np.save(p, np.array([["a", "b"]])), "expected numbers, got dtype <U1"),
        (lambda p: (np.save(p, np.zeros((3, 2))), p.write_bytes(p.read_bytes()[:-8])),
         "unreadable .npy file"),
    ], ids=["1d", "3d", "no-rows", "no-columns", "0x0", "pickled", "unicode", "truncated"])
    def test_score_rejects_bad_npy(self, tmp_path, capsys, write, message):
        ckpt = tmp_path / "m2.ckpt"
        cfg = ModelConfig(window=8, tcn_channels=4, dilations=(1,), mlp_layers=0)
        save_checkpoint(ckpt, init_forecaster(2, cfg, seed=0))
        test = tmp_path / "test.npy"
        write(test)
        code = main(["score", "--checkpoint", str(ckpt), "--test", str(test),
                     "--out", str(tmp_path / "scores.csv")])
        assert code == EXIT_DATA
        assert f"{test}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.parametrize("size", [1, 2])
    def test_score_checkpoint_normalization_shape(self, tmp_path, capsys, size):
        ckpt = tmp_path / "m3.ckpt"
        cfg = ModelConfig(window=8, tcn_channels=4, dilations=(1,), mlp_layers=0)
        stats = NormalizationStats(np.zeros(size), np.ones(size))
        save_checkpoint(ckpt, init_forecaster(3, cfg, seed=0), stats)
        test = tmp_path / "test.csv"
        write_matrix_csv(test, np.zeros((50, 3)))
        code = main(["score", "--checkpoint", str(ckpt), "--test", str(test),
                     "--out", str(tmp_path / "scores.csv")])
        assert code == EXIT_DATA
        assert (f"{ckpt}: per_feature normalization has shape ({size},), expected (3,)"
                in capsys.readouterr().err)
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.parametrize("section, name, values, message", [
        ("tensors", "preconv.bias", [0.0, np.nan, 0.0],
         "tensor 'preconv.bias' has a non-finite value nan at index 1"),
        ("normalization", "maximum", [1.0, np.inf, 1.0],
         "normalization maximum has a non-finite value inf at index 1"),
        ("normalization", "maximum", [1.0, -0.5, 1.0],
         "normalization maximum -0.5 is below its minimum 0.0 at index 1"),
    ])
    def test_score_refuses_checkpoint_values_training_cannot_produce(
            self, tmp_path, capsys, section, name, values, message):
        # before, each scored with exit 0: NaN scores, or a feature normalized to 0
        ckpt = tmp_path / "m4.ckpt"
        cfg = ModelConfig(window=8, tcn_channels=4, dilations=(1,), mlp_layers=0)
        save_checkpoint(ckpt, init_forecaster(3, cfg, seed=0),
                        NormalizationStats(np.zeros(3), np.ones(3)))
        doc = json.loads(ckpt.read_text())
        doc[section][name] = tcnad.forecaster._encode_array(np.array(values))
        ckpt.write_text(json.dumps(doc))
        test = tmp_path / "test.csv"
        write_matrix_csv(test, np.full((50, 3), 0.5))
        code = main(["score", "--checkpoint", str(ckpt), "--test", str(test),
                     "--out", str(tmp_path / "scores.csv")])
        assert code == EXIT_DATA
        assert f"{ckpt}: malformed checkpoint ({message})" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        # before, these two tried a full random init of the stored size first:
        # MemoryError ("Unable to allocate 497. PiB"), exit 1
        (lambda doc: doc.update(n_features=10**8),
         "tensor 'preconv.filters' has shape (7, 3, 3), expected (7, 100000000, 100000000)"),
        (lambda doc: doc["config"].update(window=10**7),
         "tensor 'variable.weight' has shape (8, 16), expected (10000000, 20000000)"),
        (lambda doc: doc["tensors"].update(
            {"mlp.0.weight": tcnad.forecaster._encode_array(np.zeros((3, 4)))}),
         "tensor 'mlp.0.weight' has shape (3, 4), expected (4, 3)"),
        (lambda doc: doc["tensors"].pop("temporal.score_vec"),
         "missing tensor 'temporal.score_vec'"),
        (lambda doc: doc["tensors"].update({"tcn.1.conv1_bias": doc["tensors"]["mlp.0.bias"]}),
         "unexpected tensors ['tcn.1.conv1_bias']"),
        # the two keys only v1 files store: such a file is a v1 one, refused whole
        (lambda doc: doc.update(format="tcnad-checkpoint-v1") or doc["config"].update(
            attention_activation="identity"),
         "a tcnad-checkpoint-v1 file, trained with a preconv that zero-padded every window; "
         "its weights give other scores now, so retrain to write tcnad-checkpoint-v2"),
        # as checkpoints written with --global-minmax store it: one shared range
        (lambda doc: doc.update(format="tcnad-checkpoint-v1", normalization={
            "mode": "global", "minimum": tcnad.forecaster._encode_array(np.zeros(1)),
            "maximum": tcnad.forecaster._encode_array(np.ones(1))}),
         "a tcnad-checkpoint-v1 file, trained with a preconv that zero-padded every window; "
         "its weights give other scores now, so retrain to write tcnad-checkpoint-v2"),
    ], ids=["n_features", "window", "shape", "missing", "extra", "activation", "global"])
    def test_score_refuses_a_checkpoint_that_does_not_fit_its_config(
            self, tmp_path, capsys, edit, message):
        ckpt = tmp_path / "m5.ckpt"
        cfg = ModelConfig(window=8, tcn_channels=4, dilations=(1,), mlp_layers=0)
        save_checkpoint(ckpt, init_forecaster(3, cfg, seed=0))
        doc = json.loads(ckpt.read_text())
        edit(doc)
        ckpt.write_text(json.dumps(doc))
        test = tmp_path / "test.csv"
        write_matrix_csv(test, np.full((50, 3), 0.5))
        code = main(["score", "--checkpoint", str(ckpt), "--test", str(test),
                     "--out", str(tmp_path / "scores.csv")])
        assert code == EXIT_DATA
        assert f"tcnad score: data error: {ckpt}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

    # v1 files that loaded before: one storing the sigmoid activation, written
    # while it was a config field, and one storing the per_feature mode,
    # written while a global one existed; both are refused with exit 2
    @pytest.mark.parametrize("edit", [
        lambda doc: doc["config"].update(attention_activation="sigmoid"),
        lambda doc: doc["normalization"].update(mode="per_feature"),
    ], ids=["sigmoid_activation", "per_feature_mode"])
    def test_score_refuses_a_v1_checkpoint(self, tmp_path, capsys, edit):
        ckpt = tmp_path / "m.ckpt"
        cfg = ModelConfig(window=8, tcn_channels=4, dilations=(1,), mlp_layers=0)
        save_checkpoint(ckpt, init_forecaster(3, cfg, seed=0),
                        NormalizationStats(np.zeros(3), np.ones(3)))
        doc = json.loads(ckpt.read_text())
        assert doc["format"] == "tcnad-checkpoint-v2"
        doc["format"] = "tcnad-checkpoint-v1"
        edit(doc)
        ckpt.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        test = tmp_path / "test.csv"
        write_matrix_csv(test, np.random.default_rng(0).random((50, 3)))
        code = main(["score", "--checkpoint", str(ckpt), "--test", str(test),
                     "--out", str(tmp_path / "scores.csv")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"tcnad score: data error: {ckpt}: a tcnad-checkpoint-v1 file" in err
        assert "retrain" in err
        assert not (tmp_path / "scores.csv").exists()

    def test_train_refuses_a_config_that_sets_the_identity_activation(self, tmp_path, capsys):
        _write_dataset(tmp_path)
        cfg = tmp_path / "identity.cfg"
        cfg.write_text(CONFIG + "attention_activation = identity\n")
        code = main(["train", "--data", str(tmp_path), "--channel", "C-1",
                     "--out", str(tmp_path / "run"), "--config", str(cfg)])
        assert code == EXIT_DATA
        assert (f"{cfg}:11: only attention_activation = sigmoid is supported, got 'identity'"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_train_bad_manifest_num_values(self, tmp_path, capsys):
        _write_dataset(tmp_path)
        manifest = tmp_path / "labeled_anomalies.csv"
        manifest.write_text(manifest.read_text().replace(",120", ",abc"))
        code = main(["train", "--data", str(tmp_path), "--channel", "C-1",
                     "--out", str(tmp_path / "run"), "--config", str(_write_config(tmp_path))])
        assert code == EXIT_DATA
        assert f"{manifest}:2: num_values must be a non-negative integer, got 'abc'" in (
            capsys.readouterr().err)

    def test_unknown_labels_header(self, four_point, tmp_path, capsys):
        scores, _ = four_point
        labels = tmp_path / "odd.csv"
        labels.write_text("t,y\n0,0\n")
        code = main(
            ["evaluate", "--scores", str(scores), "--labels", str(labels),
             "--threshold", "0.5"]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "'chan_id'" in err and "'timestep,label'" in err


class TestThresholdCommand:
    def test_grid_on_fixture(self, four_point, tmp_path, capsys):
        scores, labels = four_point
        out = tmp_path / "th.json"
        code = main(
            ["threshold", "--scores", str(scores), "--method", "grid",
             "--labels", str(labels), "--out", str(out)]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "method=grid" in stdout
        payload = json.loads(out.read_text())
        assert 0.2 <= payload["threshold"] < 0.8
        assert payload["diagnostics"]["f1"] == pytest.approx(1.0)

    def test_epsilon(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        s = np.concatenate([rng.normal(1.0, 0.1, 200), [5.0]])
        path = tmp_path / "s.csv"
        write_scores_csv(path, ScoreSequence(s, 0))
        assert main(["threshold", "--scores", str(path), "--method", "epsilon"]) == EXIT_OK
        assert "method=epsilon" in capsys.readouterr().out

    def test_pot_with_enough_tail(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "s.csv"
        write_scores_csv(path, ScoreSequence(rng.exponential(1.0, 3000), 0))
        assert main(["threshold", "--scores", str(path), "--method", "pot"]) == EXIT_OK
        assert "method=pot" in capsys.readouterr().out

    def test_pot_out_writes_the_three_result_fields(self, tmp_path, capsys):
        path, out = tmp_path / "s.csv", tmp_path / "th.json"
        write_scores_csv(path, ScoreSequence(np.random.default_rng(1).exponential(1.0, 3000), 0))
        code = main(["threshold", "--scores", str(path), "--method", "pot", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert sorted(payload) == ["diagnostics", "method", "threshold"]
        assert payload["method"] == "pot"
        assert f"threshold={payload['threshold']!r}" in capsys.readouterr().out
        assert payload["diagnostics"]["gamma_on_clip"] is False
        assert '"gamma_on_clip": false' in out.read_text()

    def test_non_finite_scores_are_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        s = np.abs(np.random.default_rng(0).standard_normal(200))
        s[40] = np.nan
        write_scores_csv(path, ScoreSequence(s, 0))
        assert main(["threshold", "--scores", str(path), "--method", "epsilon"]) == EXIT_DATA
        assert "non-finite score nan at timestep 40" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1", "0", "-4"])
    def test_pot_min_exceedances_below_two(self, tmp_path, value, capsys):
        # one point above the 0.98 quantile: a one-point GPD fit would give 7.04
        path = tmp_path / "s.csv"
        write_scores_csv(path, ScoreSequence(np.r_[np.linspace(0, 1, 58), 1.0, 5.0], 0))
        code = main(["threshold", "--scores", str(path), "--method", "pot",
                     "--min-exceedances", value])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"min_exceedances must be >= 2, got {value}" in captured.err
        assert "threshold=" not in captured.out

    def test_pot_q_not_below_the_tail_fraction(self, tmp_path, capsys):
        # q = 0.5 over a 2% tail would extrapolate below the initial threshold
        path = tmp_path / "s.csv"
        write_scores_csv(path, ScoreSequence(np.random.default_rng(1).exponential(1.0, 3000), 0))
        code = main(["threshold", "--scores", str(path), "--method", "pot", "--q", "0.5"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "q=0.5 must be below the tail fraction 60/3000" in captured.err
        assert "threshold=" not in captured.out

    def test_pot_too_few_points_is_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        write_scores_csv(path, ScoreSequence(np.linspace(0, 1, 10), 0))
        assert main(["threshold", "--scores", str(path), "--method", "pot"]) == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_perfect_f1(self, four_point, tmp_path, capsys):
        scores, labels = four_point
        out = tmp_path / "report.csv"
        code = main(
            ["evaluate", "--scores", str(scores), "--labels", str(labels),
             "--threshold", "0.5", "--out", str(out)]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "f1=1.0000" in stdout
        assert "all(micro)" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "channel,tp,fp,fn,precision,recall,f1"
        assert len(lines) == 3  # one channel + the aggregate

    def test_threshold_broadcast(self, four_point, capsys):
        scores, labels = four_point
        code = main(
            ["evaluate", "--scores", str(scores), str(scores),
             "--labels", str(labels), "--threshold", "0.5"]
        )
        assert code == EXIT_OK
        capsys.readouterr()

    def test_threshold_count_mismatch(self, four_point, capsys):
        scores, labels = four_point
        code = main(
            ["evaluate", "--scores", str(scores), "--labels", str(labels),
             "--threshold", "0.5", "0.6"]
        )
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_macro_flag(self, four_point, capsys):
        # micro is the only aggregation
        scores, labels = four_point
        code = main(
            ["evaluate", "--scores", str(scores), "--labels", str(labels),
             "--threshold", "0.5", "--macro"]
        )
        assert code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --macro" in err

    def test_manifest_labels(self, tmp_path, capsys):
        scores = tmp_path / "C-1.csv"
        write_scores_csv(scores, ScoreSequence(np.array([0.1, 0.9, 0.2, 0.8]), 2))
        manifest = tmp_path / "labeled_anomalies.csv"
        write_manifest(
            manifest, [ManifestEntry("C-1", [AnomalySegment(3, 3)], "X", 6)]
        )
        code = main(
            ["evaluate", "--scores", str(scores), "--labels", str(manifest),
             "--threshold", "0.5"]
        )
        assert code == EXIT_OK
        assert "precision=0.5000" in capsys.readouterr().out  # spike at t=5 is a fp

    def test_manifest_with_chan_id_as_fifth_column(self, tmp_path, capsys):
        scores = tmp_path / "C-1.csv"
        write_scores_csv(scores, ScoreSequence(np.array([0.1, 0.9, 0.2, 0.8]), 2))
        manifest = tmp_path / "labeled_anomalies.csv"
        manifest.write_text(
            "spacecraft,class,num_values,note,chan_id,anomaly_sequences\n"
            'X,point,6,,C-1,"[[3, 3]]"\n'
        )
        code = main(
            ["evaluate", "--scores", str(scores), "--labels", str(manifest),
             "--threshold", "0.5"]
        )
        assert code == EXIT_OK
        assert "precision=0.5000" in capsys.readouterr().out

    def test_manifest_parsed_once_for_many_scores(self, tmp_path, capsys, monkeypatch):
        manifest = tmp_path / "labeled_anomalies.csv"
        write_manifest(manifest, [
            ManifestEntry("C-1", [AnomalySegment(3, 3)], "X", 6),
            ManifestEntry("C-2", [AnomalySegment(5, 5)], "X", 6),
            ManifestEntry("C-3", [AnomalySegment(3, 3), AnomalySegment(5, 5)], "X", None),
        ])
        scores = []
        for ch in ("C-1", "C-2", "C-3"):
            scores.append(tmp_path / f"{ch}.csv")
            write_scores_csv(scores[-1], ScoreSequence(np.array([0.1, 0.9, 0.2, 0.8]), 2))
        calls, real_read = [], tcnad.cli.read_manifest

        def counting_read_manifest(path):
            calls.append(path)
            return real_read(path)

        monkeypatch.setattr(tcnad.cli, "read_manifest", counting_read_manifest)
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--scores", *map(str, scores), "--labels", str(manifest),
                     "--threshold", "0.5", "--out", str(out)])
        assert code == EXIT_OK
        assert calls == [str(manifest)]
        # predictions at t=3 and t=5: C-1 and C-2 each hit one label and miss one
        assert capsys.readouterr().out.splitlines() == [
            "C-1: precision=0.5000 recall=1.0000 f1=0.6667 tp=1 fp=1 fn=0",
            "C-2: precision=0.5000 recall=1.0000 f1=0.6667 tp=1 fp=1 fn=0",
            "C-3: precision=1.0000 recall=1.0000 f1=1.0000 tp=2 fp=0 fn=0",
            "all(micro): precision=0.6667 recall=1.0000 f1=0.8000 tp=4 fp=2 fn=0",
        ]
        assert out.read_text().splitlines() == [
            "channel,tp,fp,fn,precision,recall,f1",
            "C-1,1,1,0,0.5,1.0,0.6666666666666666",
            "C-2,1,1,0,0.5,1.0,0.6666666666666666",
            "C-3,2,0,0,1.0,1.0,1.0",
            "all(micro),4,2,0,0.6666666666666666,1.0,0.8",
        ]


class TestExportCommand:
    def test_columns(self, four_point, tmp_path, capsys):
        scores, labels = four_point
        out = tmp_path / "curve.csv"
        code = main(
            ["export-curves", "--scores", str(scores), "--labels", str(labels),
             "--threshold", "0.5", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "timestep,score,threshold,label,prediction"
        assert lines[1] == "0,0.1,0.5,0,0"
        assert lines[2] == "1,0.9,0.5,1,1"
        capsys.readouterr()


class TestPipeline:
    def test_train_score_threshold_evaluate(self, tmp_path, capsys):
        _write_dataset(tmp_path)
        cfg = _write_config(tmp_path)
        run = tmp_path / "run"

        code = main(
            ["train", "--data", str(tmp_path), "--channel", "C-1",
             "--out", str(run), "--config", str(cfg), "--quiet"]
        )
        assert code == EXIT_OK
        ckpt = run / "C-1.ckpt"
        assert ckpt.exists()
        loss_lines = (run / "C-1.loss.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,loss" and len(loss_lines) == 3

        scores_path = run / "C-1.csv"
        code = main(
            ["score", "--checkpoint", str(ckpt),
             "--test", str(tmp_path / "test" / "C-1.csv"),
             "--out", str(scores_path)]
        )
        assert code == EXIT_OK
        seq = read_scores_csv(scores_path)
        assert seq.first_timestep == 8
        assert seq.scores.size == 120 - 8

        code = main(
            ["threshold", "--scores", str(scores_path), "--method", "grid",
             "--labels", str(tmp_path / "labeled_anomalies.csv"),
             "--out", str(run / "th.json")]
        )
        assert code == EXIT_OK
        th = json.loads((run / "th.json").read_text())["threshold"]

        code = main(
            ["evaluate", "--scores", str(scores_path),
             "--labels", str(tmp_path / "labeled_anomalies.csv"),
             "--threshold", str(th), "--out", str(run / "report.csv")]
        )
        assert code == EXIT_OK
        assert (run / "report.csv").exists()
        capsys.readouterr()

    def test_train_all_parses_the_manifest_once(self, tmp_path, capsys, monkeypatch):
        _write_dataset(tmp_path)
        train = read_matrix(tmp_path / "train" / "C-1.csv")
        test = (tmp_path / "test" / "C-1.csv").read_bytes()
        for ch, rows in (("C-2", train[::-1]), ("C-3", train[:, ::-1])):
            write_matrix_csv(tmp_path / "train" / f"{ch}.csv", rows)
            (tmp_path / "test" / f"{ch}.csv").write_bytes(test)
        manifest = tmp_path / "labeled_anomalies.csv"
        # out of order: --channel all runs the channels sorted
        write_manifest(manifest, [ManifestEntry(ch, [AnomalySegment(70, 85)], "X", 120)
                                  for ch in ("C-2", "C-3", "C-1")])
        cfg = _write_config(tmp_path)
        calls, real_read = [], tcnad.data.read_manifest

        def counting_read_manifest(path):
            calls.append(Path(path))
            return real_read(path)

        monkeypatch.setattr(tcnad.data, "read_manifest", counting_read_manifest)
        monkeypatch.setattr(tcnad.cli, "read_manifest", counting_read_manifest)
        run = tmp_path / "all"
        assert main(["train", "--data", str(tmp_path), "--channel", "all",
                     "--config", str(cfg), "--out", str(run), "--quiet"]) == EXIT_OK
        assert calls == [manifest]
        # the losses printed before the manifest was shared
        assert capsys.readouterr().out.splitlines() == [
            f"C-1: 2 epochs, final loss 0.357119, saved {run / 'C-1.ckpt'}",
            f"C-2: 2 epochs, final loss 0.357607, saved {run / 'C-2.ckpt'}",
            f"C-3: 2 epochs, final loss 0.355555, saved {run / 'C-3.ckpt'}",
        ]
        for ch in ("C-1", "C-2", "C-3"):
            alone = tmp_path / ch
            assert main(["train", "--data", str(tmp_path), "--channel", ch,
                         "--config", str(cfg), "--out", str(alone), "--quiet"]) == EXIT_OK
            for name in (f"{ch}.ckpt", f"{ch}.loss.csv"):
                assert (alone / name).read_bytes() == (run / name).read_bytes()
        capsys.readouterr()

    def test_npy_dataset_trains_and_scores_like_csv(self, tmp_path, capsys):
        # the layout of the public archive: .npy matrices beside the manifest
        csv_data, npy_data = tmp_path / "csv", tmp_path / "npy"
        csv_data.mkdir()
        _write_dataset(csv_data)
        for split in ("train", "test"):
            (npy_data / split).mkdir(parents=True)
            np.save(npy_data / split / "C-1.npy", read_matrix(csv_data / split / "C-1.csv"))
        (npy_data / "labeled_anomalies.csv").write_bytes(
            (csv_data / "labeled_anomalies.csv").read_bytes())
        cfg = _write_config(tmp_path)
        for data, suffix in ((csv_data, ".csv"), (npy_data, ".npy")):
            assert main(["train", "--data", str(data), "--channel", "C-1",
                         "--out", str(data / "run"), "--config", str(cfg), "--quiet"]) == EXIT_OK
            assert main(["score", "--checkpoint", str(data / "run" / "C-1.ckpt"),
                         "--test", str(data / "test" / f"C-1{suffix}"),
                         "--out", str(data / "run" / "C-1.csv")]) == EXIT_OK
        for name in ("C-1.ckpt", "C-1.loss.csv", "C-1.csv"):
            assert (npy_data / "run" / name).read_bytes() == (csv_data / "run" / name).read_bytes()
        capsys.readouterr()

    def test_same_seed_same_checkpoint_bytes(self, tmp_path, capsys):
        _write_dataset(tmp_path)
        cfg = _write_config(tmp_path)
        for name in ("a", "b"):
            code = main(
                ["train", "--data", str(tmp_path), "--channel", "C-1",
                 "--out", str(tmp_path / name), "--config", str(cfg),
                 "--epochs", "1", "--quiet"]
            )
            assert code == EXIT_OK
        a = (tmp_path / "a" / "C-1.ckpt").read_bytes()
        b = (tmp_path / "b" / "C-1.ckpt").read_bytes()
        assert a == b
        capsys.readouterr()

    def test_sweep_window(self, tmp_path, capsys, monkeypatch):
        _write_dataset(tmp_path)
        for split in ("train", "test"):
            (tmp_path / split / "C-2.csv").write_bytes((tmp_path / split / "C-1.csv").read_bytes())
        write_manifest(tmp_path / "labeled_anomalies.csv", [
            ManifestEntry(ch, [AnomalySegment(70, 85)], "X", 120) for ch in ("C-1", "C-2")
        ])
        loaded, real_load = [], tcnad.cli.load_channel

        def counting_load_channel(data_dir, channel, manifest=None):
            loaded.append(channel)
            return real_load(data_dir, channel, manifest)

        monkeypatch.setattr(tcnad.cli, "load_channel", counting_load_channel)
        cfg = _write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep-window", "--data", str(tmp_path), "--channel", "all",
             "--windows", "6,8", "--config", str(cfg), "--epochs", "1",
             "--out", str(out), "--quiet"]
        )
        assert code == EXIT_OK
        assert loaded == ["C-1", "C-2"]
        stdout = capsys.readouterr().out
        assert "window=6 " in stdout and "window=8 " in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "window,precision,recall,f1"
        assert len(lines) == 3

    def test_sweep_bad_windows(self, tmp_path, capsys):
        _write_dataset(tmp_path)
        code = main(
            ["sweep-window", "--data", str(tmp_path), "--channel", "C-1",
             "--windows", "six"]
        )
        assert code == EXIT_USAGE
        capsys.readouterr()


class TestConsoleScript:
    def test_installed_entry_point(self):
        # the child imports the same tcnad as this suite, installed or not
        root = str(Path(tcnad.__file__).parents[1])
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tcnad.cli", "--help"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "threshold" in proc.stdout
