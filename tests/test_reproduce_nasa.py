"""scripts/reproduce_nasa.py on a tiny fabricated .npy archive: train, then resume."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from tcnad.data import ManifestEntry, read_scores_csv, write_manifest
from tcnad.evaluation import AnomalySegment

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_nasa.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("reproduce_nasa", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_archive(raw, n_train=240, n_test=160):
    """One SMAP and one MSL channel with two features and a level shift each."""
    rng = np.random.default_rng(0)
    t = np.arange(n_train + n_test)
    entries = []
    for channel, craft in (("A-1", "SMAP"), ("M-1", "MSL")):
        series = np.stack([np.sin(2 * np.pi * t / 20), np.cos(2 * np.pi * t / 16)], axis=1)
        series += 0.01 * rng.standard_normal(series.shape)
        series[n_train + 90 : n_train + 105] += 0.9
        for split, rows in (("train", series[:n_train]), ("test", series[n_train:])):
            (raw / split).mkdir(parents=True, exist_ok=True)
            np.save(raw / split / f"{channel}.npy", rows)
        entries.append(ManifestEntry(channel, [AnomalySegment(90, 104)], craft, n_test))
    write_manifest(raw / "labeled_anomalies.csv", entries)


def test_train_then_resume_rescores_without_training(tmp_path, monkeypatch, capsys):
    raw, work = tmp_path / "raw", tmp_path / "work"
    _write_archive(raw)
    script = _load_script()
    argv = ["--raw", str(raw), "--work", str(work), "--window", "8", "--epochs", "1",
            "--limit", "1", "--quiet"]

    assert script.main(argv) == 0
    # the archive is read in place: no converted copy of it under --work
    assert sorted(p.name for p in work.iterdir()) == ["checkpoints", "report.csv", "scores"]
    scores = work / "scores" / "A-1.csv"
    report = (work / "report.csv").read_text().splitlines()
    assert report[0] == "channel,tp,fp,fn,precision,recall,f1"
    assert report[1].startswith("A-1,") and report[2].startswith("SMAP(micro),")
    seq = read_scores_csv(scores)
    assert (seq.first_timestep, seq.scores.size) == (8, 160 - 8)
    first = scores.read_bytes()

    def fail(*args, **kwargs):
        raise AssertionError("--resume retrained a channel that has a checkpoint")

    monkeypatch.setattr(script, "fit_channel", fail)
    assert script.main(argv + ["--resume"]) == 0
    assert scores.read_bytes() == first
    capsys.readouterr()


def test_resume_with_changed_model_flags_stops(tmp_path, capsys):
    raw, work = tmp_path / "raw", tmp_path / "work"
    _write_archive(raw)
    script = _load_script()
    argv = ["--raw", str(raw), "--work", str(work), "--epochs", "1", "--limit", "1", "--quiet"]

    assert script.main(argv + ["--window", "8"]) == 0
    scores = work / "scores" / "A-1.csv"
    first = scores.read_bytes()

    with pytest.raises(SystemExit) as exc:
        script.main(argv + ["--window", "12", "--seed", "3", "--resume"])
    message = str(exc.value.code)
    assert str(work / "checkpoints" / "A-1.ckpt") in message
    assert "window 8 -> 12" in message and "seed 0 -> 3" in message
    assert "dropout" not in message
    assert scores.read_bytes() == first
    capsys.readouterr()


def test_resume_with_changed_training_flags_stops(tmp_path, capsys):
    # a checkpoint does not hold its training flags, so train.json does
    raw, work = tmp_path / "raw", tmp_path / "work"
    _write_archive(raw)
    script = _load_script()
    argv = ["--raw", str(raw), "--work", str(work), "--window", "8", "--limit", "1", "--quiet"]

    assert script.main(argv + ["--epochs", "1"]) == 0
    assert json.loads((work / "checkpoints" / "train.json").read_text()) == {
        "A-1": {"epochs": 1, "batch_size": 256, "learning_rate": 1e-3}}
    scores = work / "scores" / "A-1.csv"
    first = scores.read_bytes()

    with pytest.raises(SystemExit) as exc:
        script.main(argv + ["--resume", "--epochs", "5", "--learning-rate", "0.01",
                            "--batch-size", "16"])
    message = str(exc.value.code)
    assert str(work / "checkpoints" / "A-1.ckpt") in message
    for change in ("epochs 1 -> 5", "batch_size 256 -> 16", "learning_rate 0.001 -> 0.01"):
        assert change in message
    assert "window" not in message and "seed" not in message
    assert scores.read_bytes() == first
    capsys.readouterr()


def test_resume_stops_on_a_v1_checkpoint(tmp_path, capsys):
    # a checkpoint written before the preconv read each window's history loads
    # to other scores: --resume stops, naming it, and leaves the scores alone
    raw, work = tmp_path / "raw", tmp_path / "work"
    _write_archive(raw)
    script = _load_script()
    argv = ["--raw", str(raw), "--work", str(work), "--window", "8", "--epochs", "1",
            "--limit", "1", "--quiet"]

    assert script.main(argv) == 0
    ckpt = work / "checkpoints" / "A-1.ckpt"
    ckpt.write_text(ckpt.read_text().replace("tcnad-checkpoint-v2", "tcnad-checkpoint-v1"))
    scores = work / "scores" / "A-1.csv"
    first = scores.read_bytes()

    with pytest.raises(SystemExit) as exc:
        script.main(argv + ["--resume"])
    message = str(exc.value.code)
    assert str(ckpt) in message and "tcnad-checkpoint-v1" in message and "retrain" in message
    assert message.endswith("rerun without --resume")
    assert scores.read_bytes() == first
    capsys.readouterr()


def test_resume_refuses_a_work_dir_without_a_training_record(tmp_path, capsys):
    raw, work = tmp_path / "raw", tmp_path / "work"
    _write_archive(raw)
    script = _load_script()
    argv = ["--raw", str(raw), "--work", str(work), "--window", "8", "--epochs", "1",
            "--limit", "1", "--quiet"]

    assert script.main(argv) == 0
    record = work / "checkpoints" / "train.json"
    record.unlink()    # as a work dir written before the record existed
    scores = work / "scores" / "A-1.csv"
    first = scores.read_bytes()

    with pytest.raises(SystemExit) as exc:
        script.main(argv + ["--resume"])
    assert f"{record} has no record of the training flags" in str(exc.value.code)
    assert scores.read_bytes() == first
    capsys.readouterr()


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_limit_below_one_is_a_usage_error(tmp_path, capsys, limit, monkeypatch):
    # --limit 0 used to run every channel and --limit -2 to drop the last two
    raw, work = tmp_path / "raw", tmp_path / "work"
    _write_archive(raw)
    script = _load_script()

    def fail(*args, **kwargs):
        raise AssertionError("a channel ran under an invalid --limit")

    monkeypatch.setattr(script, "fit_channel", fail)
    with pytest.raises(SystemExit) as exc:
        script.main(["--raw", str(raw), "--work", str(work), "--limit", limit])
    assert exc.value.code == 2
    assert f"--limit must be >= 1, got {limit}" in capsys.readouterr().err
    assert not work.exists()
