#!/usr/bin/env python3
"""Full-scale run against the public SMAP / MSL spacecraft telemetry archive.

This is the extended reproduction, deliberately kept out of the test suite:
training one forecaster per channel (55 SMAP channels, 27 MSL channels) takes
hours, and run-to-run numbers move with training stochasticity and evaluation
choices. Reference results for this family of detectors on these datasets are

    SMAP: precision 0.9539  recall 0.9019  F1 0.9272
    MSL:  precision 0.9419  recall 0.9815  F1 0.9613

and we treat a run whose micro-averaged F1 lands within +-0.05 of the
reference F1 as a successful reproduction. The script prints a per-channel
table, writes a report CSV, and states the verdict per spacecraft.

Expected raw layout (the archive's own layout, read in place)::

    <raw>/train/<chan>.npy            float array, shape (n_train, m)
    <raw>/test/<chan>.npy             float array, shape (n_test, m)
    <raw>/labeled_anomalies.csv       chan_id,spacecraft,anomaly_sequences,...

where m, a channel's width, is 25 for SMAP and 55 for MSL (Hundman et al.,
KDD 2018); a matrix of any width is read.

``--work`` receives ``checkpoints/``, ``scores/`` and ``report.csv``.
``checkpoints/train.json`` records the training flags (epochs, batch size,
learning rate) each checkpoint was trained with, which a checkpoint does not
hold; ``--resume`` reuses a checkpoint only if those and its model flags match.

Usage::

    python3 scripts/reproduce_nasa.py --raw /path/to/archive --work runs/nasa
    python3 scripts/reproduce_nasa.py --raw ... --work ... --spacecraft MSL \
        --epochs 10 --limit 3        # quick smoke run on three channels
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from tcnad.data import load_channel, read_manifest, write_report_csv, write_scores_csv
from tcnad.evaluation import aggregate
from tcnad.forecaster import ModelConfig, load_checkpoint, save_checkpoint
from tcnad.pipeline import evaluate_channel, fit_channel
from tcnad.trainer import TrainConfig

REFERENCE = {
    "SMAP": {"precision": 0.9539, "recall": 0.9019, "f1": 0.9272},
    "MSL": {"precision": 0.9419, "recall": 0.9815, "f1": 0.9613},
}
TOLERANCE = 0.05
# the training flags a checkpoint does not hold, recorded per channel beside the checkpoints
TRAIN_FLAGS = ("epochs", "batch_size", "learning_rate")
TRAIN_RECORD = Path("checkpoints", "train.json")


def run_channel(raw: Path, manifest: dict, work: Path, channel: str, model_cfg: ModelConfig,
                train_cfg: TrainConfig, resume: bool, quiet: bool, trained: dict):
    """Train, score, and pick the per-channel grid threshold; returns a report.
    ``manifest`` is the archive's ``labeled_anomalies.csv``, parsed once;
    ``trained`` is ``checkpoints/train.json``, which this keeps up to date."""
    ds = load_channel(raw, channel, manifest)
    ckpt_path = work / "checkpoints" / f"{channel}.ckpt"
    record = work / TRAIN_RECORD
    scores_path = work / "scores" / f"{channel}.csv"
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    scores_path.parent.mkdir(parents=True, exist_ok=True)
    flags = {k: getattr(train_cfg, k) for k in TRAIN_FLAGS}

    if resume and ckpt_path.exists():
        if channel not in trained:
            raise SystemExit(f"{ckpt_path}: {record} has no record of the training flags "
                             f"it was trained with; rerun without --resume")
        params, stats = load_checkpoint(ckpt_path)
        saved = asdict(params.config) | {"seed": params.seed} | trained[channel]
        wanted = asdict(model_cfg) | {"seed": train_cfg.seed} | flags
        changed = [f"{k} {saved[k]!r} -> {wanted[k]!r}" for k in wanted if saved[k] != wanted[k]]
        if changed:
            raise SystemExit(f"{ckpt_path}: checkpoint does not match the requested run "
                             f"({'; '.join(changed)}); rerun without --resume")
    else:
        trained.pop(channel, None)   # no record while the checkpoint is replaced
        record.write_text(json.dumps(trained, indent=1))
        progress = None
        if not quiet:
            def progress(epoch, loss):
                print(f"    epoch {epoch + 1}/{train_cfg.epochs} loss={loss:.5f}",
                      flush=True)
        stats, params, _ = fit_channel(ds.train, model_cfg, train_cfg, progress=progress)
        save_checkpoint(ckpt_path, params, stats)
        trained[channel] = flags
        record.write_text(json.dumps(trained, indent=1))

    seq, _, report = evaluate_channel(params, stats, ds.test, ds.segments, channel)
    write_scores_csv(scores_path, seq)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--raw", required=True, type=Path,
                        help="archive dir with train/, test/, labeled_anomalies.csv")
    parser.add_argument("--work", required=True, type=Path,
                        help="working dir for checkpoints, scores and the report")
    parser.add_argument("--spacecraft", choices=("SMAP", "MSL", "both"),
                        default="both")
    parser.add_argument("--window", type=int, default=100)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--learning-rate", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--limit", type=int,
                        help="only the first N channels per run (smoke testing)")
    parser.add_argument("--resume", action="store_true",
                        help="reuse existing checkpoints instead of retraining; stops "
                        "if one was trained with other model or training flags or seed, "
                        "or has no record of its training flags")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error(f"--limit must be >= 1, got {args.limit}")

    spacecrafts = ["SMAP", "MSL"] if args.spacecraft == "both" else [args.spacecraft]
    manifest = read_manifest(args.raw / "labeled_anomalies.csv")
    entries = sorted((e for e in manifest.values() if e.spacecraft in spacecrafts),
                     key=lambda e: e.channel)[:args.limit]
    if not entries:
        raise SystemExit(f"no channels for spacecraft {spacecrafts} in {args.raw}")

    model_cfg = ModelConfig(window=args.window)
    train_cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                            learning_rate=args.learning_rate, seed=args.seed)

    record = args.work / TRAIN_RECORD
    trained = json.loads(record.read_text()) if record.exists() else {}
    by_craft: dict[str, list] = {s: [] for s in spacecrafts}
    started = time.time()
    for i, entry in enumerate(entries, start=1):
        print(f"[{i}/{len(entries)}] {entry.spacecraft} {entry.channel} "
              f"(elapsed {time.time() - started:.0f}s)", flush=True)
        report = run_channel(args.raw, manifest, args.work, entry.channel, model_cfg,
                             train_cfg, args.resume, args.quiet, trained)
        by_craft[entry.spacecraft].append(report)
        print(f"    precision={report.precision:.4f} recall={report.recall:.4f} "
              f"f1={report.f1:.4f}", flush=True)

    print()
    print(f"{'channel':12s} {'tp':>5s} {'fp':>5s} {'fn':>5s} "
          f"{'precision':>9s} {'recall':>9s} {'f1':>9s}")
    all_reports = []
    ok = True
    for craft in spacecrafts:
        reports = by_craft[craft]
        if not reports:
            continue
        for r in reports:
            print(f"{r.channel:12s} {r.tp:5d} {r.fp:5d} {r.fn:5d} "
                  f"{r.precision:9.4f} {r.recall:9.4f} {r.f1:9.4f}")
        summary = replace(aggregate(reports), channel=f"{craft}(micro)")
        all_reports.extend(reports + [summary])
        ref = REFERENCE[craft]
        delta = summary.f1 - ref["f1"]
        verdict = "REPRODUCED" if abs(delta) <= TOLERANCE else "OUT OF BAND"
        print(f"{summary.channel:12s} {summary.tp:5d} {summary.fp:5d} {summary.fn:5d} "
              f"{summary.precision:9.4f} {summary.recall:9.4f} {summary.f1:9.4f}")
        print(f"  {craft}: reference f1={ref['f1']:.4f}, this run {summary.f1:.4f} "
              f"(delta {delta:+.4f}) -> {verdict}")
        if args.limit is None and abs(delta) > TOLERANCE:
            ok = False

    report_path = args.work / "report.csv"
    write_report_csv(report_path, all_reports)
    print(f"\nwrote {report_path}")
    if args.limit is not None:
        print("note: --limit was set; the verdict only applies to full runs")
        return 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
