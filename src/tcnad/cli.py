"""Command line entry points.

Subcommands: train, score, threshold, evaluate, sweep-window, export-curves.
Exit codes: 0 success, 1 usage problem, 2 data/format problem, 3 numerical
failure (diverged training, impossible tail fit).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .data import (
    DataFormatError,
    is_manifest,
    load_channel,
    normalize,
    parse_config_file,
    read_labels_csv,
    read_manifest,
    read_matrix,
    read_scores_csv,
    write_curve_csv,
    write_loss_csv,
    write_report_csv,
    write_scores_csv,
    write_sweep_csv,
)
from .evaluation import aggregate, labels_from_segments, point_adjusted_report
from .forecaster import ModelConfig, load_checkpoint, save_checkpoint
from .pipeline import evaluate_channel, fit_channel
from .thresholds import (
    GpdFitError,
    ScoreSequence,
    anomaly_scores,
    apply_threshold,
    best_f1_threshold,
    epsilon_threshold,
    pot_threshold,
)
from .trainer import EmptyDatasetError, TrainConfig, TrainingDivergedError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Arguments are well-formed but semantically wrong together."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; our contract reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    # argparse takes "-inf" and "-1e-3" for flags (it knows only "-1" and
    # "-.5" as numbers); no option here looks like a number, so any is a value
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _threshold(text: str) -> float:
    """A float or +-inf; NaN is refused, since no score exceeds it."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if np.isnan(value):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    return value


@functools.cache  # built once a process; parse_args leaves the parser as it found it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tcnad",
        description="Telemetry anomaly detection: train a window forecaster, "
        "score residuals, pick a threshold, evaluate with point adjustment.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fit = argparse.ArgumentParser(add_help=False)  # options train and sweep-window share
    fit.add_argument("--data", required=True, help="dataset dir with train/, test/, labeled_anomalies.csv")
    fit.add_argument("--channel", action="append", required=True,
                     help="channel id (repeatable); 'all' selects every manifest channel")
    fit.add_argument("--config", help="key = value config file")
    fit.add_argument("--seed", type=int, help="override the config seed")
    fit.add_argument("--epochs", type=int, help="override the config epoch count")
    fit.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")

    p = sub.add_parser("train", parents=[fit], help="train one forecaster per channel")
    p.add_argument("--out", required=True, help="output dir for checkpoints and loss curves")
    p.add_argument("--window", type=int, help="override the config window length")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score a test series with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="test matrix (.csv or .npy)")
    p.add_argument("--out", required=True, help="output scores CSV")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("threshold", help="select a threshold for a score sequence")
    p.add_argument("--scores", required=True, help="scores CSV from 'score'")
    p.add_argument("--method", required=True, choices=("grid", "epsilon", "pot"))
    p.add_argument("--labels", help="labels CSV or manifest (required for grid)")
    p.add_argument("--channel", help="channel id for manifest labels (default: scores file stem)")
    p.add_argument("--q", type=float, default=1e-3, help="tail risk for pot (default 1e-3)")
    p.add_argument("--init-quantile", type=float, default=0.98,
                   help="initial quantile for pot (default 0.98)")
    p.add_argument("--min-exceedances", type=int, default=32,
                   help="minimum tail points for pot, at least 2 (default 32)")
    p.add_argument("--out", help="optional JSON result file")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("evaluate", help="point-adjusted precision/recall/F1")
    p.add_argument("--scores", nargs="+", required=True, help="one or more score CSVs")
    p.add_argument("--labels", required=True, help="labels CSV or manifest")
    p.add_argument("--threshold", nargs="+", required=True, type=_threshold,
                   help="one threshold per scores file, or a single shared one")
    p.add_argument("--channel", action="append",
                   help="channel ids matching --scores (default: file stems)")
    p.add_argument("--out", help="optional report CSV")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-window", parents=[fit], help="train/evaluate across window lengths")
    p.add_argument("--windows", required=True, help="comma list, e.g. 20,40,60,80,100")
    p.add_argument("--out", help="optional CSV of window,precision,recall,f1")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-curves", help="per-timestep score/threshold/label/prediction CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--threshold", required=True, type=_threshold)
    p.add_argument("--channel")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _load_configs(args) -> tuple[ModelConfig, TrainConfig]:
    if args.config:
        model_cfg, train_cfg = parse_config_file(args.config)
    else:
        model_cfg, train_cfg = ModelConfig(), TrainConfig()
    if getattr(args, "window", None) is not None:  # train only; sweep-window sets its own
        model_cfg = replace(model_cfg, window=args.window)
    if args.epochs is not None:
        train_cfg = replace(train_cfg, epochs=args.epochs)
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    return model_cfg, train_cfg


def _read_channels(data_dir, requested: list[str]) -> tuple[dict, list[str]]:
    """The dataset manifest, parsed once a command, and the requested channels."""
    manifest = read_manifest(Path(data_dir) / "labeled_anomalies.csv")
    if any(ch == "all" for ch in requested):
        return manifest, sorted(manifest)
    return manifest, list(dict.fromkeys(requested))


def _label_aligner(labels_path):
    """Parse a labels CSV or manifest once; return ``align(seq, channel)``, which
    gives the labels of exactly the scored timesteps."""
    manifest = read_manifest(labels_path) if is_manifest(labels_path) else None
    from_csv = read_labels_csv(labels_path) if manifest is None else None

    def align(seq: ScoreSequence, channel: str) -> np.ndarray:
        lo, n = seq.first_timestep, seq.scores.size
        if manifest is None:
            (labels, first), where = from_csv, labels_path
        elif channel not in manifest:
            raise DataFormatError(f"channel {channel!r} not found in {labels_path}")
        else:
            # a channel's labels start at timestep 0 and without num_values end with the scores
            entry, where = manifest[channel], f"{labels_path}: channel {channel!r}"
            length = entry.num_values if entry.num_values is not None else lo + n
            try:
                labels, first = labels_from_segments(entry.segments, length), 0
            except ValueError as exc:
                raise DataFormatError(f"{where}: {exc}") from None
        offset = lo - first
        if offset < 0 or offset + n > labels.size:
            raise DataFormatError(
                f"{where}: labels cover timesteps {first}..{first + labels.size - 1} "
                f"but scores need {lo}..{lo + n - 1}"
            )
        return labels[offset : offset + n]

    return align


def _progress(channel, epochs, quiet):
    if quiet:
        return None
    return lambda epoch, loss: print(f"[{channel}] epoch {epoch + 1}/{epochs} loss={loss:.6f}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    model_cfg, train_cfg = _load_configs(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest, channels = _read_channels(args.data, args.channel)
    for channel in channels:
        stats, params, result = fit_channel(
            load_channel(args.data, channel, manifest).train, model_cfg, train_cfg,
            _progress(channel, train_cfg.epochs, args.quiet),
        )
        ckpt = out_dir / f"{channel}.ckpt"
        save_checkpoint(ckpt, params, stats)
        write_loss_csv(out_dir / f"{channel}.loss.csv", result.loss_history)
        final = result.loss_history[-1] if result.loss_history else float("nan")
        print(f"{channel}: {len(result.loss_history)} epochs, final loss {final:.6f}, saved {ckpt}")
    return EXIT_OK


def cmd_score(args) -> int:
    params, stats = load_checkpoint(args.checkpoint)
    test = read_matrix(args.test)
    if test.shape[1] != params.n_features:
        raise DataFormatError(
            f"{args.test}: checkpoint expects {params.n_features} features, "
            f"matrix has {test.shape[1]}"
        )
    series = normalize(test, stats) if stats is not None else test
    seq = anomaly_scores(params, series)
    write_scores_csv(args.out, seq)
    print(
        f"wrote {seq.scores.size} scores for timesteps "
        f"{seq.first_timestep}..{seq.first_timestep + seq.scores.size - 1} to {args.out}"
    )
    return EXIT_OK


def cmd_threshold(args) -> int:
    seq = read_scores_csv(args.scores)
    if args.method == "grid":
        if not args.labels:
            raise UsageError("--method grid needs --labels")
        labels = _label_aligner(args.labels)(seq, args.channel or Path(args.scores).stem)
        result = best_f1_threshold(seq.scores, labels)
    elif args.method == "epsilon":
        result = epsilon_threshold(seq.scores)
    else:
        result = pot_threshold(
            seq.scores, q=args.q, init_quantile=args.init_quantile,
            min_exceedances=args.min_exceedances,
        )
    print(f"method={result.method}")
    print(f"threshold={result.threshold!r}")
    for key in sorted(result.diagnostics):
        print(f"{key}={result.diagnostics[key]}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(asdict(result), fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    n = len(args.scores)
    thresholds = args.threshold
    if len(thresholds) == 1:
        thresholds = thresholds * n
    if len(thresholds) != n:
        raise UsageError(
            f"got {len(args.threshold)} thresholds for {n} score files; "
            "pass one per file or a single shared threshold"
        )
    channels = args.channel or [Path(p).stem for p in args.scores]
    if len(channels) != n:
        raise UsageError(f"got {len(channels)} channels for {n} score files")

    align = _label_aligner(args.labels)
    reports = []
    for path, th, ch in zip(args.scores, thresholds, channels):
        seq = read_scores_csv(path)
        labels = align(seq, ch)
        preds = apply_threshold(seq.scores, th)
        reports.append(point_adjusted_report(preds, labels, channel=ch))
    summary = aggregate(reports)

    for r in reports + [summary]:
        print(
            f"{r.channel}: precision={r.precision:.4f} recall={r.recall:.4f} "
            f"f1={r.f1:.4f} tp={r.tp} fp={r.fp} fn={r.fn}"
        )
    if args.out:
        write_report_csv(args.out, reports + [summary])
    return EXIT_OK


def cmd_sweep(args) -> int:
    model_cfg, train_cfg = _load_configs(args)
    try:
        windows = [int(w) for w in args.windows.replace(" ", "").split(",") if w]
    except ValueError:
        raise UsageError(f"--windows must be a comma list of ints, got {args.windows!r}")
    if not windows:
        raise UsageError("--windows is empty")
    manifest, channels = _read_channels(args.data, args.channel)

    reports = [[] for _ in windows]          # reports[k]: one per channel at windows[k]
    for channel in channels:
        ds = load_channel(args.data, channel, manifest)
        for w, per_window in zip(windows, reports):
            stats, params, _ = fit_channel(
                ds.train, replace(model_cfg, window=w), train_cfg,
                _progress(channel, train_cfg.epochs, args.quiet),
            )
            per_window.append(evaluate_channel(params, stats, ds.test, ds.segments, channel)[2])
    summaries = [(w, aggregate(per_window)) for w, per_window in zip(windows, reports)]
    for w, agg in summaries:
        print(f"window={w} precision={agg.precision:.4f} recall={agg.recall:.4f} f1={agg.f1:.4f}")
    if args.out:
        write_sweep_csv(args.out, summaries)
    return EXIT_OK


def cmd_export(args) -> int:
    seq = read_scores_csv(args.scores)
    labels = _label_aligner(args.labels)(seq, args.channel or Path(args.scores).stem)
    preds = apply_threshold(seq.scores, args.threshold)
    write_curve_csv(args.out, seq, args.threshold, labels, preds)
    print(f"wrote {seq.scores.size} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # raised by --help (0) and usage errors (1)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"tcnad {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, EmptyDatasetError, OSError) as exc:
        print(f"tcnad {args.command}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, GpdFitError) as exc:
        print(f"tcnad {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"tcnad {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
