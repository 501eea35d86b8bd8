"""File formats, normalization, and dataset loading.

Formats understood here:

* matrices -- CSV with a header row, or a 2-D numeric ``.npy`` array (the
  format of the public spacecraft archive). ``read_matrix`` sniffs which one
  it got and returns float64.
* manifest -- ``chan_id,spacecraft,anomaly_sequences,num_values`` CSV where
  anomaly_sequences is a bracketed list of [start, end] pairs (the layout of
  the public spacecraft datasets; extra columns are ignored).
* config -- flat ``key = value`` lines, ``#`` comments; unknown keys are an
  error, never silently dropped.
* small CSVs for scores, labels, losses, reports and score/threshold curves.

Normalization is min-max with statistics from the training split only.
"""

from __future__ import annotations

import ast
import csv
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .evaluation import AnomalySegment, EvalReport
from .forecaster import ModelConfig
from .thresholds import ScoreSequence
from .trainer import TrainConfig


class DataFormatError(Exception):
    """A file does not match the format it is supposed to have."""


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

@dataclass
class NormalizationStats:
    """Min/max from the training split; per-feature vectors or global scalars."""

    minimum: np.ndarray
    maximum: np.ndarray
    mode: str = "per_feature"

    def __post_init__(self):
        if self.mode not in ("per_feature", "global"):
            raise ValueError(f"unknown normalization mode {self.mode!r}")
        self.minimum = np.asarray(self.minimum, dtype=np.float64)
        self.maximum = np.asarray(self.maximum, dtype=np.float64)
        if self.minimum.shape != self.maximum.shape:
            raise ValueError("min/max shape mismatch")


def compute_stats(train: np.ndarray, mode: str = "per_feature") -> NormalizationStats:
    train = np.asarray(train, dtype=np.float64)
    if train.ndim != 2 or train.size == 0:
        raise ValueError(f"expected a non-empty (N, m) matrix, got shape {train.shape}")
    if mode == "per_feature":
        mn, mx = train.min(axis=0), train.max(axis=0)
        constant = (f"features {np.flatnonzero(mx == mn).tolist()} are constant in the "
                    "training split; they normalize to 0")
    elif mode == "global":
        mn = np.array([train.min()])
        mx = np.array([train.max()])
        constant = "training split is globally constant; everything normalizes to 0"
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    if np.any(mx == mn):
        warnings.warn(constant, RuntimeWarning, stacklevel=2)
    return NormalizationStats(minimum=mn, maximum=mx, mode=mode)


def normalize(x: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """(x - min) / (max - min); features with zero range map to 0."""
    x = np.asarray(x, dtype=np.float64)
    span = stats.maximum - stats.minimum
    safe = np.where(span == 0, 1.0, span)
    out = (x - stats.minimum) / safe
    return np.where(span == 0, 0.0, out)


# ---------------------------------------------------------------------------
# matrix files
# ---------------------------------------------------------------------------

def write_matrix_csv(path, x: np.ndarray, feature_names: list[str] | None = None):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    names = feature_names or [f"f{i}" for i in range(x.shape[1])]
    if len(names) != x.shape[1]:
        raise ValueError("feature_names length mismatch")
    _write_csv(path, names, ([repr(float(v)) for v in row] for row in x))


def read_matrix_csv(path) -> np.ndarray:
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width} columns, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _read_npy(path) -> np.ndarray:
    try:
        x = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:     # bad header, truncated, pickled objects
        raise DataFormatError(f"{path}: unreadable .npy file ({exc})") from None
    if x.ndim != 2:
        raise DataFormatError(f"{path}: expected a 2-D matrix, got shape {x.shape}")
    if x.dtype.kind not in "iuf":
        raise DataFormatError(f"{path}: expected numbers, got dtype {x.dtype}")
    if x.size == 0:
        raise DataFormatError(f"{path}: no data rows ({x.shape[0]} rows, {x.shape[1]} columns)")
    return np.ascontiguousarray(x, dtype=np.float64)


def read_matrix(path) -> np.ndarray:
    """Sniff ``.npy`` vs CSV by numpy's magic bytes, delegate, and reject non-finite values."""
    magic = np.lib.format.MAGIC_PREFIX
    with open(path, "rb") as fh:
        npy = fh.read(len(magic)) == magic
    x = _read_npy(path) if npy else read_matrix_csv(path)
    finite = np.isfinite(x)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataFormatError(
            f"{path}: matrix contains non-finite value {x[row, col]} at row {row}, column {col}"
        )
    return x


# ---------------------------------------------------------------------------
# manifest + channel loading
# ---------------------------------------------------------------------------

@dataclass
class ManifestEntry:
    channel: str
    segments: list[AnomalySegment]
    spacecraft: str = ""
    num_values: int | None = None


@dataclass
class ChannelDataset:
    channel: str
    train: np.ndarray
    test: np.ndarray
    segments: list[AnomalySegment] = field(default_factory=list)


def read_manifest(path) -> dict[str, ManifestEntry]:
    entries: dict[str, ManifestEntry] = {}
    seen: dict[str, int] = {}      # chan_id -> line it first appeared on
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for required in ("chan_id", "anomaly_sequences"):
            if required not in fields:
                raise DataFormatError(f"{path}: manifest lacks a {required!r} column")
        for row in reader:
            lineno = reader.line_num          # DictReader skips blank lines
            chan = (row.get("chan_id") or "").strip()
            if not chan:
                raise DataFormatError(f"{path}:{lineno}: empty chan_id")
            if chan in seen:
                raise DataFormatError(
                    f"{path}:{lineno}: chan_id {chan!r} repeats line {seen[chan]}"
                )
            seen[chan] = lineno
            try:
                seqs = ast.literal_eval(row["anomaly_sequences"])
                if any(type(b) is not int for pair in seqs for b in pair):
                    raise ValueError(f"segment bounds must be integers, got {seqs}")
                segments = [AnomalySegment(s, e) for s, e in seqs]
            except (ValueError, SyntaxError, TypeError) as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: bad anomaly_sequences ({exc})"
                ) from None
            raw_nv = (row.get("num_values") or "").strip()
            if raw_nv and not raw_nv.isdecimal():
                raise DataFormatError(
                    f"{path}:{lineno}: num_values must be a non-negative integer, got {raw_nv!r}"
                )
            entries[chan] = ManifestEntry(
                channel=chan,
                segments=segments,
                spacecraft=(row.get("spacecraft") or "").strip(),
                num_values=int(raw_nv) if raw_nv else None,
            )
    if not entries:
        raise DataFormatError(f"{path}: manifest has no rows")
    return entries


def write_manifest(path, entries: list[ManifestEntry]):
    _write_csv(path, ["chan_id", "spacecraft", "anomaly_sequences", "num_values"], (
        [e.channel, e.spacecraft, str([[s.start, s.end] for s in e.segments]),
         "" if e.num_values is None else e.num_values]
        for e in entries
    ))


def is_manifest(path) -> bool:
    """True for a manifest header (has ``chan_id``), False for ``timestep,label``."""
    with open(path, newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh), [])]
    if "chan_id" in header:
        return True
    if header[:2] == ["timestep", "label"]:
        return False
    raise DataFormatError(
        f"{path}: expected a manifest header with a 'chan_id' column "
        "or a 'timestep,label' header"
    )


def _find_matrix(directory: Path, channel: str) -> Path:
    for suffix in (".csv", ".npy"):
        candidate = directory / f"{channel}{suffix}"
        if candidate.exists():
            return candidate
    raise DataFormatError(f"no {channel}.csv or {channel}.npy under {directory}")


def load_channel(data_dir, channel: str, manifest: dict | None = None) -> ChannelDataset:
    """Load train/test matrices and label segments for one channel.

    Expects ``<data_dir>/train/<ch>.csv|.npy``, ``<data_dir>/test/...`` and
    ``<data_dir>/labeled_anomalies.csv``, which is read unless ``manifest``
    holds it as ``read_manifest`` returns it (callers loading many channels).
    The public SMAP/MSL archive has this layout, so it is read in place.
    """
    data_dir = Path(data_dir)
    if manifest is None:
        manifest = read_manifest(data_dir / "labeled_anomalies.csv")
    if channel not in manifest:
        raise DataFormatError(f"channel {channel!r} not in {data_dir / 'labeled_anomalies.csv'}")
    entry = manifest[channel]
    train = read_matrix(_find_matrix(data_dir / "train", channel))
    test = read_matrix(_find_matrix(data_dir / "test", channel))
    if train.shape[1] != test.shape[1]:
        raise DataFormatError(
            f"{channel}: train has {train.shape[1]} features, test has {test.shape[1]}"
        )
    if entry.num_values is not None and entry.num_values != test.shape[0]:
        raise DataFormatError(
            f"{channel}: manifest num_values={entry.num_values} but test has "
            f"{test.shape[0]} rows"
        )
    for seg in entry.segments:
        if seg.end >= test.shape[0]:
            raise DataFormatError(
                f"{channel}: segment [{seg.start}, {seg.end}] exceeds test length "
                f"{test.shape[0]}"
            )
    return ChannelDataset(
        channel=channel, train=train, test=test, segments=entry.segments
    )


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

# config key -> default; the default's type decides how the value is parsed
_MODEL_FIELDS = {f.name: f.default for f in fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f.default for f in fields(TrainConfig)}
_FIXED_FIELDS = {"optimizer": "adam", "loss": "rmse"}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_value(default, raw: str, where: str):
    try:
        if isinstance(default, bool):     # before int: bool is an int subclass
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, tuple):    # dilations
            return tuple(int(part) for part in raw.replace(" ", "").split(","))
        return type(default)(raw)
    except ValueError as exc:
        raise DataFormatError(f"{where}: {exc}") from None


def parse_config_file(path) -> tuple[ModelConfig, TrainConfig]:
    """Flat key=value config; unknown keys and malformed values are errors."""
    model_kwargs: dict = {}
    train_kwargs: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in text.split("=", 1))
            where = f"{path}:{lineno}"
            if key in model_kwargs or key in train_kwargs:
                raise DataFormatError(f"{where}: duplicate key {key!r}")
            if key in _MODEL_FIELDS:
                model_kwargs[key] = _parse_value(_MODEL_FIELDS[key], raw, where)
            elif key in _TRAIN_FIELDS:
                train_kwargs[key] = _parse_value(_TRAIN_FIELDS[key], raw, where)
            elif key in _FIXED_FIELDS:
                if raw.lower() != _FIXED_FIELDS[key]:
                    raise DataFormatError(
                        f"{where}: only {key} = {_FIXED_FIELDS[key]} is supported, "
                        f"got {raw!r}"
                    )
            else:
                raise DataFormatError(f"{where}: unknown key {key!r}")
    try:
        return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# small CSVs
# ---------------------------------------------------------------------------

def _write_csv(path, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_timestep_csv(path, column: str, parse) -> tuple[np.ndarray, int]:
    """A ``timestep,<column>`` CSV -> (values, first_timestep); timesteps must be contiguous."""
    timesteps: list[int] = []
    values: list = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["timestep", column]:
            raise DataFormatError(f"{path}: expected a 'timestep,{column}' header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                timesteps.append(int(row[0]))
                values.append(parse(row[1]))
            except (ValueError, IndexError) as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    if not values:
        raise DataFormatError(f"{path}: no {column} rows")
    ts = np.asarray(timesteps)
    if not np.array_equal(ts, np.arange(ts[0], ts[0] + ts.size)):
        raise DataFormatError(f"{path}: timesteps must be contiguous and ascending")
    return np.asarray(values), int(ts[0])


def write_scores_csv(path, seq: ScoreSequence):
    _write_csv(path, ["timestep", "score"],
               ([int(t), repr(float(s))] for t, s in zip(seq.timesteps, seq.scores)))


def read_scores_csv(path) -> ScoreSequence:
    scores, first = _read_timestep_csv(path, "score", float)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise DataFormatError(
            f"{path}: non-finite score {scores[bad[0]]} at timestep {first + bad[0]}"
        )
    return ScoreSequence(scores=scores, first_timestep=first)


def write_labels_csv(path, labels: np.ndarray, first_timestep: int = 0):
    _write_csv(path, ["timestep", "label"],
               ([first_timestep + i, int(v)] for i, v in enumerate(np.asarray(labels))))


def read_labels_csv(path) -> tuple[np.ndarray, int]:
    """Aligned labels file -> (labels, first_timestep)."""
    labels, first = _read_timestep_csv(path, "label", int)
    if not np.isin(labels, (0, 1)).all():
        raise DataFormatError(f"{path}: labels must be 0/1")
    return labels, first


def write_loss_csv(path, history: list[float]):
    _write_csv(path, ["epoch", "loss"],
               ([epoch, repr(float(loss))] for epoch, loss in enumerate(history)))


def write_report_csv(path, reports: list[EvalReport]):
    _write_csv(path, ["channel", "tp", "fp", "fn", "precision", "recall", "f1"], (
        [r.channel, r.tp, r.fp, r.fn,
         repr(float(r.precision)), repr(float(r.recall)), repr(float(r.f1))]
        for r in reports
    ))


def write_sweep_csv(path, summaries: list[tuple[int, EvalReport]]):
    """One ``window,precision,recall,f1`` row per (window, aggregated report)."""
    _write_csv(path, ["window", "precision", "recall", "f1"], (
        [w, repr(float(r.precision)), repr(float(r.recall)), repr(float(r.f1))]
        for w, r in summaries
    ))


def write_curve_csv(path, seq: ScoreSequence, threshold: float,
                    labels: np.ndarray, predictions: np.ndarray):
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.size != seq.scores.size or predictions.size != seq.scores.size:
        raise ValueError("labels/predictions must align with the score sequence")
    _write_csv(path, ["timestep", "score", "threshold", "label", "prediction"], (
        [int(t), repr(float(s)), repr(float(threshold)), int(l), int(p)]
        for t, s, l, p in zip(seq.timesteps, seq.scores, labels, predictions)
    ))
