"""Anomaly detection for multivariate telemetry.

A window forecaster (causal preconvolution, temporal + variable attention,
dilated TCN stack, MLP head) is trained on nominal data; at test time the
per-step prediction RMSE becomes an anomaly score, a threshold is selected by
grid search, the epsilon rule, or peaks-over-threshold, and detections are
evaluated with point-adjusted precision/recall/F1.
"""

from .autodiff import Tape, Tensor, backward
from .data import (
    ChannelDataset,
    DataFormatError,
    ManifestEntry,
    NormalizationStats,
    compute_stats,
    load_channel,
    normalize,
    parse_config_file,
    read_manifest,
    read_matrix,
    write_matrix_binary,
    write_matrix_csv,
)
from .evaluation import (
    AnomalySegment,
    EvalReport,
    aggregate,
    evaluate_predictions,
    f1_score,
    labels_from_segments,
    point_adjust,
    point_adjusted_report,
    segments_from_labels,
)
from .forecaster import (
    ForecasterParams,
    ModelConfig,
    forward,
    init_forecaster,
    load_checkpoint,
    save_checkpoint,
)
from .optim import AdamState, adam_step
from .pipeline import evaluate_channel, fit_channel
from .synthetic import SyntheticDataset, sines_with_level_shifts
from .tcn import TcnBlockParams, TcnStackParams, receptive_field
from .thresholds import (
    GpdFitError,
    ScoreSequence,
    ThresholdResult,
    anomaly_scores,
    apply_threshold,
    best_f1_threshold,
    epsilon_threshold,
    fit_gpd,
    pot_threshold,
)
from .trainer import (
    EmptyDatasetError,
    TrainConfig,
    TrainResult,
    TrainingDivergedError,
    build_windows,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AnomalySegment",
    "ChannelDataset",
    "DataFormatError",
    "EmptyDatasetError",
    "EvalReport",
    "ForecasterParams",
    "GpdFitError",
    "ManifestEntry",
    "ModelConfig",
    "NormalizationStats",
    "ScoreSequence",
    "SyntheticDataset",
    "Tape",
    "TcnBlockParams",
    "TcnStackParams",
    "Tensor",
    "ThresholdResult",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "adam_step",
    "aggregate",
    "anomaly_scores",
    "apply_threshold",
    "backward",
    "best_f1_threshold",
    "build_windows",
    "compute_stats",
    "epsilon_threshold",
    "evaluate_channel",
    "evaluate_predictions",
    "f1_score",
    "fit_channel",
    "fit_gpd",
    "forward",
    "init_forecaster",
    "labels_from_segments",
    "load_channel",
    "load_checkpoint",
    "normalize",
    "parse_config_file",
    "point_adjust",
    "point_adjusted_report",
    "pot_threshold",
    "read_manifest",
    "read_matrix",
    "save_checkpoint",
    "segments_from_labels",
    "sines_with_level_shifts",
    "train",
    "write_matrix_binary",
    "write_matrix_csv",
]
