"""Anomaly detection for multivariate telemetry.

A window forecaster (causal preconvolution, temporal + variable attention,
dilated TCN stack, MLP head) is trained on nominal data; at test time the
per-step prediction RMSE becomes an anomaly score, a threshold is selected by
grid search, the epsilon rule, or peaks-over-threshold, and detections are
evaluated with point-adjusted precision/recall/F1.

The top level holds the per-channel pipeline and the stages it chains; every
other name is imported from its submodule (``tcnad.autodiff``, ``tcnad.data``,
``tcnad.thresholds``, ...).
"""

from .data import compute_stats
from .evaluation import point_adjusted_report
from .forecaster import ModelConfig, init_forecaster
from .pipeline import evaluate_channel, fit_channel
from .synthetic import sines_with_level_shifts
from .thresholds import anomaly_scores, best_f1_threshold
from .trainer import EmptyDatasetError, TrainConfig, TrainingDivergedError, build_windows, train

__version__ = "0.1.0"

__all__ = [
    "EmptyDatasetError",
    "ModelConfig",
    "TrainConfig",
    "TrainingDivergedError",
    "anomaly_scores",
    "best_f1_threshold",
    "build_windows",
    "compute_stats",
    "evaluate_channel",
    "fit_channel",
    "init_forecaster",
    "point_adjusted_report",
    "sines_with_level_shifts",
    "train",
]
