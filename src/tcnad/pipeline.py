"""The per-channel protocol, written once.

``fit_channel`` takes normalisation statistics from the train split only and
trains a forecaster seeded from ``TrainConfig.seed``. ``evaluate_channel``
scores the test split by residual, aligns the labels to the scored timesteps,
picks the best-F1 grid threshold and reports point-adjusted precision/recall/F1.
"""

from __future__ import annotations

import numpy as np

from .data import NormalizationStats, compute_stats, normalize
from .evaluation import AnomalySegment, EvalReport, labels_from_segments, point_adjusted_report
from .forecaster import ForecasterParams, ModelConfig, init_forecaster
from .thresholds import ScoreSequence, ThresholdResult, anomaly_scores, apply_threshold
from .thresholds import best_f1_threshold
from .trainer import TrainConfig, TrainResult, build_windows, train


def fit_channel(train_matrix: np.ndarray, model_cfg: ModelConfig, train_cfg: TrainConfig,
                progress=None) -> tuple[NormalizationStats, ForecasterParams, TrainResult]:
    """Normalise the train split by its own statistics and train a forecaster on it."""
    stats = compute_stats(train_matrix)
    windows = build_windows(normalize(train_matrix, stats), model_cfg.window)
    params = init_forecaster(train_matrix.shape[1], model_cfg, seed=train_cfg.seed)
    return stats, params, train(params, windows, train_cfg, progress=progress)


def evaluate_channel(params: ForecasterParams, stats: NormalizationStats, test_matrix: np.ndarray,
                     segments: list[AnomalySegment], channel: str = ""
                     ) -> tuple[ScoreSequence, ThresholdResult, EvalReport]:
    """Score the test split, pick the best-F1 threshold and evaluate it point-adjusted."""
    seq = anomaly_scores(params, normalize(test_matrix, stats))
    # anomaly_scores scores through the last row: the scored labels are the tail
    labels = labels_from_segments(segments, test_matrix.shape[0])[seq.first_timestep:]
    chosen = best_f1_threshold(seq.scores, labels)
    preds = apply_threshold(seq.scores, chosen.threshold)
    return seq, chosen, point_adjusted_report(preds, labels, channel=channel)
