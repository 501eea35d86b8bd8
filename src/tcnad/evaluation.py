"""Point-adjusted precision/recall/F1 for segment-labelled anomalies.

Ground truth arrives as whole anomalous segments. Under point adjustment a
segment counts as found if any single point inside it is flagged, so a found
segment adds its whole length to the true positives and a missed one adds it
to the false negatives. False positives are the flagged points outside every
segment. ``point_adjusted_counts`` counts this way at any number of
thresholds at once; a binary prediction is the same count at threshold 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AnomalySegment:
    """Closed index range [start, end] of anomalous points."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad segment [{self.start}, {self.end}]")


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    channel: str = ""


def f1_score(precision, recall):
    """Harmonic mean 2PR/(P+R) elementwise, defined as 0 where both rates are 0."""
    p, r = np.asarray(precision, dtype=np.float64), np.asarray(recall, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(p + r > 0, 2 * p * r / (p + r), 0.0)


def f1_from_counts(tp, fp, fn):
    """(precision, recall, f1) elementwise, with every 0/0 mapped to 0."""
    tp, fp, fn = (np.asarray(c, dtype=np.float64) for c in (tp, fp, fn))
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
    return precision, recall, f1_score(precision, recall)


def _report(tp: int, fp: int, fn: int, channel: str) -> EvalReport:
    precision, recall, f1 = f1_from_counts(tp, fp, fn)
    return EvalReport(int(tp), int(fp), int(fn), float(precision), float(recall), float(f1),
                      channel=channel)


def _check_binary(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    # the kind test first: a string array == 0 is a scalar False on numpy 1.24
    if arr.dtype.kind not in "biuf" or not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"{name} must contain only 0/1")
    return arr.astype(np.int64)


def _runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and (exclusive) stops of the runs of 1s in a binary vector."""
    padded = np.zeros(labels.size + 2, dtype=bool)   # bool compares: ~3x faster than int64 diff
    padded[1:-1] = labels
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[::2], edges[1::2]


def segments_from_labels(labels: np.ndarray) -> list[AnomalySegment]:
    """Maximal runs of 1s in a binary label vector."""
    starts, stops = _runs(_check_binary(labels, "labels"))
    return [AnomalySegment(int(s), int(e) - 1) for s, e in zip(starts, stops)]


def labels_from_segments(segments: list[AnomalySegment], length: int) -> np.ndarray:
    labels = np.zeros(length, dtype=np.int64)
    for seg in segments:
        if seg.end >= length:
            raise ValueError(f"segment [{seg.start}, {seg.end}] exceeds length {length}")
        labels[seg.start : seg.end + 1] = 1
    return labels


def point_adjusted_counts(scores: np.ndarray, labels: np.ndarray, thresholds):
    """Point-adjusted (tp, fp, fn) at each threshold, shaped like ``thresholds``.

    A labelled segment counts whole as true positives iff its largest score is
    above the threshold; false positives are the 0-labelled scores above it.
    Sorting the segment maxima and the outside scores once makes every
    threshold one ``searchsorted``, O((n + t) log n) in all.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = _check_binary(labels, "labels")
    if scores.shape != labels.shape:
        raise ValueError(f"length mismatch: {scores.size} values vs {labels.size} labels")
    starts, stops = _runs(labels)
    seg_max = np.array([scores[s:e].max() for s, e in zip(starts, stops)])
    order = np.argsort(seg_max)
    # suffix_len[k] = total length of the segments whose max ranks >= k
    suffix_len = np.concatenate([np.cumsum((stops - starts)[order][::-1])[::-1], [0]])
    outside = np.sort(scores[labels == 0])
    tp = suffix_len[np.searchsorted(seg_max[order], thresholds, side="right")]
    fp = outside.size - np.searchsorted(outside, thresholds, side="right")
    return tp, fp, suffix_len[0] - tp


def point_adjusted_report(
    predictions: np.ndarray, labels: np.ndarray, channel: str = ""
) -> EvalReport:
    """Point-adjusted counts and rates of binary predictions against labels."""
    predictions = _check_binary(predictions, "predictions")
    return _report(*point_adjusted_counts(predictions, labels, 0.0), channel)


def aggregate(reports: list[EvalReport]) -> EvalReport:
    """Micro-average per-channel reports: sum the counts, recompute the metrics."""
    if not reports:
        raise ValueError("aggregate needs at least one report")
    tp = sum(r.tp for r in reports)
    fp = sum(r.fp for r in reports)
    fn = sum(r.fn for r in reports)
    return _report(tp, fp, fn, channel="all(micro)")
