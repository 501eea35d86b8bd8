"""Seeded synthetic telemetry: smooth sine mixtures with injected level shifts.

Used by the end-to-end tests and the demo scripts. Each feature is a sum of
two sines (distinct periods, phases, amplitudes) plus light gaussian noise;
anomalies are contiguous level shifts added to the test portion and recorded
as segments only; ``evaluation.labels_from_segments`` makes the 0/1 labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evaluation import AnomalySegment


@dataclass
class SyntheticDataset:
    train: np.ndarray
    test: np.ndarray
    segments: list[AnomalySegment] = field(default_factory=list)


def sines_with_level_shifts(
    n_train: int = 5000,
    n_test: int = 2000,
    n_features: int = 3,
    n_anomalies: int = 5,
    shift: float = 0.8,
    noise: float = 0.02,
    min_length: int = 30,
    max_length: int = 80,
    margin: int = 120,
    seed: int = 0,
) -> SyntheticDataset:
    """Generate one train/test pair with level-shift anomalies in the test part.

    Anomalous segments are disjoint, start at least ``margin`` steps into the
    test series (so they sit past any warm-up window), and shift every feature
    by ``shift`` in a random direction. Everything is drawn from one seeded
    generator, so equal arguments give bit-identical datasets.
    """
    if n_anomalies < 0 or min_length < 1 or max_length < min_length:
        raise ValueError("bad anomaly segment parameters")
    rng = np.random.default_rng(seed)
    m = n_features
    total = n_train + n_test

    periods = rng.uniform(40.0, 160.0, size=(m, 2))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(m, 2))
    amps = rng.uniform(0.4, 1.0, size=(m, 2))
    t = np.arange(total)[:, None, None]
    waves = amps[None] * np.sin(2.0 * np.pi * t / periods[None] + phases[None])
    x = waves.sum(axis=2) + noise * rng.standard_normal((total, m))

    train, test = x[:n_train].copy(), x[n_train:].copy()
    segments: list[AnomalySegment] = []

    gap = 40
    cursor = margin
    for _ in range(n_anomalies):
        length = int(rng.integers(min_length, max_length + 1))
        latest = n_test - length - 1
        if cursor > latest:
            break
        start = int(rng.integers(cursor, min(latest, cursor + 400) + 1))
        end = start + length - 1
        direction = rng.choice((-1.0, 1.0), size=m)
        test[start : end + 1] += shift * direction
        segments.append(AnomalySegment(start, end))
        cursor = end + 1 + gap

    return SyntheticDataset(train=train, test=test, segments=segments)
