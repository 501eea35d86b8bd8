"""Three ways to turn anomaly scores into a yes/no threshold, side by side.

Given a per-timestep anomaly score, the package offers:

* ``grid``    -- label-aware: sweep every candidate threshold and keep the one
                 with the best point-adjusted F1. An upper bound on what any
                 selector can achieve, but it peeks at the labels.
* ``epsilon`` -- label-free: pick the mean + z*std level whose removal of
                 exceeding points most cleans up the remaining scores,
                 normalized by how many points and runs it removes.
* ``pot``     -- label-free: fit a generalized Pareto distribution to the tail
                 above a high initial quantile and place the threshold at a
                 target exceedance probability q.

This demo builds one synthetic score sequence with known anomalous stretches
and lets the three methods compete.
"""

import numpy as np

from tcnad.evaluation import point_adjusted_report, segments_from_labels
from tcnad.thresholds import (
    apply_threshold,
    best_f1_threshold,
    epsilon_threshold,
    pot_threshold,
)

rng = np.random.default_rng(42)

# ---------------------------------------------------------------------------
# 1. synthetic scores: smooth noise plus three elevated stretches
# ---------------------------------------------------------------------------
n = 4000
scores = rng.lognormal(mean=0.0, sigma=0.4, size=n)
labels = np.zeros(n, dtype=np.int64)
for start, length, lift in ((800, 40, 3.0), (2100, 60, 2.2), (3300, 25, 4.0)):
    labels[start : start + length] = 1
    scores[start : start + length] *= lift

segments = segments_from_labels(labels)
print(f"{n} scores, {len(segments)} anomalous segments:",
      [(s.start, s.end) for s in segments])

# ---------------------------------------------------------------------------
# 2. run all three selectors on the same sequence
# ---------------------------------------------------------------------------
results = {
    "grid": best_f1_threshold(scores, labels),
    "epsilon": epsilon_threshold(scores),
    "pot": pot_threshold(scores, q=1e-3, init_quantile=0.98, min_exceedances=32),
}

print(f"\n{'method':8s} {'threshold':>10s} {'precision':>10s} {'recall':>8s} {'f1':>8s}")
for name, result in results.items():
    preds = apply_threshold(scores, result.threshold)
    report = point_adjusted_report(preds, labels)
    print(f"{name:8s} {result.threshold:10.4f} {report.precision:10.4f} "
          f"{report.recall:8.4f} {report.f1:8.4f}")

# ---------------------------------------------------------------------------
# 3. what each method reports about itself
# ---------------------------------------------------------------------------
print("\ngrid diagnostics: ", {k: round(v, 4) for k, v in results["grid"].diagnostics.items()})
print("epsilon diagnostics:", {k: round(v, 4) for k, v in results["epsilon"].diagnostics.items()})
pot = results["pot"]
# gamma_on_clip says whether gamma sits on its bound -0.5 or 1, where the fit
# extrapolates the clip rather than the tail (pot_threshold warns then too)
print("pot diagnostics:    ", {k: v if isinstance(v, bool) else round(v, 4)
                               for k, v in pot.diagnostics.items()})
fit = pot.diagnostics
print(f"pot tail fit: gamma={fit['gamma']:.4f} beta={fit['beta']:.4f} "
      f"({fit['n_exceedances']} exceedances above {fit['init_threshold']:.4f}, "
      f"on the clip: {fit['gamma_on_clip']})")

# the label-aware grid is an upper bound for the label-free methods
grid_f1 = point_adjusted_report(
    apply_threshold(scores, results["grid"].threshold), labels
).f1
for name in ("epsilon", "pot"):
    f1 = point_adjusted_report(
        apply_threshold(scores, results[name].threshold), labels
    ).f1
    assert grid_f1 >= f1
print("\ngrid dominates both label-free selectors here, as it must.")
