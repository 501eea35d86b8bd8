"""Residual anomaly scores and the three threshold selectors.

A trained forecaster turns a test series into one score per predictable time
step (the RMSE of its one-step prediction). Anomalies are the points whose
score exceeds a threshold chosen by one of:

* ``best_f1_threshold`` -- sweep every distinct score and keep the one with the
  best point-adjusted F1. Peeks at the labels by construction; this is the
  upper-bound protocol used for reporting.
* ``epsilon_threshold`` -- label-free. Candidates mu + z*sigma are ranked by
  how much removing the points above them cleans up the mean/std, penalized by
  how many points and runs get removed.
* ``pot_threshold`` -- label-free peaks-over-threshold: fit a generalized Pareto
  distribution (maximum likelihood by a grid and zoom over theta = gamma/beta,
  shape clipped to [-0.5, 1]) to the exceedances over a high initial quantile and
  extrapolate the level exceeded with probability q, below the tail fraction.

Thresholds are always applied strictly: a point is anomalous iff score > th.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .evaluation import f1_from_counts, point_adjusted_counts
from .forecaster import ForecasterParams
from .trainer import build_windows, window_scores

DEFAULT_Z_GRID = tuple(np.arange(2.0, 10.0 + 1e-9, 0.5))


class GpdFitError(RuntimeError):
    """Tail fit impossible: too few exceedances over the initial threshold."""


@dataclass
class ScoreSequence:
    """Per-timestep scores aligned to absolute test indices.

    ``scores[i]`` belongs to test row ``first_timestep + i``; the first
    ``first_timestep`` rows of the series are warm-up context only.
    """

    scores: np.ndarray
    first_timestep: int

    @property
    def timesteps(self) -> np.ndarray:
        return np.arange(self.first_timestep, self.first_timestep + self.scores.size)


@dataclass
class ThresholdResult:
    method: str
    threshold: float
    diagnostics: dict = field(default_factory=dict)


def first_non_finite(values: np.ndarray) -> tuple[int, ...] | None:
    """The index of the first non-finite entry of ``values`` in C order, or None."""
    bad = np.flatnonzero(~np.isfinite(values))
    return tuple(int(i) for i in np.unravel_index(bad[0], values.shape)) if bad.size else None


def _require_finite(values: np.ndarray, name: str):
    """Raise ValueError naming the first non-finite entry of ``values``."""
    index = first_non_finite(values)
    if index is not None:
        where = index[0] if len(index) == 1 else index
        raise ValueError(f"{name} has a non-finite value {float(values[index])} at index {where}")


def anomaly_scores(params: ForecasterParams, series: np.ndarray) -> ScoreSequence:
    """Score every predictable step of an (already normalized) test series."""
    window = params.config.window
    windows = build_windows(series, window)
    _require_finite(np.asarray(series, dtype=np.float64), "series")
    return ScoreSequence(window_scores(params, windows), window)


def apply_threshold(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Binary predictions via the strict rule score > threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    return (scores > threshold).astype(np.int64)


# ---------------------------------------------------------------------------
# best-F1 grid search
# ---------------------------------------------------------------------------

def best_f1_threshold(scores: np.ndarray, labels: np.ndarray) -> ThresholdResult:
    """Threshold with the best point-adjusted F1 over all distinct scores.

    Candidates are the unique scores plus +inf (predict nothing); ties on F1
    go to the larger threshold. ``point_adjusted_counts`` counts every
    candidate at once.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("best_f1_threshold needs at least one score")
    _require_finite(scores, "scores")
    candidates = np.concatenate([np.unique(scores), [np.inf]])
    tp, fp, fn = point_adjusted_counts(scores, labels, candidates)
    precision, recall, f1 = f1_from_counts(tp, fp, fn)
    # argmax of the reversed array -> last (largest-threshold) maximizer
    best = f1.size - 1 - int(np.argmax(f1[::-1]))
    return ThresholdResult(
        method="grid",
        threshold=float(candidates[best]),
        diagnostics={
            "f1": float(f1[best]),
            "precision": float(precision[best]),
            "recall": float(recall[best]),
            "tp": int(tp[best]),
            "fp": int(fp[best]),
            "fn": int(fn[best]),
            "n_candidates": int(candidates.size),
        },
    )


# ---------------------------------------------------------------------------
# epsilon method
# ---------------------------------------------------------------------------

def epsilon_threshold(scores: np.ndarray) -> ThresholdResult:
    """Label-free threshold mu + z*sigma with z chosen from ``DEFAULT_Z_GRID``.

    Each candidate epsilon is scored by the relative drop in mean and std when the
    points above it are pruned and those below kept (a score equal to it is in
    neither set), over the count of points above plus the squared number of runs
    they form. Sorted scores and neighbour-pair minima estimate each candidate;
    those within 1e-9 of the best are re-scored by masking, and the first exact
    maximum wins. Candidates with no point above epsilon are skipped; if all
    are, the threshold falls back to max(scores) (predict nothing) with a warning.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 2:
        raise ValueError("epsilon_threshold needs at least two scores")
    _require_finite(scores, "scores")
    if np.any(scores < 0):
        raise ValueError("epsilon_threshold expects non-negative scores")
    mu = float(scores.mean())
    sigma = float(scores.std())  # population std

    best: dict | None = None
    z = np.array(DEFAULT_Z_GRID)
    eps, s = mu + z * sigma, np.sort(scores)
    n_above = scores.size - np.searchsorted(s, eps, side="right")
    m = np.count_nonzero(n_above)               # n_above falls with z: candidates 0..m-1 count
    if sigma > 0.0 and m:
        z, eps, n_above = z[:m], eps[:m], n_above[:m]
        n_below = np.searchsorted(s, eps)
        shift = np.cumsum(s - mu)[n_below - 1] / n_below    # below-set mean - mu
        var = np.cumsum((s - mu) ** 2)[n_below - 1] / n_below - shift * shift
        # runs = points above - neighbour pairs both above, i.e. whose smaller one is above
        pairs = np.sort(np.minimum(scores[1:], scores[:-1]))
        runs = n_above - (pairs.size - np.searchsorted(pairs, eps, side="right"))
        approx = (1.0 - shift / mu - np.sqrt(np.maximum(var, 0.0)) / sigma) / (n_above + runs**2)
        for j in np.flatnonzero(approx >= approx.max() - 1e-9):
            if j and n_below[j] == n_below[j - 1] and n_above[j] == n_above[j - 1]:
                continue                            # j - 1's sets: the same score, and first
            below, count, n_runs = scores[scores < eps[j]], int(n_above[j]), int(runs[j])
            value = ((mu - float(below.mean())) / mu + (sigma - float(below.std())) / sigma) \
                / (count + n_runs**2)
            if best is None or value > best["score"]:
                best = {"z": float(z[j]), "score": value, "n_above": count, "n_runs": n_runs,
                        "mu": mu, "sigma": sigma}
                th = eps[j]
    if best is None:
        warnings.warn(
            "epsilon method: no candidate threshold has points above it; "
            "falling back to max(scores)",
            RuntimeWarning,
            stacklevel=2,
        )
        return ThresholdResult(
            method="epsilon",
            threshold=float(scores.max()),
            diagnostics={"fallback": "max", "mu": mu, "sigma": sigma},
        )
    return ThresholdResult(method="epsilon", threshold=float(th), diagnostics=best)


# ---------------------------------------------------------------------------
# peaks over threshold
# ---------------------------------------------------------------------------

# fit_gpd's theta grid before its 1/max(y) and 1/mean(y) scales, and its zoom: 33 even
# points a step narrow the bracket 16-fold, so 7 steps leave 16**-7 = 3.7e-9 of it
_GRID = (np.geomspace(1e-8, 1.0, 48)[:-1] - 1.0, np.geomspace(1e-4, 1e4, 64))
_ZOOM, _ZOOM_STEPS = np.arange(33.0), 7


def _profile(y: np.ndarray, theta: np.ndarray):
    """(nll, gamma, beta) at each theta = gamma/beta, with the best gamma in [-0.5, 1].

    At fixed theta the NLL is n*log(gamma/theta) + (1 + 1/gamma)*S, S = sum(log1p(theta*y)),
    and its one minimum is gamma = S/n. theta = 0 is the exponential limit, beta = mean(y).
    """
    n, zero = y.size, theta == 0
    rows = max(1, 2**16 // n)   # blocks of whole rows of 2**16 theta*y floats, where n allows
    s = np.empty(theta.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, theta.size, rows):
            s[i:i + rows] = np.log1p(np.multiply.outer(theta[i:i + rows], y)).sum(axis=-1)
        gamma = np.where(zero, 0.0, np.minimum(np.maximum(s / n, -0.5), 1.0))
        beta = np.where(zero, y.sum() / n, gamma / theta)
        nll = n * np.log(beta) + np.where(zero, n, (1.0 + 1.0 / gamma) * s)
    return nll, gamma, beta


def fit_gpd(excesses: np.ndarray) -> tuple[float, float, float]:
    """Maximum-likelihood GPD fit (gamma, beta), gamma clipped to [-0.5, 1], and its NLL.

    Grimshaw's reduction (Technometrics 1993; SPOT, Siffer et al., KDD 2017) leaves
    a search over theta = gamma/beta alone: a grid over (-1/max y, 1e4/mean y) with
    0 in it, then zoom steps from the best grid point's neighbours, each over 33 even
    points and the best so far, keeping one spacing either side of the new best.
    """
    y = np.asarray(excesses, dtype=np.float64)
    if y.size == 0:
        raise GpdFitError("no excesses to fit")
    if np.any(y <= 0) or not np.all(np.isfinite(y)):
        raise ValueError("excesses must be positive and finite")
    theta = np.concatenate([_GRID[0] / y.max(), [0.0], _GRID[1] / y.mean()])
    nll, gamma, beta = _profile(y, theta)
    i = int(np.argmin(nll))
    lo, hi = theta[max(i - 1, 0)], theta[min(i + 1, theta.size - 1)]
    zoom = np.empty(_ZOOM.size + 1)                 # refilled in place each step
    for _ in range(_ZOOM_STEPS):
        step = (hi - lo) / (_ZOOM.size - 1)
        zoom[-1], theta = theta[i], zoom            # the best so far, read before the refill
        np.add(lo, np.multiply(_ZOOM, step, out=theta[:-1]), out=theta[:-1])
        nll, gamma, beta = _profile(y, theta)
        i = int(np.argmin(nll))
        lo, hi = max(lo, theta[i] - step), min(hi, theta[i] + step)
    return float(gamma[i]), float(beta[i]), float(nll[i])


def pot_displacement(
    gamma: float, beta: float, q: float, n_total: int, n_exceedances: int
) -> float:
    """How far above the initial threshold the final one sits.

    (beta/gamma) * ((q*N/N_th)**(-gamma) - 1), with the exponential limit
    beta * ln(N_th/(q*N)) when gamma is numerically zero.
    """
    target = q * n_total
    if abs(gamma) < 1e-6:
        return beta * float(np.log(n_exceedances / target))
    return (beta / gamma) * float((target / n_exceedances) ** (-gamma) - 1.0)


def pot_threshold(
    scores: np.ndarray,
    q: float = 1e-3,
    init_quantile: float = 0.98,
    min_exceedances: int = 32,
) -> ThresholdResult:
    """Extreme-value threshold from the exceedances over a high quantile.

    With gamma/beta fitted to the excesses over the initial threshold th0, the
    final threshold is

        th0 + (beta/gamma) * ((q*N / N_th)**(-gamma) - 1)

    falling back to the exponential form beta * ln(N_th / (q*N)) when gamma is
    numerically zero. Raises GpdFitError when fewer than ``min_exceedances``
    points sit above th0, and ValueError unless q is below the tail fraction
    N_th/N (else the threshold would not sit above th0). Warns, and sets
    ``gamma_on_clip`` in the diagnostics, when gamma is exactly -0.5 or 1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("pot_threshold needs at least one score")
    _require_finite(scores, "scores")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if not 0.0 < init_quantile < 1.0:
        raise ValueError(f"init_quantile must be in (0, 1), got {init_quantile}")
    if min_exceedances < 2:   # one point cannot determine two parameters
        raise ValueError(f"min_exceedances must be >= 2, got {min_exceedances}")
    n_total = scores.size
    th0 = float(np.quantile(scores, init_quantile))
    excesses = scores[scores > th0] - th0
    n_exc = int(excesses.size)
    if n_exc < min_exceedances:
        raise GpdFitError(
            f"only {n_exc} exceedances above the {init_quantile:g} quantile "
            f"(need >= {min_exceedances}); lower init_quantile or provide more scores"
        )
    if q >= n_exc / n_total:
        raise ValueError(f"q={q:g} must be below the tail fraction {n_exc}/{n_total} "
                         f"= {n_exc / n_total:g} above the {init_quantile:g} quantile")
    gamma, beta, nll = fit_gpd(excesses)
    on_clip = gamma in (-0.5, 1.0)
    if on_clip:
        warnings.warn(f"pot: the shape fitted to {n_exc} exceedances sits on its clip, "
                      f"gamma = {gamma:g}; the threshold extrapolates the bound, not the tail",
                      RuntimeWarning, stacklevel=2)
    threshold = th0 + pot_displacement(gamma, beta, q, n_total, n_exc)
    return ThresholdResult(
        method="pot",
        threshold=float(threshold),
        diagnostics={
            "gamma": gamma, "gamma_on_clip": on_clip, "beta": beta, "init_threshold": th0,
            "n_exceedances": n_exc, "n_total": n_total, "q": q, "nll": nll,
        },
    )
