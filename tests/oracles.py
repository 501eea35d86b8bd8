"""Independent reference implementations used to cross-check the fast paths.

Deliberately naive (nested loops, direct formulas) and kept free of any shared
code with the package so that agreement between the two is meaningful.
"""

from __future__ import annotations

import csv

import numpy as np


def conv_reference(x: np.ndarray, filters: np.ndarray, dilation: int) -> np.ndarray:
    """Causal dilated conv by explicit loops over every index."""
    w, c_in = x.shape
    k, _, c_out = filters.shape
    out = np.zeros((w, c_out))
    for t in range(w):
        for j in range(k):
            src = t - (k - 1 - j) * dilation
            if src < 0:
                continue
            for ci in range(c_in):
                for co in range(c_out):
                    out[t, co] += x[src, ci] * filters[j, ci, co]
    return out


def pair_scores_reference(left, right, v, slope, g):
    """GATv2 scores ``v . leaky_relu(left_i + right_j)`` and their grads, unfused.

    Builds the explicit (..., n, p, d) pair tensor and pushes the upstream
    grad ``g`` back through contraction, leaky_relu (derivative 1 at exactly
    0) and the pairwise sum, one textbook rule each. Returns
    (scores, d_left, d_right, d_v).
    """
    pair = left[..., :, None, :] + right[..., None, :, :]
    act = np.where(pair > 0, pair, slope * pair)
    g_pair = g[..., None] * v * np.where(pair >= 0, 1.0, slope)
    d_v = np.tensordot(g, act, axes=g.ndim)
    return act @ v, g_pair.sum(axis=-2), g_pair.sum(axis=-3), d_v


def point_adjust_reference(pred: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Walk the label runs; promote a run iff any of its points is predicted."""
    adjusted = np.array(pred, dtype=int, copy=True)
    n = len(labels)
    i = 0
    while i < n:
        if labels[i] == 1:
            j = i
            while j + 1 < n and labels[j + 1] == 1:
                j += 1
            hit = False
            for t in range(i, j + 1):
                if pred[t] == 1:
                    hit = True
            if hit:
                for t in range(i, j + 1):
                    adjusted[t] = 1
            i = j + 1
        else:
            i += 1
    return adjusted


def prf_reference(pred: np.ndarray, labels: np.ndarray) -> tuple[float, float, float]:
    tp = fp = fn = 0
    for p, y in zip(pred, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == 0:
            fp += 1
        elif p == 0 and y == 1:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def best_f1_reference(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Exhaustive sweep over unique scores + inf; ties -> larger threshold."""
    best_f1, best_th = -1.0, None
    for th in sorted(set(scores.tolist())) + [np.inf]:
        pred = (scores > th).astype(int)
        adjusted = point_adjust_reference(pred, labels)
        _, _, f1 = prf_reference(adjusted, labels)
        if f1 >= best_f1:
            best_f1, best_th = f1, th
    return best_th, best_f1


def gpd_quantile_sample(rng: np.random.Generator, gamma: float, beta: float, n: int) -> np.ndarray:
    """GPD draws via the inverse CDF y = beta/gamma * ((1-u)^-gamma - 1)."""
    u = rng.random(n)
    if abs(gamma) < 1e-12:
        return -beta * np.log1p(-u)
    return beta / gamma * ((1.0 - u) ** (-gamma) - 1.0)


def gpd_nll_reference(y: np.ndarray, gamma: float, beta: float) -> float:
    """GPD negative log-likelihood written out for one (gamma, beta) pair."""
    if beta <= 0:
        return np.inf
    if abs(gamma) < 1e-12:
        return y.size * np.log(beta) + float(y.sum()) / beta
    z = gamma * y / beta
    if z.min() <= -1.0:
        return np.inf
    return y.size * np.log(beta) + (1.0 + 1.0 / gamma) * float(np.log1p(z).sum())


def numeric_grad(fn, arr: np.ndarray, coords, eps: float = 1e-6) -> dict[int, float]:
    """Central differences of scalar fn() w.r.t. flat entries of arr (mutated in place)."""
    flat = arr.ravel()
    out = {}
    for idx in coords:
        orig = flat[idx]
        flat[idx] = orig + eps
        up = fn()
        flat[idx] = orig - eps
        down = fn()
        flat[idx] = orig
        out[int(idx)] = (up - down) / (2.0 * eps)
    return out


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def read_matrix_csv_reference(path) -> np.ndarray:
    """Matrix CSV by ``csv.reader`` and ``float()`` per cell; errors are ValueErrors naming
    ``path:line`` (a record's line, past blank ones)."""
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def read_timestep_csv_reference(path, column: str, parse) -> tuple[np.ndarray, int]:
    """``timestep,<column>`` CSV -> (values, first_timestep) by ``int()``/``parse`` per row;
    columns past the second are ignored. Errors as in ``read_matrix_csv_reference``."""
    timesteps: list[int] = []
    values: list = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["timestep", column]:
            raise ValueError(f"{path}: expected a 'timestep,{column}' header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                timesteps.append(int(row[0]))
                values.append(parse(row[1]))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not values:
        raise ValueError(f"{path}: no {column} rows")
    ts = np.asarray(timesteps)
    if not np.array_equal(ts, np.arange(ts[0], ts[0] + ts.size)):
        raise ValueError(f"{path}: timesteps must be contiguous and ascending")
    return np.asarray(values), int(ts[0])
