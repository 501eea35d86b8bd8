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


def conv_backward_reference(x: np.ndarray, filters: np.ndarray, dilation: int, g: np.ndarray,
                            rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(d x, d filters) of the causal dilated conv's last ``rows`` outputs (all w
    when None) for the upstream grad ``g``, by explicit loops over windows,
    output steps and taps: output t takes x[t - (K-1-j)*dilation] @ filters[j],
    so it sends filters[j] @ g[t] back to that input row and adds
    outer(x[src], g[t]) to tap j."""
    *lead, w, c_in = x.shape
    k = filters.shape[0]
    n = w if rows is None else rows
    xs, gs = x.reshape(-1, w, c_in), g.reshape(-1, n, g.shape[-1])
    gx, gf = np.zeros_like(xs), np.zeros_like(filters)
    for b in range(xs.shape[0]):
        for r in range(n):
            t = w - n + r
            for j in range(k):
                src = t - (k - 1 - j) * dilation
                if src < 0:
                    continue
                gx[b, src] += filters[j] @ gs[b, r]
                gf[j] += np.outer(xs[b, src], gs[b, r])
    return gx.reshape(x.shape), gf


def matmul_input_grad_reference(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d a of ``a @ b`` for the upstream grad ``g``, with ``b`` shared (k, p) or
    batched (..., k, p): row i gets sum_p g[i, p] * b[:, p], one column p at a time."""
    out = np.zeros(g.shape[:-1] + (b.shape[-2],))
    for p in range(b.shape[-1]):
        out += g[..., p, None] * b[..., None, :, p]
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


def pair_scores_bool_mask(left, right, v, slope, g, blocks):
    """The fused pair-scores forward and rule with the sign mask kept whole, as a
    bool array of 1 byte an element, run over the same index ``blocks`` of the
    (entries, n, p, d) pair tensor in the same order: what a packed mask must
    reproduce bit for bit. Returns (scores, d_left, d_right, d_v)."""
    n, (p, d), lead = left.shape[-2], right.shape[-2:], left.shape[:-2]
    entries = int(np.prod(lead))
    lb, rb = left.reshape(entries, n, d), right.reshape(entries, p, d)
    scores = np.empty((entries, n, p))
    pos = np.empty((entries, n, p, d), dtype=bool)
    for key in blocks:
        pairs = np.empty(scores[key].shape + (d,))
        pairs[...] = rb[key[0]][..., None, :, :]
        pairs += lb[key][..., :, None, :]
        np.greater_equal(pairs, 0, out=pos[key])
        np.maximum(pairs, slope * pairs, out=pairs)
        np.matmul(pairs, v, out=scores[key])
    g, s, t = g.reshape(scores.shape), np.empty(lb.shape), np.zeros(rb.shape)
    for key in blocks:
        posf, gb = pos[key].astype(np.float64), g[key]
        s[key] = (gb[..., :, None, :] @ posf)[..., 0, :]
        t[key[0]] += (np.swapaxes(gb, -1, -2)[..., :, None, :]
                      @ np.swapaxes(posf, -3, -2))[..., 0, :]
    dl = slope * g.sum(axis=-1)[..., None] + (1.0 - slope) * s
    dr = slope * g.sum(axis=-2)[..., None] + (1.0 - slope) * t
    d_v = (dl * lb).reshape(-1, d).sum(axis=0) + (dr * rb).reshape(-1, d).sum(axis=0)
    return (scores.reshape(lead + (n, p)), (dl * v).reshape(left.shape),
            (dr * v).reshape(right.shape), d_v)


def copying_accumulate_grad(node, g: np.ndarray):
    """A gradient slot that copies the first array it is handed, so no two
    slots can ever share memory: what keeping that array must equal bit for bit."""
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64)
    else:
        node.grad += g


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


def counts_reference(pred: np.ndarray, labels: np.ndarray) -> tuple[int, int, int]:
    """Pointwise (tp, fp, fn), one point at a time."""
    tp = fp = fn = 0
    for p, y in zip(pred, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == 0:
            fp += 1
        elif p == 0 and y == 1:
            fn += 1
    return tp, fp, fn


def prf_reference(pred: np.ndarray, labels: np.ndarray) -> tuple[float, float, float]:
    tp, fp, fn = counts_reference(pred, labels)
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


def epsilon_reference(scores: np.ndarray) -> tuple[float | None, dict | None]:
    """The epsilon rule one candidate at a time: for each z of 2, 2.5, ..., 10 in
    turn, mask the points above and below eps = mu + z*sigma, count the runs above
    by their rising edges, and keep the first candidate with the largest
    (dmu/mu + dsigma/sigma) / (n_above + runs**2). Returns (threshold, diagnostics),
    or (None, None) when no candidate has a point above it."""
    scores = np.asarray(scores, dtype=np.float64)
    mu, sigma = float(scores.mean()), float(scores.std())
    best, threshold = None, None
    if sigma > 0.0:
        for z in np.arange(2.0, 10.0 + 1e-9, 0.5):
            eps = mu + z * sigma
            above = scores > eps
            n_above = int(above.sum())
            if n_above == 0:
                continue
            below = scores[scores < eps]
            delta_mu = mu - float(below.mean())
            delta_sigma = sigma - float(below.std())
            runs = int(above[0]) + int(np.sum(above[1:] & ~above[:-1]))
            value = (delta_mu / mu + delta_sigma / sigma) / (n_above + runs**2)
            if best is None or value > best["score"]:
                best = {"z": float(z), "score": value, "n_above": n_above, "n_runs": runs,
                        "mu": mu, "sigma": sigma}
                threshold = float(eps)
    return threshold, best


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


def gpd_fit_reference(y: np.ndarray) -> tuple[float, float, float]:
    """Brute-force constrained GPD fit: the least negative log-likelihood, with
    its (gamma, beta), over a dense grid of gamma in [-0.5, 1] (step 0.0125)
    times beta log-spaced 100 a decade over mean(y) * [1e-4, 10**0.5]. No
    refinement, so the minimum is an upper bound on the constrained MLE's."""
    betas = y.mean() * np.logspace(-4.0, 0.5, 451)
    best = (np.inf, np.nan, np.nan)
    for gamma in np.linspace(-0.5, 1.0, 121):
        with np.errstate(all="ignore"):
            if abs(gamma) < 1e-12:
                nll = y.size * np.log(betas) + float(y.sum()) / betas
            else:   # one row of gpd_nll_reference, outside the support -> inf
                z = np.multiply.outer(gamma / betas, y)
                nll = np.where(z.min(axis=1) > -1.0, y.size * np.log(betas)
                               + (1.0 + 1.0 / gamma) * np.log1p(z).sum(axis=1), np.inf)
        j = int(np.argmin(nll))
        if nll[j] < best[0]:
            best = (float(nll[j]), float(gamma), float(betas[j]))
    return best


def gpd_profile_reference(y: np.ndarray, theta: np.ndarray):
    """Grimshaw's profile (nll, gamma, beta) at each theta = gamma/beta, gamma clipped
    to [-0.5, 1], with S = sum(log1p(theta*y)) summed over one (len(theta), n) array."""
    n, ybar, zero = y.size, y.mean(), theta == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log1p(np.multiply.outer(theta, y)).sum(axis=-1)
        gamma = np.where(zero, 0.0, np.clip(s / n, -0.5, 1.0))
        beta = np.where(zero, ybar, gamma / theta)
        nll = np.where(zero, n * np.log(ybar) + n, n * np.log(beta) + (1.0 + 1.0 / gamma) * s)
    return nll, gamma, beta


def gpd_golden_section_fit(y: np.ndarray) -> tuple[float, float, float]:
    """The clipped GPD fit (gamma, beta, nll) by golden section over theta: the best of
    a 112-point grid over (-1/max y, 1e4/mean y) with 0 in it, 40 golden-section steps
    between its neighbours, and a last look at that grid point and the bracket's ends."""
    grid = np.concatenate([(np.geomspace(1e-8, 1.0, 48)[:-1] - 1.0) / y.max(), [0.0],
                           np.geomspace(1e-4, 1e4, 64) / y.mean()])
    i = int(np.argmin(gpd_profile_reference(y, grid)[0]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    for _ in range(40):   # drop the side beyond the worse inner point
        step = (3.0 - 5.0 ** 0.5) / 2.0 * (hi - lo)
        fc, fd = gpd_profile_reference(y, np.array([lo + step, hi - step]))[0]
        lo, hi = (lo, hi - step) if fc < fd else (lo + step, hi)
    nll, gamma, beta = gpd_profile_reference(y, np.array([grid[i], lo, hi]))
    best = int(np.argmin(nll))
    return float(gamma[best]), float(beta[best]), float(nll[best])


def init_reference(m: int, cfg, seed: int) -> list[tuple[str, np.ndarray]]:
    """Every initial forecaster tensor, named, in the documented draw order: the
    preconv, temporal then variable attention (each on if its flag is), then per
    TCN block its downsample conv (when its input width is not the channel
    count), conv1 and conv2, then the MLP. Weights come from one rng seeded by
    ``seed`` as U(-1/sqrt(fan_in), 1/sqrt(fan_in)), biases are zeros."""
    rng = np.random.default_rng(seed)
    out = []

    def weight(name, shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        out.append((name, rng.uniform(-bound, bound, size=shape)))

    def bias(name, n):
        out.append((name, np.zeros(n)))

    k = cfg.conv_kernel
    weight("preconv.filters", (k, m, m), k * m)
    bias("preconv.bias", m)
    for name, d, on in (("temporal", m, cfg.temporal_attention),
                        ("variable", cfg.window, cfg.variable_attention)):
        if on and cfg.attention_mode == "dynamic":
            weight(f"{name}.weight", (d, 2 * d), 2 * d)
            weight(f"{name}.score_vec", (d,), d)
        elif on:
            weight(f"{name}.weight", (d, d), d)
            weight(f"{name}.score_vec", (2 * d,), 2 * d)
    c_in = m * (1 + cfg.temporal_attention + cfg.variable_attention)
    c, kt = cfg.tcn_channels, cfg.tcn_kernel
    for i in range(len(cfg.dilations)):
        if c_in != c:
            weight(f"tcn.{i}.downsample", (1, c_in, c), c_in)
        weight(f"tcn.{i}.conv1_filters", (kt, c_in, c), kt * c_in)
        bias(f"tcn.{i}.conv1_bias", c)
        weight(f"tcn.{i}.conv2_filters", (kt, c, c), kt * c)
        bias(f"tcn.{i}.conv2_bias", c)
        c_in = c
    dims = [c] + [cfg.mlp_units] * cfg.mlp_layers + [m]
    for i in range(len(dims) - 1):
        weight(f"mlp.{i}.weight", (dims[i], dims[i + 1]), dims[i])
        bias(f"mlp.{i}.bias", dims[i + 1])
    return out


def record_arrays(records) -> list[np.ndarray]:
    """The arrays tape records reach, found by walking them by hand: each
    record's output and what its rule closes over, through lists, tuples and
    anything holding array ``values`` (a tensor). Each array object once."""
    found, pending = {}, [obj for out, rule in records
                          for obj in [out, *(c.cell_contents for c in rule.__closure__ or ())]]
    while pending:
        obj = pending.pop()
        if isinstance(obj, (list, tuple)):
            pending.extend(obj)
        elif isinstance(obj, np.ndarray):
            found[id(obj)] = obj
        elif isinstance(getattr(obj, "values", None), np.ndarray):
            found[id(obj.values)] = obj.values
    return list(found.values())


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


def write_csv_reference(path, header: list[str], rows):
    """``csv.writer`` one row at a time, every float cell as ``repr(float(v))``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_scores_csv_reference(path, timesteps, scores):
    write_csv_reference(path, ["timestep", "score"],
                        ([int(t), repr(float(s))] for t, s in zip(timesteps, scores)))


def write_labels_csv_reference(path, labels, first_timestep: int = 0):
    write_csv_reference(path, ["timestep", "label"],
                        ([first_timestep + i, int(v)] for i, v in enumerate(labels)))


def write_matrix_csv_reference(path, x, names: list[str]):
    write_csv_reference(path, names, ([repr(float(v)) for v in row] for row in x))


def write_curve_csv_reference(path, timesteps, scores, threshold, labels, predictions):
    write_csv_reference(
        path, ["timestep", "score", "threshold", "label", "prediction"],
        ([int(t), repr(float(s)), repr(float(threshold)), int(l), int(p)]
         for t, s, l, p in zip(timesteps, scores, labels, predictions)))
