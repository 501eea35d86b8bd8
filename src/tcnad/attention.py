"""Graph-style attention of query nodes over fully connected key nodes.

``attend(queries, keys, values, params)`` scores each query node against
every key node, softmax-normalizes each query's row of scores, uses the
weights to aggregate the values (one per key) and passes the result through
a sigmoid, as MTAD-GAT does. Two node views of a telemetry window X (w rows
of m features) call it:

* temporal attention treats time steps as nodes with m-dim features: the
  given rows query all w rows of X, which are keys and values alike;
* variable attention treats the m variables as nodes with w-dim features: the
  columns of X are queries and keys, the weights aggregate the given rows'
  columns, and the result is transposed back.

Scores of query i against key j come in two flavours. The dynamic form
applies the score vector after the nonlinearity,

    e[i, j] = a . leaky_relu(W @ concat(q_i, k_j))

so the attended neighbour can genuinely depend on the query. The static form
(kept as an ablation) applies it before,

    e[i, j] = leaky_relu(a . concat(W @ q_i, W @ k_j))

which factors into p_i + q_j under a monotone map, so every query ranks
the keys identically.

Node features may carry leading batch axes, (..., n, d_in); each batch entry
is attended independently with the same weights. Each query is scored on its
own, so querying from the last r nodes gives the last r rows of querying from
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .autodiff import (
    Tensor,
    active_tape,
    matmul,
    pair_scores,
    reshape,
    sigmoid,
    slice_cols,
    softmax_rows,
    transpose,
)

MODES = ("dynamic", "static")


@dataclass
class AttentionParams:
    """Weights for one attention head; their shapes set the mode.

    dynamic mode: weight is (d_out, 2*d_in), score_vec is (d_out,).
    static mode:  weight is (d_out, d_in),   score_vec is (2*d_out,).
    """

    weight: Tensor
    score_vec: Tensor

    def __post_init__(self):
        w, a = self.weight.values.shape, self.score_vec.values.shape
        if not (len(w) == 2 and min(w) > 0
                and (a == (2 * w[0],) or (a == (w[0],) and w[1] % 2 == 0))):
            raise ValueError(f"attention weight {w} and score_vec {a} fit neither mode: "
                             f"dynamic takes (d_out, 2*d_in) and (d_out,), "
                             f"static (d_out, d_in) and (2*d_out,)")

    @property
    def mode(self) -> str:
        return "dynamic" if self.score_vec.values.shape[0] == self.d_out else "static"

    @property
    def d_in(self) -> int:
        cols = self.weight.values.shape[1]
        return cols // 2 if self.mode == "dynamic" else cols

    @property
    def d_out(self) -> int:
        return self.weight.values.shape[0]


def init_attention(
    d_in: int,
    d_out: int | None = None,
    *,
    mode: str = "dynamic",
    source,
    prefix: str,
) -> AttentionParams:
    """``<prefix>.weight`` and ``<prefix>.score_vec`` from the parameter
    ``source`` (``autodiff.fan_in_init``); the weight's fan-in is its row
    length, the score vector's its own length."""
    d_out = d_in if d_out is None else d_out
    if mode == "dynamic":
        w_shape, a_len = (d_out, 2 * d_in), d_out
    elif mode == "static":
        w_shape, a_len = (d_out, d_in), 2 * d_out
    else:
        raise ValueError(f"unknown attention mode {mode!r}")
    return AttentionParams(source(f"{prefix}.weight", w_shape, w_shape[1]),
                           source(f"{prefix}.score_vec", (a_len,), a_len))


def _check_nodes(params: AttentionParams, *nodes: Tensor):
    for x in nodes:
        if x.values.ndim < 2 or x.values.shape[-1] != params.d_in:
            raise ValueError(f"attention expects node features of shape (..., n, "
                             f"{params.d_in}), got {x.values.shape}")


def dynamic_scores(queries: Tensor, keys: Tensor, params: AttentionParams) -> Tensor:
    """(..., q, n) scores of q query nodes against n key nodes, with the
    nonlinearity inside the score product."""
    _check_nodes(params, queries, keys)
    d = params.d_in
    left = matmul(queries, transpose(slice_cols(params.weight, 0, d)))
    right = matmul(keys, transpose(slice_cols(params.weight, d, 2 * d)))
    return pair_scores(left, right, params.score_vec)


def static_scores(queries: Tensor, keys: Tensor, params: AttentionParams) -> Tensor:
    """(..., q, n) scores of q query nodes against n key nodes, decomposing as
    leaky_relu(p_i + q_j)."""
    _check_nodes(params, queries, keys)
    a = transpose(reshape(params.score_vec, (2, params.d_out)))         # (d_out, 2)
    p = slice_cols(matmul(matmul(queries, transpose(params.weight)), a), 0, 1)
    q = slice_cols(matmul(matmul(keys, transpose(params.weight)), a), 1, 2)
    return pair_scores(p, q, Tensor(np.ones(1)))


def _scores(queries: Tensor, keys: Tensor, params: AttentionParams) -> Tensor:
    scores = dynamic_scores if params.mode == "dynamic" else static_scores
    return scores(queries, keys, params)


def _aggregate(scores: Tensor, values: Tensor) -> Tensor:
    """Softmax the (..., q, n) scores per query, aggregate the (..., n, d_v)
    values, then apply the sigmoid; returns (..., q, d_v)."""
    return sigmoid(matmul(softmax_rows(scores), values))


def attend(queries: Tensor, keys: Tensor, values: Tensor, params: AttentionParams) -> Tensor:
    """Score the (..., q, d_in) queries against the (..., n, d_in) keys,
    softmax-normalize per query, aggregate the (..., n, d_v) values, then
    apply the sigmoid; returns (..., q, d_v)."""
    return _aggregate(_scores(queries, keys, params), values)


def _shared_scores(x: Tensor, rows: Tensor, params: AttentionParams, edge: int) -> Tensor:
    """The (n, r, w) scores of the last r rows of n consecutive (w, m) windows
    against all their rows, each pair whose rows both sit at or past ``edge``
    scored once per group of about sqrt(r * w) windows.

    Row t >= edge of window i is row t - 1 of window i + 1, so a group of g
    windows holds g + w - edge - 1 distinct such rows, and window u of the
    group reads its scores from row and column u of the group's block: a
    strided view whose window step is one row plus one column. Keys before
    ``edge``, and queries before it (when r > w - edge), are scored per window.
    """
    xv = x.values
    n, w, m = xv.shape
    q0 = w - rows.values.shape[-2]                   # first query row of a window
    s0 = max(q0, edge)                               # first shared query row
    nq, nk = w - s0, w - edge                        # shared queries and keys a window
    groups = int(np.ceil(n / max(1.0, np.sqrt((nq - 1) * (nk - 1)))))
    g = -(-n // groups)                              # windows a group
    # window 0's rows from edge on, then each later window's last row; zero rows fill the last group
    shared = np.concatenate([xv[0, edge:], xv[1:, -1], np.zeros((groups * g - n, m))])
    keys = sliding_window_view(shared, (g + nk - 1, m))[::g, 0]
    block = _scores(Tensor(keys[:, nk - nq :]), Tensor(keys), params).values
    step_g, step_q, step_k = block.strides
    out = np.empty((groups * g, w - q0, w))
    out.reshape(groups, g, w - q0, w)[:, :, s0 - q0 :, edge:] = as_strided(
        block, (groups, g, nq, nk), (step_g, step_q + step_k, step_q, step_k), writeable=False)
    out = out[:n]
    if edge:
        out[:, :, :edge] = _scores(rows, Tensor(xv[:, :edge]), params).values
    if s0 > q0:
        out[:, : s0 - q0, edge:] = _scores(Tensor(xv[:, q0:s0]), Tensor(xv[:, edge:]),
                                           params).values
    return Tensor(out)


def temporal_attention(
    x: Tensor, rows: Tensor, params: AttentionParams, shared_from: int | None = None
) -> Tensor:
    """The (..., r, m) ``rows`` of a (..., w, m) window attend across its w time
    steps; returns (..., r, m).

    With ``shared_from`` set, ``x`` is (B, w, m): B consecutive windows of one
    series (window i + 1 is window i moved on one row, as ``build_windows``
    gives them) in which every row from ``shared_from`` on is the same in each
    window that holds it, and ``rows`` are their last r rows. The scores
    between such rows are then computed once for all B windows. This is an
    inference path: it records no gradient, so it refuses to run under a tape.
    """
    if shared_from is not None:
        if active_tape() is not None:
            raise RuntimeError("shared temporal-attention scores are not taped; "
                               "compute them outside any Tape")
        if x.values.ndim != 3:
            raise ValueError(f"shared scores need a (B, w, m) chunk, got {x.values.shape}")
    if shared_from is None or shared_from >= x.values.shape[-2]:
        return attend(rows, x, x, params)
    return _aggregate(_shared_scores(x, rows, params, shared_from), x)


def variable_attention(x: Tensor, rows: Tensor, params: AttentionParams) -> Tensor:
    """The m variables of a (..., w, m) window attend across each other, scored
    over their full w-long columns, and aggregate the (..., r, m) ``rows``;
    returns (..., r, m)."""
    nodes = transpose(x)
    return transpose(attend(nodes, nodes, transpose(rows), params))
