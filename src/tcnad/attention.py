"""Graph-style attention over fully connected node sets.

Two node views of a telemetry window X (w rows of m features):

* temporal attention treats the w time steps as nodes with m-dim features,
* variable attention treats the m variables as nodes with w-dim features
  (it runs on X^T and transposes back).

Scores come in two flavours. The dynamic form applies the score vector after
the nonlinearity,

    e[i, j] = a . leaky_relu(W @ concat(x_i, x_j))

so the attended neighbour can genuinely depend on the query. The static form
(kept as an ablation) applies it before,

    e[i, j] = leaky_relu(a . concat(W @ x_i, W @ x_j))

which factors into p_i + q_j under a monotone map, so every query ranks
neighbours identically.

Node features may carry leading batch axes, (..., n, d_in); each batch entry
is attended independently with the same weights. Each query is scored on its
own, so attending from the last q nodes gives the last q rows of the full
attention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    matmul,
    pair_scores,
    reshape,
    sigmoid,
    slice_cols,
    slice_rows,
    softmax_rows,
    transpose,
)

MODES = ("dynamic", "static")
ACTIVATIONS = ("sigmoid", "identity")


@dataclass
class AttentionParams:
    """Weights for one attention head.

    dynamic mode: weight is (d_out, 2*d_in), score_vec is (d_out,).
    static mode:  weight is (d_out, d_in),   score_vec is (2*d_out,).
    """

    weight: Tensor
    score_vec: Tensor
    mode: str = "dynamic"
    activation: str = "sigmoid"
    slope: float = 0.2

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown attention mode {self.mode!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown attention activation {self.activation!r}")
        if self.weight.values.ndim != 2 or self.score_vec.values.ndim != 1:
            raise ValueError("attention weight must be 2-D and score_vec 1-D")
        d_out = self.weight.values.shape[0]
        if self.mode == "dynamic":
            if self.weight.values.shape[1] % 2 != 0:
                raise ValueError("dynamic attention weight needs 2*d_in columns")
            if self.score_vec.values.shape[0] != d_out:
                raise ValueError("dynamic score_vec length must equal d_out")
        else:
            if self.score_vec.values.shape[0] != 2 * d_out:
                raise ValueError("static score_vec length must equal 2*d_out")

    @property
    def d_in(self) -> int:
        cols = self.weight.values.shape[1]
        return cols // 2 if self.mode == "dynamic" else cols

    @property
    def d_out(self) -> int:
        return self.weight.values.shape[0]


@dataclass
class AttentionOutput:
    """Attention of q query nodes over n nodes, aggregating d_v-wide values."""

    aggregated: Tensor  # (..., q, d_v)
    weights: Tensor     # (..., q, n), rows sum to 1
    scores: Tensor      # (..., q, n), pre-softmax


def init_attention(
    d_in: int,
    d_out: int | None = None,
    *,
    mode: str = "dynamic",
    activation: str = "sigmoid",
    rng: np.random.Generator,
) -> AttentionParams:
    """Fan-in scaled uniform init; score_vec scaled by its own length."""
    if d_out is None:
        d_out = d_in
    if mode == "dynamic":
        w_shape, a_len = (d_out, 2 * d_in), d_out
    elif mode == "static":
        w_shape, a_len = (d_out, d_in), 2 * d_out
    else:
        raise ValueError(f"unknown attention mode {mode!r}")
    wb = 1.0 / np.sqrt(w_shape[1])
    ab = 1.0 / np.sqrt(a_len)
    weight = Tensor(rng.uniform(-wb, wb, size=w_shape), requires_grad=True)
    score_vec = Tensor(rng.uniform(-ab, ab, size=a_len), requires_grad=True)
    return AttentionParams(weight, score_vec, mode=mode, activation=activation)


def _check_nodes(x: Tensor, params: AttentionParams):
    if x.values.ndim < 2:
        raise ValueError("attention expects node features of shape (..., n, d_in)")
    if x.values.shape[-1] != params.d_in:
        raise ValueError(
            f"node feature dim {x.values.shape[-1]} != params d_in {params.d_in}"
        )


def _queries(x: Tensor, queries: int | None) -> Tensor:
    """The last ``queries`` nodes of x, or all of them when None."""
    n = x.values.shape[-2]
    return x if queries is None else slice_rows(x, n - queries, n)


def dynamic_scores(x: Tensor, params: AttentionParams, queries: int | None = None) -> Tensor:
    """(..., q, n) scores of the last q = ``queries`` nodes (default all n) against
    all n, with the nonlinearity inside the score product."""
    _check_nodes(x, params)
    d = params.d_in
    left = matmul(_queries(x, queries), transpose(slice_cols(params.weight, 0, d)))
    right = matmul(x, transpose(slice_cols(params.weight, d, 2 * d)))
    return pair_scores(left, right, params.score_vec, params.slope)


def static_scores(x: Tensor, params: AttentionParams, queries: int | None = None) -> Tensor:
    """(..., q, n) scores of the last q = ``queries`` nodes (default all n) against
    all n, decomposing as leaky_relu(p_i + q_j)."""
    _check_nodes(x, params)
    d_out = params.d_out
    u = matmul(x, transpose(params.weight))
    pq = matmul(u, transpose(reshape(params.score_vec, (2, d_out))))   # (..., n, 2)
    p, q = _queries(slice_cols(pq, 0, 1), queries), slice_cols(pq, 1, 2)
    return pair_scores(p, q, Tensor(np.ones(1)), params.slope)


def attend(
    x: Tensor,
    params: AttentionParams,
    queries: int | None = None,
    values: Tensor | None = None,
) -> AttentionOutput:
    """Score, softmax-normalize per query, aggregate, then activate.

    The last ``queries`` nodes of the (..., n, d_in) features x (all n by
    default) are scored against all n, and their weights aggregate ``values``,
    a (..., n, d_v) tensor that defaults to x itself.
    """
    if params.mode == "dynamic":
        scores = dynamic_scores(x, params, queries)
    else:
        scores = static_scores(x, params, queries)
    weights = softmax_rows(scores)
    agg = matmul(weights, x if values is None else values)
    if params.activation == "sigmoid":
        agg = sigmoid(agg)
    return AttentionOutput(aggregated=agg, weights=weights, scores=scores)


def temporal_attention(x: Tensor, params: AttentionParams, rows: int | None = None) -> Tensor:
    """Attend across the w time-step rows of a (..., w, m) window, querying from
    the last ``rows`` of them (default all w); returns (..., rows, m)."""
    return attend(x, params, queries=rows).aggregated


def variable_attention(x: Tensor, params: AttentionParams, rows: int | None = None) -> Tensor:
    """Attend across the m variable columns of a (..., w, m) window.

    Variables are scored over their full w-long columns, but the weights
    aggregate only the last ``rows`` time steps (default all w); returns
    (..., rows, m).
    """
    nodes = transpose(x)
    w = x.values.shape[-2]
    values = nodes if rows is None else slice_cols(nodes, w - rows, w)
    return transpose(attend(nodes, params, values=values).aggregated)
