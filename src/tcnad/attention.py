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

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    matmul,
    pair_scores,
    reshape,
    sigmoid,
    slice_cols,
    softmax_rows,
    take_blocks,
    take_rows,
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


# A chunk shares its temporal scores only where its shared blocks score at most
# this share of the pairs that its windows score apart.
_SHARE_AT = 0.5


def _union_rows(new: np.ndarray, full: int, group: np.ndarray, heads: np.ndarray, w: int):
    """Each group's distinct rows, as row indexes of the (n * w, m) flattening of
    its n windows, and where each window's own ``full`` rows start among them.

    Window i adds its last ``new[i]`` rows, those past the group's earlier
    windows. The (G, U) index pads each group's rows with row 0 to the
    longest group's U; padded rows are scored but never read.
    """
    ends = np.cumsum(new)
    base = (ends - new)[heads][group]             # each window's group start
    win = np.repeat(np.arange(len(new)), new)
    row = np.arange(int(ends[-1]))
    index = np.zeros((len(heads), int((ends - base).max())), dtype=np.int64)
    index[group[win], row - base[win]] = win * w + w - ends[win] + row
    return index, ends - base - full


@functools.lru_cache(maxsize=64)
def _share_plan(gaps: bytes, w: int, nq: int, nk: int, share_at: float):
    """How windows of w rows whose starts move on by the int64 ``gaps`` share
    the scores of their last ``nq`` rows against their last ``nk``: each
    group's distinct query and key rows (``_union_rows``) and each window's
    (group, query offset, key offset), read-only, or None where the groups'
    blocks would score more than ``share_at`` of the pairs the windows score
    apart. Cached: every full scoring chunk asks for the same plan.

    Groups are the windows whose starts fall in each of the fewest even spans
    of at most about sqrt(nq * nk) rows, the span whose block scores the
    fewest pairs a window whatever the windows' density, as long as their
    gaps stay under nq. Consecutive windows (gap 1) thus group as
    ceil(B / sqrt((nq - 1) * (nk - 1))) even runs.
    """
    gaps = np.frombuffer(gaps, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(gaps)])
    span = int(starts[-1]) + 1
    groups = int(np.ceil(span / max(1.0, np.sqrt((nq - 1) * (nk - 1)))))
    cell = starts // -(-span // groups)
    head = np.concatenate([[True], cell[1:] != cell[:-1]])
    group, heads = np.cumsum(head) - 1, np.flatnonzero(head)
    new = [np.where(head, full, np.minimum(np.concatenate([[0], gaps]), full)) for full in (nq, nk)]
    if (len(heads) * np.add.reduceat(new[0], heads).max() * np.add.reduceat(new[1], heads).max()
            > share_at * len(starts) * nq * nk):
        return None
    (queries, at_q), (keys, at_k) = (_union_rows(rows, full, group, heads, w)
                                     for rows, full in zip(new, (nq, nk)))
    plan = queries, keys, np.stack([group, at_q, at_k], axis=1)
    for a in plan:
        a.flags.writeable = False
    return plan


def _shared_scores(x: Tensor, rows: Tensor, params: AttentionParams, plan) -> Tensor:
    """The (n, r, w) scores of the last r rows of n (w, m) windows against all
    their rows, each pair of series rows scored once a group.

    The groups of ``plan`` (``_share_plan``) score their distinct query rows
    against their distinct key rows in one batched call, a block each, and
    each window reads its (r, w) sub-block. In backward the sub-blocks'
    grads add up in their block, and each distinct row's grad goes to the
    window row it was read from.
    """
    queries, keys, corners = plan
    block = _scores(take_rows(x, queries), take_rows(x, keys), params)
    return take_blocks(block, (rows.values.shape[-2], x.values.shape[-2]), corners)


def temporal_attention(
    x: Tensor, rows: Tensor, params: AttentionParams, starts: np.ndarray | None = None,
) -> Tensor:
    """The (..., r, m) ``rows`` of a (..., w, m) window attend across its w time
    steps; returns (..., r, m).

    With ``starts``, ``x`` is (B, w, m): B windows of one series, window i
    starting at series row ``starts[i]`` (non-decreasing), in which every
    row is the same in each window that holds it, and ``rows`` are their
    last r rows. Where ``_share_plan`` finds that it at least halves them,
    the scores between such rows are then computed once for the windows that
    hold them (``_shared_scores``), taped or not.
    """
    w, plan = x.values.shape[-2], None
    if starts is not None:
        plan = _share_plan(np.diff(starts).astype(np.int64).tobytes(), w,
                           rows.values.shape[-2], w, _SHARE_AT)
    if plan is None:
        return attend(rows, x, x, params)
    return _aggregate(_shared_scores(x, rows, params, plan), x)


def variable_attention(x: Tensor, rows: Tensor, params: AttentionParams) -> Tensor:
    """The m variables of a (..., w, m) window attend across each other, scored
    over their full w-long columns, and aggregate the (..., r, m) ``rows``;
    returns (..., r, m)."""
    nodes = transpose(x)
    return transpose(attend(nodes, nodes, transpose(rows), params))
