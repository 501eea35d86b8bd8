"""Tape-based reverse-mode automatic differentiation on float64 arrays.

Everything the forecaster needs is built from the ops in this module. Each op
computes its result eagerly with numpy and, when a tape is active and any input
requires gradients, records a closure that knows how to push the output
gradient back onto the inputs. The closure holds the inputs' and the output's
``GradNode``s and only the arrays it reads, which the op declares to the tape
(``Tape.save``). ``backward`` replays the records in reverse.

Every op accepts any number of leading batch axes and acts on the trailing one
or two; a 2-D weight or a 1-D bias is shared across the batch, so its gradient
is summed over the leading axes. Gradients accumulate (+=) so tensors used in
several places get the sum of all contributions. NaN/Inf are not checked
per-op; they propagate to the loss where the trainer surfaces them.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Negative-side slope of every leaky_relu in the model.
LEAKY_SLOPE = 0.2


class GradNode:
    """A tensor's gradient slot, apart from its values.

    Tape records and backward rules hold nodes, never tensors, so a record
    keeps an op's output values, or an input's, only where its rule reads them.
    """

    __slots__ = ("grad", "requires_grad")

    def __init__(self, requires_grad: bool):
        self.grad = None
        self.requires_grad = requires_grad

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            # kept, not copied: every rule hands each input an array of its own, a
            # fresh one or a view of its output's grad, which backward then drops
            self.grad = g
        else:
            self.grad += g


class Tensor:
    """Dense float64 array plus its ``GradNode``.

    ``requires_grad`` marks leaves the optimizer updates; outputs of taped ops
    have it set automatically so gradients can flow through them.
    """

    __slots__ = ("values", "node")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.node = GradNode(bool(requires_grad))

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    def zero_grad(self):
        self.node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def fan_in_init(rng: np.random.Generator):
    """A parameter source, ``source(name, shape, fan_in) -> Tensor``, for the model
    builders: a trainable weight drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)), or
    zeros for a bias (``fan_in`` None), in the order they are asked for."""
    def draw(name: str, shape: tuple[int, ...], fan_in: int | None) -> Tensor:
        if fan_in is None:
            return Tensor(np.zeros(shape), requires_grad=True)
        bound = 1.0 / np.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
    return draw


class _TapeStack(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []   # this thread's open tapes, innermost last


_TAPE_STACK = _TapeStack()   # per thread: a tape never reaches ops another thread runs


class Tape:
    """Records ops executed under ``with Tape(): ...`` for later replay.

    Entering pushes the tape on the calling thread's stack; ops consult the top
    of that stack. Tapes may nest (inner tape records, outer does not see those
    ops), though the forecaster only ever uses one at a time.

    A tape is the training context: ``dropout`` draws its masks only under a
    tape, from the tape's ``rng``, so untaped inference never drops anything.

    ``saved_bytes`` is what the records keep for their rules: the bytes of
    each distinct buffer under the arrays passed to ``save``; ``float_bytes``
    is the floating-point part of it, the masks left out.
    """

    def __init__(self, rng: np.random.Generator | None = None):
        self.rng = rng
        self._records: list[tuple[GradNode, object]] = []
        self._saved: set[int] = set()   # ids of the buffers counted in saved_bytes
        self.saved_bytes = self.float_bytes = 0

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.tapes.pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: GradNode, rule):
        self._records.append((out, rule))

    def save(self, *arrays: np.ndarray):
        """Count the buffers under ``arrays`` in ``saved_bytes``, each once,
        and the floating-point ones also in ``float_bytes``."""
        for a in arrays:
            while isinstance(a.base, np.ndarray):
                a = a.base
            if id(a) not in self._saved:
                self._saved.add(id(a))
                self.saved_bytes += a.nbytes
                if a.dtype.kind == "f":
                    self.float_bytes += a.nbytes

    def replay_backward(self):
        """Run the rules newest first, releasing each record and its output grad.

        Records are in topological order, so once a rule has run no later rule
        reads its output's grad; dropping it (and the arrays the rule saved)
        bounds memory by the live part of the graph. Leaves are never
        outputs, so they keep their grads. The emptied tape keeps nothing.
        """
        records = self._records
        while records:
            out, rule = records.pop()
            if out.grad is not None:
                rule(out.grad)
                out.grad = None
        self._saved.clear()
        self.saved_bytes = self.float_bytes = 0


def active_tape() -> Tape | None:
    return _TAPE_STACK.tapes[-1] if _TAPE_STACK.tapes else None


def backward(loss: Tensor):
    """Run reverse-mode accumulation from a scalar loss.

    Must be called inside the ``with Tape()`` block that produced ``loss``.
    Seeds d(loss)/d(loss) = 1 and replays the tape in reverse, emptying it;
    afterwards every ``requires_grad`` leaf that influenced the loss holds its
    gradient in ``.grad`` and intermediate outputs hold none.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.values.shape}")
    tape = active_tape()
    if tape is None:
        raise RuntimeError("backward called with no active tape")
    loss.grad = np.ones_like(loss.values)
    tape.replay_backward()


def _taped(inputs) -> bool:
    """Whether an op on ``inputs`` is recorded: a tape is active and an input needs a grad."""
    return bool(_TAPE_STACK.tapes) and any(t.node.requires_grad for t in inputs)


def _maybe_record(out: Tensor, rule, inputs, saved=()) -> Tensor:
    """Record ``rule`` for ``out`` when ``_taped(inputs)``; ``saved`` lists the
    arrays the rule holds besides the inputs' and the output's nodes."""
    if _taped(inputs):
        out.node.requires_grad = True
        tape = _TAPE_STACK.tapes[-1]
        tape.save(*saved)
        tape.record(out.node, rule)
    return out


# ---------------------------------------------------------------------------
# linear algebra / shaping
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, k) @ (k, p) or (..., n, k) @ (..., k, p) -> (..., n, p)."""
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim not in (2, av.ndim):
        raise ValueError(
            f"matmul expects (..., n, k) @ (k, p) or (..., k, p), got {av.shape} @ {bv.shape}"
        )
    if av.shape[-1] != bv.shape[-2] or (bv.ndim > 2 and av.shape[:-2] != bv.shape[:-2]):
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    an, bn = a.node, b.node

    def rule(g):
        if an.requires_grad:
            # a shared weight's transpose as a C-ordered copy (a few KB) keeps the
            # batched product on numpy's fast matmul loop; a strided view does not
            bt = np.ascontiguousarray(bv.T) if bv.ndim == 2 else np.swapaxes(bv, -1, -2)
            an.accumulate_grad(g @ bt)
        if bn.requires_grad:
            if bv.ndim == 2:
                # one 2-D matmul sums the shared weight's grad over the batch
                bn.accumulate_grad(av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
            else:
                bn.accumulate_grad(np.swapaxes(av, -1, -2) @ g)

    return _maybe_record(Tensor(av @ bv), rule, (a, b), (av, bv))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D ``b`` broadcast along the last axis of ``a``."""
    bias_broadcast = (
        a.values.ndim >= 2 and b.values.ndim == 1 and b.values.shape[0] == a.values.shape[-1]
    )
    if not bias_broadcast and a.values.shape != b.values.shape:
        raise ValueError(f"add shape mismatch: {a.values.shape} + {b.values.shape}")
    an, bn = a.node, b.node

    def rule(g):
        if an.requires_grad:
            an.accumulate_grad(g)
        if bn.requires_grad and bias_broadcast:
            bn.accumulate_grad(g.reshape(-1, g.shape[-1]).sum(axis=0))
        elif bn.requires_grad:   # a copy if a took g: a node keeps the first array it is handed
            bn.accumulate_grad(g.copy() if an.requires_grad else g)

    return _maybe_record(Tensor(a.values + b.values), rule, (a, b))


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    if x.values.ndim < 2:
        raise ValueError("transpose expects at least 2 axes")
    xn = x.node

    def rule(g):
        xn.accumulate_grad(np.swapaxes(g, -1, -2))

    return _maybe_record(Tensor(np.swapaxes(x.values, -1, -2)), rule, (x,))


def reshape(x: Tensor, shape) -> Tensor:
    xn, in_shape = x.node, x.values.shape

    def rule(g):
        xn.accumulate_grad(g.reshape(in_shape))

    return _maybe_record(Tensor(x.values.reshape(shape)), rule, (x,))


def _take(x: Tensor, key) -> Tensor:
    """``x.values[key]`` for a basic-slicing key; the grad scatters back into zeros."""
    xn, in_shape = x.node, x.values.shape

    def rule(g):
        full = np.zeros(in_shape)
        full[key] = g
        xn.accumulate_grad(full)

    return _maybe_record(Tensor(x.values[key]), rule, (x,))


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns ``start:stop`` (last axis) of a tensor with at least 2 axes."""
    if x.values.ndim < 2:
        raise ValueError("slice_cols expects at least 2 axes")
    return _take(x, (..., slice(start, stop)))


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` (second-to-last axis); ``x`` itself when that is every row."""
    if x.values.ndim < 2:
        raise ValueError("slice_rows expects at least 2 axes")
    if not 0 <= start < stop <= x.values.shape[-2]:
        raise ValueError(f"slice_rows range {start}:{stop} invalid for {x.values.shape[-2]} rows")
    if stop - start == x.values.shape[-2]:
        return x
    return _take(x, (..., slice(start, stop), slice(None)))


def take_row(x: Tensor, index: int) -> Tensor:
    """Row ``index`` (second-to-last axis), kept as an axis: (..., n, d) -> (..., 1, d)."""
    if x.values.ndim >= 2 and not 0 <= index < x.values.shape[-2]:
        raise ValueError(f"take_row index {index} out of range for {x.values.shape[-2]} rows")
    return slice_rows(x, index, index + 1)


def take_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Rows ``index`` (an int array of any shape) of the (N, d) flattening of a
    (..., n, d) tensor: (*index.shape, d). A row taken k times gets k grads."""
    xv, index = x.values, np.asarray(index)
    xn, in_shape = x.node, xv.shape

    def rule(g):
        # one bincount over each taken element's flat position in x: np.add.at
        # took 4x as long on a paper chunk's (15, 100) window gather
        d = in_shape[-1]
        at = index[..., None] * d + np.arange(d)
        full = np.bincount(at.ravel(), g.ravel(), minlength=int(np.prod(in_shape)))
        xn.accumulate_grad(full.reshape(in_shape))

    return _maybe_record(Tensor(xv.reshape(-1, xv.shape[-1])[index]), rule, (x,), (index,))


def take_blocks(x: Tensor, shape: tuple[int, int], corners: np.ndarray) -> Tensor:
    """Blocks of ``shape`` (p, q) cut from the last two axes of an (E, P, Q)
    tensor at the (k, 3) int ``corners``: block i is x[e, a : a + p, b : b + q]
    for (e, a, b) = corners[i], so the result is (k, p, q). Blocks may
    overlap; an element's grad is the sum of those of the blocks that hold it."""
    xv, corners = x.values, np.asarray(corners)
    xn, in_shape = x.node, xv.shape

    def rule(g):
        # one bincount over each block element's flat position in x, where a
        # loop of block adds makes a GIL hand-off between workers a block
        e, a, b = corners.T
        _, rows, cols = in_shape
        at = ((e * rows + a) * cols + b)[:, None, None] + (
            np.arange(shape[0])[:, None] * cols + np.arange(shape[1]))
        full = np.bincount(at.ravel(), g.ravel(), minlength=int(np.prod(in_shape)))
        xn.accumulate_grad(full.reshape(in_shape))

    out = sliding_window_view(xv, shape, axis=(-2, -1))[tuple(corners.T)]
    return _maybe_record(Tensor(out), rule, (x,), (corners,))


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Concatenation along the last axis of tensors whose other axes match."""
    if not parts:
        raise ValueError("concat_cols needs at least one tensor")
    lead = parts[0].values.shape[:-1]
    for p in parts:
        if p.values.ndim < 2 or p.values.shape[:-1] != lead:
            raise ValueError("concat_cols expects tensors with matching leading axes")
    nodes = [p.node for p in parts]
    offsets = np.cumsum([0] + [p.values.shape[-1] for p in parts]).tolist()

    def rule(g):
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if node.requires_grad:
                node.accumulate_grad(g[..., lo:hi])

    return _maybe_record(Tensor(np.concatenate([p.values for p in parts], axis=-1)), rule, parts)


# Floats in a pair block: few blocks keep the per-block Python and BLAS calls cheap.
# A block's values, its slope-scaled copy and its 1-byte sign mask take 8 + 8 + 1 = 17 B
# an element, 1.86 MiB here, which fits a 2 MiB per-core L2 cache (a 1 MiB L2 spills it)
# and holds one paper window's temporal pairs (43 x 100 x 25 = 107,500 elements).
_PAIR_BLOCK_FLOATS = 112 * 2**10


def _even_run(total: int, cap: int) -> int:
    """ceil(total / ceil(total / cap)): the length of the fewest, most even runs
    of at most ``cap`` that cover ``total``."""
    return -(-total // -(-total // cap)) if total else cap


def _pair_blocks(lead: tuple, n: int, row: int) -> list[tuple]:
    """Index keys of the blocks of a (*lead, n, p, d) pair tensor, ``row`` = p*d
    floats a query row: even runs of whole entries, or of query rows of one
    entry, of its (entries, n, ...) flattening; ``key[0]`` picks entries."""
    entries = int(np.prod(lead))
    if n * row <= _PAIR_BLOCK_FLOATS:
        k = _even_run(entries, _PAIR_BLOCK_FLOATS // (n * row or 1))
        return [(slice(b, b + k),) for b in range(0, entries, k)]
    q = _even_run(n, _PAIR_BLOCK_FLOATS // row or 1)
    return [(b, slice(i, i + q)) for b in range(entries) for i in range(0, n, q)]


def pair_scores(left: Tensor, right: Tensor, v: Tensor) -> Tensor:
    """GATv2 pair scores: (..., n, d), (..., p, d), (d,) -> (..., n, p).

    out[..., i, j] = v . leaky_relu(left[..., i, :] + right[..., j, :])

    The (..., n, p, d) pair tensor lives only in the forward, one of
    ``_pair_blocks`` at a time; a taped call keeps just each block's sign mask
    pos = pair >= 0, packed 8 elements to a byte (derivative 1 at 0, as in
    ``leaky_relu``). As leaky_relu(t) = slope*t + (1-slope)*pos*t (slope =
    ``LEAKY_SLOPE``), with dl[i] = sum_j g[i, j] * (slope + (1-slope) * pos[i, j])
    and dr[j] the same sum over i: d left = dl*v, d right = dr*v and
    d v = sum(dl*left) + sum(dr*right) over all but the last axis.
    """
    lv, rv, vv = left.values, right.values, v.values
    if (lv.ndim < 2 or lv.shape[:-2] != rv.shape[:-2] or vv.ndim != 1
            or not lv.shape[-1] == rv.shape[-1] == vv.shape[0]):
        raise ValueError(f"pair_scores expects (..., n, d), (..., p, d) and (d,) tensors, "
                         f"got {lv.shape}, {rv.shape}, {vv.shape}")
    slope = LEAKY_SLOPE
    n, (p, d), lead = lv.shape[-2], rv.shape[-2:], lv.shape[:-2]
    blocks = _pair_blocks(lead, n, p * d)
    entries = int(np.prod(lead))
    lb, rb = lv.reshape(entries, n, d), rv.reshape(entries, p, d)
    scores = np.empty(lb.shape[:-1] + (p,))
    taped = _taped((left, right, v))
    masks = []   # a taped call's packed sign mask of each block: the only pair-sized state
    # each block's slope-scaled copy goes into one buffer (blocks[0] is the largest), so a
    # block frees only itself: freeing both, glibc's default malloc gave the memory back
    # to the system and faulted it in again every block
    work = np.empty(scores[blocks[0]].size * d if blocks else 0)
    for key in blocks:
        pairs = np.empty(scores[key].shape + (d,))
        pairs[...] = rb[key[0]][..., None, :, :]  # long contiguous runs, then one add
        pairs += lb[key][..., :, None, :]
        if taped:
            masks.append(np.packbits(pairs >= 0, axis=None))
        scaled = np.multiply(pairs, slope, out=work[:pairs.size].reshape(pairs.shape))
        np.maximum(pairs, scaled, out=pairs)  # leaky_relu, exact for 0 <= slope <= 1
        np.matmul(pairs, vv, out=scores[key])
        del pairs   # before the next block is made
    ln, rn, vn = left.node, right.node, v.node
    shape, l_shape, r_shape = scores.shape, lv.shape, rv.shape

    def rule(g):
        g, s, t = g.reshape(shape), np.empty(lb.shape), np.zeros(rb.shape)
        for key, mask in zip(blocks, masks):
            gb = g[key]
            posf = np.unpackbits(mask, count=gb.size * d).reshape(gb.shape + (d,))
            posf = posf.astype(np.float64)
            s[key] = (gb[..., :, None, :] @ posf)[..., 0, :]
            t[key[0]] += (np.swapaxes(gb, -1, -2)[..., :, None, :]
                          @ np.swapaxes(posf, -3, -2))[..., 0, :]
            del posf   # before the next block is unpacked
        s *= 1.0 - slope          # dl and dr built in place, in s and t
        s += slope * g.sum(axis=-1)[..., None]
        t *= 1.0 - slope
        t += slope * g.sum(axis=-2)[..., None]
        if vn.requires_grad:
            vn.accumulate_grad((s * lb).reshape(-1, d).sum(axis=0)
                               + (t * rb).reshape(-1, d).sum(axis=0))
        if ln.requires_grad:
            s *= vv
            ln.accumulate_grad(s.reshape(l_shape))
        if rn.requires_grad:
            t *= vv
            rn.accumulate_grad(t.reshape(r_shape))

    return _maybe_record(Tensor(scores.reshape(lv.shape[:-1] + (p,))), rule, (left, right, v),
                         (lb, rb, vv, *masks))


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def leaky_relu(x: Tensor) -> Tensor:
    """max(x, slope*x), exact for 0 <= slope <= 1; a taped call keeps only the
    sign mask x >= 0 (derivative taken as 1 at exactly zero)."""
    xv = x.values
    scaled = LEAKY_SLOPE * xv
    out = Tensor(np.maximum(xv, scaled, out=scaled))
    if not _taped((x,)):
        return out
    pos, xn = xv >= 0, x.node

    def rule(g):
        xn.accumulate_grad(g * np.where(pos, 1.0, LEAKY_SLOPE))

    return _maybe_record(out, rule, (x,), (pos,))


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)), from e = exp(-|x|) <= 1 so that nothing overflows; exp's
    underflow to 0 far from 0 is the answer, not an error."""
    v = x.values
    pos = v >= 0
    with np.errstate(under="ignore"):
        e = np.exp(np.where(pos, -v, v))   # not -abs(v), which would flip a NaN's sign
    y = np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    xn = x.node

    def rule(g):
        xn.accumulate_grad(g * y * (1.0 - y))

    return _maybe_record(Tensor(y), rule, (x,), (y,))


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis of a tensor with at least 2 axes, max-subtracted for stability."""
    if x.values.ndim < 2:
        raise ValueError("softmax_rows expects at least 2 axes")
    y = x.values - x.values.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    xn = x.node

    def rule(g):
        gy = g * y
        gy -= y * gy.sum(axis=-1, keepdims=True)
        xn.accumulate_grad(gy)

    return _maybe_record(Tensor(y), rule, (x,), (y,))


def dropout(x: Tensor, rate: float) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by 1/(1-rate).

    Returns ``x`` itself when no tape is active or when rate == 0, so nothing
    is copied or recorded and inference is deterministic. Otherwise the mask
    comes from the active tape's ``rng``, which must then be set. One mask
    covers the whole tensor, batch axes included; the rule keeps it boolean
    (1 byte an element).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    tape = active_tape()
    if tape is None or rate == 0.0:
        return x

    if tape.rng is None:
        raise ValueError("dropout under a tape needs the tape's rng: open Tape(rng)")
    keep = tape.rng.random(x.values.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    xn = x.node

    def rule(g):
        xn.accumulate_grad(g * keep * scale)

    return _maybe_record(Tensor(x.values * keep * scale), rule, (x,), (keep,))


# ---------------------------------------------------------------------------
# causal convolution and loss
# ---------------------------------------------------------------------------

def causal_dilated_conv1d(x: Tensor, filters: Tensor, dilation: int = 1, rows: int | None = None) -> Tensor:
    """Causal dilated 1-D convolution over time.

    ``x`` is (..., w, c_in) with time down the rows; ``filters`` is
    (K, c_in, c_out). Rows before the first count as zeros, so the output is
    again (..., w, c_out) and out[t] only sees x[t], x[t - dilation], ...,
    i.e. nothing from the future:

        out[t] = sum_k  x[t - (K-1-k)*dilation] @ filters[k]

    ``rows`` computes only the last ``rows`` outputs. Nothing is ever padded or copied.
    """
    if x.values.ndim < 2:
        raise ValueError("causal_dilated_conv1d expects x of shape (..., w, c_in)")
    if filters.values.ndim != 3:
        raise ValueError("causal_dilated_conv1d expects filters of shape (K, c_in, c_out)")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    *lead, w, c_in = x.values.shape
    k, f_in, c_out = filters.values.shape
    if k < 1:
        raise ValueError("kernel size must be >= 1")
    if f_in != c_in:
        raise ValueError(f"filter channel mismatch: x has {c_in}, filters expect {f_in}")
    if rows is not None and not 1 <= rows <= w:
        raise ValueError(f"rows must be in [1, {w}], got {rows}")
    n = w if rows is None else rows
    # tap j adds x[t - s] @ filters[j], s = (K-1-j)*dilation, to outputs t >= s: rows i to o
    taps = [(j, slice(max(0, w - n - s), w - s), slice(max(0, s - w + n), n))
            for j, s in enumerate(range((k - 1) * dilation, -1, -dilation)) if s < w]
    xv, fv = x.values, filters.values
    out = np.zeros((*lead, n, c_out))
    for j, i, o in taps:
        out[..., o, :] += xv[..., i, :] @ fv[j]
    xn, fn = x.node, filters.node

    def rule(g):
        if fn.requires_grad:
            gf = np.zeros_like(fv)
            for j, i, o in taps:
                gf[j] = xv[..., i, :].reshape(-1, c_in).T @ g[..., o, :].reshape(-1, c_out)
            fn.accumulate_grad(gf)
        if xn.requires_grad:
            gx = np.zeros_like(xv)
            ft = np.ascontiguousarray(fv.transpose(0, 2, 1))   # (K, c_out, c_in), as in matmul
            for j, i, o in taps:
                gx[..., i, :] += g[..., o, :] @ ft[j]
            xn.accumulate_grad(gx)

    return _maybe_record(Tensor(out), rule, (x, filters), (xv, fv))


def row_rmse(resid: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(resid * resid, axis=-1, keepdims=True))


def rmse_loss(pred: Tensor, target: Tensor, divisor: float = 1.0) -> Tensor:
    """Sum over rows of each row's root-mean-square error, divided by ``divisor``.

    A row is the last axis, so a 1-D pair is one row and the value is its plain
    RMSE. The trainer passes the minibatch size as ``divisor``: the losses of
    the chunks of a minibatch then add up to the mean per-window RMSE, and so
    do their gradients. The gradient w.r.t. a row of pred is
    (pred - target) / (d * rmse * divisor) for rows of length d, taken as 0
    for a row whose residual is identically zero; a taped call keeps only the
    residual.
    """
    if pred.values.shape != target.values.shape:
        raise ValueError(
            f"rmse_loss shape mismatch: {pred.values.shape} vs {target.values.shape}"
        )
    resid = pred.values - target.values
    if resid.size == 0:
        raise ValueError("rmse_loss on empty tensors")
    pn, tn = pred.node, target.node

    def rule(g):
        denom = resid.shape[-1] * row_rmse(resid) * divisor
        gp = np.divide(float(g) * resid, denom, out=np.zeros_like(resid), where=denom != 0)
        if pn.requires_grad:
            pn.accumulate_grad(gp)
        if tn.requires_grad:
            tn.accumulate_grad(-gp)

    return _maybe_record(Tensor(row_rmse(resid).sum() / divisor), rule, (pred, target), (resid,))


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ weight + bias, composed from taped primitives."""
    return add(matmul(x, weight), bias)
