"""Unit tests for the tape, the ops, their gradients, and Adam."""

import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    conv_backward_reference,
    conv_reference,
    copying_accumulate_grad,
    matmul_input_grad_reference,
    numeric_grad,
    pair_scores_bool_mask,
    pair_scores_reference,
    record_arrays,
    rel_err,
)
from tcnad import autodiff, optim
from tcnad.autodiff import (
    Tape,
    Tensor,
    add,
    backward,
    causal_dilated_conv1d,
    concat_cols,
    dropout,
    leaky_relu,
    linear,
    matmul,
    pair_scores,
    reshape,
    rmse_loss,
    sigmoid,
    slice_cols,
    slice_rows,
    softmax_rows,
    take_blocks,
    take_row,
    take_rows,
    transpose,
)
from tcnad.forecaster import ModelConfig, forward, init_forecaster
from tcnad.optim import AdamState, adam_step


class TestTensor:
    def test_coerces_to_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.values.dtype == np.float64
        assert not t.requires_grad

    def test_grad_accumulates(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        t.node.accumulate_grad(np.ones(3))
        t.node.accumulate_grad(np.ones(3))
        np.testing.assert_array_equal(t.grad, 2 * np.ones(3))
        t.zero_grad()
        assert t.grad is None


class TestBatchedOps:
    """Each op on leading batch axes equals the op applied to every slice.

    Forward values and input grads stack; grads of shared (unbatched) inputs
    are the sum over slices.
    """

    CASES = {
        # name: (op, trailing shapes, which inputs carry the batch axes)
        "matmul_shared_weight": (matmul, [(4, 3), (3, 5)], (True, False)),
        "matmul_batched": (matmul, [(4, 3), (3, 5)], (True, True)),
        "add_bias": (add, [(4, 3), (3,)], (True, False)),
        "add": (add, [(4, 3), (4, 3)], (True, True)),
        "transpose": (transpose, [(4, 3)], (True,)),
        "slice_cols": (lambda x: slice_cols(x, 1, 3), [(4, 3)], (True,)),
        "take_row": (lambda x: take_row(x, 2), [(4, 3)], (True,)),
        "slice_rows": (lambda x: slice_rows(x, 1, 3), [(4, 3)], (True,)),
        "concat_cols": (lambda a, b: concat_cols([a, b]), [(4, 2), (4, 3)], (True, True)),
        "pair_scores": (pair_scores, [(4, 3), (5, 3), (3,)], (True, True, False)),
        # the static attention form: one score column per side, a fixed unit vector
        "pair_scores_static": (lambda p, q: pair_scores(p, q, Tensor(np.ones(1))),
                               [(4, 1), (5, 1)], (True, True)),
        "softmax_rows": (softmax_rows, [(4, 3)], (True,)),
        "conv": (lambda x, f: causal_dilated_conv1d(x, f, 2), [(6, 2), (3, 2, 4)], (True, False)),
        # the last 3 rows read 7 input rows of 6 (one before row 0), the last 2 read 6
        "conv_rows_padded": (lambda x, f: causal_dilated_conv1d(x, f, 2, 3),
                             [(6, 2), (3, 2, 4)], (True, False)),
        "conv_rows_view": (lambda x, f: causal_dilated_conv1d(x, f, 2, 2),
                           [(6, 2), (3, 2, 4)], (True, False)),
    }

    @staticmethod
    def _run(op, arrays, upstream):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = op(*inputs)
            out.grad = upstream
            tape.replay_backward()
        return out.values, [t.grad for t in inputs]

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_per_slice(self, name, lead):
        op, shapes, batched = self.CASES[name]
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal(lead + s if b else s) for s, b in zip(shapes, batched)]
        out_shape = op(*[Tensor(a) for a in arrays]).values.shape
        assert out_shape[: len(lead)] == lead
        upstream = rng.standard_normal(out_shape)
        out, grads = self._run(op, arrays, upstream)

        ref_grads = [np.zeros_like(a) for a in arrays]
        for i in np.ndindex(lead):
            sliced = [a[i] if b else a for a, b in zip(arrays, batched)]
            o, gs = self._run(op, sliced, upstream[i])
            np.testing.assert_allclose(out[i], o, rtol=1e-12, atol=1e-12)
            for ref, g, b in zip(ref_grads, gs, batched):
                if b:
                    ref[i] = g
                else:
                    ref += g
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-12)

    def test_rmse_sums_row_losses_over_divisor(self):
        rng = np.random.default_rng(0)
        pred = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        target = rng.standard_normal((2, 3, 4))
        with Tape():
            loss = rmse_loss(pred, Tensor(target), divisor=8)
            backward(loss)
        rows = [rmse_loss(Tensor(pred.values[i]), Tensor(target[i]))
                for i in np.ndindex(2, 3)]
        np.testing.assert_allclose(float(loss.values), sum(float(r.values) for r in rows) / 8,
                                   rtol=1e-14)
        for i in np.ndindex(2, 3):
            p = Tensor(pred.values[i], requires_grad=True)
            with Tape():
                backward(rmse_loss(p, Tensor(target[i])))
            np.testing.assert_allclose(pred.grad[i], p.grad / 8, rtol=1e-14)


class TestRecords:
    """A record reaches the nodes of its output and inputs and exactly the
    arrays its op declared to the tape, and the tape counts their buffers."""

    CASES = {
        # name: (op, input shapes); every input requires a grad
        "matmul_shared_weight": (matmul, [(2, 4, 3), (3, 5)]),
        "matmul_batched": (matmul, [(2, 4, 3), (2, 3, 5)]),
        "add": (add, [(2, 4, 3), (2, 4, 3)]),
        "add_bias": (add, [(2, 4, 3), (3,)]),
        "transpose": (transpose, [(2, 4, 3)]),
        "reshape": (lambda x: reshape(x, (8, 3)), [(2, 4, 3)]),
        "slice_cols": (lambda x: slice_cols(x, 1, 3), [(2, 4, 3)]),
        "slice_rows": (lambda x: slice_rows(x, 1, 3), [(2, 4, 3)]),
        "take_row": (lambda x: take_row(x, 2), [(2, 4, 3)]),
        "concat_cols": (lambda a, b: concat_cols([a, b]), [(2, 4, 2), (2, 4, 3)]),
        "dropout": (lambda x: dropout(x, 0.5), [(2, 4, 3)]),
        "leaky_relu": (leaky_relu, [(2, 4, 3)]),
        "sigmoid": (sigmoid, [(2, 4, 3)]),
        "softmax_rows": (softmax_rows, [(2, 4, 3)]),
        "pair_scores": (pair_scores, [(2, 4, 3), (2, 5, 3), (3,)]),
        "conv": (lambda x, f: causal_dilated_conv1d(x, f, 2, 3), [(2, 6, 2), (3, 2, 4)]),
        "rmse_loss": (lambda p, t: rmse_loss(p, t, 2.0), [(2, 3), (2, 3)]),
        "take_rows": (lambda x: take_rows(x, np.array([[0, 5], [5, 7]])), [(2, 4, 3)]),
        "take_blocks": (lambda x: take_blocks(x, (2, 3), np.array([[0, 0, 1], [1, 2, 0]])),
                        [(2, 4, 5)]),
    }
    # ops whose rules read no values at all, at most a dropout mask
    SHAPES_ONLY = {"add", "add_bias", "transpose", "reshape", "slice_cols", "slice_rows",
                   "take_row", "concat_cols", "dropout"}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_record_reaches_exactly_its_saved_arrays(self, name, monkeypatch):
        op, shapes = self.CASES[name]
        rng = np.random.default_rng(0)
        inputs = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        saved, save = [], Tape.save
        monkeypatch.setattr(Tape, "save", lambda tape, *arrays: saved.extend(arrays)
                            or save(tape, *arrays))
        with Tape(np.random.default_rng(0)) as tape:   # the rng draws dropout's mask
            op(*inputs)
        assert len(tape) == 1
        reached = record_arrays(tape._records)
        assert {id(a) for a in reached} == {id(a) for a in saved}
        roots = {}
        for a in reached:
            while isinstance(a.base, np.ndarray):
                a = a.base
            roots[id(a)] = a.nbytes, a.dtype.kind
        assert tape.saved_bytes == sum(nbytes for nbytes, _ in roots.values())
        assert tape.float_bytes == sum(nbytes for nbytes, kind in roots.values() if kind == "f")
        if name in self.SHAPES_ONLY:
            assert [a for a in reached if a.dtype != np.bool_] == []
        if name in ("dropout", "leaky_relu"):
            assert [(a.dtype, a.shape) for a in reached] == [(np.bool_, shapes[0])]

    def test_backward_empties_the_count(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = rmse_loss(sigmoid(x), Tensor(np.zeros((2, 3))))
            assert tape.saved_bytes == tape.float_bytes == 2 * x.values.nbytes
            backward(loss)
        assert len(tape) == 0 and tape.saved_bytes == tape.float_bytes == 0


class TestForwardValues:
    def test_matmul_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(matmul(a, b).values, [[19, 22], [43, 50]])

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_add_bias_broadcast(self):
        out = add(Tensor(np.zeros((3, 2))), Tensor([1.0, 2.0]))
        np.testing.assert_array_equal(out.values, [[1, 2]] * 3)

    def test_add_shape_error(self):
        with pytest.raises(ValueError):
            add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))

    def test_linear_identity(self):
        x = Tensor([[1.0, -2.0]])
        out = linear(x, Tensor(np.eye(2)), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.values, x.values)

    def test_leaky_relu_slope(self):
        out = leaky_relu(Tensor([-2.0, 0.0, 3.0]))
        np.testing.assert_allclose(out.values, [-0.4, 0.0, 3.0])

    @pytest.mark.parametrize("taped", [False, True])
    def test_leaky_relu_is_bit_identical_to_maximum(self, taped):
        # the maximum is written into the slope product in place
        x = np.random.default_rng(3).standard_normal((2, 5, 7))
        x.flat[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310]
        with Tape() if taped else contextlib.nullcontext():
            out = leaky_relu(Tensor(x, requires_grad=taped)).values
        assert out.tobytes() == np.maximum(x, autodiff.LEAKY_SLOPE * x).tobytes()

    def test_sigmoid_midpoint_and_extremes(self):
        out = sigmoid(Tensor([0.0, 50.0, -50.0, -1000.0]))
        np.testing.assert_allclose(out.values[0], 0.5)
        assert out.values[1] > 1 - 1e-12
        assert out.values[2] < 1e-12
        assert np.isfinite(out.values).all()  # no overflow on large negatives

    def test_softmax_rows_stochastic(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((5, 7)) * 10)
        y = softmax_rows(x).values
        assert (y > 0).all()
        np.testing.assert_allclose(y.sum(axis=1), np.ones(5), atol=1e-12)

    def test_softmax_shift_invariance(self):
        # the shift rounds the inputs themselves, so equality holds to ~1 ulp
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4))
        a = softmax_rows(Tensor(x)).values
        b = softmax_rows(Tensor(x + 123.456)).values
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_slice_and_concat_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6))
        parts = [slice_cols(Tensor(x), 0, 2), slice_cols(Tensor(x), 2, 6)]
        np.testing.assert_array_equal(concat_cols(parts).values, x)

    def test_take_row_keeps_2d(self):
        out = take_row(Tensor([[1.0, 2.0], [3.0, 4.0]]), 1)
        assert out.values.shape == (1, 2)
        np.testing.assert_array_equal(out.values, [[3.0, 4.0]])

    @pytest.mark.parametrize("index", [-1, 3, 5])
    def test_take_row_rejects_out_of_range(self, index):
        with pytest.raises(ValueError, match=f"index {index} out of range for 3 rows"):
            take_row(Tensor(np.zeros((3, 2))), index)

    def test_slice_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        np.testing.assert_array_equal(slice_rows(x, 1, 3).values, x.values[1:3])
        assert slice_rows(x, 0, 4) is x

    @pytest.mark.parametrize("start, stop", [(-1, 2), (2, 2), (3, 1), (0, 5)])
    def test_slice_rows_rejects_bad_range(self, start, stop):
        with pytest.raises(ValueError, match=f"range {start}:{stop} invalid for 4 rows"):
            slice_rows(Tensor(np.zeros((4, 3))), start, stop)

    def test_transpose_reshape(self):
        x = Tensor([[1.0, 2.0, 3.0]])
        assert transpose(x).values.shape == (3, 1)
        assert reshape(x, (3,)).values.shape == (3,)

    def test_pair_scores_hand_case(self):
        # pairs [[2, 1], [-1, -2]] (d = 1), then leaky_relu at slope 0.2, then times 2
        left = Tensor([[1.0], [-2.0]])
        right = Tensor([[1.0], [0.0]])
        out = pair_scores(left, right, Tensor([2.0]))
        np.testing.assert_array_equal(out.values, [[4.0, 2.0], [-0.4, -0.8]])


class TestPairScores:
    """The fused op against the explicit pair tensor and the unfused rules."""

    @staticmethod
    def _run(left, right, v, g):
        ts = [Tensor(a, requires_grad=True) for a in (left, right, v)]
        with Tape() as tape:
            out = pair_scores(*ts)
            out.grad = g
            tape.replay_backward()
        return (out.values, *(t.grad for t in ts))

    @pytest.mark.parametrize("slope", [0.2, 0.0, 1.0])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_matches_reference(self, lead, slope, monkeypatch):
        monkeypatch.setattr(autodiff, "LEAKY_SLOPE", slope)
        self._check_reference(lead, slope)

    # per shape below, 100 floats make runs of whole entries, 40 one entry or
    # runs of query rows, 10 runs of one or two query rows
    @pytest.mark.parametrize("budget", [100, 40, 10])
    @pytest.mark.parametrize("slope", [0.2, 0.0, 1.0])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_blocked_matches_reference(self, lead, slope, budget, monkeypatch):
        monkeypatch.setattr(autodiff, "_PAIR_BLOCK_FLOATS", budget)
        monkeypatch.setattr(autodiff, "LEAKY_SLOPE", slope)
        self._check_reference(lead, slope)

    def _check_reference(self, lead, slope):
        rng = np.random.default_rng(11)
        for n, p, d in [(4, 5, 3), (2, 6, 2), (5, 5, 1)]:
            # small integers put many pair entries at exactly zero, where the
            # derivative must be 1 as in leaky_relu
            left = rng.integers(-2, 3, lead + (n, d)).astype(float)
            right = rng.integers(-2, 3, lead + (p, d)).astype(float)
            left[..., -1, :] += rng.standard_normal(d)
            v = rng.standard_normal(d)
            g = rng.standard_normal(lead + (n, p))
            assert (left[..., :, None, :] + right[..., None, :, :] == 0).any()
            got = self._run(left, right, v, g)
            want = pair_scores_reference(left, right, v, slope, g)
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_tape_keeps_only_a_sign_mask(self, monkeypatch):
        # the two inputs, the score vector, and each block's sign mask packed 8
        # elements to a byte (rounded up): no pair-sized array of any kind
        rng = np.random.default_rng(0)
        for left_shape, right_shape, budget, mask_bytes in [
            ((2, 4, 3), (2, 5, 3), autodiff._PAIR_BLOCK_FLOATS, [15]),   # one block of 120 elements
            ((2, 4, 3), (2, 5, 3), 40, [4, 4, 4, 4]),       # four of 30: 3.75 bytes, kept as 4
            ((25, 100), (25, 100), autodiff._PAIR_BLOCK_FLOATS, [7813]),  # one of 62,500
        ]:
            monkeypatch.setattr(autodiff, "_PAIR_BLOCK_FLOATS", budget)
            left = Tensor(rng.standard_normal(left_shape), requires_grad=True)
            right = Tensor(rng.standard_normal(right_shape), requires_grad=True)
            with Tape() as tape:
                pair_scores(left, right, Tensor(rng.standard_normal(left_shape[-1])))
            assert len(tape) == 1
            held = record_arrays(tape._records)
            masks = [a for a in held if a.dtype != np.float64]
            assert all(a.dtype == np.uint8 and a.ndim == 1 for a in masks)
            assert sorted(a.size for a in masks) == sorted(mask_bytes)
            assert sorted(a.size for a in held if a.dtype == np.float64) == sorted(
                [left.values.size, right.values.size, left_shape[-1]])
            assert tape.saved_bytes - tape.float_bytes == sum(mask_bytes)

    # the shapes each named config's training chunk scores, and the static form
    # (d = 1); a paper variable window is one block of 62,500 elements, and at
    # 55 features the evened blocks run 15/15/13 (temporal) and 19/19/17
    # (variable) query rows of 5,500 elements: none a multiple of 8
    @pytest.mark.parametrize("lead, n, p, d", [
        pytest.param((270,), 19, 20, 3, id="demo-temporal"),
        pytest.param((270,), 3, 3, 20, id="demo-variable"),
        pytest.param((15,), 43, 100, 25, id="paper-temporal"),
        pytest.param((15,), 25, 25, 100, id="paper-variable"),
        pytest.param((7,), 43, 100, 55, id="paper55-temporal"),
        pytest.param((7,), 55, 55, 100, id="paper55-variable"),
        pytest.param((16,), 43, 100, 1, id="static-temporal"),
        pytest.param((16,), 25, 25, 1, id="static-variable"),
        pytest.param((), 25, 25, 100, id="odd-tail-block"),
    ])
    def test_packed_rule_equals_the_bool_mask_rule(self, lead, n, p, d):
        rng = np.random.default_rng(5)
        left, right = rng.standard_normal(lead + (n, d)), rng.standard_normal(lead + (p, d))
        left[..., 0, :] = -right[..., 0, :]       # pairs at exactly 0, derivative 1
        v, g = rng.standard_normal(d), rng.standard_normal(lead + (n, p))
        blocks = autodiff._pair_blocks(lead, n, p * d)
        got = self._run(left, right, v, g)
        want = pair_scores_bool_mask(left, right, v, autodiff.LEAKY_SLOPE, g, blocks)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_blocks(self, monkeypatch):
        monkeypatch.setattr(autodiff, "_PAIR_BLOCK_FLOATS", 40)
        assert autodiff._pair_blocks((2, 3), 2, 3) == [(slice(0, 6),)]
        assert autodiff._pair_blocks((3,), 2, 10) == [(slice(0, 2),), (slice(2, 4),)]
        assert autodiff._pair_blocks((2,), 4, 15) == [(b, slice(i, i + 2))
                                                      for b in (0, 1) for i in (0, 2)]
        assert autodiff._pair_blocks((), 3, 50) == [(0, slice(i, i + 1)) for i in range(3)]
        # even runs, not cap, ..., remainder: 25 rows at a 22-row cap, 350
        # entries at a 335-entry cap
        monkeypatch.setattr(autodiff, "_PAIR_BLOCK_FLOATS", 22 * 2500)
        assert autodiff._pair_blocks((), 25, 2500) == [(0, slice(0, 13)), (0, slice(13, 26))]
        monkeypatch.setattr(autodiff, "_PAIR_BLOCK_FLOATS", 335)
        assert autodiff._pair_blocks((350,), 1, 1) == [(slice(0, 175),), (slice(175, 350),)]
        assert autodiff._pair_blocks((0,), 1, 1) == autodiff._pair_blocks((0,), 25, 50) == []

    def test_one_paper_window_is_one_block_that_fits_the_l2(self):
        # a block's values, slope-scaled copy and 1-byte sign mask take 17 B an
        # element, within a 2 MiB per-core L2; a paper window's temporal
        # (43 x 100 x 25) and variable (25 x 25 x 100) pairs are one block each
        assert 17 * autodiff._PAIR_BLOCK_FLOATS <= 2**21
        assert autodiff._pair_blocks((1,), 43, 100 * 25) == [(slice(0, 1),)]
        assert autodiff._pair_blocks((1,), 25, 25 * 100) == [(slice(0, 1),)]
        assert len(autodiff._pair_blocks((15,), 43, 100 * 25)) == 15   # a training chunk

    @pytest.mark.parametrize("n, p, d", [(4, 5, 3), (43, 100, 55)])  # entry runs, row runs
    def test_empty_batch(self, n, p, d):
        left, right = np.ones((0, n, d)), np.ones((0, p, d))
        out, d_left, d_right, d_v = self._run(left, right, np.ones(d), np.ones((0, n, p)))
        assert (out.shape, d_left.shape, d_right.shape) == ((0, n, p), left.shape, right.shape)
        np.testing.assert_array_equal(d_v, np.zeros(d))

    def test_paper_shape_temporaries_stay_within_one_block(self, monkeypatch):
        # two paper windows take one block each. When np.maximum runs, that
        # block and its slope-scaled copy are the only pair-sized arrays alive;
        # no earlier block is alive when the next is made, only the one buffer
        # every block's scaled copy goes into, nor, in backward, an earlier
        # float mask block when the next is unpacked
        rng = np.random.default_rng(0)
        left, right, v = (Tensor(rng.standard_normal(s), requires_grad=True)
                          for s in [(2, 43, 25), (2, 100, 25), (25,)])
        numpy_arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        block = autodiff._PAIR_BLOCK_FLOATS * 8
        alive = {"empty": [], "maximum": [], "unpackbits": []}

        def watch(name, real):
            def call(*args, **kwargs):   # the pair-sized arrays: over an eighth of a block
                alive[name].append([t.size for t in tracemalloc.take_snapshot().filter_traces(
                    [numpy_arrays]).traces if t.size > block // 8])
                return real(*args, **kwargs)
            return call

        for name in alive:
            monkeypatch.setattr(np, name, watch(name, getattr(np, name)))
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = pair_scores(left, right, v)
                out.grad = np.ones(out.values.shape)
                tape.replay_backward()
        finally:
            tracemalloc.stop()
        assert out.values.shape == (2, 43, 100)
        assert [len(sizes) for sizes in alive["maximum"]] == [2, 2]
        assert max(map(max, alive["maximum"])) <= block
        # the scores, the scaled-copy buffer, two blocks, one grad in backward
        assert [len(sizes) for sizes in alive["empty"]] == [0, 0, 1, 1, 0]
        assert alive["unpackbits"] == [[], []]

    @pytest.mark.parametrize("lead, n, p, d", [((15,), 43, 100, 25),   # temporal, paper chunk
                                               ((15,), 25, 25, 100)])  # variable
    def test_paper_shapes_agree_across_block_budgets(self, lead, n, p, d, monkeypatch):
        # bit-equal scores; gradients sum their per-block parts in other orders
        rng = np.random.default_rng(3)
        left, right = rng.standard_normal(lead + (n, d)), rng.standard_normal(lead + (p, d))
        v, g = rng.standard_normal(d), rng.standard_normal(lead + (n, p))
        runs = []
        for budget in [autodiff._PAIR_BLOCK_FLOATS, 56 * 2**10, 14 * 2**10, lead[0] * n * p * d]:
            monkeypatch.setattr(autodiff, "_PAIR_BLOCK_FLOATS", budget)
            runs.append(self._run(left, right, v, g))
        (want, *want_grads), *others = runs[::-1]
        for got, *grads in others:
            np.testing.assert_array_equal(got, want)
            for a, b in zip(grads, want_grads):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())

    def test_rejects_bad_arguments(self):
        a, v = Tensor(np.zeros((4, 3))), Tensor(np.zeros(3))
        for left, right, vec in [(a, Tensor(np.zeros((4, 2))), v),
                                 (a, Tensor(np.zeros((2, 4, 3))), v),
                                 (a, a, Tensor(np.zeros(2))),
                                 (Tensor(np.zeros(3)), Tensor(np.zeros(3)), v)]:
            with pytest.raises(ValueError):
                pair_scores(left, right, vec)


class TestGathers:
    """``take_rows`` and ``take_blocks`` against plain indexing, with repeated
    rows and overlapping blocks, whose grads must add up."""

    @staticmethod
    def _grad(op, x, upstream):
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = op(t)
            out.grad = upstream
            tape.replay_backward()
        return out.values, t.grad

    def test_take_rows(self):
        # a 2-D index that repeats a row, and a 1-D one that takes one row four
        # times; the grads add in index order, so they match the loop bit for bit
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4, 2))
        for index in (np.array([[1, 5, 5], [11, 0, 5]]), np.array([7, 2, 7, 7, 7, 0])):
            upstream = rng.standard_normal((*index.shape, 2))
            out, grad = self._grad(lambda t: take_rows(t, index), x, upstream)
            flat = x.reshape(12, 2)
            np.testing.assert_array_equal(out, flat[index])
            ref = np.zeros((12, 2))
            for i, row in np.ndenumerate(index):
                ref[row] += upstream[i]
            np.testing.assert_array_equal(grad, ref.reshape(x.shape))

    def test_take_blocks(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 6))
        corners = np.array([[0, 0, 0], [0, 1, 2], [1, 2, 3], [0, 1, 2], [1, 0, 0]])
        upstream = rng.standard_normal((5, 3, 3))
        out, grad = self._grad(lambda t: take_blocks(t, (3, 3), corners), x, upstream)
        ref = np.zeros_like(x)
        for i, (e, a, b) in enumerate(corners):
            np.testing.assert_array_equal(out[i], x[e, a : a + 3, b : b + 3])
            ref[e, a : a + 3, b : b + 3] += upstream[i]
        np.testing.assert_allclose(grad, ref, rtol=1e-15)


class TestConvForward:
    def test_hand_case_kernel2(self):
        # last output = 1*3 + 2*5 = 13 for f = [1, 2] over the last two inputs
        x = Tensor(np.array([[1.0], [2.0], [3.0], [5.0]]))
        f = Tensor(np.array([1.0, 2.0]).reshape(2, 1, 1))
        out = causal_dilated_conv1d(x, f, dilation=1)
        # first step only sees x[0] through the second tap (left zero padding)
        np.testing.assert_allclose(out.values[:, 0], [2.0, 5.0, 8.0, 13.0])

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((9, 3))
        f = np.zeros((4, 3, 3))
        f[-1] = np.eye(3)  # only the current-time tap, identity across channels
        out = causal_dilated_conv1d(Tensor(x), Tensor(f), dilation=2)
        np.testing.assert_array_equal(out.values, x)

    def test_causality(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((12, 2))
        f = rng.standard_normal((3, 2, 4))
        base = causal_dilated_conv1d(Tensor(x), Tensor(f), dilation=2).values
        x2 = x.copy()
        x2[7] += 100.0
        bumped = causal_dilated_conv1d(Tensor(x2), Tensor(f), dilation=2).values
        np.testing.assert_array_equal(bumped[:7], base[:7])
        assert not np.allclose(bumped[7:], base[7:])

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            w = int(rng.integers(1, 13))
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            d = int(rng.integers(1, 5))
            x = rng.standard_normal((w, c_in))
            f = rng.standard_normal((k, c_in, c_out))
            fast = causal_dilated_conv1d(Tensor(x), Tensor(f), d).values
            np.testing.assert_allclose(fast, conv_reference(x, f, d), atol=1e-12)

    def test_rejects_bad_args(self):
        x, f = Tensor(np.zeros((5, 2))), Tensor(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            causal_dilated_conv1d(x, f, dilation=0)
        with pytest.raises(ValueError):
            causal_dilated_conv1d(Tensor(np.zeros((5, 4))), f, dilation=1)


class TestConvRows:
    """``rows`` keeps the last rows of the full conv, in values and gradients.

    w = 6, K = 3, dilation 2: the last n rows read n + 4 input rows, fewer
    than w for n = 1, exactly w for n = 2 and more (some before row 0) for n >= 3.
    """

    @staticmethod
    def _loss(x, f, rows, y, pruned):
        out = (causal_dilated_conv1d(x, f, 2, rows) if pruned
               else slice_rows(causal_dilated_conv1d(x, f, 2), 6 - rows, 6))
        return rmse_loss(out, Tensor(y))

    @pytest.mark.parametrize("rows", [1, 2, 3, 6])
    def test_matches_the_trailing_rows_of_the_full_conv(self, rows):
        rng = np.random.default_rng(rows)
        x = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        f = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
        y = rng.standard_normal((rows, 4))
        out = causal_dilated_conv1d(x, f, 2, rows).values
        np.testing.assert_allclose(out, causal_dilated_conv1d(x, f, 2).values[-rows:],
                                   rtol=1e-14, atol=1e-14)
        grads = {}
        for pruned in (True, False):
            x.zero_grad()
            f.zero_grad()
            with Tape():
                backward(self._loss(x, f, rows, y, pruned))
            grads[pruned] = [x.grad, f.grad]
        for g, ref in zip(grads[True], grads[False]):
            np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-14)
        for p, g in zip((x, f), grads[True]):
            num = numeric_grad(lambda: float(self._loss(x, f, rows, y, True).values),
                               p.values, range(p.values.size))
            for idx, val in num.items():
                assert rel_err(g.ravel()[idx], val) < 1e-5

    @pytest.mark.parametrize("rows", [1, 2, 3, 6])
    def test_record_holds_no_new_array(self, rows):
        # nothing is padded, whether the rows read fall inside x or not: the
        # rule reaches x and the filters, and no array of its own
        x = Tensor(np.random.default_rng(0).standard_normal((2, 6, 2)), requires_grad=True)
        f = Tensor(np.ones((3, 2, 4)), requires_grad=True)
        with Tape() as tape:
            causal_dilated_conv1d(x, f, 2, rows)
        held = record_arrays(tape._records)
        assert any(np.shares_memory(a, x.values) for a in held)
        assert all(np.shares_memory(a, x.values) or np.shares_memory(a, f.values) for a in held)

    @pytest.mark.parametrize("rows", [0, 7])
    def test_rejects_rows_outside_the_input(self, rows):
        with pytest.raises(ValueError, match="rows must be in"):
            causal_dilated_conv1d(Tensor(np.zeros((6, 2))), Tensor(np.zeros((3, 2, 4))), 2, rows)


class TestConvBackwardMatchesReference:
    """The conv's rule against per-tap loops, at the shapes the model runs: the
    demo and paper configs' convs (the preconv, TCN convs at dilations 1, 2 and 4
    and the K = 1 downsample) with a few windows, plus small cases whose first
    tap's shift (K-1)*dilation reaches past the window."""

    CASES = {
        # name: (lead, w, c_in, c_out, K, dilation, rows)
        "demo_preconv": ((4,), 20, 3, 3, 7, 1, None),
        "demo_conv1": ((4,), 19, 9, 16, 4, 1, 16),
        "demo_downsample": ((4,), 19, 9, 16, 1, 1, 13),
        "demo_conv_d2": ((4,), 13, 16, 16, 4, 2, 7),
        "demo_last_row": ((4,), 7, 16, 16, 4, 2, 1),
        "paper_preconv": ((2,), 100, 25, 25, 7, 1, None),
        "paper_conv1": ((2,), 43, 75, 32, 4, 1, 40),
        "paper_downsample": ((2,), 43, 75, 32, 1, 1, 37),
        "paper_conv_d2": ((2,), 37, 32, 32, 4, 2, 31),
        "paper_conv_d4": ((2,), 25, 32, 32, 4, 4, 13),
        "paper_last_row": ((2,), 13, 32, 32, 4, 4, 1),
        "shift_past_w": ((3,), 5, 2, 3, 4, 2, None),      # shifts 6, 4, 2, 0 over w = 5
        "shift_past_w_rows": ((2, 3), 5, 2, 3, 4, 2, 2),
        "shift_past_w_dilation4": ((3,), 6, 2, 2, 3, 4, 4),  # shifts 8, 4, 0
        "unbatched": ((), 6, 2, 4, 3, 2, 3),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_per_tap_loops(self, name):
        lead, w, c_in, c_out, k, dilation, rows = self.CASES[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        x = Tensor(rng.standard_normal(lead + (w, c_in)), requires_grad=True)
        f = Tensor(rng.standard_normal((k, c_in, c_out)), requires_grad=True)
        g = rng.standard_normal(lead + (w if rows is None else rows, c_out))
        with Tape() as tape:
            out = causal_dilated_conv1d(x, f, dilation, rows)
            out.grad = g
            tape.replay_backward()
        gx, gf = conv_backward_reference(x.values, f.values, dilation, g, rows)
        np.testing.assert_allclose(x.grad, gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(f.grad, gf, rtol=1e-12, atol=1e-12)


class TestMatmulInputGrad:
    """matmul's input grad against a column-by-column reference, for shared 2-D
    weights at the attention, TCN-to-MLP and MLP shapes and for a batched ``b``."""

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((4, 20, 3), (3, 6)),
        ((4, 1, 16), (16, 3)),
        ((2, 100, 25), (25, 50)),
        ((2, 1, 32), (32, 25)),
        ((2, 3, 5, 4), (4, 7)),
        ((5, 4), (4, 3)),
        ((3, 5, 4), (3, 4, 6)),
    ])
    def test_matches_reference(self, a_shape, b_shape):
        rng = np.random.default_rng(len(a_shape) + sum(b_shape))
        a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
        b = Tensor(rng.standard_normal(b_shape))
        g = rng.standard_normal(a_shape[:-1] + b_shape[-1:])
        with Tape() as tape:
            out = matmul(a, b)
            out.grad = g
            tape.replay_backward()
        np.testing.assert_allclose(a.grad, matmul_input_grad_reference(g, b.values),
                                   rtol=1e-12, atol=1e-12)


class TestSigmoidBits:
    """One ``np.where`` over e = exp(-|x|) gives the bits of the two-mask
    formula, NaN signs included, and raises nothing under errstate(all="raise")."""

    TABLE = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0,
             1000.0, -1000.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]

    @staticmethod
    def _masked(v):
        y = np.empty_like(v)
        pos = v >= 0
        with np.errstate(under="ignore"):
            y[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
            ev = np.exp(v[~pos])
        y[~pos] = ev / (1.0 + ev)
        return y

    @pytest.mark.parametrize("taped", [False, True])
    def test_table_is_bit_identical_and_silent(self, taped):
        v = np.array(self.TABLE)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with Tape() if taped else contextlib.nullcontext():
                out = sigmoid(Tensor(v, requires_grad=taped)).values
        assert out.tobytes() == self._masked(v).tobytes()

    def test_random_values_are_bit_identical(self):
        v = np.random.default_rng(3).standard_normal((64, 20, 3)) * 30.0
        assert sigmoid(Tensor(v)).values.tobytes() == self._masked(v).tobytes()


class TestRmse:
    def test_hand_values(self):
        loss = rmse_loss(Tensor([3.0, 0.0]), Tensor([0.0, 4.0]))
        np.testing.assert_allclose(float(loss.values), np.sqrt(12.5))
        zero = rmse_loss(Tensor([1.0, 2.0]), Tensor([1.0, 2.0]))
        assert float(zero.values) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_zero_residual_gradient_is_zero(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            loss = rmse_loss(p, Tensor([1.0, 2.0]))
            backward(loss)
        np.testing.assert_array_equal(p.grad, [0.0, 0.0])


class TestDropout:
    def test_identity_when_not_training(self):
        # no tape is active, so there is no rng to draw from and nothing is dropped
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        out = dropout(x, 0.5)
        assert out is x

    def test_identity_at_rate_zero(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        with Tape(np.random.default_rng(0)) as tape:
            out = dropout(x, 0.0)
        assert out is x
        assert len(tape) == 0

    def test_mask_fraction_and_scaling(self):
        rng = np.random.default_rng(42)
        x = Tensor(np.ones(200_000))
        with Tape(rng):
            out = dropout(x, 0.3).values
        kept = out != 0
        # binomial: expect 0.7 +- ~4 sigma
        assert abs(kept.mean() - 0.7) < 4 * np.sqrt(0.3 * 0.7 / x.values.size)
        np.testing.assert_allclose(out[kept], 1.0 / 0.7)

    def test_requires_rng_when_training(self):
        # a tape without an rng refuses dropout > 0
        with Tape(), pytest.raises(ValueError, match=r"Tape\(rng\)"):
            dropout(Tensor(np.ones(3)), 0.5)

    def test_rejects_rate_one(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.0)


class TestBackward:
    def test_requires_scalar_and_tape(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with Tape():
            with pytest.raises(ValueError):
                backward(add(t, t))
        with pytest.raises(RuntimeError):
            backward(Tensor(np.float64(1.0)))

    def test_no_recording_without_tape(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        out = matmul(a, a)
        assert not out.requires_grad

    def test_square_via_shared_operand(self):
        # both matmul slots see the same tensor, so grads d(x.x)/dx = 2x add up
        x = Tensor([[3.0]], requires_grad=True)
        with Tape():
            backward(reshape(matmul(x, x), ()))
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_fanout_accumulation(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape():
            y = add(x, x)
            backward(rmse_loss(y, Tensor([[0.0, 0.0]])))
        # d rmse(2x)/dx via both add slots; compare against finite differences
        def f():
            return float(np.sqrt(np.mean((2 * x.values) ** 2)))

        num = numeric_grad(f, x.values, range(2))
        for idx, val in num.items():
            assert rel_err(x.grad.ravel()[idx], val) < 1e-6

    def test_fanout_grads_do_not_alias(self):
        # add hands one upstream array to both inputs; if a leaf stored it
        # rather than a copy, a's second contribution would land in b's grad
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0]], requires_grad=True)
        with Tape() as tape:
            y = add(add(a, b), a)
            y.grad = np.ones((1, 2))
            tape.replay_backward()
        np.testing.assert_array_equal(a.grad, [[2.0, 2.0]])
        np.testing.assert_array_equal(b.grad, [[1.0, 1.0]])
        assert not np.shares_memory(a.grad, b.grad)

    def test_backward_empties_tape_and_frees_intermediate_grads(self):
        w = Tensor(np.random.default_rng(1).standard_normal((3, 2)), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        with Tape() as tape:
            h = matmul(x, w)
            out = sigmoid(h)
            loss = rmse_loss(out, Tensor(np.zeros((4, 2))))
            assert len(tape) == 3
            backward(loss)
        assert len(tape) == 0
        assert h.grad is None and out.grad is None and loss.grad is None
        assert w.grad is not None and w.grad.shape == (3, 2)
        assert x.grad is None

    def test_softmax_sum_has_null_gradient(self):
        x = Tensor(np.random.default_rng(42).standard_normal((1, 5)), requires_grad=True)
        ones = Tensor(np.ones((5, 1)))
        with Tape():
            backward(reshape(matmul(softmax_rows(x), ones), ()))
        np.testing.assert_allclose(x.grad, np.zeros((1, 5)), atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_composite_chain_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        w1 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b1 = Tensor(rng.standard_normal(4), requires_grad=True)
        w2 = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        b2 = Tensor(rng.standard_normal(2), requires_grad=True)
        x = rng.standard_normal((5, 3))
        y = rng.standard_normal((5, 2))

        def run():
            h = leaky_relu(linear(Tensor(x), w1, b1))
            return rmse_loss(sigmoid(linear(h, w2, b2)), Tensor(y))

        with Tape():
            backward(run())
        for p in (w1, b1, w2, b2):
            num = numeric_grad(lambda: float(run().values), p.values, range(p.values.size))
            for idx, val in num.items():
                assert rel_err(p.grad.ravel()[idx], val) < 1e-5

    @pytest.mark.parametrize("seed", range(4))
    def test_conv_backward_matches_fd(self, seed):
        rng = np.random.default_rng(100 + seed)
        w, c_in, c_out = 7, 2, 3
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        x = Tensor(rng.standard_normal((w, c_in)), requires_grad=True)
        f = Tensor(rng.standard_normal((k, c_in, c_out)), requires_grad=True)
        y = rng.standard_normal((w, c_out))

        def run():
            return rmse_loss(causal_dilated_conv1d(x, f, d), Tensor(y))

        with Tape():
            backward(run())
        for p in (x, f):
            num = numeric_grad(lambda: float(run().values), p.values, range(p.values.size))
            for idx, val in num.items():
                assert rel_err(p.grad.ravel()[idx], val) < 1e-5

    def test_attention_style_ops_match_fd(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        v = Tensor(rng.standard_normal(2), requires_grad=True)
        target = rng.standard_normal((3, 4))

        def run():
            scores = pair_scores(a, b, v)
            return rmse_loss(softmax_rows(scores), Tensor(target))

        with Tape():
            backward(run())
        for p in (a, b, v):
            num = numeric_grad(lambda: float(run().values), p.values, range(p.values.size))
            for idx, val in num.items():
                assert rel_err(p.grad.ravel()[idx], val) < 1e-5

    def test_dropout_backward_uses_same_mask(self):
        x = Tensor(np.ones((50, 4)), requires_grad=True)
        with Tape(np.random.default_rng(3)):
            out = dropout(x, 0.4)
            backward(rmse_loss(out, Tensor(np.zeros((50, 4)))))
        # gradient must vanish exactly where the mask dropped the input
        dropped = out.values == 0
        assert dropped.any()
        np.testing.assert_array_equal(x.grad[dropped], 0.0)
        assert (x.grad[~dropped] != 0).all()


class TestGradOwnership:
    """A node keeps the first grad array a rule hands it: no two grads share
    memory, and each equals, bit for bit, what copying that array gives."""

    CASES = {
        # name: (leaf shapes, graph); add hands one array to both its inputs
        "add_self": ([(3, 4), (3, 4)], lambda x, y: add(add(x, x), y)),
        "add_fanout": ([(3, 4), (3, 4)], lambda a, b: add(add(a, b), a)),
        "concat_cols": ([(2, 3, 2), (2, 3, 4), (2, 4, 3)],
                        lambda a, b, c: concat_cols([a, b, transpose(c), a])),
        "transpose_reshape": ([(2, 3, 4), (4, 6)],
                              lambda x, y: add(reshape(transpose(reshape(transpose(x), (4, 6))),
                                                       (2, 3, 4)), reshape(y, (2, 3, 4)))),
    }

    @staticmethod
    def _check(kept, copied):
        for a, b in zip(kept, copied):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for i, a in enumerate(kept):
            assert not any(np.shares_memory(a, b) for b in kept[i + 1 :])

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_op_chains(self, name, monkeypatch):
        shapes, graph = self.CASES[name]

        def grads():
            rng = np.random.default_rng(0)
            leaves = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
            with Tape():
                out = graph(*leaves)
                backward(rmse_loss(out, Tensor(rng.standard_normal(out.values.shape))))
            return [t.grad for t in leaves]

        kept = grads()
        monkeypatch.setattr(autodiff.GradNode, "accumulate_grad", copying_accumulate_grad)
        self._check(kept, grads())

    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_full_forecaster(self, mode, monkeypatch):
        # paper config with dropout, two windows, and the input taking a grad too
        cfg = ModelConfig(attention_mode=mode)

        def grads():
            params = init_forecaster(25, cfg, seed=1)
            windows = np.random.default_rng(2).standard_normal((2, cfg.window + 1, 25))
            x = Tensor(windows[:, :-1].reshape(-1, 25), requires_grad=True)
            with Tape(np.random.default_rng(3)):
                backward(rmse_loss(forward(x, params, [0, cfg.window]),
                                   Tensor(windows[:, -1]), 2))
            return [x.grad] + [t.grad for t in params.tensors()]

        kept = grads()
        assert all(g is not None for g in kept)
        monkeypatch.setattr(autodiff.GradNode, "accumulate_grad", copying_accumulate_grad)
        self._check(kept, grads())


class TestAdam:
    def test_single_step_magnitude(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        state = AdamState(learning_rate=0.1)
        adam_step([p], state)
        # bias correction makes the very first step ~= lr regardless of gradient scale
        np.testing.assert_allclose(p.values, [0.9], atol=1e-8)

    def test_two_steps_follow_the_bias_corrected_form(self):
        # the second step is the first whose moments mix two gradients
        assert (optim.BETA1, optim.BETA2, optim.EPS) == (0.9, 0.999, 1e-8)
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        state = AdamState(learning_rate=0.1)
        m = v = np.zeros(2)
        want = p.values.copy()
        for t, g in enumerate([np.array([0.5, -1.0]), np.array([-0.25, 3.0])], start=1):
            p.grad = g
            adam_step([p], state)
            m, v = 0.9 * m + 0.1 * g, 0.999 * v + 0.001 * g * g
            want -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(p.values, want, rtol=1e-12)
        assert state.step == 2

    def test_skips_missing_grads(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = AdamState()
        adam_step([p], state)
        np.testing.assert_array_equal(p.values, [1.0])

    def test_identical_params_stay_identical(self):
        rng = np.random.default_rng(42)
        vals = rng.standard_normal(5)
        a, b = Tensor(vals.copy(), requires_grad=True), Tensor(vals.copy(), requires_grad=True)
        state = AdamState(learning_rate=0.01)
        for step in range(20):
            g = rng.standard_normal(5)
            a.grad, b.grad = g.copy(), g.copy()
            adam_step([a, b], state)
        np.testing.assert_array_equal(a.values, b.values)

    def test_in_place_steps_are_bit_identical_to_the_formula(self):
        # five steps of three tensors, one of which never has a grad, against the
        # out-of-place form; the grads the optimizer reads are left as they were
        rng = np.random.default_rng(11)
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in ((3, 4), (4,), (2,))]
        state = AdamState(learning_rate=0.05)
        want = [p.values.copy() for p in params]
        m = [np.zeros_like(w) for w in want]
        v = [np.zeros_like(w) for w in want]
        b1, b2, eps = optim.BETA1, optim.BETA2, optim.EPS
        for t in range(1, 6):
            grads = [rng.standard_normal(p.values.shape) * 10.0 ** (t - 3) for p in params[:2]]
            params[0].grad, params[1].grad = grads
            kept = [g.copy() for g in grads]
            adam_step(params, state)
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                m_hat, v_hat = m[i] / (1.0 - b1 ** t), v[i] / (1.0 - b2 ** t)
                want[i] = want[i] - 0.05 * m_hat / (np.sqrt(v_hat) + eps)
            for i in range(3):
                assert params[i].values.tobytes() == want[i].tobytes()
            for p, g, k in zip(params, grads, kept):
                assert p.grad is g and g.tobytes() == k.tobytes()
            assert params[2].grad is None
        for i in range(3):
            assert state.m[i].tobytes() == m[i].tobytes()
            assert state.v[i].tobytes() == v[i].tobytes()

    def test_param_count_mismatch(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        q = Tensor(np.zeros(2), requires_grad=True)
        state = AdamState()
        adam_step([p], state)
        with pytest.raises(ValueError):
            adam_step([p, q], state)


def test_repeated_run_is_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        x = Tensor(rng.standard_normal((6, 4)))
        y = Tensor(rng.standard_normal((6, 4)))
        with Tape(np.random.default_rng(9)):
            out = sigmoid(matmul(dropout(x, 0.2), w))
            backward(rmse_loss(out, y))
        return w.values.copy(), w.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(g1, g2)
