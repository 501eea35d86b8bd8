"""Residual TCN blocks: hand cases, causality, receptive field, gradients."""

import numpy as np
import pytest

import tcnad.tcn
from oracles import numeric_grad, rel_err
from tcnad.autodiff import Tape, Tensor, backward, fan_in_init, rmse_loss, slice_rows
from tcnad.tcn import (
    TcnBlockParams,
    block_rows,
    init_tcn_stack,
    receptive_field,
    tcn_block_forward,
    tcn_forward,
)


def _scalar_block(f1, f2, dilation=1, dropout=0.0):
    """Single-channel block with explicit taps for the two convs."""
    k = len(f1)
    return TcnBlockParams(
        conv1_filters=Tensor(np.array(f1, dtype=float).reshape(k, 1, 1)),
        conv1_bias=Tensor(np.zeros(1)),
        conv2_filters=Tensor(np.array(f2, dtype=float).reshape(k, 1, 1)),
        conv2_bias=Tensor(np.zeros(1)),
        downsample=None,
        dilation=dilation,
        dropout_rate=dropout,
    )


def _const_stack(kernel, dilations, value=0.1):
    """Single-channel stack with every tap equal; monotone by construction."""
    return [_scalar_block([value] * kernel, [value] * kernel, dilation=d) for d in dilations]


class TestBlockForward:
    def test_zero_branch_is_identity(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((10, 1))
        block = _scalar_block([0.0, 0.0], [0.0, 0.0])
        out = tcn_block_forward(Tensor(x), block)
        np.testing.assert_array_equal(out.values, x)

    def test_hand_case_last_element(self):
        # conv1 [1,2] on x=[1,4] gives 9 at the end; conv2 is the delta tap,
        # so the branch emits 9 and the identity residual adds x[-1]=4 -> 13
        block = _scalar_block([1.0, 2.0], [0.0, 1.0])
        out = tcn_block_forward(Tensor([[1.0], [4.0]]), block)
        assert out.values[-1, 0] == 13.0

    def test_downsample_path_when_channels_change(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 2))
        down = rng.standard_normal((1, 2, 3))
        block = TcnBlockParams(
            conv1_filters=Tensor(np.zeros((2, 2, 3))),
            conv1_bias=Tensor(np.zeros(3)),
            conv2_filters=Tensor(np.zeros((2, 3, 3))),
            conv2_bias=Tensor(np.zeros(3)),
            downsample=Tensor(down),
            dilation=1,
        )
        out = tcn_block_forward(Tensor(x), block)
        np.testing.assert_allclose(out.values, x @ down[0])

    def test_stack_is_block_composition(self):
        rng = np.random.default_rng(1)
        stack = init_tcn_stack(2, 2, 3, (1, 2), 0.0, fan_in_init(rng), "tcn")
        x = Tensor(rng.standard_normal((9, 2)))
        whole = tcn_forward(x, stack).values
        step = tcn_block_forward(tcn_block_forward(x, stack[0]), stack[1]).values
        np.testing.assert_array_equal(whole, step)

    def test_length_preserved(self):
        rng = np.random.default_rng(2)
        stack = init_tcn_stack(3, 5, 4, (1, 2, 4), 0.0, fan_in_init(rng), "tcn")
        out = tcn_forward(Tensor(rng.standard_normal((20, 3))), stack)
        assert out.values.shape == (20, 5)


class TestCausality:
    def test_stack_never_looks_ahead(self):
        rng = np.random.default_rng(42)
        stack = init_tcn_stack(2, 3, 3, (1, 2), 0.0, fan_in_init(rng), "tcn")
        x = rng.standard_normal((15, 2))
        base = tcn_forward(Tensor(x), stack).values
        for t in (4, 9, 14):
            bumped = x.copy()
            bumped[t] += 10.0
            out = tcn_forward(Tensor(bumped), stack).values
            np.testing.assert_array_equal(out[:t], base[:t])


class TestReceptiveField:
    def test_formula(self):
        assert receptive_field(_const_stack(1, (1,))) == 1
        assert receptive_field(_const_stack(2, (1,))) == 3
        assert receptive_field(_const_stack(2, (1, 2))) == 7
        assert receptive_field(_const_stack(2, (1, 2, 4))) == 15
        assert receptive_field(_const_stack(4, (1,))) == 7
        assert receptive_field(_const_stack(4, (1, 2))) == 19
        assert receptive_field(_const_stack(4, (1, 2, 4))) == 43

    @pytest.mark.parametrize("kernel,dilations", [(2, (1, 2)), (4, (1, 2, 4))])
    def test_probing_matches_formula(self, kernel, dilations):
        # all-positive taps make every in-field path strictly increasing, so a
        # bump inside the field must move the last output; outside it cannot
        stack = _const_stack(kernel, dilations)
        rf = receptive_field(stack)
        w = rf + 5
        rng = np.random.default_rng(42)
        x = rng.standard_normal((w, 1))
        base = tcn_forward(Tensor(x), stack).values[-1, 0]
        for lag in range(w):
            bumped = x.copy()
            bumped[w - 1 - lag, 0] += 1.0
            out = tcn_forward(Tensor(bumped), stack).values[-1, 0]
            if lag < rf:
                assert out > base, f"lag {lag} inside field {rf} had no effect"
            else:
                assert out == base, f"lag {lag} outside field {rf} leaked"


class TestTrapezoid:
    """``tcn_forward(..., rows=n)`` computes only what reaches its last n rows;
    it must equal those rows of the full stack, in values and gradients."""

    # K = 3, dilations (1, 2): rf = 13, so w = 20 has w >= rf and w = 9 w < rf;
    # 2 input channels into 3 take a downsample conv in block 0, 3 into 3 none
    @pytest.mark.parametrize("c_in", [2, 3])
    @pytest.mark.parametrize("w, rows", [(20, 1), (20, 4), (9, 1), (9, 3), (9, 9)])
    def test_matches_the_last_rows_of_the_full_stack(self, w, rows, c_in):
        rng = np.random.default_rng(w * rows)
        stack = init_tcn_stack(c_in, 3, 3, (1, 2), 0.0, fan_in_init(rng), "tcn")
        assert receptive_field(stack) == 13
        assert (stack[0].downsample is not None) == (c_in != 3)
        x = Tensor(rng.standard_normal((2, w, c_in)))
        y = rng.standard_normal((2, rows, 3))

        def grads(pruned):
            for b in stack:
                for t in _tensors(b):
                    t.zero_grad()
            with Tape():
                out = (tcn_forward(x, stack, rows=rows) if pruned
                       else slice_rows(tcn_forward(x, stack), w - rows, w))
                backward(rmse_loss(out, Tensor(y)))
            return out.values, [t.grad for b in stack for t in _tensors(b)]

        (out, got), (ref, expected) = grads(True), grads(False)
        assert out.shape == (2, rows, 3)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-15)
        for g, e in zip(got, expected):
            np.testing.assert_allclose(g, e, rtol=1e-12, atol=1e-12 * np.abs(e).max())

    def test_paper_stack_convs_compute_the_rows_that_are_read(self, monkeypatch):
        # the paper config's TCN: 75 input channels, r = 43 rows, one row read
        stack = init_tcn_stack(75, 32, 4, (1, 2, 4), 0.0, fan_in_init(np.random.default_rng(0)),
                               "tcn")
        assert block_rows(stack, 43, 1) == [37, 25, 1]
        rows, real = [], tcnad.tcn.causal_dilated_conv1d

        def spy(x, filters, dilation=1, n=None):
            out = real(x, filters, dilation, n)
            rows.append(out.values.shape[-2])
            return out

        monkeypatch.setattr(tcnad.tcn, "causal_dilated_conv1d", spy)
        tcn_forward(Tensor(np.zeros((43, 75))), stack, rows=1)
        # conv1 and conv2 of each block, block 0's downsample conv after its conv2
        assert rows == [40, 37, 37, 31, 25, 13, 1]


def _tensors(block):
    return [t for t in (block.conv1_filters, block.conv1_bias, block.conv2_filters,
                        block.conv2_bias, block.downsample) if t is not None]


class TestValidation:
    def test_conv2_shape(self):
        with pytest.raises(ValueError):
            TcnBlockParams(
                conv1_filters=Tensor(np.zeros((2, 1, 2))),
                conv1_bias=Tensor(np.zeros(2)),
                conv2_filters=Tensor(np.zeros((2, 1, 2))),
                conv2_bias=Tensor(np.zeros(2)),
                downsample=Tensor(np.zeros((1, 1, 2))),
                dilation=1,
            )

    def test_downsample_required_iff_channels_change(self):
        with pytest.raises(ValueError):
            TcnBlockParams(
                conv1_filters=Tensor(np.zeros((2, 1, 2))),
                conv1_bias=Tensor(np.zeros(2)),
                conv2_filters=Tensor(np.zeros((2, 2, 2))),
                conv2_bias=Tensor(np.zeros(2)),
                downsample=None,
                dilation=1,
            )

    def test_bad_dilation(self):
        with pytest.raises(ValueError):
            _scalar_block([1.0], [1.0], dilation=0)


class TestTraining:
    def test_dropout_only_active_in_training(self):
        rng = np.random.default_rng(42)
        stack = init_tcn_stack(2, 4, 3, (1, 2), 0.5, fan_in_init(rng), "tcn")
        x = Tensor(rng.standard_normal((12, 2)))
        eval_a = tcn_forward(x, stack).values
        eval_b = tcn_forward(x, stack).values
        np.testing.assert_array_equal(eval_a, eval_b)
        with Tape(np.random.default_rng(0)):   # dropout is active only under a tape
            train_out = tcn_forward(x, stack).values
        assert not np.array_equal(train_out, eval_a)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(42)
        stack = init_tcn_stack(2, 3, 2, (1, 2), 0.0, fan_in_init(rng), "tcn")
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal((8, 3))

        def run():
            return rmse_loss(tcn_forward(Tensor(x), stack), Tensor(y))

        with Tape():
            backward(run())
        check_rng = np.random.default_rng(0)
        tensors = [t for b in stack for t in _tensors(b)]
        assert any(b.downsample is not None for b in stack)
        for t in tensors:
            coords = check_rng.choice(t.values.size, size=min(6, t.values.size), replace=False)
            num = numeric_grad(lambda: float(run().values), t.values, coords)
            for idx, val in num.items():
                assert rel_err(t.grad.ravel()[idx], val) < 1e-5
