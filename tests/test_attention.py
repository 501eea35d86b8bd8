"""Attention scores, aggregation, the static-ranking collapse, equivariance."""

import numpy as np
import pytest

import tcnad.attention
from oracles import numeric_grad, rel_err
from tcnad.attention import (
    AttentionParams,
    attend,
    dynamic_scores,
    init_attention,
    static_scores,
    temporal_attention,
    variable_attention,
)
from tcnad.autodiff import (
    Tape,
    Tensor,
    backward,
    fan_in_init,
    matmul,
    pair_scores,
    reshape,
    rmse_loss,
    sigmoid,
    slice_cols,
    slice_rows,
    softmax_rows,
    transpose,
)


def _dyn(weight, score_vec):
    params = AttentionParams(Tensor(weight), Tensor(score_vec))
    assert params.mode == "dynamic"
    return params


def _sta(weight, score_vec):
    params = AttentionParams(Tensor(weight), Tensor(score_vec))
    assert params.mode == "static"
    return params


def _sigmoid(z):
    return sigmoid(Tensor(z)).values


def _weights(queries, keys, params):
    """Softmax-normalized attention weights, one row per query."""
    scores = dynamic_scores if params.mode == "dynamic" else static_scores
    return softmax_rows(scores(queries, keys, params))


class TestScoreValues:
    def test_dynamic_hand_case(self):
        # identity W splits into per-node taps: e[i,j] = lrelu(x_i) + lrelu(x_j)
        params = _dyn(np.eye(2), [1.0, 1.0])
        x = Tensor([[1.0], [2.0]])
        e = dynamic_scores(x, x, params).values
        np.testing.assert_allclose(e, [[2.0, 3.0], [3.0, 4.0]])
        assert e[0, 1] == 3.0

    def test_static_hand_case(self):
        params = _sta([[1.0]], [1.0, 1.0])
        x = Tensor([[1.0], [2.0]])
        e = static_scores(x, x, params).values
        # e[i,j] = lrelu(x_i + x_j)
        np.testing.assert_allclose(e, [[2.0, 3.0], [3.0, 4.0]])
        assert e[0, 1] == 3.0

    def test_static_negative_branch_uses_slope(self):
        params = _sta([[1.0]], [1.0, 1.0])
        x = Tensor([[-1.0], [-2.0]])
        e = static_scores(x, x, params).values
        np.testing.assert_allclose(e, 0.2 * np.array([[-2.0, -3.0], [-3.0, -4.0]]))

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_static_matches_split_score_vector(self, lead):
        # reference: p and q from the two halves of score_vec, each its own (d_out, 1) column
        rng = np.random.default_rng(4)
        d_in, d_out = 3, 4
        params = init_attention(d_in, d_out, mode="static", source=fan_in_init(rng), prefix="head")
        x = Tensor(rng.standard_normal(lead + (5, d_in)), requires_grad=True)
        upstream = rng.standard_normal(lead + (5, 5))

        def split_reference():
            u = matmul(x, transpose(params.weight))
            a = reshape(params.score_vec, (1, 2 * d_out))
            p = matmul(u, reshape(slice_cols(a, 0, d_out), (d_out, 1)))
            q = matmul(u, reshape(slice_cols(a, d_out, 2 * d_out), (d_out, 1)))
            return pair_scores(p, q, Tensor(np.ones(1)))

        results = []
        for scores_fn in (lambda: static_scores(x, x, params), split_reference):
            leaves = (x, params.weight, params.score_vec)
            for t in leaves:
                t.grad = None
            with Tape() as tape:
                out = scores_fn()
                out.grad = upstream
                tape.replay_backward()
            results.append([out.values] + [t.grad for t in leaves])
        for new, ref in zip(*results):
            np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12)

    def test_dynamic_witness_per_query_argmax_differs(self):
        # with this W each query prefers the neighbour on its own side
        params = _dyn([[1.0, 1.0], [-1.0, -1.0]], [1.0, 1.0])
        x = Tensor([[1.0], [-1.0]])
        e = dynamic_scores(x, x, params).values
        np.testing.assert_allclose(e, [[1.6, 0.0], [0.0, 1.6]])
        assert np.argmax(e[0]) != np.argmax(e[1])

    def test_feature_dim_mismatch(self):
        good, bad = Tensor(np.zeros((3, 1))), Tensor(np.zeros((3, 2)))
        for mode, scores in (("dynamic", dynamic_scores), ("static", static_scores)):
            params = init_attention(1, 2, mode=mode, source=fan_in_init(np.random.default_rng(0)),
                                    prefix="head")
            for queries, keys in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match=r"\(\.\.\., n, 1\), got \(3, 2\)"):
                    scores(queries, keys, params)


class TestStaticCollapse:
    """Static scores are lrelu(p_i + q_j): monotone in a per-neighbour value,
    so every query ranks the neighbours in the same order."""

    @pytest.mark.parametrize("seed", range(20))
    def test_global_ranking(self, seed):
        rng = np.random.default_rng(seed)
        n, d_in, d_out = 6, 3, 4
        params = init_attention(d_in, d_out, mode="static", source=fan_in_init(rng), prefix="head")
        x = Tensor(rng.standard_normal((n, d_in)))
        e = static_scores(x, x, params).values
        rankings = np.argsort(e, axis=1)
        for i in range(1, n):
            np.testing.assert_array_equal(rankings[i], rankings[0])

    def test_dynamic_does_not_collapse(self):
        params = _dyn([[1.0, 1.0], [-1.0, -1.0]], [1.0, 1.0])
        x = Tensor([[1.0], [-1.0]])
        e = dynamic_scores(x, x, params).values
        assert not np.array_equal(np.argsort(e[0]), np.argsort(e[1]))


class TestAttend:
    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_weights_row_stochastic(self, mode):
        rng = np.random.default_rng(42)
        for _ in range(10):
            params = init_attention(3, mode=mode, source=fan_in_init(rng), prefix="head")
            x = Tensor(rng.standard_normal((7, 3)) * 3)
            weights = _weights(x, x, params).values
            np.testing.assert_allclose(weights.sum(axis=1), np.ones(7), atol=1e-9)
            assert (weights >= 0).all()

    def test_sigmoid_activation_bounds(self):
        rng = np.random.default_rng(0)
        params = init_attention(2, source=fan_in_init(rng), prefix="head")
        x = Tensor(rng.standard_normal((5, 2)))
        out = attend(x, x, x, params).values
        assert ((out > 0) & (out < 1)).all()

    def test_sigmoid_of_a_convex_combination(self):
        rng = np.random.default_rng(1)
        params = init_attention(2, source=fan_in_init(rng), prefix="head")
        x = rng.standard_normal((6, 2))
        t = Tensor(x)
        out = attend(t, t, t, params).values
        np.testing.assert_allclose(out, _sigmoid(_weights(t, t, params).values @ x))
        # convex combinations stay inside the per-feature range of the inputs,
        # and the sigmoid is monotone
        assert (out <= _sigmoid(x.max(axis=0)) + 1e-12).all()
        assert (out >= _sigmoid(x.min(axis=0)) - 1e-12).all()

    def test_uniform_rows_aggregate_to_themselves(self):
        rng = np.random.default_rng(2)
        params = init_attention(3, source=fan_in_init(rng), prefix="head")
        row = np.array([0.3, -1.2, 2.0])
        x = np.tile(row, (5, 1))
        t = Tensor(x)
        np.testing.assert_allclose(attend(t, t, t, params).values, _sigmoid(x), atol=1e-12)

    def test_single_node(self):
        rng = np.random.default_rng(3)
        params = init_attention(2, source=fan_in_init(rng), prefix="head")
        x = np.array([[1.5, -0.5]])
        t = Tensor(x)
        np.testing.assert_allclose(_weights(t, t, params).values, [[1.0]])
        np.testing.assert_allclose(attend(t, t, t, params).values, _sigmoid(x))

    def test_d_out_independent_of_d_in(self):
        rng = np.random.default_rng(4)
        params = init_attention(2, 5, source=fan_in_init(rng), prefix="head")
        assert params.weight.values.shape == (5, 4)
        x = Tensor(rng.standard_normal((3, 2)))
        assert attend(x, x, x, params).values.shape == (3, 2)
        assert dynamic_scores(x, x, params).values.shape == (3, 3)

    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_queries_keys_and_values_are_separate(self, mode):
        # q queries over n keys aggregate n values of their own width d_v
        rng = np.random.default_rng(5)
        q, n, d_in, d_v = 2, 5, 3, 4
        params = init_attention(d_in, mode=mode, source=fan_in_init(rng), prefix="head")
        queries = Tensor(rng.standard_normal((q, d_in)))
        keys = Tensor(rng.standard_normal((n, d_in)))
        values = rng.standard_normal((n, d_v))
        out = attend(queries, keys, Tensor(values), params).values
        assert out.shape == (q, d_v)
        weights = _weights(queries, keys, params).values
        np.testing.assert_array_equal(out, _sigmoid(weights @ values))


class TestQueryRows:
    """Each query row is scored on its own, so attending from the last r rows
    equals the last r rows of attending from all of them, gradients included."""

    @staticmethod
    def _run(fn, params, x, upstream):
        for t in (params.weight, params.score_vec):
            t.grad = None
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = fn(xt)
            out.grad = upstream
            tape.replay_backward()
        return out, [xt.grad, params.weight.grad, params.score_vec.grad]

    @staticmethod
    def _assert_close(new, ref):
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_attend_last_query_rows(self, mode, lead):
        rng = np.random.default_rng(7)
        n, d, r = 9, 3, 4
        params = init_attention(d, 5, mode=mode, source=fan_in_init(rng), prefix="head")
        x = rng.standard_normal(lead + (n, d)) * 2
        upstream = rng.standard_normal(lead + (r, d))
        padded = np.zeros(lead + (n, d))
        padded[..., n - r :, :] = upstream

        def last(t):
            return slice_rows(t, n - r, n)

        part, part_grads = self._run(lambda t: attend(last(t), t, t, params), params, x, upstream)
        full, full_grads = self._run(lambda t: attend(t, t, t, params), params, x, padded)
        scores = dynamic_scores if mode == "dynamic" else static_scores
        xt = Tensor(x)
        part_scores = scores(last(xt), xt, params).values
        assert part_scores.shape == lead + (r, n)
        self._assert_close(part_scores, scores(xt, xt, params).values[..., n - r :, :])
        weights = _weights(last(xt), xt, params).values
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones(lead + (r,)), atol=1e-12)
        self._assert_close(weights, _weights(xt, xt, params).values[..., n - r :, :])
        self._assert_close(part.values, full.values[..., n - r :, :])
        for new, ref in zip(part_grads, full_grads):
            self._assert_close(new, ref)

    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_window_views_last_rows(self, mode):
        rng = np.random.default_rng(8)
        w, m, r = 10, 4, 3
        x = rng.standard_normal((2, w, m))
        upstream = rng.standard_normal((2, r, m))
        padded = np.zeros((2, w, m))
        padded[:, w - r :] = upstream
        for view, d_in in ((temporal_attention, m), (variable_attention, w)):
            params = init_attention(d_in, mode=mode, source=fan_in_init(rng), prefix="head")
            part, part_grads = self._run(lambda t: view(t, slice_rows(t, w - r, w), params),
                                         params, x, upstream)
            full, full_grads = self._run(lambda t: view(t, t, params), params, x, padded)
            assert part.values.shape == (2, r, m)
            self._assert_close(part.values, full.values[:, w - r :])
            for new, ref in zip(part_grads, full_grads):
                self._assert_close(new, ref)


def _overlapping_windows(rng, starts, w, m):
    """Windows of w rows of one series, window i from series row starts[i]."""
    series = rng.standard_normal((starts[-1] + w, m))
    return np.stack([series[s : s + w] for s in starts])


def _share_always(monkeypatch):
    # small windows rarely halve their pairs by sharing; these tests share anyway
    monkeypatch.setattr(tcnad.attention, "_SHARE_AT", np.inf)


class TestSharedScores:
    # r = 3 and r = 8 query rows of windows of 10; 23 windows make several
    # groups, padded to the longest one's rows
    @pytest.mark.parametrize("n", [1, 2, 23])
    @pytest.mark.parametrize("r", [3, 8])
    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_equals_per_window_attention(self, mode, r, n, monkeypatch):
        _share_always(monkeypatch)
        rng = np.random.default_rng(11)
        w, m = 10, 4
        x = Tensor(_overlapping_windows(rng, np.arange(n), w, m))
        rows = slice_rows(x, w - r, w)
        params = init_attention(m, mode=mode, source=fan_in_init(rng), prefix="head")
        shared = temporal_attention(x, rows, params, starts=np.arange(n)).values
        np.testing.assert_allclose(shared, temporal_attention(x, rows, params).values,
                                   rtol=1e-14, atol=1e-15)

    # gaps of 1, of several rows, past the queries (>= nq = 3), and of at
    # least w = 10, where windows share no row; gaps of 0, where a repeated
    # window reads its twin's sub-block
    @pytest.mark.parametrize("starts", [[0, 1, 2, 3], [0, 2, 5, 6, 9], [0, 4, 11, 12, 30],
                                        [0, 3, 3, 5, 9], [2, 2, 2, 2], [0, 1, 1, 2, 30, 30]],
                             ids=["gap1", "gaps", "apart", "repeat", "one_start", "repeats"])
    @pytest.mark.parametrize("r", [3, 8])
    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_taped_gradients_equal_per_window(self, mode, r, starts, monkeypatch):
        # the outputs and the weights' grads agree; each window row's grad may
        # land on another window's copy of the same series row, so the rows'
        # grads agree summed per series row
        _share_always(monkeypatch)
        rng = np.random.default_rng(13)
        w, m = 10, 4
        starts = np.array(starts)
        values = _overlapping_windows(rng, starts, w, m)
        params = init_attention(m, mode=mode, source=fan_in_init(rng), prefix="head")
        target = rng.standard_normal((len(starts), r, m))

        def grads(**sharing):
            x = Tensor(values, requires_grad=True)
            for p in (params.weight, params.score_vec):
                p.zero_grad()
            with Tape():
                out = temporal_attention(x, slice_rows(x, w - r, w), params, **sharing)
                backward(rmse_loss(out, Tensor(target)))
            series = np.zeros((starts[-1] + w, m))
            np.add.at(series, starts[:, None] + np.arange(w), x.grad)
            return [out.values, params.weight.grad, params.score_vec.grad, series]

        for got, ref in zip(grads(starts=starts), grads()):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14 * np.abs(ref).max())

    def test_shares_only_where_it_halves_the_pairs(self):
        # 15 windows of the paper shapes (r = 43) at gap 2 score one 71 x 128
        # block, against 15 x 43 x 100 pairs apart; at gap 16 their four
        # groups' 91 x 148 blocks score more than half of that
        w, nq, nk = 100, 43, 100

        def plan(starts):
            return tcnad.attention._share_plan(np.diff(starts).tobytes(), w, nq, nk, 0.5)

        queries, keys, corners = plan(np.arange(0, 30, 2))
        assert queries.shape == (1, nq + 28) and keys.shape == (1, nk + 28)
        np.testing.assert_array_equal(corners, np.stack([np.zeros(15), np.arange(0, 30, 2),
                                                         np.arange(0, 30, 2)], axis=1))
        assert plan(np.arange(0, 240, 16)) is None
        assert plan(np.arange(1)) is None


def _variable_view(x, params):
    t = Tensor(x)
    return variable_attention(t, t, params).values


class TestWindowViews:
    def test_shapes(self):
        rng = np.random.default_rng(42)
        w, m = 9, 4
        x = Tensor(rng.standard_normal((w, m)))
        t_params = init_attention(m, source=fan_in_init(rng), prefix="head")
        v_params = init_attention(w, source=fan_in_init(rng), prefix="head")
        assert temporal_attention(x, x, t_params).values.shape == (w, m)
        assert variable_attention(x, x, v_params).values.shape == (w, m)

    def test_variable_attention_is_transposed_temporal(self):
        rng = np.random.default_rng(5)
        w, m = 6, 3
        x = Tensor(rng.standard_normal((w, m)))
        params = init_attention(w, source=fan_in_init(rng), prefix="head")
        direct = variable_attention(x, x, params).values
        nodes = transpose(x)
        via_t = transpose(Tensor(temporal_attention(nodes, nodes, params).values)).values
        np.testing.assert_array_equal(direct, via_t)

    def test_column_permutation_equivariance_two_features(self):
        # even two-term reductions can move by an ulp under permutation when
        # the BLAS fuses multiply-adds, so "equal" here means within ~1 ulp
        rng = np.random.default_rng(6)
        w = 8
        x = rng.standard_normal((w, 2))
        params = init_attention(w, source=fan_in_init(rng), prefix="head")
        base = _variable_view(x, params)
        perm = np.array([1, 0])
        permuted = _variable_view(x[:, perm], params)
        np.testing.assert_allclose(permuted, base[:, perm], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_column_permutation_equivariance_many_features(self, seed):
        # larger m reorders the softmax/matmul summations, so allow rounding
        rng = np.random.default_rng(seed)
        w, m = 7, 5
        x = rng.standard_normal((w, m))
        params = init_attention(w, source=fan_in_init(rng), prefix="head")
        base = _variable_view(x, params)
        perm = rng.permutation(m)
        permuted = _variable_view(x[:, perm], params)
        np.testing.assert_allclose(permuted, base[:, perm], rtol=1e-12, atol=1e-12)


class TestGradients:
    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_attend_params_match_fd(self, mode):
        rng = np.random.default_rng(42)
        params = init_attention(3, mode=mode, source=fan_in_init(rng), prefix="head")
        x = rng.standard_normal((5, 3))
        target = rng.standard_normal((5, 3))

        def run():
            t = Tensor(x)
            return rmse_loss(attend(t, t, t, params), Tensor(target))

        with Tape():
            backward(run())
        for p in (params.weight, params.score_vec):
            num = numeric_grad(lambda: float(run().values), p.values, range(p.values.size))
            for idx, val in num.items():
                assert rel_err(p.grad.ravel()[idx], val) < 1e-5


class TestValidation:
    def test_bad_mode(self):
        # shapes that fit neither mode are refused, naming both shapes
        with pytest.raises(ValueError, match=r"weight \(2, 2\) and score_vec \(3,\) fit neither"):
            AttentionParams(Tensor(np.eye(2)), Tensor(np.ones(3)))
        with pytest.raises(ValueError, match="unknown attention mode 'other'"):
            init_attention(2, mode="other", source=fan_in_init(np.random.default_rng(0)),
                           prefix="head")

    def test_dynamic_needs_even_columns(self):
        with pytest.raises(ValueError):
            _dyn(np.zeros((2, 3)), np.ones(2))

    def test_dynamic_score_vec_length(self):
        with pytest.raises(ValueError):
            _dyn(np.zeros((2, 4)), np.ones(3))

    def test_static_score_vec_length(self):
        with pytest.raises(ValueError):
            _sta(np.zeros((2, 3)), np.ones(2))

    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    @pytest.mark.parametrize("d_in, d_out", [(3, 3), (2, 5), (5, 2)])
    def test_init_reports_its_mode(self, mode, d_in, d_out):
        params = init_attention(d_in, d_out, mode=mode,
                                source=fan_in_init(np.random.default_rng(0)), prefix="head")
        assert (params.mode, params.d_in, params.d_out) == (mode, d_in, d_out)

    def test_init_shapes(self):
        rng = np.random.default_rng(0)
        dyn = init_attention(4, source=fan_in_init(rng), prefix="head")
        assert dyn.weight.values.shape == (4, 8)
        assert dyn.score_vec.values.shape == (4,)
        sta = init_attention(4, mode="static", source=fan_in_init(rng), prefix="head")
        assert sta.weight.values.shape == (4, 4)
        assert sta.score_vec.values.shape == (8,)
