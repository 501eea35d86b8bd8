"""Window construction, the training loop, the chunked batched tape, and the
threaded inference loop."""

import contextlib
import io
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import record_arrays
import tcnad.attention
from tcnad import trainer
from tcnad.data import compute_stats, normalize
from tcnad.autodiff import Tape, Tensor, active_tape, backward, rmse_loss, row_rmse
from tcnad.forecaster import ModelConfig, forward, init_forecaster
from tcnad.thresholds import anomaly_scores
from tcnad.trainer import (
    EmptyDatasetError,
    TrainConfig,
    TrainingDivergedError,
    accumulate_gradients,
    build_windows,
    train,
    window_scores,
)

TINY = ModelConfig(window=4, conv_kernel=3, tcn_kernel=2, tcn_channels=4,
                   dilations=(1,), mlp_layers=1, mlp_units=4, dropout=0.0)


class TestBuildWindows:
    def test_counts_and_alignment(self):
        series = np.arange(10.0).reshape(5, 2)
        windows = build_windows(series, 2)
        assert windows.shape == (3, 3, 2)
        for i in range(3):
            np.testing.assert_array_equal(windows[i], series[i : i + 3])
        np.testing.assert_array_equal(windows[-1, :-1], series[2:4])
        np.testing.assert_array_equal(windows[-1, -1], series[4])

    def test_single_window(self):
        series = np.zeros((101, 3))
        assert len(build_windows(series, 100)) == 1

    def test_too_short_raises(self):
        with pytest.raises(EmptyDatasetError):
            build_windows(np.zeros((100, 3)), 100)

    def test_windows_are_views_not_copies(self):
        series = np.zeros((50, 2))
        windows = build_windows(series, 10)
        assert np.shares_memory(windows, series)
        assert not windows.flags.writeable

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            build_windows(np.zeros(20), 5)

    @pytest.mark.parametrize("window, message", [
        (2.5, "must be an integer"), ("3", "must be an integer"), (True, "must be an integer"),
        (0, "must be >= 1, got 0"),
    ])
    def test_rejects_a_window_that_is_no_count(self, window, message):
        # before, 2.5 and "3" raised bare TypeErrors and True made windows of 1
        with pytest.raises(ValueError, match=f"^window {message}"):
            build_windows(np.zeros((20, 2)), window)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"epochs": -1}, {"batch_size": 0}, {"learning_rate": 0.0},
        {"val_fraction": 1.0}, {"val_fraction": -0.1},
        {"learning_rate": float("nan")}, {"learning_rate": float("inf")}, {"seed": -1},
        # a bool compares as 1 or 0 but is no rate or fraction
        {"learning_rate": True}, {"val_fraction": False}, {"val_fraction": True},
        # before, a failed comparison raised a TypeError naming no field
        {"learning_rate": "0.1"}, {"val_fraction": None}, {"learning_rate": 1 + 0j},
        # before, any value was taken and "no" shuffled
        {"shuffle": "no"}, {"shuffle": None}, {"shuffle": 1},
    ])
    def test_validation(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.0), ("epochs", 2.5), ("epochs", True),
        ("batch_size", 16.0), ("batch_size", True), ("batch_size", "16"),
        # before, train died in np.random.SeedSequence on 1.5 and True, and "3"
        # failed a comparison; none of the errors named the field
        ("seed", 1.5), ("seed", True), ("seed", "3"),
    ])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            TrainConfig(**{field: value})

    def test_numpy_integers_become_ints(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(16), seed=np.uint8(5))
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (3, 16, 5)
        assert all(type(v) is int for v in (cfg.epochs, cfg.batch_size, cfg.seed))


def _toy_series(n=40, m=2, seed=0):
    return np.random.default_rng(seed).standard_normal((n, m)) * 0.1


def _toy_windows(n=40, m=2, window=4, seed=0):
    return build_windows(_toy_series(n, m, seed), window)


class TestTrainLoop:
    def test_zero_epochs_is_identity(self):
        params = init_forecaster(2, TINY, seed=0)
        before = [t.values.copy() for t in params.tensors()]
        result = train(params, _toy_windows(), TrainConfig(epochs=0))
        assert result.loss_history == []
        for prev, t in zip(before, params.tensors()):
            np.testing.assert_array_equal(prev, t.values)

    def test_empty_sample_list_raises(self):
        params = init_forecaster(2, TINY, seed=0)
        with pytest.raises(EmptyDatasetError):
            train(params, [], TrainConfig(epochs=1))

    def test_same_seed_is_bit_identical(self):
        def run():
            params = init_forecaster(2, TINY, seed=3)
            result = train(params, _toy_windows(), TrainConfig(epochs=3, seed=11, batch_size=16))
            return result.loss_history, [t.values.copy() for t in params.tensors()]

        h1, p1 = run()
        h2, p2 = run()
        assert h1 == h2
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)

    def test_shuffle_seed_changes_trajectory(self):
        losses = {}
        for seed in (0, 1):
            params = init_forecaster(2, TINY, seed=3)
            result = train(params, _toy_windows(), TrainConfig(epochs=2, seed=seed, batch_size=8))
            losses[seed] = result.loss_history
        assert losses[0] != losses[1]

    def test_nan_aborts_with_location(self):
        params = init_forecaster(2, TINY, seed=0)
        series = _toy_series(n=40)
        series[24, 0] = np.nan    # window 20's target; no earlier window reads row 24
        with pytest.raises(TrainingDivergedError) as err:
            train(params, build_windows(series, 4),
                  TrainConfig(epochs=2, batch_size=8, shuffle=False))
        # window 20 sits in batch index 2 of the very first epoch
        assert err.value.epoch == 0
        assert err.value.batch_index == 2
        # the NaN target makes every gradient NaN; the first in parameter order is named
        assert err.value.parameter == "preconv.filters"
        assert "first non-finite gradient: preconv.filters" in str(err.value)

    def test_divergence_with_finite_gradients_says_so(self):
        params = init_forecaster(2, TINY, seed=0)
        with mock.patch.object(trainer, "accumulate_gradients", return_value=np.inf), \
                pytest.raises(TrainingDivergedError) as err:
            train(params, _toy_windows(), TrainConfig(epochs=1, batch_size=8))
        assert err.value.parameter is None
        assert "no non-finite gradient" in str(err.value)

    def test_validation_split_is_chronological_tail(self):
        series = _toy_series(n=44)  # 40 windows, the last 10 held out
        params = init_forecaster(2, TINY, seed=0)
        result = train(
            params, build_windows(series, 4),
            TrainConfig(epochs=2, batch_size=16, val_fraction=0.25),
        )
        assert len(result.val_history) == 2
        assert all(np.isfinite(v) for v in result.val_history)
        tail = anomaly_scores(params, series[30:]).scores
        assert tail.size == 10
        np.testing.assert_allclose(result.val_history[-1], tail.mean(), rtol=1e-12)

    def test_val_fraction_must_leave_training_data(self):
        samples = _toy_windows(n=6, window=4)  # 2 samples
        params = init_forecaster(2, TINY, seed=0)
        with pytest.raises(EmptyDatasetError):
            train(params, samples, TrainConfig(epochs=1, val_fraction=0.9))

    def test_progress_callback_sees_every_epoch(self):
        seen = []
        params = init_forecaster(2, TINY, seed=0)
        train(params, _toy_windows(), TrainConfig(epochs=3),
              progress=lambda e, loss: seen.append((e, loss)))
        assert [e for e, _ in seen] == [0, 1, 2]

    def test_learns_smooth_signal(self):
        # two slow sines, min-max normalized; the forecaster should reach a
        # training RMSE well under the 0.05 bar within a few dozen epochs
        cfg = ModelConfig(window=6, conv_kernel=3, tcn_kernel=2, tcn_channels=6,
                          dilations=(1, 2), mlp_layers=1, mlp_units=6, dropout=0.0)
        t = np.arange(260)
        series = np.column_stack(
            [np.sin(2 * np.pi * t / 40), np.sin(2 * np.pi * t / 60 + 1.0)]
        )
        norm = normalize(series, compute_stats(series))
        samples = build_windows(norm, 6)
        params = init_forecaster(2, cfg, seed=0)
        result = train(
            params, samples,
            TrainConfig(epochs=28, batch_size=64, learning_rate=1e-2, seed=0),
        )
        assert result.loss_history[-1] < 0.05
        assert result.loss_history[-1] < result.loss_history[0] / 4


class TestEvaluateLoss:
    def test_matches_manual_mean(self):
        # the validation loss train reports is the mean of window_scores
        params = init_forecaster(2, TINY, seed=0)
        windows = _toy_windows(n=16)
        manual = np.mean([
            np.sqrt(np.mean((forward(Tensor(w[:-1]), params).values - w[-1]) ** 2))
            for w in windows
        ])
        np.testing.assert_allclose(window_scores(params, windows).mean(), manual,
                                   rtol=1e-12)


# ---------------------------------------------------------------------------
# chunked batched tape vs the per-window reference
# ---------------------------------------------------------------------------

def _variants(cfg):
    return {
        "dynamic": cfg,
        "static": replace(cfg, attention_mode="static"),
        "no_temporal": replace(cfg, temporal_attention=False),
        "no_variable": replace(cfg, variable_attention=False),
    }


VARIANTS = _variants(TINY)


NAMED_CONFIGS = {
    "demo": (3, ModelConfig(window=20, conv_kernel=7, tcn_kernel=4, tcn_channels=16,
                            dilations=(1, 2), mlp_layers=1, mlp_units=16)),
    "small": (3, ModelConfig(window=16, conv_kernel=7, tcn_kernel=4, tcn_channels=8,
                             dilations=(1, 2), mlp_layers=1, mlp_units=8)),
    "paper": (25, ModelConfig()),
}


def _held_bytes(tape, params, floats=False):
    """Bytes of the distinct buffers under the arrays a tape's records reach,
    parameters excluded; with ``floats``, only the floating-point ones."""
    seen, total = {id(t.values) for t in params.tensors()}, 0
    for root in record_arrays(tape._records):
        while isinstance(root.base, np.ndarray):
            root = root.base
        if id(root) not in seen:
            seen.add(id(root))
            total += root.nbytes if not floats or root.dtype.kind == "f" else 0
    return total


def _chunk_bytes(params, chunk):
    """The ``_CHUNK_BYTES`` value that makes ``_chunk_sizes(params)[0] == chunk``."""
    return chunk * trainer._window_tape_bytes(params)[0]


def _score_chunk_bytes(params, chunk):
    """The ``_CHUNK_BYTES`` value that makes ``_chunk_sizes(params)[1] == chunk``."""
    return chunk * trainer._window_tape_bytes(params)[1]


def _per_window_reference(params, windows):
    """Mean loss and mean gradients of one 2-D forward per window.

    Also returns, per tensor, the largest per-window gradient entry: the mean
    can cancel to ~0, so agreement is judged relative to what was summed.
    """
    tensors = params.tensors()
    sums = [np.zeros_like(t.values) for t in tensors]
    scales = [0.0] * len(tensors)
    losses = []
    for win in windows:
        for t in tensors:
            t.zero_grad()
        with Tape():
            loss = rmse_loss(forward(Tensor(win[:-1]), params), Tensor(win[-1]))
            backward(loss)
        losses.append(float(loss.values))
        for i, (acc, t) in enumerate(zip(sums, tensors)):
            if t.grad is not None:
                acc += t.grad
                scales[i] = max(scales[i], float(np.abs(t.grad).max()))
    return np.mean(losses), [acc / len(windows) for acc in sums], scales


def _chunked(params, windows, chunk):
    for t in params.tensors():
        t.zero_grad()
    total = accumulate_gradients(params, windows, np.arange(len(windows)), None, chunk)
    grads = [np.zeros_like(t.values) if t.grad is None else t.grad for t in params.tensors()]
    return total / len(windows), grads


def _assert_close(actual, expected, scale):
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


class TestChunkedTape:
    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_gradients_equal_per_window_mean(self, variant, chunk):
        # 7 windows: chunk 3 leaves a short last chunk, chunk 7 is one tape
        params = init_forecaster(2, VARIANTS[variant], seed=4)
        windows = _toy_windows(n=11)
        assert len(windows) == 7
        ref_loss, ref_grads, scales = _per_window_reference(params, windows)
        loss, grads = _chunked(params, windows, chunk)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
        for (name, _), g, ref, scale in zip(params.named_parameters(), grads, ref_grads, scales):
            assert np.abs(ref).max() > 0, name
            _assert_close(g, ref, scale)

    @pytest.mark.parametrize("chunk", [1, 4, 13])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_window_scores_equal_per_window_forward(self, variant, chunk):
        params = init_forecaster(2, VARIANTS[variant], seed=2)
        windows = _toy_windows(n=17)
        manual = [
            np.sqrt(np.mean((forward(Tensor(w[:-1]), params).values - w[-1]) ** 2))
            for w in windows
        ]
        with mock.patch.object(trainer, "_CHUNK_BYTES", _score_chunk_bytes(params, chunk)):
            assert trainer._chunk_sizes(params)[1] == chunk
            scores = window_scores(params, windows)
        np.testing.assert_allclose(scores, manual, rtol=1e-12)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_paper_chunks_equal_per_window(self, variant):
        # paper shapes, so pair_scores runs in blocks of query rows; chunk + 1
        # windows make one chunk of the default size and a short one
        params = init_forecaster(25, _variants(ModelConfig(dropout=0.0))[variant], seed=3)
        chunk = trainer._chunk_sizes(params)[0]
        assert chunk >= 4
        windows = _toy_windows(n=101 + chunk, m=25, window=100)
        ref_loss, ref_grads, scales = _per_window_reference(params, windows)
        loss, grads = _chunked(params, windows, chunk)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
        for g, ref, scale in zip(grads, ref_grads, scales):
            _assert_close(g, ref, scale)
        manual = [np.sqrt(np.mean((forward(Tensor(w[:-1]), params).values - w[-1]) ** 2))
                  for w in windows]
        np.testing.assert_allclose(window_scores(params, windows), manual, rtol=1e-12)

    def test_chunk_sizes_of_the_named_configs(self):
        sizes = {name: trainer._chunk_sizes(init_forecaster(m, cfg))
                 for name, (m, cfg) in NAMED_CONFIGS.items()}
        # the pair scores' sign masks packed to a bit an element: taped chunks
        # grew from (250, 380, 9) windows; untaped ones keep no mask
        assert sizes == {"demo": (270, 298), "small": (411, 445), "paper": (15, 17)}

    @pytest.mark.parametrize("name, variant", [
        pytest.param(name, variant, id=name if variant == "dynamic" else f"{name}-{variant}")
        for name in sorted(NAMED_CONFIGS) for variant in sorted(VARIANTS)
    ])
    def test_chunk_tape_stays_within_the_budget(self, name, variant):
        # what one training chunk's tape records hold, parameters aside: the
        # estimate must bound it without leaving much of the budget unused,
        # for the full model and for each variant that drops or narrows a branch
        m, cfg = NAMED_CONFIGS[name]
        params = init_forecaster(m, _variants(cfg)[variant])
        size = trainer._chunk_sizes(params)[0]
        chunk = build_windows(_toy_series(n=cfg.window + size, m=m), cfg.window)[np.arange(size)]
        with Tape(np.random.default_rng(0)) as tape:
            pred = forward(Tensor(chunk[:, :-1]), params)
            rmse_loss(pred, Tensor(chunk[:, -1]), size)
            held = _held_bytes(tape, params)
        floor = 0.8 if variant == "dynamic" else 0.75
        assert floor * trainer._CHUNK_BYTES <= held <= trainer._CHUNK_BYTES

    @pytest.mark.parametrize("name, variant", [
        pytest.param(name, variant, id=f"{name}-{variant}")
        for name in sorted(NAMED_CONFIGS) for variant in sorted(VARIANTS)
    ])
    def test_probe_counts_what_a_window_tape_holds(self, name, variant):
        # the tape's own counts for one probe window, all bytes and the float
        # ones, equal what a hand walk of a one-window training tape finds,
        # parameters aside
        m, cfg = NAMED_CONFIGS[name]
        params = init_forecaster(m, _variants(cfg)[variant])
        window = build_windows(_toy_series(n=cfg.window + 1, m=m), cfg.window)[[0]]
        with Tape(np.random.default_rng(1)) as tape:
            pred = forward(Tensor(window[:, :-1]), params)
            rmse_loss(pred, Tensor(window[:, -1]))
            held = _held_bytes(tape, params), _held_bytes(tape, params, floats=True)
            assert trainer._window_tape_bytes(params) == held

    def test_probe_changes_no_grad_and_no_training_run(self):
        # the probe runs no backward and draws its dropout masks from an rng
        # of its own: a run probing its chunk sizes equals one told the sizes
        cfg = replace(TINY, dropout=0.1)
        params = init_forecaster(2, cfg, seed=1)
        grads = [np.full(t.values.shape, 0.5) for t in params.tensors()]
        for t, g in zip(params.tensors(), grads):
            t.grad = g
        sizes = trainer._chunk_sizes(params)
        assert all(t.grad is g and (g == 0.5).all() for t, g in zip(params.tensors(), grads))

        def run(chunk_sizes):
            run_params = init_forecaster(2, cfg, seed=1)
            with mock.patch.object(trainer, "_chunk_sizes", chunk_sizes):
                result = train(run_params, _toy_windows(), TrainConfig(epochs=2, batch_size=8, seed=5))
            return result.loss_history, [t.values for t in run_params.tensors()]

        probed, told = run(trainer._chunk_sizes), run(lambda params: sizes)
        assert probed[0] == told[0]
        for a, b in zip(probed[1], told[1]):
            np.testing.assert_array_equal(a, b)

    def test_train_probes_once_for_both_loops(self, monkeypatch):
        # the shapes never change during a run: one probe sizes the training
        # chunks and every epoch's validation scoring
        calls, real = [], trainer._window_tape_bytes
        monkeypatch.setattr(trainer, "_window_tape_bytes",
                            lambda params: calls.append(params) or real(params))
        result = train(init_forecaster(2, TINY, seed=1), _toy_windows(),
                       TrainConfig(epochs=3, batch_size=8, val_fraction=0.25))
        assert len(result.val_history) == 3
        assert len(calls) == 1

    def test_same_seed_with_dropout_is_identical(self):
        cfg = replace(TINY, dropout=0.1)

        def run():
            params = init_forecaster(2, cfg, seed=1)
            with mock.patch.object(trainer, "_CHUNK_BYTES", _chunk_bytes(params, 3)):
                result = train(params, _toy_windows(), TrainConfig(epochs=3, batch_size=8, seed=5))
            return result.loss_history, [t.values for t in params.tensors()]

        first, second = run(), run()
        assert first[0] == second[0]
        for a, b in zip(first[1], second[1]):
            np.testing.assert_array_equal(a, b)


# derandomized, so every run checks the same examples and Tier-1 stays stable
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    window=st.integers(1, 6),
    m=st.integers(1, 3),
    conv_kernel=st.integers(1, 3),
    tcn_kernel=st.integers(1, 3),
    tcn_channels=st.integers(1, 4),
    dilations=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    mlp_layers=st.integers(0, 2),
    mode=st.sampled_from(["dynamic", "static"]),
    temporal=st.booleans(),
    variable=st.booleans(),
    n_windows=st.integers(1, 6),
    chunk=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_chunked_tape_matches_per_window_property(
    window, m, conv_kernel, tcn_kernel, tcn_channels, dilations, mlp_layers, mode,
    temporal, variable, n_windows, chunk, seed,
):
    cfg = ModelConfig(
        window=window, conv_kernel=conv_kernel, tcn_kernel=tcn_kernel,
        tcn_channels=tcn_channels, dilations=tuple(dilations), mlp_layers=mlp_layers,
        mlp_units=3, dropout=0.0, attention_mode=mode,
        temporal_attention=temporal, variable_attention=variable,
    )
    params = init_forecaster(m, cfg, seed=seed)
    windows = build_windows(_toy_series(n=window + n_windows, m=m, seed=seed), window)
    ref_loss, ref_grads, scales = _per_window_reference(params, windows)
    loss, grads = _chunked(params, windows, chunk)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
    for g, ref, scale in zip(grads, ref_grads, scales):
        _assert_close(g, ref, scale)
    with mock.patch.object(trainer, "_CHUNK_BYTES", _score_chunk_bytes(params, chunk)):
        scores = window_scores(params, windows)
    manual = [np.sqrt(np.mean((forward(Tensor(w[:-1]), params).values - w[-1]) ** 2))
              for w in windows]
    np.testing.assert_allclose(scores, manual, rtol=1e-12)


# ---------------------------------------------------------------------------
# shared temporal-attention scores in window_scores vs per-window forward
# ---------------------------------------------------------------------------

def _per_window_scores(params, windows):
    return np.array([np.sqrt(np.mean((forward(Tensor(w[:-1]), params).values - w[-1]) ** 2))
                     for w in windows])


def _assert_scores_match(scores, ref):
    # the shared block reassociates nothing, but its matmuls may round like
    # other rows of a larger product: agreement to 1e-14 relative
    assert scores.shape == ref.shape
    assert np.abs(scores - ref).max() <= 1e-14 * np.abs(ref).max()


class TestSharedScores:
    @pytest.mark.parametrize("name", ["demo", "paper"])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_named_configs_equal_per_window_forward(self, name, variant):
        # one full chunk of the default size and a 1-window partial last chunk
        m, cfg = NAMED_CONFIGS[name]
        params = init_forecaster(m, _variants(replace(cfg, dropout=0.0))[variant], seed=3)
        size = trainer._chunk_sizes(params)[1]
        windows = build_windows(_toy_series(n=cfg.window + size + 1, m=m), cfg.window)
        assert len(windows) == size + 1
        _assert_scores_match(window_scores(params, windows),
                             _per_window_scores(params, windows))

    @pytest.mark.parametrize("chunk", [1, 2, 5, 16])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_forced_chunk_sizes(self, variant, chunk):
        # demo shapes (r > w - conv_kernel + 1, so some queries are edge rows);
        # 23 windows leave a partial last chunk for every size but 1
        m, cfg = NAMED_CONFIGS["demo"]
        params = init_forecaster(m, _variants(cfg)[variant], seed=5)
        windows = build_windows(_toy_series(n=cfg.window + 23, m=m, seed=1), cfg.window)
        with mock.patch.object(trainer, "_CHUNK_BYTES", _score_chunk_bytes(params, chunk)):
            assert trainer._chunk_sizes(params)[1] == chunk
            scores = window_scores(params, windows)
        _assert_scores_match(scores, _per_window_scores(params, windows))

    @pytest.mark.parametrize("window, conv_kernel", [(3, 5), (5, 5), (6, 5), (9, 1)])
    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_windows_near_the_conv_kernel(self, window, conv_kernel, mode):
        # window < conv_kernel shares nothing; window == conv_kernel shares one
        # row a window; conv_kernel 1 leaves no edge rows at all
        cfg = replace(TINY, window=window, conv_kernel=conv_kernel, attention_mode=mode)
        params = init_forecaster(2, cfg, seed=7)
        windows = _toy_windows(n=window + 30, window=window)
        with mock.patch.object(trainer, "_CHUNK_BYTES", _score_chunk_bytes(params, 12)):
            scores = window_scores(params, windows)
        _assert_scores_match(scores, _per_window_scores(params, windows))

    def test_window_scores_share_every_chunk(self, monkeypatch):
        # scoring tells forward its windows are consecutive: a demo chunk of
        # 40 windows scores its shared pairs in 4 groups, and per window as well
        calls = self._spy_shared(monkeypatch)
        params, windows = self._demo_windows(40)
        scores = window_scores(params, windows)
        assert calls == [windows[:, :-1].shape]
        _assert_scores_match(scores, _per_window_scores(params, windows))

    @staticmethod
    def _spy_shared(monkeypatch):
        import tcnad.attention

        calls, real = [], tcnad.attention._shared_scores
        monkeypatch.setattr(tcnad.attention, "_shared_scores",
                            lambda *args: calls.append(args[0].values.shape) or real(*args))
        return calls

    @staticmethod
    def _demo_windows(n):
        m, cfg = NAMED_CONFIGS["demo"]
        params = init_forecaster(m, cfg, seed=0)
        return params, build_windows(_toy_series(n=cfg.window + n, m=m), cfg.window)

    def test_forward_shares_nothing_without_starts(self, monkeypatch):
        # consecutive windows, but nothing says so: every window on its own
        calls = self._spy_shared(monkeypatch)
        params, windows = self._demo_windows(12)
        pred = forward(Tensor(windows[:, :-1]), params).values
        ref = np.stack([forward(Tensor(w[:-1]), params).values for w in windows])
        assert calls == []
        assert np.abs(pred - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_forward_shares_consecutive_starts_once(self, monkeypatch):
        calls = self._spy_shared(monkeypatch)
        params, windows = self._demo_windows(12)
        forward(Tensor(windows[:, :-1]), params, np.arange(12))
        assert calls == [windows[:, :-1].shape]

    # gaps of 1, of several rows, and of at least w - edge (94 at paper, 14 at
    # demo), where windows share no row past the edge
    @pytest.mark.parametrize("gaps", ["gap1", "gaps", "apart"])
    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    @pytest.mark.parametrize("name", ["demo", "paper", "paper55"])
    def test_taped_sharing_equals_per_window(self, name, mode, gaps, monkeypatch):
        # at dropout 0, a chunk's parameter grads with its windows' starts,
        # shared whatever it saves, equal those of its windows apart
        monkeypatch.setattr(tcnad.attention, "_SHARE_AT", np.inf)
        m, cfg = {**NAMED_CONFIGS, "paper55": (55, ModelConfig())}[name]
        params = init_forecaster(m, replace(cfg, dropout=0.0, attention_mode=mode), seed=2)
        step = {"gap1": [1], "gaps": [2, 1, 5, 3, 7], "apart": [cfg.window, 2 * cfg.window]}[gaps]
        starts = np.cumsum([0] + step * (6 // len(step)))
        windows = build_windows(_toy_series(n=starts[-1] + cfg.window + 1, m=m), cfg.window)
        chunk = windows[starts]

        def grads(starts):
            for t in params.tensors():
                t.zero_grad()
            with Tape():
                pred = forward(Tensor(chunk[:, :-1]), params, starts)
                loss = rmse_loss(pred, Tensor(chunk[:, -1]), len(chunk))
                backward(loss)
            return float(loss.values), [t.grad for t in params.tensors()]

        (shared_loss, shared), (loss, apart) = grads(starts), grads(None)
        np.testing.assert_allclose(shared_loss, loss, rtol=1e-12)
        for (name, _), got, ref in zip(params.named_parameters(), shared, apart):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name

    @staticmethod
    def _temporal_pair_calls(monkeypatch):
        # the (lead, n, p) of each pair_scores call temporal attention makes
        import tcnad.attention
        import tcnad.forecaster

        calls, inside = [], []
        real_pairs, real_temporal = tcnad.attention.pair_scores, tcnad.forecaster.temporal_attention

        def pairs(left, right, v):
            if inside:
                calls.append(left.values.shape[:-1] + right.values.shape[-2:-1])
            return real_pairs(left, right, v)

        def temporal(*args, **kwargs):
            inside.append(True)
            try:
                return real_temporal(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(tcnad.attention, "pair_scores", pairs)
        monkeypatch.setattr(tcnad.forecaster, "temporal_attention", temporal)
        return calls

    @staticmethod
    def _sorted_chunk(name, windows, batch, seed=0):
        """The first taped chunk of a sorted random minibatch of ``batch`` of
        ``windows`` build_windows rows at the named config."""
        m, cfg = NAMED_CONFIGS[name]
        params = init_forecaster(m, replace(cfg, dropout=0.0), seed=1)
        size = trainer._chunk_sizes(params)[0]
        index = np.sort(np.random.default_rng(seed).permutation(windows)[:batch])[:size]
        series = _toy_series(n=windows + cfg.window, m=m, seed=seed)
        return params, build_windows(series, cfg.window)[index], index

    def test_sorted_paper_chunk_scores_a_third_of_the_pairs(self, monkeypatch):
        # paper's 256 of 512 windows: 15 windows a chunk at a mean gap of 2
        calls = self._temporal_pair_calls(monkeypatch)
        params, chunk, index = self._sorted_chunk("paper", 512, 256)
        counts = []
        for starts in (index, None):
            calls.clear()
            with Tape():
                forward(Tensor(chunk[:, :-1]), params, starts)
            counts.append(sum(int(np.prod(shape)) for shape in calls))
        assert counts[1] == len(index) * 43 * 100
        assert counts[0] <= counts[1] / 3

    def test_demo_density_chunk_scores_as_apart(self, monkeypatch):
        # the demo workload draws 128 of 4,980 windows (a mean gap of 39 rows,
        # window 20): sharing would save little, so the pair_scores calls are
        # those of the windows apart
        calls = self._temporal_pair_calls(monkeypatch)
        params, chunk, index = self._sorted_chunk("demo", 4980, 128)
        assert len(index) == 128
        runs = []
        for starts in (index, None):
            calls.clear()
            with Tape():
                forward(Tensor(chunk[:, :-1]), params, starts)
            runs.append(list(calls))
        assert runs[0] == runs[1] == [(128, 19, 20)]

    def test_a_repeated_window_trains_per_window(self, monkeypatch):
        # the public accumulate_gradients takes any index: a chunk that holds
        # a window twice scores per window, as unsorted chunks did, sharing or not
        monkeypatch.setattr(tcnad.attention, "_SHARE_AT", np.inf)
        calls = self._spy_shared(monkeypatch)
        params, windows = self._demo_windows(30)
        params = init_forecaster(params.n_features, replace(params.config, dropout=0.0))
        index = np.array([9, 3, 5, 3, 20, 4])
        ref_loss, ref_grads, scales = _per_window_reference(params, windows[index])
        for t in params.tensors():
            t.zero_grad()
        total = accumulate_gradients(params, windows, index, None, len(index))
        assert calls == []
        np.testing.assert_allclose(total / len(index), ref_loss, rtol=1e-12)
        for t, ref, scale in zip(params.tensors(), ref_grads, scales):
            _assert_close(t.grad, ref, scale)

    def test_train_equals_training_apart(self, monkeypatch):
        # at dropout 0 sharing changes no result beyond float reassociation:
        # minibatches of 64 of 300 demo windows, every chunk shared or none
        m, cfg = NAMED_CONFIGS["demo"]
        windows = build_windows(_toy_series(n=cfg.window + 300, m=m), cfg.window)
        runs = []
        for share_at in (np.inf, 0.0):
            monkeypatch.setattr(tcnad.attention, "_SHARE_AT", share_at)
            params = init_forecaster(m, replace(cfg, dropout=0.0), seed=3)
            result = train(params, windows, TrainConfig(epochs=2, batch_size=64, seed=4))
            runs.append((result.loss_history, [t.values for t in params.tensors()]))
        np.testing.assert_allclose(runs[0][0], runs[1][0], rtol=1e-12)
        for got, ref in zip(runs[0][1], runs[1][1]):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("starts, message", [
        ([0, 1, 1, 2], r"increase strictly: windows 1 and 2 start at series rows 1 and 1"),
        ([0, 2, 1, 3], r"increase strictly: windows 1 and 2 start at series rows 2 and 1"),
        ([0, 1, 2], r"one integer a window of a \(B, w, m\) batch"),
        ([0.0, 1.0, 2.0, 3.0], r"one integer a window"),
        ([0, 1, 3, 4], r"windows 1 and 2 disagree on a series row both hold"),
    ], ids=["repeat", "decrease", "length", "floats", "disagree"])
    def test_forward_refuses_bad_starts(self, starts, message):
        # windows 0-3 of one series: a start that skips a row claims window 2
        # holds another window's rows
        params, windows = self._demo_windows(4)
        with pytest.raises(ValueError, match=message):
            forward(Tensor(windows[:, :-1]), params, np.array(starts))

    def test_forward_refuses_starts_for_shuffled_windows(self):
        params, windows = self._demo_windows(6)
        with pytest.raises(ValueError, match="windows 0 and 1 disagree"):
            forward(Tensor(windows[[0, 2, 1, 3, 4, 5], :-1]), params, np.arange(6))
        with pytest.raises(ValueError, match=r"\(B, w, m\) batch"):
            forward(Tensor(windows[0, :-1]), params, np.arange(1))

    @pytest.mark.parametrize("name, variant", [
        pytest.param(name, variant, id=f"{name}-{variant}")
        for name in sorted(NAMED_CONFIGS) + ["paper55", "tiny"] for variant in sorted(VARIANTS)
    ])
    def test_inference_chunk_stays_within_the_budget(self, name, variant):
        # the traced peak of one untaped chunk, windows aside, stays within
        # what the chunk's windows would keep as floats on a tape, and that
        # within the one chunk budget; at MSL's 55 features (paper55) the
        # pair blocks are runs of query rows, and largest
        m, cfg = {**NAMED_CONFIGS, "paper55": (55, ModelConfig()), "tiny": (2, TINY)}[name]
        params = init_forecaster(m, _variants(cfg)[variant])
        size = trainer._chunk_sizes(params)[1]
        x = Tensor(build_windows(_toy_series(n=cfg.window + size, m=m), cfg.window)[:, :-1])
        forward(x, params, np.arange(size))
        tracemalloc.start()
        try:
            forward(x, params, np.arange(size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= size * trainer._window_tape_bytes(params)[1] <= trainer._CHUNK_BYTES


# window 5 < receptive field 7 (tcn_kernel 2, dilations (1, 2)): nothing is pruned
SHORT = ModelConfig(window=5, conv_kernel=3, tcn_kernel=2, tcn_channels=4,
                    dilations=(1, 2), mlp_layers=1, mlp_units=4)
THREAD_CONFIGS = {**NAMED_CONFIGS, "short": (3, SHORT)}


class _FakeBlas:
    """A stand-in for the loaded OpenBLAS's (get, set) thread-count functions."""

    def __init__(self, threads=4):
        self.threads = threads
        self.sets = []

    def get(self):
        return self.threads

    def set(self, threads):
        self.sets.append(threads)
        self.threads = threads


def _use_cpus(monkeypatch, workers):
    """Let the loops run ``workers`` workers: patch the usable CPUs and, where
    no OpenBLAS is loaded, stand a fake in for it, since then both loops run one."""
    monkeypatch.setattr(trainer, "_usable_cpus", lambda: workers)
    if trainer._blas() is None:
        fake = _FakeBlas()
        monkeypatch.setattr(trainer, "_blas", lambda: (fake.get, fake.set))


class TestThreadedScores:
    """``_scores`` runs its chunks on min(chunks, usable CPUs) threads; the CPU
    count is patched, so these tests start at most three helper threads."""

    @staticmethod
    def _windows(name, chunks, size=4):
        # chunks x size - 1 windows: the last chunk is one window short
        m, cfg = THREAD_CONFIGS[name]
        params = init_forecaster(m, cfg, seed=6)
        windows = build_windows(_toy_series(n=cfg.window + chunks * size - 1, m=m), cfg.window)
        return params, windows, size

    @staticmethod
    def _spy_threads(monkeypatch):
        # the threads that ran an untaped forward (the chunk-size probe is
        # taped), and the length of each chunk they ran
        seen, real = {}, trainer.forward

        def spy(x, params, starts=None):
            if active_tape() is None:
                seen.setdefault(threading.get_ident(), []).append(len(x.values))
            return real(x, params, starts)

        monkeypatch.setattr(trainer, "forward", spy)
        return seen

    @pytest.mark.parametrize("chunks", [1, 2, 5])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", ["demo", "paper", "short"])
    def test_equals_a_serial_chunk_loop(self, name, workers, chunks, monkeypatch):
        params, windows, size = self._windows(name, chunks)
        preds = np.concatenate([forward(Tensor(windows[start : start + size, :-1]), params,
                                        np.arange(start, min(start + size, len(windows)))).values
                                for start in range(0, len(windows), size)])
        serial = row_rmse(preds - windows[:, -1])[:, 0]
        _use_cpus(monkeypatch, workers)
        seen = self._spy_threads(monkeypatch)
        before = threading.active_count()
        with mock.patch.object(trainer, "_CHUNK_BYTES", _score_chunk_bytes(params, size)):
            scores = window_scores(params, windows)
        assert np.array_equal(scores, serial)
        assert threading.active_count() == before
        assert len(seen) <= min(workers, chunks)
        assert sorted(n for runs in seen.values() for n in runs) == [size - 1] + [size] * (chunks - 1)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_every_worker_runs_a_chunk(self, workers, monkeypatch):
        # each thread's first chunk waits until every worker holds one, which
        # only as many threads, the calling one among them, can bring about
        params, windows, size = self._windows("demo", 5)
        barrier, first, real = threading.Barrier(workers, timeout=30), set(), trainer.forward

        def wait_for_all(x, params, starts=None):
            if active_tape() is None and threading.get_ident() not in first:
                first.add(threading.get_ident())
                barrier.wait()
            return real(x, params, starts)

        _use_cpus(monkeypatch, workers)
        monkeypatch.setattr(trainer, "forward", wait_for_all)
        with mock.patch.object(trainer, "_CHUNK_BYTES", _score_chunk_bytes(params, size)):
            window_scores(params, windows)
        assert len(first) == workers and threading.get_ident() in first

    def test_each_chunk_runs_once_under_frequent_switches(self, monkeypatch):
        # more workers than most runners have cores, one-window chunks and a
        # switch interval of 1 us: a chunk handed out twice or never shows
        params = init_forecaster(2, TINY, seed=0)
        windows = _toy_windows(n=TINY.window + 60)
        serial = _per_window_scores(params, windows)
        _use_cpus(monkeypatch, 4)
        seen = self._spy_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(trainer, "_CHUNK_BYTES", _score_chunk_bytes(params, 1)):
                for _ in range(5):
                    seen.clear()
                    scores = window_scores(params, windows)
                    assert sum(len(runs) for runs in seen.values()) == len(windows)
                    _assert_scores_match(scores, serial)
        finally:
            sys.setswitchinterval(interval)

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        params, windows, size = self._windows("demo", 1, size=298)
        assert trainer._chunk_sizes(params)[1] == size
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 3)

        def refuse(thread):
            raise AssertionError(f"{thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert window_scores(params, windows).shape == (size - 1,)

    @pytest.mark.parametrize("failing", range(5))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failing_chunk_reaches_the_caller(self, workers, failing, monkeypatch):
        # row i of the series holds i, so a chunk's first value names its start
        params = init_forecaster(2, TINY, seed=0)
        windows = build_windows(np.repeat(np.arange(TINY.window + 19.0)[:, None], 2, axis=1),
                                TINY.window)
        real = trainer.forward

        def forward_failing_on(x, params, starts=None):
            if active_tape() is None and x.values[0, 0, 0] == 4 * failing:
                raise FloatingPointError(f"chunk {failing}")
            return real(x, params, starts)

        _use_cpus(monkeypatch, workers)
        monkeypatch.setattr(trainer, "forward", forward_failing_on)
        before = threading.active_count()
        with mock.patch.object(trainer, "_CHUNK_BYTES", _score_chunk_bytes(params, 4)), \
                pytest.raises(FloatingPointError, match=f"chunk {failing}"):
            window_scores(params, windows)
        assert threading.active_count() == before

    def test_usable_cpus_follow_the_affinity_set(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert trainer._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert trainer._usable_cpus() == 1

    def test_refuses_an_open_tape(self):
        # before, scoring under a tape applied dropout and recorded every op
        params = init_forecaster(3, NAMED_CONFIGS["demo"][1], seed=0)
        windows = build_windows(_toy_series(n=200, m=3), 20)
        with Tape(np.random.default_rng(0)) as tape, \
                pytest.raises(RuntimeError, match="not taped"):
            window_scores(params, windows)
        assert tape.saved_bytes == 0

    def test_a_tape_in_another_thread_is_not_seen(self):
        # dropout 0.1: had the other thread's tape reached this one, scoring
        # would raise, or before the refusal, drop units and score otherwise
        m, cfg = NAMED_CONFIGS["demo"]
        params = init_forecaster(m, replace(cfg, dropout=0.1), seed=0)
        windows = build_windows(_toy_series(n=200, m=m), cfg.window)
        untaped = window_scores(params, windows)
        opened, done = threading.Event(), threading.Event()

        def hold_a_tape():
            with Tape(np.random.default_rng(0)):
                opened.set()
                done.wait(timeout=60)

        other = threading.Thread(target=hold_a_tape)
        other.start()
        try:
            assert opened.wait(timeout=60)
            assert active_tape() is None
            scores = window_scores(params, windows)
        finally:
            done.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert np.array_equal(scores, untaped)


def _train_run(workers, monkeypatch, dropout=0.0, chunk=3, epochs=2, seed=5, val_fraction=0.0):
    """Loss history and parameters of a TINY run with ``chunk``-window chunks
    (3 chunks a minibatch of 8) on ``workers`` usable CPUs."""
    _use_cpus(monkeypatch, workers)
    params = init_forecaster(2, replace(TINY, dropout=dropout), seed=1)
    with mock.patch.object(trainer, "_CHUNK_BYTES", _chunk_bytes(params, chunk)):
        result = train(params, _toy_windows(), TrainConfig(epochs=epochs, batch_size=8, seed=seed,
                                                          val_fraction=val_fraction))
    return result, [t.values.copy() for t in params.tensors()]


class TestThreadedTraining:
    """``train`` runs a minibatch's chunks on min(chunks, usable CPUs) workers,
    chunk c on worker c mod W; the CPU count is patched, so these tests start
    at most two helper threads."""

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_seed_and_workers_is_bit_identical(self, workers, dropout, monkeypatch):
        before = threading.active_count()
        (first, p1), (second, p2) = (_train_run(workers, monkeypatch, dropout) for _ in range(2))
        assert threading.active_count() == before      # no helper outlives train
        assert first.loss_history == second.loss_history
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_counts_agree_to_reassociation(self, workers, dropout, monkeypatch):
        # each chunk draws its dropout masks from its own stream, so every
        # worker count drops the same units; the gradients are summed in
        # another order, which two epochs of Adam keep within 1.6e-12 relative
        (serial, ps), (threaded, pt) = (_train_run(w, monkeypatch, dropout, val_fraction=0.25)
                                        for w in (1, workers))
        np.testing.assert_allclose(threaded.loss_history, serial.loss_history, rtol=1.6e-12)
        np.testing.assert_allclose(threaded.val_history, serial.val_history, rtol=1.6e-12)
        for a, b in zip(pt, ps):
            assert np.abs(a - b).max() <= 1.6e-12 * np.abs(b).max()

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_chunk_losses_do_not_depend_on_workers(self, dropout):
        # one minibatch through accumulate_gradients: the same chunks, masks
        # and losses on one and on three workers, so the total is bit-identical
        params = init_forecaster(2, replace(TINY, dropout=dropout), seed=1)
        views = tuple(trainer._build(2, params.config, 1, lambda *_, w=iter(params.tensors()):
                                     Tensor(next(w).values, requires_grad=True))
                      for _ in range(2))
        windows, index = _toy_windows(), np.arange(8)
        runs = []
        for helpers in ((), views):
            for t in params.tensors():
                t.zero_grad()
            total = accumulate_gradients(params, windows, index, np.random.SeedSequence(3), 3, helpers)
            runs.append((total, [t.grad.copy() for t in params.tensors()]))
            assert all(t.grad is None for view in helpers for t in view.tensors())
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[1][1], runs[0][1]):
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()

    def test_every_worker_runs_its_chunks(self, monkeypatch):
        # chunk c of each minibatch runs on worker c mod 3, the calling thread
        # being worker 0 and helper k a thread named for it; window i holds
        # i + 1, so a chunk's first value names it (the chunk-size probe's
        # window is zeros)
        params = init_forecaster(2, TINY, seed=0)
        windows = build_windows(np.repeat(np.arange(1, TINY.window + 33.0)[:, None], 2, axis=1),
                                TINY.window)
        seen, real = {}, trainer.forward

        def spy(x, params, starts=None):
            if active_tape() is not None and x.values.any():
                seen[int(x.values[0, 0, 0]) - 1] = (threading.current_thread(), len(x.values))
            return real(x, params, starts)

        _use_cpus(monkeypatch, 3)
        monkeypatch.setattr(trainer, "forward", spy)
        with mock.patch.object(trainer, "_CHUNK_BYTES", _chunk_bytes(params, 3)):
            train(params, windows, TrainConfig(epochs=1, batch_size=8, shuffle=False))
        assert sorted(seen) == [b + c for b in range(0, 32, 8) for c in (0, 3, 6)]
        for b in range(0, 32, 8):
            (main, n0), (one, n1), (two, n2) = (seen[b + c] for c in (0, 3, 6))
            assert (n0, n1, n2) == (3, 3, 2)
            assert main is threading.current_thread()
            assert (one.name, two.name) == ("tcnad-worker-1", "tcnad-worker-2")

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        # TINY's chunks hold far more than a minibatch of 8, validation too
        def refuse(thread):
            raise AssertionError(f"{thread.name} started")

        _use_cpus(monkeypatch, 3)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        result = train(init_forecaster(2, TINY, seed=1), _toy_windows(),
                       TrainConfig(epochs=2, batch_size=8, val_fraction=0.25))
        assert len(result.loss_history) == len(result.val_history) == 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_non_finite_helper_chunk_names_the_first_parameter(self, workers, monkeypatch):
        # 8 windows in chunks of 4: the NaN target of the last window is in
        # chunk 1, a helper's on two or three workers; the summed gradients
        # are checked, so the first parameter in builder order is named
        _use_cpus(monkeypatch, workers)
        series = _toy_series(n=12)
        series[-1, 0] = np.nan
        params = init_forecaster(2, TINY, seed=0)
        with mock.patch.object(trainer, "_CHUNK_BYTES", _chunk_bytes(params, 4)), \
                pytest.raises(TrainingDivergedError) as err:
            train(params, build_windows(series, 4), TrainConfig(epochs=1, batch_size=8, shuffle=False))
        assert (err.value.epoch, err.value.batch_index) == (0, 0)
        assert err.value.parameter == "preconv.filters"

    @pytest.mark.parametrize("failing", range(3))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failing_chunk_reaches_the_caller(self, workers, failing, monkeypatch):
        # row i of the series holds i + 1 and nothing is shuffled, so a chunk's
        # first value names its start (the chunk-size probe's window is zeros)
        params = init_forecaster(2, TINY, seed=0)
        windows = build_windows(np.repeat(np.arange(1, TINY.window + 9.0)[:, None], 2, axis=1),
                                TINY.window)
        real = trainer.forward

        def forward_failing_on(x, params, starts=None):
            if active_tape() is not None and x.values[0, 0, 0] == 3 * failing + 1:
                raise FloatingPointError(f"chunk {failing}")
            return real(x, params, starts)

        _use_cpus(monkeypatch, workers)
        monkeypatch.setattr(trainer, "forward", forward_failing_on)
        before = threading.active_count()
        with mock.patch.object(trainer, "_CHUNK_BYTES", _chunk_bytes(params, 3)), \
                pytest.raises(FloatingPointError, match=f"chunk {failing}"):
            train(params, windows, TrainConfig(epochs=1, batch_size=8, shuffle=False))
        assert threading.active_count() == before


class TestBlasHold:
    """``_blas_hold`` keeps the loaded OpenBLAS at one thread while any caller
    is inside, and gives back the count it found; a fake handle stands in."""

    @staticmethod
    def _fake(monkeypatch, threads=4):
        fake = _FakeBlas(threads)
        monkeypatch.setattr(trainer, "_blas", lambda: (fake.get, fake.set))
        return fake

    def test_restored_after_a_return(self, monkeypatch):
        fake = self._fake(monkeypatch)
        with trainer._blas_hold():
            assert fake.threads == 1
        assert fake.sets == [1, 4]

    def test_restored_after_a_raise(self, monkeypatch):
        fake = self._fake(monkeypatch)
        with pytest.raises(KeyError), trainer._blas_hold():
            raise KeyError("inside")
        assert fake.sets == [1, 4]

    def test_nested_holds_restore_once(self, monkeypatch):
        fake = self._fake(monkeypatch, threads=3)
        with trainer._blas_hold():
            with trainer._blas_hold():
                assert fake.threads == 1
            assert fake.threads == 1
        assert fake.sets == [1, 3]

    def test_concurrent_holds_restore_the_original(self, monkeypatch):
        # both threads are inside at once; the last one out restores 4, not
        # the 1 the second entrant would have read
        fake = self._fake(monkeypatch)
        inside, leave = threading.Barrier(2, timeout=30), threading.Event()
        seen = []

        def hold(first):
            with trainer._blas_hold():
                inside.wait()
                seen.append(fake.threads)
                if first:
                    leave.wait(timeout=30)
                else:
                    leave.set()

        threads = [threading.Thread(target=hold, args=(k == 0,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert seen == [1, 1] and fake.threads == 4 and fake.sets == [1, 4]

    def test_both_loops_run_inside_the_hold(self, monkeypatch):
        # every forward but the chunk-size probe's, whose window is zeros
        fake, real, seen = self._fake(monkeypatch), trainer.forward, set()

        def spy(x, params, starts=None):
            if x.values.any():
                seen.add(fake.threads)
            return real(x, params, starts)

        monkeypatch.setattr(trainer, "forward", spy)
        train(init_forecaster(2, TINY, seed=1), _toy_windows(),
              TrainConfig(epochs=1, batch_size=8, val_fraction=0.25))
        window_scores(init_forecaster(2, TINY, seed=1), _toy_windows())
        assert seen == {1} and fake.threads == 4 and fake.sets == [1, 4, 1, 4]

    def test_no_blas_found_runs_one_worker_and_calls_nothing(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"{thread.name} started")

        monkeypatch.setattr(trainer, "_blas", lambda: None)
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert trainer._workers(5) == 1
        params = init_forecaster(2, TINY, seed=1)
        with mock.patch.object(trainer, "_CHUNK_BYTES", _chunk_bytes(params, 3)):
            train(params, _toy_windows(), TrainConfig(epochs=1, batch_size=8, val_fraction=0.25))
        with mock.patch.object(trainer, "_CHUNK_BYTES", _score_chunk_bytes(params, 3)):
            assert window_scores(params, _toy_windows()).shape == (36,)

    def test_the_real_hold_sets_one_thread_and_restores(self):
        blas = trainer._blas()
        if blas is None:
            pytest.skip("no OpenBLAS loaded")
        get, _ = blas
        threads = get()
        with trainer._blas_hold():
            assert get() == 1
        assert get() == threads

    def test_an_openblas_numpy_on_linux_is_found(self):
        # numpy 2.x wheels link scipy-openblas, numpy 1.2x wheels an ILP64
        # OpenBLAS: each must resolve, or both loops silently run one worker
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            np.show_config()
        if not sys.platform.startswith("linux") or "openblas" not in out.getvalue().lower():
            pytest.skip("numpy is not linked to OpenBLAS on Linux")
        assert trainer._blas() is not None
