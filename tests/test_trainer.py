"""Window construction and the training loop."""

import numpy as np
import pytest

import tcnad
from tcnad.autodiff import Tensor
from tcnad.data import compute_stats, normalize
from tcnad.forecaster import ModelConfig, forward, init_forecaster
from tcnad.trainer import (
    EmptyDatasetError,
    TrainConfig,
    TrainingDivergedError,
    WindowSample,
    build_windows,
    evaluate_loss,
    train,
)

TINY = ModelConfig(window=4, conv_kernel=3, tcn_kernel=2, tcn_channels=4,
                   dilations=(1,), mlp_layers=1, mlp_units=4, dropout=0.0)


class TestBuildWindows:
    def test_counts_and_alignment(self):
        series = np.arange(10.0).reshape(5, 2)
        samples = build_windows(series, 2)
        assert len(samples) == 3
        np.testing.assert_array_equal(samples[0].inputs, series[0:2])
        np.testing.assert_array_equal(samples[0].target, series[2])
        np.testing.assert_array_equal(samples[-1].inputs, series[2:4])
        np.testing.assert_array_equal(samples[-1].target, series[4])

    def test_single_window(self):
        series = np.zeros((101, 3))
        assert len(build_windows(series, 100)) == 1

    def test_too_short_raises(self):
        with pytest.raises(EmptyDatasetError):
            build_windows(np.zeros((100, 3)), 100)

    def test_windows_are_views_not_copies(self):
        series = np.zeros((50, 2))
        samples = build_windows(series, 10)
        assert all(np.shares_memory(s.inputs, series) for s in samples)
        assert all(np.shares_memory(s.target, series) for s in samples)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            build_windows(np.zeros(20), 5)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"epochs": -1}, {"batch_size": 0}, {"learning_rate": 0.0},
        {"val_fraction": 1.0}, {"val_fraction": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


def _toy_samples(n=40, m=2, window=4, seed=0):
    rng = np.random.default_rng(seed)
    series = rng.standard_normal((n, m)) * 0.1
    return build_windows(series, window)


class TestTrainLoop:
    def test_zero_epochs_is_identity(self):
        params = init_forecaster(2, TINY, seed=0)
        before = [t.values.copy() for t in params.tensors()]
        result = train(params, _toy_samples(), TrainConfig(epochs=0))
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
            result = train(params, _toy_samples(), TrainConfig(epochs=3, seed=11, batch_size=16))
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
            result = train(params, _toy_samples(), TrainConfig(epochs=2, seed=seed, batch_size=8))
            losses[seed] = result.loss_history
        assert losses[0] != losses[1]

    def test_nan_aborts_with_location(self):
        params = init_forecaster(2, TINY, seed=0)
        samples = _toy_samples(n=40)
        bad_target = samples[20].target.copy()
        bad_target[0] = np.nan
        samples[20] = WindowSample(inputs=samples[20].inputs, target=bad_target)
        with pytest.raises(TrainingDivergedError) as err:
            train(params, samples, TrainConfig(epochs=2, batch_size=8, shuffle=False))
        # sample 20 sits in batch index 2 of the very first epoch
        assert err.value.epoch == 0
        assert err.value.batch_index == 2

    def test_validation_split_is_chronological_tail(self):
        samples = _toy_samples(n=44, window=4)  # 40 samples
        params = init_forecaster(2, TINY, seed=0)
        result = train(
            params, samples,
            TrainConfig(epochs=2, batch_size=16, val_fraction=0.25),
        )
        assert len(result.val_history) == 2
        assert all(np.isfinite(v) for v in result.val_history)

    def test_val_fraction_must_leave_training_data(self):
        samples = _toy_samples(n=6, window=4)  # 2 samples
        params = init_forecaster(2, TINY, seed=0)
        with pytest.raises(EmptyDatasetError):
            train(params, samples, TrainConfig(epochs=1, val_fraction=0.9))

    def test_progress_callback_sees_every_epoch(self):
        seen = []
        params = init_forecaster(2, TINY, seed=0)
        train(params, _toy_samples(), TrainConfig(epochs=3),
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
        params = init_forecaster(2, TINY, seed=0)
        samples = _toy_samples(n=12)
        manual = np.mean([
            np.sqrt(np.mean((forward(Tensor(s.inputs), params).values - s.target) ** 2))
            for s in samples
        ])
        np.testing.assert_allclose(evaluate_loss(params, samples), manual, rtol=1e-12)

    def test_empty_raises(self):
        params = init_forecaster(2, TINY, seed=0)
        with pytest.raises(ValueError):
            evaluate_loss(params, [])
