"""Acceptance gate: the guarantees this package ships with, one test each.

Every test prints exactly one ``PASS criterion N: ...`` / ``FAIL criterion N``
line directly to the terminal (bypassing capture) so a plain pytest run yields
a human-readable scorecard.
"""

import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    conv_reference,
    gpd_quantile_sample,
    numeric_grad,
    point_adjust_reference,
    rel_err,
)
from tcnad.attention import (
    AttentionParams,
    dynamic_scores,
    init_attention,
    static_scores,
)
from tcnad.autodiff import (
    Tape,
    Tensor,
    backward,
    causal_dilated_conv1d,
    fan_in_init,
    rmse_loss,
    softmax_rows,
)
from tcnad.evaluation import f1_score, point_adjusted_report
from tcnad.forecaster import ModelConfig, forward, init_forecaster
from tcnad.pipeline import evaluate_channel, fit_channel
from tcnad.synthetic import sines_with_level_shifts
from tcnad.tcn import (
    TcnBlockParams,
    receptive_field,
    tcn_forward,
)
from tcnad.thresholds import (
    apply_threshold,
    best_f1_threshold,
    epsilon_threshold,
    fit_gpd,
    pot_displacement,
    pot_threshold,
)
from tcnad.trainer import TrainConfig

REPO = Path(__file__).resolve().parents[1]


class _criterion:
    """Context manager that prints the one-line verdict for a criterion."""

    def __init__(self, capfd, number, summary):
        self.capfd = capfd
        self.number = number
        self.summary = summary
        self.detail = ""

    def note(self, detail):
        self.detail = detail

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        line = f"{status} criterion {self.number}: {self.summary}"
        if self.detail:
            line += f" ({self.detail})"
        with self.capfd.disabled():
            print(line, flush=True)
        return False


def test_criterion_1_end_to_end_gradients(capfd):
    summary = "full-model analytic gradients match central differences within 1e-4"
    with _criterion(capfd, 1, summary) as c:
        start = time.time()
        cfg = ModelConfig(
            window=8, conv_kernel=3, tcn_kernel=2, tcn_channels=6,
            dilations=(1, 2), mlp_layers=1, mlp_units=6, dropout=0.0,
        )
        worst = 0.0
        for draw in range(50):
            params = init_forecaster(3, cfg, seed=200 + draw)
            rng = np.random.default_rng(draw)
            x = rng.standard_normal((8, 3))
            target = rng.standard_normal(3)
            x_t = Tensor(x, requires_grad=True)

            with Tape() as tape:
                loss = rmse_loss(forward(x_t, params), Tensor(target))
                backward(loss)

            def loss_value():
                return float(rmse_loss(forward(Tensor(x), params), Tensor(target)).values)

            tensors = [t for _, t in params.named_parameters()]
            for _ in range(15):
                t = tensors[int(rng.integers(len(tensors)))]
                idx = int(rng.integers(t.values.size))
                numeric = numeric_grad(loss_value, t.values, [idx], eps=1e-5)[idx]
                analytic = t.grad.ravel()[idx]
                worst = max(worst, rel_err(analytic, numeric))
            # two input coordinates per draw as well
            x_grad = x_t.grad.copy()
            for _ in range(2):
                idx = int(rng.integers(x.size))

                def input_loss():
                    return float(
                        rmse_loss(forward(Tensor(x), params), Tensor(target)).values
                    )

                numeric = numeric_grad(input_loss, x, [idx], eps=1e-5)[idx]
                worst = max(worst, rel_err(x_grad.ravel()[idx], numeric))

        elapsed = time.time() - start
        assert worst < 1e-4
        assert elapsed < 60.0
        c.note(f"worst relative error {worst:.2e} over 50 draws in {elapsed:.1f}s")


def test_criterion_2_convolution_oracle(capfd):
    summary = "causal dilated convolution matches the nested-loop reference on 200 configs"
    with _criterion(capfd, 2, summary) as c:
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            w = int(rng.integers(1, 30))
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            x = rng.standard_normal((w, c_in))
            filters = rng.standard_normal((k, c_in, c_out))
            ours = causal_dilated_conv1d(Tensor(x), Tensor(filters), d).values
            ref = conv_reference(x, filters, d)
            assert ours.shape == ref.shape
            worst = max(worst, float(np.max(np.abs(ours - ref), initial=0.0)))
        assert worst <= 1e-12
        c.note(f"largest deviation {worst:.2e}")


def _positive_stack(kernel, dilations):
    """Single-channel stack whose taps are all positive, so any in-field bump
    strictly raises the probed output and any out-of-field bump cannot."""
    blocks = []
    for d in dilations:
        taps = np.full((kernel, 1, 1), 0.35)
        blocks.append(
            TcnBlockParams(
                conv1_filters=Tensor(taps.copy()),
                conv1_bias=Tensor(np.array([0.01])),
                conv2_filters=Tensor(taps.copy()),
                conv2_bias=Tensor(np.array([0.01])),
                downsample=None,
                dilation=d,
            )
        )
    return blocks


def test_criterion_3_receptive_field(capfd):
    summary = "receptive_field() confirmed by perturbation probing, exact"
    with _criterion(capfd, 3, summary) as c:
        checked = []
        for kernel in (2, 4):
            for dilations in ((1,), (1, 2), (1, 2, 4)):
                stack = _positive_stack(kernel, dilations)
                rf = receptive_field(stack)
                n = rf + 5
                base = np.full((n, 1), 0.5)
                out0 = tcn_forward(Tensor(base), stack).values[-1, 0]
                for dist in range(n):
                    bumped = base.copy()
                    bumped[n - 1 - dist, 0] += 0.25
                    out = tcn_forward(Tensor(bumped), stack).values[-1, 0]
                    if dist < rf:
                        assert out > out0, (kernel, dilations, dist)
                    else:
                        assert out == out0, (kernel, dilations, dist)
                checked.append(f"K={kernel} d={dilations} rf={rf}")
        c.note("; ".join(checked))


def test_criterion_4_attention_properties(capfd):
    summary = "row-stochastic weights; static scoring collapses to one ranking; dynamic witness does not"
    with _criterion(capfd, 4, summary) as c:
        rng = np.random.default_rng(3)
        # (a) attention rows sum to one
        for mode, scores in (("dynamic", dynamic_scores), ("static", static_scores)):
            for _ in range(10):
                params = init_attention(4, 5, mode=mode, source=fan_in_init(rng), prefix="head")
                x = Tensor(rng.standard_normal((6, 4)))
                weights = softmax_rows(scores(x, x, params)).values
                np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)

        # (b) static scores rank every neighbour identically for all queries
        for draw in range(100):
            d_rng = np.random.default_rng(1000 + draw)
            params = init_attention(3, 4, mode="static", source=fan_in_init(d_rng), prefix="head")
            x = Tensor(d_rng.standard_normal((6, 3)))
            e = static_scores(x, x, params).values
            rankings = np.argsort(e, axis=1)
            for row in rankings[1:]:
                np.testing.assert_array_equal(row, rankings[0])

        # (c) a constructed dynamic case where each query prefers a different
        # neighbour, which the static form above can never produce
        witness = AttentionParams(
            Tensor([[1.0, 1.0], [-1.0, -1.0]]), Tensor([1.0, 1.0])
        )
        nodes = Tensor([[1.0], [-1.0]])
        e = dynamic_scores(nodes, nodes, witness).values
        np.testing.assert_allclose(e, [[1.6, 0.0], [0.0, 1.6]])
        assert np.argmax(e[0]) != np.argmax(e[1])
        c.note("100 static draws collapsed; witness argmax differs per query")


def test_criterion_5_threshold_selectors(capfd):
    summary = "grid search dominates the other selectors; tail fit recovers parameters; displacement value matches"
    with _criterion(capfd, 5, summary) as c:
        # (a) the grid maximizes point-adjusted F1, so it must dominate the
        # thresholds chosen by the epsilon and tail-fit methods
        rng = np.random.default_rng(11)
        for case in range(100):
            n = 500
            scores = rng.lognormal(0.0, 0.5, n)
            labels = np.zeros(n, dtype=np.int64)
            for _ in range(int(rng.integers(1, 4))):
                start = int(rng.integers(0, n - 30))
                length = int(rng.integers(5, 30))
                labels[start : start + length] = 1
                if rng.random() < 0.7:
                    scores[start : start + length] *= rng.uniform(1.5, 4.0)

            def pa_f1(threshold):
                preds = apply_threshold(scores, threshold)
                return point_adjusted_report(preds, labels).f1

            grid = best_f1_threshold(scores, labels)
            grid_f1 = pa_f1(grid.threshold)
            assert grid_f1 == pytest.approx(grid.diagnostics["f1"], rel=1e-12)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                eps_th = epsilon_threshold(scores).threshold
            pot_th = pot_threshold(
                scores, q=0.01, init_quantile=0.9, min_exceedances=20
            ).threshold
            assert grid_f1 >= pa_f1(eps_th), case
            assert grid_f1 >= pa_f1(pot_th), case

        # (b) tail-fit parameter recovery on known heavy-tailed excesses
        g_rng = np.random.default_rng(0)
        excesses = gpd_quantile_sample(g_rng, 0.2, 1.0, 5000)
        gamma_hat, beta_hat, _ = fit_gpd(excesses)
        assert 0.15 <= gamma_hat <= 0.25
        assert 0.95 <= beta_hat <= 1.05

        # (c) closed-form displacement example
        disp = pot_displacement(0.1, 0.05, 1e-3, 10_000, 200)
        assert abs(disp - 0.17468) < 1e-4
        c.note(
            f"gamma {gamma_hat:.4f}, beta {beta_hat:.4f}, displacement {disp:.5f}"
        )


def test_criterion_6_point_adjust_oracle(capfd):
    summary = "point adjustment matches brute force on 500 cases; F1 formula reproduces reference pairs"
    with _criterion(capfd, 6, summary) as c:
        rng = np.random.default_rng(23)
        for case in range(500):
            n = int(rng.integers(3, 120))
            labels = (rng.random(n) < rng.uniform(0.05, 0.6)).astype(np.int64)
            pred = (rng.random(n) < rng.uniform(0.05, 0.6)).astype(np.int64)
            rep = point_adjusted_report(pred, labels)
            adj = point_adjust_reference(pred, labels)
            tp = int(np.sum((adj == 1) & (labels == 1)))
            fp = int(np.sum((adj == 1) & (labels == 0)))
            fn = int(np.sum((adj == 0) & (labels == 1)))
            assert (rep.tp, rep.fp, rep.fn) == (tp, fp, fn), case

        assert f1_score(0.9539, 0.9019) == pytest.approx(0.9272, abs=5e-4)
        assert f1_score(0.9419, 0.9815) == pytest.approx(0.9613, abs=5e-4)
        c.note("500 exact count matches; both F1 pairs within 5e-4")


def test_criterion_7_synthetic_end_to_end(capfd):
    summary = "full pipeline on 5k/2k synthetic data reaches point-adjusted F1 >= 0.9"
    with _criterion(capfd, 7, summary) as c:
        start = time.time()
        ds = sines_with_level_shifts()  # 5000 train / 2000 test, 3 features
        model_cfg = ModelConfig(
            window=20, conv_kernel=7, tcn_kernel=4, tcn_channels=16,
            dilations=(1, 2), mlp_layers=1, mlp_units=16, dropout=0.1,
        )
        train_cfg = TrainConfig(epochs=5, batch_size=128, learning_rate=3e-3, seed=0)

        stats, params, _ = fit_channel(ds.train, model_cfg, train_cfg)
        _, _, report = evaluate_channel(params, stats, ds.test, ds.segments)

        elapsed = time.time() - start
        assert report.f1 >= 0.9
        assert elapsed < 300.0
        c.note(f"F1 {report.f1:.4f} in {elapsed:.0f}s")


def test_criterion_8_full_scale_reproduction_is_documented(capfd):
    summary = "full-scale spacecraft reproduction ships as a documented script, not a CI gate"
    with _criterion(capfd, 8, summary) as c:
        script = REPO / "scripts" / "reproduce_nasa.py"
        assert script.exists(), "scripts/reproduce_nasa.py missing"
        text = script.read_text()
        # the script states the reference results and the +-0.05 success band
        assert "0.9272" in text and "0.9613" in text
        assert "0.05" in text
        readme = (REPO / "README.md").read_text()
        assert "reproduce_nasa" in readme
        c.note("script present and referenced from the README")


def test_criterion_9_ablations(capfd):
    summary = "ablated variants run end to end; full model F1 holds up for a majority of seeds"
    with _criterion(capfd, 9, summary) as c:
        ds = sines_with_level_shifts(
            n_train=1200, n_test=800, n_features=3, n_anomalies=3,
            shift=1.5, min_length=25, max_length=50, margin=60, seed=5,
        )
        base = ModelConfig(
            window=16, conv_kernel=7, tcn_kernel=4, tcn_channels=8,
            dilations=(1, 2), mlp_layers=1, mlp_units=8, dropout=0.1,
        )
        variants = {
            "full": base,
            "no_temporal": replace(base, temporal_attention=False),
            "no_variable": replace(base, variable_attention=False),
            "static": replace(base, attention_mode="static"),
        }
        seeds = (0, 1, 2)
        f1s = {}
        for seed in seeds:
            for name, cfg in variants.items():
                tc = TrainConfig(epochs=3, batch_size=128, learning_rate=3e-3, seed=seed)
                stats, params, _ = fit_channel(ds.train, cfg, tc)
                f1s[(seed, name)] = evaluate_channel(params, stats, ds.test, ds.segments)[2].f1

        verdicts = []
        for ablation in ("no_temporal", "no_variable", "static"):
            wins = sum(
                f1s[(s, "full")] >= f1s[(s, ablation)] - 0.02 for s in seeds
            )
            verdicts.append(f"{ablation} {wins}/{len(seeds)}")
            assert wins >= 2, ablation
        c.note("; ".join(verdicts))
