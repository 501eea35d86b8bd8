"""Forecaster wiring: shapes, branch toggles, determinism, checkpoints."""

import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tcnad.attention
import tcnad.forecaster
import tcnad.trainer
from oracles import init_reference, numeric_grad, rel_err
from tcnad.attention import attend
from tcnad.autodiff import (
    Tape,
    Tensor,
    add,
    backward,
    causal_dilated_conv1d,
    concat_cols,
    leaky_relu,
    linear,
    reshape,
    rmse_loss,
    take_row,
    transpose,
)
from tcnad.data import DataFormatError, NormalizationStats
from tcnad.forecaster import (
    ModelConfig,
    forward,
    init_forecaster,
    load_checkpoint,
    save_checkpoint,
)
from tcnad.tcn import receptive_field, tcn_forward
from tcnad.trainer import accumulate_gradients, build_windows, window_scores

TINY = ModelConfig(window=8, conv_kernel=3, tcn_kernel=2, tcn_channels=4,
                   dilations=(1, 2), mlp_layers=2, mlp_units=4, dropout=0.0)

# (section, name, values, message): one array of a 3-feature checkpoint replaced
# by values load_checkpoint refuses, and the refusal it names
BAD_CHECKPOINT_ARRAYS = [
    ("tensors", "preconv.bias", [0.0, np.nan, 0.0],
     "tensor 'preconv.bias' has a non-finite value nan at index 1"),
    ("normalization", "maximum", [1.0, np.inf, 1.0],
     "normalization maximum has a non-finite value inf at index 1"),
    ("normalization", "maximum", [1.0, -0.5, 1.0],
     "normalization maximum -0.5 is below its minimum 0.0 at index 1"),
]


class TestShapes:
    def test_default_config_shapes(self):
        cfg = ModelConfig()
        params = init_forecaster(25, cfg, seed=0)
        assert params.tcn[0].conv1_filters.values.shape == (4, 75, 32)
        assert params.preconv_filters.values.shape == (7, 25, 25)
        assert params.temporal.weight.values.shape == (25, 50)
        assert params.variable.weight.values.shape == (100, 200)
        assert len(params.mlp) == 3  # two hidden layers + output
        x = np.random.default_rng(42).standard_normal((100, 25))
        assert forward(Tensor(x), params).values.shape == (25,)

    def test_branch_toggles_change_concat_width(self):
        m = 3
        for temporal, variable, width in [(True, True, 9), (True, False, 6),
                                          (False, True, 6), (False, False, 3)]:
            cfg = ModelConfig(window=8, tcn_channels=4, mlp_units=4,
                              temporal_attention=temporal, variable_attention=variable)
            params = init_forecaster(m, cfg, seed=0)
            assert (params.temporal is None) == (not temporal)
            assert (params.variable is None) == (not variable)
            assert params.tcn[0].conv1_filters.values.shape[1] == width
            x = np.random.default_rng(0).standard_normal((8, m))
            assert forward(Tensor(x), params).values.shape == (m,)

    def test_static_attention_mode(self):
        cfg = ModelConfig(window=8, tcn_channels=4, mlp_units=4, attention_mode="static")
        params = init_forecaster(3, cfg, seed=0)
        assert params.temporal.mode == "static"
        assert params.temporal.weight.values.shape == (3, 3)
        assert params.temporal.score_vec.values.shape == (6,)
        x = np.random.default_rng(0).standard_normal((8, 3))
        assert forward(Tensor(x), params).values.shape == (3,)

    def test_rejects_wrong_window_shape(self):
        params = init_forecaster(3, TINY, seed=0)
        with pytest.raises(ValueError):
            forward(Tensor(np.zeros((9, 3))), params)
        with pytest.raises(ValueError):
            forward(Tensor(np.zeros((8, 2))), params)

    def test_mlp_zero_hidden_layers(self):
        cfg = ModelConfig(window=8, tcn_channels=4, mlp_layers=0)
        params = init_forecaster(2, cfg, seed=0)
        assert len(params.mlp) == 1
        assert params.mlp[0][0].values.shape == (4, 2)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"window": 0},
        {"conv_kernel": 0},
        {"dilations": ()},
        {"dilations": (1, 0)},
        {"dropout": 1.0},
        {"dropout": -0.1},
        {"attention_mode": "both"},
        {"tcn_channels": 0},
        {"mlp_layers": -1},
        {"dropout": False},   # a bool compares as 0 or 1 but is no rate
        {"dropout": True},
        # before, a TypeError from the comparison named no field
        {"dropout": "0.1"}, {"dropout": None}, {"dropout": 0.1j},
        # before, "false" built the attention view and 0 or None dropped it
        {"temporal_attention": "false"}, {"temporal_attention": 0},
        {"variable_attention": None},
        # before, a bare TypeError: 'int' object is not iterable
        {"dilations": 4}, {"dilations": None},
    ])
    def test_bad_configs_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ValueError, match=field):
            ModelConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("window", 20.7),
        ("window", 20.0),
        ("window", True),
        ("conv_kernel", 3.0),
        ("tcn_kernel", "4"),
        ("tcn_channels", 16.5),
        ("mlp_layers", False),
        ("mlp_units", np.float64(8.0)),
        ("dilations", (1, 2.5)),
        ("dilations", (1, True)),
        ("dilations", (1, np.bool_(True))),
    ])
    def test_non_integer_sizes_rejected(self, field, value):
        # before, dilations (1, 2.5) became (1, 2) and (1, True) became (1, 1)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ModelConfig(**{field: value})

    def test_numpy_integers_become_ints(self, tmp_path):
        cfg = ModelConfig(window=np.int64(8), conv_kernel=np.int32(3), tcn_kernel=np.int64(2),
                          tcn_channels=np.int64(4), dilations=np.array([1, 2]),
                          mlp_layers=np.int64(1), mlp_units=np.uint8(4))
        assert cfg == ModelConfig(window=8, conv_kernel=3, tcn_kernel=2, tcn_channels=4,
                                  dilations=(1, 2), mlp_layers=1, mlp_units=4)
        assert all(type(v) is int for v in (cfg.window, cfg.mlp_units, *cfg.dilations))
        save_checkpoint(tmp_path / "c.json", init_forecaster(2, cfg))
        assert load_checkpoint(tmp_path / "c.json")[0].config == cfg

    def test_numpy_bools_become_bools(self, tmp_path):
        # before, a numpy bool stayed one and the checkpoint's JSON refused it
        cfg = replace(TINY, temporal_attention=np.bool_(False), variable_attention=np.True_)
        assert (cfg.temporal_attention, cfg.variable_attention) == (False, True)
        assert all(type(v) is bool for v in (cfg.temporal_attention, cfg.variable_attention))
        save_checkpoint(tmp_path / "c.json", init_forecaster(2, cfg))
        assert load_checkpoint(tmp_path / "c.json")[0].temporal is None


class TestInit:
    DEMO = ModelConfig(window=20, conv_kernel=7, tcn_kernel=4, tcn_channels=16,
                       dilations=(1, 2), mlp_layers=1, mlp_units=16)
    CONFIGS = {"demo": (3, DEMO), "paper": (25, ModelConfig()),
               "static": (3, replace(DEMO, attention_mode="static"))}

    @pytest.mark.parametrize("temporal, variable",
                             [(True, True), (True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_init_equals_the_reference_draws(self, name, temporal, variable):
        m, cfg = self.CONFIGS[name]
        cfg = replace(cfg, temporal_attention=temporal, variable_attention=variable)
        params = init_forecaster(m, cfg, seed=6)
        got = params.named_parameters()
        ref = init_reference(m, cfg, 6)
        assert [n for n, _ in got] == [n for n, _ in ref]
        for (_, t), (_, a) in zip(got, ref):
            assert t.values.shape == a.shape and t.values.tobytes() == a.tobytes()
            assert t.requires_grad
        # the named tensors are the ones forward reads
        assert got[0][1] is params.preconv_filters and got[-2][1] is params.mlp[-1][0]


class TestDeterminism:
    @pytest.mark.parametrize("seed", [1.5, True, "3", -1])
    def test_init_rejects_a_seed_that_is_no_count(self, seed):
        # before, 1.5 and "3" died inside numpy naming no field, True seeded as 1
        with pytest.raises(ValueError, match="^seed must be"):
            init_forecaster(3, TINY, seed=seed)

    @pytest.mark.parametrize("n_features, message", [
        (2.5, "must be an integer"), ("3", "must be an integer"), (True, "must be an integer"),
        (0, "must be >= 1, got 0"),
    ])
    def test_init_rejects_a_feature_count_that_is_no_count(self, n_features, message):
        # before, 2.5 and "3" raised bare TypeErrors and True built one feature
        with pytest.raises(ValueError, match=f"^n_features {message}"):
            init_forecaster(n_features, TINY)

    def test_numpy_feature_count_becomes_int(self, tmp_path):
        # before, the model trained but save_checkpoint could not write an int64
        params = init_forecaster(np.int64(3), TINY)
        assert type(params.n_features) is int
        save_checkpoint(tmp_path / "c.json", params)
        assert load_checkpoint(tmp_path / "c.json")[0].n_features == 3

    def test_init_is_seeded(self):
        a = init_forecaster(3, TINY, seed=7)
        b = init_forecaster(3, TINY, seed=7)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.values, tb.values)
        c = init_forecaster(3, TINY, seed=8)
        assert any(
            not np.array_equal(ta.values, tc.values)
            for (_, ta), (_, tc) in zip(a.named_parameters(), c.named_parameters())
        )

    def test_inference_is_deterministic(self):
        params = init_forecaster(3, TINY, seed=0)
        x = np.random.default_rng(1).standard_normal((8, 3))
        np.testing.assert_array_equal(
            forward(Tensor(x), params).values, forward(Tensor(x), params).values
        )

    def test_untaped_forward_ignores_dropout(self):
        # only a tape switches dropout on: untaped, a dropout-0.3 model is its
        # dropout-0 twin bit for bit, and no rng exists to draw from
        x = Tensor(np.random.default_rng(1).standard_normal((5, 8, 3)))
        cfg = ModelConfig(window=8, tcn_channels=4, mlp_units=4, dropout=0.3)
        dropped = init_forecaster(3, cfg, seed=0)
        plain = init_forecaster(3, replace(cfg, dropout=0.0), seed=0)
        for a, b in zip(dropped.tensors(), plain.tensors()):
            np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(forward(x, dropped).values, forward(x, plain).values)

    def test_taped_forward_is_fixed_by_the_tape_rng(self):
        cfg = ModelConfig(window=8, tcn_channels=4, mlp_units=4, dropout=0.3)
        params = init_forecaster(3, cfg, seed=0)
        x = Tensor(np.random.default_rng(1).standard_normal((5, 8, 3)))
        runs = []
        for _ in range(2):
            with Tape(np.random.default_rng(7)):
                runs.append(forward(x, params).values)
        np.testing.assert_array_equal(runs[0], runs[1])
        assert not np.array_equal(runs[0], forward(x, params).values)

    def test_training_mode_needs_rng_when_dropout_active(self):
        cfg = ModelConfig(window=8, tcn_channels=4, mlp_units=4, dropout=0.2)
        params = init_forecaster(3, cfg, seed=0)
        x = Tensor(np.zeros((8, 3)))
        # a tape without an rng refuses dropout > 0
        with Tape(), pytest.raises(ValueError, match=r"Tape\(rng\)"):
            forward(x, params)


class TestGradientFlow:
    def test_every_parameter_gets_a_gradient(self):
        params = init_forecaster(3, TINY, seed=0)
        rng = np.random.default_rng(2)
        with Tape():
            loss = rmse_loss(
                forward(Tensor(rng.standard_normal((8, 3))), params),
                Tensor(rng.standard_normal(3)),
            )
            backward(loss)
        for name, t in params.named_parameters():
            assert t.grad is not None, name
            assert np.any(t.grad != 0), name

    def test_spot_check_against_fd(self):
        params = init_forecaster(2, TINY, seed=3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal(2)

        def run():
            return rmse_loss(forward(Tensor(x), params), Tensor(y))

        with Tape():
            backward(run())
        for name, t in params.named_parameters():
            coords = rng.choice(t.values.size, size=min(2, t.values.size), replace=False)
            num = numeric_grad(lambda: float(run().values), t.values, coords, eps=1e-5)
            for idx, val in num.items():
                assert rel_err(t.grad.ravel()[idx], val) < 1e-4, name

    def test_single_adam_step_reduces_loss(self):
        from tcnad.optim import AdamState, adam_step

        decreases = 0
        for seed in range(20):
            params = init_forecaster(2, TINY, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            x, y = rng.standard_normal((8, 2)), rng.standard_normal(2)

            with Tape():
                loss = rmse_loss(forward(Tensor(x), params), Tensor(y))
                backward(loss)
            before = float(loss.values)
            adam_step(params.tensors(), AdamState(learning_rate=1e-4))
            after = float(rmse_loss(forward(Tensor(x), params), Tensor(y)).values)
            decreases += after < before
        assert decreases >= 15


def _unpruned_forward(x, params, starts=None):
    """Reference forward in which every layer computes all w rows (dropout 0 only)
    and every window is scored on its own."""
    assert params.config.dropout == 0.0
    w = params.config.window
    h = add(causal_dilated_conv1d(x, params.preconv_filters, 1), params.preconv_bias)
    parts = [h]
    if params.temporal is not None:
        parts.append(attend(h, h, h, params.temporal))
    if params.variable is not None:
        nodes = transpose(h)
        parts.append(transpose(attend(nodes, nodes, nodes, params.variable)))
    z = concat_cols(parts) if len(parts) > 1 else h
    out = take_row(tcn_forward(z, params.tcn), w - 1)
    for i, (weight, bias) in enumerate(params.mlp):
        out = linear(out, weight, bias)
        if i < len(params.mlp) - 1:
            out = leaky_relu(out)
    return reshape(out, x.values.shape[:-2] + (params.n_features,))


VARIANTS = {
    "dynamic": {},
    "static": {"attention_mode": "static"},
    "no_temporal": {"temporal_attention": False},
    "no_variable": {"variable_attention": False},
}


class TestReceptiveFieldPruning:
    """``forward`` computes only the last r = receptive_field rows past the
    preconv; the full-window forward above is its reference."""

    # tcn_kernel 2, dilations (1, 2): r = 7, so windows 12, 7 and 5 give
    # r < w, r == w and r > w (the last two prune nothing)
    @pytest.mark.parametrize("window", [12, 7, 5])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_unpruned_forward(self, variant, window, monkeypatch):
        cfg = ModelConfig(window=window, conv_kernel=3, tcn_kernel=2, tcn_channels=4,
                          dilations=(1, 2), mlp_layers=2, mlp_units=4, dropout=0.0,
                          **VARIANTS[variant])
        params = init_forecaster(3, cfg, seed=2)
        assert receptive_field(params.tcn) == 7
        windows = build_windows(np.random.default_rng(3).standard_normal((100, 3)), window)
        index = np.random.default_rng(4).permutation(len(windows))
        size = tcnad.trainer._chunk_sizes(params)[0]

        def run():
            for t in params.tensors():
                t.zero_grad()
            scores = window_scores(params, windows)
            total = accumulate_gradients(params, windows, index, None, size)
            return scores, total, [t.grad for t in params.tensors()]

        pruned = run()
        monkeypatch.setattr(tcnad.trainer, "forward", _unpruned_forward)
        full = run()
        for new, ref in zip([pruned[0], pruned[1]] + pruned[2], [full[0], full[1]] + full[2]):
            ref = np.asarray(ref)
            assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_temporal_scores_have_r_query_rows(self, monkeypatch):
        params = init_forecaster(3, TINY, seed=0)
        r = receptive_field(params.tcn)
        assert r < TINY.window
        w, seen, real_attend = TINY.window, {}, tcnad.attention.attend

        def spy(queries, keys, values, attention_params):
            out = real_attend(queries, keys, values, attention_params)
            branch = "temporal" if attention_params is params.temporal else "variable"
            seen[branch] = [t.values.shape for t in (queries, keys, values, out)]
            return out

        monkeypatch.setattr(tcnad.attention, "attend", spy)
        # random windows do not overlap, so temporal attention is not shared
        forward(Tensor(np.random.default_rng(0).standard_normal((5, w, 3))), params)
        assert seen["temporal"] == [(5, r, 3), (5, w, 3), (5, w, 3), (5, r, 3)]
        # variables are scored over full columns but aggregate only r time steps
        assert seen["variable"] == [(5, 3, w), (5, 3, w), (5, 3, r), (5, 3, r)]

    def test_both_views_get_the_tail_that_leads_the_concat(self, monkeypatch):
        params = init_forecaster(3, TINY, seed=0)
        r = receptive_field(params.tcn)
        rows, parts = {}, []

        def spy(view):
            real = getattr(tcnad.forecaster, view)

            def wrapped(x, tail, attention_params, **sharing):
                rows[view] = tail
                return real(x, tail, attention_params, **sharing)

            return wrapped

        def concat_spy(tensors):
            parts.extend(tensors)
            return concat_cols(tensors)

        for view in ("temporal_attention", "variable_attention"):
            monkeypatch.setattr(tcnad.forecaster, view, spy(view))
        monkeypatch.setattr(tcnad.forecaster, "concat_cols", concat_spy)
        x = np.random.default_rng(1).standard_normal((2, TINY.window, 3))
        forward(Tensor(x), params)
        assert rows["temporal_attention"] is rows["variable_attention"] is parts[0]
        assert parts[0].values.shape == (2, r, 3)
        assert len(parts) == 3


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = init_forecaster(3, TINY, seed=5)
        stats = NormalizationStats(
            minimum=np.array([0.0, -1.5, 2.0]), maximum=np.array([1.0, 3.5, 2.0])
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, stats)
        loaded, loaded_stats = load_checkpoint(path)
        for (na, ta), (nb, tb) in zip(params.named_parameters(), loaded.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.values, tb.values)
        np.testing.assert_array_equal(loaded_stats.minimum, stats.minimum)
        np.testing.assert_array_equal(loaded_stats.maximum, stats.maximum)
        assert loaded.config == params.config
        x = np.random.default_rng(0).standard_normal((8, 3))
        np.testing.assert_array_equal(
            forward(Tensor(x), params).values, forward(Tensor(x), loaded).values
        )

    def test_roundtrip_without_stats(self, tmp_path):
        params = init_forecaster(2, TINY, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        _, stats = load_checkpoint(path)
        assert stats is None

    def test_ablated_model_roundtrip(self, tmp_path):
        cfg = ModelConfig(window=8, tcn_channels=4, mlp_units=4,
                          temporal_attention=False)
        params = init_forecaster(3, cfg, seed=1)
        path = tmp_path / "abl.ckpt"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        assert loaded.temporal is None
        assert loaded.config.temporal_attention is False
        x = np.random.default_rng(0).standard_normal((8, 3))
        np.testing.assert_array_equal(
            forward(Tensor(x), params).values, forward(Tensor(x), loaded).values
        )

    def test_save_is_byte_deterministic(self, tmp_path):
        params = init_forecaster(2, TINY, seed=9)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params)
        save_checkpoint(b, params)
        assert a.read_bytes() == b.read_bytes()

    def test_interrupted_save_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        import json

        path = tmp_path / "m.ckpt"
        old = init_forecaster(2, TINY, seed=1)
        save_checkpoint(path, old)

        def dump_then_fail(doc, fh, **kwargs):
            fh.write(json.dumps(doc, **kwargs)[:100])
            raise OSError("disk full")

        monkeypatch.setattr(tcnad.forecaster.json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, init_forecaster(2, TINY, seed=2))
        loaded, _ = load_checkpoint(path)
        for (_, a), (_, b) in zip(old.named_parameters(), loaded.named_parameters()):
            assert a.values.tobytes() == b.values.tobytes()
        assert list(tmp_path.iterdir()) == [path]

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataFormatError):
            load_checkpoint(path)
        path.write_text("not json at all {")
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_rejects_missing_and_extra_tensors(self, tmp_path):
        import json

        params = init_forecaster(2, TINY, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        doc = json.loads(path.read_text())

        broken = dict(doc)
        broken["tensors"] = dict(doc["tensors"])
        broken["tensors"].pop("preconv.bias")
        path.write_text(json.dumps(broken))
        with pytest.raises(DataFormatError, match="missing tensor"):
            load_checkpoint(path)

        broken = dict(doc)
        broken["tensors"] = dict(doc["tensors"])
        broken["tensors"]["stray"] = doc["tensors"]["preconv.bias"]
        path.write_text(json.dumps(broken))
        with pytest.raises(DataFormatError, match="unexpected tensors"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("seed", 3.9), ("seed", True), ("seed", "3"), ("n_features", 2.7), ("n_features", "2"),
    ])
    def test_rejects_a_count_that_is_no_integer(self, tmp_path, field, value):
        # before, int() truncated each to an integer and the model loaded
        import json

        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_forecaster(2, TINY, seed=3))
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(doc | {field: value}))
        with pytest.raises(DataFormatError, match=f"malformed checkpoint \\({field} must be"):
            load_checkpoint(path)

    def test_rejects_shape_mismatch(self, tmp_path):
        import json

        params = init_forecaster(2, TINY, seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params)
        doc = json.loads(path.read_text())
        doc["tensors"]["preconv.bias"]["shape"] = [1]
        # keep the payload length consistent with the claimed shape
        import base64

        doc["tensors"]["preconv.bias"]["data"] = base64.b64encode(
            np.zeros(1).tobytes()
        ).decode()
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="shape"):
            load_checkpoint(path)


    @pytest.mark.parametrize("size", [2, 1, 4])
    def test_rejects_normalization_shape_mismatch(self, tmp_path, size):
        # one minimum per feature; any other count scores with the wrong ranges
        path = tmp_path / "m.ckpt"
        params = init_forecaster(3, TINY, seed=0)
        save_checkpoint(path, params, NormalizationStats(np.zeros(size), np.ones(size)))
        with pytest.raises(DataFormatError, match=re.escape(
                f"m.ckpt: per_feature normalization has shape ({size},), expected (3,)")):
            load_checkpoint(path)
        save_checkpoint(path, params, NormalizationStats(np.zeros(3), np.ones(3)))
        assert load_checkpoint(path)[1].minimum.shape == (3,)

    # values neither training nor compute_stats produces; each used to load, and
    # scoring then wrote NaN scores or normalized a feature to 0 everywhere
    @pytest.mark.parametrize("section, name, values, message", BAD_CHECKPOINT_ARRAYS)
    def test_rejects_values_training_cannot_produce(self, tmp_path, section, name, values,
                                                    message):
        import json

        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_forecaster(3, TINY, seed=0),
                        NormalizationStats(np.zeros(3), np.ones(3)))
        doc = json.loads(path.read_text())
        doc[section][name] = tcnad.forecaster._encode_array(np.array(values))
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=re.escape(f"m.ckpt: malformed checkpoint "
                                                            f"({message})")):
            load_checkpoint(path)

    def test_config_dilations_is_a_json_array_that_loads_as_a_tuple(self, tmp_path):
        import json

        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_forecaster(2, TINY, seed=0))
        assert '"dilations":[1,2]' in path.read_text()
        assert json.loads(path.read_text())["config"]["dilations"] == [1, 2]
        assert load_checkpoint(path)[0].config.dilations == (1, 2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 3),
    window=st.integers(1, 6),
    conv_kernel=st.integers(1, 3),
    tcn_kernel=st.integers(1, 3),
    tcn_channels=st.integers(1, 4),
    dilations=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    mlp_layers=st.integers(0, 2),
    mode=st.sampled_from(["dynamic", "static"]),
    branches=st.sampled_from([(True, True), (True, False), (False, True), (False, False)]),
    seed=st.integers(0, 2**16),
)
def test_checkpoint_roundtrip_property(m, window, conv_kernel, tcn_kernel, tcn_channels,
                                       dilations, mlp_layers, mode, branches, seed):
    cfg = ModelConfig(window=window, conv_kernel=conv_kernel, tcn_kernel=tcn_kernel,
                      tcn_channels=tcn_channels, dilations=tuple(dilations),
                      mlp_layers=mlp_layers, mlp_units=3, attention_mode=mode,
                      temporal_attention=branches[0], variable_attention=branches[1])
    params = init_forecaster(m, cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for _, t in params.named_parameters():    # move off the init, biases included
        t.values = t.values + rng.standard_normal(t.values.shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
    assert loaded.config == cfg
    saved = params.named_parameters()
    assert [name for name, _ in loaded.named_parameters()] == [name for name, _ in saved]
    for (_, a), (_, b) in zip(saved, loaded.named_parameters()):
        assert a.values.shape == b.values.shape
        assert a.values.tobytes() == b.values.tobytes()
    windows = build_windows(rng.standard_normal((window + 5, m)), window)
    assert (window_scores(params, windows).tobytes()
            == window_scores(loaded, windows).tobytes())
