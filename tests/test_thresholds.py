"""Score computation and the three threshold selectors."""

import importlib.util
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    best_f1_reference,
    counts_reference,
    epsilon_reference,
    gpd_fit_reference,
    gpd_golden_section_fit,
    gpd_nll_reference,
    gpd_profile_reference,
    gpd_quantile_sample,
    point_adjust_reference,
)
from tcnad import thresholds
from tcnad.autodiff import Tensor
from tcnad.data import normalize
from tcnad.evaluation import point_adjusted_counts, point_adjusted_report
from tcnad.forecaster import ModelConfig, forward, init_forecaster
from tcnad.pipeline import fit_channel
from tcnad.synthetic import sines_with_level_shifts
from tcnad.thresholds import (
    DEFAULT_Z_GRID,
    GpdFitError,
    ScoreSequence,
    anomaly_scores,
    apply_threshold,
    best_f1_threshold,
    epsilon_threshold,
    fit_gpd,
    pot_displacement,
    pot_threshold,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
        spec.loader.exec_module(module)
        yield module


SMALL = ModelConfig(window=8, conv_kernel=3, tcn_kernel=2, tcn_channels=4,
                    dilations=(1,), mlp_layers=1, mlp_units=4, dropout=0.0)


class TestScores:
    def test_residual_hand_case(self):
        params = init_forecaster(3, SMALL, seed=1)
        series = np.random.default_rng(1).standard_normal((20, 3))
        manual = [
            np.sqrt(np.mean((forward(Tensor(series[t - 8 : t]), params).values - series[t]) ** 2))
            for t in range(8, 20)
        ]
        np.testing.assert_allclose(anomaly_scores(params, series).scores, manual, rtol=1e-12)

    def test_shape_mismatch(self):
        params = init_forecaster(2, SMALL, seed=0)
        with pytest.raises(ValueError):
            anomaly_scores(params, np.zeros((30, 3)))

    def test_anomaly_scores_alignment(self):
        params = init_forecaster(2, SMALL, seed=0)
        series = np.random.default_rng(0).standard_normal((30, 2))
        seq = anomaly_scores(params, series)
        assert seq.first_timestep == 8
        assert seq.scores.shape == (22,)
        np.testing.assert_array_equal(seq.timesteps, np.arange(8, 30))
        assert (seq.scores >= 0).all()


class TestNonFiniteInput:
    """Every entry point names the first non-finite value instead of using it."""

    def test_anomaly_scores_names_the_series_entry(self):
        params = init_forecaster(2, SMALL, seed=0)
        series = np.random.default_rng(0).standard_normal((40, 2))
        series[12, 1] = np.nan
        with pytest.raises(ValueError, match=r"series .*nan at index \(12, 1\)"):
            anomaly_scores(params, series)

    def test_best_f1_names_the_score(self):
        scores = np.array([0.1, 0.9, np.nan, 0.2])
        with pytest.raises(ValueError, match="scores .*nan at index 2"):
            best_f1_threshold(scores, np.array([0, 1, 0, 0]))

    def test_epsilon_names_the_score(self):
        scores = np.abs(np.random.default_rng(0).standard_normal(50))
        scores[7] = np.inf
        with pytest.raises(ValueError, match="scores .*inf at index 7"):
            epsilon_threshold(scores)

    def test_pot_names_the_score(self):
        scores = np.random.default_rng(0).exponential(1.0, 3000)
        scores[2999] = np.nan
        with pytest.raises(ValueError, match="scores .*nan at index 2999"):
            pot_threshold(scores)


class TestApplyThreshold:
    def test_strictly_greater(self):
        preds = apply_threshold(np.array([0.1, 0.5, 0.50001]), 0.5)
        np.testing.assert_array_equal(preds, [0, 0, 1])

    def test_infinite_threshold_predicts_nothing(self):
        preds = apply_threshold(np.array([1.0, 1e300]), np.inf)
        np.testing.assert_array_equal(preds, [0, 0])

    def test_below_min_predicts_everything(self):
        preds = apply_threshold(np.array([0.2, 0.7]), 0.0)
        np.testing.assert_array_equal(preds, [1, 1])


class TestBestF1:
    def test_four_point_fixture(self):
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        labels = np.array([0, 1, 0, 1])
        res = best_f1_threshold(scores, labels)
        assert 0.2 <= res.threshold < 0.8
        assert res.diagnostics["f1"] == 1.0
        assert res.diagnostics["precision"] == 1.0
        assert res.diagnostics["recall"] == 1.0

    def test_no_anomalies_returns_inf(self):
        res = best_f1_threshold(np.array([0.3, 0.1, 0.2]), np.zeros(3, dtype=int))
        assert res.threshold == np.inf
        assert res.diagnostics["f1"] == 0.0

    def test_tie_goes_to_larger_threshold(self):
        # both 0.5 and 0.7 isolate the single anomaly perfectly
        scores = np.array([0.1, 0.5, 0.7, 0.9])
        labels = np.array([0, 0, 0, 1])
        res = best_f1_threshold(scores, labels)
        assert res.threshold == 0.7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            best_f1_threshold(np.array([]), np.array([]))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exhaustive_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(15, 60))
        # quantized scores force plenty of ties
        scores = rng.choice(np.round(np.linspace(0.0, 1.0, 9), 3), size=n)
        labels = np.zeros(n, dtype=int)
        for _ in range(int(rng.integers(0, 4))):
            s = int(rng.integers(0, n))
            e = min(n - 1, s + int(rng.integers(0, 6)))
            labels[s : e + 1] = 1
        res = best_f1_threshold(scores, labels)
        ref_th, ref_f1 = best_f1_reference(scores, labels)
        assert res.threshold == ref_th
        assert res.diagnostics["f1"] == pytest.approx(ref_f1, abs=1e-12)


@st.composite
def _scores_and_segment_labels(draw):
    n = draw(st.integers(1, 40))
    # a handful of levels, so most scores tie with others
    levels = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=5))
    scores = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    labels = np.zeros(n, dtype=int)
    segments = st.tuples(st.integers(0, n - 1), st.integers(1, 8))
    for start, length in draw(st.lists(segments, max_size=4)):
        labels[start : start + length] = 1
    return scores, labels


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_scores_and_segment_labels())
def test_best_f1_matches_reference_property(case):
    scores, labels = case
    res = best_f1_threshold(scores, labels)
    ref_th, ref_f1 = best_f1_reference(scores, labels)
    assert res.threshold == ref_th
    assert res.diagnostics["f1"] == pytest.approx(ref_f1, abs=1e-12)


@st.composite
def _cases_with_end_segments(draw):
    """Tied scores and segment labels, often with a segment at either end."""
    scores, labels = draw(_scores_and_segment_labels())
    if draw(st.booleans()):
        labels[0] = 1
    if draw(st.booleans()):
        labels[-1] = 1
    return scores, labels


_EDGE_CASES = [
    (np.full(6, 0.5), np.zeros(6, dtype=int)),                        # all tied, no anomaly
    (np.array([0.9, 0.1, 0.1, 0.1, 0.8]), np.array([1, 0, 0, 0, 1])),  # one-point segments at both ends
    (np.array([0.2, 0.2, 0.2]), np.array([0, 1, 0])),                  # tied scores, one-point segment
    (np.array([0.3]), np.array([1])),
]


def _with_edge_cases(test):
    for case in _EDGE_CASES:
        test = example(case)(test)
    return test


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_cases_with_end_segments())
@_with_edge_cases
def test_grid_search_agrees_with_report(case):
    # pipeline.evaluate_channel reports the grid threshold through point_adjusted_report
    scores, labels = case
    res = best_f1_threshold(scores, labels)
    rep = point_adjusted_report(apply_threshold(scores, res.threshold), labels)
    d = res.diagnostics
    assert (d["tp"], d["fp"], d["fn"]) == (rep.tp, rep.fp, rep.fn)
    assert (d["precision"], d["recall"], d["f1"]) == (rep.precision, rep.recall, rep.f1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_cases_with_end_segments())
@_with_edge_cases
def test_point_adjusted_counts_match_reference_walk(case):
    scores, labels = case
    # every distinct prediction the strict rule can make, thresholds equal to scores included
    ths = np.concatenate([[-np.inf], np.unique(scores), [np.inf]])
    tp, fp, fn = point_adjusted_counts(scores, labels, ths)
    for i, th in enumerate(ths):
        adjusted = point_adjust_reference((scores > th).astype(int), labels)
        assert (tp[i], fp[i], fn[i]) == counts_reference(adjusted, labels), th


def _assert_epsilon_matches_reference(scores):
    """Threshold and every diagnostic equal the one-candidate-at-a-time loop's."""
    threshold, best = epsilon_reference(scores)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # the fallback warns
        res = epsilon_threshold(scores)
    if best is None:
        assert res.diagnostics["fallback"] == "max" and res.threshold == scores.max()
    else:
        assert res.threshold == threshold
        assert res.diagnostics == best
    return res


class TestEpsilon:
    def test_default_grid(self):
        np.testing.assert_allclose(DEFAULT_Z_GRID, np.arange(2.0, 10.5, 0.5))

    def test_hand_case(self):
        # 38 zeros, a 6 and a 12: mu = 0.45, sigma = sqrt(4.2975), so the 6
        # sits 2.68 sigma up and the 12 at 5.57
        scores = np.zeros(40)
        scores[5], scores[20] = 6.0, 12.0
        res = epsilon_threshold(scores)
        mu, sigma = 0.45, np.sqrt(4.2975)
        # z = 2 and 2.5 keep both points, two runs: (1 + 1) / (2 + 2**2) = 1/3;
        # z = 3 to 5.5 keep the 12 alone and prune down to 38 zeros and the 6
        below_mu, below_sigma = 6 / 39, np.sqrt(36 / 39 - (6 / 39) ** 2)
        best = ((mu - below_mu) / mu + (sigma - below_sigma) / sigma) / 2
        assert best > 1 / 3
        assert res.diagnostics["z"] == 3.0     # the first z of the tie
        np.testing.assert_allclose(res.threshold, mu + 3 * sigma)
        np.testing.assert_allclose(res.diagnostics["score"], best)
        assert res.diagnostics["n_above"] == 1
        assert res.diagnostics["n_runs"] == 1
        _assert_epsilon_matches_reference(scores)

    def test_constant_scores_fall_back_with_warning(self):
        with pytest.warns(RuntimeWarning):
            res = epsilon_threshold(np.full(10, 2.5))
        assert res.threshold == 2.5
        assert res.diagnostics.get("fallback") == "max"
        np.testing.assert_array_equal(apply_threshold(np.full(10, 2.5), res.threshold), 0)
        _assert_epsilon_matches_reference(np.full(10, 2.5))

    def test_unreachable_grid_falls_back(self):
        # alternating 0/1: mu + 2 sigma = 1.5 is above every score
        scores = np.tile([0.0, 1.0], 8)
        with pytest.warns(RuntimeWarning):
            res = epsilon_threshold(scores)
        assert res.threshold == scores.max()
        assert res.diagnostics["fallback"] == "max"
        _assert_epsilon_matches_reference(scores)

    def test_separates_obvious_spikes(self):
        rng = np.random.default_rng(42)
        scores = np.abs(rng.normal(0.1, 0.02, 500))
        scores[100:105] = 5.0
        res = epsilon_threshold(scores)
        assert 0.2 < res.threshold < 5.0
        preds = apply_threshold(scores, res.threshold)
        np.testing.assert_array_equal(np.flatnonzero(preds), np.arange(100, 105))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            epsilon_threshold(np.array([1.0]))
        with pytest.raises(ValueError):
            epsilon_threshold(np.array([1.0, -0.5]))


class TestEpsilonMatchesReference:
    """The sort-based selector against ``epsilon_reference``, exactly."""

    def test_stored_score_series(self, workloads, tmp_path):
        stored = workloads.write_stored_scores(1, tmp_path)
        assert len(stored) == 82
        for _, scores, _ in stored:
            _assert_epsilon_matches_reference(scores)

    @pytest.mark.parametrize("n", [600, 1980, 8600])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_series(self, n, seed):
        rng = np.random.default_rng(1000 * seed + n)
        scores = [rng.exponential(size=n), rng.pareto(1.5, size=n),
                  np.round(rng.exponential(size=n), 1),    # many ties
                  np.abs(rng.normal(size=n))]
        scores[3][rng.integers(0, n, 8)] += 6.0            # a few isolated spikes
        for s in scores:
            _assert_epsilon_matches_reference(s)

    # integer scores whose mu and sigma are exact, so a score sits exactly at a
    # candidate epsilon: misplace it and another candidate wins
    AT_EPSILON = {
        # mu = 3, sigma = 4: the 11 is at the best epsilon (z = 2), which prunes
        # the two 13s, a run at each end of the series
        "best, above it": [13, 2, 2, 1, 1, 0, 0, 2, 1, 2, 1, 11, 1, 2, 3, 1, 2, 1, 1, 13],
        # mu = 2, sigma = 3: the 11 is at the best epsilon (z = 3)
        "best, below it": [0, 0, 1, 2, 2, 0, 1, 0, 0, 2, 2, 2, 0, 2, 0, 0, 0, 1, 3, 1, 2, 11,
                           12, 1, 7, 0, 2, 2],
        # mu = 2, sigma = 3: the 8 is at z = 2's epsilon and starts the 14's run
        "a run start": [1] * 13 + [10] + [1] * 13 + [2, 8, 14],
    }

    @pytest.mark.parametrize("values", AT_EPSILON.values(), ids=AT_EPSILON.keys())
    def test_a_score_at_epsilon_is_in_neither_set(self, values):
        scores = np.array(values, dtype=float)
        mu, sigma = scores.mean(), scores.std()
        assert mu == round(mu) and sigma == round(sigma)
        assert np.isin(mu + np.array(DEFAULT_Z_GRID[:3]) * sigma, scores).any()
        _assert_epsilon_matches_reference(scores)

    def test_hand_case_at_epsilon(self):
        scores = np.array(self.AT_EPSILON["best, above it"], dtype=float)
        res = epsilon_threshold(scores)
        below = scores[scores < 11.0]
        assert below.size == scores.size - 3
        expected = ((3.0 - below.mean()) / 3.0 + (4.0 - below.std()) / 4.0) / (2 + 2**2)
        assert res.threshold == 11.0
        assert res.diagnostics == {"z": 2.0, "score": expected, "n_above": 2, "n_runs": 2,
                                   "mu": 3.0, "sigma": 4.0}

    @pytest.mark.parametrize("where", [0, -1])
    def test_runs_touching_an_end(self, where):
        scores = np.abs(np.random.default_rng(3).normal(0.1, 0.02, 200))
        scores[where] = 5.0
        scores[100:103] = 4.0
        res = _assert_epsilon_matches_reference(scores)
        assert apply_threshold(scores, res.threshold)[where] == 1


class TestGpd:
    def test_displacement_hand_case(self):
        d = pot_displacement(0.1, 0.05, q=1e-3, n_total=10_000, n_exceedances=200)
        assert abs(d - 0.17468) < 1e-4

    def test_displacement_exponential_branch(self):
        d0 = pot_displacement(0.0, 0.05, 1e-3, 10_000, 200)
        np.testing.assert_allclose(d0, 0.05 * np.log(200 / 10.0))
        # the two branches agree as gamma -> 0
        d_small = pot_displacement(1e-7, 0.05, 1e-3, 10_000, 200)
        np.testing.assert_allclose(d_small, d0, rtol=1e-5)

    def test_recovers_known_shape_and_scale(self):
        rng = np.random.default_rng(7)
        y = gpd_quantile_sample(rng, 0.2, 1.0, 5000)
        gamma, beta, _ = fit_gpd(y)
        assert 0.15 <= gamma <= 0.25
        assert 0.95 <= beta <= 1.05

    def test_recovers_exponential_tail(self):
        rng = np.random.default_rng(11)
        y = gpd_quantile_sample(rng, 0.0, 2.0, 5000)
        gamma, beta, _ = fit_gpd(y)
        assert abs(gamma) < 0.05
        assert 1.9 <= beta <= 2.1

    def test_fit_beats_every_coarse_grid_point(self):
        rng = np.random.default_rng(3)
        y = gpd_quantile_sample(rng, 0.3, 0.5, 2000)
        gamma, beta, _ = fit_gpd(y)
        best = gpd_nll_reference(y, gamma, beta)
        for g in np.linspace(-0.4, 1.0, 15):
            for b in y.mean() * np.logspace(-1, 1, 9):
                assert best <= gpd_nll_reference(y, g, b) + 1e-9

    @pytest.mark.parametrize("gamma", [-0.8, -0.4, 0.0, 0.3, 1.0, 1.5])
    @pytest.mark.parametrize("n", [2, 32, 400])
    def test_fit_reaches_the_dense_grid_minimum(self, gamma, n):
        # true shapes either side of the [-0.5, 1] clip; n = 2 is the smallest tail
        # POT fits (min_exceedances >= 2) and must still give a finite scale
        seed = 100 * n + int(10 * gamma)
        y = gpd_quantile_sample(np.random.default_rng(seed), gamma, 1.0, n)
        g, b, _ = fit_gpd(y)
        assert -0.5 <= g <= 1.0 and np.isfinite(b) and b > 0
        assert gpd_nll_reference(y, g, b) <= gpd_fit_reference(y)[0] + 1e-9

    @pytest.mark.parametrize("gamma, clipped", [(1.5, 1.0), (-0.8, -0.5)])
    def test_shape_is_clipped_exactly(self, gamma, clipped):
        y = gpd_quantile_sample(np.random.default_rng(5), gamma, 1.0, 400)
        assert fit_gpd(y)[0] == clipped

    @pytest.mark.parametrize("gamma, beta", [
        (0.3, 0.5), (-0.4, 2.0), (0.0, 1.5), (5e-13, 0.7),   # ordinary and exponential
        (-0.5, 0.1),                                          # z <= -1: outside the support
        (0.2, 0.0), (0.2, -1.0),                              # non-positive scale
    ])
    def test_nll_matches_closed_form(self, gamma, beta):
        # the oracle every NLL here is checked against is minus the summed log
        # of the GPD density, written as a power; zero density outside the support
        y = gpd_quantile_sample(np.random.default_rng(8), 0.3, 0.5, 200)
        with np.errstate(all="ignore"):
            if abs(gamma) < 1e-12:
                density = np.exp(-y / beta) / beta
            else:
                density = (1.0 + gamma * y / beta) ** (-1.0 - 1.0 / gamma) / beta
            density = np.where((beta > 0) & (1.0 + gamma * y / beta > 0), density, 0.0)
            expected = -float(np.log(density).sum())
        assert gpd_nll_reference(y, gamma, beta) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("c", [1e-200, 1e-3, 1e3, 1e200])
    def test_fit_and_threshold_are_scale_equivariant(self, c):
        # the theta grid scales with 1/y, so scaling the data scales beta alone
        for gamma in (-0.8, -0.2, 0.3, 1.5):
            y = gpd_quantile_sample(np.random.default_rng(30), gamma, 1.0, 400)
            g, b, _ = fit_gpd(y)
            g_c, b_c, _ = fit_gpd(c * y)
            assert g_c == pytest.approx(g, rel=1e-5) and b_c == pytest.approx(c * b, rel=1e-5)
        scores = np.random.default_rng(31).lognormal(mean=-2.0, sigma=0.5, size=5000)
        expected = c * pot_threshold(scores).threshold
        assert pot_threshold(c * scores).threshold == pytest.approx(expected, rel=1e-5)

    def test_profile_blocks_sum_each_row_whole(self):
        # 5,000 values leave 13 theta rows a block, so the 112 thetas span nine blocks
        y = gpd_quantile_sample(np.random.default_rng(6), 0.2, 1.0, 5000)
        theta = np.concatenate([np.linspace(-0.99 / y.max(), 0.0, 40),
                                np.geomspace(1e-4, 1e4, 72) / y.mean()])
        for got, expected in zip(thresholds._profile(y, theta), gpd_profile_reference(y, theta)):
            np.testing.assert_array_equal(got, expected)

    def test_fit_memory_is_bounded(self):
        # one (len(theta), n) array would be 342 MB at 200k excesses; a block is one row
        y = gpd_quantile_sample(np.random.default_rng(4), 0.2, 1.0, 200_000)
        tracemalloc.start()
        try:
            fit_gpd(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_pot_profiles_the_grid_then_seven_zoom_steps(self, monkeypatch):
        sizes, profile = [], thresholds._profile
        monkeypatch.setattr(thresholds, "_profile",
                            lambda y, theta: sizes.append(theta.size) or profile(y, theta))
        pot_threshold(np.random.default_rng(2).exponential(size=600), init_quantile=0.9)
        assert sizes == [112] + [34] * 7

    def test_rejects_nonpositive_excesses(self):
        with pytest.raises(ValueError):
            fit_gpd(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(GpdFitError):
            fit_gpd(np.array([]))


def _matches_golden_section(excesses, threshold_of):
    """The zoom fits no worse than golden section, on the clip where it is, and its
    threshold ``threshold_of(gamma, beta)`` is within 1e-6 relative."""
    gamma, beta, nll = fit_gpd(excesses)
    ref_gamma, ref_beta, ref_nll = gpd_golden_section_fit(excesses)
    assert nll <= ref_nll + 1e-12 * max(1.0, abs(ref_nll))
    assert [gamma == clip for clip in (-0.5, 1.0)] == [ref_gamma == clip for clip in (-0.5, 1.0)]
    expected = threshold_of(ref_gamma, ref_beta)
    assert abs(threshold_of(gamma, beta) - expected) <= 1e-6 * abs(expected)


def _pot_matches_golden_section(scores, init_quantile):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # clipped shapes warn
        res = pot_threshold(scores, init_quantile=init_quantile)
    th0, n_exc = res.diagnostics["init_threshold"], res.diagnostics["n_exceedances"]
    _matches_golden_section(
        scores[scores > th0] - th0,
        lambda g, b: th0 + pot_displacement(g, b, res.diagnostics["q"], scores.size, n_exc))
    return res


class TestGoldenSectionEquivalence:
    """The zoom against the golden-section fit it replaced, on the tails POT meets."""

    @pytest.mark.parametrize("gamma", [-0.8, -0.4, 0.0, 0.3, 1.0, 1.5])
    @pytest.mark.parametrize("n", [2, 32, 400])
    def test_gpd_shapes(self, gamma, n):
        # the tails of test_fit_reaches_the_dense_grid_minimum, as 2% of 50n scores
        y = gpd_quantile_sample(np.random.default_rng(100 * n + int(10 * gamma)), gamma, 1.0, n)
        _matches_golden_section(y, lambda g, b: pot_displacement(g, b, 1e-3, 50 * n, n))

    @pytest.mark.parametrize("chain", ["demo", "paper"])
    def test_benchmark_model_chain_tails(self, workloads, chain):
        # the residual tails these chains fit at seed 1, both on the lower clip
        spec = workloads.WORKLOADS[chain].model
        data = sines_with_level_shifts(seed=1, **spec.synthetic)
        stats, params, _ = fit_channel(data.train, spec.config, spec.train_config)
        scores = anomaly_scores(params, normalize(data.test, stats)).scores
        res = _pot_matches_golden_section(scores, workloads.POT_INIT_QUANTILE)
        assert res.diagnostics["gamma"] == -0.5

    def test_benchmark_stored_score_series(self, workloads, tmp_path):
        stored = workloads.write_stored_scores(1, tmp_path)
        assert len(stored) == 82
        for _, scores, _ in stored:
            _pot_matches_golden_section(scores, 0.98)


class TestPot:
    def test_too_few_exceedances(self):
        scores = np.random.default_rng(0).random(100)
        with pytest.raises(GpdFitError, match="exceedances"):
            pot_threshold(scores)  # 2% of 100 = 2 tail points

    def test_threshold_sits_above_initial(self):
        rng = np.random.default_rng(42)
        scores = rng.lognormal(mean=-2.0, sigma=0.5, size=5000)
        res = pot_threshold(scores, q=1e-3)
        assert res.method == "pot"
        assert res.threshold > res.diagnostics["init_threshold"]
        assert res.diagnostics["n_exceedances"] >= 32
        assert res.diagnostics["n_total"] == 5000
        assert res.diagnostics["q"] == 1e-3

    def test_smaller_q_means_higher_threshold(self):
        rng = np.random.default_rng(1)
        scores = rng.lognormal(mean=-2.0, sigma=0.5, size=5000)
        t3 = pot_threshold(scores, q=1e-3).threshold
        t4 = pot_threshold(scores, q=1e-4).threshold
        assert t4 > t3

    def test_parameter_validation(self):
        scores = np.random.default_rng(0).random(5000)
        with pytest.raises(ValueError):
            pot_threshold(scores, q=0.0)
        with pytest.raises(ValueError):
            pot_threshold(scores, init_quantile=1.5)
        with pytest.raises(ValueError, match="min_exceedances must be >= 2, got 0"):
            pot_threshold(scores, min_exceedances=0)  # 0 would switch the tail-size guard off
        with pytest.raises(ValueError, match="min_exceedances must be >= 2, got 1"):
            pot_threshold(scores, min_exceedances=1)  # a one-point fit is no fit
        with pytest.raises(ValueError):
            pot_threshold(np.array([]))
        # 100 of 5000 points lie above the 0.98 quantile, so q >= 0.02 would put the
        # threshold at or below the initial one (q = 0.5 flagged every point)
        lognormal = np.random.default_rng(42).lognormal(mean=-2.0, sigma=0.5, size=5000)
        for q in (0.5, 0.05, 0.02):
            with pytest.raises(ValueError, match=f"q={q:g} must be below the tail fraction 100/5000"):
                pot_threshold(lognormal, q=q)

    def test_warns_when_the_shape_sits_on_the_clip(self):
        # two exponential exceedances fit gamma = -0.5, the lower clip: the
        # threshold then extrapolates the bound, whatever the scores
        scores = np.random.default_rng(0).exponential(size=100)
        with pytest.warns(RuntimeWarning, match="2 exceedances sits on its clip"):
            res = pot_threshold(scores, min_exceedances=2)
        assert res.diagnostics["gamma"] == -0.5
        assert res.diagnostics["gamma_on_clip"] is True

    def test_a_fitted_shape_is_not_on_the_clip(self):
        # GPD tails are threshold-stable: 400 exceedances of a GPD(0.2) sample
        scores = gpd_quantile_sample(np.random.default_rng(0), 0.2, 1.0, 20000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pot_threshold(scores)
        assert res.diagnostics["n_exceedances"] == 400
        assert -0.5 < res.diagnostics["gamma"] < 1.0
        assert res.diagnostics["gamma_on_clip"] is False

    @pytest.mark.parametrize("gamma, clipped", [
        (-0.8, -0.5), (-0.2, None), (0.0, None), (0.3, None), (1.5, 1.0),
    ])
    def test_nll_is_the_likelihood_of_the_fit(self, gamma, clipped):
        # the diagnostic comes from the fit's theta profile; it must equal the
        # closed-form likelihood of the reported (gamma, beta), clipped fits too
        scores = gpd_quantile_sample(np.random.default_rng(21), gamma, 1.0, 5000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            diag = pot_threshold(scores).diagnostics
        assert diag["gamma_on_clip"] is (clipped is not None)
        if clipped is not None:
            assert diag["gamma"] == clipped
        excesses = scores[scores > diag["init_threshold"]] - diag["init_threshold"]
        expected = gpd_nll_reference(excesses, diag["gamma"], diag["beta"])
        assert abs(diag["nll"] - expected) <= 1e-12 * abs(expected)


class TestScoreSequence:
    def test_timesteps(self):
        seq = ScoreSequence(scores=np.zeros(4), first_timestep=10)
        np.testing.assert_array_equal(seq.timesteps, [10, 11, 12, 13])
