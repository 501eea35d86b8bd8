"""Point adjustment and the precision/recall/F1 accounting."""

import numpy as np
import pytest

from oracles import counts_reference, point_adjust_reference, prf_reference
from tcnad.evaluation import (
    AnomalySegment,
    _check_binary,
    EvalReport,
    aggregate,
    f1_from_counts,
    f1_score,
    labels_from_segments,
    point_adjusted_counts,
    point_adjusted_report,
    segments_from_labels,
)


def _counts(report):
    return report.tp, report.fp, report.fn


def _adjusted_counts(pred, labels):
    """(tp, fp, fn) of the reference walk's adjusted predictions."""
    return counts_reference(point_adjust_reference(pred, labels), labels)


class TestSegments:
    def test_from_labels(self):
        segs = segments_from_labels(np.array([0, 1, 1, 0, 1]))
        assert segs == [AnomalySegment(1, 2), AnomalySegment(4, 4)]

    def test_empty_and_full(self):
        assert segments_from_labels(np.zeros(5, dtype=int)) == []
        assert segments_from_labels(np.ones(4, dtype=int)) == [AnomalySegment(0, 3)]

    def test_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            labels = (rng.random(30) < 0.3).astype(int)
            rebuilt = labels_from_segments(segments_from_labels(labels), 30)
            np.testing.assert_array_equal(rebuilt, labels)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            segments_from_labels(np.array([0, 2, 1]))

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            AnomalySegment(3, 2)
        with pytest.raises(ValueError):
            AnomalySegment(-1, 2)
        with pytest.raises(ValueError):
            labels_from_segments([AnomalySegment(0, 5)], 5)


class TestBinaryInputs:
    """Labels and predictions are 1-D arrays of 0s and 1s, refused otherwise."""

    REFUSED = {
        "two": np.array([0, 2, 1]),
        "minus one": np.array([0, -1, 1]),
        "a half": np.array([0.0, 0.5, 1.0]),
        "nan": np.array([0.0, np.nan, 1.0]),
        "inf": np.array([0.0, np.inf, 1.0]),
        "strings": np.array(["0", "1", "1"]),
        "2-d": np.array([[0, 1], [1, 0]]),
    }

    @pytest.mark.parametrize("values", REFUSED.values(), ids=REFUSED.keys())
    @pytest.mark.parametrize("call", [
        lambda v: segments_from_labels(v),
        lambda v: point_adjusted_report(v, np.zeros(v.shape, dtype=int)),
        lambda v: point_adjusted_counts(np.zeros(v.shape), v, 0.5),
    ], ids=["segments_from_labels", "predictions", "labels"])
    def test_refused(self, call, values):
        with pytest.raises(ValueError, match="0/1|1-D"):
            call(values)

    @pytest.mark.parametrize("values", [
        np.array([True, False, True]),
        np.array([1.0, 0.0, 1.0]),
        np.array([1, 0, 1], dtype=np.uint8),
        [1, 0, 1],
    ], ids=["bool", "float", "uint8", "list"])
    def test_accepted_as_int64(self, values):
        out = _check_binary(values, "labels")
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [1, 0, 1])


class TestPointAdjust:
    def test_one_hit_fills_the_segment(self):
        pred = np.array([0, 0, 1, 0, 0])
        labels = np.array([0, 1, 1, 1, 0])
        assert _counts(point_adjusted_report(pred, labels)) == (3, 0, 0)

    def test_miss_leaves_zeros(self):
        pred = np.array([1, 0, 0, 0, 0])
        labels = np.array([0, 1, 1, 1, 0])
        assert _counts(point_adjusted_report(pred, labels)) == (0, 1, 3)

    def test_idempotent(self):
        # counting the reference's adjusted predictions changes nothing
        rng = np.random.default_rng(0)
        pred = (rng.random(40) < 0.2).astype(int)
        labels = (rng.random(40) < 0.25).astype(int)
        once = point_adjusted_report(pred, labels)
        again = point_adjusted_report(point_adjust_reference(pred, labels), labels)
        assert again == once

    def test_does_not_mutate_input(self):
        pred, labels = np.array([0, 1, 0]), np.array([1, 1, 1])
        point_adjusted_report(pred, labels)
        point_adjusted_counts(pred, labels, np.array([-1.0, 0.0]))
        np.testing.assert_array_equal(pred, [0, 1, 0])
        np.testing.assert_array_equal(labels, [1, 1, 1])

    def test_out_of_range_segment(self):
        # a label segment that runs past the last prediction
        with pytest.raises(ValueError):
            point_adjusted_report(np.zeros(3, dtype=int), np.array([0, 1, 1, 1, 1, 1]))

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_reference_walk(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 50))
        labels = (rng.random(n) < rng.uniform(0.1, 0.5)).astype(int)
        pred = (rng.random(n) < rng.uniform(0.1, 0.5)).astype(int)
        expected = _adjusted_counts(pred, labels)
        assert _counts(point_adjusted_report(pred, labels)) == expected
        assert tuple(point_adjusted_counts(pred, labels, 0.0)) == expected


class TestMetrics:
    def test_hand_counts(self):
        # one-point segments, so adjusting changes nothing
        pred = np.array([1, 1, 0, 0, 1])
        labels = np.array([1, 0, 1, 0, 1])
        rep = point_adjusted_report(pred, labels)
        assert (rep.tp, rep.fp, rep.fn) == (2, 1, 1)
        assert rep.precision == pytest.approx(2 / 3)
        assert rep.recall == pytest.approx(2 / 3)
        assert rep.f1 == pytest.approx(2 / 3)

    def test_zero_conventions(self):
        rep = point_adjusted_report(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
        assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0
        assert f1_from_counts(0, 0, 0) == (0.0, 0.0, 0.0)
        assert f1_score(0.0, 0.0) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            point_adjusted_report(np.zeros(3, dtype=int), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            point_adjusted_counts(np.zeros(4), np.zeros(3, dtype=int), 0.0)

    def test_f1_reference_pairs(self):
        # harmonic mean reproduces the published-style summary numbers
        assert f1_score(0.9539, 0.9019) == pytest.approx(0.9272, abs=5e-4)
        assert f1_score(0.9419, 0.9815) == pytest.approx(0.9613, abs=5e-4)

    def test_f1_symmetry(self):
        assert f1_score(0.3, 0.8) == f1_score(0.8, 0.3)

    def test_rates_are_elementwise(self):
        tp, fp, fn = np.array([0, 2, 5, 0]), np.array([0, 1, 0, 3]), np.array([0, 1, 0, 4])
        rates = np.stack(f1_from_counts(tp, fp, fn), axis=1)
        for row, counts in zip(rates, zip(tp, fp, fn)):
            assert tuple(row) == tuple(float(r) for r in f1_from_counts(*counts))

    @pytest.mark.parametrize("seed", range(10))
    def test_counts_match_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        pred = (rng.random(n) < 0.3).astype(int)
        labels = (rng.random(n) < 0.3).astype(int)
        rep = point_adjusted_report(pred, labels)
        p, r, f1 = prf_reference(point_adjust_reference(pred, labels), labels)
        assert rep.precision == pytest.approx(p)
        assert rep.recall == pytest.approx(r)
        assert rep.f1 == pytest.approx(f1)


class TestAdjustedReport:
    def test_credits_whole_segment(self):
        labels = np.array([0, 1, 1, 1, 0, 0])
        pred = np.array([0, 0, 1, 0, 0, 1])
        rep = point_adjusted_report(pred, labels)
        assert (rep.tp, rep.fp, rep.fn) == (3, 1, 0)


class TestAggregate:
    def _reports(self):
        return [
            EvalReport(tp=1, fp=0, fn=1, precision=1.0, recall=0.5, f1=f1_score(1.0, 0.5), channel="a"),
            EvalReport(tp=1, fp=1, fn=0, precision=0.5, recall=1.0, f1=f1_score(0.5, 1.0), channel="b"),
        ]

    def test_micro_sums_counts(self):
        agg = aggregate(self._reports())
        assert (agg.channel, agg.tp, agg.fp, agg.fn) == ("all(micro)", 2, 1, 1)
        assert agg.precision == pytest.approx(2 / 3)
        assert agg.recall == pytest.approx(2 / 3)
        assert agg.f1 == pytest.approx(2 / 3)

    def test_order_invariant(self):
        reports = self._reports()
        a = aggregate(reports)
        b = aggregate(list(reversed(reports)))
        assert (a.tp, a.fp, a.fn, a.precision, a.recall, a.f1) == \
               (b.tp, b.fp, b.fn, b.precision, b.recall, b.f1)

    def test_needs_a_report(self):
        with pytest.raises(ValueError, match="at least one report"):
            aggregate([])
