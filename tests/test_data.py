"""File formats, normalization, channel loading, and config parsing."""

import re
import tempfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    write_curve_csv_reference,
    write_labels_csv_reference,
    write_matrix_csv_reference,
    write_scores_csv_reference,
)
from tcnad.data import (
    DataFormatError,
    ManifestEntry,
    NormalizationStats,
    compute_stats,
    is_manifest,
    load_channel,
    normalize,
    parse_config_file,
    read_labels_csv,
    read_manifest,
    read_matrix,
    read_matrix_csv,
    read_scores_csv,
    write_curve_csv,
    write_labels_csv,
    write_loss_csv,
    write_manifest,
    write_matrix_csv,
    write_report_csv,
    write_scores_csv,
)
from tcnad.evaluation import AnomalySegment, EvalReport
from tcnad.forecaster import ModelConfig
from tcnad.pipeline import fit_channel
from tcnad.thresholds import ScoreSequence
from tcnad.trainer import TrainConfig


class TestNormalization:
    def test_endpoints_map_to_unit_interval(self):
        train = np.array([[0.0, 10.0], [4.0, 30.0]])
        stats = compute_stats(train)
        out = normalize(train, stats)
        np.testing.assert_allclose(out, [[0.0, 0.0], [1.0, 1.0]])

    def test_midpoint(self):
        train = np.array([[0.0], [4.0]])
        stats = compute_stats(train)
        assert normalize(np.array([[2.0]]), stats)[0, 0] == pytest.approx(0.5)

    def test_test_split_uses_train_stats(self):
        train = np.array([[0.0], [1.0]])
        stats = compute_stats(train)
        # values outside the train range fall outside [0, 1] -- no re-fitting
        assert normalize(np.array([[2.0]]), stats)[0, 0] == pytest.approx(2.0)
        assert normalize(np.array([[-1.0]]), stats)[0, 0] == pytest.approx(-1.0)

    def test_constant_feature_warns_and_zeroes(self):
        train = np.array([[1.0, 5.0], [1.0, 6.0]])
        with pytest.warns(RuntimeWarning, match="constant"):
            stats = compute_stats(train)
        out = normalize(train, stats)
        np.testing.assert_allclose(out[:, 0], 0.0)
        np.testing.assert_allclose(out[:, 1], [0.0, 1.0])

    @pytest.mark.parametrize("n_stats", [1, 3])
    def test_refuses_stats_of_another_width(self, n_stats):
        # else one feature's range would broadcast over every column without complaint
        stats = compute_stats(np.arange(2.0 * n_stats).reshape(2, n_stats))
        with pytest.raises(ValueError, match=re.escape(
                f"normalization stats have {n_stats} features, the matrix has 4")):
            normalize(np.ones((3, 4)), stats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_train_names_its_index(self, bad):
        # else a NaN or inf surfaces later as a diverged loss that names a gradient
        train = np.random.default_rng(0).random((80, 3))
        train[50, 1] = bad
        with pytest.raises(ValueError, match=re.escape(f"train has a non-finite value {bad} "
                                                       "at index (50, 1)")):
            compute_stats(train)

    def test_fit_channel_refuses_an_inf_before_training(self):
        # refused before training, not as a TrainingDivergedError at some batch
        train = np.random.default_rng(0).random((80, 3))
        train[50, 1] = np.inf
        cfg = ModelConfig(window=8, conv_kernel=3, tcn_kernel=2, tcn_channels=4,
                          dilations=(1,), mlp_layers=1, mlp_units=4)
        with pytest.raises(ValueError, match="non-finite value inf at index"):
            fit_channel(train, cfg, TrainConfig(epochs=1))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            compute_stats(np.ones(5))
        with pytest.raises(ValueError):
            NormalizationStats(np.zeros(2), np.ones(3))

    def test_stats_are_one_dimensional(self):
        # one entry per feature: a 2-D min/max would broadcast over rows too
        with pytest.raises(ValueError, match=re.escape(
                "normalization min/max must be 1-D of one shape, got (1, 2) and (1, 2)")):
            NormalizationStats(np.zeros((1, 2)), np.ones((1, 2)))


class TestMatrixCsv:
    def test_roundtrip(self, tmp_path):
        x = np.random.default_rng(0).normal(size=(7, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, x)
        np.testing.assert_array_equal(read_matrix_csv(path), x)  # repr() is lossless

    def test_header_names(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.ones((2, 2)))
        assert path.read_text().splitlines()[0] == "f0,f1"

    def test_vector_promoted_to_column(self, tmp_path):
        path = tmp_path / "v.csv"
        write_matrix_csv(path, np.array([[1.0], [2.0]]))
        assert read_matrix_csv(path).shape == (2, 1)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="bad.csv:3"):
            read_matrix_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a\n1.0\noops\n")
        with pytest.raises(DataFormatError, match="bad.csv:3"):
            read_matrix_csv(path)

    def test_empty_and_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            read_matrix_csv(path)
        path.write_text("a,b\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            read_matrix_csv(path)


class TestMatrixBinary:
    """``.npy`` matrices, written here with ``np.save``."""

    def test_roundtrip_bitwise(self, tmp_path):
        x = np.random.default_rng(1).normal(size=(5, 4))
        x[0, :2] = -0.0, 5e-324
        path = tmp_path / "m.npy"
        np.save(path, x)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(
            back.view(np.uint64), x.view(np.uint64)
        ), ".npy matrices must be read bit-exact"

    @pytest.mark.parametrize("x", [
        np.random.default_rng(2).normal(size=(4, 3)).astype(np.float32),
        np.array([[-(2**53), 0, 7], [1, 2**53, -3]], dtype=np.int64),
    ], ids=["float32", "int64"])
    def test_other_numeric_dtypes_read_as_float64(self, tmp_path, x):
        np.save(tmp_path / "m.npy", x)
        back = read_matrix(tmp_path / "m.npy")
        assert back.dtype == np.float64 and back.flags.c_contiguous
        assert back.tobytes() == x.astype(np.float64).tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.zeros((3, 2)))
        path.write_bytes(b"\x93NUMPY\x09\x00" + path.read_bytes()[8:])  # format version 9.0
        with pytest.raises(DataFormatError, match="bad.npy: unreadable .npy file"):
            read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.npy"
        np.save(path, np.zeros((3, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError, match="trunc.npy: unreadable .npy file"):
            read_matrix(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "short.npy"
        path.write_bytes(b"\x93NUMPY\x01")
        with pytest.raises(DataFormatError, match="short.npy: unreadable .npy file"):
            read_matrix(path)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_matrix_rejected(self, tmp_path, shape):
        path = tmp_path / "empty.npy"
        np.save(path, np.zeros(shape))
        with pytest.raises(DataFormatError, match="empty.npy: no data rows"):
            read_matrix(path)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)], ids=["1d", "3d"])
    def test_not_2d_rejected(self, tmp_path, shape):
        path = tmp_path / "m.npy"
        np.save(path, np.zeros(shape))
        with pytest.raises(DataFormatError, match=re.escape(
                f"m.npy: expected a 2-D matrix, got shape {shape}")):
            read_matrix(path)

    def test_pickled_object_array_rejected(self, tmp_path):
        path = tmp_path / "m.npy"
        np.save(path, np.array([[1.0, "a"]], dtype=object))   # needs pickle to read back
        with pytest.raises(DataFormatError, match="m.npy: unreadable .npy file .*allow_pickle"):
            read_matrix(path)

    def test_unicode_array_rejected(self, tmp_path):
        path = tmp_path / "m.npy"
        np.save(path, np.array([["1.0", "2.0"]]))
        with pytest.raises(DataFormatError, match="m.npy: expected numbers, got dtype <U3"):
            read_matrix(path)


class TestSniffing:
    def test_dispatch(self, tmp_path):
        x = np.arange(6.0).reshape(3, 2)
        write_matrix_csv(tmp_path / "m.csv", x)
        np.save(tmp_path / "m.npy", x)
        np.testing.assert_array_equal(read_matrix(tmp_path / "m.csv"), x)
        np.testing.assert_array_equal(read_matrix(tmp_path / "m.npy"), x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("suffix", [".csv", ".npy"])
    def test_non_finite_rejected(self, tmp_path, suffix, bad):
        x = np.ones((4, 3))
        x[2, 1] = x[3, 0] = bad
        path = tmp_path / f"m{suffix}"
        (write_matrix_csv if suffix == ".csv" else np.save)(path, x)
        message = f"m{suffix}: matrix contains non-finite value {bad} at row 2, column 1"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            read_matrix(path)


# finite doubles, with signed zeros, subnormals and the extremes always in reach
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308]
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                 elements=_FINITE),
    npy=st.booleans(),
)
def test_matrix_roundtrip_is_bit_exact(x, npy):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("m.npy" if npy else "m.csv")
        (np.save if npy else write_matrix_csv)(path, x)
        back = read_matrix(path)
    assert back.dtype == np.float64 and back.shape == x.shape
    assert back.tobytes() == x.tobytes()


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "labeled_anomalies.csv"
        entries = [
            ManifestEntry("P-1", [AnomalySegment(10, 20)], "SMAP", 100),
            ManifestEntry("T-3", [AnomalySegment(1, 2), AnomalySegment(5, 9)], "MSL", None),
        ]
        write_manifest(path, entries)
        back = read_manifest(path)
        assert set(back) == {"P-1", "T-3"}
        assert back["P-1"].segments == [AnomalySegment(10, 20)]
        assert back["P-1"].num_values == 100
        assert back["T-3"].segments[1] == AnomalySegment(5, 9)
        assert back["T-3"].num_values is None

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "chan_id,spacecraft,anomaly_sequences,class,num_values\n"
            'A-1,SMAP,"[[5, 8]]",point,50\n'
        )
        entry = read_manifest(path)["A-1"]
        assert entry.segments == [AnomalySegment(5, 8)]
        assert entry.num_values == 50

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("chan_id,spacecraft\nA-1,SMAP\n")
        with pytest.raises(DataFormatError, match="anomaly_sequences"):
            read_manifest(path)

    def test_malformed_sequences(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('chan_id,anomaly_sequences\nA-1,"[[5]]"\n')
        with pytest.raises(DataFormatError, match="m.csv:2"):
            read_manifest(path)

    @pytest.mark.parametrize("seqs", ["((5, 8),)", "[(5, 8)]", "[[5, 8],]", "[[0x5, 8]]", ""])
    def test_sequences_must_be_json(self, tmp_path, seqs):
        # Python literals that are not JSON are refused, naming the line
        path = tmp_path / "m.csv"
        path.write_text(f'chan_id,anomaly_sequences\nA,[]\nB,"{seqs}"\n')
        with pytest.raises(DataFormatError, match="m.csv:3: bad anomaly_sequences"):
            read_manifest(path)

    @pytest.mark.parametrize("seqs", ["[[10.7, 11.2]]", "[[3, 4], [True, 9]]", "[[2, 4.0]]",
                                      "[[3, 4], [true, 9]]"])
    def test_non_integer_bounds(self, tmp_path, seqs):
        # int() would truncate these to other segments without a word
        path = tmp_path / "m.csv"
        path.write_text(f'chan_id,anomaly_sequences\nA,[]\nB,"{seqs}"\n')
        with pytest.raises(DataFormatError, match="m.csv:3: .*segment bounds must be integers"):
            read_manifest(path)

    def test_no_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("chan_id,anomaly_sequences\n")
        with pytest.raises(DataFormatError, match="no rows"):
            read_manifest(path)

    @pytest.mark.parametrize("raw", ["abc", "-3", "2.5", "1e3"])
    def test_bad_num_values(self, tmp_path, raw):
        path = tmp_path / "m.csv"
        path.write_text(f"chan_id,anomaly_sequences,num_values\nA,[],10\nB,[],{raw}\n")
        with pytest.raises(DataFormatError, match=re.escape(
                f"m.csv:3: num_values must be a non-negative integer, got '{raw}'")):
            read_manifest(path)

    def test_duplicate_chan_id(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('chan_id,anomaly_sequences\nA,"[[20, 25]]"\nB,[]\nA,[]\n')
        with pytest.raises(DataFormatError, match="m.csv:4: chan_id 'A' repeats line 2"):
            read_manifest(path)

    def test_errors_name_physical_lines_past_blank_ones(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('chan_id,anomaly_sequences\n\nA,[]\n\nA,[]\n')
        with pytest.raises(DataFormatError, match="m.csv:5: chan_id 'A' repeats line 3"):
            read_manifest(path)


class TestIsManifest:
    """``is_manifest`` tells a manifest from a ``timestep,label`` file by its
    header line; ``read_manifest`` then parses, and refuses, the rest."""

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("text, want", [
        ('chan_id,anomaly_sequences\nA-1,"[[1, 2]]"\n', True),
        ('spacecraft, chan_id ,anomaly_sequences\nSMAP,A-1,[]\n', True),
        ("timestep,label\n0,1\n1,0\n", False),
        ("timestep,label\r\n0,1\r\n", False),
    ], ids=["manifest", "chan_id_second", "labels", "labels_crlf"])
    def test_header_decides(self, tmp_path, bom, text, want):
        path = tmp_path / "l.csv"
        path.write_bytes(bom + text.encode())
        assert is_manifest(path) is want

    @pytest.mark.parametrize("raw", [b"", b"\xef\xbb\xbf", b"\n", b"label,timestep\n0,1\n"],
                             ids=["empty", "bom_only", "blank_line", "other_header"])
    def test_neither_header_is_a_data_error(self, tmp_path, raw):
        path = tmp_path / "l.csv"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match=re.escape(
                f"{path}: expected a manifest header with a 'chan_id' column")):
            is_manifest(path)

    def test_malformed_rows_are_left_to_read_manifest(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text('chan_id,anomaly_sequences\nA,"[[1, 2]]"\nB,"[[5]]"\n')
        assert is_manifest(path)
        with pytest.raises(DataFormatError, match="m.csv:3: bad anomaly_sequences"):
            read_manifest(path)

    def test_reads_the_header_line_only(self, tmp_path):
        # bytes that are not UTF-8 far past the header: the header still tells,
        # and the full read names the file
        path = tmp_path / "m.csv"
        rows = "".join(f"C-{i},[]\n" for i in range(20_000))
        path.write_bytes(f"chan_id,anomaly_sequences\n{rows}".encode() + b"D,\xff[]\n")
        assert is_manifest(path)
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: not UTF-8 text")):
            read_manifest(path)


_NAMES = st.text(alphabet="ABMPST0123456789-_", min_size=1, max_size=6)
_ENTRIES = st.lists(
    st.builds(
        ManifestEntry,
        channel=_NAMES,
        segments=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 500)).map(
            lambda sl: AnomalySegment(sl[0], sl[0] + sl[1])), max_size=4),
        spacecraft=st.sampled_from(["", "SMAP", "MSL"]),
        num_values=st.sampled_from([None, 0]) | st.integers(1, 10**7),
    ),
    min_size=1, max_size=5, unique_by=lambda e: e.channel,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(entries=_ENTRIES)
def test_manifest_roundtrip_property(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labeled_anomalies.csv"
        write_manifest(path, entries)
        back = read_manifest(path)
    assert list(back) == [e.channel for e in entries]
    assert list(back.values()) == entries


def _write_channel(tmp_path, channel="C-1", n_train=30, n_test=20, m=2,
                   segments=((5, 8),), num_values=None, test_override=None):
    (tmp_path / "train").mkdir(exist_ok=True)
    (tmp_path / "test").mkdir(exist_ok=True)
    rng = np.random.default_rng(0)
    train = rng.normal(size=(n_train, m))
    test = test_override if test_override is not None else rng.normal(size=(n_test, m))
    write_matrix_csv(tmp_path / "train" / f"{channel}.csv", train)
    np.save(tmp_path / "test" / f"{channel}.npy", test)
    entry = ManifestEntry(
        channel, [AnomalySegment(s, e) for s, e in segments], "X", num_values
    )
    write_manifest(tmp_path / "labeled_anomalies.csv", [entry])
    return train, test


class TestLoadChannel:
    def test_happy_path_mixing_formats(self, tmp_path):
        train, test = _write_channel(tmp_path)
        ds = load_channel(tmp_path, "C-1")
        np.testing.assert_array_equal(ds.train, train)
        np.testing.assert_array_equal(ds.test, test)
        assert ds.segments == [AnomalySegment(5, 8)]

    def test_unknown_channel(self, tmp_path):
        _write_channel(tmp_path)
        with pytest.raises(DataFormatError, match="not in"):
            load_channel(tmp_path, "Z-9")

    def test_feature_count_mismatch(self, tmp_path):
        _write_channel(tmp_path, test_override=np.zeros((20, 3)))
        with pytest.raises(DataFormatError, match="features"):
            load_channel(tmp_path, "C-1")

    def test_num_values_mismatch(self, tmp_path):
        _write_channel(tmp_path, num_values=999)
        with pytest.raises(DataFormatError, match="num_values"):
            load_channel(tmp_path, "C-1")

    def test_segment_out_of_bounds(self, tmp_path):
        _write_channel(tmp_path, segments=((5, 50),))
        with pytest.raises(DataFormatError, match="exceeds"):
            load_channel(tmp_path, "C-1")

    def test_non_finite_rejected(self, tmp_path):
        bad = np.zeros((20, 2))
        bad[3, 1] = np.nan
        _write_channel(tmp_path, test_override=bad)
        with pytest.raises(DataFormatError, match="non-finite"):
            load_channel(tmp_path, "C-1")


class TestConfigFile:
    FULL = """
# model
window = 50
conv_kernel = 7
tcn_kernel = 4
tcn_channels = 16
dilations = 1, 2, 4
mlp_layers = 2
mlp_units = 24
dropout = 0.2
attention_mode = static
attention_activation = sigmoid
temporal_attention = yes
variable_attention = off

# training
epochs = 5            # inline comment
batch_size = 32
learning_rate = 0.005
seed = 9
shuffle = false
val_fraction = 0.1

optimizer = adam
loss = rmse
"""

    def test_full_parse(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(self.FULL)
        model, train = parse_config_file(path)
        assert model.window == 50
        assert model.tcn_channels == 16
        assert model.dilations == (1, 2, 4)
        assert model.dropout == pytest.approx(0.2)
        assert model.attention_mode == "static"
        assert model.temporal_attention is True
        assert model.variable_attention is False
        assert train.epochs == 5
        assert train.batch_size == 32
        assert train.learning_rate == pytest.approx(0.005)
        assert train.seed == 9
        assert train.shuffle is False
        assert train.val_fraction == pytest.approx(0.1)

    def test_defaults_when_empty(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("# nothing but comments\n\n")
        model, train = parse_config_file(path)
        assert model.window == 100 and train.epochs == 100

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(DataFormatError, match="unknown key"):
            parse_config_file(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("window = 10\nwindow = 20\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            parse_config_file(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("epochs = many\n")
        with pytest.raises(DataFormatError, match="cfg.ini:1"):
            parse_config_file(path)

    def test_bad_boolean(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("shuffle = maybe\n")
        with pytest.raises(DataFormatError, match="boolean"):
            parse_config_file(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("just a line\n")
        with pytest.raises(DataFormatError, match="key = value"):
            parse_config_file(path)

    def test_fixed_fields_enforced(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("optimizer = sgd\n")
        with pytest.raises(DataFormatError, match="optimizer"):
            parse_config_file(path)
        path.write_text("loss = mae\n")
        with pytest.raises(DataFormatError, match="loss"):
            parse_config_file(path)
        path.write_text("attention_activation = identity\n")
        with pytest.raises(DataFormatError, match="attention_activation"):
            parse_config_file(path)

    def test_invalid_config_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("dropout = 1.5\n")
        with pytest.raises(DataFormatError):
            parse_config_file(path)


class TestSmallCsvs:
    def test_scores_roundtrip(self, tmp_path):
        seq = ScoreSequence(scores=np.array([0.5, 1.25, 0.125]), first_timestep=10)
        path = tmp_path / "s.csv"
        write_scores_csv(path, seq)
        back = read_scores_csv(path)
        assert back.first_timestep == 10
        np.testing.assert_array_equal(back.scores, seq.scores)

    def test_scores_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,value\n0,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            read_scores_csv(path)

    def test_scores_gap_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestep,score\n0,1.0\n2,1.0\n")
        with pytest.raises(DataFormatError, match="contiguous"):
            read_scores_csv(path)

    def test_scores_non_finite_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("timestep,score\n5,1.0\n6,nan\n7,1.0\n")
        with pytest.raises(DataFormatError, match="non-finite score nan at timestep 6"):
            read_scores_csv(path)

    def test_labels_roundtrip(self, tmp_path):
        labels = np.array([0, 1, 1, 0])
        path = tmp_path / "l.csv"
        write_labels_csv(path, labels, first_timestep=3)
        back, first = read_labels_csv(path)
        assert first == 3
        np.testing.assert_array_equal(back, labels)

    def test_labels_non_binary(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("timestep,label\n0,0\n1,2\n")
        with pytest.raises(DataFormatError, match="0/1"):
            read_labels_csv(path)

    @pytest.mark.parametrize("reader, column", [(read_scores_csv, "score"),
                                                (read_labels_csv, "label")])
    def test_shared_reader_errors(self, tmp_path, reader, column):
        path = tmp_path / "t.csv"
        path.write_text(f"timestep,{column}\n")
        with pytest.raises(DataFormatError, match=f"t.csv: no {column} rows"):
            reader(path)
        path.write_text(f"timestep,{column}\n0,1\n1\n")
        with pytest.raises(DataFormatError, match="t.csv:3: expected 2 columns, got 1"):
            reader(path)
        path.write_text(f"timestep,{column}\n0,1\n1,x\n")
        with pytest.raises(DataFormatError, match="t.csv:3: .*'x'"):
            reader(path)
        path.write_text(f"timestep,{column}\n3,1\n2,1\n")
        with pytest.raises(DataFormatError, match="contiguous"):
            reader(path)

    def test_loss_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [0.5, 0.25])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert lines[1] == "0,0.5"
        assert lines[2] == "1,0.25"

    def test_report_csv(self, tmp_path):
        path = tmp_path / "r.csv"
        rep = EvalReport(tp=2, fp=1, fn=0, precision=2 / 3, recall=1.0,
                         f1=0.8, channel="X-7")
        write_report_csv(path, [rep])
        lines = path.read_text().splitlines()
        assert lines[0] == "channel,tp,fp,fn,precision,recall,f1"
        assert lines[1].startswith("X-7,2,1,0,")

    def test_curve_csv(self, tmp_path):
        seq = ScoreSequence(scores=np.array([0.1, 0.9]), first_timestep=5)
        path = tmp_path / "c.csv"
        write_curve_csv(path, seq, 0.5, np.array([0, 1]), np.array([0, 1]))
        lines = path.read_text().splitlines()
        assert lines[0] == "timestep,score,threshold,label,prediction"
        assert lines[1] == "5,0.1,0.5,0,0"
        assert lines[2] == "6,0.9,0.5,1,1"
        with pytest.raises(ValueError):
            write_curve_csv(path, seq, 0.5, np.array([0]), np.array([0, 1]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    scores=hnp.arrays(np.float64, st.integers(1, 40), elements=_FINITE),
    labels=hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 1)),
    first=st.integers(0, 10**6),
)
def test_timestep_csv_roundtrip_property(scores, labels, first):
    with tempfile.TemporaryDirectory() as tmp:
        write_scores_csv(Path(tmp) / "s.csv", ScoreSequence(scores, first))
        write_labels_csv(Path(tmp) / "l.csv", labels, first_timestep=first)
        seq = read_scores_csv(Path(tmp) / "s.csv")
        back, back_first = read_labels_csv(Path(tmp) / "l.csv")
    assert seq.first_timestep == back_first == first
    assert seq.scores.dtype == np.float64 and seq.scores.tobytes() == scores.tobytes()
    np.testing.assert_array_equal(back, labels)


# the values a float CSV must carry over exactly: signed zero, subnormals,
# the largest finite double, and the exponent switches of repr
_EDGE_FLOATS = np.array([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                         1e16, 9999999999999998.0, 1e-5, 0.0001, 1e-4 * 0.9,
                         -1.7976931348623157e308, 0.1, 1 / 3, 123456.789])


class TestCsvWritersMatchCsvModule:
    """The numeric writers format rows themselves; the bytes must be those of
    ``csv.writer`` with ``repr`` floats (``tests/oracles.py``)."""

    def _floats(self, n, seed=0):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 20, size=n)
        return np.concatenate([_EDGE_FLOATS, values])

    def test_scores(self, tmp_path):
        seq = ScoreSequence(self._floats(5000), 37)      # several blocks of rows
        write_scores_csv(tmp_path / "a.csv", seq)
        write_scores_csv_reference(tmp_path / "b.csv", seq.timesteps, seq.scores)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert b"\r\n37,0.0\r\n38,-0.0\r\n39,5e-324\r\n" in (tmp_path / "a.csv").read_bytes()

    @pytest.mark.parametrize("labels", [np.arange(5000) % 3 == 0, np.array([True, False, True]),
                                        np.array([1.0, 0.0])])
    def test_labels(self, tmp_path, labels):
        write_labels_csv(tmp_path / "a.csv", labels, 5)
        write_labels_csv_reference(tmp_path / "b.csv", labels, 5)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_matrix(self, tmp_path):
        x = self._floats(4501, seed=1).reshape(-1, 3)
        write_matrix_csv(tmp_path / "a.csv", x)
        write_matrix_csv_reference(tmp_path / "b.csv", x, ["f0", "f1", "f2"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        np.testing.assert_array_equal(read_matrix_csv(tmp_path / "a.csv"), x)

    @pytest.mark.parametrize("threshold", [0.25, -0.0, 1e16, 1e-5, 5e-324, np.float64(1 / 3)])
    def test_curve(self, tmp_path, threshold):
        scores = self._floats(40, seed=2)
        seq = ScoreSequence(scores, 100)
        labels = np.arange(scores.size) % 3 == 0
        predictions = (np.arange(scores.size) % 2).astype(np.int32)
        write_curve_csv(tmp_path / "a.csv", seq, threshold, labels, predictions)
        write_curve_csv_reference(tmp_path / "b.csv", seq.timesteps, scores, threshold,
                                  labels, predictions)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
