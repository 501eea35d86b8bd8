"""The numeric CSV readers (matrices, scores, labels) against the per-row oracles.

``tests/oracles.py`` keeps the readers the package used before it parsed
with numpy: ``csv.reader`` and ``int()``/``float()`` per cell. On valid files
the two must give the same bytes; on malformed ones both must refuse and name
the first bad line.
"""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import read_matrix_csv_reference, read_timestep_csv_reference
from tcnad.cli import EXIT_DATA, EXIT_OK, main
from tcnad.data import (
    DataFormatError,
    is_manifest,
    parse_config_file,
    read_labels_csv,
    read_manifest,
    read_matrix,
    read_matrix_csv,
    read_scores_csv,
    write_labels_csv,
    write_scores_csv,
)
from tcnad.forecaster import ModelConfig, init_forecaster, save_checkpoint
from tcnad.thresholds import ScoreSequence

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _new(kind, path):
    """The package reader for ``kind`` -> (values, first_timestep)."""
    if kind == "matrix":
        return read_matrix_csv(path), 0
    if kind == "score":
        seq = read_scores_csv(path)
        return seq.scores, seq.first_timestep
    return read_labels_csv(path)


def _oracle(kind, path):
    if kind == "matrix":
        return read_matrix_csv_reference(path), 0
    return read_timestep_csv_reference(path, kind, float if kind == "score" else int)


def _assert_same(new, ref):
    (values, first), (ref_values, ref_first) = new, ref
    assert first == ref_first
    assert values.dtype == ref_values.dtype and values.shape == ref_values.shape
    assert values.tobytes() == ref_values.tobytes()


# ---------------------------------------------------------------------------
# valid files: bit-identical to the oracle
# ---------------------------------------------------------------------------

# finite doubles, with signed zeros, subnormals and the extremes always in reach
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308]
)
_SPACE = st.sampled_from(["", "", " ", "\t", "  ", " \t"])
# (quoted, leading, inner trailing and trailing space) of one cell
_DECOR = st.tuples(st.booleans(), _SPACE, _SPACE, _SPACE)
# shortest repr and 17 significant digits, with '+' signs and upper-case exponents
_FLOAT_FORMS = st.sampled_from(["{!r}", "{:.17g}", "{:.16e}", "{:+.17g}", "{:+.16E}"])
_INT_FORMS = st.sampled_from(["{}", "{:+d}", "{:04d}"])
_EOL = st.sampled_from(["\n", "\r\n", "\r"])


def _cell(text, quoted, lead, inner, trail):
    return f'"{lead}{text}{inner}"{trail}' if quoted else f"{lead}{text}{trail}"


_FLOAT_CELL = st.builds(lambda v, form, decor: _cell(form.format(v), *decor),
                        _FINITE, _FLOAT_FORMS, _DECOR)
_LABEL_CELL = st.builds(lambda v, form, decor: _cell(form.format(v), *decor),
                        st.integers(0, 1), _INT_FORMS, _DECOR)


@st.composite
def _csv_file(draw):
    """(kind, file bytes) for a valid matrix, scores or labels CSV, with blank lines
    and mixed line endings."""
    kind = draw(st.sampled_from(["matrix", "score", "label"]))
    if kind == "matrix":
        width = draw(st.integers(1, 4))
        names = st.sampled_from(["a", " f0 ", '"x,y"'])
        header = ",".join(draw(st.lists(names, min_size=width, max_size=width)))
        row = st.lists(_FLOAT_CELL, min_size=width, max_size=width).map(",".join)
        rows = draw(st.lists(row, min_size=1, max_size=8))
    else:
        header = draw(st.sampled_from(
            ["timestep,{}", " timestep\t, {} ", "timestep,{},note", "timestep,{} ,,"]
        )).format(kind)
        first = draw(st.integers(0, 10**6))
        extra = st.sampled_from(["", ",", ",x", ",1.5", ',"a,b"', ", "])
        value = _FLOAT_CELL if kind == "score" else _LABEL_CELL
        cells = draw(st.lists(st.tuples(_INT_FORMS, _DECOR, value, extra), min_size=1, max_size=8))
        rows = [f"{_cell(form.format(first + i), *decor)},{v}{tail}"
                for i, (form, decor, v, tail) in enumerate(cells)]
    breaks = st.lists(_EOL, min_size=1, max_size=3).map("".join)   # more than one: blank lines
    text = header + "".join(draw(breaks) + row for row in rows)
    return kind, (text + draw(st.lists(_EOL, max_size=2).map("".join))).encode()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    """One file the property test rewrites for every example."""
    return tmp_path_factory.mktemp("csv") / "f.csv"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_csv_file())
def test_valid_files_read_like_the_oracle(csv_path, case):
    kind, raw = case
    csv_path.write_bytes(raw)
    _assert_same(_new(kind, csv_path), _oracle(kind, csv_path))


def test_stored_select_scores_read_like_the_oracle(tmp_path, monkeypatch):
    """The 82 SMAP/MSL-sized score files of the benchmark's ``select`` workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)    # its dataclasses look it up
    spec.loader.exec_module(workloads)
    stored = workloads.write_stored_scores(3, tmp_path)
    assert len(stored) == 82
    for name, scores, _ in stored:
        path = tmp_path / f"{name}.csv"
        new = _new("score", path)
        _assert_same(new, _oracle("score", path))
        assert new[0].tobytes() == scores.tobytes()


# ---------------------------------------------------------------------------
# malformed files: both refuse, naming the first bad line
# ---------------------------------------------------------------------------

MALFORMED = [
    # (kind, file text, first bad line or None when no line is to blame)
    ("score", "timestep,score\n0,1\n1\n", 3),
    ("score", "timestep,score\n0,1\n1,x\n", 3),
    ("score", "timestep,score\n\n\n0,one\n", 4),
    ("score", "timestep,score\n0,1\n1,\n", 3),
    ("score", "timestep,score\n0,1\n# x\n", 3),
    ("score", "timestep,score\r\n0,1\r\n\r\n1,1 # x\r\n", 4),
    ("score", "timestep,score\n0,1\n   \n1,1\n", 3),
    ("score", "timestep,score\n0,1\n\t\n", 3),
    ("score", "timestep,score\n5.0,1\n", 2),
    ("score", "timestep,score\n0,1\n1e2,1\n", 3),
    ("score", "timestep,score\n", None),
    ("score", "timestep,score\n\n\n", None),
    ("label", "timestep,label\n0,0\n1\n", 3),
    ("label", "timestep,label\n0,0\n1,1.0\n", 3),
    ("label", "timestep,label\n0,0\n1,\n", 3),
    ("label", "timestep,label\n# x\n0,0\n", 2),
    ("label", "timestep,label\n0,0 # x\n", 2),
    ("label", "timestep,label\n0,0\n  \n", 3),
    ("label", "timestep,label\n5.0,1\n", 2),
    ("label", "timestep,label\n\n", None),
    ("matrix", "a,b\n1,2\n3\n", 3),
    ("matrix", "a,b\n1,2\n3,4,5\n", 3),
    ("matrix", "a,b,c\n1,2\n", 2),
    ("matrix", "a,b\n1,2\n\n3,x\n", 4),
    ("matrix", "a,b\n1,\n", 2),
    ("matrix", "a\n1\n# x\n", 3),
    ("matrix", "a,b\n# x\n", 2),
    ("matrix", "a,b\n5,1 # x\n", 2),
    ("matrix", "a\n1\n  \n", 3),
    ("matrix", "a,b\n1,2\n\t\n", 3),
    ("matrix", "a,b\n", None),
    ("matrix", "", None),
]


@pytest.mark.parametrize("kind, text, line", MALFORMED)
def test_malformed_files_are_refused_naming_the_line(tmp_path, kind, text, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    where = re.escape(f"bad.csv:{line}: " if line else "bad.csv: ")
    with pytest.raises(ValueError, match=where):
        _oracle(kind, path)
    with pytest.raises(DataFormatError, match=where):
        _new(kind, path)


def _checkpoint(tmp_path) -> str:
    """A two-feature checkpoint for ``tcnad score``."""
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, init_forecaster(
        2, ModelConfig(window=8, tcn_channels=4, dilations=(1,), mlp_layers=0), seed=0))
    return str(ckpt)


@pytest.mark.parametrize("kind, text, line", MALFORMED)
def test_malformed_files_exit_2_naming_the_line(tmp_path, capsys, kind, text, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    if kind == "score":
        argv = ["threshold", "--scores", str(path), "--method", "epsilon"]
    elif kind == "label":
        scores = tmp_path / "s.csv"
        write_scores_csv(scores, ScoreSequence(np.array([0.1, 0.9]), 0))
        argv = ["evaluate", "--scores", str(scores), "--labels", str(path), "--threshold", "0.5"]
    else:
        argv = ["score", "--checkpoint", _checkpoint(tmp_path), "--test", str(path),
                "--out", str(tmp_path / "out.csv")]
    assert main(argv) == EXIT_DATA
    assert (f"{path}:{line}: " if line else f"{path}: ") in capsys.readouterr().err


@pytest.mark.parametrize("kind, text, python_reads", [
    ("matrix", "a,b\n1_0,2\n", 10.0),
    ("score", "timestep,score\n1_0,1\n", 10),
    ("score", "timestep,score\n0,1_0.5\n", 10.5),
    ("label", "timestep,label\n1_0,1\n", 10),
])
def test_digit_underscores_are_refused(tmp_path, kind, text, python_reads):
    """Python's ``int()``/``float()`` accept digit underscores; numpy's reader refuses them."""
    path = tmp_path / "u.csv"
    path.write_text(text)
    values, first = _oracle(kind, path)
    assert python_reads in (first, *values.ravel())
    with pytest.raises(DataFormatError, match="u.csv:2: "):
        _new(kind, path)


# ---------------------------------------------------------------------------
# text that is not UTF-8
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, write", [
    ("x.npz", lambda path: np.savez(path, x=np.zeros((3, 2)))),
    ("x.bin", lambda path: np.arange(1.0, 9.0).tofile(path)),
], ids=["npz", "raw-floats"])
def test_binary_matrix_is_a_data_error(tmp_path, capsys, name, write):
    path = tmp_path / name
    write(path)
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: not UTF-8 text")):
        read_matrix(path)
    code = main(["score", "--checkpoint", _checkpoint(tmp_path), "--test", str(path),
                 "--out", str(tmp_path / "out.csv")])
    assert code == EXIT_DATA
    assert f"{path}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("read, raw", [
    (read_scores_csv, b"timestep,score\n0,1\xff\n"),
    (read_labels_csv, b"timestep,label\n0,\x9e1\n"),
    (is_manifest, b"chan_id,anomaly_sequences\nA-1,\"[[1, 2]]\"\xff\n"),
    (read_manifest, b"chan_id,anomaly_sequences\nA-\xe9,\"[[1, 2]]\"\n"),
    (parse_config_file, b"epochs = 2 # \xff\n"),
], ids=["scores", "labels", "is_manifest", "manifest", "config"])
def test_non_utf8_text_names_the_file(tmp_path, read, raw):
    path = tmp_path / "f.csv"
    path.write_bytes(raw)
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: not UTF-8 text")):
        read(path)


# ---------------------------------------------------------------------------
# a leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write it
# ---------------------------------------------------------------------------

BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("read, text", [
    (read_manifest, 'chan_id,spacecraft,anomaly_sequences\nA-1,SMAP,"[[1, 2]]"\n'),
    (is_manifest, 'chan_id,anomaly_sequences\nA-1,"[[1, 2]]"\n'),
    (is_manifest, "timestep,label\n0,1\n"),
    (read_labels_csv, "timestep,label\n3,0\n4,1\n"),
    (read_scores_csv, "timestep,score\n3,0.25\n4,1.5\n"),
    (read_matrix_csv, "f0,f1\n1.0,2.0\n3.0,4.0\n"),
    (parse_config_file, "epochs = 2\nwindow = 8\n"),
], ids=["manifest", "is_manifest", "is_labels", "labels", "scores", "matrix", "config"])
def test_byte_order_mark_is_skipped(tmp_path, read, text):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(BOM + text.encode())
    assert repr(read(marked)) == repr(read(plain))


def test_scores_with_a_byte_order_mark_exit_0(tmp_path):
    path = tmp_path / "s.csv"
    write_scores_csv(path, ScoreSequence(np.array([0.0, 1.0] * 8), 0))
    path.write_bytes(BOM + path.read_bytes())
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert main(["threshold", "--scores", str(path), "--method", "epsilon"]) == EXIT_OK


def test_non_utf8_labels_exit_2(tmp_path, capsys):
    scores, labels = tmp_path / "s.csv", tmp_path / "l.csv"
    write_scores_csv(scores, ScoreSequence(np.array([0.1, 0.9]), 0))
    write_labels_csv(labels, np.array([0, 1]))
    labels.write_bytes(labels.read_bytes() + b"\xff")
    code = main(["evaluate", "--scores", str(scores), "--labels", str(labels),
                 "--threshold", "0.5"])
    assert code == EXIT_DATA
    assert f"{labels}: not UTF-8 text" in capsys.readouterr().err
