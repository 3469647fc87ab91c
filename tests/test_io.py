"""Artifact readers: malformed files are bad input, never a crash, and a
numeric CSV body parses to the floats `csv.reader` + `float()` gave; a
`.npy` array reads back bit for bit, and one that is cut, damaged or of
another layout is bad input that names its file.
Artifact writers: byte-identical to per-row formatting through
`csv.writer` (to `np.save` for an array), and never leave a partial file
behind."""

import json
import math
import shutil
import tempfile
import tracemalloc
import warnings
from io import BytesIO
from pathlib import Path
from tokenize import TokenError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from hopperlab import experiments, io
from hopperlab.cli import main
from hopperlab.config import ExperimentConfig, config_to_text, with_values
from hopperlab.errors import MissingInputError
from hopperlab.estimation import EstimationSeries
from hopperlab.identification import TREATMENTS, fit_depth_speed_model
from hopperlab.simulator import Frames, NoiseConfig, run_constant_speed_intrusion

def _npy_bytes(array, allow_pickle=False) -> bytes:
    """`array` as `np.save` writes it."""
    buffer = BytesIO()
    np.save(buffer, array, allow_pickle=allow_pickle)
    return buffer.getvalue()


def _frames_array(t=(0.0, 0.001, 0.002, 0.003), nan_at=None) -> np.ndarray:
    """Frames at the times `t`, 0.5 in every other cell (NaN at the index `nan_at`)."""
    data = np.full((len(t), len(io.FRAME_COLUMNS)), 0.5)
    data[:, 0] = t
    if nan_at is not None:
        data[nan_at] = np.nan
    return data


def _grid_array(speeds=(0.01, 0.02), rows=7) -> np.ndarray:
    """A grid the rig fit reads and fits: `rows` samples at each speed, one
    repeat, on an 800 N/m bed without added mass."""
    return np.array([[v, 800.0 * v * k * 1e-3] for v in speeds for k in range(rows)])


# every reader of an artifact a sweep writes, with the columns of a text
# body of its kind; frames and the intrusion grid are `.npy` arrays, so any
# text body is bad input to their readers, as in a directory written before
# the arrays
READERS = {
    "frames": (io.read_frames_npy, io.FRAME_COLUMNS),
    "estimation": (io.read_estimation_csv, io.ESTIMATION_COLUMNS),
    "intrusion": (io.read_intrusion_npy, ("speed", "force_0")),
}
# the readers that parse a text body
TEXT_READERS = ("estimation",)

_number = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_junk = st.sampled_from(["", "abc", "1.0.0", "--1", "0x1p3", "1e", "é", ' "1" ', "nan?", '"1"', "1_0", "\u0663"])
_cell = st.one_of(_number, _number, _number, _junk)


@st.composite
def _csv_text(draw, columns):
    """A header (right, wrong or none) and rows of mostly numeric cells."""
    header = draw(st.sampled_from(["right", "wrong", "none"]))
    lines = []
    if header == "right":
        lines.append(",".join(columns))
    elif header == "wrong":
        lines.append(",".join(draw(st.lists(st.sampled_from(list(columns) + ["x"]), max_size=len(columns) + 1))))
    n_rows = draw(st.integers(0, 4))
    for _ in range(n_rows):
        width = draw(st.sampled_from([len(columns), len(columns), len(columns) - 1, len(columns) + 1, 0]))
        lines.append(",".join(draw(st.lists(_cell, min_size=width, max_size=width))))
    text = "\n".join(lines)
    if draw(st.booleans()):
        text += "\n"
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _read(reader, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.csv"
        path.write_text(text, encoding="utf-8")
        return reader(path)


def _number_cell(cell):
    """An ASCII cell without `_` that `float()` reads."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return float(cell)


def _well_formed(text, columns, kind, parsed=None):
    """A right header and rows of the right width whose cells at the indices
    `parsed` (default: every cell, the first always among them) are numbers;
    for a sampled series, at least two rows and a first column that
    increases by one period, each spacing within io.TIME_BASE_RTOL of the
    first; finite parsed cells, but for an estimation CSV's f_qs, which may
    also be NaN."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(columns) or len(lines) < 2:
        return False
    cells = [line.split(",") if line else [] for line in lines[1:]]
    if not all(len(row) == len(columns) for row in cells):
        return False
    try:
        # each row's parsed cells by their column index
        rows = [{i: _number_cell(row[i]) for i in parsed or range(len(columns))} for row in cells]
    except ValueError:
        return False
    nan_at = io.ESTIMATION_COLUMNS.index("f_qs") if kind == "estimation" else None
    if not all(math.isfinite(x) or (i == nan_at and math.isnan(x)) for row in rows for i, x in row.items()):
        return False
    return _one_period([row[0] for row in rows])


def _one_period(t):
    """At least two samples, and every spacing within io.TIME_BASE_RTOL of the first, relative."""
    spacing = [b - a for a, b in zip(t, t[1:])]
    period = spacing[0] if spacing else 0.0
    return period > 0.0 and all(abs(h - period) <= io.TIME_BASE_RTOL * period for h in spacing)


def _fuzz(kind, text):
    reader, columns = READERS[kind]
    try:
        result = _read(reader, text)
    except MissingInputError:
        assert not _well_formed(text, columns, kind)
        return
    assert _well_formed(text, columns, kind)
    n_rows = len(text.splitlines()) - 1
    assert _as_table(result).shape[0] == n_rows


@settings(max_examples=150, deadline=None)
@given(text=_csv_text(io.ESTIMATION_COLUMNS))
def test_fuzz_read_estimation_csv(text):
    _fuzz("estimation", text)


@pytest.mark.parametrize("column", io.ESTIMATION_COLUMNS)
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_estimation_reader_takes_a_nan_f_qs_only(tmp_path, column, cell):
    # f_qs is NaN at the leg's extension singularity; any other estimate,
    # truth cell or t that is not finite is bad input
    path = tmp_path / "estimation.csv"
    path.write_text(_estimation_cell(column, cell), encoding="utf-8")
    if column == "f_qs" and cell == "nan":
        est, _ = io.read_estimation_csv(path)
        assert np.isnan(est.f_qs[0]) and np.isfinite(est.f_qs[1:]).all()
    else:
        with pytest.raises(MissingInputError, match="estimation.csv"):
            io.read_estimation_csv(path)


# the cells of an estimation CSV that `io.write_reestimation_csv` carries: t and the truth
_CARRIED = (0, *range(len(io.ESTIMATOR_OUTPUTS), len(io.ESTIMATION_COLUMNS)))


@st.composite
def _estimation_text(draw):
    """An estimation CSV with t = 0, 1, ... ms, numbers in the estimate
    cells and finite ones in the truth cells, then maybe one cell replaced,
    or one row a cell longer or shorter."""
    n_rows = draw(st.integers(2, 4))
    rows = [
        [repr(i * 1e-3), *draw(st.lists(_number, min_size=6, max_size=6)), *draw(st.lists(_finite, min_size=5, max_size=5))]
        for i in range(n_rows)
    ]
    row = rows[draw(st.integers(0, n_rows - 1))]
    edit = draw(st.sampled_from(["none", "cell", "longer", "shorter"]))
    if edit == "cell":
        row[draw(st.integers(0, len(row) - 1))] = draw(_cell)
    elif edit == "longer":
        row.append(draw(_number))
    elif edit == "shorter":
        row.pop()
    return "\n".join([",".join(io.ESTIMATION_COLUMNS), *map(",".join, rows)]) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(_csv_text(io.ESTIMATION_COLUMNS), _estimation_text()))
def test_fuzz_reestimation_parses_only_the_carried_cells(text):
    # a file the model calls well formed when only t and the truth cells are
    # parsed is rewritten with those cells as written; any other raises
    # MissingInputError and is left as it was
    well_formed = _well_formed(text, io.ESTIMATION_COLUMNS, "estimation", parsed=_CARRIED)
    rows = [line.split(",") for line in text.splitlines()[1:]]
    t = np.array([float(row[0]) for row in rows] if well_formed else [0.0, 1e-3])
    est = EstimationSeries(t, *(np.full(t.size, 0.5) for _ in io.ESTIMATOR_OUTPUTS[1:]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.csv"
        path.write_text(text, encoding="utf-8")
        try:
            with io.replacing_together() as staged:
                io.write_reestimation_csv(path, est, staged)
        except MissingInputError:
            assert not well_formed
            assert path.read_text(encoding="utf-8") == text
            return
        written = path.read_text(encoding="utf-8").splitlines()
    assert well_formed
    assert written[0] == ",".join(io.ESTIMATION_COLUMNS) and len(written) == len(rows) + 1
    for row, line in zip(rows, written[1:]):
        cells = line.split(",")
        assert [cells[i] for i in _CARRIED] == [row[i] for i in _CARRIED]
        assert cells[1:len(io.ESTIMATOR_OUTPUTS)] == ["0.5"] * (len(io.ESTIMATOR_OUTPUTS) - 1)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reestimation_writes_what_write_estimation_csv_writes(data):
    # re-estimating a file this program wrote carries its t and truth cells
    # byte for byte: the file is the one write_estimation_csv writes from the
    # new estimates and the truth read back
    n = data.draw(st.integers(2, 40))
    t = np.arange(n) / data.draw(st.sampled_from([1000.0, 1500.0, 333.0]))
    values = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
    first, second = (
        EstimationSeries(t, *(np.array(data.draw(values)) for _ in io.ESTIMATOR_OUTPUTS[1:])) for _ in range(2)
    )
    truth = {name: np.array(data.draw(values)) for name in io.CARRIED_TRUTH}
    with tempfile.TemporaryDirectory() as tmp:
        path, expected = Path(tmp) / "carried.csv", Path(tmp) / "written.csv"
        io.write_estimation_csv(path, first, truth)
        _, parsed = io.read_estimation_csv(path)
        with io.replacing_together() as staged:
            io.write_reestimation_csv(path, second, staged)
        io.write_estimation_csv(expected, second, parsed)
        assert path.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("kind", sorted(READERS))
def test_reader_rejects_binary_garbage(tmp_path, kind):
    path = tmp_path / "artifact.csv"
    path.write_bytes(b"\xff\xfe\x00garbage\x00")
    with pytest.raises(MissingInputError):
        READERS[kind][0](path)


def _rows(columns, n=3):
    """Rows every reader accepts: t = 0, 1, 2 ms, then one value per column
    (0.1 in the second; an integer phase_id)."""
    values = [("0.1", "-2.5e-07", "1e+16", "3.0")[j % 4] for j in range(len(columns) - 1)]
    values = ["2.0" if name == "phase_id" else v for name, v in zip(columns[1:], values)]
    return [[repr(i * 1e-3)] + values for i in range(n)]


def _text(columns, rows, end="\n", sep=","):
    return end.join([",".join(columns), *(sep.join(row) for row in rows)]) + end


def _with_cell(cell):
    """Rows whose second cell of the first row is `cell`."""
    def body(columns):
        rows = _rows(columns)
        rows[0][1] = cell
        return _text(columns, rows)
    return body


def _with_line(line, at):
    def body(columns):
        lines = _text(columns, _rows(columns)).split("\n")
        lines.insert(at, line)
        return "\n".join(lines)
    return body


# bodies that were bad input with csv.reader + float() and still are (to
# the `.npy` readers, every text body is)
_BAD_BODIES = {
    "blank line in the middle": _with_line("", 2),
    "blank line at the end": lambda columns: _text(columns, _rows(columns)) + "\n",
    "trailing comma": lambda columns: _text(columns, [row + [""] for row in _rows(columns)]),
    "empty cell": _with_cell(""),
    "comment line": _with_line("# a comment", 2),
    "# in a cell": _with_cell("0.1#"),
    "hex cell": _with_cell("0x10"),
    "NUL byte": _with_cell("0.1\x00"),
    "non-UTF-8 byte": _with_cell("0.1\udcff"),
    "header only": lambda columns: ",".join(columns) + "\n",
    "empty file": lambda columns: "",
    "short row": lambda columns: _text(columns, [row[:-1] for row in _rows(columns)]),
    "; delimiter": lambda columns: _text(columns, _rows(columns), sep=";"),
}

# bodies that parse to the same floats as with csv.reader + float()
_SAME_BODIES = {
    "LF": lambda columns: _text(columns, _rows(columns)),
    "CR": lambda columns: _text(columns, _rows(columns), end="\r"),
    "CRLF": lambda columns: _text(columns, _rows(columns), end="\r\n"),
    "spaces and tabs around a cell": lambda columns: _text(columns, [[f" {c}\t " for c in row] for row in _rows(columns)]),
}

# bodies csv.reader + float() read that numpy's parser rejects: (body, the value read at row 0, column 1)
_NOW_BAD_BODIES = {
    "quoted cell": (_with_cell('"0.0"'), 0.0),
    "underscore in a cell": (_with_cell("1_0"), 10.0),
    "non-ASCII digit": (_with_cell("\u0663"), 3.0),
    "quoted header cell": (lambda columns: f'"{columns[0]}"' + _text(columns, _rows(columns))[len(columns[0]):], 0.1),
}


def _write_body(path, text):
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def _as_table(result):
    """The estimation reader's result as the CSV's columns, in file order."""
    est, truth = result
    cols = [getattr(est, name) for name in io.ESTIMATOR_OUTPUTS] + [truth[name] for name in io.CARRIED_TRUTH]
    return np.column_stack([np.asarray(col, dtype=float) for col in cols])


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("case", list(_BAD_BODIES))
def test_reader_contract_bad_input(tmp_path, kind, case):
    reader, columns = READERS[kind]
    path = tmp_path / "artifact.csv"
    _write_body(path, _BAD_BODIES[case](columns))
    with pytest.raises(MissingInputError):
        reference.read_csv(path, columns)
    with pytest.raises(MissingInputError):
        reader(path)


@pytest.mark.parametrize("kind", TEXT_READERS)
@pytest.mark.parametrize("case", list(_SAME_BODIES))
def test_reader_contract_same_floats(tmp_path, kind, case):
    reader, columns = READERS[kind]
    path = tmp_path / "artifact.csv"
    _write_body(path, _SAME_BODIES[case](columns))
    expected = reference.read_csv(path, columns)
    assert expected.shape == (3, len(columns))
    assert np.array_equal(_as_table(reader(path)).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("case", list(_NOW_BAD_BODIES))
def test_reader_contract_changes(tmp_path, kind, case):
    # csv.reader unquoted cells and float() reads "1_0" as 10.0 and any
    # Unicode digit; numpy's parser takes none of them: they are bad input
    # (and to the `.npy` readers, so is any text)
    reader, columns = READERS[kind]
    body, value = _NOW_BAD_BODIES[case]
    path = tmp_path / "artifact.csv"
    _write_body(path, body(columns))
    assert reference.read_csv(path, columns)[0, 1] == value
    with pytest.raises(MissingInputError):
        reader(path)


@pytest.mark.parametrize("kind", TEXT_READERS)
def test_reader_takes_ascii_separators_as_whitespace(tmp_path, kind):
    # numpy strips \x1c-\x1f around a cell as whitespace; float() did not
    reader, columns = READERS[kind]
    path = tmp_path / "artifact.csv"
    _write_body(path, _with_cell("0.1\x1c")(columns))
    with pytest.raises(MissingInputError):
        reference.read_csv(path, columns)
    assert _as_table(reader(path))[0, 1] == 0.1


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e16, -1e16,
                   1.7976931348623157e308, math.inf, -math.inf, math.nan]
_float64 = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_numeric_csv_matches_csv_writer_and_reads_back_bit_for_bit(data):
    n_rows = data.draw(st.integers(0, 30))
    columns = [np.array(data.draw(st.lists(_float64, min_size=n_rows, max_size=n_rows)), dtype=float)
               for _ in range(data.draw(st.integers(1, 5)))]
    header = tuple("abcde"[: len(columns)])
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
        io.write_columns_csv(new, header, columns)
        reference.write_columns_csv(ref, header, columns)
        assert new.read_bytes() == ref.read_bytes()
        if n_rows == 0:
            return
        back = io._read_csv(new, header, "test")
    written = np.column_stack(columns)
    nan = np.isnan(written)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back.view(np.int64)[~nan], written.view(np.int64)[~nan])


def test_string_table_matches_csv_writer(tmp_path):
    # identify's string tables (fits.csv, stiffness_vs_*.csv): no treatment
    # name or seed needs quoting, so joining the cells is what csv.writer writes
    header = ("v_td", "k_c", "treatment", "k_est", "seed")
    rows = [[io.fmt_float(1.2), io.fmt_float(3.75), name, io.fmt_float(801.5), str(seed)]
            for name in TREATMENTS for seed in (0, 17)]
    io.write_csv(tmp_path / "new.csv", header, rows)
    reference.write_rows(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _npy_model(blob, kind):
    """The array in `blob` when the reader of `kind` must take it, read
    another way (the header from memory, the body by `np.frombuffer`); None
    when it is bad input: no version 1.0 `.npy` header (one numpy reads
    only by its retry of a Python 2 header, which warns, included), not a
    little-endian float64 array in C order with two axes, no row, the wrong
    width (frames: 8 columns; a grid: at least 2), a byte more or fewer
    than the shape needs, a cell that is not finite, or for frames a `t` not
    of one period, for a grid a speed below the row before it."""
    buffer = BytesIO(blob)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            if np.lib.format.read_magic(buffer) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(buffer)
    except (ValueError, SyntaxError, TypeError, TokenError, UserWarning):
        return None
    frames = kind == "frames"
    if (
        dtype != np.dtype("<f8") or fortran_order or len(shape) != 2 or shape[0] < 1
        or not (shape[1] == len(io.FRAME_COLUMNS) if frames else shape[1] >= 2)
        or len(blob) - buffer.tell() != 8 * shape[0] * shape[1]
    ):
        return None
    data = np.frombuffer(blob, dtype="<f8", offset=buffer.tell()).reshape(shape)
    if not np.isfinite(data).all():
        return None
    speed = data[:, 0].tolist()
    ordered = _one_period(speed) if frames else all(b >= a for a, b in zip(speed, speed[1:]))
    return data if ordered else None


def _npy_table(kind, result):
    """A `.npy` reader's result as the array's columns, in file order."""
    if kind == "frames":
        return np.column_stack([getattr(result, name) for name in io.FRAME_COLUMNS])
    return np.vstack([np.column_stack([np.full(log.t.size, log.speed), log.force.T]) for log in result])


@st.composite
def _npy_blob(draw, kind):
    """A `.npy` file near one the reader of `kind` takes: mostly the right
    layout, with a `t` of one period (frames) or rising speeds (a grid of 0
    to 3 repeats), then maybe a cell, the dtype, the shape or the order
    changed, and maybe the bytes cut, one byte flipped or bytes appended."""
    n = draw(st.integers(0, 5))
    if kind == "frames":
        data = np.full((n, len(io.FRAME_COLUMNS)), 0.5)
        data[:, 0] = np.arange(n) / draw(st.sampled_from([1000.0, 1500.0]))
    else:
        data = np.full((n, draw(st.integers(1, 4))), 0.5)
        data[:, 0] = sorted(draw(st.lists(st.sampled_from([0.01, 0.02, 0.5]), min_size=n, max_size=n)))
    if n and draw(st.booleans()):
        data[draw(st.integers(0, n - 1)), draw(st.integers(0, data.shape[1] - 1))] = draw(_float64)
    layout = draw(st.sampled_from(["right"] * 4 + ["<f4", ">f8", "<i8", "one axis", "three axes", "wider", "fortran"]))
    if layout.startswith(("<", ">")):
        with np.errstate(invalid="ignore", over="ignore"):  # a NaN, inf or huge cell cast to int64 or float32
            data = data.astype(layout)
    elif layout == "one axis":
        data = data.ravel()
    elif layout == "three axes":
        data = data[..., None]
    elif layout == "wider":
        data = np.column_stack([data, data[:, -1:]])
    elif layout == "fortran":
        data = np.asfortranarray(data)
    blob = _npy_bytes(data)
    edit = draw(st.sampled_from(["none"] * 3 + ["cut", "flip", "append"]))
    if edit == "cut":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif edit == "flip":
        at = draw(st.integers(0, len(blob) - 1))
        blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    elif edit == "append":
        blob += draw(st.binary(min_size=1, max_size=9))
    return blob


def _fuzz_npy(kind, blob):
    expected = _npy_model(blob, kind)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.npy"
        path.write_bytes(blob)
        try:
            result = READERS[kind][0](path)
        except MissingInputError as exc:
            assert expected is None
            assert str(path) in str(exc)
            return
    assert expected is not None
    assert np.array_equal(_npy_table(kind, result).view(np.int64), expected.view(np.int64))


def _flipped(blob: bytes, at: int, byte: bytes) -> bytes:
    return blob[:at] + byte + blob[at + 1:]


# one header byte changed, on which numpy's parse raises other errors than
# ValueError: a SyntaxError ('<f8' made ',f8') and a TypeError (the space
# before 'fortran_order' made b, a bytes key beside str ones)
@settings(max_examples=300, deadline=None)
@given(blob=_npy_blob("frames"))
@example(blob=_flipped(_npy_bytes(_frames_array()), 21, b","))
@example(blob=_flipped(_npy_bytes(_frames_array()), 26, b"b"))
def test_fuzz_read_frames_npy(blob):
    _fuzz_npy("frames", blob)


@settings(max_examples=300, deadline=None)
@given(blob=_npy_blob("intrusion"))
def test_fuzz_read_intrusion_npy(blob):
    _fuzz_npy("intrusion", blob)


def _with_t(data, t):
    data = data.copy()
    data[:, 0] = t
    return data


def _pickled(data):
    return _npy_bytes(np.array([data, "x"], dtype=object), allow_pickle=True)


def _past_its_body(data):
    """`data` under a header of 10^15 rows: np.load would allocate them first."""
    header = BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": "<f8", "fortran_order": False, "shape": (10**15, data.shape[1])})
    return header.getvalue() + data.tobytes()


# a good `.npy` file of each kind: a hop's 4 frames, a grid of two speeds
_GOOD = {"frames": _frames_array(), "intrusion": _grid_array()}
# bad `.npy` files, made from the good array of a kind: name -> (kinds, the
# files); None is no file at all
_BAD_ARRAYS = {
    "cut in the header": (("frames", "intrusion"), lambda data: [
        _npy_bytes(data)[:at] for at in range(len(_npy_bytes(data)) - data.nbytes + 1)
    ]),
    # a cut of 1 byte to all the body but 1: some at the ends of a cell or a row, some at random
    "cut in the body": (("frames", "intrusion"), lambda data: [
        _npy_bytes(data)[:-cut] for cut in (1, 7, 8, 9, 8 * data.shape[1], data.nbytes - 1,
                                            *np.random.default_rng(0).integers(1, data.nbytes, 6).tolist())
    ]),
    "a header byte flipped": (("frames", "intrusion"), lambda data: [
        blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]
        for blob in [_npy_bytes(data)] for at in range(len(blob) - data.nbytes)
    ]),
    "a byte appended": (("frames", "intrusion"), lambda data: [_npy_bytes(data) + b"\n"]),
    "a shape past its body": (("frames", "intrusion"), lambda data: [_past_its_body(data)]),
    "float32": (("frames", "intrusion"), lambda data: [_npy_bytes(data.astype("<f4"))]),
    "big-endian float64": (("frames", "intrusion"), lambda data: [_npy_bytes(data.astype(">f8"))]),
    "int64": (("frames", "intrusion"), lambda data: [_npy_bytes(np.round(data * 1000).astype("<i8"))]),
    "one axis": (("frames", "intrusion"), lambda data: [_npy_bytes(data.ravel())]),
    "three axes": (("frames", "intrusion"), lambda data: [_npy_bytes(data[..., None]), _npy_bytes(data[None])]),
    "a column short": (("frames", "intrusion"), lambda data: [_npy_bytes(np.ascontiguousarray(data[:, :-1]))]),
    "a column more": (("frames",), lambda data: [_npy_bytes(np.column_stack([data, data[:, -1]]))]),
    "Fortran order": (("frames", "intrusion"), lambda data: [_npy_bytes(np.asfortranarray(data))]),
    "zero rows": (("frames", "intrusion"), lambda data: [_npy_bytes(data[:0])]),
    "a non-finite cell": (("frames", "intrusion"), lambda data: [
        _npy_bytes(np.where(np.arange(data.size).reshape(data.shape) == data.size - 1, cell, data))
        for cell in (np.nan, np.inf, -np.inf)
    ]),
    "t not one period": (("frames",), lambda data: [
        _npy_bytes(_with_t(data, t)) for t in ([0.0, 0.001, 0.002, 0.004], [0.0, 0.0, 0.0, 0.0], [0.003, 0.002, 0.001, 0.0])
    ]),
    "one frame": (("frames",), lambda data: [_npy_bytes(data[:1])]),
    "speeds that fall": (("intrusion",), lambda data: [
        _npy_bytes(np.concatenate([data[7:], data[:7]])), _npy_bytes(_with_t(data, data[::-1, 0]))
    ]),
    "a pickled object array": (("frames", "intrusion"), lambda data: [_pickled(data)]),
    "missing": (("frames", "intrusion"), lambda data: [None]),
}
_BAD_ARRAY_CASES = [(kind, case) for case, (kinds, _) in _BAD_ARRAYS.items() for kind in kinds]


def _bad_files(kind, case):
    return _BAD_ARRAYS[case][1](_GOOD[kind])


def _put(path, blob):
    """`blob` as the file at `path`, or no file there for None."""
    if blob is None:
        path.unlink(missing_ok=True)
    else:
        path.write_bytes(blob)


@pytest.mark.parametrize(("kind", "case"), _BAD_ARRAY_CASES)
def test_a_bad_array_is_bad_input_naming_the_file(tiny_sweep, tmp_path, capsys, kind, case):
    # the reader refuses it; report reads its representative hop's frames
    # back, and identify checks the grid (its fit records the grid the sweep
    # wrote) and loads it: each exits 4, names the file and writes nothing
    cfg, sweep = tiny_sweep
    out = shutil.copytree(sweep, tmp_path / "out")
    command, path = {
        "frames": ("report", out / "hop_v0.50_kc3.75_s0_frames.npy"),
        "intrusion": ("identify", out / "intrusion_grid.npy"),
    }[kind]
    _put(path, _npy_bytes(_GOOD[kind]))
    assert np.array_equal(_npy_table(kind, READERS[kind][0](path)), _GOOD[kind])
    for blob in _bad_files(kind, case):
        _put(path, blob)
        with pytest.raises(MissingInputError) as caught:
            READERS[kind][0](path)
        assert str(path) in str(caught.value)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
        assert str(path) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_intrusion_header_only_is_missing_input(tmp_path):
    # a grid of three repeats whose header names no row
    path = tmp_path / "intrusion_grid.npy"
    path.write_bytes(_npy_bytes(np.empty((0, 4))))
    with pytest.raises(MissingInputError, match="at least one row"):
        io.read_intrusion_npy(path)


def test_malformed_events_json_is_missing_input(tmp_path):
    path = tmp_path / "e.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MissingInputError):
        io.read_events_json(path)
    path.write_text('{"t_td": 0.1}', encoding="utf-8")
    with pytest.raises(MissingInputError):
        io.read_events_json(path)


@pytest.mark.parametrize("body", ["empty", "header-only", "non-numeric"])
def test_cli_estimate_malformed_frames_exit_code(tmp_path, body, capsys):
    out = tmp_path / "out"
    out.mkdir()
    frames = _npy_bytes(_frames_array())
    blob = {
        "empty": b"",
        # the header of a 4-row array, and none of its rows
        "header-only": frames[: len(frames) - _frames_array().nbytes],
        "non-numeric": _npy_bytes(np.full((4, len(io.FRAME_COLUMNS)), "oops")),
    }[body]
    path = out / "hop_v1.00_kc3.75_s0_frames.npy"
    path.write_bytes(blob)
    cfg = tmp_path / "c.ini"
    cfg.write_text("", encoding="utf-8")
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 4
    assert str(path) in capsys.readouterr().err


_HOP = "hop_v0.80_kc3.75_s0"
_HOP_FILES = {"frames": f"{_HOP}_frames.npy", "events": f"{_HOP}_events.json", "estimation": f"{_HOP}_estimation.csv"}
_HOP_ENTRY = {"trial_id": _HOP, "kind": "hop", "speed": 0.8, "k_c_n_per_cm": 3.75, "seed": 0, "paths": _HOP_FILES}
_EVENTS = {"t_td": 0.001, "t_ce": 0.002, "t_lo": 0.003, "v_td": 0.8}


def _series(columns, times):
    """A CSV with the given time column and 0.5 in every other cell."""
    rows = [",".join([repr(t)] + ["0.5"] * (len(columns) - 1)) for t in times]
    return "\n".join([",".join(columns), *rows]) + "\n"


_GRID_ENTRY = {"trial_id": "intrusion_grid", "kind": "intrusion", "paths": {"log": "intrusion_grid.npy"}}
_GRID = _npy_bytes(_grid_array())


def _write_files(directory, files):
    """Each of `files` (name -> text, or bytes) into `directory`."""
    for name, content in files.items():
        if isinstance(content, bytes):
            (directory / name).write_bytes(content)
        else:
            (directory / name).write_text(content, encoding="utf-8")


def _manifest_text(entries):
    """A manifest of `entries`, recording the default config: that of the
    empty config file each case runs its command under."""
    return json.dumps({"config": config_to_text(ExperimentConfig()), "entries": entries})


def _manifest(**changes):
    """A manifest of one hop, its entry changed as given (a value of None
    removes the key), and the intrusion grid."""
    entry = {key: value for key, value in {**_HOP_ENTRY, **changes}.items() if value is not None}
    return {"manifest.json": _manifest_text([entry, _GRID_ENTRY])}


def _hop_trial(estimation_times=(0.0, 0.001, 0.002, 0.003), **events):
    return {
        **_manifest(),
        _HOP_FILES["events"]: json.dumps({**_EVENTS, **events}),
        _HOP_FILES["estimation"]: _series(io.ESTIMATION_COLUMNS, estimation_times),
        "intrusion_grid.npy": _GRID,
    }


def _estimation_cell(column, cell):
    """The estimation CSV of `_hop_trial` with `cell` in `column` of its first row."""
    lines = _series(io.ESTIMATION_COLUMNS, [0.0, 0.001, 0.002, 0.003]).split("\n")
    cells = lines[1].split(",")
    cells[io.ESTIMATION_COLUMNS.index(column)] = cell
    lines[1] = ",".join(cells)
    return "\n".join(lines)


_FIT = {"k_fit": 800.0, "m_a_inf_fit": 0.15, "z_c_fit": 0.015, "rmse": 0.1, "n_samples": 10}


def _report_inputs(fit):
    """A hop trial that `report` can use, and `fit` as its depth_speed_fit.json."""
    return {
        **_hop_trial(),
        _HOP_FILES["frames"]: _npy_bytes(_frames_array()),
        "depth_speed_fit.json": json.dumps(fit),
    }


# parseable artifacts whose content cannot be used: (command, files)
_DEGENERATE = {
    "one-row frames": ("estimate", {_HOP_FILES["frames"]: _npy_bytes(_frames_array(t=[0.0]))}),
    "repeated frame time": ("estimate", {_HOP_FILES["frames"]: _npy_bytes(_frames_array(t=[0.0, 0.0]))}),
    # a dropped sample: the filter and the observer run at one period, t[1] - t[0]
    "uneven frame period": ("estimate", {_HOP_FILES["frames"]: _npy_bytes(_frames_array(t=[0.0, 0.001, 0.002, 0.004]))}),
    # the first row's loadcell_force (its last cell) is NaN
    "non-finite frame cell": ("estimate", {_HOP_FILES["frames"]: _npy_bytes(_frames_array(nan_at=(0, -1)))}),
    "one-row estimation": ("identify", _hop_trial(estimation_times=[0.0])),
    "non-numeric event time": ("identify", _hop_trial(t_td="x")),
    "infinite event time": ("identify", _hop_trial(t_lo=float("inf"))),
    "entry without kind": ("identify", _manifest(kind=None)),
    "entry with a list for kind": ("identify", _manifest(kind=["hop"])),
    "entry without paths": ("identify", _manifest(paths=None)),
    "entry without speed": ("identify", _manifest(speed=None)),
    # a hop's speed and stiffness are finite numbers and its seed an integer,
    # or identify would write them into its report
    "entry with a word for speed": ("identify", {**_hop_trial(), **_manifest(speed="fast")}),
    "entry with a list for seed": ("identify", {**_hop_trial(), **_manifest(seed=[1])}),
    "entry with a list for trial_id": ("identify", {**_hop_trial(), **_manifest(trial_id=[_HOP])}),
    "fit without m_a_inf_fit": ("report", _report_inputs({k: v for k, v in _FIT.items() if k != "m_a_inf_fit"})),
    "fit a JSON list": ("report", _report_inputs(list(_FIT.values()))),
    "fit value not a number": ("report", _report_inputs({**_FIT, "z_c_fit": "0.015"})),
    "fit z_c zero": ("report", _report_inputs({**_FIT, "z_c_fit": 0.0})),
    "fit z_c negative": ("report", _report_inputs({**_FIT, "z_c_fit": -0.01})),
    "fit z_c above the box": ("report", _report_inputs({**_FIT, "z_c_fit": 1.5})),
    "fit k negative": ("report", _report_inputs({**_FIT, "k_fit": -800.0})),
    # in the fit's box, but no ground truth: no bed to draw the force map of
    "fit k zero": ("report", _report_inputs({**_FIT, "k_fit": 0.0})),
    "fit m_a_inf negative": ("report", _report_inputs({**_FIT, "m_a_inf_fit": -0.15})),
    # the first row's f_true (its last cell) is NaN: only an estimate may be
    "nan truth cell": ("identify", {
        **_hop_trial(),
        _HOP_FILES["estimation"]: _series(io.ESTIMATION_COLUMNS, [0.0, 0.001, 0.002, 0.003]).replace("0.5\n", "nan\n", 1),
    }),
    # only f_qs may be NaN (the leg's extension singularity): a NaN v_f_hat
    # left identify no stance weights, and a NaN f_mo was dropped from the fit
    "nan v_f_hat": ("identify", {**_hop_trial(), _HOP_FILES["estimation"]: _estimation_cell("v_f_hat", "nan")}),
    "nan f_mo": ("identify", {**_hop_trial(), _HOP_FILES["estimation"]: _estimation_cell("f_mo", "nan")}),
    "infinite f_qs": ("identify", {**_hop_trial(), _HOP_FILES["estimation"]: _estimation_cell("f_qs", "inf")}),
    # the events `detect_events` finds hold t[0] <= t_td < t_ce < t_lo <= t[-1]:
    # touchdown and liftoff swapped, or liftoff past the hop's last sample
    "events out of order": ("identify", _hop_trial(t_td=0.003, t_lo=0.001)),
    "liftoff past the hop's t": ("identify", _hop_trial(t_lo=60.0)),
    # a directory of the layout before the intrusion grid: one log per (speed, repeat)
    "per-run intrusion log": ("identify", {
        **_hop_trial(),
        "manifest.json": _manifest_text([
            {"trial_id": "intr_v0.5000_r0", "kind": "intrusion", "speed": 0.5, "repeat": 0,
             "paths": {"log": "intr_v0.5000_r0.csv"}},
            _HOP_ENTRY,
        ]),
        "intr_v0.5000_r0.csv": "t,depth,speed,force\n0.0,0.0,0.5,0.0\n0.001,0.0005,0.5,1.0\n",
    }),
    "entry path with a directory": ("identify", {
        **_hop_trial(),
        **_manifest(paths={**_HOP_FILES, "events": f"../{_HOP}_events.json"}),
        f"../{_HOP}_events.json": json.dumps(_EVENTS),
    }),
}


_FIT_FILE, _ENTRY = "depth_speed_fit.json", "manifest entry"
# what each case breaks, which stderr must name: the exit code alone does
# not show which check refused the input
_BROKEN = {
    "one-row frames": _HOP_FILES["frames"],
    "repeated frame time": _HOP_FILES["frames"],
    "uneven frame period": _HOP_FILES["frames"],
    "non-finite frame cell": _HOP_FILES["frames"],
    "one-row estimation": _HOP_FILES["estimation"],
    "non-numeric event time": _HOP_FILES["events"],
    "infinite event time": _HOP_FILES["events"],
    "entry without kind": _ENTRY,
    "entry with a list for kind": _ENTRY,
    "entry without paths": _ENTRY,
    "entry without speed": _ENTRY,
    "entry with a word for speed": _ENTRY,
    "entry with a list for seed": _ENTRY,
    "entry with a list for trial_id": _ENTRY,
    "fit without m_a_inf_fit": _FIT_FILE,
    "fit a JSON list": _FIT_FILE,
    "fit value not a number": _FIT_FILE,
    "fit z_c zero": _FIT_FILE,
    "fit z_c negative": _FIT_FILE,
    "fit z_c above the box": _FIT_FILE,
    "fit k negative": _FIT_FILE,
    "fit k zero": _FIT_FILE,
    "fit m_a_inf negative": _FIT_FILE,
    "nan truth cell": _HOP_FILES["estimation"],
    "nan v_f_hat": _HOP_FILES["estimation"],
    "nan f_mo": _HOP_FILES["estimation"],
    "infinite f_qs": _HOP_FILES["estimation"],
    "events out of order": _HOP_FILES["events"],
    "liftoff past the hop's t": _HOP_FILES["events"],
    "per-run intrusion log": "intr_v0.5000_r0.csv",
    "entry path with a directory": _ENTRY,
}


@pytest.mark.parametrize("case", list(_DEGENERATE))
def test_cli_degenerate_artifact_exit_code(tmp_path, case, capsys):
    command, files = _DEGENERATE[case]
    out = tmp_path / "out"
    out.mkdir()
    _write_files(out, files)
    cfg = tmp_path / "c.ini"
    cfg.write_text("", encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    assert _BROKEN[case] in capsys.readouterr().err


@pytest.mark.parametrize("case", [case for case in _DEGENERATE if case.startswith("fit ")])
def test_report_on_unusable_fit_leaves_no_stale_residual(tmp_path, case):
    # the rig fit is the report's ground truth: without a usable one, report
    # writes nothing, so it neither rewrites the residual of an earlier fit
    # nor writes a force map beside it
    _, files = _DEGENERATE[case]
    _write_files(tmp_path, {**files, "added_mass_residual.csv": "t,residual,predicted\n0.0,1.0,1.0\n"})
    cfg = tmp_path / "c.ini"
    cfg.write_text("", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("case", ["entry with a word for speed", "entry with a list for seed"])
def test_identify_rejects_a_mistyped_entry_before_writing(tmp_path, case):
    _, files = _DEGENERATE[case]
    _write_files(tmp_path, files)
    cfg = tmp_path / "c.ini"
    cfg.write_text("", encoding="utf-8")
    assert main(["identify", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*files, "c.ini"])


def test_a_1500_hz_time_base_reads(tmp_path):
    # t = k / rate is uneven by a few ulps at a rate that is not a power of two
    t = np.arange(3000) / 1500.0
    assert np.ptp(np.diff(t)) > 0.0
    path = tmp_path / "frames.npy"
    io.write_frames_npy(path, Frames(t, *[np.full(t.size, 0.5)] * (len(io.FRAME_COLUMNS) - 1)))
    assert np.array_equal(io.read_frames_npy(path).t, t)


def _rowwise_csv(path, header, rows):
    """The per-row formatting the column writers must reproduce byte for byte."""
    reference.write_rows(path, header, ([io.fmt_float(v) for v in row] for row in rows))


def test_column_writers_match_rowwise_formatting(tmp_path, noisy_trial, terrain):
    from hopperlab.terrain import force_map

    # the truth log, whose phase_id column holds ints
    truth = noisy_trial.truth
    truth_columns = tuple(vars(truth))
    cols = list(vars(truth).values())
    assert truth.phase_id.dtype.kind == "i"
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    io.write_columns_csv(new, truth_columns, cols)
    _rowwise_csv(ref, truth_columns, [[col[i] for col in cols] for i in range(len(truth))])
    assert new.read_bytes() == ref.read_bytes()

    depths, speeds = np.linspace(0.0, 0.05, 7), np.array([0.1, 0.5, 1.1])
    surface = force_map(terrain, depths, speeds)
    io.write_force_map_csv(tmp_path / "new.csv", depths, speeds, surface)
    _rowwise_csv(tmp_path / "ref.csv", ("depth", "speed", "force"),
                 [[d, s, surface[i, j]] for i, d in enumerate(depths) for j, s in enumerate(speeds)])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_force_map_writer_formats_each_axis_once_to_the_same_bytes(tmp_path, terrain):
    # the report's grid: 51 depths x 50 speeds, against the column writer
    # fed every grid point's depth and speed
    from hopperlab.terrain import force_map

    config = ExperimentConfig()
    depths = np.linspace(0.0, config.sweep.intrusion_z_max, 51)
    speeds = np.asarray(config.sweep.intrusion_speeds())
    surface = force_map(terrain, depths, speeds)
    io.write_force_map_csv(tmp_path / "new.csv", depths, speeds, surface)
    columns = [np.repeat(depths, len(speeds)), np.tile(speeds, len(depths)), np.ravel(surface)]
    io.write_columns_csv(tmp_path / "ref.csv", ("depth", "speed", "force"), columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    for bad in (surface[:, :-1], surface[:-1], surface.ravel()[:-1]):
        with pytest.raises(ValueError, match="forces for"):
            io.write_force_map_csv(tmp_path / "bad.csv", depths, speeds, bad)
    assert not (tmp_path / "bad.csv").exists()


def test_column_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        io.write_columns_csv(tmp_path / "x.csv", ("a", "b"), [[1.0, 2.0], [1.0]])
    assert list(tmp_path.iterdir()) == []


def test_intrusion_writer_rejects_ragged_log(tmp_path):
    # a force that is not one row per repeat, or a record with another
    # number of repeats than the first
    from hopperlab.simulator import IntrusionLog

    log = IntrusionLog(speed=0.5, force=np.zeros((2, 3)))
    for logs in (
        [IntrusionLog(speed=0.5, force=np.zeros(3))],
        [IntrusionLog(speed=0.5, force=np.zeros((2, 3, 1)))],
        [log, IntrusionLog(speed=0.6, force=np.zeros((1, 3)))],
        [log, IntrusionLog(speed=0.6, force=np.zeros((3, 3)))],
    ):
        with pytest.raises(ValueError):
            io.write_intrusion_npy(tmp_path / "x.npy", logs)
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def default_grid(tmp_path_factory):
    """The default config's intrusion grid: its logs and the file written."""
    config = ExperimentConfig()
    path = tmp_path_factory.mktemp("grid") / "intrusion_grid.npy"
    return config, experiments.write_intrusion_grid(config, path)[0], path


@pytest.mark.parametrize("repeats", [1, 3])
def test_intrusion_grid_reads_back_as_the_rig_ran_it(tmp_path, repeats):
    # every speed's record, in the order the fit takes them, bit for bit
    config = with_values(ExperimentConfig(), "sweep", intrusion_repeats=repeats)
    sweep = config.sweep
    experiments.write_intrusion_grid(config, tmp_path / "intrusion_grid.npy")
    logs = io.read_intrusion_npy(tmp_path / "intrusion_grid.npy")
    expected = [
        run_constant_speed_intrusion(speed, sweep.intrusion_z_max, config.terrain, noise_config=config.noise,
                                     seeds=[[repeat, int(round(speed * 1e6))] for repeat in range(repeats)])
        for speed in sweep.intrusion_speeds()
    ]
    assert len(logs) == len(expected) == sweep.intrusion_speed_count
    for got, want in zip(logs, expected):
        assert got.speed == want.speed and got.force.shape == (repeats, want.t.size)
        for name in ("t", "depth", "force"):
            assert np.array_equal(getattr(got, name).view(np.int64), getattr(want, name).view(np.int64)), name


@settings(max_examples=40, deadline=None)
@given(
    speeds=st.lists(
        st.one_of(st.floats(0.01, 1.5), st.integers(10, 1500).map(lambda i: i / 1000)), min_size=1, max_size=3,
        unique=True,
    ).map(sorted),
    repeats=st.integers(1, 3),
    z_max=st.one_of(st.floats(1e-3, 0.05), st.integers(1, 50).map(lambda i: i / 1000)),
    noisy=st.booleans(),
)
@example(speeds=[0.05], repeats=1, z_max=0.02, noisy=False)
def test_intrusion_grid_rebuilds_the_rig_bit_for_bit(speeds, repeats, z_max, noisy):
    # the grid holds only the speeds and forces: the reader rebuilds each
    # record's commanded t and depth from them, as the rig made them, and the
    # writer hashes the bytes it wrote
    noise = NoiseConfig(enabled=noisy)
    terrain = ExperimentConfig().terrain
    logs = [
        run_constant_speed_intrusion(speed, z_max, terrain, noise_config=noise, seeds=[[r, i] for r in range(repeats)])
        for i, speed in enumerate(speeds)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "intrusion_grid.npy"
        assert io.write_intrusion_npy(path, logs) == io.file_sha256(path)
        back = io.read_intrusion_npy(path)
    assert len(back) == len(logs)
    for got, want in zip(back, logs):
        assert got.speed == want.speed
        for name in ("t", "depth", "force"):
            assert np.array_equal(getattr(got, name).view(np.int64), getattr(want, name).view(np.int64)), name
        # the depth is not clamped to z_max: only the rounding of the sample
        # count and of speed * t puts the last sample above it
        assert want.depth[-1] <= z_max + 4 * np.spacing(z_max)


def test_rig_depth_at_a_whole_number_of_steps_is_1_ulp_above_z_max(terrain):
    # 0.02 m at 0.05 m/s is 400 steps of 1 ms: the 401st sample's depth,
    # not clamped to z_max, rounds 1 ulp above it
    log = run_constant_speed_intrusion(0.05, 0.02, terrain, NoiseConfig.noiseless(), seeds=[0])
    assert log.t.size == 401
    assert log.depth[-1] == np.nextafter(0.02, 1.0)


def test_intrusion_grid_cells_are_each_logs_cells(default_grid):
    # the streamed writer writes the bytes np.save writes for the whole
    # array: each record's rows, its speed then each repeat's force
    config, logs, path = default_grid
    rows = np.load(path, allow_pickle=False)
    assert rows.shape == (sum(log.t.size for log in logs), 1 + config.sweep.intrusion_repeats)
    whole = []
    for log in logs:
        n = log.t.size
        block, rows = rows[:n], rows[n:]
        assert set(block[:, 0].tolist()) == {log.speed}
        assert np.array_equal(block[:, 1:].view(np.int64), log.force.T.view(np.int64))
        whole.append(np.column_stack([np.full(n, log.speed), log.force.T]))
    assert rows.size == 0
    assert path.read_bytes() == _npy_bytes(np.ascontiguousarray(np.concatenate(whole)))


_GRID_MEMORY_BOUND = 0.5e6   # bytes; per-block writer 0.12 MB, loader 0.07 MB beyond its array (the text grid's whole-file reader: 2.2 MB)


def test_intrusion_grid_is_streamed(default_grid):
    # the writer never holds the grid's array, only one record's block, and
    # the reader holds nothing beyond the array it loads, of which each
    # record's force rows are views
    _, logs, path = default_grid
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        io.write_intrusion_npy(path, logs)
        write_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        back = io.read_intrusion_npy(path)
        kept, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back) == len(logs)
    assert len({id(log.force.base) for log in back}) == 1
    assert write_peak <= _GRID_MEMORY_BOUND, write_peak
    assert read_peak - kept <= _GRID_MEMORY_BOUND, read_peak - kept


_FIT_MEMORY_BOUND = 1.0e6   # bytes; the fit on every repeat's samples pooled peaked at 1.75 MB


def test_intrusion_fit_holds_one_row_per_speed_and_depth(default_grid):
    # the repeats of a grid row enter the fit as their force sum, so its
    # arrays are a third of the pooled samples' length
    _, logs, _ = default_grid
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit = fit_depth_speed_model(logs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fit.n_samples == sum(len(log.force) * int(np.count_nonzero(log.depth > 0.0)) for log in logs)
    assert peak <= _FIT_MEMORY_BOUND, peak


_TINY_SWEEP = "[sweep]\nspeeds = 0.5\nstiffnesses = 3.75\nseeds = 0\nintrusion_speed_count = 2\nintrusion_repeats = 1\n"


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "tiny.ini"
    cfg.write_text(_TINY_SWEEP, encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--out", str(root / "out")]) == 0
    return cfg, root / "out"


def _speed_of_row_5(rows):
    # a speed that is not the grid's next one, then the first speed again
    rows[5, 0] = 0.9
    return rows


def _first_speed_again(rows):
    return np.concatenate([rows, rows[rows[:, 0] == rows[0, 0]]])


def _nan_force(rows):
    rows[2, 1] = np.nan
    return rows


@pytest.mark.parametrize(
    "edit",
    [_speed_of_row_5, _first_speed_again, _nan_force, None],
    ids=["speed varies", "speed block repeated", "nan force", "blank line"],
)
def test_identify_rejects_inconsistent_intrusion_log(tiny_sweep, tmp_path, edit):
    # a block's speed that falls or comes back would merge two speeds' rows,
    # and a nan made the fit "skip" and delete depth_speed_fit.json: all
    # are bad input; so is a blank line after the array, which np.load
    # would not read
    cfg, sweep = tiny_sweep
    out = tmp_path / "out"
    shutil.copytree(sweep, out)
    fit_before = (out / "depth_speed_fit.json").read_bytes()
    log = out / "intrusion_grid.npy"
    if edit is None:
        log.write_bytes(log.read_bytes() + b"\r\n")
    else:
        log.write_bytes(_npy_bytes(edit(np.load(log, allow_pickle=False))))
    with pytest.raises(MissingInputError, match=str(log)):
        io.read_intrusion_npy(log)
    assert main(["identify", "--config", str(cfg), "--out", str(out)]) == 4
    assert (out / "depth_speed_fit.json").read_bytes() == fit_before


def test_identify_rejects_a_trial_listed_twice(tiny_sweep, tmp_path):
    # a copy of a hop's entry would count that hop twice in its condition,
    # and a second intrusion entry, under another trial id, every grid
    # sample twice in the fit
    cfg, sweep = tiny_sweep
    manifest = json.loads((sweep / "manifest.json").read_text(encoding="utf-8"))
    entries = manifest["entries"]
    intrusion = next(e for e in entries if e["kind"] == "intrusion")
    for extra in (dict(entries[0]), {**intrusion, "trial_id": "intrusion_grid_again"}):
        out = tmp_path / extra["trial_id"]
        shutil.copytree(sweep, out)
        (out / "manifest.json").write_text(json.dumps({**manifest, "entries": [*entries, extra]}), encoding="utf-8")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["identify", "--config", str(cfg), "--out", str(out)]) == 4, extra["trial_id"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_identify_rejects_a_manifest_without_the_intrusion_entry(tiny_sweep, tmp_path):
    # the grid's fit is the ground truth the treatments are scored against
    cfg, sweep = tiny_sweep
    out = tmp_path / "out"
    shutil.copytree(sweep, out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    hops = [e for e in manifest["entries"] if e["kind"] == "hop"]
    (out / "manifest.json").write_text(json.dumps({**manifest, "entries": hops}))
    for name in ("treatment_report.json", "fits.csv", "depth_speed_fit.json"):
        (out / name).unlink()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["identify", "--config", str(cfg), "--out", str(out)]) == 4
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_identify_and_report_reject_a_manifest_without_a_hop_entry(tiny_sweep, tmp_path):
    # there is nothing to identify or report: identify would rewrite the
    # summary, and report the force map beside an earlier hop's trial CSVs
    cfg, sweep = tiny_sweep
    out = tmp_path / "out"
    shutil.copytree(sweep, out)
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    grid = [e for e in manifest["entries"] if e["kind"] == "intrusion"]
    (out / "manifest.json").write_text(json.dumps({**manifest, "entries": grid}))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for command in ("identify", "report"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 4, command
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before, command


@settings(max_examples=20, deadline=None)
@given(data=st.data(), end=st.sampled_from(["\n", "\r\n"]))
def test_a_blank_line_anywhere_in_the_grid_is_bad_input(tmp_path_factory, tiny_sweep, data, end):
    # a line end put anywhere in the array's bytes, in its header or its
    # body or after it, is bad input
    cfg, sweep = tiny_sweep
    blob = (sweep / "intrusion_grid.npy").read_bytes()
    at = data.draw(st.integers(0, len(blob)), label="at")
    out = tmp_path_factory.mktemp("blank")
    shutil.copytree(sweep, out, dirs_exist_ok=True)
    (out / "intrusion_grid.npy").write_bytes(blob[:at] + end.encode() + blob[at:])
    with pytest.raises(MissingInputError, match="intrusion_grid.npy"):
        io.read_intrusion_npy(out / "intrusion_grid.npy")
    assert main(["identify", "--config", str(cfg), "--out", str(out)]) == 4


@pytest.mark.parametrize("name,command", [("hop_v0.50_kc3.75_s0_frames.npy", "estimate"), ("intrusion_grid.npy", "identify")])
def test_a_line_end_in_an_array_header_is_one_line_of_bad_input(tmp_path, tiny_sweep, capsys, name, command):
    # numpy reads a header with a line end in its padding only by its retry
    # of a Python 2 header, and warns to stderr as it does: every insertion
    # is bad input (exit 4) reported in one line that names the file
    cfg, sweep = tiny_sweep
    out = tmp_path / "out"
    shutil.copytree(sweep, out)
    blob = (sweep / name).read_bytes()
    header_end = 10 + int.from_bytes(blob[8:10], "little")
    for end in (b"\n", b"\r\n"):
        for at in range(header_end):
            (out / name).write_bytes(blob[:at] + end + blob[at:])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([command, "--config", str(cfg), "--out", str(out)]) == 4, (end, at)
            assert [str(w.message) for w in caught] == [], (end, at)
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("missing input: ") and str(out / name) in lines[0], (end, at)


def _rows_failing_after(n):
    for i in range(n):
        yield [str(float(i))]
    raise RuntimeError("writer died midway")


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "out" / "data.csv"
    with pytest.raises(RuntimeError, match="midway"):
        io.write_csv(path, ("x",), _rows_failing_after(10_000))
    assert list(path.parent.iterdir()) == []
    with pytest.raises(TypeError):
        io.write_json(tmp_path / "out" / "payload.json", {"x": object()})
    assert list(path.parent.iterdir()) == []


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "data.csv"
    io.write_csv(path, ("x",), [["1.0"]])
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        io.write_csv(path, ("x",), _rows_failing_after(10_000))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]
