"""Artifact readers: malformed files are bad input, never a crash, and a
numeric body parses to the floats `csv.reader` + `float()` gave.
Artifact writers: byte-identical to per-row formatting through
`csv.writer`, and never leave a partial file behind."""

import csv
import json
import math
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from hopperlab import experiments, io
from hopperlab.cli import main
from hopperlab.config import ExperimentConfig, with_values
from hopperlab.errors import MissingInputError
from hopperlab.identification import TREATMENTS
from hopperlab.simulator import run_constant_speed_intrusion

READERS = {
    "frames": (io.read_frames_csv, io.FRAME_COLUMNS),
    "truth": (io.read_truth_csv, io.TRUTH_COLUMNS),
    "estimation": (io.read_estimation_csv, io.ESTIMATION_COLUMNS),
    "intrusion": (io.read_intrusion_csv, io.intrusion_columns(1)),
}

_number = st.floats(allow_nan=True, allow_infinity=True).map(repr)
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


def _well_formed(text, columns, kind):
    """A right header and numeric rows of the right width; for a sampled
    series, at least two rows and a strictly increasing first column; for
    frames and an intrusion grid, finite cells; for an intrusion grid, from
    row to row a higher speed or the same speed at a later t."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(columns) or len(lines) < 2:
        return False
    try:
        rows = [[_number_cell(v) for v in line.split(",")] if line else [] for line in lines[1:]]
    except ValueError:
        return False
    if not all(len(row) == len(columns) for row in rows):
        return False
    if kind in ("frames", "intrusion") and not all(math.isfinite(v) for row in rows for v in row):
        return False
    if kind == "intrusion":
        return all(b[0] > a[0] or (b[0] == a[0] and b[1] > a[1]) for a, b in zip(rows, rows[1:]))
    t = [row[0] for row in rows]
    return kind not in ("frames", "estimation") or (len(t) >= 2 and all(b > a for a, b in zip(t, t[1:])))


def _fuzz(kind, text):
    reader, columns = READERS[kind]
    try:
        result = _read(reader, text)
    except MissingInputError:
        assert not _well_formed(text, columns, kind)
        return
    assert _well_formed(text, columns, kind)
    n_rows = len(text.splitlines()) - 1
    assert _as_table(kind, result).shape[0] == n_rows


@settings(max_examples=150, deadline=None)
@given(text=_csv_text(io.FRAME_COLUMNS))
def test_fuzz_read_frames_csv(text):
    _fuzz("frames", text)


@settings(max_examples=150, deadline=None)
@given(text=_csv_text(io.TRUTH_COLUMNS))
def test_fuzz_read_truth_csv(text):
    _fuzz("truth", text)


@settings(max_examples=150, deadline=None)
@given(text=_csv_text(io.ESTIMATION_COLUMNS))
def test_fuzz_read_estimation_csv(text):
    _fuzz("estimation", text)


@settings(max_examples=150, deadline=None)
@given(text=_csv_text(io.intrusion_columns(1)))
def test_fuzz_read_intrusion_csv(text):
    _fuzz("intrusion", text)


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


# bodies that were bad input with csv.reader + float() and still are
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


def _as_table(kind, result):
    """A reader's result as the CSV's columns, in file order."""
    if kind == "estimation":
        est, truth = result
        cols = [getattr(est, name) for name in io.ESTIMATOR_OUTPUTS] + [truth[name] for name in io.CARRIED_TRUTH]
    elif kind == "intrusion":
        # one repeat: each log is a speed's rows
        return np.vstack(
            [np.column_stack([np.full(log.t.size, log.speed), log.t, log.depth, log.force]) for log in result]
        )
    else:
        cols = [getattr(result, name) for name in READERS[kind][1]]
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


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("case", list(_SAME_BODIES))
def test_reader_contract_same_floats(tmp_path, kind, case):
    reader, columns = READERS[kind]
    path = tmp_path / "artifact.csv"
    _write_body(path, _SAME_BODIES[case](columns))
    expected = reference.read_csv(path, columns)
    assert expected.shape == (3, len(columns))
    assert np.array_equal(_as_table(kind, reader(path)).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("case", list(_NOW_BAD_BODIES))
def test_reader_contract_changes(tmp_path, kind, case):
    # csv.reader unquoted cells and float() reads "1_0" as 10.0 and any
    # Unicode digit; numpy's parser takes none of them: they are bad input
    reader, columns = READERS[kind]
    body, value = _NOW_BAD_BODIES[case]
    path = tmp_path / "artifact.csv"
    _write_body(path, body(columns))
    assert reference.read_csv(path, columns)[0, 1] == value
    with pytest.raises(MissingInputError):
        reader(path)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_reader_takes_ascii_separators_as_whitespace(tmp_path, kind):
    # numpy strips \x1c-\x1f around a cell as whitespace; float() did not
    reader, columns = READERS[kind]
    path = tmp_path / "artifact.csv"
    _write_body(path, _with_cell("0.1\x1c")(columns))
    with pytest.raises(MissingInputError):
        reference.read_csv(path, columns)
    assert _as_table(kind, reader(path))[0, 1] == 0.1


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
    # the report's string tables (fits.csv, stiffness_vs_*.csv): no treatment
    # name or seed needs quoting, so joining the cells is what csv.writer writes
    header = ("v_td", "k_c", "treatment", "k_est", "seed")
    rows = [[io.fmt_float(1.2), io.fmt_float(3.75), name, io.fmt_float(801.5), str(seed)]
            for name in TREATMENTS for seed in (0, 17)]
    io.write_csv(tmp_path / "new.csv", header, rows)
    reference.write_rows(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_intrusion_header_only_is_missing_input(tmp_path):
    path = tmp_path / "intrusion_grid.csv"
    path.write_text(",".join(io.intrusion_columns(3)) + "\n", encoding="utf-8")
    with pytest.raises(MissingInputError):
        io.read_intrusion_csv(path)


@pytest.mark.parametrize(
    "header", ["speed,t,depth", "speed,t,depth,force_1", "speed,t,depth,force_0,force_0", "t,depth,speed,force"]
)
def test_intrusion_header_names_each_repeat_from_zero(tmp_path, header):
    path = tmp_path / "intrusion_grid.csv"
    width = len(header.split(","))
    path.write_text(header + "\n" + ",".join(["0.5"] * width) + "\n", encoding="utf-8")
    with pytest.raises(MissingInputError, match="header"):
        io.read_intrusion_csv(path)


def test_malformed_events_json_is_missing_input(tmp_path):
    path = tmp_path / "e.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MissingInputError):
        io.read_events_json(path)
    path.write_text('{"t_td": 0.1}', encoding="utf-8")
    with pytest.raises(MissingInputError):
        io.read_events_json(path)


@pytest.mark.parametrize("body", ["empty", "header-only", "non-numeric"])
def test_cli_estimate_malformed_frames_exit_code(tmp_path, body):
    out = tmp_path / "out"
    out.mkdir()
    header = ",".join(io.FRAME_COLUMNS)
    text = {
        "empty": "",
        "header-only": header + "\n",
        "non-numeric": header + "\n" + ",".join(["0.0"] * 7 + ["oops"]) + "\n",
    }[body]
    (out / "hop_v1.00_kc3.75_s0_frames.csv").write_text(text, encoding="utf-8")
    cfg = tmp_path / "c.ini"
    cfg.write_text("", encoding="utf-8")
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 4


_HOP = "hop_v0.80_kc3.75_s0"
_HOP_FILES = {"frames": f"{_HOP}_frames.csv", "events": f"{_HOP}_events.json", "estimation": f"{_HOP}_estimation.csv"}
_HOP_ENTRY = {"trial_id": _HOP, "kind": "hop", "speed": 0.8, "k_c_n_per_cm": 3.75, "seed": 0, "paths": _HOP_FILES}
_EVENTS = {"t_td": 0.001, "t_ce": 0.002, "t_lo": 0.003, "v_td": 0.8}


def _series(columns, times):
    """A CSV with the given time column and 0.5 in every other cell."""
    rows = [",".join([repr(t)] + ["0.5"] * (len(columns) - 1)) for t in times]
    return "\n".join([",".join(columns), *rows]) + "\n"


def _manifest(**changes):
    entry = {key: value for key, value in {**_HOP_ENTRY, **changes}.items() if value is not None}
    return {"manifest.json": json.dumps({"entries": [entry]})}


def _hop_trial(estimation_times=(0.0, 0.001, 0.002, 0.003), **events):
    return {
        **_manifest(),
        _HOP_FILES["events"]: json.dumps({**_EVENTS, **events}),
        _HOP_FILES["estimation"]: _series(io.ESTIMATION_COLUMNS, estimation_times),
    }


_CONDITION = {"v_td": 0.8, "k_c_n_per_cm": 3.75, "treatment": "MO_GD", "mean_k": 1.0, "sem_k": 1.0, "rel_err": 0.1, "n": 2}
_FIT = {"k_fit": 800.0, "m_a_inf_fit": 0.15, "z_c_fit": 0.015, "rmse": 0.1, "n_samples": 10}


def _report_inputs(fit):
    """A hop trial and a treatment report that `report` can use, and `fit`
    as its depth_speed_fit.json."""
    return {
        **_hop_trial(),
        _HOP_FILES["frames"]: _series(io.FRAME_COLUMNS, [0.0, 0.001, 0.002, 0.003]),
        "treatment_report.json": json.dumps({"k_gt": 800.0, "conditions": [_CONDITION]}),
        "depth_speed_fit.json": json.dumps(fit),
    }


# parseable artifacts whose content cannot be used: (command, files)
_DEGENERATE = {
    "one-row frames": ("estimate", {_HOP_FILES["frames"]: _series(io.FRAME_COLUMNS, [0.0])}),
    "repeated frame time": ("estimate", {_HOP_FILES["frames"]: _series(io.FRAME_COLUMNS, [0.0, 0.0])}),
    # the first row's loadcell_force (its last cell) is NaN
    "non-finite frame cell": (
        "estimate", {_HOP_FILES["frames"]: _series(io.FRAME_COLUMNS, [0.0, 0.001, 0.002]).replace("0.5\n", "nan\n", 1)}
    ),
    "one-row estimation": ("identify", _hop_trial(estimation_times=[0.0])),
    "non-numeric event time": ("identify", _hop_trial(t_td="x")),
    "infinite event time": ("identify", _hop_trial(t_lo=float("inf"))),
    "conditions not objects": (
        "report", {"treatment_report.json": json.dumps({"k_gt": 800.0, "conditions": [1, 2]})}
    ),
    "condition value not a number": ("report", {"treatment_report.json": json.dumps({"k_gt": 800.0, "conditions": [
        {**_CONDITION, "mean_k": "x"}
    ]})}),
    "entry without kind": ("identify", _manifest(kind=None)),
    "entry with a list for kind": ("identify", _manifest(kind=["hop"])),
    "entry without paths": ("identify", _manifest(paths=None)),
    "entry without speed": ("identify", _manifest(speed=None)),
    # a hop's speed and stiffness are finite numbers and its seed an integer,
    # or identify would write them into its report
    "entry with a word for speed": ("identify", {**_hop_trial(), **_manifest(speed="fast")}),
    "entry with a list for seed": ("identify", {**_hop_trial(), **_manifest(seed=[1])}),
    "fit without m_a_inf_fit": ("report", _report_inputs({k: v for k, v in _FIT.items() if k != "m_a_inf_fit"})),
    "fit a JSON list": ("report", _report_inputs(list(_FIT.values()))),
    "fit value not a number": ("report", _report_inputs({**_FIT, "z_c_fit": "0.015"})),
    "fit z_c zero": ("report", _report_inputs({**_FIT, "z_c_fit": 0.0})),
    "fit z_c negative": ("report", _report_inputs({**_FIT, "z_c_fit": -0.01})),
    "fit z_c above the box": ("report", _report_inputs({**_FIT, "z_c_fit": 1.5})),
    "fit k negative": ("report", _report_inputs({**_FIT, "k_fit": -800.0})),
    "fit m_a_inf negative": ("report", _report_inputs({**_FIT, "m_a_inf_fit": -0.15})),
    "truth shorter than frames": ("estimate", {
        _HOP_FILES["frames"]: _series(io.FRAME_COLUMNS, [0.0, 0.001, 0.002]),
        f"{_HOP}_truth.csv": _series(io.TRUTH_COLUMNS, [0.0]),
    }),
    # a longer truth (another condition's): 31 rows, not the 3 frames
    "truth longer than frames": ("estimate", {
        _HOP_FILES["frames"]: _series(io.FRAME_COLUMNS, [0.0, 0.001, 0.002]),
        f"{_HOP}_truth.csv": _series(io.TRUTH_COLUMNS, [1e-4 * i for i in range(31)]),
    }),
    # a directory of the layout before the intrusion grid: one log per (speed, repeat)
    "per-run intrusion log": ("identify", {
        **_hop_trial(),
        "manifest.json": json.dumps({"entries": [
            {"trial_id": "intr_v0.5000_r0", "kind": "intrusion", "speed": 0.5, "repeat": 0,
             "paths": {"log": "intr_v0.5000_r0.csv"}},
            _HOP_ENTRY,
        ]}),
        "intr_v0.5000_r0.csv": "t,depth,speed,force\n0.0,0.0,0.5,0.0\n0.001,0.0005,0.5,1.0\n",
    }),
    "entry path with a directory": ("identify", {
        **_hop_trial(),
        **_manifest(paths={**_HOP_FILES, "events": f"../{_HOP}_events.json"}),
        f"../{_HOP}_events.json": json.dumps(_EVENTS),
    }),
}


@pytest.mark.parametrize("case", list(_DEGENERATE))
def test_cli_degenerate_artifact_exit_code(tmp_path, case):
    command, files = _DEGENERATE[case]
    out = tmp_path / "out"
    out.mkdir()
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    cfg = tmp_path / "c.ini"
    cfg.write_text("", encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4


@pytest.mark.parametrize("case", [case for case in _DEGENERATE if case.startswith("fit ")])
def test_report_on_unusable_fit_leaves_no_stale_residual(tmp_path, case):
    _, files = _DEGENERATE[case]
    for name, text in {**files, "added_mass_residual.csv": "t,residual,predicted\n0.0,1.0,1.0\n"}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cfg = tmp_path / "c.ini"
    cfg.write_text("", encoding="utf-8")
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    assert not (tmp_path / "added_mass_residual.csv").exists()


@pytest.mark.parametrize("case", ["entry with a word for speed", "entry with a list for seed"])
def test_identify_rejects_a_mistyped_entry_before_writing(tmp_path, case):
    _, files = _DEGENERATE[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cfg = tmp_path / "c.ini"
    cfg.write_text("", encoding="utf-8")
    assert main(["identify", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*files, "c.ini"])


def _rowwise_csv(path, header, rows):
    """The per-row formatting the column writers must reproduce byte for byte."""
    reference.write_rows(path, header, ([io.fmt_float(v) for v in row] for row in rows))


def test_column_writers_match_rowwise_formatting(tmp_path, noisy_trial, terrain):
    from hopperlab.simulator import NoiseConfig
    from hopperlab.terrain import force_map

    truth = noisy_trial.truth
    cols = [getattr(truth, name) for name in io.TRUTH_COLUMNS]
    assert truth.phase_id.dtype.kind == "i"
    cases = [
        (io.write_truth_csv, truth, io.TRUTH_COLUMNS,
         [[col[i] for col in cols] for i in range(len(truth))]),
        (io.write_frames_csv, noisy_trial.frames, io.FRAME_COLUMNS,
         [[getattr(noisy_trial.frames, c)[i] for c in io.FRAME_COLUMNS] for i in range(len(noisy_trial.frames))]),
    ]
    # two repeats at two speeds; 667 rows at 0.03 m/s span two 512-row chunks
    noise = NoiseConfig(loadcell_sigma=0.05)
    logs = [run_constant_speed_intrusion(v, 0.02, terrain, noise_config=noise, seed=[r, i])
            for i, v in enumerate((0.03, 0.3)) for r in range(2)]
    assert logs[0].t.size > io.INTRUSION_CHUNK_ROWS
    cases.append((lambda path, logs: io.write_intrusion_csv(path, logs, 2), logs, io.intrusion_columns(2),
                  [[a.speed, a.t[i], a.depth[i], a.force[i], b.force[i]]
                   for a, b in zip(logs[::2], logs[1::2]) for i in range(a.t.size)]))
    for writer, data, header, rows in cases:
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        writer(new, data)
        _rowwise_csv(ref, header, rows)
        assert new.read_bytes() == ref.read_bytes(), header

    depths, speeds = np.linspace(0.0, 0.05, 7), np.array([0.1, 0.5, 1.1])
    surface = force_map(terrain, depths, speeds)
    io.write_force_map_csv(tmp_path / "new.csv", depths, speeds, surface)
    _rowwise_csv(tmp_path / "ref.csv", ("depth", "speed", "force"),
                 [[d, s, surface[i, j]] for i, d in enumerate(depths) for j, s in enumerate(speeds)])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_column_writer_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        io.write_columns_csv(tmp_path / "x.csv", ("a", "b"), [[1.0, 2.0], [1.0]])
    assert list(tmp_path.iterdir()) == []


def test_intrusion_writer_rejects_ragged_log(tmp_path):
    # a ragged log, repeats that do not share their speed's kinematics, or
    # a speed with fewer logs than repeats
    from hopperlab.simulator import IntrusionLog

    t, zeros = np.arange(3) * 1e-3, np.zeros(3)
    log = IntrusionLog(speed=0.5, t=t, depth=zeros, force=zeros)
    for logs in (
        [IntrusionLog(speed=0.5, t=t, depth=zeros, force=np.zeros(2))],
        [IntrusionLog(speed=0.5, t=t, depth=np.zeros(2), force=zeros)],
        [log, IntrusionLog(speed=0.5, t=t + 1e-3, depth=zeros, force=zeros)],
        [log, IntrusionLog(speed=0.5, t=t, depth=zeros + 1e-3, force=zeros)],
        [log, IntrusionLog(speed=0.6, t=t, depth=zeros, force=zeros)],
        [log, log, log],
    ):
        with pytest.raises(ValueError):
            io.write_intrusion_csv(tmp_path / "x.csv", logs, 1 if len(logs) == 1 else 2)
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def default_grid(tmp_path_factory):
    """The default config's intrusion grid: its logs and the file written."""
    config = ExperimentConfig()
    path = tmp_path_factory.mktemp("grid") / "intrusion_grid.csv"
    return config, experiments.write_intrusion_grid(config, path), path


@pytest.mark.parametrize("repeats", [1, 3])
def test_intrusion_grid_reads_back_as_the_rig_ran_it(tmp_path, repeats):
    # every (speed, repeat), in the order the fit takes them, bit for bit
    config = with_values(ExperimentConfig(), "sweep", intrusion_repeats=repeats)
    sweep = config.sweep
    experiments.write_intrusion_grid(config, tmp_path / "intrusion_grid.csv")
    logs = io.read_intrusion_csv(tmp_path / "intrusion_grid.csv")
    expected = [
        run_constant_speed_intrusion(speed, sweep.intrusion_z_max, config.terrain, noise_config=config.noise,
                                     seed=[repeat, int(round(speed * 1e6))])
        for speed in sweep.intrusion_speeds()
        for repeat in range(repeats)
    ]
    assert len(logs) == len(expected) == sweep.intrusion_speed_count * repeats
    for got, want in zip(logs, expected):
        assert got.speed == want.speed
        for name in ("t", "depth", "force"):
            assert np.array_equal(getattr(got, name).view(np.int64), getattr(want, name).view(np.int64)), name


def test_intrusion_grid_cells_are_each_logs_cells(default_grid):
    config, logs, path = default_grid
    repeats = config.sweep.intrusion_repeats
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    assert tuple(header) == io.intrusion_columns(repeats)
    for block in (logs[i : i + repeats] for i in range(0, len(logs), repeats)):
        n = block[0].t.size
        cells, rows = list(zip(*rows[:n])), rows[n:]
        assert set(cells[0]) == {repr(block[0].speed)}
        assert list(cells[1]) == io._cells(block[0].t) and list(cells[2]) == io._cells(block[0].depth)
        for log, column in zip(block, cells[3:], strict=True):
            assert list(column) == io._cells(log.force)
    assert rows == []


_GRID_MEMORY_BOUND = 0.5e6   # bytes; 512-row writer 0.39 MB, per-block reader < 0.1 MB, whole-file reader 2.2 MB


def test_intrusion_grid_is_streamed(default_grid):
    # the writer never holds the grid's text, and the reader never holds the
    # file's lines, beyond the arrays it returns
    _, logs, path = default_grid
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        io.write_intrusion_csv(path, logs, 3)
        write_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        back = io.read_intrusion_csv(path)
        kept, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back) == len(logs)
    assert write_peak <= _GRID_MEMORY_BOUND, write_peak
    assert read_peak - kept <= _GRID_MEMORY_BOUND, read_peak - kept


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
    rows[6][0] = "0.9"


def _first_speed_again(rows):
    first = [row for row in rows[1:] if row[0] == rows[1][0]]
    rows.extend(first)


def _t_back(rows):
    rows[3][1], rows[4][1] = rows[4][1], rows[3][1]


def _nan_force(rows):
    rows[3][3] = "nan"


def _blank_last_line(rows):
    rows.append([])


@pytest.mark.parametrize(
    "edit",
    [_speed_of_row_5, _first_speed_again, _t_back, _nan_force, _blank_last_line],
    ids=["speed varies", "speed block repeated", "t decreases", "nan force", "blank line"],
)
def test_identify_rejects_inconsistent_intrusion_log(tiny_sweep, tmp_path, edit):
    # a block's speed that falls or comes back would merge two speeds' rows,
    # and a nan made the fit "skip" and delete depth_speed_fit.json: all
    # are bad input; numpy's parser skips a blank line, which must stay bad
    # input too
    cfg, sweep = tiny_sweep
    out = tmp_path / "out"
    shutil.copytree(sweep, out)
    fit_before = (out / "depth_speed_fit.json").read_bytes()
    log = out / "intrusion_grid.csv"
    with open(log, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    io.write_csv(log, rows[0], rows[1:])
    with pytest.raises(MissingInputError):
        io.read_intrusion_csv(log)
    assert main(["identify", "--config", str(cfg), "--out", str(out)]) == 4
    assert (out / "depth_speed_fit.json").read_bytes() == fit_before


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
