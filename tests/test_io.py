"""Artifact readers: malformed files are bad input, never a crash.
Artifact writers: byte-identical to per-row formatting, and never leave a
partial file behind."""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hopperlab import io
from hopperlab.cli import main
from hopperlab.errors import MissingInputError

READERS = {
    "frames": (io.read_frames_csv, io.FRAME_COLUMNS),
    "truth": (io.read_truth_csv, io.TRUTH_COLUMNS),
    "estimation": (io.read_estimation_csv, io.ESTIMATION_COLUMNS),
    "intrusion": (io.read_intrusion_csv, io.INTRUSION_COLUMNS),
}

_number = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_junk = st.sampled_from(["", "abc", "1.0.0", "--1", "0x1p3", "1e", "é", ' "1" ', "nan?"])
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


def _well_formed(text, columns, time_base):
    """A right header and numeric rows of the right width; with `time_base`,
    at least two rows and a strictly increasing first column."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(columns) or len(lines) < 2:
        return False
    try:
        rows = [[float(v) for v in line.split(",")] if line else [] for line in lines[1:]]
    except ValueError:
        return False
    if not all(len(row) == len(columns) for row in rows):
        return False
    t = [row[0] for row in rows]
    return not time_base or (len(t) >= 2 and all(b > a for a, b in zip(t, t[1:])))


def _fuzz(kind, text):
    reader, columns = READERS[kind]
    time_base = kind in ("frames", "estimation")
    try:
        result = _read(reader, text)
    except MissingInputError:
        assert not _well_formed(text, columns, time_base)
        return
    assert _well_formed(text, columns, time_base)
    n_rows = len(text.splitlines()) - 1
    first = result[0] if isinstance(result, tuple) else result
    assert len(first.t) == n_rows


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
@given(text=_csv_text(io.INTRUSION_COLUMNS))
def test_fuzz_read_intrusion_csv(text):
    _fuzz("intrusion", text)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_reader_rejects_binary_garbage(tmp_path, kind):
    path = tmp_path / "artifact.csv"
    path.write_bytes(b"\xff\xfe\x00garbage\x00")
    with pytest.raises(MissingInputError):
        READERS[kind][0](path)


def test_intrusion_header_only_is_missing_input(tmp_path):
    path = tmp_path / "intr.csv"
    path.write_text(",".join(io.INTRUSION_COLUMNS) + "\n", encoding="utf-8")
    with pytest.raises(MissingInputError):
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


# parseable artifacts whose content cannot be used: (command, files)
_DEGENERATE = {
    "one-row frames": ("estimate", {_HOP_FILES["frames"]: _series(io.FRAME_COLUMNS, [0.0])}),
    "repeated frame time": ("estimate", {_HOP_FILES["frames"]: _series(io.FRAME_COLUMNS, [0.0, 0.0])}),
    "one-row estimation": ("identify", _hop_trial(estimation_times=[0.0])),
    "non-numeric event time": ("identify", _hop_trial(t_td="x")),
    "infinite event time": ("identify", _hop_trial(t_lo=float("inf"))),
    "conditions not objects": (
        "report", {"treatment_report.json": json.dumps({"k_gt": 800.0, "conditions": [1, 2]})}
    ),
    "condition value not a number": ("report", {"treatment_report.json": json.dumps({"k_gt": 800.0, "conditions": [
        {"v_td": 0.8, "k_c_n_per_cm": 3.75, "treatment": "MO_GD", "mean_k": "x", "sem_k": 1.0, "rel_err": 0.1, "n": 2}
    ]})}),
    "entry without kind": ("identify", _manifest(kind=None)),
    "entry with a list for kind": ("identify", _manifest(kind=["hop"])),
    "entry without paths": ("identify", _manifest(paths=None)),
    "entry without speed": ("identify", _manifest(speed=None)),
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



def _rowwise_csv(path, header, rows):
    """The per-row formatting the column writers must reproduce byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([io.fmt_float(v) for v in row] for row in rows)


def test_column_writers_match_rowwise_formatting(tmp_path, noisy_trial, terrain):
    from hopperlab.simulator import run_constant_speed_intrusion
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
    log = run_constant_speed_intrusion(0.3, 0.02, terrain, seed=0)
    cases.append((io.write_intrusion_csv, log, io.INTRUSION_COLUMNS,
                  [[log.t[i], log.depth[i], log.speed, log.force[i]] for i in range(log.t.size)]))
    for writer, data, header, rows in cases:
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        writer(new, data)
        _rowwise_csv(ref, header, rows)
        assert new.read_bytes() == ref.read_bytes(), writer.__name__

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
