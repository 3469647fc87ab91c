"""Artifact readers: malformed files are bad input, never a crash."""

import tempfile
from pathlib import Path

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


def _well_formed(text, columns):
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(columns) or len(lines) < 2:
        return False
    try:
        rows = [[float(v) for v in line.split(",")] if line else [] for line in lines[1:]]
    except ValueError:
        return False
    return all(len(row) == len(columns) for row in rows)


def _fuzz(kind, text):
    reader, columns = READERS[kind]
    try:
        result = _read(reader, text)
    except MissingInputError:
        assert not _well_formed(text, columns)
        return
    assert _well_formed(text, columns)
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

