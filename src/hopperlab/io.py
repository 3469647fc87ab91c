r"""Deterministic readers/writers for trial artifacts.

All CSVs carry a one-line header and shortest-round-trip float formatting
(repr), so identical runs produce byte-identical bodies.  Rows are joined
by commas and ended by "\r\n", as `csv.writer` would write them: no cell
ever needs quoting (a repr, a treatment name or a seed).  Numeric bodies are
parsed by numpy's text reader, so a quoted or underscored cell, or a blank
line, is bad input.
No timestamps or environment data are ever written into data files.
Every writer fills a temporary file beside its target and renames it into
place, so a crash mid-write leaves the previous file (or none), never a
partial one.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import MissingInputError
from .estimation import EstimationSeries
from .simulator import Frames, IntrusionLog, TrialEvents, TruthSeries

FRAME_COLUMNS = tuple(f.name for f in fields(Frames))

TRUTH_COLUMNS = tuple(f.name for f in fields(TruthSeries))

# The estimation CSV: the estimator outputs, then the truth series it
# carries, each as `<name>_true` (`f_total` as `f_true`).
ESTIMATOR_OUTPUTS = tuple(f.name for f in fields(EstimationSeries))
CARRIED_TRUTH = ("x_b", "v_b", "x_f", "v_f", "f_total")
ESTIMATION_COLUMNS = ESTIMATOR_OUTPUTS + tuple(f"{name.removesuffix('_total')}_true" for name in CARRIED_TRUTH)

# rows of the intrusion grid formatted or parsed at a time, so that neither
# its text nor its list of lines is ever held whole
INTRUSION_CHUNK_ROWS = 512


def intrusion_columns(repeats: int) -> tuple[str, ...]:
    """The intrusion grid's header: speed, t and depth, then one force per repeat."""
    return ("speed", "t", "depth", *(f"force_{r}" for r in range(repeats)))


def fmt_float(x) -> str:
    return repr(float(x))


@contextmanager
def _replacing(path: Path, newline=None):
    """A text handle on a temporary file beside `path` that replaces `path`
    only once the block completes; if the block raises, the temporary file
    is removed and `path` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: Path, header, rows) -> None:
    r"""`header` and `rows`, string cells that need no quoting, as
    `csv.writer` would write them: joined by commas, each line ended by "\r\n"."""
    with _replacing(path, newline="") as handle:
        handle.write("\r\n".join([",".join(header), *map(",".join, rows), ""]))


def _cells(column) -> list[str]:
    """The shortest repr that round-trips each float64 value (ints as `1.0`)."""
    return list(map(repr, np.asarray(column, dtype=float).tolist()))


def write_columns_csv(path, header, columns) -> None:
    """A CSV whose i-th column holds `columns[i]`, each value written by `_cells`."""
    cells = [_cells(col) for col in columns]
    if len({len(col) for col in cells}) > 1:
        raise ValueError(f"columns of {path} differ in length: {[len(col) for col in cells]}")
    write_csv(path, header, zip(*cells))


@contextmanager
def _reading(path: Path, kind: str):
    """A text handle on `path`.  A missing file, or an OSError or ValueError
    (bytes that are not UTF-8, a body numpy cannot parse) inside the block,
    raises MissingInputError, so the CLI reports it as bad input."""
    if not Path(path).exists():
        raise MissingInputError(f"missing input file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            yield handle
    except (OSError, ValueError) as exc:
        raise MissingInputError(f"malformed {kind} file {path}: {exc}") from exc


def _parse(lines: list[str], width: int) -> np.ndarray:
    """`lines` (without their line ends), each `width` numbers, as rows of an
    array; a blank, ragged or non-numeric line raises ValueError."""
    if "" in lines:
        raise ValueError("blank line")
    data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != width:
        raise ValueError(f"expected rows of {width} numbers")
    return data


def _read_csv(path: Path, columns: tuple[str, ...], kind: str) -> np.ndarray:
    r"""Numeric body of a CSV whose header must equal `columns`.

    Lines end at "\n", "\r\n" or "\r".  A missing, empty, header-only,
    ragged or non-numeric file, or one with a blank line, raises
    MissingInputError, so the CLI reports it as bad input.
    """
    with _reading(path, kind) as handle:
        header, *lines = handle.read().split("\n")
        if header != ",".join(columns):
            raise MissingInputError(f"unexpected {kind} header in {path}")
        if lines and not lines[-1]:
            lines.pop()
        if not lines:
            raise MissingInputError(f"malformed {kind} file {path}: expected at least one row")
        return _parse(lines, len(columns))


def _check_time_base(t: np.ndarray, path, kind: str) -> None:
    """A sampled series needs two samples and a strictly increasing time
    column: its period is t[1] - t[0]."""
    if t.size < 2 or not np.all(np.diff(t) > 0.0):
        raise MissingInputError(
            f"malformed {kind} file {path}: need at least two rows with strictly increasing t"
        )


def write_frames_csv(path, frames: Frames) -> None:
    write_columns_csv(path, FRAME_COLUMNS, [getattr(frames, col) for col in FRAME_COLUMNS])


def read_frames_csv(path) -> Frames:
    data = _read_csv(Path(path), FRAME_COLUMNS, "frames")
    if not np.isfinite(data).all():
        raise MissingInputError(f"malformed frames file {path}: need finite cells")
    _check_time_base(data[:, 0], path, "frames")
    return Frames(*data.T)


def write_truth_csv(path, truth: TruthSeries) -> None:
    write_columns_csv(path, TRUTH_COLUMNS, [getattr(truth, name) for name in TRUTH_COLUMNS])


def read_truth_csv(path) -> TruthSeries:
    data = _read_csv(Path(path), TRUTH_COLUMNS, "truth")
    truth = TruthSeries(*data.T)
    truth.phase_id = truth.phase_id.astype(int)
    return truth


def is_finite_number(value) -> bool:
    """A finite JSON number (a bool is not one)."""
    return type(value) in (int, float) and math.isfinite(value)


def read_record(path, cls, kind: str):
    """A `cls` built from the same-named keys of a JSON object whose values
    must all be finite numbers; anything else is bad input."""
    payload = read_json(path)
    try:
        values = {f.name: payload[f.name] for f in fields(cls)}
    except (KeyError, TypeError) as exc:
        raise MissingInputError(f"malformed {kind} file {path}: {exc!r}") from exc
    for name, value in values.items():
        if not is_finite_number(value):
            raise MissingInputError(f"malformed {kind} file {path}: {name} = {value!r} is not a finite number")
    return cls(**values)


def write_events_json(path, events: TrialEvents, extra: dict | None = None) -> None:
    write_json(path, {**asdict(events), **(extra or {})})


def read_events_json(path) -> TrialEvents:
    return read_record(path, TrialEvents, "events")


def write_estimation_csv(path, est: EstimationSeries, truth: dict | None = None) -> None:
    """Estimator outputs plus the carried truth columns, taken by name from
    `truth` (one row per frame; NaN where absent)."""
    truth = truth or {}
    nan = np.full(len(est), np.nan)
    cols = [getattr(est, name) for name in ESTIMATOR_OUTPUTS]
    cols += [truth.get(name, nan) for name in CARRIED_TRUTH]
    write_columns_csv(path, ESTIMATION_COLUMNS, cols)


def read_estimation_csv(path) -> tuple[EstimationSeries, dict[str, np.ndarray]]:
    data = _read_csv(Path(path), ESTIMATION_COLUMNS, "estimation")
    _check_time_base(data[:, 0], path, "estimation")
    outputs = dict(zip(ESTIMATOR_OUTPUTS, data.T))
    truth = dict(zip(CARRIED_TRUTH, data[:, len(ESTIMATOR_OUTPUTS):].T))
    return EstimationSeries(**outputs), truth


def write_intrusion_csv(path, logs: list[IntrusionLog], repeats: int) -> None:
    """The intrusion grid: `logs` speed-major and repeat-minor, `repeats` per
    speed, as one row per load-cell sample of each speed.  The repeats of a
    speed share its kinematics, so its speed, `t` and `depth` are written
    once per row and each repeat adds its force.  Rows are formatted and
    written INTRUSION_CHUNK_ROWS at a time.  Repeats that differ in speed,
    `t` or `depth`, or a log whose columns differ in length, raise ValueError.
    """
    blocks = [logs[i : i + repeats] for i in range(0, len(logs), repeats)]
    for block in blocks:
        first = block[0]
        if len(block) != repeats or not all(
            log.speed == first.speed
            and log.force.shape == log.depth.shape == log.t.shape
            and np.array_equal(log.t, first.t)
            and np.array_equal(log.depth, first.depth)
            for log in block
        ):
            raise ValueError(f"{path}: the {repeats} logs at {first.speed} m/s do not share one speed, t and depth")
    with _replacing(path, newline="") as handle:
        handle.write(",".join(intrusion_columns(repeats)) + "\r\n")
        for block in blocks:
            prefix = fmt_float(block[0].speed) + ","
            for start in range(0, block[0].t.size, INTRUSION_CHUNK_ROWS):
                rows = slice(start, start + INTRUSION_CHUNK_ROWS)
                cells = [_cells(block[0].t[rows]), _cells(block[0].depth[rows])]
                cells += [_cells(log.force[rows]) for log in block]
                handle.write(prefix + f"\r\n{prefix}".join(map(",".join, zip(*cells))) + "\r\n")


def read_intrusion_csv(path) -> list[IntrusionLog]:
    """The intrusion grid's logs, speed-major and repeat-minor; the number of
    repeats comes from the header.  The file is parsed INTRUSION_CHUNK_ROWS
    lines at a time and each speed's block is built once its rows are in.
    A non-finite cell, a speed not above the block before it, or a `t` that
    does not increase within a block is bad input."""
    logs, block = [], []

    def close_block():
        cols = np.concatenate([piece.T for piece in block], axis=1)
        increasing = (np.diff(cols[1]) > 0.0).all() and (not logs or cols[0, 0] > logs[-1].speed)
        if not (np.isfinite(cols).all() and increasing):
            raise MissingInputError(
                f"malformed intrusion file {path}: need finite cells, speeds that increase from block "
                "to block and t that increases within a block"
            )
        logs.extend(IntrusionLog(speed=float(cols[0, 0]), t=cols[1], depth=cols[2], force=f) for f in cols[3:])
        block.clear()

    with _reading(path, "intrusion") as handle:
        columns = tuple(handle.readline().removesuffix("\n").split(","))
        if len(columns) < 4 or columns != intrusion_columns(len(columns) - 3):
            raise MissingInputError(f"unexpected intrusion header in {path}")
        while lines := [line.removesuffix("\n") for line in itertools.islice(handle, INTRUSION_CHUNK_ROWS)]:
            data = _parse(lines, len(columns))
            for piece in np.split(data, np.flatnonzero(np.diff(data[:, 0])) + 1):
                if block and block[0][0, 0] != piece[0, 0]:
                    close_block()
                block.append(piece)
    if not block:
        raise MissingInputError(f"malformed intrusion file {path}: expected at least one row")
    close_block()
    return logs


def write_force_map_csv(path, depths, speeds, surface) -> None:
    """One row per (depth, speed) grid point, depth-major."""
    columns = [np.repeat(depths, len(speeds)), np.tile(speeds, len(depths)), np.ravel(surface)]
    write_columns_csv(path, ("depth", "speed", "force"), columns)


def write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with _replacing(path) as handle:
        handle.write(text)


def read_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"missing input file: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise MissingInputError(f"malformed JSON file {path}: {exc}") from exc
