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
# carries at the sensor rate, each as `<name>_true` (`f_total` as `f_true`).
ESTIMATOR_OUTPUTS = tuple(f.name for f in fields(EstimationSeries))
CARRIED_TRUTH = ("x_b", "v_b", "x_f", "v_f", "f_total")
ESTIMATION_COLUMNS = ESTIMATOR_OUTPUTS + tuple(f"{name.removesuffix('_total')}_true" for name in CARRIED_TRUTH)

INTRUSION_COLUMNS = ("t", "depth", "speed", "force")


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


def _read_csv(path: Path, columns: tuple[str, ...], kind: str) -> np.ndarray:
    r"""Numeric body of a CSV whose header must equal `columns`.

    Lines end at "\n", "\r\n" or "\r".  A missing, empty, header-only,
    ragged or non-numeric file, or one with a blank line, raises
    MissingInputError, so the CLI reports it as bad input.
    """
    if not Path(path).exists():
        raise MissingInputError(f"missing input file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header, *lines = handle.read().split("\n")
        if header != ",".join(columns):
            raise MissingInputError(f"unexpected {kind} header in {path}")
        if lines and not lines[-1]:
            lines.pop()
        if "" in lines:
            raise ValueError("blank line")
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2) if lines else np.empty((0, 0))
    except (OSError, ValueError) as exc:
        raise MissingInputError(f"malformed {kind} file {path}: {exc}") from exc
    if data.shape[0] == 0 or data.shape[1] != len(columns):
        raise MissingInputError(
            f"malformed {kind} file {path}: expected at least one row of {len(columns)} numbers"
        )
    return data


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
    _check_time_base(data[:, 0], path, "frames")
    return Frames(*data.T)


def write_truth_csv(path, truth: TruthSeries) -> None:
    write_columns_csv(path, TRUTH_COLUMNS, [getattr(truth, name) for name in TRUTH_COLUMNS])


def read_truth_csv(path) -> TruthSeries:
    data = _read_csv(Path(path), TRUTH_COLUMNS, "truth")
    truth = TruthSeries(*data.T)
    truth.phase_id = truth.phase_id.astype(int)
    return truth


def read_record(path, cls, kind: str):
    """A `cls` built from the same-named keys of a JSON object whose values
    must all be finite numbers; anything else is bad input."""
    payload = read_json(path)
    try:
        values = {f.name: payload[f.name] for f in fields(cls)}
    except (KeyError, TypeError) as exc:
        raise MissingInputError(f"malformed {kind} file {path}: {exc!r}") from exc
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise MissingInputError(f"malformed {kind} file {path}: {name} = {value!r} is not a finite number")
    return cls(**values)


def write_events_json(path, events: TrialEvents, extra: dict | None = None) -> None:
    write_json(path, {**asdict(events), **(extra or {})})


def read_events_json(path) -> TrialEvents:
    return read_record(path, TrialEvents, "events")


def write_estimation_csv(path, est: EstimationSeries, truth_decimated: dict | None = None) -> None:
    """Estimator outputs plus the carried truth columns (NaN where absent)."""
    truth_decimated = truth_decimated or {}
    nan = np.full(len(est), np.nan)
    cols = [getattr(est, name) for name in ESTIMATOR_OUTPUTS]
    cols += [truth_decimated.get(name, nan) for name in CARRIED_TRUTH]
    write_columns_csv(path, ESTIMATION_COLUMNS, cols)


def read_estimation_csv(path) -> tuple[EstimationSeries, dict[str, np.ndarray]]:
    data = _read_csv(Path(path), ESTIMATION_COLUMNS, "estimation")
    _check_time_base(data[:, 0], path, "estimation")
    outputs = dict(zip(ESTIMATOR_OUTPUTS, data.T))
    truth = dict(zip(CARRIED_TRUTH, data[:, len(ESTIMATOR_OUTPUTS):].T))
    return EstimationSeries(**outputs), truth


def write_intrusion_csv(path, log: IntrusionLog) -> None:
    """The trial's one speed is formatted once and repeated on every row."""
    t, depth, force = map(_cells, (log.t, log.depth, log.force))
    speed = [fmt_float(log.speed)] * len(t)
    write_csv(path, INTRUSION_COLUMNS, zip(t, depth, speed, force, strict=True))


def read_intrusion_csv(path) -> IntrusionLog:
    """An intrusion log; a non-finite value or a speed that varies between
    rows is bad input."""
    data = _read_csv(Path(path), INTRUSION_COLUMNS, "intrusion")
    speed = data[:, 2]
    if not np.isfinite(data).all():
        raise MissingInputError(f"malformed intrusion file {path}: non-finite value")
    if (speed != speed[0]).any():
        raise MissingInputError(f"malformed intrusion file {path}: speed is not the same on every row")
    return IntrusionLog(speed=float(speed[0]), t=data[:, 0], depth=data[:, 1], force=data[:, 3])


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
