"""Deterministic readers/writers for trial artifacts.

All CSVs carry a one-line header and shortest-round-trip float formatting
(repr), so identical runs produce byte-identical bodies.  No timestamps
or environment data are ever written into data files.  Every writer
fills a temporary file beside its target and renames it into place, so
a crash mid-write leaves the previous file (or none), never a partial one.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import MissingInputError
from .simulator import (
    Frames,
    IntrusionLog,
    SensorFrame,
    TrialEvents,
    TruthSeries,
)

FRAME_COLUMNS = (
    "t",
    "encoder_theta",
    "encoder_theta_dot",
    "imu_body_acc",
    "imu_foot_acc",
    "tof_height",
    "motor_current",
    "loadcell_force",
)

TRUTH_COLUMNS = (
    "t", "x_b", "v_b", "x_f", "v_f", "theta", "theta_dot", "acc_b", "acc_f",
    "f_static", "f_drag", "f_added", "f_total", "tau", "f_leg", "phase_id",
)

ESTIMATION_COLUMNS = (
    "t", "x_b_hat", "v_b_hat", "x_f_hat", "v_f_hat", "f_qs", "f_mo",
    "x_b_true", "v_b_true", "x_f_true", "v_f_true", "f_true",
)

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
    with _replacing(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_columns_csv(path, header, columns) -> None:
    """A CSV whose i-th column holds `columns[i]`, each value written as the
    shortest repr that round-trips its float64 value (ints as `1.0`)."""
    cells = [list(map(repr, np.asarray(col, dtype=float).tolist())) for col in columns]
    if len({len(col) for col in cells}) > 1:
        raise ValueError(f"columns of {path} differ in length: {[len(col) for col in cells]}")
    write_csv(path, header, zip(*cells))


def _read_csv(path: Path, columns: tuple[str, ...], kind: str) -> np.ndarray:
    """Numeric body of a CSV whose header must equal `columns`.

    A missing, empty, header-only, ragged or non-numeric file raises
    MissingInputError, so the CLI reports it as bad input.
    """
    if not Path(path).exists():
        raise MissingInputError(f"missing input file: {path}")
    try:
        with open(path, "r", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(header) != columns:
                raise MissingInputError(f"unexpected {kind} header in {path}")
            data = np.array([[float(v) for v in row] for row in reader], dtype=float)
    except (OSError, ValueError, csv.Error) as exc:
        raise MissingInputError(f"malformed {kind} file {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] != len(columns):
        raise MissingInputError(
            f"malformed {kind} file {path}: expected at least one row of {len(columns)} numbers"
        )
    return data


def write_frames_csv(path, frames: list[SensorFrame]) -> None:
    columns = [[getattr(f, col) for f in frames] for col in FRAME_COLUMNS]
    write_columns_csv(path, FRAME_COLUMNS, columns)


def read_frames_csv(path) -> Frames:
    data = _read_csv(Path(path), FRAME_COLUMNS, "frames")
    return Frames(**{col: data[:, i] for i, col in enumerate(FRAME_COLUMNS)})


def write_truth_csv(path, truth: TruthSeries) -> None:
    write_columns_csv(path, TRUTH_COLUMNS, [getattr(truth, name) for name in TRUTH_COLUMNS])


def read_truth_csv(path) -> TruthSeries:
    data = _read_csv(Path(path), TRUTH_COLUMNS, "truth")
    kwargs = {col: data[:, i] for i, col in enumerate(TRUTH_COLUMNS)}
    truth = TruthSeries(**kwargs)
    truth.phase_id = truth.phase_id.astype(int)
    return truth


def write_events_json(path, events: TrialEvents, extra: dict | None = None) -> None:
    payload = {
        "t_td": events.t_td,
        "t_ce": events.t_ce,
        "t_lo": events.t_lo,
        "v_td": events.v_td,
    }
    if extra:
        payload.update(extra)
    write_json(path, payload)


def read_events_json(path) -> TrialEvents:
    payload = read_json(path)
    try:
        return TrialEvents(
            t_td=payload["t_td"], t_ce=payload["t_ce"], t_lo=payload["t_lo"], v_td=payload["v_td"]
        )
    except (KeyError, TypeError) as exc:
        raise MissingInputError(f"malformed events file {path}: {exc!r}") from exc


def write_estimation_csv(path, est, truth_decimated: dict | None = None) -> None:
    n = len(est)
    if truth_decimated is None:
        truth_decimated = {}
    nan = np.full(n, np.nan)
    cols = [
        est.t, est.x_b_hat, est.v_b_hat, est.x_f_hat, est.v_f_hat, est.f_qs, est.f_mo,
        truth_decimated.get("x_b", nan), truth_decimated.get("v_b", nan),
        truth_decimated.get("x_f", nan), truth_decimated.get("v_f", nan),
        truth_decimated.get("f_total", nan),
    ]
    write_columns_csv(path, ESTIMATION_COLUMNS, cols)


def read_estimation_csv(path):
    from .estimation import EstimationSeries

    data = _read_csv(Path(path), ESTIMATION_COLUMNS, "estimation")
    return (
        EstimationSeries(
            t=data[:, 0],
            x_b_hat=data[:, 1],
            v_b_hat=data[:, 2],
            x_f_hat=data[:, 3],
            v_f_hat=data[:, 4],
            f_qs=data[:, 5],
            f_mo=data[:, 6],
            qs_singular=~np.isfinite(data[:, 5]),
        ),
        {
            "x_b": data[:, 7],
            "v_b": data[:, 8],
            "x_f": data[:, 9],
            "v_f": data[:, 10],
            "f_total": data[:, 11],
        },
    )


def write_intrusion_csv(path, log: IntrusionLog) -> None:
    speed = np.full(log.t.size, log.speed, dtype=float)
    write_columns_csv(path, INTRUSION_COLUMNS, [log.t, log.depth, speed, log.force])


def read_intrusion_csv(path) -> IntrusionLog:
    data = _read_csv(Path(path), INTRUSION_COLUMNS, "intrusion")
    return IntrusionLog(
        speed=float(data[0, 2]), t=data[:, 0], depth=data[:, 1], force=data[:, 3]
    )


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
