"""Deterministic readers/writers for trial artifacts.

All CSVs carry a one-line header and shortest-round-trip float formatting
(repr), so identical runs produce byte-identical bodies.  No timestamps
or environment data are ever written into data files.
"""

from __future__ import annotations

import csv
import json
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


def write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


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
    rows = (
        [fmt_float(getattr(f, col)) for col in FRAME_COLUMNS]
        for f in frames
    )
    write_csv(Path(path), FRAME_COLUMNS, rows)


def read_frames_csv(path) -> Frames:
    data = _read_csv(Path(path), FRAME_COLUMNS, "frames")
    return Frames(**{col: data[:, i] for i, col in enumerate(FRAME_COLUMNS)})


def write_truth_csv(path, truth: TruthSeries) -> None:
    cols = [getattr(truth, name) for name in TRUTH_COLUMNS]
    rows = ([fmt_float(col[i]) for col in cols] for i in range(len(truth)))
    write_csv(Path(path), TRUTH_COLUMNS, rows)


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
    rows = ([fmt_float(col[i]) for col in cols] for i in range(n))
    write_csv(Path(path), ESTIMATION_COLUMNS, rows)


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
    rows = (
        [fmt_float(log.t[i]), fmt_float(log.depth[i]), fmt_float(log.speed), fmt_float(log.force[i])]
        for i in range(log.t.size)
    )
    write_csv(Path(path), INTRUSION_COLUMNS, rows)


def read_intrusion_csv(path) -> IntrusionLog:
    data = _read_csv(Path(path), INTRUSION_COLUMNS, "intrusion")
    return IntrusionLog(
        speed=float(data[0, 2]), t=data[:, 0], depth=data[:, 1], force=data[:, 3]
    )


def write_force_map_csv(path, depths, speeds, surface) -> None:
    surface = np.asarray(surface)
    rows = (
        [fmt_float(depths[i]), fmt_float(speeds[j]), fmt_float(surface[i, j])]
        for i in range(len(depths))
        for j in range(len(speeds))
    )
    write_csv(Path(path), ("depth", "speed", "force"), rows)


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"missing input file: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise MissingInputError(f"malformed JSON file {path}: {exc}") from exc
