"""Oracles outside `src/` that the program's own code is pinned against:
the numeric-CSV writer and reader as they were with the `csv` module, and
the leg-length inversion as a fixed 200-step bisection."""

import csv
from pathlib import Path

import numpy as np

from hopperlab.errors import MissingInputError
from hopperlab.linkage import leg_length


def write_rows(path, header, rows) -> None:
    """`header` and `rows` through `csv.writer` (excel dialect: "\\r\\n" line ends)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_columns_csv(path, header, columns) -> None:
    """Each column's float64 values as their shortest round-trip repr, rows through `csv.writer`."""
    cells = [list(map(repr, np.asarray(col, dtype=float).tolist())) for col in columns]
    write_rows(path, header, zip(*cells))


def read_csv(path, columns) -> np.ndarray:
    """The numeric body of a CSV parsed by `csv.reader` and `float()`, with
    the header and shape checks of the artifact readers."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(header) != tuple(columns):
                raise MissingInputError(f"unexpected header in {path}")
            data = np.array([[float(v) for v in row] for row in reader], dtype=float)
    except (OSError, ValueError, csv.Error) as exc:
        raise MissingInputError(f"malformed file {Path(path)}: {exc}") from exc
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] != len(columns):
        raise MissingInputError(f"malformed file {path}: expected at least one row of {len(columns)} numbers")
    return data


def solve_theta_for_length(length, params) -> float:
    """L(theta) = length inverted by 200 halvings of the workspace, with no
    convergence test; `length` must be reachable."""
    lo, hi = params.theta_min, params.theta_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if leg_length(mid, params) > length:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
