r"""Deterministic readers/writers for trial artifacts.

A sweep's primary data, each hop's frames and the intrusion grid, is one
`.npy` float64 array each, its columns named here, not in the file
(`_read_npy` says what reads back).  Every other artifact is text: CSVs
carry a one-line header and shortest-round-trip float formatting (repr),
so identical runs produce byte-identical bodies.  Rows are joined by
commas and ended by "\r\n", as `csv.writer` would write them: no cell
ever needs quoting (a repr, a treatment name or a seed).  Numeric bodies are
parsed by numpy's text reader, so a quoted or underscored cell, or a blank
line, is bad input.
No timestamps or environment data are ever written into data files.
Every writer fills a temporary file beside its target and renames it into
place, so a crash mid-write leaves the previous file (or none), never a
partial one.  Inside `replacing_together`, the writers that take `staged`
rename theirs only once the whole block completes, so a run of rewrites
replaces every target or none.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import asdict, fields
from io import BytesIO
from pathlib import Path
from tokenize import TokenError

import numpy as np

from .errors import MissingInputError
from .estimation import EstimationSeries
from .simulator import Frames, IntrusionLog, TrialEvents

FRAME_COLUMNS = tuple(f.name for f in fields(Frames))

# The estimation CSV: the estimator outputs, then the truth series it
# carries, each as `<name>_true` (`f_total` as `f_true`).
ESTIMATOR_OUTPUTS = tuple(f.name for f in fields(EstimationSeries))
CARRIED_TRUTH = ("x_b", "v_b", "x_f", "v_f", "f_total")
ESTIMATION_COLUMNS = ESTIMATOR_OUTPUTS + tuple(f"{name.removesuffix('_total')}_true" for name in CARRIED_TRUTH)
_F_QS = ESTIMATOR_OUTPUTS.index("f_qs")  # the one column that may hold NaN

# how far a sampled series' spacing may stray from its period t[1] - t[0],
# relative: rounding of t = k / rate, far below a dropped or repeated sample
TIME_BASE_RTOL = 1e-6

# the one dtype of a `.npy` artifact, as its header names it
_NPY_DESCR = np.lib.format.dtype_to_descr(np.dtype(np.float64))

# bytes `file_sha256` hashes at a time, so that no file is ever held whole
_HASH_BLOCK = 1 << 16


def fmt_float(x) -> str:
    return repr(float(x))


@contextmanager
def _replacing(path: Path, newline=None, staged: list | None = None, binary: bool = False):
    """A text (or `binary`) handle on a temporary file beside `path` that
    replaces `path` only once the block completes, or with `staged` (see
    `replacing_together`) is appended to it with `path`; if the block
    raises, the temporary file is removed and `path` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline=newline, encoding="utf-8") as handle:
            yield handle
        if staged is None:
            os.replace(tmp, path)
        else:
            staged.append((tmp, path))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def replacing_together():
    """A list for the writers that take `staged`: each fills its temporary
    file and appends it, and the files replace their targets together once
    the block completes.  If the block raises, every temporary file is
    removed and every target is left as it was."""
    staged = []
    try:
        yield staged
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, path in staged:
        os.replace(tmp, path)


def file_sha256(path) -> str:
    """The hex sha256 of the bytes of the file at `path`, read _HASH_BLOCK
    bytes at a time; a missing or unreadable file is bad input."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            while block := handle.read(_HASH_BLOCK):
                digest.update(block)
    except OSError as exc:
        raise MissingInputError(f"unreadable input file {path}: {exc.strerror}") from exc
    return digest.hexdigest()


def write_csv(path: Path, header, rows, staged: list | None = None) -> None:
    r"""`header` and `rows`, string cells that need no quoting, as
    `csv.writer` would write them: joined by commas, each line ended by
    "\r\n".  With `staged`, the file replaces `path` at the end of its
    `replacing_together` block."""
    with _replacing(path, newline="", staged=staged) as handle:
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
    """`lines` (each without its line end), each `width` numbers, as rows of
    an array; a blank, ragged or non-numeric line raises ValueError."""
    if "" in lines:
        raise ValueError("blank line")
    data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != width:
        raise ValueError(f"expected rows of {width} numbers")
    return data


@contextmanager
def _body(path: Path, columns: tuple[str, ...], kind: str):
    r"""The body lines (without their line ends) of a CSV whose header must
    equal `columns`.  Lines end at "\n", "\r\n" or "\r".  A missing, empty
    or header-only file, or an OSError or ValueError inside the block,
    raises MissingInputError, so the CLI reports it as bad input."""
    with _reading(path, kind) as handle:
        header, *lines = handle.read().split("\n")
        if header != ",".join(columns):
            raise MissingInputError(f"unexpected {kind} header in {path}")
        if lines and not lines[-1]:
            lines.pop()
        if not lines:
            raise MissingInputError(f"malformed {kind} file {path}: expected at least one row")
        yield lines


def _read_csv(path: Path, columns: tuple[str, ...], kind: str) -> np.ndarray:
    """Numeric body of a CSV whose header must equal `columns`; a ragged or
    non-numeric body, or a blank line, is bad input too (`_body`)."""
    with _body(path, columns, kind) as lines:
        return _parse(lines, len(columns))


def _check_time_base(t: np.ndarray, path, kind: str) -> None:
    """A sampled series needs two samples and one period: t[1] - t[0] is
    positive and every spacing of t lies within TIME_BASE_RTOL of it,
    relative."""
    spacing = np.diff(t)
    period = spacing[0] if spacing.size else 0.0
    if not (period > 0.0 and np.all(np.abs(spacing - period) <= TIME_BASE_RTOL * period)):
        raise MissingInputError(
            f"malformed {kind} file {path}: need at least two rows with t increasing by one period"
        )


def _read_npy(path, kind: str, width: int | None = None, load: bool = True) -> np.ndarray | None:
    """The array of the `.npy` file at `path` (without `load`, None): its
    version 1.0 header must name a little-endian float64 array in C order
    with two axes, at least one row and `width` columns (None: at least
    two), and the file hold exactly the bytes of that shape.  The header is
    checked before the array is loaded, so a damaged shape allocates
    nothing.  Anything else, a missing file too, or a header numpy reads
    only as a Python 2 one, is bad input (MissingInputError) in one line
    naming the file."""
    if not Path(path).exists():
        raise MissingInputError(f"missing input file: {path}")
    try:
        with open(path, "rb") as handle, warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            if np.lib.format.read_magic(handle) != (1, 0):
                raise ValueError("not a version 1.0 .npy file")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
            if not (
                dtype.str == _NPY_DESCR and not fortran_order and len(shape) == 2 and shape[0] > 0
                and (shape[1] == width if width else shape[1] >= 2)
            ):
                raise ValueError(f"need a C-order {_NPY_DESCR} array of at least one row of {width or 'at least 2'} "
                                 f"columns, found dtype {dtype.str}, shape {shape}, fortran_order {fortran_order}")
            body, need = os.fstat(handle.fileno()).st_size - handle.tell(), shape[0] * shape[1] * dtype.itemsize
            if body != need:
                raise ValueError(f"{body} bytes after the header, where shape {shape} needs {need}")
            handle.seek(0)
            return np.load(handle, allow_pickle=False) if load else None
    # a damaged header: SyntaxError, TypeError (a bytes key), or from numpy's
    # retry of a Python 2 header a TokenError or its warning
    except (OSError, ValueError, SyntaxError, TypeError, TokenError, UserWarning) as exc:
        raise MissingInputError(f"malformed {kind} file {path}: {' '.join(str(exc).split())}") from exc


def write_frames_npy(path, frames: Frames) -> None:
    """A hop's frames as an (n, 8) float64 array, columns in FRAME_COLUMNS order."""
    with _replacing(path, binary=True) as handle:
        data = np.column_stack([getattr(frames, col) for col in FRAME_COLUMNS]).astype(_NPY_DESCR, copy=False)
        np.save(handle, data, allow_pickle=False)


def read_frames_npy(path) -> Frames:
    """A hop's frames (`_read_npy`); every cell must be finite and `t` one period."""
    data = _read_npy(path, "frames", len(FRAME_COLUMNS))
    if not np.isfinite(data).all():
        raise MissingInputError(f"malformed frames file {path}: need finite cells")
    _check_time_base(data[:, 0], path, "frames")
    return Frames(*data.T)


def is_finite_number(value) -> bool:
    """A finite JSON number (a bool is not one)."""
    return type(value) in (int, float) and math.isfinite(value)


def json_record(payload, cls, kind: str, path):
    """A `cls` built from the same-named keys of `payload`, the JSON object
    read from `path`, whose values must all be finite numbers; anything
    else is bad input."""
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
    return json_record(read_json(path), TrialEvents, "events", path)


def write_estimation_csv(path, est: EstimationSeries, truth: dict) -> None:
    """Estimator outputs plus the carried truth columns, taken by name from
    `truth` (one row per frame)."""
    cols = [getattr(est, name) for name in ESTIMATOR_OUTPUTS] + [truth[name] for name in CARRIED_TRUTH]
    write_columns_csv(path, ESTIMATION_COLUMNS, cols)


def _carried_cells(path) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
    """The `t` of the estimation CSV at `path`, with each row's `t` cell and
    its five truth cells (one string) as written.  Only those cells are
    parsed; the header must match, every row must have 12 cells and the
    truth cells must be finite.  Only the carried strings
    outlive this call, so the file's lines are freed before the estimates
    are formatted (the process's peak memory)."""
    width, truth_at = len(ESTIMATION_COLUMNS), len(ESTIMATOR_OUTPUTS)
    with _body(path, ESTIMATION_COLUMNS, "estimation") as lines:
        if not all(line.count(",") == width - 1 for line in lines):
            raise ValueError(f"expected rows of {width} cells")
        # split at the first 7 commas: piece 0 is t, piece 7 the five truth cells
        t_cells, truth_cells = zip(*(line.split(",", truth_at)[::truth_at] for line in lines))
        t = _parse(t_cells, 1)[:, 0]
        truth = _parse(truth_cells, len(CARRIED_TRUTH))
    if not np.isfinite(truth).all():
        raise MissingInputError(f"malformed estimation file {path}: need finite truth cells")
    _check_time_base(t, path, "estimation")
    return t, t_cells, truth_cells


def write_reestimation_csv(path, est: EstimationSeries, staged: list) -> None:
    """Replace the estimate columns of the estimation CSV at `path` with
    `est`'s, formatted as `write_estimation_csv` formats them, at the end of
    the `replacing_together` block of `staged`; each row's `t` and truth
    cells are carried as written (`_carried_cells`).  The carried cells must
    be numbers, the truth finite, and `t` one period equal to `est.t`.
    Anything else raises MissingInputError and leaves the file as it was."""
    t, t_cells, truth_cells = _carried_cells(path)
    if not np.array_equal(t, est.t):
        raise MissingInputError(f"{path} does not match the time base of its frames")
    estimates = [_cells(getattr(est, name)) for name in ESTIMATOR_OUTPUTS[1:]]
    write_csv(path, ESTIMATION_COLUMNS, zip(t_cells, *estimates, truth_cells, strict=True), staged)


def read_estimation_csv(path) -> tuple[EstimationSeries, dict[str, np.ndarray]]:
    """A trial's estimates and the truth it carries.  Every cell must be
    finite but `f_qs`, which may also be NaN, at a frame whose encoder angle
    sits at the leg's extension singularity."""
    data = _read_csv(Path(path), ESTIMATION_COLUMNS, "estimation")
    finite = np.isfinite(data)
    finite[:, _F_QS] |= np.isnan(data[:, _F_QS])
    if not finite.all():
        raise MissingInputError(f"malformed estimation file {path}: need finite cells, or a NaN f_qs")
    _check_time_base(data[:, 0], path, "estimation")
    outputs = dict(zip(ESTIMATOR_OUTPUTS, data.T))
    truth = dict(zip(CARRIED_TRUTH, data[:, len(ESTIMATOR_OUTPUTS):].T))
    return EstimationSeries(**outputs), truth


def write_intrusion_npy(path, logs: list[IntrusionLog]) -> str:
    """The intrusion grid: a (rows, 1 + R) float64 array, one row per load-cell
    sample of each record, its speed then each repeat's force, written as its
    header and then one record's block at a time, never whole.  A record whose
    force is not a row per repeat, as many as the first record's, raises
    ValueError.  Returns the hex sha256 of the bytes written."""
    repeats = len(logs[0].force)
    for log in logs:
        if log.force.ndim != 2 or len(log.force) != repeats:
            raise ValueError(f"{path}: the record at {log.speed} m/s needs {repeats} force rows")
    shape = (sum(log.force.shape[1] for log in logs), 1 + repeats)
    header = BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": _NPY_DESCR, "fortran_order": False, "shape": shape})
    digest = hashlib.sha256(header.getvalue())
    with _replacing(path, binary=True) as handle:
        handle.write(header.getvalue())
        for log in logs:
            block = np.empty((log.force.shape[1], 1 + repeats), dtype=_NPY_DESCR)
            block[:, 0] = log.speed
            block[:, 1:] = log.force.T
            handle.write(block)
            digest.update(block)
    return digest.hexdigest()


def check_intrusion_npy(path) -> None:
    """Bad input unless the file at `path` has an intrusion grid's header and
    size (`_read_npy`), checked without loading its array."""
    _read_npy(path, "intrusion", load=False)


def read_intrusion_npy(path) -> list[IntrusionLog]:
    """The intrusion grid's records, one per speed in file order, each force
    row a view of the array loaded (`_read_npy`); `t` and `depth` come from a
    record's speed and rows (`IntrusionLog`).  A non-finite cell, or a speed
    below the row before it, is bad input."""
    data = _read_npy(path, "intrusion")
    speed = data[:, 0]
    if not (np.isfinite(data).all() and np.all(speed[1:] >= speed[:-1])):
        raise MissingInputError(
            f"malformed intrusion file {path}: need finite cells and speeds that increase from block to block"
        )
    bounds = [0, *(np.flatnonzero(np.diff(speed)) + 1).tolist(), len(speed)]
    return [
        IntrusionLog(speed=float(speed[start]), force=data[start:end, 1:].T) for start, end in zip(bounds, bounds[1:])
    ]


def write_force_map_csv(path, depths, speeds, surface) -> None:
    """One row per (depth, speed) grid point, depth-major, written one depth
    at a time, so the text of the largest file `report` writes is never
    held whole (the process's peak memory).  Each axis value is formatted
    once; a surface without one force per grid point raises ValueError."""
    depth_cells, speed_cells, forces = _cells(depths), _cells(speeds), _cells(np.ravel(surface))
    width = len(speed_cells)
    if len(forces) != len(depth_cells) * width:
        raise ValueError(f"{path}: {len(forces)} forces for {len(depth_cells)} depths x {width} speeds")
    with _replacing(path, newline="") as handle:
        handle.write("depth,speed,force\r\n")
        for row, depth in enumerate(depth_cells):
            row_forces = forces[row * width:(row + 1) * width]
            handle.write("".join(f"{depth},{speed},{force}\r\n" for speed, force in zip(speed_cells, row_forces)))


def write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with _replacing(path) as handle:
        handle.write(text)


def read_json(path) -> dict:
    with _reading(Path(path), "JSON") as handle:
        return json.load(handle)
