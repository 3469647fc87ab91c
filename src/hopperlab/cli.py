"""hopperlab command-line interface.

Commands
    estimate   new estimate columns in each trial's estimation CSV, from its
               `_frames.npy`; each row's `t` and truth cells are kept as
               written.  The header, 12 cells a row, a numeric `t`, finite
               truth cells and a `t` of one period equal to the frames' are
               checked first; a frames file without its estimation CSV is
               bad input.  The rewrites replace their files together, once
               the last succeeds: on any failure every file is left as it was.
    identify   intrusion-model (rig) fit + treatment report scored against
               the fit's k, from existing hop artifacts and intrusion grid;
               the grid is loaded and fitted only when its sha256 differs
               from the one the fit records
    sweep      full grid: intrusions and their fit, then hops + estimation
               + identification
    report     summary JSON + plot-ready CSVs, the force map drawn from the
               rig fit

Every command needs `--config`, the one source of the run's settings (the
seeds included), and `--out`, the one source of its output directory.
`--jobs` and `--resume` are read by sweep only; any other command given
one exits 2 before it reads or writes anything, as does a missing `--out`
or one that is not a directory.  Exit codes: 0 success, 2 config or usage
error, 3 runtime/integration or numeric error (an intrusion grid that
cannot be fitted), 4 missing-input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io
from .config import ExperimentConfig, load_config
from .errors import ConfigError, HopperlabError, MissingInputError
from .experiments import (
    estimate_from_frames,
    identify_inputs,
    identify_outputs,
    run_sweep,
    write_report,
)


def _resolve_out(args) -> Path:
    """`--out`; anything but a directory there is a usage error, raised first."""
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"output directory {out} exists and is not a directory")
    return out


def cmd_estimate(config: ExperimentConfig, args) -> int:
    out = _resolve_out(args)
    frame_files = sorted(out.glob("*_frames.npy"))
    if not frame_files:
        raise MissingInputError(f"no *_frames.npy files in {out}")
    with io.replacing_together() as staged:
        for path in frame_files:
            est = estimate_from_frames(config, io.read_frames_npy(path))
            target = path.with_name(path.name.removesuffix("_frames.npy") + "_estimation.csv")
            io.write_reestimation_csv(target, est, staged)
    print(f"estimated {len(frame_files)} trials in {out}")
    return 0


def cmd_identify(config: ExperimentConfig, args) -> int:
    out = _resolve_out(args)
    identify_outputs(config, out, *identify_inputs(out))
    print(f"wrote treatment_report.json and fits.csv to {out}")
    return 0


def cmd_sweep(config: ExperimentConfig, args) -> int:
    out = _resolve_out(args)
    manifest = run_sweep(config, out, jobs=1 if args.jobs is None else args.jobs, resume=bool(args.resume))
    n_hop = sum(1 for e in manifest["entries"] if e["kind"] == "hop")
    grid = f"{config.sweep.intrusion_speed_count} speeds x {config.sweep.intrusion_repeats} repeats"
    print(f"sweep complete: {n_hop} hop trials and an intrusion grid of {grid} in {out}")
    return 0


def cmd_report(config: ExperimentConfig, args) -> int:
    out = _resolve_out(args)
    write_report(config, out)
    print(f"wrote summary.json and plot CSVs to {out}")
    return 0


_COMMANDS = {
    "estimate": cmd_estimate,
    "identify": cmd_identify,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


# the flags beyond --config and --out, all read by sweep only
_SWEEP_FLAGS = ("jobs", "resume")


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command; a flag left out is None, so `main` can
    tell a flag given to a command that does not read it."""
    parser = argparse.ArgumentParser(
        prog="hopperlab",
        description="Granular hopping simulator and proprioceptive terrain identification workbench",
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to run")
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--jobs", type=int, help="parallel workers for the hop grid (sweep; default 1)")
    parser.add_argument(
        "--resume", action="store_true", default=None, help="skip hop trials whose outputs read back (sweep)"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in _SWEEP_FLAGS:
        if getattr(args, flag) is not None and args.command != "sweep":
            parser.error(f"--{flag} is read by sweep only, not by {args.command}")
    try:
        config = load_config(args.config)
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingInputError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 4
    except HopperlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # an in-domain but extreme config value: 1e300 squared overflows, a
        # 1e16 kg body rounds the mass-matrix determinant to 0, a 1e30 IMU
        # sigma makes the filter's innovation covariance singular
        print(f"error: numeric failure, a config value is too extreme: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
