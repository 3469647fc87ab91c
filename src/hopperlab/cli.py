"""hopperlab command-line interface.

Commands
    simulate   one hop trial (frames/truth/events + estimation CSVs)
    intrude    the constant-speed intrusion grid, `intrusion_grid.csv`, as a
               sweep writes it
    estimate   estimation CSVs from existing frame CSVs.  A trial with a
               `_truth.csv` (`simulate`) gets its truth columns from it; its
               `t` must equal the frames'.  A trial with an estimation CSV
               and no truth log (a sweep trial) keeps that file's `t` and
               truth cells as written and gets new estimate columns; the
               header, 12 cells a row, numeric `t` and truth cells, and a
               `t` of one period equal to the frames' are checked first.
               Otherwise the truth columns are NaN.  On any failure the
               file is left as it was.
    identify   intrusion-model (rig) fit + treatment report scored against
               the fit's k, from existing hop artifacts and intrusion grid;
               the grid is parsed and fitted only when its sha256 differs
               from the one the fit records
    sweep      full grid: intrusions and their fit, then hops + estimation
               + identification
    report     summary JSON + plot-ready CSVs, the force map the rig fit's

`--seeds` is accepted by simulate and sweep, `--jobs` and `--resume` by
sweep only; any other command given one exits 2 before it reads or
writes anything, as it does for an empty seed list.  Exit codes: 0
success, 2 config or usage error, 3 runtime/integration or numeric
error (an intrusion grid that cannot be fitted), 4 missing-input error.  Output directory precedence: --out, then
HOPPERLAB_OUT, then the config's [output] dir; one that exists as a file
is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .config import ExperimentConfig, load_config, with_values
from .errors import ConfigError, HopperlabError, MissingInputError
from .experiments import (
    INTRUSION_GRID,
    estimate_from_frames,
    identify_inputs,
    identify_outputs,
    run_sweep,
    run_single_hop,
    write_hop_artifacts,
    write_intrusion_grid,
    write_report,
)


def _resolve_out(config: ExperimentConfig, args) -> Path:
    """The output directory by the precedence above; one that exists as
    anything but a directory is a usage error, raised before the command
    reads or writes anything."""
    out = Path(args.out or os.environ.get("HOPPERLAB_OUT") or config.output_dir)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"output directory {out} exists and is not a directory")
    return out


def cmd_simulate(config: ExperimentConfig, args) -> int:
    out = _resolve_out(config, args)
    configs = [with_values(config, "sim", seed=seed) for seed in args.seeds or [config.sim.seed]]
    kc_ncm = config.controller.k_compress / 100.0
    for config in configs:
        log, trial_id = run_single_hop(config, config.sim.drop_speed, kc_ncm, config.sim.seed)
        write_hop_artifacts(config, log, trial_id, out)
        io.write_truth_csv(out / f"{trial_id}_truth.csv", log.truth)
        print(f"wrote trial {trial_id} to {out}")
    return 0


def _intrusion_grid(config: ExperimentConfig) -> str:
    return f"intrusion grid of {config.sweep.intrusion_speed_count} speeds x {config.sweep.intrusion_repeats} repeats"


def cmd_intrude(config: ExperimentConfig, args) -> int:
    out = _resolve_out(config, args)
    write_intrusion_grid(config, out / INTRUSION_GRID)
    print(f"wrote an {_intrusion_grid(config)} to {out}")
    return 0


def _write_estimates(frames_path: Path, frames, est) -> None:
    """Write a trial's estimation CSV beside its frames file, with its truth
    taken as `estimate` takes it (module docstring)."""
    trial = frames_path.name.removesuffix("_frames.csv")
    truth_path = frames_path.with_name(f"{trial}_truth.csv")
    est_path = frames_path.with_name(f"{trial}_estimation.csv")
    if truth_path.exists():
        truth = io.read_truth_csv(truth_path)
        if not np.array_equal(truth.t, frames.t):
            raise MissingInputError(f"{truth_path} does not hold the t of the {len(frames.t)} frames in {frames_path}")
        io.write_estimation_csv(est_path, est, vars(truth))
    elif est_path.exists():
        io.write_reestimation_csv(est_path, est)
    else:
        io.write_estimation_csv(est_path, est)


def cmd_estimate(config: ExperimentConfig, args) -> int:
    out = _resolve_out(config, args)
    frame_files = sorted(out.glob("*_frames.csv"))
    if not frame_files:
        raise MissingInputError(f"no *_frames.csv files in {out}")
    for path in frame_files:
        frames = io.read_frames_csv(path)
        _write_estimates(path, frames, estimate_from_frames(config, frames))
    print(f"estimated {len(frame_files)} trials in {out}")
    return 0


def cmd_identify(config: ExperimentConfig, args) -> int:
    out = _resolve_out(config, args)
    identify_outputs(config, out, *identify_inputs(out))
    print(f"wrote treatment_report.json and fits.csv to {out}")
    return 0


def cmd_sweep(config: ExperimentConfig, args) -> int:
    out = _resolve_out(config, args)
    if args.seeds is not None:
        config = with_values(config, "sweep", seeds=tuple(args.seeds))
    manifest = run_sweep(config, out, jobs=1 if args.jobs is None else args.jobs, resume=bool(args.resume))
    n_hop = sum(1 for e in manifest["entries"] if e["kind"] == "hop")
    print(f"sweep complete: {n_hop} hop trials and an {_intrusion_grid(config)} in {out}")
    return 0


def cmd_report(config: ExperimentConfig, args) -> int:
    out = _resolve_out(config, args)
    write_report(config, out)
    print(f"wrote summary.json and plot CSVs to {out}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "intrude": cmd_intrude,
    "estimate": cmd_estimate,
    "identify": cmd_identify,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


# the flags beyond --config and --out, and the commands that read each
_FLAG_COMMANDS = {"seeds": ("simulate", "sweep"), "jobs": ("sweep",), "resume": ("sweep",)}


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"bad seed list: {text!r}, need comma-separated integers")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command; a flag left out is None, so `main` can
    tell a flag given to a command that does not read it."""
    parser = argparse.ArgumentParser(
        prog="hopperlab",
        description="Granular hopping simulator and proprioceptive terrain identification workbench",
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to run")
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default=None, help="output directory (overrides HOPPERLAB_OUT and the config)")
    parser.add_argument("--seeds", type=_parse_seeds, help="comma-separated seed list (simulate, sweep)")
    parser.add_argument("--jobs", type=int, help="parallel workers for the hop grid (sweep; default 1)")
    parser.add_argument(
        "--resume", action="store_true", default=None, help="skip hop trials whose outputs read back (sweep)"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, commands in _FLAG_COMMANDS.items():
        if getattr(args, flag) is not None and args.command not in commands:
            parser.error(f"--{flag} is read by {' and '.join(commands)} only, not by {args.command}")
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
