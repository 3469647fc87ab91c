"""hopperlab command-line interface.

Commands
    simulate   one hop trial (frames/truth/events + estimation CSVs)
    intrude    the constant-speed intrusion grid, `intrusion_grid.csv`, as a
               sweep writes it
    estimate   estimation CSVs from existing frame CSVs (truth columns from
               `_truth.csv`, else from the previous estimation CSV, else NaN)
    identify   treatment report + intrusion-model fit from existing hop
               artifacts and intrusion grid
    sweep      full grid: hops + intrusions + estimation + identification
    report     summary JSON + plot-ready CSVs

`--seeds` is accepted by simulate and sweep, `--jobs` and `--resume` by
sweep only.  Exit codes: 0 success, 2 config or usage error, 3
runtime/integration or numeric error, 4 missing-input error.  Output
directory precedence: --out, then HOPPERLAB_OUT, then the config's
[output] dir.
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
    decimated_truth,
    estimate_from_frames,
    identify_inputs,
    identify_outputs,
    manifest_trials,
    run_sweep,
    run_single_hop,
    write_hop_artifacts,
    write_intrusion_grid,
    write_report,
)


def _resolve_out(config: ExperimentConfig, args) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("HOPPERLAB_OUT")
    if env:
        return Path(env)
    return Path(config.output_dir)


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


def _truth_for(config: ExperimentConfig, frames_path: Path, est_path: Path, est) -> dict | None:
    """Ground truth at the sensor rate for a re-estimated trial: from its
    `_truth.csv` (written by `simulate`), else from the truth columns of its
    existing `_estimation.csv` (a sweep trial), else None (NaN columns).
    The frames are the decimated truth, so a `_truth.csv` must decimate to
    exactly as many rows as there are frames."""
    truth_path = Path(str(frames_path).replace("_frames.csv", "_truth.csv"))
    if truth_path.exists():
        truth = io.read_truth_csv(truth_path)
        if truth.t[:: config.sim.decimation].size != len(est):
            raise MissingInputError(f"{truth_path} does not decimate to the {len(est)} frames in {frames_path}")
        return decimated_truth(truth, config.sim.decimation)
    if not est_path.exists():
        return None
    previous, truth = io.read_estimation_csv(est_path)
    if not np.array_equal(previous.t, est.t):
        raise MissingInputError(
            f"{est_path} does not match the time base of {frames_path}; "
            "delete it to re-estimate without ground truth"
        )
    return truth


def cmd_estimate(config: ExperimentConfig, args) -> int:
    out = _resolve_out(config, args)
    frame_files = sorted(out.glob("*_frames.csv"))
    if not frame_files:
        raise MissingInputError(f"no *_frames.csv files in {out}")
    for path in frame_files:
        frames = io.read_frames_csv(path)
        est = estimate_from_frames(config, frames)
        est_path = Path(str(path).replace("_frames.csv", "_estimation.csv"))
        io.write_estimation_csv(est_path, est, _truth_for(config, path, est_path, est))
    print(f"estimated {len(frame_files)} trials in {out}")
    return 0


def cmd_identify(config: ExperimentConfig, args) -> int:
    out = _resolve_out(config, args)
    identify_outputs(config, out, *identify_inputs(manifest_trials(out)))
    print(f"wrote treatment_report.json and fits.csv to {out}")
    return 0


def cmd_sweep(config: ExperimentConfig, args) -> int:
    out = _resolve_out(config, args)
    if args.seeds:
        config = with_values(config, "sweep", seeds=tuple(args.seeds))
    manifest = run_sweep(config, out, jobs=args.jobs, resume=args.resume)
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


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopperlab",
        description="Granular hopping simulator and proprioceptive terrain identification workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        if name in ("simulate", "sweep"):
            p.add_argument("--seeds", type=_parse_seeds, default=None, help="comma-separated seed list")
        if name == "sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel workers for the hop grid")
            p.add_argument("--resume", action="store_true", help="skip hop trials whose outputs exist")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
