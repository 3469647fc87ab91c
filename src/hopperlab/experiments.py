"""Experiment orchestration: single trials, grid sweeps, and reports.

A sweep writes its manifest before any trial runs, so an interrupted run
can be resumed; completed hop trials (all output files present) are
skipped and the final artifacts are identical to an uninterrupted run.
The intrusion grid takes milliseconds to simulate, so a resumed sweep
runs it again rather than trust the file on disk.  Hop trials are
independent, so the hop grid can be dispatched to a process pool.

A hop trial's artifacts are its sensor frames, events and estimation CSV;
the estimation CSV carries the ground truth, one row per frame.  The full
truth log, every column of those rows, is not written by a sweep: `hopperlab
simulate` at the trial's speed, stiffness and seed rebuilds the trial
bit for bit and writes it as `<id>_truth.csv`.  The intrusion grid is one artifact,
`intrusion_grid.csv`, with one manifest entry: every speed's load-cell
samples, each repeat's force beside the speed's shared t and depth.
What each command reads:

    sweep     identifies from the stance samples and intrusion logs of the
              trials it ran, held in memory; it reads back only the events
              and estimation files of hops `--resume` skipped.
    identify  the manifest, every hop's events and estimation files and
              the intrusion grid; it writes what a sweep writes, byte for
              byte, through the same `identify_outputs`.
    report    the treatment report, the manifest, `depth_speed_fit.json`,
              and one hop's frames, events and estimation files.

The manifest lists each trial's files by name; `trial_paths` resolves
them against the output directory, so a sweep directory can be copied
or moved.
"""

from __future__ import annotations

import dataclasses
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import io
from .config import ExperimentConfig, hop_trial_id
from .errors import ConfigError, DegenerateFitError, InsufficientDataError, MissingInputError
from .estimation import EstimationSeries, run_estimation
from .identification import (
    ConditionStats,
    DepthSpeedFit,
    TrialSamples,
    added_mass_reconstruction,
    extract_samples,
    fit_depth_speed_model,
    treatment_comparison,
)
from .simulator import (
    Frames,
    IntrusionLog,
    TrialEvents,
    run_constant_speed_intrusion,
    run_hop_trial,
)
from .terrain import force_map

# kind of manifest entry: (its fields besides trial_id, each with the check of
# its value; the keys of its files)
_NUMBER, _INTEGER = io.is_finite_number, lambda value: type(value) is int
_ENTRY_SCHEMA = {
    "hop": ({"speed": _NUMBER, "k_c_n_per_cm": _NUMBER, "seed": _INTEGER}, ("frames", "events", "estimation")),
    "intrusion": ({}, ("log",)),
}
INTRUSION_GRID = "intrusion_grid.csv"
_CONDITION_NUMBERS = [f.name for f in dataclasses.fields(ConditionStats) if f.name != "treatment"]


def _hop_files(trial_id: str) -> dict[str, str]:
    return {
        "frames": f"{trial_id}_frames.csv",
        "events": f"{trial_id}_events.json",
        "estimation": f"{trial_id}_estimation.csv",
    }


def trial_paths(entry: dict, out_dir: Path) -> dict[str, Path]:
    """A manifest entry's files, resolved against the output directory.

    An entry without a known kind, its fields (a hop's speed and stiffness
    finite numbers, its seed an integer), or bare file names for each of its
    outputs is bad input (MissingInputError).
    """
    try:
        fields, keys = _ENTRY_SCHEMA[entry["kind"]]
        names = entry["paths"]
        valid = (
            sorted(names) == sorted(keys)
            and all(isinstance(name, str) and Path(name).name == name for name in names.values())
            and "trial_id" in entry
            and all(valid_value(entry[field]) for field, valid_value in fields.items())
        )
    except (KeyError, TypeError, AttributeError):
        valid = False
    if not valid:
        raise MissingInputError(f"malformed manifest entry: {entry!r}")
    return {key: Path(out_dir) / names[key] for key in keys}


def manifest_trials(out_dir: Path) -> list[tuple[dict, dict[str, Path]]]:
    """(entry, resolved files) of every trial in the sweep's manifest."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        raise MissingInputError(f"no manifest at {manifest_path}; run sweep first")
    manifest = io.read_json(manifest_path)
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise MissingInputError(f"malformed manifest {manifest_path}: no list of entries")
    return [(entry, trial_paths(entry, out_dir)) for entry in entries]


def run_single_hop(config: ExperimentConfig, speed: float, kc_n_per_cm: float, seed: int):
    """Simulate one hop at a sweep condition; returns (TrialLog, trial_id)."""
    controller = dataclasses.replace(config.controller, k_compress=kc_n_per_cm * 100.0)
    sim = dataclasses.replace(config.sim, drop_speed=speed)
    seed_key = [int(seed), int(round(speed * 1000)), int(round(kc_n_per_cm * 100))]
    log = run_hop_trial(sim, controller, config.terrain, config.linkage, seed=seed_key, noise_config=config.noise)
    return log, hop_trial_id(speed, kc_n_per_cm, seed)


def estimate_from_frames(config: ExperimentConfig, frames: Frames) -> EstimationSeries:
    """Run the onboard pipeline with the config's sensor model and estimation settings."""
    return run_estimation(frames, config.linkage, config.noise, config.estimation)


def write_hop_artifacts(config: ExperimentConfig, log, trial_id: str, out_dir: Path) -> EstimationSeries:
    """Write a hop's frames, events and estimation files; returns its estimates."""
    paths = {key: Path(out_dir) / name for key, name in _hop_files(trial_id).items()}
    io.write_frames_csv(paths["frames"], log.frames)
    io.write_events_json(paths["events"], log.events, extra={"trial_id": trial_id, "seed": log.seed})
    est = estimate_from_frames(config, log.frames)
    io.write_estimation_csv(paths["estimation"], est, vars(log.truth))
    return est


def _trial_samples(entry: dict, est: EstimationSeries, events: TrialEvents) -> TrialSamples:
    """A hop's stance samples, keyed by its manifest entry's condition."""
    return TrialSamples(
        v_td=entry["speed"],
        k_c_n_per_cm=entry["k_c_n_per_cm"],
        seed=entry["seed"],
        samples_qs=extract_samples(est, events, "qs"),
        samples_mo=extract_samples(est, events, "mo"),
    )


def _run_hop_job(args) -> TrialSamples:
    """Worker: simulate, estimate and write one hop trial; returns its
    stance samples (picklable)."""
    config, entry, out_dir = args
    log, trial_id = run_single_hop(config, entry["speed"], entry["k_c_n_per_cm"], entry["seed"])
    est = write_hop_artifacts(config, log, trial_id, Path(out_dir))
    return _trial_samples(entry, est, log.events)


def build_manifest(config: ExperimentConfig) -> dict:
    """Every hop trial of the sweep and its intrusion grid, with their output
    file names."""
    entries = []
    for kc in config.sweep.stiffnesses_n_per_cm:
        for speed in config.sweep.speeds:
            for seed in config.sweep.seeds:
                trial_id = hop_trial_id(speed, kc, seed)
                entries.append(
                    {
                        "trial_id": trial_id,
                        "kind": "hop",
                        "speed": speed,
                        "k_c_n_per_cm": kc,
                        "seed": seed,
                        "paths": _hop_files(trial_id),
                        "status": "pending",
                    }
                )
    entries.append(
        {"trial_id": "intrusion_grid", "kind": "intrusion", "paths": {"log": INTRUSION_GRID}, "status": "pending"}
    )
    return {"entries": entries}


def write_intrusion_grid(config: ExperimentConfig, path: Path) -> list[IntrusionLog]:
    """Run every intrusion speed `intrusion_repeats` times and write the grid
    to `path`; returns the logs speed-major, repeat-minor.

    The seed key [repeat, round(speed * 1e6)] makes every (speed, repeat)
    pair reproducible on its own.
    """
    sweep = config.sweep
    logs = [
        run_constant_speed_intrusion(
            speed,
            sweep.intrusion_z_max,
            config.terrain,
            noise_config=config.noise,
            seed=[repeat, int(round(speed * 1e6))],
        )
        for speed in sweep.intrusion_speeds()
        for repeat in range(sweep.intrusion_repeats)
    ]
    io.write_intrusion_csv(path, logs, sweep.intrusion_repeats)
    return logs


def _outputs_exist(entry: dict, out_dir: Path) -> bool:
    return all(p.exists() for p in trial_paths(entry, out_dir).values())


def run_sweep(config: ExperimentConfig, out_dir: Path, jobs: int = 1, resume: bool = False) -> dict:
    """Hop grid + intrusion grid + estimation + identification.  Under
    `resume`, a hop whose files exist is skipped; the intrusion grid always
    runs."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(config)
    io.write_json(out_dir / "manifest.json", manifest)

    # trial id -> its identification input, kept in memory for every trial run here
    ready, hops = {}, []
    for entry in manifest["entries"]:
        if entry["kind"] == "intrusion":
            ready[entry["trial_id"]] = write_intrusion_grid(config, trial_paths(entry, out_dir)["log"])
        elif resume and _outputs_exist(entry, out_dir):
            entry["status"] = "skipped"
        else:
            hops.append(entry)

    hop_jobs = [(config, entry, str(out_dir)) for entry in hops]
    if jobs > 1 and len(hop_jobs) > 1:
        # the executor forks all max_workers processes at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(hop_jobs))) as pool:
            samples = list(pool.map(_run_hop_job, hop_jobs))
    else:
        samples = [_run_hop_job(job) for job in hop_jobs]
    ready.update(zip((e["trial_id"] for e in hops), samples))
    for entry in manifest["entries"]:
        if entry["status"] == "pending":
            entry["status"] = "done"
    io.write_json(out_dir / "manifest.json", manifest)

    trials = [(entry, trial_paths(entry, out_dir)) for entry in manifest["entries"]]
    identify_outputs(config, out_dir, *identify_inputs(trials, ready))
    return manifest


def identify_inputs(
    trials: list[tuple[dict, dict[str, Path]]], ready: dict | None = None
) -> tuple[list[TrialSamples], list[IntrusionLog]]:
    """The hops' stance samples and the intrusion logs of `trials` ((manifest
    entry, files) pairs), in their order.  A trial's input is taken from
    `ready` (trial id -> stance samples, or the intrusion grid's logs) when
    there, else read back from its files."""
    ready = ready or {}
    hops, logs = [], []
    for entry, paths in trials:
        result = ready.get(entry["trial_id"])
        if result is None and entry["kind"] == "hop":
            est, _ = io.read_estimation_csv(paths["estimation"])
            result = _trial_samples(entry, est, io.read_events_json(paths["events"]))
        elif result is None:
            result = io.read_intrusion_csv(paths["log"])
        if entry["kind"] == "hop":
            hops.append(result)
        else:
            logs += result
    return hops, logs


def identify_outputs(
    config: ExperimentConfig, out_dir: Path, trials: list[TrialSamples], intrusion_logs: list[IntrusionLog]
) -> None:
    """Treatment report from the hops' stance samples plus the intrusion-model
    fit of the intrusion logs."""
    out_dir = Path(out_dir)
    if not trials:
        raise InsufficientDataError("no hop trials in manifest")
    report = treatment_comparison(trials, k_gt=config.terrain.k_stiff, weights=config.weight)
    io.write_json(
        out_dir / "treatment_report.json",
        {
            "k_gt": report.k_gt,
            "conditions": [dataclasses.asdict(c) for c in report.conditions],
        },
    )
    rows = [
        [io.fmt_float(f["v_td"]), io.fmt_float(f["k_c_n_per_cm"]), f["treatment"], io.fmt_float(f["k_est"]), str(f["seed"])]
        for f in report.fits
    ]
    io.write_csv(out_dir / "fits.csv", ("v_td", "k_c", "treatment", "k_est", "seed"), rows)

    fit_path = out_dir / "depth_speed_fit.json"
    try:
        fit = fit_depth_speed_model(intrusion_logs)
    except (InsufficientDataError, DegenerateFitError) as exc:
        # a fit left by an earlier run would describe other intrusion logs
        note = f"; removed the stale {fit_path}" if fit_path.exists() else ""
        fit_path.unlink(missing_ok=True)
        print(f"intrusion-model fit skipped: {exc}{note}", file=sys.stderr)
        return
    io.write_json(fit_path, dataclasses.asdict(fit))


def write_report(config: ExperimentConfig, out_dir: Path) -> None:
    """Summary JSON plus plot-ready CSVs for the force-depth, force-map,
    added-mass and stiffness-recovery figures."""
    out_dir = Path(out_dir)
    treatment_path = out_dir / "treatment_report.json"
    if not treatment_path.exists():
        raise MissingInputError(f"no treatment report at {treatment_path}; run identify first")
    report = io.read_json(treatment_path)
    conditions = report.get("conditions") if isinstance(report, dict) else None
    if not (
        isinstance(conditions, list)
        and isinstance(report.get("k_gt"), (int, float))
        and all(
            isinstance(c, dict)
            and isinstance(c.get("treatment"), str)
            and all(isinstance(c.get(name), (int, float)) for name in _CONDITION_NUMBERS)
            for c in conditions
        )
    ):
        raise MissingInputError(
            f"malformed treatment report {treatment_path}: need a number k_gt and a list of condition objects"
        )
    if not conditions:
        raise InsufficientDataError("treatment report is empty")

    io.write_json(
        out_dir / "summary.json",
        {
            "k_gt": report["k_gt"],
            "n_conditions": len({(c["v_td"], c["k_c_n_per_cm"]) for c in conditions}),
            "conditions": conditions,
        },
    )

    kc_values = sorted({c["k_c_n_per_cm"] for c in conditions})
    kc_mid = kc_values[len(kc_values) // 2]
    rows_c = [
        [io.fmt_float(c["v_td"]), c["treatment"], io.fmt_float(c["mean_k"]), io.fmt_float(c["sem_k"]), io.fmt_float(report["k_gt"])]
        for c in conditions
        if c["k_c_n_per_cm"] == kc_mid
    ]
    io.write_csv(out_dir / "stiffness_vs_speed.csv", ("v_td", "treatment", "mean_k", "sem_k", "k_gt"), rows_c)

    speeds = sorted({c["v_td"] for c in conditions})
    target = 1.0 if 1.0 in speeds else speeds[-1]
    rows_d = [
        [io.fmt_float(c["k_c_n_per_cm"]), c["treatment"], io.fmt_float(c["mean_k"]), io.fmt_float(c["sem_k"]), io.fmt_float(report["k_gt"])]
        for c in conditions
        if c["v_td"] == target
    ]
    io.write_csv(out_dir / "stiffness_vs_kc.csv", ("k_c", "treatment", "mean_k", "sem_k", "k_gt"), rows_d)

    depths = np.linspace(0.0, config.sweep.intrusion_z_max, 51)
    speeds_grid = np.asarray(config.sweep.intrusion_speeds())
    surface = force_map(config.terrain, depths, speeds_grid)
    io.write_force_map_csv(out_dir / "force_map.csv", depths, speeds_grid, surface)

    _write_representative_trial_figs(out_dir)


def _write_representative_trial_figs(out_dir: Path) -> None:
    """Force-depth scatter and added-mass residual series for one trial."""
    hops = [e for e, _ in manifest_trials(out_dir) if e["kind"] == "hop"]
    if not hops:
        return
    # fastest condition, first seed: the regime where dynamics matter most
    entry = max(hops, key=lambda e: (e["speed"], -e["seed"]))
    paths = trial_paths(entry, out_dir)
    est, truth = io.read_estimation_csv(paths["estimation"])
    events = io.read_events_json(paths["events"])
    frames = io.read_frames_csv(paths["frames"])
    mask = (est.t >= events.t_td) & (est.t <= events.t_lo)
    z_hat = np.maximum(0.0, -est.x_f_hat)
    io.write_columns_csv(
        out_dir / "force_depth_trial.csv",
        ("t", "depth", "f_loadcell", "f_qs", "f_mo"),
        [est.t[mask], z_hat[mask], frames.loadcell_force[mask], est.f_qs[mask], est.f_mo[mask]],
    )

    fit_path = out_dir / "depth_speed_fit.json"
    residual_path = out_dir / "added_mass_residual.csv"
    residual_path.unlink(missing_ok=True)  # it was built from an earlier fit
    if not fit_path.exists():
        return
    fit = io.read_record(fit_path, DepthSpeedFit, "depth-speed fit")
    if not fit.in_box():
        raise MissingInputError(f"{fit_path} holds parameters outside the fit's box: {fit}")
    z_t = np.maximum(0.0, -truth["x_f"])
    zd_t = -truth["v_f"]
    zdd = -frames.imu_foot_acc
    predicted, residual = added_mass_reconstruction(
        fit, z_t[mask], zd_t[mask], zdd[mask], frames.loadcell_force[mask]
    )
    io.write_columns_csv(residual_path, ("t", "residual", "predicted"), [est.t[mask], residual, predicted])
