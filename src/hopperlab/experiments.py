"""Experiment orchestration: single trials, grid sweeps, and reports.

A sweep writes its manifest before any trial runs, so an interrupted run
can be resumed; completed trials (all output files present) are skipped
and the final artifacts are identical to an uninterrupted run.  Trials
are independent, so the hop grid can be dispatched to a process pool.

A hop trial's artifacts are its sensor frames, events and estimation CSV;
the estimation CSV carries the ground truth at the sensor rate, which is
all that identification and reporting read.  The 10 kHz truth log is not
written by a sweep: `hopperlab simulate` at the trial's speed, stiffness
and seed rebuilds the trial bit for bit and writes it as `<id>_truth.csv`.
"""

from __future__ import annotations

import dataclasses
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import io
from .config import ExperimentConfig
from .errors import ConfigError, DegenerateFitError, InsufficientDataError, MissingInputError
from .estimation import KalmanConfig, kalman_x0, run_estimation
from .identification import (
    DepthSpeedFit,
    TrialSamples,
    WeightConfig,
    added_mass_reconstruction,
    extract_samples,
    fit_depth_speed_model,
    sem,
    treatment_comparison,
)
from .simulator import (
    Frames,
    NoiseConfig,
    TruthSeries,
    run_constant_speed_intrusion,
    run_hop_trial,
)
from .terrain import force_map


def hop_trial_id(speed: float, kc_n_per_cm: float, seed: int) -> str:
    return f"hop_v{speed:.2f}_kc{kc_n_per_cm:.2f}_s{seed}"


def intrusion_trial_id(speed: float, repeat: int) -> str:
    return f"intr_v{speed:.4f}_r{repeat}"


def _hop_paths(out_dir: Path, trial_id: str) -> dict[str, Path]:
    return {
        "frames": out_dir / f"{trial_id}_frames.csv",
        "events": out_dir / f"{trial_id}_events.json",
        "estimation": out_dir / f"{trial_id}_estimation.csv",
    }


def run_single_hop(
    config: ExperimentConfig,
    speed: float,
    kc_n_per_cm: float,
    seed: int,
    noiseless: bool = False,
):
    """Simulate one hop at a sweep condition; returns (TrialLog, trial_id)."""
    controller = dataclasses.replace(config.controller, k_compress=kc_n_per_cm * 100.0)
    sim = dataclasses.replace(config.sim, drop_speed=speed)
    noise = NoiseConfig.noiseless() if noiseless else config.noise
    seed_key = [int(seed), int(round(speed * 1000)), int(round(kc_n_per_cm * 100))]
    log = run_hop_trial(sim, controller, config.terrain, config.linkage, seed=seed_key, noise_config=noise)
    return log, hop_trial_id(speed, kc_n_per_cm, seed)


def estimate_from_frames(config: ExperimentConfig, frames: Frames):
    """Run the onboard pipeline with the config's estimation settings."""
    dt = float(frames.t[1] - frames.t[0])
    kconf = KalmanConfig.from_noise(
        config.noise,
        config.linkage,
        dt=dt,
        x0=kalman_x0(frames, config.linkage),
        p0_scale=config.estimation.p0_scale,
    )
    return run_estimation(
        frames, config.linkage, kalman_config=kconf, k_obs=config.estimation.k_obs
    )


def write_hop_artifacts(config: ExperimentConfig, log, trial_id: str, out_dir: Path) -> dict[str, Path]:
    paths = _hop_paths(out_dir, trial_id)
    io.write_frames_csv(paths["frames"], log.frames)
    io.write_events_json(paths["events"], log.events, extra={"trial_id": trial_id, "seed": log.seed})
    frames = Frames.from_list(log.frames)
    est = estimate_from_frames(config, frames)
    io.write_estimation_csv(
        paths["estimation"], est, decimated_truth(log.truth, config.sim.decimation, len(est))
    )
    return paths


def decimated_truth(truth: TruthSeries, decimation: int, n: int) -> dict[str, np.ndarray]:
    """The truth columns the estimation CSV carries, at the sensor rate."""
    return {
        name: getattr(truth, name)[::decimation][:n]
        for name in ("x_b", "v_b", "x_f", "v_f", "f_total")
    }


def _run_hop_job(args) -> tuple[str, str]:
    """Worker: simulate + estimate + write one hop trial (picklable)."""
    config, speed, kc, seed, out_dir = args
    log, trial_id = run_single_hop(config, speed, kc, seed)
    write_hop_artifacts(config, log, trial_id, Path(out_dir))
    return trial_id, "done"


def build_manifest(config: ExperimentConfig, out_dir: Path) -> dict:
    """Every hop and intrusion trial of the sweep, with output paths."""
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
                        "paths": {k: str(p) for k, p in _hop_paths(out_dir, trial_id).items()},
                        "status": "pending",
                    }
                )
    for speed in config.sweep.intrusion_speeds():
        for repeat in range(config.sweep.intrusion_repeats):
            trial_id = intrusion_trial_id(speed, repeat)
            entries.append(
                {
                    "trial_id": trial_id,
                    "kind": "intrusion",
                    "speed": speed,
                    "repeat": repeat,
                    "paths": {"log": str(out_dir / f"{trial_id}.csv")},
                    "status": "pending",
                }
            )
    return {"entries": entries}


def write_intrusion_trials(config: ExperimentConfig, entries: list[dict]) -> None:
    """Run and write each intrusion manifest entry, marking it done.

    The seed key [repeat, round(speed * 1e6)] makes every (speed, repeat)
    pair reproducible on its own.
    """
    for entry in entries:
        log = run_constant_speed_intrusion(
            entry["speed"],
            config.sweep.intrusion_z_max,
            config.terrain,
            noise_config=config.noise,
            seed=[entry["repeat"], int(round(entry["speed"] * 1e6))],
        )
        io.write_intrusion_csv(entry["paths"]["log"], log)
        entry["status"] = "done"


def _outputs_exist(entry: dict) -> bool:
    return all(Path(p).exists() for p in entry["paths"].values())


def run_sweep(config: ExperimentConfig, out_dir: Path, jobs: int = 1, resume: bool = False) -> dict:
    """Hop grid + intrusion grid + estimation + identification."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(config, out_dir)
    io.write_json(out_dir / "manifest.json", manifest)

    hop_jobs = []
    intrusions = []
    for entry in manifest["entries"]:
        if resume and _outputs_exist(entry):
            entry["status"] = "skipped"
        elif entry["kind"] == "hop":
            hop_jobs.append(
                (config, entry["speed"], entry["k_c_n_per_cm"], entry["seed"], str(out_dir))
            )
        else:
            intrusions.append(entry)
    write_intrusion_trials(config, intrusions)

    if jobs > 1 and len(hop_jobs) > 1:
        # the executor forks all max_workers processes at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(hop_jobs))) as pool:
            for _ in pool.map(_run_hop_job, hop_jobs):
                pass
    else:
        for job in hop_jobs:
            _run_hop_job(job)
    for entry in manifest["entries"]:
        if entry["status"] == "pending":
            entry["status"] = "done"
    io.write_json(out_dir / "manifest.json", manifest)

    identify_outputs(config, out_dir)
    return manifest


def _load_trial_samples(config: ExperimentConfig, entry: dict) -> TrialSamples:
    est, _ = io.read_estimation_csv(entry["paths"]["estimation"])
    events = io.read_events_json(entry["paths"]["events"])
    frames = io.read_frames_csv(entry["paths"]["frames"])
    return TrialSamples(
        v_td=entry["speed"],
        k_c_n_per_cm=entry["k_c_n_per_cm"],
        seed=entry["seed"],
        samples_qs=extract_samples(est, events, "qs", frames=frames),
        samples_mo=extract_samples(est, events, "mo", frames=frames),
    )


def identify_outputs(config: ExperimentConfig, out_dir: Path) -> None:
    """Treatment report from hop trials plus the intrusion-model fit."""
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        raise MissingInputError(f"no manifest at {manifest_path}; run sweep first")
    manifest = io.read_json(manifest_path)

    trials = []
    for entry in manifest["entries"]:
        if entry["kind"] != "hop":
            continue
        trials.append(_load_trial_samples(config, entry))
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

    intrusion_logs = [
        io.read_intrusion_csv(entry["paths"]["log"])
        for entry in manifest["entries"]
        if entry["kind"] == "intrusion"
    ]
    fit_path = out_dir / "depth_speed_fit.json"
    try:
        fit = fit_depth_speed_model(intrusion_logs)
    except (InsufficientDataError, DegenerateFitError) as exc:
        # a fit left by an earlier run would describe other intrusion logs
        note = f"; removed the stale {fit_path}" if fit_path.exists() else ""
        fit_path.unlink(missing_ok=True)
        print(f"intrusion-model fit skipped: {exc}{note}", file=sys.stderr)
        return
    io.write_json(
        fit_path,
        {
            "k_fit": fit.k_fit,
            "m_a_inf_fit": fit.m_a_inf_fit,
            "z_c_fit": fit.z_c_fit,
            "rmse": fit.rmse,
            "n_samples": fit.n_samples,
        },
    )


def write_report(config: ExperimentConfig, out_dir: Path) -> None:
    """Summary JSON plus plot-ready CSVs for the force-depth, force-map,
    added-mass and stiffness-recovery figures."""
    out_dir = Path(out_dir)
    treatment_path = out_dir / "treatment_report.json"
    if not treatment_path.exists():
        raise MissingInputError(f"no treatment report at {treatment_path}; run identify first")
    report = io.read_json(treatment_path)
    conditions = report["conditions"]
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

    _write_representative_trial_figs(config, out_dir)


def _write_representative_trial_figs(config: ExperimentConfig, out_dir: Path) -> None:
    """Force-depth scatter and added-mass residual series for one trial."""
    manifest = io.read_json(out_dir / "manifest.json")
    hops = [e for e in manifest["entries"] if e["kind"] == "hop"]
    if not hops:
        return
    # fastest condition, first seed: the regime where dynamics matter most
    entry = max(hops, key=lambda e: (e["speed"], -e["seed"] if isinstance(e["seed"], int) else 0))
    est, truth = io.read_estimation_csv(entry["paths"]["estimation"])
    events = io.read_events_json(entry["paths"]["events"])
    frames = io.read_frames_csv(entry["paths"]["frames"])
    mask = (est.t >= events.t_td) & (est.t <= events.t_lo)
    z_hat = np.maximum(0.0, -est.x_f_hat)
    io.write_columns_csv(
        out_dir / "force_depth_trial.csv",
        ("t", "depth", "f_loadcell", "f_qs", "f_mo"),
        [est.t[mask], z_hat[mask], frames.loadcell_force[mask], est.f_qs[mask], est.f_mo[mask]],
    )

    fit_path = out_dir / "depth_speed_fit.json"
    if not fit_path.exists():
        (out_dir / "added_mass_residual.csv").unlink(missing_ok=True)
        return
    payload = io.read_json(fit_path)
    fit = DepthSpeedFit(
        k_fit=payload["k_fit"],
        m_a_inf_fit=payload["m_a_inf_fit"],
        z_c_fit=payload["z_c_fit"],
        rmse=payload["rmse"],
        n_samples=payload["n_samples"],
    )
    z_t = np.maximum(0.0, -truth["x_f"])
    zd_t = -truth["v_f"]
    zdd = -frames.imu_foot_acc
    predicted, residual = added_mass_reconstruction(
        fit, z_t[mask], zd_t[mask], zdd[mask], frames.loadcell_force[mask]
    )
    io.write_columns_csv(
        out_dir / "added_mass_residual.csv", ("t", "residual", "predicted"), [est.t[mask], residual, predicted]
    )
