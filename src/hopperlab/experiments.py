"""Experiment orchestration: single trials, grid sweeps, and reports.

A sweep writes its manifest before any trial runs, so an interrupted run
can be resumed; completed hop trials are skipped and the final artifacts
are identical to an uninterrupted run.  The intrusion grid takes
milliseconds to simulate, so a resumed sweep runs it again rather than
trust the file on disk.  Hop trials are independent, so the hop grid can
be dispatched to a process pool.

A hop trial's artifacts are its sensor frames (an `.npy` array), events
and estimation CSV; the estimation CSV carries the ground truth, one row
per frame.  The full truth log is not written:
`run_single_hop(config, speed, kc, seed)[0].truth` rebuilds it bit for
bit from the trial's condition.  The intrusion grid is one `.npy` array,
`intrusion_grid.npy`, with one manifest entry: every speed's load-cell
samples, each row its speed and each repeat's force (the speed and the
row give t and depth: `simulator.IntrusionLog`).  Its fit,
`depth_speed_fit.json`, records the grid's sha256 (`grid_sha256`).

The rig fit is the ground truth, as the paper's linear actuator is:
`identify` scores against its `k_fit` (`k_gt`), and `report` evaluates
the reaction law (`terrain.reaction_terms`) on its bed,
`TerrainParams(k_fit, m_a_inf_fit, z_c_fit)`, for `force_map.csv` and
the added-mass residual; neither reads `[terrain]`.  A grid that cannot
be fitted leaves none (`_fit_grid`).

A hop reads back (`_read_hop`) when its estimation, events and frames
files read, its frames and estimation files hold the same `t`, and its
events lie in order within that `t` (`_read_events`).
What each command reads:

    sweep     nothing, to identify: it hashes the grid's bytes as it
              writes them, fits the intrusion records it holds in
              memory as soon as the grid is written, before any hop runs,
              and holds every hop's stance samples.  `--resume` first reads
              the manifest and refuses another config, or entries that
              name other files than this config writes (ConfigError, with
              nothing written), then reads each hop back once, skips a hop
              that reads back, identifying it from what was read, and runs
              any other hop again.
    identify  the manifest, every hop's estimation and events files and
              the intrusion grid's header and bytes, for their sha256
              (`identify_inputs`).  It loads and fits the grid only when
              `depth_speed_fit.json` does not record that sha256 or does
              not read back as `report` reads it; else it keeps the fit
              (`_kept_fit`).  It writes what a sweep writes, byte for
              byte, through the same `identify_outputs`: the treatment
              report, `fits.csv`, `summary.json` and the stiffness CSVs.
    report    `depth_speed_fit.json`, the manifest and one hop, which must
              read back (else exit 4), all before it writes anything; no
              treatment report.  The force map's axes, the `[sweep]`
              intrusion grid, must be the manifest's (else ConfigError).

The manifest records the config the sweep ran under, every key of it, as
`config_to_text` renders it (`config`), and lists each trial's files by
name; `trial_paths` resolves them against the output directory, so a
sweep directory can be copied or moved.  A manifest without the config
text, or without a hop entry, is bad input.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from . import io
from .config import ExperimentConfig, config_to_text, hop_trial_id
from .errors import ConfigError, DegenerateFitError, MissingInputError
from .estimation import EstimationSeries, run_estimation
from .identification import DepthSpeedFit, TrialSamples, extract_samples, fit_depth_speed_model, treatment_comparison
from .simulator import (
    Frames,
    IntrusionLog,
    TrialEvents,
    run_constant_speed_intrusion,
    run_hop_trial,
)
from .terrain import TerrainParams, force_map, reaction_terms

# kind of manifest entry: (its fields besides trial_id, each with the check of
# its value; the keys of its files)
_NUMBER, _INTEGER = io.is_finite_number, lambda value: type(value) is int
_ENTRY_SCHEMA = {
    "hop": ({"speed": _NUMBER, "k_c_n_per_cm": _NUMBER, "seed": _INTEGER}, ("frames", "events", "estimation")),
    "intrusion": ({}, ("log",)),
}
INTRUSION_GRID = "intrusion_grid.npy"
DEPTH_SPEED_FIT = "depth_speed_fit.json"
# the keys `report` draws force_map.csv's depth and speed axes from
_FORCE_MAP_KEYS = tuple(
    f"[sweep] {key}" for key in ("intrusion_speed_min", "intrusion_speed_max", "intrusion_speed_count", "intrusion_z_max")
)


def _hop_files(trial_id: str) -> dict[str, str]:
    return {
        "frames": f"{trial_id}_frames.npy",
        "events": f"{trial_id}_events.json",
        "estimation": f"{trial_id}_estimation.csv",
    }


def trial_paths(entry: dict, out_dir: Path) -> dict[str, Path]:
    """A manifest entry's files, resolved against the output directory.

    An entry without a known kind, a string trial id, its fields (a hop's
    speed and stiffness finite numbers, its seed an integer), or bare file
    names for each of its outputs is bad input (MissingInputError).
    """
    try:
        fields, keys = _ENTRY_SCHEMA[entry["kind"]]
        names = entry["paths"]
        valid = (
            sorted(names) == sorted(keys)
            and all(isinstance(name, str) and Path(name).name == name for name in names.values())
            and isinstance(entry["trial_id"], str)
            and all(valid_value(entry[field]) for field, valid_value in fields.items())
        )
    except (KeyError, TypeError, AttributeError):
        valid = False
    if not valid:
        raise MissingInputError(f"malformed manifest entry: {entry!r}")
    return {key: Path(out_dir) / names[key] for key in keys}


def manifest_trials(out_dir: Path) -> tuple[str, list[tuple[dict, dict[str, Path]]]]:
    """The text of the config the sweep ran under, and (entry, resolved
    files) of every trial in the sweep's manifest.  A manifest without the
    config text is bad input; so is a trial id listed twice, since its trial
    would count twice, a manifest without exactly one intrusion entry, the
    grid whose fit is the ground truth, and one without a hop entry, which
    has nothing to identify or report."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        raise MissingInputError(f"no manifest at {manifest_path}; run sweep first")
    manifest = io.read_json(manifest_path)
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), str)):
        raise MissingInputError(f"malformed manifest {manifest_path}: no config text")
    entries = manifest.get("entries")
    if not isinstance(entries, list):
        raise MissingInputError(f"malformed manifest {manifest_path}: no list of entries")
    trials = [(entry, trial_paths(entry, out_dir)) for entry in entries]
    seen = set()
    for entry, _ in trials:
        if entry["trial_id"] in seen:
            raise MissingInputError(f"malformed manifest {manifest_path}: trial {entry['trial_id']!r} is listed twice")
        seen.add(entry["trial_id"])
    if sum(entry["kind"] == "intrusion" for entry in entries) != 1:
        raise MissingInputError(f"malformed manifest {manifest_path}: need exactly one intrusion entry")
    if not any(entry["kind"] == "hop" for entry in entries):
        raise MissingInputError(f"malformed manifest {manifest_path}: no hop entry")
    return manifest["config"], trials


def _config_values(text: str) -> dict[str, str]:
    """`[section] key` -> value text, of each `key = value` line of a config
    text as `config_to_text` renders it."""
    values, section = {}, ""
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        elif " = " in line:
            key, value = line.split(" = ", 1)
            values[f"{section} {key}"] = value
    return values


def _check_recorded_config(recorded: str, config: ExperimentConfig, keys=None) -> None:
    """ConfigError, naming each key that differs, unless `config` renders
    each of `keys` (`[section] key`; by default every key of either config)
    as the recorded config text does."""
    now, then = _config_values(config_to_text(config)), _config_values(recorded)
    keys = keys or dict.fromkeys([*now, *then])
    differ = [f"{key} = {now.get(key)}, recorded {then.get(key)}" for key in keys if now.get(key) != then.get(key)]
    if differ:
        raise ConfigError("the config differs from the one the sweep's manifest.json records: " + "; ".join(differ))


def _check_recorded_entries(recorded: list[dict], entries: list[dict]) -> None:
    """ConfigError, naming the files that differ, unless the recorded
    manifest entries are `entries`, their `status` aside."""
    then, now = ([{k: v for k, v in e.items() if k != "status"} for e in trials] for trials in (recorded, entries))
    if then != now:
        old, new = ({name for e in trials for name in e["paths"].values()} for trials in (then, now))
        raise ConfigError(f"the sweep's manifest.json lists other trials than this config writes: "
                          f"recorded {sorted(old - new)}, this config writes {sorted(new - old)}")


def run_single_hop(config: ExperimentConfig, speed: float, kc_n_per_cm: float, seed: int):
    """Simulate one hop at a sweep condition; returns (TrialLog, trial_id)."""
    seed_key = [int(seed), int(round(speed * 1000)), int(round(kc_n_per_cm * 100))]
    log = run_hop_trial(
        config.sim, config.controller, config.terrain, config.linkage, speed, kc_n_per_cm * 100.0, seed_key,
        noise_config=config.noise,
    )
    return log, hop_trial_id(speed, kc_n_per_cm, seed)


def estimate_from_frames(config: ExperimentConfig, frames: Frames) -> EstimationSeries:
    """Run the onboard pipeline with the config's sensor model and estimation settings."""
    return run_estimation(frames, config.linkage, config.noise, config.estimation)


def write_hop_artifacts(config: ExperimentConfig, log, trial_id: str, out_dir: Path) -> EstimationSeries:
    """Write a hop's frames, events and estimation files; returns its estimates."""
    paths = {key: Path(out_dir) / name for key, name in _hop_files(trial_id).items()}
    io.write_frames_npy(paths["frames"], log.frames)
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
    """The config as text (`config_to_text`), and every hop trial of the
    sweep and its intrusion grid, with their output file names."""
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
    return {"config": config_to_text(config), "entries": entries}


def write_intrusion_grid(config: ExperimentConfig, path: Path) -> tuple[list[IntrusionLog], str]:
    """Run every intrusion speed `intrusion_repeats` times and write the grid
    to `path`; returns one record per speed, in grid order, and its sha256.

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
            seeds=[[repeat, int(round(speed * 1e6))] for repeat in range(sweep.intrusion_repeats)],
        )
        for speed in sweep.intrusion_speeds()
    ]
    return logs, io.write_intrusion_npy(path, logs)


def _read_events(path: Path, t: np.ndarray) -> TrialEvents:
    """A hop's events, read from `path`, in order within its `t`, as
    `detect_events` finds them; else MissingInputError."""
    events = io.read_events_json(path)
    if not t[0] <= events.t_td < events.t_ce < events.t_lo <= t[-1]:
        raise MissingInputError(f"malformed events file {path}: need t[0] <= t_td < t_ce < t_lo <= t[-1] of its hop")
    return events


def _read_hop(paths: dict[str, Path]) -> tuple[Frames, EstimationSeries, dict[str, np.ndarray], TrialEvents]:
    """A hop's frames, estimates, carried truth and events, read from its
    estimation, events and frames files in that order; MissingInputError
    for a hop that does not read back (see the module docstring)."""
    est, truth = io.read_estimation_csv(paths["estimation"])
    events = _read_events(paths["events"], est.t)
    frames = io.read_frames_npy(paths["frames"])
    if not np.array_equal(frames.t, est.t):
        raise MissingInputError(f"{paths['estimation']} does not hold the t of the frames in {paths['frames']}")
    return frames, est, truth, events


def _finished_hop(entry: dict, out_dir: Path) -> TrialSamples | None:
    """The stance samples of a hop whose files read back (`_read_hop`);
    None for a hop that must run (again)."""
    try:
        _, est, _, events = _read_hop(trial_paths(entry, out_dir))
    except MissingInputError:
        return None
    return _trial_samples(entry, est, events)


def run_sweep(config: ExperimentConfig, out_dir: Path, jobs: int = 1, resume: bool = False) -> dict:
    """Intrusion grid and its fit, then hop grid + estimation +
    identification, from the intrusion records and stance samples held in
    memory.  Under `resume`, a manifest that does not read back
    (`manifest_trials`), records another config, or lists other entries
    than `build_manifest` gives (their `status` aside) is refused before
    anything is written, and a hop that reads back (`_finished_hop`) is
    skipped and identified from what was read; the intrusion grid always
    runs, and is fitted before any hop runs."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    out_dir = Path(out_dir)
    manifest_path = out_dir / "manifest.json"
    manifest = build_manifest(config)
    if resume and manifest_path.exists():
        recorded, trials = manifest_trials(out_dir)
        _check_recorded_config(recorded, config)
        _check_recorded_entries([entry for entry, _ in trials], manifest["entries"])
    out_dir.mkdir(parents=True, exist_ok=True)
    io.write_json(manifest_path, manifest)

    # trial id -> stance samples, of every hop skipped or run here
    samples, hops = {}, []
    for entry in manifest["entries"]:
        if entry["kind"] == "intrusion":
            logs, grid_sha256 = write_intrusion_grid(config, trial_paths(entry, out_dir)["log"])
            fit = _fit_grid(logs, grid_sha256, out_dir / DEPTH_SPEED_FIT)
        elif resume and (finished := _finished_hop(entry, out_dir)) is not None:
            entry["status"] = "skipped"
            samples[entry["trial_id"]] = finished
        else:
            hops.append(entry)

    hop_jobs = [(config, entry, str(out_dir)) for entry in hops]
    if jobs > 1 and len(hop_jobs) > 1:
        # imported here: multiprocessing is loaded only when a pool runs
        from concurrent.futures import ProcessPoolExecutor

        # the executor forks all max_workers processes at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(hop_jobs))) as pool:
            ran = list(pool.map(_run_hop_job, hop_jobs))
    else:
        ran = [_run_hop_job(job) for job in hop_jobs]
    samples.update(zip((e["trial_id"] for e in hops), ran))
    for entry in manifest["entries"]:
        if entry["status"] == "pending":
            entry["status"] = "done"
    io.write_json(manifest_path, manifest)

    hop_samples = [samples[e["trial_id"]] for e in manifest["entries"] if e["kind"] == "hop"]
    identify_outputs(config, out_dir, hop_samples, fit)
    return manifest


def _fit_grid(logs: list[IntrusionLog], grid_sha256: str, fit_path: Path) -> DepthSpeedFit:
    """The rig fit of a grid's intrusion records, written to `fit_path` with
    the grid's sha256.  A grid that cannot be fitted, or whose fit finds no
    stiffness, has no ground truth: the fit an earlier run left is removed."""
    fit_path.unlink(missing_ok=True)
    fit = fit_depth_speed_model(logs)
    if not fit.k_fit > 0.0:
        raise DegenerateFitError(f"the intrusion-model fit finds no depth stiffness: {fit}")
    io.write_json(fit_path, {**dataclasses.asdict(fit), "grid_sha256": grid_sha256})
    return fit


def _read_fit(fit_path: Path) -> tuple[DepthSpeedFit, object]:
    """The intrusion-model fit at `fit_path` and the grid sha256 it records
    (None without one), from one read: every field a finite number, k_fit
    positive and the parameters in the fit's box, else MissingInputError."""
    payload = io.read_json(fit_path)
    fit = io.json_record(payload, DepthSpeedFit, "depth-speed fit", fit_path)
    if not (fit.in_box() and fit.k_fit > 0.0):
        raise MissingInputError(f"{fit_path} holds a k_fit of 0 or parameters outside the fit's box: {fit}")
    return fit, payload.get("grid_sha256")


def _kept_fit(fit_path: Path, grid_sha256: str) -> DepthSpeedFit | None:
    """The fit at `fit_path` when it reads back (`_read_fit`) and records
    `grid_sha256` as its grid's; else None."""
    try:
        fit, recorded = _read_fit(fit_path)
    except MissingInputError:
        return None
    return fit if recorded == grid_sha256 else None


def identify_inputs(out_dir: Path) -> tuple[list[TrialSamples], DepthSpeedFit]:
    """In the manifest's order (`manifest_trials`), its hops' stance samples,
    read back from their estimation and events files, and its grid's rig
    fit: the kept one (`_kept_fit`), else the grid's, loaded and fitted.
    The grid's header is checked either way, so a grid that is not an
    intrusion array (a text one, whose fit records its sha256) is bad input."""
    hops, fit_path = [], out_dir / DEPTH_SPEED_FIT
    _, trials = manifest_trials(out_dir)
    for entry, paths in trials:
        if entry["kind"] == "hop":
            est, _ = io.read_estimation_csv(paths["estimation"])
            hops.append(_trial_samples(entry, est, _read_events(paths["events"], est.t)))
        else:
            io.check_intrusion_npy(paths["log"])
            grid_sha256 = io.file_sha256(paths["log"])
            kept = _kept_fit(fit_path, grid_sha256)
            fit = kept or _fit_grid(io.read_intrusion_npy(paths["log"]), grid_sha256, fit_path)
    return hops, fit


def identify_outputs(config: ExperimentConfig, out_dir: Path, trials: list[TrialSamples], fit: DepthSpeedFit) -> None:
    """Treatment report from the hops' stance samples, scored against the
    rig fit's `k_fit` (the report's `k_gt`), and every artifact drawn from
    it: `treatment_report.json`, `fits.csv`, `summary.json`, and the
    stiffness recovery across speeds at the middle stiffness
    (`stiffness_vs_speed.csv`) and across stiffnesses at 1.0 m/s, or the
    fastest speed when 1.0 is not swept (`stiffness_vs_kc.csv`)."""
    out_dir = Path(out_dir)
    report = treatment_comparison(trials, k_gt=fit.k_fit, weights=config.weight)
    k_gt, conditions = report.k_gt, [dataclasses.asdict(c) for c in report.conditions]
    io.write_json(out_dir / "treatment_report.json", {"k_gt": k_gt, "conditions": conditions})
    rows = [
        [io.fmt_float(f["v_td"]), io.fmt_float(f["k_c_n_per_cm"]), f["treatment"], io.fmt_float(f["k_est"]), str(f["seed"])]
        for f in report.fits
    ]
    io.write_csv(out_dir / "fits.csv", ("v_td", "k_c", "treatment", "k_est", "seed"), rows)
    n_conditions = len({(c["v_td"], c["k_c_n_per_cm"]) for c in conditions})
    io.write_json(out_dir / "summary.json", {"k_gt": k_gt, "n_conditions": n_conditions, "conditions": conditions})

    kcs = sorted({c["k_c_n_per_cm"] for c in conditions})
    speeds = sorted({c["v_td"] for c in conditions})
    # (file, its axis column, the condition field on that axis, the field held, its value)
    for name, axis, field, held, value in (
        ("stiffness_vs_speed.csv", "v_td", "v_td", "k_c_n_per_cm", kcs[len(kcs) // 2]),
        ("stiffness_vs_kc.csv", "k_c", "k_c_n_per_cm", "v_td", 1.0 if 1.0 in speeds else speeds[-1]),
    ):
        rows = [
            [io.fmt_float(c[field]), c["treatment"], io.fmt_float(c["mean_k"]), io.fmt_float(c["sem_k"]), io.fmt_float(k_gt)]
            for c in conditions
            if c[held] == value
        ]
        io.write_csv(out_dir / name, (axis, "treatment", "mean_k", "sem_k", "k_gt"), rows)


def write_report(config: ExperimentConfig, out_dir: Path) -> None:
    """Plot-ready CSVs for the force-map, force-depth and added-mass
    figures, the map and the residual on the rig fit's bed; the treatment
    report and what is drawn from it are `identify_outputs`'.  The fit, the
    manifest and the representative hop are read (`_read_fit`,
    `manifest_trials`, `_representative_trial_figs`) before any write, and
    the force map's axes, the config's `[sweep]` intrusion grid, must be
    the recorded config's."""
    out_dir = Path(out_dir)
    fit, _ = _read_fit(out_dir / DEPTH_SPEED_FIT)
    bed = TerrainParams(fit.k_fit, fit.m_a_inf_fit, fit.z_c_fit)
    recorded, trials = manifest_trials(out_dir)
    _check_recorded_config(recorded, config, _FORCE_MAP_KEYS)
    trial_figs = _representative_trial_figs(trials, bed)

    depths = np.linspace(0.0, config.sweep.intrusion_z_max, 51)
    speeds_grid = np.asarray(config.sweep.intrusion_speeds())
    surface = force_map(bed, depths, speeds_grid)
    io.write_force_map_csv(out_dir / "force_map.csv", depths, speeds_grid, surface)
    for name, (header, columns) in trial_figs.items():
        io.write_columns_csv(out_dir / name, header, columns)


def _representative_trial_figs(trials: list[tuple[dict, dict[str, Path]]], bed: TerrainParams) -> dict:
    """Force-depth scatter and the added-mass residual series over the
    stance of one of the manifest's hops, read back by `_read_hop`, as
    {file name: (header, columns)}.  On the rig fit's bed, the residual is
    the load cell less the law's depth and drag terms, and the prediction
    is its added-mass term."""
    hops = [(entry, paths) for entry, paths in trials if entry["kind"] == "hop"]
    # fastest condition, first seed: the regime where dynamics matter most
    _, paths = max(hops, key=lambda hop: (hop[0]["speed"], -hop[0]["seed"]))
    frames, est, truth, events = _read_hop(paths)
    mask = (est.t >= events.t_td) & (est.t <= events.t_lo)
    z_hat = np.maximum(0.0, -est.x_f_hat)
    z_t = np.maximum(0.0, -truth["x_f"])
    zd_t = -truth["v_f"]
    zdd = -frames.imu_foot_acc
    f_static, f_drag, predicted = reaction_terms(z_t[mask], zd_t[mask], zdd[mask], bed)
    residual = frames.loadcell_force[mask] - f_static - f_drag
    return {
        "force_depth_trial.csv": (
            ("t", "depth", "f_loadcell", "f_qs", "f_mo"),
            [est.t[mask], z_hat[mask], frames.loadcell_force[mask], est.f_qs[mask], est.f_mo[mask]],
        ),
        "added_mass_residual.csv": (("t", "residual", "predicted"), [est.t[mask], residual, predicted]),
    }
