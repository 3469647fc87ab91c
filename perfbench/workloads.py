"""One repetition of each workload, its correctness check and its accuracy.

sweep        `run_sweep` + `write_report` into a fresh directory: hops,
             intrusions, artifact writes, identify and report.
closed_loop  one seed of the acceptance criterion-2 grid in memory, no disk:
             per trial `run_single_hop` -> `Frames.from_list` ->
             `estimate_from_frames` -> `extract_samples`, then one
             `treatment_comparison`.  The criterion itself is checked on the
             pool of repetitions (verdicts.py), which covers every seed.
reanalyze    `hopperlab estimate`, `identify`, `report` through `cli.main` on
             a corpus that an earlier `sweep` repetition wrote.

Every grid comes from the generated config; the workloads add no inputs.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from hopperlab import cli, experiments, identification, io, simulator
from verdicts import RMSE_SKIP, accuracy

# files `run_sweep` + `write_report` write besides the per-trial artifacts
SWEEP_FILES = (
    "manifest.json",
    "treatment_report.json",
    "fits.csv",
    "depth_speed_fit.json",
    "summary.json",
    "stiffness_vs_speed.csv",
    "stiffness_vs_kc.csv",
    "force_map.csv",
    "force_depth_trial.csv",
    "added_mass_residual.csv",
)


def closed_loop_conditions(sweep) -> list[tuple[float, float]]:
    """Every speed at the middle stiffness, plus every other stiffness at
    1.0 m/s (or the fastest speed when 1.0 is not in the grid)."""
    kcs = sorted(sweep.stiffnesses_n_per_cm)
    kc_mid = kcs[len(kcs) // 2]
    v_ref = 1.0 if 1.0 in sweep.speeds else max(sweep.speeds)
    return [(v, kc_mid) for v in sweep.speeds] + [(v_ref, kc) for kc in kcs if kc != kc_mid]


def run_sweep(config, out_dir: Path) -> dict:
    experiments.run_sweep(config, out_dir)
    experiments.write_report(config, out_dir)
    return {}


def run_closed_loop(config, seed: int) -> dict:
    trials = []
    sq_err, n_err = 0.0, 0
    for v, kc in closed_loop_conditions(config.sweep):
        log, _ = experiments.run_single_hop(config, v, kc, seed)
        est = experiments.estimate_from_frames(config, simulator.Frames.from_list(log.frames))
        trials.append(
            identification.TrialSamples(
                v_td=v,
                k_c_n_per_cm=kc,
                seed=seed,
                samples_qs=identification.extract_samples(est, log.events, "qs"),
                samples_mo=identification.extract_samples(est, log.events, "mo"),
            )
        )
        x_b_true = log.truth.x_b[:: config.sim.decimation][: len(est)]
        sq_err += float(np.sum((est.x_b_hat[RMSE_SKIP:] - x_b_true[RMSE_SKIP:]) ** 2))
        n_err += max(len(est) - RMSE_SKIP, 0)
    report = identification.treatment_comparison(trials, k_gt=config.terrain.k_stiff, weights=config.weight)
    return {"report": report, "sq_err": sq_err, "n_err": n_err}


def run_reanalyze(config_path: str, out_dir: Path, span) -> dict:
    for command in ("estimate", "identify", "report"):
        with span(f"cli.{command}"):
            code = cli.main([command, "--config", config_path, "--out", str(out_dir)])
        if code != 0:
            raise RuntimeError(f"hopperlab {command} exited with code {code}")
    return {}


def run(workload: str, config, config_path: str, out_dir: Path, index: int, tracer=None) -> dict:
    """Repetition `index` of the workload; closed_loop takes the index-th seed."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("bench.workload"):
        if workload == "sweep":
            return run_sweep(config, out_dir)
        if workload == "closed_loop":
            seeds = config.sweep.seeds
            return run_closed_loop(config, seeds[index % len(seeds)])
        return run_reanalyze(config_path, out_dir, span)


def digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in the output directory, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file()
    }


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def check_sweep(out_dir: Path) -> tuple[bool, str]:
    """Every manifest entry is done and exactly the expected files exist."""
    manifest = io.read_json(out_dir / "manifest.json")
    entries = manifest["entries"]
    not_done = [e["trial_id"] for e in entries if e["status"] != "done"]
    expected = set(SWEEP_FILES) | {Path(p).name for e in entries for p in e["paths"].values()}
    present = {p.name for p in out_dir.iterdir() if p.is_file()}
    missing, extra = sorted(expected - present), sorted(present - expected)
    ok = not not_done and not missing and not extra
    detail = (
        f"{len(entries) - len(not_done)}/{len(entries)} manifest entries done; "
        f"{len(present & expected)}/{len(expected)} expected files"
    )
    if missing or extra:
        detail += f"; missing {missing[:3]}, unexpected {extra[:3]}"
    return ok, detail


def check_reanalyze(out_dir: Path, expected: dict[str, str]) -> tuple[bool, str]:
    """Every file the corpus sweep wrote comes back byte-identical."""
    found = digest(out_dir)
    changed = sorted(name for name in expected if found.get(name) != expected[name])
    extra = sorted(set(found) - set(expected))
    ok = not changed and not extra
    detail = f"{len(expected) - len(changed)}/{len(expected)} corpus files byte-identical"
    if changed or extra:
        detail += f"; changed {changed[:3]}, unexpected {extra[:3]}"
    return ok, detail


def _artifact_accuracy(out_dir: Path) -> dict[str, float]:
    report = io.read_json(out_dir / "treatment_report.json")
    fit_path = out_dir / "depth_speed_fit.json"
    k_fit = io.read_json(fit_path)["k_fit"] if fit_path.exists() else None
    sq_err, n_err = 0.0, 0
    for path in sorted(out_dir.glob("*_estimation.csv")):
        est, truth = io.read_estimation_csv(path)
        sq_err += float(np.sum((est.x_b_hat[RMSE_SKIP:] - truth["x_b"][RMSE_SKIP:]) ** 2))
        n_err += max(len(est) - RMSE_SKIP, 0)
    rmse = math.sqrt(sq_err / n_err) if n_err else 0.0
    return accuracy(report["conditions"], report["k_gt"], k_fit, rmse)


def verify(workload: str, config, out_dir: Path, outcome: dict, expected_digest=None) -> dict:
    """Correctness verdict, accuracy and output size of one repetition."""
    if workload == "closed_loop":
        report = outcome["report"]
        n_conditions = len(closed_loop_conditions(config.sweep))
        ok = len(report.fits) == 3 * n_conditions
        return {
            "ok": ok,
            "detail": f"{len(report.fits) // 3}/{n_conditions} trials fitted",
            "fits": report.fits,
            "k_gt": report.k_gt,
            "sq_err": outcome["sq_err"],
            "n_err": outcome["n_err"],
            "output_bytes": 0,
            "trials": len(report.fits) // 3,
        }
    if workload == "sweep":
        ok, detail = check_sweep(out_dir)
    else:
        ok, detail = check_reanalyze(out_dir, expected_digest)
    n_trials = len(io.read_json(out_dir / "manifest.json")["entries"])
    return {
        "ok": ok,
        "detail": detail,
        "accuracy": _artifact_accuracy(out_dir),
        "output_bytes": output_bytes(out_dir),
        "trials": n_trials,
    }
