"""Which artifacts sweep and simulate write, and where `estimate` finds truth.

A sweep writes frames, events and estimation files per hop; the
full-rate truth log comes only from `simulate`, which rebuilds any sweep trial
bit for bit.  `estimate` takes the truth columns of the estimation CSV
from `_truth.csv`, else from the trial's previous estimation CSV, else NaN.
When the intrusion fit cannot run, the fit an earlier run left is removed.
`identify` reads no frames files, and the manifest lists file names, so a
sweep directory still works after it is copied or moved.  A sweep
identifies from the results it holds in memory and reads back only the
hops `--resume` skipped; it always runs the intrusion grid again.
`identify` on its directory writes the same bytes.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from hopperlab import experiments, io
from hopperlab.cli import main
from hopperlab.config import load_config
from hopperlab.errors import DegenerateFitError

TINY_SWEEP = """
[sweep]
speeds = 0.8
stiffnesses = 3.75
seeds = 0, 1
intrusion_speed_count = 3
intrusion_repeats = 1
"""

TRIAL = "hop_v0.80_kc3.75_s1"
TRUTH_KEYS = ("x_b", "v_b", "x_f", "v_f", "f_total")


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.ini"
    path.write_text(TINY_SWEEP + "[sim]\ndrop_speed = 0.8\nseed = 1\n")
    return str(path)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("sweep")
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def simulate_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("simulate")
    assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
    return out


def _copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _estimate(config_path, out):
    return main(["estimate", "--config", config_path, "--out", str(out)])


def test_csv_headers(sweep_dir, simulate_dir):
    headers = {
        simulate_dir / f"{TRIAL}_truth.csv":
            "t,x_b,v_b,x_f,v_f,theta,theta_dot,acc_b,acc_f,f_static,f_drag,f_added,f_total,tau,f_leg,phase_id",
        simulate_dir / f"{TRIAL}_estimation.csv":
            "t,x_b_hat,v_b_hat,x_f_hat,v_f_hat,f_qs,f_mo,x_b_true,v_b_true,x_f_true,v_f_true,f_true",
        simulate_dir / f"{TRIAL}_frames.csv":
            "t,encoder_theta,encoder_theta_dot,imu_body_acc,imu_foot_acc,tof_height,motor_current,loadcell_force",
        sweep_dir / "intrusion_grid.csv": "speed,t,depth,force_0",
    }
    for path, header in headers.items():
        assert path.read_text(encoding="utf-8").splitlines()[0] == header, path.name


def test_sweep_writes_no_truth_log(sweep_dir):
    assert not list(sweep_dir.glob("*_truth.csv"))
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    hops = [e for e in manifest["entries"] if e["kind"] == "hop"]
    assert len(hops) == 2
    for entry in hops:
        assert set(entry["paths"]) == {"frames", "events", "estimation"}
        assert not any(p.endswith("_truth.csv") for p in entry["paths"].values())


def test_estimate_rewrites_sweep_estimation_byte_identical(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    before = {p.name: p.read_bytes() for p in out.glob("*_estimation.csv")}
    assert len(before) == 2
    assert _estimate(config_path, out) == 0
    after = {p.name: p.read_bytes() for p in out.glob("*_estimation.csv")}
    assert after == before
    for path in out.glob("*_estimation.csv"):
        _, truth = io.read_estimation_csv(path)
        assert all(np.isfinite(truth[key]).all() for key in TRUTH_KEYS)
    assert not list(out.glob(".*.tmp"))


def test_estimate_without_any_truth_writes_nan(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    path = out / f"{TRIAL}_estimation.csv"
    original, _ = io.read_estimation_csv(path)
    path.unlink()
    assert _estimate(config_path, out) == 0
    est, truth = io.read_estimation_csv(path)
    assert all(np.isnan(truth[key]).all() for key in TRUTH_KEYS)
    for name in ("t", "x_b_hat", "v_b_hat", "x_f_hat", "v_f_hat", "f_qs", "f_mo"):
        np.testing.assert_array_equal(getattr(est, name), getattr(original, name))


def test_estimate_rejects_estimation_file_of_other_frames(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    shutil.copy(out / "hop_v0.80_kc3.75_s0_frames.csv", out / f"{TRIAL}_frames.csv")
    lines = (out / f"{TRIAL}_estimation.csv").read_text().splitlines(keepends=True)
    (out / f"{TRIAL}_estimation.csv").write_text("".join(lines[:-1]))
    assert _estimate(config_path, out) == 4


def test_simulate_reproduces_sweep_trial(sweep_dir, simulate_dir):
    for suffix in ("frames.csv", "events.json", "estimation.csv"):
        name = f"{TRIAL}_{suffix}"
        assert (simulate_dir / name).read_bytes() == (sweep_dir / name).read_bytes(), name
    truth = io.read_truth_csv(simulate_dir / f"{TRIAL}_truth.csv")
    _, carried = io.read_estimation_csv(sweep_dir / f"{TRIAL}_estimation.csv")
    for key in TRUTH_KEYS:
        np.testing.assert_array_equal(getattr(truth, key), carried[key])


def test_estimate_on_simulate_dir_takes_truth_from_truth_csv(simulate_dir, config_path, tmp_path):
    out = _copy(simulate_dir, tmp_path)
    path = out / f"{TRIAL}_estimation.csv"
    original = path.read_bytes()
    est, truth = io.read_estimation_csv(path)
    # truth columns that disagree with _truth.csv: the truth log wins
    io.write_estimation_csv(path, est, {key: np.zeros_like(v) for key, v in truth.items()})
    assert _estimate(config_path, out) == 0
    assert path.read_bytes() == original
    path.unlink()
    assert _estimate(config_path, out) == 0
    assert path.read_bytes() == original


@pytest.mark.parametrize("failure", ["one intrusion speed", "degenerate fit"])
def test_intrusion_fit_of_an_earlier_run_is_removed(sweep_dir, config_path, tmp_path, monkeypatch, capsys, failure):
    out = _copy(sweep_dir, tmp_path)
    assert main(["report", "--config", config_path, "--out", str(out)]) == 0
    assert (out / "depth_speed_fit.json").exists() and (out / "added_mass_residual.csv").exists()
    capsys.readouterr()
    if failure == "one intrusion speed":
        one_speed = tmp_path / "one_speed.ini"
        text = Path(config_path).read_text()
        one_speed.write_text(text.replace("intrusion_speed_count = 3", "intrusion_speed_count = 1"))
        assert main(["sweep", "--config", str(one_speed), "--out", str(out)]) == 0
    else:

        def degenerate(logs):
            raise DegenerateFitError("no convergence")

        monkeypatch.setattr(experiments, "fit_depth_speed_model", degenerate)
        assert main(["identify", "--config", config_path, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "intrusion-model fit skipped" in err and "removed the stale" in err
    assert not (out / "depth_speed_fit.json").exists()
    assert main(["report", "--config", config_path, "--out", str(out)]) == 0
    assert not (out / "added_mass_residual.csv").exists()


def _files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def test_identify_reads_no_frames(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    frames = sorted(out.glob("*_frames.csv"))
    assert len(frames) == 2
    for path in frames:
        path.unlink()
    assert main(["identify", "--config", config_path, "--out", str(out)]) == 0
    for name in ("treatment_report.json", "fits.csv", "depth_speed_fit.json"):
        assert (out / name).read_bytes() == (sweep_dir / name).read_bytes(), name
    # the report's representative trial still needs its frames
    assert main(["report", "--config", config_path, "--out", str(out)]) == 4


def test_sweep_directory_works_after_a_move(sweep_dir, config_path, tmp_path, monkeypatch):
    first = tmp_path / "first"
    assert main(["sweep", "--config", config_path, "--out", str(first)]) == 0
    assert (first / "manifest.json").read_bytes() == (sweep_dir / "manifest.json").read_bytes()
    assert main(["report", "--config", config_path, "--out", str(first)]) == 0
    expected = _files(first)
    shutil.copytree(first, tmp_path / "second")
    shutil.rmtree(first)

    monkeypatch.chdir(tmp_path)  # a relative --out
    for command in ("identify", "report"):
        assert main([command, "--config", config_path, "--out", "second"]) == 0
    assert _files(tmp_path / "second") == expected

    victim = tmp_path / "second" / f"{TRIAL}_estimation.csv"
    victim.unlink()
    assert main(["sweep", "--config", config_path, "--out", "second", "--resume"]) == 0
    manifest = json.loads((tmp_path / "second" / "manifest.json").read_text())
    assert {e["trial_id"]: e["status"] for e in manifest["entries"]}[TRIAL] == "done"
    assert victim.read_bytes() == expected[victim.name]
    assert not first.exists()


IDENTIFY_FILES = ("treatment_report.json", "fits.csv", "depth_speed_fit.json")


def _no_read(path, *args, **kwargs):
    raise RuntimeError(f"the sweep read back {path}")


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_identifies_from_memory(sweep_dir, config_path, tmp_path, monkeypatch, jobs):
    out = tmp_path / "sweep"
    with monkeypatch.context() as patch:
        for reader in ("read_intrusion_csv", "read_estimation_csv", "read_events_json"):
            patch.setattr(io, reader, _no_read)
        experiments.run_sweep(load_config(config_path), out, jobs=jobs)
    swept = _files(out)
    assert swept == _files(sweep_dir)
    for name in IDENTIFY_FILES:
        (out / name).unlink()
    assert main(["identify", "--config", config_path, "--out", str(out)]) == 0
    assert _files(out) == swept


def test_resume_mixing_memory_and_disk_matches_a_clean_sweep(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    (out / f"{TRIAL}_estimation.csv").unlink()
    (out / "intrusion_grid.csv").unlink()
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 0
    statuses = [e["status"] for e in json.loads((out / "manifest.json").read_text())["entries"]]
    assert statuses.count("done") == 2 and statuses.count("skipped") == len(statuses) - 2
    resumed, clean = _files(out), _files(sweep_dir)
    del resumed["manifest.json"], clean["manifest.json"]
    assert resumed == clean


def test_resume_runs_a_cut_intrusion_grid_again(sweep_dir, config_path, tmp_path):
    # cut on a row boundary, the grid still parses, as a shorter run
    out = _copy(sweep_dir, tmp_path)
    grid = out / "intrusion_grid.csv"
    lines = grid.read_bytes().splitlines(keepends=True)
    grid.write_bytes(b"".join(lines[: len(lines) // 2]))
    assert len(io.read_intrusion_csv(grid)) < len(io.read_intrusion_csv(sweep_dir / "intrusion_grid.csv"))
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 0
    resumed, clean = _files(out), _files(sweep_dir)
    assert resumed.keys() == clean.keys()
    manifest, clean_manifest = (json.loads(files.pop("manifest.json")) for files in (resumed, clean))
    assert resumed == clean
    for entry in (*manifest["entries"], *clean_manifest["entries"]):
        if entry["kind"] == "hop":
            entry.pop("status")
    assert manifest == clean_manifest
