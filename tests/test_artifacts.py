"""Which artifacts a sweep writes, and what `estimate` rewrites.

A sweep writes frames (a `.npy` array), events and estimation files per
hop, and no full-rate truth log; a one-condition sweep rebuilds any trial of a larger
sweep bit for bit, and `run_single_hop` its truth.  `estimate` carries the t and truth cells of each trial's
estimation CSV as written and replaces only the estimate cells; a trial
without an estimation CSV, or with a truth cell that is not a finite
number, is bad input.  A directory name is not part of a trial's file
names.
The intrusion (rig) fit is the ground truth that `identify` scores against
and `report` draws from, so neither reads `[terrain]`.  `identify` writes
the treatment report and every file drawn from it; `report` reads none of
them.  When the fit
cannot run, `sweep` and `identify` exit 3 and remove the fit an earlier
run left, and `report` writes nothing without a usable fit, or without a
representative hop that reads back.
`identify` reads no frames files, and the manifest lists file names, so a
sweep directory still works after it is copied or moved.  A sweep
identifies from the results it holds in memory and reads back only the
hops `--resume` skipped, each file once, and runs a hop again whose files
do not read back, whose frames and estimation files differ in t, or whose
events do not lie in order within that t; it always runs the intrusion
grid again.
`identify` on its directory writes the same bytes.
The intrusion fit records the sha256 of the grid it came from: `identify`
keeps a fit that records the grid as it is and reads back as `report`
reads it, without loading the grid, and fits the grid again otherwise; a
grid without an intrusion array's header is bad input either way.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from hopperlab import experiments, io
from hopperlab.cli import main
from hopperlab.config import config_to_text, load_config, with_values
from hopperlab.errors import DegenerateFitError, MissingInputError
from hopperlab.identification import DepthSpeedFit

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
    path.write_text(TINY_SWEEP)
    return str(path)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("sweep")
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def one_condition_dir(tmp_path_factory, config_path):
    """A sweep of TRIAL's condition alone."""
    out = tmp_path_factory.mktemp("one_condition")
    config = _other_config(config_path, tmp_path_factory.mktemp("seed1"), sweep="seeds = 1\n")
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    return out


def _files(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


def _copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _estimate(config_path, out):
    return main(["estimate", "--config", config_path, "--out", str(out)])


def test_csv_headers(sweep_dir):
    # a hop's one CSV: its frames, like the intrusion grid, are an array
    path = sweep_dir / f"{TRIAL}_estimation.csv"
    header = "t,x_b_hat,v_b_hat,x_f_hat,v_f_hat,f_qs,f_mo,x_b_true,v_b_true,x_f_true,v_f_true,f_true"
    assert path.read_text(encoding="utf-8").splitlines()[0] == header


def test_frames_and_grid_are_float64_arrays(sweep_dir, config_path):
    # columns named by io, not by the file: the frames in FRAME_COLUMNS
    # order, the grid's speed then one force per repeat
    assert io.FRAME_COLUMNS == (
        "t", "encoder_theta", "encoder_theta_dot", "imu_body_acc", "imu_foot_acc", "tof_height", "motor_current",
        "loadcell_force",
    )
    sweep = load_config(config_path).sweep
    frames = np.load(sweep_dir / f"{TRIAL}_frames.npy", allow_pickle=False)
    grid = np.load(sweep_dir / "intrusion_grid.npy", allow_pickle=False)
    for array in (frames, grid):
        assert array.dtype == np.dtype("<f8") and array.flags.c_contiguous
    assert frames.shape[1] == 8 and np.diff(frames[:, 0]) == pytest.approx(1e-3)
    assert grid.shape[1] == 1 + sweep.intrusion_repeats
    assert sorted(set(grid[:, 0].tolist())) == list(sweep.intrusion_speeds())


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


def test_estimate_without_the_estimation_file_writes_nothing(sweep_dir, config_path, tmp_path, capsys):
    # the estimation CSV is where a trial's truth comes from: without it
    # there is no file to replace the estimate cells of
    out = _copy(sweep_dir, tmp_path)
    path = out / f"{TRIAL}_estimation.csv"
    path.unlink()
    before = _files(out)
    assert _estimate(config_path, out) == 4
    assert str(path) in capsys.readouterr().err
    assert _files(out) == before


def test_estimate_rejects_estimation_file_of_other_frames(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    shutil.copy(out / "hop_v0.80_kc3.75_s0_frames.npy", out / f"{TRIAL}_frames.npy")
    lines = (out / f"{TRIAL}_estimation.csv").read_text().splitlines(keepends=True)
    (out / f"{TRIAL}_estimation.csv").write_text("".join(lines[:-1]))
    assert _estimate(config_path, out) == 4


def _edit_row(path, row, edit):
    """Apply `edit` to the cells of body row `row` of a CSV; returns the
    file's bytes before the edit."""
    before = path.read_bytes()
    lines = before.decode().split("\r\n")
    lines[row + 1] = ",".join(edit(lines[row + 1].split(",")))
    path.write_bytes("\r\n".join(lines).encode())
    return before


_BAD_CARRIED_ROWS = {
    "13 cells": lambda cells: cells + ["0.0"],
    "11 cells": lambda cells: cells[:-1],
    "non-numeric truth cell": lambda cells: cells[:-1] + ["x"],
    "nan truth cell": lambda cells: cells[:-1] + ["nan"],
    "non-numeric t": lambda cells: ["x"] + cells[1:],
}


@pytest.mark.parametrize("case", list(_BAD_CARRIED_ROWS))
def test_estimate_rejects_a_row_it_cannot_carry(sweep_dir, config_path, tmp_path, case):
    out = _copy(sweep_dir, tmp_path)
    path = out / f"{TRIAL}_estimation.csv"
    _edit_row(path, 5, _BAD_CARRIED_ROWS[case])
    edited = path.read_bytes()
    assert _estimate(config_path, out) == 4
    assert path.read_bytes() == edited
    assert not list(out.glob(".*.tmp"))


def test_estimate_replaces_the_estimate_cells_without_parsing_them(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    path = out / f"{TRIAL}_estimation.csv"
    original = _edit_row(path, 5, lambda cells: cells[:3] + ["x"] + cells[4:])
    assert _estimate(config_path, out) == 0
    assert path.read_bytes() == original


def test_estimate_finds_trial_files_by_file_name(sweep_dir, config_path, tmp_path):
    # a directory name that holds `_frames.npy` is not part of a trial's id
    out = tmp_path / "run_frames.npy.d"
    shutil.copytree(sweep_dir, out)
    assert _estimate(config_path, out) == 0
    assert _files(out) == _files(sweep_dir)
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_one_condition_sweep_reproduces_sweep_trial(sweep_dir, one_condition_dir, config_path):
    for suffix in ("frames.npy", "events.json", "estimation.csv"):
        name = f"{TRIAL}_{suffix}"
        assert (one_condition_dir / name).read_bytes() == (sweep_dir / name).read_bytes(), name
    # the trial's full truth log is one call away, and carried bit for bit
    truth = experiments.run_single_hop(load_config(config_path), 0.8, 3.75, 1)[0].truth
    _, carried = io.read_estimation_csv(sweep_dir / f"{TRIAL}_estimation.csv")
    for key in TRUTH_KEYS:
        np.testing.assert_array_equal(getattr(truth, key), carried[key])


def test_estimate_carries_the_truth_cells_of_the_estimation_file(sweep_dir, config_path, tmp_path):
    # the truth cells are the estimation CSV's own, whatever they hold
    out = _copy(sweep_dir, tmp_path)
    path = out / f"{TRIAL}_estimation.csv"
    est, truth = io.read_estimation_csv(path)
    io.write_estimation_csv(path, est, {key: np.zeros_like(v) for key, v in truth.items()})
    edited = path.read_bytes()
    assert _estimate(config_path, out) == 0
    assert path.read_bytes() == edited


def _edit_fit(out, **changes):
    """Rewrite `depth_speed_fit.json` with its keys changed as given (a
    value of None removes the key)."""
    path = out / "depth_speed_fit.json"
    fit = {**json.loads(path.read_text()), **changes}
    path.write_text(json.dumps({key: value for key, value in fit.items() if value is not None}))


def _degenerate(logs):
    raise DegenerateFitError("no convergence")


def _no_depth_stiffness(logs):
    return DepthSpeedFit(k_fit=0.0, m_a_inf_fit=0.15, z_c_fit=0.015, rmse=1.0, n_samples=100)


# fits that leave no ground truth, put in place of the rig fit
_NO_GROUND_TRUTH = {"degenerate fit": _degenerate, "no depth stiffness": _no_depth_stiffness}


@pytest.mark.parametrize("failure", ["one intrusion speed", *_NO_GROUND_TRUTH])
def test_intrusion_fit_of_an_earlier_run_is_removed(sweep_dir, config_path, tmp_path, monkeypatch, failure):
    out = _copy(sweep_dir, tmp_path)
    assert main(["report", "--config", config_path, "--out", str(out)]) == 0
    assert (out / "depth_speed_fit.json").exists() and (out / "added_mass_residual.csv").exists()
    before = _files(out)
    if failure == "one intrusion speed":
        one_speed = tmp_path / "one_speed.ini"
        text = Path(config_path).read_text()
        one_speed.write_text(text.replace("intrusion_speed_count = 3", "intrusion_speed_count = 1"))
        assert main(["sweep", "--config", str(one_speed), "--out", str(out)]) == 3
        # the grid is fitted before any hop runs
        fresh = tmp_path / "fresh"
        assert main(["sweep", "--config", str(one_speed), "--out", str(fresh)]) == 3
        assert sorted(p.name for p in fresh.iterdir()) == ["intrusion_grid.npy", "manifest.json"]
    else:
        # a fit recorded from another grid, so that identify fits again
        _edit_fit(out, grid_sha256="0" * 64)
        monkeypatch.setattr(experiments, "fit_depth_speed_model", _NO_GROUND_TRUTH[failure])
        assert main(["identify", "--config", config_path, "--out", str(out)]) == 3
    assert not (out / "depth_speed_fit.json").exists()
    # no treatment report is written: the earlier one is left as it was
    for name in TREATMENT_FILES:
        assert (out / name).read_bytes() == before[name], name
    after = _files(out)
    assert main(["report", "--config", config_path, "--out", str(out)]) == 4
    assert _files(out) == after


def test_report_without_the_intrusion_fit_writes_nothing(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    (out / "depth_speed_fit.json").unlink()
    before = _files(out)
    assert main(["report", "--config", config_path, "--out", str(out)]) == 4
    assert _files(out) == before


# a bed unlike the default on every parameter the plant and the rig read
_OTHER_BED = "[terrain]\nk_stiff = 400\nm_a_inf = 0.05\nz_c = 0.03\n"


@pytest.mark.parametrize("kept", [True, False], ids=["fit kept", "grid refitted"])
def test_identify_and_report_read_no_terrain(sweep_dir, config_path, tmp_path, kept):
    # the rig fit is the ground truth: under another [terrain], identify and
    # report on a sweep directory write the bytes they write under its own
    other = tmp_path / "other_bed.ini"
    other.write_text(Path(config_path).read_text() + _OTHER_BED)
    written = []
    for name, path in (("own", config_path), ("other", str(other))):
        out = shutil.copytree(sweep_dir, tmp_path / name)
        if not kept:
            (out / "depth_speed_fit.json").unlink()
        for command in ("identify", "report"):
            assert main([command, "--config", path, "--out", str(out)]) == 0
        written.append(_files(out))
    assert written[0] == written[1]
    assert json.loads(written[1]["summary.json"])["k_gt"] == json.loads(written[1]["depth_speed_fit.json"])["k_fit"]


# the representative trial (fastest speed, first seed)
REPRESENTATIVE = "hop_v0.80_kc3.75_s0"


def test_report_on_a_trial_with_nan_truth_writes_nothing(sweep_dir, config_path, tmp_path, capsys):
    # no residual can be formed from NaN truth: report refuses the trial
    # before it writes anything, so no earlier output is left stale
    out = _copy(sweep_dir, tmp_path)
    assert main(["report", "--config", config_path, "--out", str(out)]) == 0
    assert (out / "added_mass_residual.csv").exists()
    representative = out / f"{REPRESENTATIVE}_estimation.csv"
    # x_f_true, the foot depth the residual is formed from
    _edit_row(representative, 5, lambda cells: cells[:9] + ["nan"] + cells[10:])
    before = _files(out)
    capsys.readouterr()
    assert main(["report", "--config", config_path, "--out", str(out)]) == 4
    assert str(representative) in capsys.readouterr().err
    assert _files(out) == before


def test_identify_reads_no_frames(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    frames = sorted(out.glob("*_frames.npy"))
    assert len(frames) == 2
    for path in frames:
        path.unlink()
    assert main(["identify", "--config", config_path, "--out", str(out)]) == 0
    for name in IDENTIFY_FILES:
        assert (out / name).read_bytes() == (sweep_dir / name).read_bytes(), name
    # the report's representative trial still needs its frames
    assert main(["report", "--config", config_path, "--out", str(out)]) == 4



def test_report_reads_no_treatment_report(sweep_dir, config_path, tmp_path):
    # report draws its files from the rig fit and one hop alone
    reported = shutil.copytree(sweep_dir, tmp_path / "reported")
    assert main(["report", "--config", config_path, "--out", str(reported)]) == 0
    out = shutil.copytree(sweep_dir, tmp_path / "no_treatment_report")
    (out / "treatment_report.json").unlink()
    assert main(["report", "--config", config_path, "--out", str(out)]) == 0
    for name in REPORT_FILES:
        assert (out / name).read_bytes() == (reported / name).read_bytes(), name
    assert not (out / "treatment_report.json").exists()


def test_identify_writes_the_summary_and_stiffness_csvs(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    for name in ("summary.json", "stiffness_vs_speed.csv", "stiffness_vs_kc.csv"):
        (out / name).unlink()
    assert main(["identify", "--config", config_path, "--out", str(out)]) == 0
    assert _files(out) == _files(sweep_dir)

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


def _other_config(config_path, tmp_path, sweep="", extra=""):
    """The tiny sweep's config with the `key = value` lines of `sweep` in
    its [sweep] section, each in place of the key's own line, and `extra`
    sections after it."""
    keys = {line.split(" = ")[0] for line in sweep.splitlines()}
    lines = [line for line in Path(config_path).read_text().splitlines(keepends=True) if line.split(" = ")[0] not in keys]
    path = tmp_path / "other.ini"
    path.write_text("".join(lines) + sweep + extra)
    return str(path)


def test_manifest_records_the_config_the_sweep_ran_under(config_path, tmp_path):
    # the whole config, every key of it: the output directory is not one
    out = tmp_path / "seed1"
    config = _other_config(config_path, tmp_path, sweep="seeds = 1\n")
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    recorded = json.loads((out / "manifest.json").read_text())["config"]
    assert recorded == config_to_text(with_values(load_config(config_path), "sweep", seeds=(1,)))
    assert "[output]" not in recorded


def test_resume_under_another_config_writes_nothing(sweep_dir, config_path, tmp_path, capsys):
    # a resumed seed would be run on another bed than the skipped one, and
    # fits.csv would put the two beside each other
    out = _copy(sweep_dir, tmp_path)
    for path in out.glob(f"{TRIAL}_*"):
        path.unlink()
    before = _files(out)
    other = _other_config(config_path, tmp_path, extra="[terrain]\nk_stiff = 1600\n")
    assert main(["sweep", "--config", other, "--out", str(out), "--resume"]) == 2
    assert "[terrain] k_stiff = 1600.0, recorded 800.0" in capsys.readouterr().err
    assert _files(out) == before
    # the output directory is where the files go, not how they were made:
    # the sweep resumes into its moved copy
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 0
    resumed, clean = _files(out), _files(sweep_dir)
    del resumed["manifest.json"], clean["manifest.json"]
    assert resumed == clean


def test_resume_on_a_directory_recorded_with_the_removed_condition_keys_writes_nothing(
    sweep_dir, config_path, tmp_path, capsys
):
    # a sweep recorded before a hop's condition came only from [sweep] holds
    # [controller] k_compress, [sim] drop_speed and [sim] seed in its config text
    out = _copy(sweep_dir, tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"] = (
        manifest["config"]
        .replace("[controller]\n", "[controller]\nk_compress = 3.75\n")
        .replace("post_liftoff_time = 0.1\n", "post_liftoff_time = 0.1\ndrop_speed = 0.8\nseed = 0\n")
    )
    (out / "manifest.json").write_text(json.dumps(manifest))
    before = _files(out)
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    for key, value in (("[controller] k_compress", "3.75"), ("[sim] drop_speed", "0.8"), ("[sim] seed", "0")):
        assert f"{key} = None, recorded {value}" in err
    assert _files(out) == before
    # identify and report read it as before
    for command in ("identify", "report"):
        assert main([command, "--config", config_path, "--out", str(out)]) == 0


def test_resume_on_a_directory_recorded_with_an_output_section_writes_nothing(
    sweep_dir, config_path, tmp_path, capsys
):
    # a sweep recorded while the config held the output directory renders
    # `[output] dir` in its config text: --resume compares every key, and
    # the config no longer has that one
    out = _copy(sweep_dir, tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"] += "[output]\ndir = runs\n"
    (out / "manifest.json").write_text(json.dumps(manifest))
    before = _files(out)
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 2
    assert "[output] dir = None, recorded runs" in capsys.readouterr().err
    assert _files(out) == before
    # identify and report read it as before
    for command in ("identify", "report"):
        assert main([command, "--config", config_path, "--out", str(out)]) == 0


def test_resume_on_a_directory_whose_manifest_names_other_files_writes_nothing(
    sweep_dir, config_path, tmp_path, capsys
):
    # a sweep written before frames and the grid were arrays lists text
    # files under today's config: resuming it would leave them beside the
    # arrays, read by no command, so it is refused before anything is written
    out = _copy(sweep_dir, tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["entries"]:
        entry["paths"] = {key: name.replace(".npy", ".csv") for key, name in entry["paths"].items()}
    (out / "manifest.json").write_text(json.dumps(manifest))
    before = _files(out)
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    assert f"'{TRIAL}_frames.csv'" in err and "'intrusion_grid.csv'" in err
    assert f"'{TRIAL}_frames.npy'" in err and "'intrusion_grid.npy'" in err
    assert _files(out) == before
    # the entries' status is not compared: a manifest of done trials resumes
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    assert {entry["status"] for entry in manifest["entries"]} == {"done"}
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 0


@pytest.mark.parametrize(
    "axis",
    ["intrusion_speed_min = 0.03", "intrusion_speed_max = 1.0", "intrusion_speed_count = 4", "intrusion_z_max = 0.03"],
)
def test_report_on_another_force_map_grid_writes_nothing(sweep_dir, config_path, tmp_path, axis, capsys):
    # report draws force_map.csv on the [sweep] intrusion grid: another one
    # would be a map on axes the rig never ran
    out = _copy(sweep_dir, tmp_path)
    before = _files(out)
    assert main(["report", "--config", _other_config(config_path, tmp_path, sweep=axis + "\n"), "--out", str(out)]) == 2
    assert f"[sweep] {axis.split(' = ')[0]} = " in capsys.readouterr().err
    assert _files(out) == before


@pytest.mark.parametrize("command", [["identify"], ["report"], ["sweep", "--resume"]])
def test_a_manifest_without_the_config_is_bad_input(sweep_dir, config_path, tmp_path, command):
    out = _copy(sweep_dir, tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["config"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    before = _files(out)
    assert main([*command, "--config", config_path, "--out", str(out)]) == 4
    assert _files(out) == before


def test_estimate_replaces_every_estimation_file_or_none(sweep_dir, config_path, tmp_path, capsys):
    # under another observer bandwidth every rewrite changes its file: the
    # first trial's is not replaced when the second trial has no file
    out = _copy(sweep_dir, tmp_path)
    missing = out / f"{TRIAL}_estimation.csv"
    missing.unlink()
    before = _files(out)
    other = _other_config(config_path, tmp_path, extra="[estimation]\nk_obs = 400\n")
    assert _estimate(other, out) == 4
    assert str(missing) in capsys.readouterr().err
    assert _files(out) == before


# what `identify_outputs` writes: the treatment report and the files drawn from it
TREATMENT_FILES = ("treatment_report.json", "fits.csv", "summary.json", "stiffness_vs_speed.csv", "stiffness_vs_kc.csv")
IDENTIFY_FILES = (*TREATMENT_FILES, "depth_speed_fit.json")
REPORT_FILES = ("force_map.csv", "force_depth_trial.csv", "added_mass_residual.csv")


def _no_read(path, *args, **kwargs):
    raise RuntimeError(f"read back {path}")


def _no_fit(logs):
    raise RuntimeError("identify fitted the intrusion grid again")


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_identifies_from_memory(sweep_dir, config_path, tmp_path, monkeypatch, jobs):
    out = tmp_path / "sweep"
    with monkeypatch.context() as patch:
        for reader in ("read_intrusion_npy", "read_estimation_csv", "read_events_json"):
            patch.setattr(io, reader, _no_read)
        experiments.run_sweep(load_config(config_path), out, jobs=jobs)
    swept = _files(out)
    assert swept == _files(sweep_dir)
    grid_sha256 = hashlib.sha256(swept["intrusion_grid.npy"]).hexdigest()
    assert json.loads(swept["depth_speed_fit.json"])["grid_sha256"] == grid_sha256
    # the fit records the grid as it is: identify neither loads nor fits it
    with monkeypatch.context() as patch:
        patch.setattr(io, "read_intrusion_npy", _no_read)
        patch.setattr(experiments, "fit_depth_speed_model", _no_fit)
        assert main(["identify", "--config", config_path, "--out", str(out)]) == 0
    assert _files(out) == swept
    for name in IDENTIFY_FILES:
        (out / name).unlink()
    assert main(["identify", "--config", config_path, "--out", str(out)]) == 0
    assert _files(out) == swept


def _edit_force_cell(out):
    grid = out / "intrusion_grid.npy"
    rows = np.load(grid, allow_pickle=False)
    rows[10, 1] += 1.0
    np.save(grid, rows, allow_pickle=False)


# a grid, or a fit, that the recorded fit is not the fit of
_STALE_FITS = {
    "grid force cell edited": _edit_force_cell,
    "fit without grid_sha256": lambda out: _edit_fit(out, grid_sha256=None),
    "fit of another grid": lambda out: _edit_fit(out, grid_sha256="0" * 64),
    "fit not JSON": lambda out: (out / "depth_speed_fit.json").write_text("k_fit = 800\n"),
    "fit z_c above the box": lambda out: _edit_fit(out, z_c_fit=1.5),
}


@pytest.mark.parametrize("case", list(_STALE_FITS))
def test_identify_fits_a_grid_the_recorded_fit_is_not_of(sweep_dir, config_path, tmp_path, case):
    out = _copy(sweep_dir, tmp_path)
    _STALE_FITS[case](out)
    fit_path = out / "depth_speed_fit.json"
    assert main(["identify", "--config", config_path, "--out", str(out)]) == 0
    refit = fit_path.read_bytes()
    fit_path.unlink()
    assert main(["identify", "--config", config_path, "--out", str(out)]) == 0
    assert fit_path.read_bytes() == refit
    assert (refit != (sweep_dir / "depth_speed_fit.json").read_bytes()) == (case == "grid force cell edited")


def test_identify_without_the_intrusion_grid_writes_nothing(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    (out / "intrusion_grid.npy").unlink()
    before = _files(out)
    assert main(["identify", "--config", config_path, "--out", str(out)]) == 4
    assert _files(out) == before


def test_resume_mixing_memory_and_disk_matches_a_clean_sweep(sweep_dir, config_path, tmp_path):
    out = _copy(sweep_dir, tmp_path)
    (out / f"{TRIAL}_estimation.csv").unlink()
    (out / "intrusion_grid.npy").unlink()
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 0
    statuses = [e["status"] for e in json.loads((out / "manifest.json").read_text())["entries"]]
    assert statuses.count("done") == 2 and statuses.count("skipped") == len(statuses) - 2
    resumed, clean = _files(out), _files(sweep_dir)
    del resumed["manifest.json"], clean["manifest.json"]
    assert resumed == clean


def _cut_at_byte(path):
    path.write_bytes(path.read_bytes()[:3000])


def _cut_at_row(path):
    # 199 of the hop's rows, which still read as a shorter trial: the
    # frames array with its header rewritten for them
    if path.suffix == ".npy":
        np.save(path, np.load(path, allow_pickle=False)[:199], allow_pickle=False)
    else:
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:200]))


@pytest.mark.parametrize("cut", [_cut_at_byte, _cut_at_row])
def test_resume_runs_a_cut_hop_again(sweep_dir, config_path, tmp_path, monkeypatch, cut):
    out = _copy(sweep_dir, tmp_path)
    cut(out / f"{TRIAL}_estimation.csv")
    reads = []
    for reader in ("read_frames_npy", "read_estimation_csv", "read_events_json"):
        original = getattr(io, reader)
        monkeypatch.setattr(io, reader, lambda path, original=original: reads.append(Path(path).name) or original(path))
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 0
    statuses = {e["trial_id"]: e["status"] for e in json.loads((out / "manifest.json").read_text())["entries"]}
    assert statuses == {"hop_v0.80_kc3.75_s0": "skipped", TRIAL: "done", "intrusion_grid": "done"}
    # each file of the skipped hop is read once, and identify takes what was read
    skipped = sorted(f"hop_v0.80_kc3.75_s0_{suffix}" for suffix in ("frames.npy", "estimation.csv", "events.json"))
    assert sorted(name for name in reads if name.startswith("hop_v0.80_kc3.75_s0")) == skipped
    resumed, clean = _files(out), _files(sweep_dir)
    del resumed["manifest.json"], clean["manifest.json"]
    assert resumed == clean


# where a frames file is cut: the bytes it keeps, from the header's length
# and the file's
_FRAMES_CUTS = {
    "in the magic string": lambda header, size: 3,
    "in the header": lambda header, size: header // 2,
    "at the header's end": lambda header, size: header,
    "inside a row": lambda header, size: header + 100,
    "on a row boundary": lambda header, size: header + 199 * 8 * len(io.FRAME_COLUMNS),
    "a byte short": lambda header, size: size - 1,
}


@pytest.mark.parametrize("at", list(_FRAMES_CUTS))
def test_resume_runs_a_hop_whose_frames_are_cut_at_any_byte(sweep_dir, config_path, tmp_path, at):
    # the header holds the array's shape, so a frames file cut after the
    # hop's liftoff, which a text file would read back as a shorter trial,
    # does not read back either
    out = _copy(sweep_dir, tmp_path)
    frames = out / f"{TRIAL}_frames.npy"
    blob = frames.read_bytes()
    header = len(blob) - np.load(frames, allow_pickle=False).nbytes
    frames.write_bytes(blob[: _FRAMES_CUTS[at](header, len(blob))])
    with pytest.raises(MissingInputError, match=str(frames)):
        io.read_frames_npy(frames)
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 0
    statuses = {e["trial_id"]: e["status"] for e in json.loads((out / "manifest.json").read_text())["entries"]}
    assert statuses == {"hop_v0.80_kc3.75_s0": "skipped", TRIAL: "done", "intrusion_grid": "done"}
    resumed, clean = _files(out), _files(sweep_dir)
    del resumed["manifest.json"], clean["manifest.json"]
    assert resumed == clean


def _as_text_directory(out):
    """A sweep directory as written before frames and the grid were arrays:
    each as a CSV of repr cells, named in the manifest, and the fit
    recording the text grid's sha256."""
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["entries"]:
        for key, name in entry["paths"].items():
            if name.endswith(".npy"):
                rows = np.load(out / name, allow_pickle=False)
                header = io.FRAME_COLUMNS if key == "frames" else ("speed", *(f"force_{r}" for r in range(rows.shape[1] - 1)))
                entry["paths"][key] = name.removesuffix(".npy") + ".csv"
                io.write_columns_csv(out / entry["paths"][key], header, rows.T)
                (out / name).unlink()
    (out / "manifest.json").write_text(json.dumps(manifest))
    _edit_fit(out, grid_sha256=io.file_sha256(out / "intrusion_grid.csv"))


@pytest.mark.parametrize(("command", "broken"), [("identify", "intrusion_grid.csv"), ("report", f"{REPRESENTATIVE}_frames.csv")])
def test_a_directory_of_text_frames_and_grid_is_bad_input(sweep_dir, config_path, tmp_path, capsys, command, broken):
    # its fit records the text grid's sha256, yet identify checks the grid's
    # header: both commands exit 4, name the text file they cannot read,
    # and write nothing
    out = _copy(sweep_dir, tmp_path)
    _as_text_directory(out)
    before = _files(out)
    capsys.readouterr()
    assert main([command, "--config", config_path, "--out", str(out)]) == 4
    assert str(out / broken) in capsys.readouterr().err
    assert _files(out) == before


def test_report_rejects_estimates_of_other_frames(sweep_dir, config_path, tmp_path):
    # the representative trial with an estimation file cut on a row
    # boundary: a shorter trial than its frames
    out = _copy(sweep_dir, tmp_path)
    _cut_at_row(out / f"{REPRESENTATIVE}_estimation.csv")
    assert main(["report", "--config", config_path, "--out", str(out)]) == 4


@pytest.mark.parametrize("cut", [_cut_at_byte, _cut_at_row])
def test_report_reads_its_representative_hop_before_writing(sweep_dir, config_path, tmp_path, cut):
    # a cut frames file is refused before the force map or the hop's CSVs
    # are written
    out = _copy(sweep_dir, tmp_path)
    cut(out / f"{REPRESENTATIVE}_frames.npy")
    before = _files(out)
    assert main(["report", "--config", config_path, "--out", str(out)]) == 4
    assert _files(out) == before


def test_resume_runs_a_cut_intrusion_grid_again(sweep_dir, config_path, tmp_path):
    # cut on a row boundary, half its rows: the header still names them all,
    # so the grid does not read back; a sweep runs the grid again anyway
    out = _copy(sweep_dir, tmp_path)
    grid = out / "intrusion_grid.npy"
    rows = np.load(grid, allow_pickle=False)
    grid.write_bytes(grid.read_bytes()[: grid.stat().st_size - rows[len(rows) // 2:].nbytes])
    with pytest.raises(MissingInputError, match=str(grid)):
        io.read_intrusion_npy(grid)
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 0
    resumed, clean = _files(out), _files(sweep_dir)
    assert resumed.keys() == clean.keys()
    manifest, clean_manifest = (json.loads(files.pop("manifest.json")) for files in (resumed, clean))
    assert resumed == clean
    for entry in (*manifest["entries"], *clean_manifest["entries"]):
        if entry["kind"] == "hop":
            entry.pop("status")
    assert manifest == clean_manifest


def _swap_touchdown_and_liftoff(events):
    return {**events, "t_td": events["t_lo"], "t_lo": events["t_td"]}


# events that `detect_events` cannot have found: it finds
# t[0] <= t_td < t_ce < t_lo <= t[-1] of the hop's t
_BAD_EVENTS = {
    "touchdown and liftoff swapped": _swap_touchdown_and_liftoff,
    "touchdown and liftoff past the hop": lambda events: {**events, "t_td": 50.0, "t_lo": 60.0},
}


def _edit_events(path, edit):
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


@pytest.mark.parametrize("case", list(_BAD_EVENTS))
def test_report_on_events_outside_their_hop_writes_nothing(sweep_dir, config_path, tmp_path, capsys, case):
    # the stance window of such events holds no sample: the trial figures
    # would be header-only files
    out = _copy(sweep_dir, tmp_path)
    assert main(["report", "--config", config_path, "--out", str(out)]) == 0
    events = out / f"{REPRESENTATIVE}_events.json"
    _edit_events(events, _BAD_EVENTS[case])
    before = _files(out)
    capsys.readouterr()
    assert main(["report", "--config", config_path, "--out", str(out)]) == 4
    assert str(events) in capsys.readouterr().err
    assert _files(out) == before


@pytest.mark.parametrize("case", [*_BAD_EVENTS, "both files cut before liftoff"])
def test_resume_runs_a_hop_with_events_outside_it_again(sweep_dir, config_path, tmp_path, case):
    out = _copy(sweep_dir, tmp_path)
    if case in _BAD_EVENTS:
        _edit_events(out / f"{TRIAL}_events.json", _BAD_EVENTS[case])
    else:
        # the frames and estimation files agree on a t that ends before liftoff
        for suffix in ("frames.npy", "estimation.csv"):
            _cut_at_row(out / f"{TRIAL}_{suffix}")
        assert json.loads((out / f"{TRIAL}_events.json").read_text())["t_lo"] > 0.199
    assert main(["sweep", "--config", config_path, "--out", str(out), "--resume"]) == 0
    statuses = {e["trial_id"]: e["status"] for e in json.loads((out / "manifest.json").read_text())["entries"]}
    assert statuses == {"hop_v0.80_kc3.75_s0": "skipped", TRIAL: "done", "intrusion_grid": "done"}
    resumed, clean = _files(out), _files(sweep_dir)
    del resumed["manifest.json"], clean["manifest.json"]
    assert resumed == clean
