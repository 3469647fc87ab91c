import json
import os
from pathlib import Path

import numpy as np
import pytest

from hopperlab import io
from hopperlab.cli import main
from hopperlab.config import config_to_text, default_config, load_config
from hopperlab.errors import ConfigError

TINY_SWEEP = """
[sweep]
speeds = 0.8
stiffnesses = 3.75
seeds = 0, 1
intrusion_speed_count = 3
intrusion_repeats = 1
"""


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_config_gives_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, ""))
    d = default_config()
    assert cfg.terrain.k_stiff == d.terrain.k_stiff
    assert cfg.controller.k_compress == d.controller.k_compress
    assert cfg.sweep.speeds == d.sweep.speeds
    assert cfg.sim.dt_truth == d.sim.dt_truth


def test_stiffness_unit_conversion(tmp_path):
    cfg = load_config(_write(tmp_path, "[controller]\nk_compress = 3.75\n"))
    assert cfg.controller.k_compress == 375.0
    assert any("3.75 N/cm" in note for note in cfg.unit_conversions)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="kc_typo"):
        load_config(_write(tmp_path, "[controller]\nkc_typo = 1.0\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="motors"):
        load_config(_write(tmp_path, "[motors]\nkv = 110\n"))


def test_bad_value_names_field(tmp_path):
    with pytest.raises(ConfigError, match="k_stiff"):
        load_config(_write(tmp_path, "[terrain]\nk_stiff = soft\n"))


def test_invalid_physical_value_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[terrain]\nk_stiff = -5\n"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[sweep]\nseeds = 1, 1\n"))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.ini"))


def test_config_round_trip(tmp_path):
    d = default_config()
    cfg = load_config(_write(tmp_path, config_to_text(d)))
    assert cfg.controller.k_compress == d.controller.k_compress
    assert cfg.noise.tof_sigma == d.noise.tof_sigma
    assert cfg.sweep.seeds == d.sweep.seeds


def test_default_sweep_matches_protocol():
    # 4 nonzero-drop speeds x 3 stiffnesses x 5 seeds = 60 hop trials,
    # 50 intrusion speeds x 3 repeats = 150 intrusion trials
    d = default_config()
    n_hops = len(d.sweep.speeds) * len(d.sweep.stiffnesses_n_per_cm) * len(d.sweep.seeds)
    assert n_hops == 60
    assert d.sweep.intrusion_speed_count * d.sweep.intrusion_repeats == 150
    speeds = d.sweep.intrusion_speeds()
    assert speeds[0] == pytest.approx(0.022)
    assert speeds[-1] == pytest.approx(1.1)


def test_cli_config_error_exit_code(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "missing.ini")])
    assert rc == 2
    rc = main(["simulate", "--config", _write(tmp_path, "[controller]\nbogus = 1\n")])
    assert rc == 2


def test_cli_missing_input_exit_code(tmp_path):
    cfg = _write(tmp_path, f"[output]\ndir = {tmp_path}/empty\n")
    assert main(["estimate", "--config", cfg]) == 4
    assert main(["identify", "--config", cfg]) == 4
    assert main(["report", "--config", cfg]) == 4


def test_cli_simulate_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, f"[sim]\ndrop_speed = 0.8\nseed = 0\n[output]\ndir = {tmp_path}/out\n")
    assert main(["simulate", "--config", cfg]) == 0
    out = tmp_path / "out"
    names = {p.name for p in out.iterdir()}
    assert "hop_v0.80_kc3.75_s0_frames.csv" in names
    assert "hop_v0.80_kc3.75_s0_truth.csv" in names
    assert "hop_v0.80_kc3.75_s0_events.json" in names
    assert "hop_v0.80_kc3.75_s0_estimation.csv" in names
    frames = io.read_frames_csv(out / "hop_v0.80_kc3.75_s0_frames.csv")
    assert frames.t[1] - frames.t[0] == pytest.approx(1e-3)


def test_cli_out_precedence(tmp_path, monkeypatch):
    cfg = _write(tmp_path, f"[output]\ndir = {tmp_path}/from_config\n")
    monkeypatch.setenv("HOPPERLAB_OUT", str(tmp_path / "from_env"))
    assert main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "from_env").exists()
    assert not (tmp_path / "from_config").exists()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag").exists()


def test_cli_sweep_manifest_and_resume(tmp_path):
    out = tmp_path / "runs"
    cfg = _write(tmp_path, TINY_SWEEP + f"[output]\ndir = {out}\n")
    assert main(["sweep", "--config", cfg]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    hop_entries = [e for e in manifest["entries"] if e["kind"] == "hop"]
    intr_entries = [e for e in manifest["entries"] if e["kind"] == "intrusion"]
    assert len(hop_entries) == 2
    assert len(intr_entries) == 3
    ids = [e["trial_id"] for e in manifest["entries"]]
    assert len(ids) == len(set(ids))
    report_first = (out / "treatment_report.json").read_bytes()

    # delete one trial's outputs, resume, and expect identical reports
    victim = hop_entries[0]
    for name in victim["paths"].values():
        os.remove(out / name)
    assert main(["sweep", "--config", cfg, "--resume"]) == 0
    manifest2 = json.loads((out / "manifest.json").read_text())
    statuses = {e["trial_id"]: e["status"] for e in manifest2["entries"]}
    assert statuses[victim["trial_id"]] == "done"
    assert sum(1 for s in statuses.values() if s == "skipped") == len(manifest["entries"]) - 1
    assert (out / "treatment_report.json").read_bytes() == report_first


def test_cli_seeds_override(tmp_path):
    out = tmp_path / "runs"
    cfg = _write(tmp_path, TINY_SWEEP + f"[output]\ndir = {out}\n")
    assert main(["sweep", "--config", cfg, "--seeds", "7"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    hop_entries = [e for e in manifest["entries"] if e["kind"] == "hop"]
    assert [e["seed"] for e in hop_entries] == [7]


def test_cli_report_outputs(tmp_path):
    out = tmp_path / "runs"
    cfg = _write(tmp_path, TINY_SWEEP + f"[output]\ndir = {out}\n")
    assert main(["sweep", "--config", cfg]) == 0
    assert main(["report", "--config", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["k_gt"] == 800.0
    record = summary["conditions"][0]
    assert record["n"] == 2
    assert {"treatment", "mean_k", "sem_k", "rel_err"} <= set(record)
    for name in ("stiffness_vs_speed.csv", "stiffness_vs_kc.csv", "force_map.csv",
                 "force_depth_trial.csv", "added_mass_residual.csv", "fits.csv"):
        assert (out / name).exists(), name


def test_report_sem_against_direct_formula(tmp_path):
    out = tmp_path / "runs"
    cfg = _write(tmp_path, TINY_SWEEP + f"[output]\ndir = {out}\n")
    assert main(["sweep", "--config", cfg]) == 0
    report = json.loads((out / "treatment_report.json").read_text())
    fits = {}
    with open(out / "fits.csv") as handle:
        next(handle)
        for line in handle:
            v, kc, treatment, k_est, seed = line.strip().split(",")
            fits.setdefault(treatment, []).append(float(k_est))
    for cond in report["conditions"]:
        ks = np.array(fits[cond["treatment"]])
        expected = np.std(ks, ddof=1) / np.sqrt(ks.size)
        assert cond["sem_k"] == pytest.approx(expected, rel=1e-9)


def test_io_round_trips(tmp_path, noiseless_trial):
    frames_path = tmp_path / "f.csv"
    io.write_frames_csv(frames_path, noiseless_trial.frames)
    frames = io.read_frames_csv(frames_path)
    assert frames.t.size == len(noiseless_trial.frames)
    assert frames.loadcell_force[5] == noiseless_trial.frames.loadcell_force[5]

    truth_path = tmp_path / "t.csv"
    io.write_truth_csv(truth_path, noiseless_trial.truth)
    truth = io.read_truth_csv(truth_path)
    assert np.array_equal(truth.x_f, noiseless_trial.truth.x_f)
    assert truth.phase_id.dtype.kind == "i"

    events_path = tmp_path / "e.json"
    io.write_events_json(events_path, noiseless_trial.events)
    events = io.read_events_json(events_path)
    assert events == noiseless_trial.events


# ------------------------------------------------------------- --jobs


class _FakePool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        _FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def test_sweep_pool_sized_to_hop_jobs(tmp_path, monkeypatch):
    from hopperlab import experiments

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(_FakePool, "sizes", [])
    config = load_config(_write(tmp_path, TINY_SWEEP))
    experiments.run_sweep(config, tmp_path / "a", jobs=64)
    assert _FakePool.sizes == [2]
    experiments.run_sweep(config, tmp_path / "b", jobs=1)
    assert _FakePool.sizes == [2]


def test_sweep_rejects_jobs_below_one(tmp_path):
    out = tmp_path / "runs"
    cfg = _write(tmp_path, TINY_SWEEP)
    for jobs in ("0", "-3"):
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--jobs", "0"],
        ["simulate", "--resume"],
        ["intrude", "--seeds", "1"],
        ["estimate", "--jobs", "2"],
        ["identify", "--resume"],
        ["report", "--seeds", "1"],
    ],
)
def test_flags_belong_to_the_commands_that_read_them(tmp_path, argv):
    out = tmp_path / "runs"
    cfg = _write(tmp_path, TINY_SWEEP)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", cfg, "--out", str(out), *argv[1:]])
    assert exc.value.code == 2
    assert not out.exists()


def test_sweep_with_two_jobs_matches_serial_bytes(tmp_path):
    cfg = _write(tmp_path, TINY_SWEEP)
    runs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        assert main(["report", "--config", cfg, "--out", str(out)]) == 0
        runs[jobs] = {
            p.name: p.read_bytes().replace(str(out).encode(), b"<out>") for p in out.iterdir()
        }
    assert len(runs["1"]) > 10
    assert runs["2"] == runs["1"]


def test_intrude_writes_the_sweep_intrusion_logs(tmp_path):
    cfg = _write(tmp_path, TINY_SWEEP)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
    assert main(["intrude", "--config", cfg, "--out", str(tmp_path / "intrude")]) == 0
    written = sorted((tmp_path / "intrude").iterdir())
    assert [p.name for p in written] == sorted(p.name for p in (tmp_path / "sweep").glob("intr_*.csv"))
    assert len(written) == 3
    for path in written:
        assert path.read_bytes() == (tmp_path / "sweep" / path.name).read_bytes()
