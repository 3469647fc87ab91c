import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hopperlab import io
from hopperlab.cli import main
from hopperlab.config import _SCHEMA, ExperimentConfig, config_to_text, linspace, load_config
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
    d = ExperimentConfig()
    assert cfg.terrain.k_stiff == d.terrain.k_stiff
    assert cfg.controller.k_compress == d.controller.k_compress
    assert cfg.sweep.speeds == d.sweep.speeds
    assert cfg.sim == d.sim


def test_stiffness_unit_conversion(tmp_path):
    cfg = load_config(_write(tmp_path, "[controller]\nk_compress = 3.75\n"))
    assert cfg.controller.k_compress == 375.0


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
    d = ExperimentConfig()
    cfg = load_config(_write(tmp_path, config_to_text(d)))
    assert cfg.controller.k_compress == d.controller.k_compress
    assert cfg.noise.tof_sigma == d.noise.tof_sigma
    assert cfg.sweep.seeds == d.sweep.seeds


def test_default_ini_is_the_rendered_default_config():
    path = Path(__file__).resolve().parents[1] / "configs" / "default.ini"
    assert path.read_bytes() == config_to_text(ExperimentConfig()).encode()


# where 0.9 x the default breaks a constraint between fields (k_extend:
# the 5 N/cm of the default sweep grid)
_OTHER = {"l_lower": 0.32, "k_extend": 550.0}


def _other_value(value):
    """A value of the same type that differs from the default `value`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, tuple):
        return tuple(_other_value(v) for v in value[:2])
    if isinstance(value, int):
        return value + 1
    return value * 0.9 if value else 0.001


_SECTION_FIELDS = [
    (section.name, f.name)
    for section in fields(ExperimentConfig)
    if section.name != "output_dir"
    for f in fields(section.default_factory)
]


@pytest.mark.parametrize("section,name", _SECTION_FIELDS)
def test_every_section_field_is_a_config_key(tmp_path, section, name):
    value = _OTHER.get(name) or _other_value(getattr(getattr(ExperimentConfig(), section), name))
    if isinstance(value, tuple):
        text = ", ".join(str(v) for v in value)
    else:
        text = str(value / 100.0 if name in ("k_compress", "k_extend") else value)
    key = "stiffnesses" if name == "stiffnesses_n_per_cm" else name
    cfg = load_config(_write(tmp_path, f"[{section}]\n{key} = {text}\n"))
    assert repr(getattr(getattr(cfg, section), name)) == repr(value)
    assert load_config(_write(tmp_path, config_to_text(cfg), "again.ini")) == cfg


def test_output_dir_is_a_config_key(tmp_path):
    cfg = load_config(_write(tmp_path, "[output]\ndir = elsewhere/runs\n"))
    assert cfg.output_dir == "elsewhere/runs"
    assert load_config(_write(tmp_path, config_to_text(cfg), "again.ini")) == cfg


def test_default_sweep_matches_protocol():
    # 4 nonzero-drop speeds x 3 stiffnesses x 5 seeds = 60 hop trials,
    # 50 intrusion speeds x 3 repeats = 150 intrusion trials
    d = ExperimentConfig()
    n_hops = len(d.sweep.speeds) * len(d.sweep.stiffnesses_n_per_cm) * len(d.sweep.seeds)
    assert n_hops == 60
    assert d.sweep.intrusion_speed_count * d.sweep.intrusion_repeats == 150
    speeds = d.sweep.intrusion_speeds()
    assert speeds[0] == pytest.approx(0.022)
    assert speeds[-1] == pytest.approx(1.1)


@settings(max_examples=300, deadline=None)
@given(low=st.floats(1e-6, 100.0), span=st.floats(0.0, 10.0), n=st.integers(1, 9999))
@example(low=0.022, span=1.078 / 0.022, n=50)
@example(low=0.022, span=2.7e-16, n=5)
def test_linspace_is_numpy_linspace_bit_for_bit(low, span, n):
    # the intrusion speeds are built in Python floats, repeats included
    # (the config then rejects them)
    high = low + low * span
    assert linspace(low, high, n) == np.linspace(low, high, n).tolist()


def test_cli_config_error_exit_code(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "missing.ini")])
    assert rc == 2
    rc = main(["simulate", "--config", _write(tmp_path, "[controller]\nbogus = 1\n")])
    assert rc == 2
    # the bed surface is the height datum, not a setting
    cfg = _write(tmp_path, "[terrain]\nsurface_height = 0.1\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "runs")])
    assert rc == 2
    # a non-finite drop speed or duration is a config error, not a failed trial
    for text in ("[sim]\ndrop_speed = nan\n", "[sim]\ndrop_speed = inf\n", "[sim]\nt_max = nan\n"):
        rc = main(["simulate", "--config", _write(tmp_path, text), "--out", str(tmp_path / "runs")])
        assert rc == 2, text


def test_sweep_stiffness_above_k_extend_is_a_config_error(tmp_path, capsys):
    # the grid's compression stiffness must fit under the controller's
    # extension stiffness, checked when the file is read, before any output
    out = tmp_path / "runs"
    cfg = _write(tmp_path, TINY_SWEEP.replace("stiffnesses = 3.75", "stiffnesses = 3.75, 7"))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[sweep] stiffnesses = 7.0" in err and "[controller] k_extend = 5.0" in err
    assert not out.exists()
    # at k_extend itself the grid runs
    cfg = _write(tmp_path, TINY_SWEEP.replace("stiffnesses = 3.75", "stiffnesses = 5.0") + "\n[controller]\nk_extend = 5.0\n")
    assert load_config(cfg).sweep.stiffnesses_n_per_cm == (5.0,)


@pytest.mark.parametrize(
    "old,new,names",
    [
        ("speeds = 0.8", "speeds = 1.0, 1.001", ["[sweep] speeds"]),
        ("speeds = 0.8", "speeds = 0.8, 0.8", ["[sweep] speeds"]),
        ("stiffnesses = 3.75", "stiffnesses = 2.5, 2.501", ["[sweep] stiffnesses"]),
        (
            "intrusion_speed_count = 3",
            "intrusion_speed_count = 5\nintrusion_speed_max = 0.022000000000000006",
            ["[sweep] intrusion_speed_min", "[sweep] intrusion_speed_max", "[sweep] intrusion_speed_count"],
        ),
        ("intrusion_speed_count = 3", "intrusion_speed_count = 10000", ["[sweep] intrusion_speed_count"]),
    ],
    ids=["speeds-two-decimals", "speeds-equal", "stiffnesses-two-decimals", "intrusion-speeds-repeat", "intrusion-count"],
)
def test_grid_the_artifacts_cannot_hold_is_a_config_error(tmp_path, capsys, old, new, names):
    # two hop conditions that share a trial id (1.0 and 1.001 m/s are both
    # hop_v1.00_...) would write one set of files, and an intrusion grid
    # whose speeds repeat (linspace from 0.022 to 0.022000000000000006)
    # would write a file `identify` rejects: both are refused at load
    out = tmp_path / "runs"
    cfg = _write(tmp_path, TINY_SWEEP.replace(old, new))
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert not out.exists()


def test_observer_bandwidth_at_the_sensor_rate_is_a_config_error(tmp_path, capsys):
    # dt*k_obs >= 1 makes the observer's discretization unstable; it is
    # checked when the file is read, before any trial is simulated
    out = tmp_path / "runs"
    cfg = _write(tmp_path, "[estimation]\nk_obs = 1000\n")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[estimation] k_obs = 1000.0" in err and "[sim] sensor_rate_hz = 1000.0" in err
    assert not out.exists()
    assert load_config(_write(tmp_path, "[estimation]\nk_obs = 999\n")).estimation.k_obs == 999.0


@pytest.mark.parametrize(
    "text, message",
    [
        # a run of one sensor period has one frame, the release, and no
        # hop: the truth rows are the frames, so a trial with its events
        # has at least three (the estimator needs two)
        ("[sim]\nt_max = 0.001\n", "no touchdown"),
        # the plant's mass-matrix determinant rounds to 0
        ("[linkage]\nm_body = 1e16\n", "division by zero"),
        # the filter's innovation covariance is singular
        ("[noise]\nimu_sigma = 1e30\n", "Singular matrix"),
    ],
    ids=["one frame", "m_body=1e16", "imu_sigma=1e30"],
)
def test_a_runtime_failure_is_exit_3_with_one_line(tmp_path, capsys, text, message):
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(tmp_path / "runs")]) == 3
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, names, at_bound",
    [
        (
            "[sim]\nsensor_rate_hz = 1e4\nt_max = 100.1\n",
            ("[sim] t_max", "[sim] sensor_rate_hz"),
            "[sim]\nsensor_rate_hz = 1e4\nt_max = 100\n",
        ),
        (
            "[sweep]\nintrusion_speed_min = 0.1\nintrusion_z_max = 100.1\n",
            ("[sweep] intrusion_z_max", "[sweep] intrusion_speed_min"),
            "[sweep]\nintrusion_speed_min = 0.1\nintrusion_z_max = 100\n",
        ),
    ],
    ids=["hop steps", "intrusion samples"],
)
def test_a_trial_above_a_million_samples_is_a_config_error(tmp_path, capsys, text, names, at_bound):
    # a hop may take 10^6 RK4 steps and an intrusion 10^6 samples at the
    # rig's 1 kHz; more is refused when the file is read, before any output
    out = tmp_path / "runs"
    command = "sweep" if text.startswith("[sweep]") else "simulate"
    assert main([command, "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert not out.exists()
    load_config(_write(tmp_path, at_bound))


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
    assert [e["paths"] for e in intr_entries] == [{"log": "intrusion_grid.csv"}]
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
    assert statuses[victim["trial_id"]] == statuses["intrusion_grid"] == "done"
    assert sum(1 for s in statuses.values() if s == "skipped") == len(hop_entries) - 1
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
    assert [p.name for p in written] == ["intrusion_grid.csv"]
    assert written[0].read_bytes() == (tmp_path / "sweep" / "intrusion_grid.csv").read_bytes()


# ------------------------------------------------- domains of the config keys

# a one-condition sweep, the base of every [sweep] input
_ONE_CONDITION = {"speeds": "0.8", "stiffnesses": "3.75", "seeds": "0",
                  "intrusion_speed_count": "2", "intrusion_repeats": "1"}


def _schema_defaults():
    """(section, key, field name, default) of every numeric key, from the schema."""
    defaults = ExperimentConfig()
    for section, schema in _SCHEMA.items():
        if section == "output":
            continue
        for key, (target, _, _) in schema.items():
            value = getattr(getattr(defaults, section), target)
            if not isinstance(value, bool):
                yield section, key, target, value


def _fuzz_values(default):
    """Values outside every domain, then two in-domain extremes whose
    squares and reciprocals overflow."""
    if isinstance(default, tuple):
        return ("nan", "inf", "-1", "0", "1e300", "1e-300")
    if isinstance(default, int):
        return ("-1", "0")
    return ("nan", "inf", "-inf", "-1", "0", "1e300", "1e-300")


_FUZZ = [
    pytest.param(section, key, text, id=f"{section}-{key}={text}")
    for section, key, _, default in _schema_defaults()
    for text in _fuzz_values(default)
]


@pytest.mark.parametrize("section,key,text", _FUZZ)
def test_any_key_value_keeps_the_exit_code_contract(tmp_path, capsys, section, key, text):
    # every numeric key x {nan, +-inf, -1, 0, 1e300, 1e-300}: a config error
    # names the key, and a run that succeeds writes finite estimates
    out = tmp_path / "runs"
    if section == "sweep":
        command, keys = "sweep", {**_ONE_CONDITION, key: text}
    else:
        command, keys = "simulate", {key: text}
    body = "".join(f"{name} = {value}\n" for name, value in keys.items())
    rc = main([command, "--config", _write(tmp_path, f"[{section}]\n{body}"), "--out", str(out)])
    assert rc in (0, 2, 3, 4)
    if rc == 2:
        assert f"[{section}] {key}" in capsys.readouterr().err
    if rc == 0:
        paths = sorted(out.glob("*_estimation.csv"))
        assert paths
        for path in paths:
            est, _ = io.read_estimation_csv(path)
            for column in (est.f_mo, est.x_f_hat, est.x_b_hat):
                assert np.all(np.isfinite(column)), path.name


@pytest.mark.parametrize(
    "section,name,default", [pytest.param(s, t, d, id=f"{s}-{t}") for s, _, t, d in _schema_defaults()]
)
def test_direct_construction_rejects_a_value_outside_the_domain(section, name, default):
    cls = type(getattr(ExperimentConfig(), section))

    def build(value):  # a tuple field gets `value` as its first element
        return cls(**{name: (value,) + default[1:] if isinstance(default, tuple) else value})

    first = default[0] if isinstance(default, tuple) else default
    if isinstance(first, int):
        # an integer field takes numpy's integers and refuses a non-integral
        # value inside its range
        build(np.int64(first))
        bad = (-1, first + 0.5)
    else:
        bad = (math.nan,)
    for value in bad:
        with pytest.raises(ValueError, match=f"^{name} = "):
            build(value)


@pytest.mark.parametrize(
    "command,seeds,names",
    [("sweep", "1,1", "[sweep] seeds"), ("sweep", "-1", "[sweep] seeds"),
     ("simulate", "-1", "[sim] seed"), ("simulate", "0,-1", "[sim] seed")],
)
def test_seeds_flag_outside_the_domain_is_a_config_error(tmp_path, capsys, command, seeds, names):
    # --seeds goes through the domain of [sweep] seeds / [sim] seed, before any trial runs
    out = tmp_path / "runs"
    cfg = _write(tmp_path, TINY_SWEEP)
    assert main([command, "--config", cfg, "--out", str(out), "--seeds", seeds]) == 2
    assert names in capsys.readouterr().err
    assert not out.exists()
