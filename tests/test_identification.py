import math

import numpy as np
import pytest

from hopperlab.errors import DegenerateFitError, InsufficientDataError
from hopperlab.estimation import run_estimation
from hopperlab.identification import (
    DepthSpeedFit,
    StanceSamples,
    TrialSamples,
    WeightConfig,
    acceleration_weight,
    added_mass_reconstruction,
    extract_samples,
    fit_depth_speed_model,
    fit_treatments,
    ols_linear_fit,
    sem,
    treatment_comparison,
    wls_linear_fit,
)
from hopperlab.signals import smoothed_derivative
from hopperlab.simulator import Frames, NoiseConfig, run_constant_speed_intrusion
from hopperlab.terrain import TerrainParams, added_mass_profile


def _samples(z, f, zdd=None, zd=None):
    z = np.asarray(z, dtype=float)
    zdd = np.zeros_like(z) if zdd is None else np.asarray(zdd, dtype=float)
    zd = np.zeros_like(z) if zd is None else np.asarray(zd, dtype=float)
    t = 0.001 * np.arange(z.size)
    return StanceSamples(z=z, z_dot=zd, z_ddot=zdd, f=np.asarray(f, dtype=float), t=t, source="mo")


# ----------------------------------------------------------------- extract


def test_extract_samples_stance_window(noiseless_trial, noiseless_frames, linkage):
    est = run_estimation(noiseless_frames, linkage, noise=NoiseConfig.noiseless())
    samples = extract_samples(est, noiseless_trial.events, "loadcell", frames=noiseless_frames)
    ev = noiseless_trial.events
    assert all(ev.t_td <= t <= ev.t_lo for t in samples.t.tolist())
    assert all(z > 0.0 for z in samples.z.tolist())
    # sample count ~ stance duration x 1 kHz
    expected = (ev.t_lo - ev.t_td) * 1000.0
    assert abs(len(samples) - expected) <= 3
    # noiseless loadcell samples lie on the reaction-law surface
    terrain = TerrainParams()
    rows = zip(samples.z.tolist(), samples.z_dot.tolist(), samples.z_ddot.tolist(), samples.f.tolist())
    for z, z_dot, z_ddot, f in list(rows)[::25]:
        m_a, grad = added_mass_profile(z, terrain)
        if z_dot >= 0.0:
            expected_f = terrain.k_stiff * z + grad * z_dot**2 + m_a * z_ddot
        else:
            expected_f = terrain.k_stiff * z
        assert f == pytest.approx(expected_f, abs=1.5)


def _per_index_samples(est, events, force):
    """Stance samples built one index at a time, as (z, z_dot, z_ddot, f, t) rows."""
    dt = float(est.t[1] - est.t[0])
    z = np.maximum(0.0, -est.x_f_hat)
    z_dot = -est.v_f_hat
    z_ddot = -smoothed_derivative(est.v_f_hat, dt, window=11)
    return [
        (float(z[i]), float(z_dot[i]), float(z_ddot[i]), float(force[i]), float(est.t[i]))
        for i in range(len(est))
        if events.t_td <= est.t[i] <= events.t_lo and z[i] > 0.0 and math.isfinite(force[i])
    ]


@pytest.mark.parametrize("source", ["qs", "mo", "loadcell"])
@pytest.mark.parametrize("trial", ["noisy", "noiseless"])
def test_extract_samples_columns_match_per_index_reference(request, trial, source, linkage):
    log = request.getfixturevalue(f"{trial}_trial")
    est = run_estimation(log.frames, linkage)
    force = {"qs": est.f_qs, "mo": est.f_mo, "loadcell": log.frames.loadcell_force}[source]
    samples = extract_samples(est, log.events, source, frames=log.frames)
    rows = _per_index_samples(est, log.events, force)
    assert samples.source == source
    assert len(samples) == len(rows) > 100
    for name, want in zip(("z", "z_dot", "z_ddot", "f", "t"), zip(*rows)):
        assert getattr(samples, name).tobytes() == np.array(want, dtype=float).tobytes(), name


def test_extract_samples_empty_window(noiseless_frames, noiseless_trial, linkage):
    import dataclasses

    est = run_estimation(noiseless_frames, linkage, noise=NoiseConfig.noiseless())
    flight_events = dataclasses.replace(noiseless_trial.events, t_td=0.0, t_ce=0.005, t_lo=0.01)
    with pytest.raises(InsufficientDataError):
        extract_samples(est, flight_events, "mo")


def test_extract_samples_bad_source(noiseless_frames, noiseless_trial, linkage):
    est = run_estimation(noiseless_frames, linkage, noise=NoiseConfig.noiseless())
    with pytest.raises(ValueError):
        extract_samples(est, noiseless_trial.events, "mocap")
    with pytest.raises(ValueError):
        extract_samples(est, noiseless_trial.events, "loadcell")  # frames missing


# --------------------------------------------------------------------- OLS


def test_ols_exact_line():
    z = np.linspace(0.005, 0.05, 40)
    fit = ols_linear_fit(_samples(z, 800.0 * z))
    assert fit.k_est == pytest.approx(800.0, rel=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-10)
    assert fit.rmse == pytest.approx(0.0, abs=1e-10)


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(5)
    z = rng.uniform(0.005, 0.06, 300)
    f = 800.0 * z + 1.5 + rng.normal(0.0, 0.8, z.size)
    fit = ols_linear_fit(_samples(z, f))
    # closed-form normal equations
    X = np.column_stack([z, np.ones_like(z)])
    coef = np.linalg.solve(X.T @ X, X.T @ f)
    assert fit.k_est == pytest.approx(coef[0], abs=1e-10)
    assert fit.intercept == pytest.approx(coef[1], abs=1e-10)


def test_ols_degenerate_depth():
    z = np.full(10, 0.02)
    with pytest.raises(DegenerateFitError):
        ols_linear_fit(_samples(z, 800.0 * z))
    with pytest.raises(DegenerateFitError):
        ols_linear_fit(_samples(np.array([0.02]), np.array([16.0])))


# ----------------------------------------------------------------- weights


def test_weight_sigmoid_midpoint():
    cfg = WeightConfig()
    w = acceleration_weight(cfg.a0, cfg)
    sigma_mid = 0.5 * (cfg.sigma_good + cfg.sigma_bad)
    assert w == pytest.approx(1.0 / sigma_mid**2, rel=1e-12)


def test_weight_tails():
    # sharp sigmoid (k_w*a0 >> 1) pins the tails at the two variances
    cfg = WeightConfig(k_w=2.0, a0=10.0)
    assert acceleration_weight(0.0, cfg) == pytest.approx(1.0 / cfg.sigma_good**2, rel=1e-6)
    assert acceleration_weight(1e4, cfg) == pytest.approx(1.0 / cfg.sigma_bad**2, rel=1e-12)


def test_weight_monotone_and_bounded():
    cfg = WeightConfig()
    accs = np.linspace(0.0, 120.0, 400)
    ws = np.array([acceleration_weight(a, cfg) for a in accs])
    assert np.all(np.diff(ws) <= 1e-15)
    assert np.all(ws <= 1.0 / cfg.sigma_good**2 + 1e-15)
    assert np.all(ws >= 1.0 / cfg.sigma_bad**2 - 1e-15)


def test_weight_config_validation():
    with pytest.raises(ValueError):
        WeightConfig(sigma_good=2.0, sigma_bad=1.0)
    with pytest.raises(ValueError):
        WeightConfig(k_w=0.0)
    with pytest.raises(ValueError):
        WeightConfig(a0=-1.0)


# --------------------------------------------------------------------- WLS


def test_wls_uniform_weights_equals_ols():
    rng = np.random.default_rng(9)
    z = rng.uniform(0.005, 0.06, 200)
    f = 800.0 * z + rng.normal(0.0, 1.0, z.size)
    zdd = np.full(z.size, 2.0)  # identical weights everywhere
    ols = ols_linear_fit(_samples(z, f))
    wls = wls_linear_fit(_samples(z, f, zdd=zdd), WeightConfig())
    assert wls.k_est == pytest.approx(ols.k_est, abs=1e-12)
    assert wls.intercept == pytest.approx(ols.intercept, abs=1e-12)


def test_wls_downweights_corrupted_population():
    # clean low-|zdd| samples on F = 800 z; high-|zdd| samples corrupted by
    # the added-mass force m_a(z)*zdd: WLS recovers the slope, OLS does not
    terrain = TerrainParams()
    rng = np.random.default_rng(2)
    z_good = rng.uniform(0.02, 0.06, 150)
    z_bad = rng.uniform(0.002, 0.02, 150)
    zdd_bad = np.full(z_bad.size, -120.0)
    f_good = 800.0 * z_good
    f_bad = 800.0 * z_bad + np.array([added_mass_profile(z, terrain)[0] for z in z_bad]) * zdd_bad
    samples = _samples(
        np.concatenate([z_good, z_bad]),
        np.concatenate([f_good, f_bad]),
        zdd=np.concatenate([np.zeros(z_good.size), zdd_bad]),
    )
    cfg = WeightConfig()  # sigma_bad / sigma_good = 20
    wls = wls_linear_fit(samples, cfg)
    ols = ols_linear_fit(samples)
    assert abs(wls.k_est - 800.0) / 800.0 < 0.02
    assert abs(ols.k_est - 800.0) / 800.0 > 0.10


def test_wls_matches_grid_search():
    rng = np.random.default_rng(4)
    z = rng.uniform(0.005, 0.06, 120)
    zdd = rng.uniform(0.0, 40.0, 120)
    f = 800.0 * z + 0.8 + rng.normal(0.0, 1.0, 120)
    samples = _samples(z, f, zdd=zdd)
    cfg = WeightConfig()
    fit = wls_linear_fit(samples, cfg)
    w = np.array([acceleration_weight(a, cfg) for a in zdd])
    ks = np.arange(fit.k_est - 20.0, fit.k_est + 20.0, 0.25)
    cs = np.arange(fit.intercept - 2.0, fit.intercept + 2.0, 0.02)
    best = None
    for k in ks:
        resid = f[None, :] - k * z[None, :] - cs[:, None]
        sse = (w[None, :] * resid**2).sum(axis=1)
        i = int(np.argmin(sse))
        if best is None or sse[i] < best[0]:
            best = (sse[i], k, cs[i])
    assert abs(best[1] - fit.k_est) <= 0.25 + 1e-9
    assert abs(best[2] - fit.intercept) <= 0.02 + 1e-9


def test_fits_scale_equivariant():
    rng = np.random.default_rng(6)
    z = rng.uniform(0.005, 0.06, 100)
    zdd = rng.uniform(0.0, 30.0, 100)
    f = 800.0 * z + 2.0 + rng.normal(0.0, 1.0, 100)
    for factor in (2.0, 10.0):
        o1 = ols_linear_fit(_samples(z, f))
        o2 = ols_linear_fit(_samples(z, factor * f))
        assert o2.k_est == pytest.approx(factor * o1.k_est, rel=1e-12)
        assert o2.intercept == pytest.approx(factor * o1.intercept, rel=1e-12)
        w1 = wls_linear_fit(_samples(z, f, zdd=zdd), WeightConfig())
        w2 = wls_linear_fit(_samples(z, factor * f, zdd=zdd), WeightConfig())
        assert w2.k_est == pytest.approx(factor * w1.k_est, rel=1e-12)
        assert w2.intercept == pytest.approx(factor * w1.intercept, rel=1e-12)


def test_wls_drag_subtraction_flag():
    terrain = TerrainParams()
    rng = np.random.default_rng(12)
    z = rng.uniform(0.005, 0.05, 200)
    zd = rng.uniform(0.2, 1.0, 200)
    grad = np.array([added_mass_profile(zi, terrain)[1] for zi in z])
    f = 800.0 * z + grad * zd**2
    samples = _samples(z, f, zd=zd)
    biased = wls_linear_fit(samples, WeightConfig())
    corrected = wls_linear_fit(
        samples, WeightConfig(), drag_model=lambda zz: terrain.m_a_inf / terrain.z_c * np.exp(-zz / terrain.z_c)
    )
    assert abs(corrected.k_est - 800.0) < abs(biased.k_est - 800.0)
    assert corrected.k_est == pytest.approx(800.0, rel=1e-9)


# ----------------------------------------------------- depth-speed model


def test_depth_speed_fit_exact_on_clean_sweep(terrain):
    speeds = np.linspace(0.022, 1.1, 50)
    logs = [run_constant_speed_intrusion(v, 0.05, terrain) for v in speeds]
    fit = fit_depth_speed_model(logs)
    assert abs(fit.k_fit - terrain.k_stiff) / terrain.k_stiff < 1e-6
    assert abs(fit.m_a_inf_fit - terrain.m_a_inf) / terrain.m_a_inf < 1e-6
    assert abs(fit.z_c_fit - terrain.z_c) / terrain.z_c < 1e-6


def test_depth_speed_fit_single_speed_rejected(terrain):
    logs = [run_constant_speed_intrusion(0.5, 0.05, terrain) for _ in range(3)]
    with pytest.raises(InsufficientDataError):
        fit_depth_speed_model(logs)


def test_near_zero_speed_sweep_slope_is_stiffness(terrain):
    # at negligible speed the force-depth slope is the depth stiffness
    log = run_constant_speed_intrusion(1e-4, 0.05, terrain, sample_rate_hz=10.0)
    keep = log.depth > 0
    slope = np.polyfit(log.depth[keep], log.force[keep], 1)[0]
    assert slope == pytest.approx(terrain.k_stiff, rel=1e-6)


# ------------------------------------------------- added-mass reconstruction


def test_reconstruction_matches_added_mass_term_noiseless(noiseless_trial, terrain):
    speeds = np.linspace(0.022, 1.1, 50)
    fit = fit_depth_speed_model([run_constant_speed_intrusion(v, 0.05, terrain) for v in speeds])
    truth = noiseless_trial.truth
    ev = noiseless_trial.events
    stance = (truth.t >= ev.t_td) & (truth.t <= ev.t_lo)
    z = -truth.x_f[stance]
    predicted, residual = added_mass_reconstruction(
        fit, z, -truth.v_f[stance], -truth.acc_f[stance], truth.f_total[stance]
    )
    assert np.abs(residual - predicted).max() < 0.1


def test_reconstruction_constant_speed_predicts_zero(terrain):
    speeds = np.linspace(0.022, 1.1, 50)
    fit = fit_depth_speed_model([run_constant_speed_intrusion(v, 0.05, terrain) for v in speeds])
    log = run_constant_speed_intrusion(0.5, 0.05, terrain)
    keep = log.depth > 0
    predicted, residual = added_mass_reconstruction(
        fit, log.depth[keep], np.full(keep.sum(), 0.5), np.zeros(keep.sum()), log.force[keep]
    )
    assert np.abs(predicted).max() == 0.0
    assert np.abs(residual).max() < 1e-6


def test_added_mass_integral_matches_profile(terrain):
    fit = DepthSpeedFit(
        k_fit=terrain.k_stiff, m_a_inf_fit=terrain.m_a_inf, z_c_fit=terrain.z_c, rmse=0.0, n_samples=1
    )
    zs = np.linspace(0.0, 0.06, 30)
    m_true = np.array([added_mass_profile(z, terrain)[0] for z in zs])
    assert np.allclose(fit.added_mass(zs), m_true, atol=1e-6)


# ------------------------------------------------------------- treatments


def test_sem_formula():
    values = np.array([1.0, 2.0, 4.0, 7.0, 11.0])
    assert sem(values) == pytest.approx(np.std(values, ddof=1) / math.sqrt(5), rel=1e-12)
    assert sem(np.array([3.0])) == 0.0


def test_treatment_comparison_identical_trials_zero_sem(noiseless_trial, noiseless_frames, linkage, terrain):
    est = run_estimation(noiseless_frames, linkage, noise=NoiseConfig.noiseless())
    trial = TrialSamples(
        v_td=0.8,
        k_c_n_per_cm=3.75,
        seed=0,
        samples_qs=extract_samples(est, noiseless_trial.events, "qs"),
        samples_mo=extract_samples(est, noiseless_trial.events, "mo"),
    )
    trials = [
        TrialSamples(trial.v_td, trial.k_c_n_per_cm, s, trial.samples_qs, trial.samples_mo)
        for s in range(5)
    ]
    report = treatment_comparison(trials, k_gt=terrain.k_stiff)
    assert all(c.n == 5 for c in report.conditions)
    assert all(c.sem_k == 0.0 for c in report.conditions)
    assert {c.treatment for c in report.conditions} == {"noMO_noGD", "MO_noGD", "MO_GD"}


def test_treatment_comparison_requires_trials():
    with pytest.raises(InsufficientDataError):
        treatment_comparison([], k_gt=800.0)


def test_fit_treatments_labels(noiseless_trial, noiseless_frames, linkage):
    est = run_estimation(noiseless_frames, linkage, noise=NoiseConfig.noiseless())
    trial = TrialSamples(
        v_td=0.8,
        k_c_n_per_cm=3.75,
        seed=0,
        samples_qs=extract_samples(est, noiseless_trial.events, "qs"),
        samples_mo=extract_samples(est, noiseless_trial.events, "mo"),
    )
    fits = fit_treatments(trial, WeightConfig())
    assert fits["MO_GD"].treatment == "MO_GD"
    assert fits["noMO_noGD"].n_samples == len(trial.samples_qs)
