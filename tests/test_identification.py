import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hopperlab import experiments, identification, io, signals
from hopperlab.config import ExperimentConfig
from hopperlab.errors import DegenerateFitError, InsufficientDataError
from hopperlab.estimation import EstimationConfig, run_estimation
from hopperlab.identification import (
    TREATMENTS,
    StanceSamples,
    TrialSamples,
    WeightConfig,
    acceleration_weight,
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
from hopperlab.terrain import TerrainParams, reaction_terms
from reference import (
    added_mass_profile,
    golden_search_log_zc,
    pooled_cost,
    pooled_depth_speed_fit,
    savgol_edge_slopes,
    savgol_slope_coefficients,
)


def _samples(z, f, zdd=None, zd=None):
    z = np.asarray(z, dtype=float)
    zdd = np.zeros_like(z) if zdd is None else np.asarray(zdd, dtype=float)
    zd = np.zeros_like(z) if zd is None else np.asarray(zd, dtype=float)
    t = 0.001 * np.arange(z.size)
    return StanceSamples(z=z, z_dot=zd, z_ddot=zdd, f=np.asarray(f, dtype=float), t=t)


# ----------------------------------------------------------------- extract


def test_extract_samples_stance_window(noiseless_trial, noiseless_frames, linkage):
    est = run_estimation(noiseless_frames, linkage, NoiseConfig.noiseless(), EstimationConfig())
    ev = noiseless_trial.events
    samples = extract_samples(est, ev, "mo")
    assert all(ev.t_td <= t <= ev.t_lo for t in samples.t.tolist())
    assert all(z > 0.0 for z in samples.z.tolist())
    # sample count ~ stance duration x 1 kHz
    expected = (ev.t_lo - ev.t_td) * 1000.0
    assert abs(len(samples) - expected) <= 3
    # noiseless load-cell readings over the same window lie on the reaction-law surface
    terrain = TerrainParams()
    rows = _per_index_samples(est, ev, noiseless_frames.loadcell_force)
    for z, z_dot, z_ddot, f, _ in rows[::25]:
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


@pytest.mark.parametrize("source", ["qs", "mo"])
@pytest.mark.parametrize("trial", ["noisy", "noiseless"])
def test_extract_samples_columns_match_per_index_reference(request, trial, source, linkage):
    log = request.getfixturevalue(f"{trial}_trial")
    est = run_estimation(log.frames, linkage, NoiseConfig(), EstimationConfig())
    force = {"qs": est.f_qs, "mo": est.f_mo}[source]
    samples = extract_samples(est, log.events, source)
    rows = _per_index_samples(est, log.events, force)
    assert len(samples) == len(rows) > 100
    for name, want in zip(("z", "z_dot", "z_ddot", "f", "t"), zip(*rows)):
        assert getattr(samples, name).tobytes() == np.array(want, dtype=float).tobytes(), name


def test_extract_samples_empty_window(noiseless_frames, noiseless_trial, linkage):
    import dataclasses

    est = run_estimation(noiseless_frames, linkage, NoiseConfig.noiseless(), EstimationConfig())
    flight_events = dataclasses.replace(noiseless_trial.events, t_td=0.0, t_ce=0.005, t_lo=0.01)
    with pytest.raises(InsufficientDataError):
        extract_samples(est, flight_events, "mo")


def test_extract_samples_bad_source(noiseless_frames, noiseless_trial, linkage):
    est = run_estimation(noiseless_frames, linkage, NoiseConfig.noiseless(), EstimationConfig())
    with pytest.raises(ValueError):
        extract_samples(est, noiseless_trial.events, "mocap")
    with pytest.raises(ValueError):
        extract_samples(est, noiseless_trial.events, "loadcell")  # not a proprioceptive source


# ---------------------------------------------------- Savitzky-Golay slope


@settings(max_examples=300, deadline=None)
@given(
    x=arrays(np.float64, st.integers(21, 200), elements=st.floats(-1e3, 1e3)),
    window=st.sampled_from(range(5, 22, 2)),
    polyorder=st.integers(1, 3),
    dt=st.floats(1e-4, 1.0),
)
# the exact edge slope is -4e-324: the program gives -5e-324, the oracle 0
@example(x=np.array([5e-324] + [0.0] * 20), window=5, polyorder=1, dt=0.25)
def test_slope_operator_matches_fresh_fits(x, window, polyorder, dt):
    got = smoothed_derivative(x, dt, window=window, polyorder=polyorder)
    half = window // 2
    interior = np.convolve(x, savgol_slope_coefficients(window, polyorder, dt), "same")[half:-half]
    assert got[half:-half].tobytes() == interior.tobytes()
    head, tail = savgol_edge_slopes(x, dt, window, polyorder)
    # a nearly flat window has a slope made of rounding error, whose scale
    # is that of a difference of samples, max|x|/dt
    scale = max(np.max(np.abs(head)), np.max(np.abs(tail)), np.max(np.abs(x)) / dt)
    # below the normal range every value rounds to whole subnormals, however
    # small: the oracle's coefficients, each a sum over the window, carry
    # such errors, and its slope scales them by offsets up to window**(p - 1)
    # and by 1 / dt.  Above it, 1e-12 * scale is the larger bound.
    floor = window**polyorder * np.finfo(float).smallest_subnormal / dt
    assert np.max(np.abs(got[:half] - head)) <= max(1e-12 * scale, floor)
    assert np.max(np.abs(got[-half:] - tail)) <= max(1e-12 * scale, floor)


def test_slope_operator_cache_is_bounded_and_keyed_by_dt():
    signals._slope_operator.cache_clear()
    k = np.arange(40.0)
    x = 3.0 * k * k  # a quadratic: the slope 6k/dt at every sample, edges too
    first = smoothed_derivative(x, 1e-3)
    assert smoothed_derivative(x, 2e-3) == pytest.approx(6.0 * k / 2e-3, abs=1e-9)
    assert first == pytest.approx(6.0 * k / 1e-3, abs=1e-9)
    assert signals._slope_operator.cache_info()[:2] == (0, 2)  # (hits, misses): one entry per dt
    assert smoothed_derivative(x, 1e-3).tobytes() == first.tobytes()
    assert signals._slope_operator.cache_info()[:2] == (1, 2)
    # 1e-3 was used last: the next keys push out 2e-3 first
    maxsize = signals._slope_operator.cache_info().maxsize
    assert maxsize == 8
    for i in range(maxsize - 1):
        smoothed_derivative(x, 1.0 + i)
    assert signals._slope_operator.cache_info().currsize == maxsize
    smoothed_derivative(x, 1e-3)
    assert signals._slope_operator.cache_info()[:2] == (2, 2 + maxsize - 1)
    smoothed_derivative(x, 2e-3)
    assert signals._slope_operator.cache_info()[:2] == (2, 2 + maxsize)
    assert signals._slope_operator.cache_info().currsize == maxsize


# --------------------------------------------------------------------- OLS


def test_ols_exact_line():
    z = np.linspace(0.005, 0.05, 40)
    fit = ols_linear_fit(_samples(z, 800.0 * z))
    assert fit.k_est == pytest.approx(800.0, rel=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-10)


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
    biased = wls_linear_fit(_samples(z, f, zd=zd), WeightConfig())
    # the caller subtracts the zd^2 drag g_a(z) zd^2 from the force before fitting
    drag = terrain.m_a_inf / terrain.z_c * np.exp(-z / terrain.z_c) * np.maximum(zd, 0.0) ** 2
    corrected = wls_linear_fit(_samples(z, f - drag, zd=zd), WeightConfig())
    assert abs(corrected.k_est - 800.0) < abs(biased.k_est - 800.0)
    assert corrected.k_est == pytest.approx(800.0, rel=1e-9)


# ----------------------------------------------------- depth-speed model


def test_depth_speed_fit_exact_on_clean_sweep(terrain):
    speeds = np.linspace(0.022, 1.1, 50)
    logs = [run_constant_speed_intrusion(v, 0.05, terrain, NoiseConfig.noiseless(), seeds=[0]) for v in speeds]
    fit = fit_depth_speed_model(logs)
    assert abs(fit.k_fit - terrain.k_stiff) / terrain.k_stiff < 1e-6
    assert abs(fit.m_a_inf_fit - terrain.m_a_inf) / terrain.m_a_inf < 1e-6
    assert abs(fit.z_c_fit - terrain.z_c) / terrain.z_c < 1e-6


def test_depth_speed_fit_single_speed_rejected(terrain):
    logs = [run_constant_speed_intrusion(0.5, 0.05, terrain, NoiseConfig.noiseless(), seeds=[0]) for _ in range(3)]
    with pytest.raises(InsufficientDataError):
        fit_depth_speed_model(logs)


def test_near_zero_speed_sweep_slope_is_stiffness(terrain):
    # at negligible speed the force-depth slope is the depth stiffness
    log = run_constant_speed_intrusion(1e-4, 0.05, terrain, NoiseConfig.noiseless(), seeds=[0])
    keep = log.depth > 0
    slope = np.polyfit(log.depth[keep], log.force[0, keep], 1)[0]
    assert slope == pytest.approx(terrain.k_stiff, rel=1e-6)


@pytest.fixture(scope="module")
def default_grid_logs(tmp_path_factory):
    """The default 50 x 3 intrusion grid: its records as the sweep holds them
    and as read back from `intrusion_grid.npy`."""
    path = tmp_path_factory.mktemp("grid") / "intrusion_grid.npy"
    return experiments.write_intrusion_grid(ExperimentConfig(), path)[0], io.read_intrusion_npy(path)


def _noisy_logs(speeds, seed=3, z_max=0.05):
    noise = NoiseConfig(loadcell_sigma=0.5)
    return [
        run_constant_speed_intrusion(v, z_max, TerrainParams(), noise_config=noise, seeds=[[seed, i]])
        for i, v in enumerate(speeds)
    ]


def _assert_matches_pooled_fit(logs, fit):
    # the search runs on other rounding than the pooled oracle's: the same
    # optimum to the golden-section tolerance on a flat cost
    ref = pooled_depth_speed_fit(logs)
    assert fit.n_samples == ref.n_samples
    assert fit.rmse == pytest.approx(ref.rmse, rel=1e-12, abs=0.0)
    got, want = (np.array([f.k_fit, f.m_a_inf_fit, f.z_c_fit]) for f in (fit, ref))
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=0.0)
    assert pooled_cost(logs, fit) <= pooled_cost(logs, ref) * (1.0 + 1e-12)


def test_depth_speed_fit_without_repeats_is_the_pooled_fit_bit_for_bit():
    logs = _noisy_logs(np.linspace(0.022, 1.1, 50))
    assert fit_depth_speed_model(logs) == pooled_depth_speed_fit(logs)


def test_depth_speed_fit_collapses_the_default_grid_repeats(default_grid_logs):
    in_memory, from_disk = default_grid_logs
    assert [log.force.shape[0] for log in in_memory] == [log.force.shape[0] for log in from_disk] == [3] * 50
    fit = fit_depth_speed_model(in_memory)
    assert fit_depth_speed_model(from_disk) == fit
    _assert_matches_pooled_fit(in_memory, fit)


def test_depth_speed_fit_takes_records_of_one_speed_as_separate_rows():
    # one-repeat records of a speed, interleaved with another speed's or to
    # another depth, each enter as their own rows: the pooled fit
    a0, b0, a1, b1 = _noisy_logs((0.3, 0.9, 0.3, 0.9))
    interleaved = [a0, b0, a1, b1]
    assert fit_depth_speed_model(interleaved) == pooled_depth_speed_fit(interleaved)
    shallow = _noisy_logs((0.3,), seed=4, z_max=0.04)[0]
    for logs in ([a0, shallow, b0], [a0, a1, shallow, a1, b0, b1]):
        _assert_matches_pooled_fit(logs, fit_depth_speed_model(logs))


_BRENT_SOLVES = 25   # on the default grid; the golden-section oracle takes 50


def _both_searches(logs) -> dict:
    """The fit of `logs` with the program's search over log z_c and the
    golden-section oracle run on the same `solve`: each search's least-cost
    (cost, k, m_a_inf, z_c) and its number of solves, and `solve` itself."""
    runs = {}

    def both(solve):
        runs["solve"] = solve
        for name, search in (("brent", brent), ("golden", golden_search_log_zc)):
            points = []
            best = search(lambda log_zc: points.append(log_zc) or solve(log_zc))
            runs[name] = (best, len(points))
        return runs["brent"][0]

    brent = identification._search_log_zc
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identification, "_search_log_zc", both)
        fit_depth_speed_model(logs)
    return runs


def _flat_width(solve, log_zc, cost, h=1e-4) -> float:
    """How far from `log_zc` the cost stays within 1e-12 of `cost`, relative,
    by the curvature of the cost there: the distance in log z_c that the
    cost bound cannot tell from the optimum."""
    curvature = (solve(log_zc + h)[0] + solve(log_zc - h)[0] - 2.0 * cost) / (h * h)
    return math.sqrt(2e-12 * cost / curvature) if curvature > 0.0 else 0.0


def _assert_brent_matches_golden(runs):
    """Brent's cost is the oracle's to 1e-12, relative, and its z_c the
    oracle's to 1e-8, or, where the cost is flatter than that, to the
    width over which the cost bound cannot tell them apart."""
    (brent, _), (golden, _) = runs["brent"], runs["golden"]
    assert brent[0] <= golden[0] * (1.0 + 1e-12)
    gap = abs(math.log(brent[3]) - math.log(golden[3]))
    if gap > 1e-8:
        assert gap <= _flat_width(runs["solve"], math.log(golden[3]), golden[0])


def test_brent_search_matches_golden_section_on_the_default_grid(default_grid_logs):
    runs = _both_searches(default_grid_logs[1])
    (brent, _), (golden, _) = runs["brent"], runs["golden"]
    assert brent[0] <= golden[0] * (1.0 + 1e-12)
    assert brent[3] == pytest.approx(golden[3], rel=1e-8, abs=0.0)
    assert runs["brent"][1] <= _BRENT_SOLVES < runs["golden"][1]


@settings(max_examples=40, deadline=None)
@given(
    k_stiff=st.floats(200.0, 1600.0),
    m_a_inf=st.floats(0.01, 0.5),
    z_c=st.floats(0.002, 0.05),
    sigma=st.floats(0.05, 3.0),
    seed=st.integers(0, 2**16),
    n_speeds=st.integers(2, 12),
)
def test_brent_search_matches_golden_section_on_drawn_corpora(k_stiff, m_a_inf, z_c, sigma, seed, n_speeds):
    # where the cost is flat in z_c (two speeds, a weak bed, heavy noise) both
    # searches end on the same cost to the last bit, up to 6e-7 apart in z_c
    terrain = TerrainParams(k_stiff=k_stiff, m_a_inf=m_a_inf, z_c=z_c)
    noise = NoiseConfig(loadcell_sigma=sigma)
    logs = [
        run_constant_speed_intrusion(v, 0.05, terrain, noise_config=noise, seeds=[[seed, i]])
        for i, v in enumerate(np.linspace(0.05, 1.1, n_speeds))
    ]
    _assert_brent_matches_golden(_both_searches(logs))

def test_brent_search_keeps_to_golden_sections_minimum_where_the_cost_has_two():
    # a weak bed under heavy noise: in the bracket [1e-5, 1e-4] of z_c the
    # cost has a minimum on the box's edge and a lower one near 3.7e-5;
    # started from the edge, the search once ended there, 0.14 above it
    terrain = TerrainParams(k_stiff=200.0, m_a_inf=0.015625, z_c=0.03125)
    noise = NoiseConfig(loadcell_sigma=3.0)
    logs = [
        run_constant_speed_intrusion(v, 0.05, terrain, noise_config=noise, seeds=[[71, i]])
        for i, v in enumerate(np.linspace(0.05, 1.1, 9))
    ]
    runs = _both_searches(logs)
    assert runs["golden"][0][3] > 2.0 * identification._FIT_LOWER[2]
    _assert_brent_matches_golden(runs)
    assert runs["brent"][0][3] > 2.0 * identification._FIT_LOWER[2]


# ------------------------------------------------- added-mass reconstruction


def _rig_bed(terrain):
    """The bed of the depth-speed fit to a noiseless 50-speed intrusion grid."""
    speeds = np.linspace(0.022, 1.1, 50)
    fit = fit_depth_speed_model([run_constant_speed_intrusion(v, 0.05, terrain, NoiseConfig.noiseless(), seeds=[0]) for v in speeds])
    return TerrainParams(fit.k_fit, fit.m_a_inf_fit, fit.z_c_fit)


def test_reconstruction_matches_added_mass_term_noiseless(noiseless_trial, terrain):
    # the force less the fitted law's depth and drag terms is its added-mass term
    truth = noiseless_trial.truth
    ev = noiseless_trial.events
    stance = (truth.t >= ev.t_td) & (truth.t <= ev.t_lo)
    z = -truth.x_f[stance]
    f_static, f_drag, predicted = reaction_terms(z, -truth.v_f[stance], -truth.acc_f[stance], _rig_bed(terrain))
    residual = truth.f_total[stance] - f_static - f_drag
    assert np.abs(residual - predicted).max() < 0.1


def test_reconstruction_constant_speed_predicts_zero(terrain):
    log = run_constant_speed_intrusion(0.5, 0.05, terrain, NoiseConfig.noiseless(), seeds=[0])
    keep = log.depth > 0
    f_static, f_drag, predicted = reaction_terms(
        log.depth[keep], np.full(keep.sum(), 0.5), np.zeros(keep.sum()), _rig_bed(terrain)
    )
    residual = log.force[0, keep] - f_static - f_drag
    assert np.abs(predicted).max() == 0.0
    assert np.abs(residual).max() < 1e-6


def test_added_mass_integral_matches_profile(terrain):
    # at unit penetration acceleration the added-mass term is m_a(z)
    zs = np.linspace(0.0, 0.06, 30)
    _, _, f_added = reaction_terms(zs, np.zeros_like(zs), np.ones_like(zs), terrain)
    m_true = np.array([added_mass_profile(z, terrain)[0] for z in zs])
    np.testing.assert_allclose(f_added, m_true, rtol=1e-14, atol=0.0)


# ------------------------------------------------------------- treatments


def test_sem_formula():
    values = np.array([1.0, 2.0, 4.0, 7.0, 11.0])
    assert sem(values) == pytest.approx(np.std(values, ddof=1) / math.sqrt(5), rel=1e-12)
    assert sem(np.array([3.0])) == 0.0


def test_treatment_comparison_identical_trials_zero_sem(noiseless_trial, noiseless_frames, linkage, terrain):
    est = run_estimation(noiseless_frames, linkage, NoiseConfig.noiseless(), EstimationConfig())
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
    report = treatment_comparison(trials, k_gt=terrain.k_stiff, weights=WeightConfig())
    assert all(c.n == 5 for c in report.conditions)
    assert all(c.sem_k == 0.0 for c in report.conditions)
    assert {c.treatment for c in report.conditions} == {"noMO_noGD", "MO_noGD", "MO_GD"}


def test_treatment_comparison_requires_trials():
    with pytest.raises(InsufficientDataError):
        treatment_comparison([], k_gt=800.0, weights=WeightConfig())


def test_fit_treatments_labels(noiseless_trial, noiseless_frames, linkage):
    est = run_estimation(noiseless_frames, linkage, NoiseConfig.noiseless(), EstimationConfig())
    trial = TrialSamples(
        v_td=0.8,
        k_c_n_per_cm=3.75,
        seed=0,
        samples_qs=extract_samples(est, noiseless_trial.events, "qs"),
        samples_mo=extract_samples(est, noiseless_trial.events, "mo"),
    )
    fits = fit_treatments(trial, WeightConfig())
    assert tuple(fits) == TREATMENTS
