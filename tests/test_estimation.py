import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopperlab import estimation
from hopperlab.constants import GRAVITY
from hopperlab.errors import ConfigError, InsufficientDataError
from hopperlab.estimation import (
    EstimationConfig,
    EstimationSeries,
    quasi_static_series,
    run_estimation,
    run_momentum_observer,
)
from hopperlab.simulator import Frames, NoiseConfig, SimConfig, run_hop_trial

from reference import (
    KalmanConfig,
    KalmanState,
    ObserverState,
    gain_step,
    kf_step,
    mo_step,
    psi,
    quasi_static_force,
    reduced_dynamics_coeffs,
    weight_holding_torque,
)


def _default_kconfig(linkage, x0):
    return KalmanConfig.from_noise(
        NoiseConfig(), linkage, dt=1e-3, x0=np.asarray(x0, dtype=float), p0_scale=EstimationConfig().p0_scale
    )


# ---------------------------------------------------------------- Kalman


def test_kf_tracks_constant_velocity_exactly(linkage):
    cfg = _default_kconfig(linkage, [0.55, 0.0, 0.10, 0.0])
    state = KalmanState(x_hat=cfg.x0.copy(), P=cfg.P0.copy(), t=0.0)
    xb0, vb, xf0, vf = 0.60, 0.30, 0.15, 0.30
    for k in range(1, 4001):
        t = k * 1e-3
        xb, xf = xb0 + vb * t, xf0 + vf * t
        state = kf_step(state, (0.0, 0.0), (xb, xb - xf, vb - vf), 1e-3, cfg)
    err = np.abs(state.x_hat - np.array([xb, vb, xf, vf]))
    assert err.max() < 1e-9


def test_kf_tracks_free_fall_parabola_exactly(linkage):
    # B encodes constant-acceleration kinematics, so with exact inputs and
    # exact initial state the prediction is exact at every step.
    cfg = _default_kconfig(linkage, [1.0, 0.0, 0.55, 0.0])
    state = KalmanState(x_hat=cfg.x0.copy(), P=cfg.P0.copy(), t=0.0)
    for k in range(1, 1001):
        t = k * 1e-3
        xb = 1.0 - 0.5 * GRAVITY * t * t
        xf = 0.55 - 0.5 * GRAVITY * t * t
        vb = vf = -GRAVITY * t
        state = kf_step(state, (-GRAVITY, -GRAVITY), (xb, xb - xf, vb - vf), 1e-3, cfg)
    t = 1.0
    expected = np.array([1.0 - 0.5 * GRAVITY * t * t, -GRAVITY * t, 0.55 - 0.5 * GRAVITY * t * t, -GRAVITY * t])
    assert np.abs(state.x_hat - expected).max() < 1e-9


def test_kf_covariance_stays_psd_100k_random_steps(linkage):
    cfg = _default_kconfig(linkage, np.zeros(4))
    state = KalmanState(x_hat=np.zeros(4), P=cfg.P0.copy(), t=0.0)
    rng = np.random.default_rng(11)
    min_eig = np.inf
    for k in range(100_000):
        state = kf_step(state, rng.normal(size=2), rng.normal(size=3), 1e-3, cfg)
        if k % 200 == 0:
            assert np.allclose(state.P, state.P.T, atol=1e-14)
            min_eig = min(min_eig, np.linalg.eigvalsh(state.P).min())
    assert min_eig >= -1e-10


def test_kf_noisy_hop_accuracy(linkage, terrain, controller, k_compress):
    # pooled over the default seeds: body-height RMSE well under the raw
    # ToF sigma, velocity far better than differencing the ToF
    sq_err_pos, sq_err_vel, sq_err_fd = [], [], []
    noise = NoiseConfig()
    for seed in range(3):
        log = run_hop_trial(SimConfig(), controller, terrain, linkage, 0.8, k_compress, seed=seed, noise_config=NoiseConfig())
        frames = log.frames
        est = run_estimation(frames, linkage, noise, EstimationConfig())
        truth = vars(log.truth)
        skip = 100
        sq_err_pos.append((est.x_b_hat[skip:] - truth["x_b"][skip:]) ** 2)
        sq_err_vel.append((est.v_b_hat[skip:] - truth["v_b"][skip:]) ** 2)
        fd = np.diff(frames.tof_height) / np.diff(frames.t)
        sq_err_fd.append((fd[skip:] - truth["v_b"][skip + 1:]) ** 2)
    rmse_pos = math.sqrt(np.concatenate(sq_err_pos).mean())
    rmse_vel = math.sqrt(np.concatenate(sq_err_vel).mean())
    rmse_fd = math.sqrt(np.concatenate(sq_err_fd).mean())
    assert rmse_pos <= 0.2 * noise.tof_sigma
    assert rmse_vel <= rmse_fd


def _scalar_gains(noise, linkage, p0_scale, n):
    """n gains of the program's scalar recursion at 1 kHz, from the scalars
    it reads (`_filter_constants`), and the final posterior as a full 4x4."""
    q, r, p0 = estimation._filter_constants(noise, linkage, 1e-3, p0_scale)
    gains = []
    upper = estimation._extend_gains(gains, p0, n, 1e-3, q, r)
    P = np.zeros((4, 4))
    P[np.triu_indices(4)] = upper
    return np.array(gains), P + np.triu(P, 1).T


@settings(max_examples=200, deadline=None)
@given(
    sigmas=st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4),
    dt=st.floats(1e-5, 0.1),
    p0_scale=st.floats(1e-8, 1e3),
)
def test_filter_constants_are_the_entries_of_the_matrix_oracle(linkage, sigmas, dt, p0_scale):
    # the recursion reads Q's and P0's upper triangles and R's diagonal:
    # the program's scalars are those entries of the oracle's matrices, bit
    # for bit, its zeros included
    imu, resolution, encoder, tof = sigmas
    noise = NoiseConfig(encoder_resolution=resolution, encoder_sigma=encoder, imu_sigma=imu, tof_sigma=tof)
    oracle = KalmanConfig.from_noise(noise, linkage, dt=dt, x0=np.zeros(4), p0_scale=p0_scale)
    upper = np.triu_indices(4)
    expected = (oracle.Q[upper], oracle.R.diagonal(), oracle.P0[upper])
    for got, want in zip(estimation._filter_constants(noise, linkage, dt, p0_scale), expected):
        assert np.array(got).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "noise, p0_scale, tol",
    [
        (NoiseConfig(), 1e-4, 2e-11),
        (NoiseConfig(), 1e-2, 2e-11),
        (NoiseConfig(), 1.0, 2e-11),
        # the noise floors leave S ill-conditioned: against an evaluation in
        # extended precision, both forms are off by up to ~1e-9 here
        (NoiseConfig.noiseless(), 1e-2, 1e-8),
    ],
    ids=["default-p0=1e-4", "default-p0=1e-2", "default-p0=1", "noiseless-p0=1e-2"],
)
def test_scalar_gain_recursion_matches_the_matrix_oracle(linkage, noise, p0_scale, tol):
    # over 5,000 steps each gain lies within tol of its column's largest
    # oracle gain
    config = KalmanConfig.from_noise(noise, linkage, dt=1e-3, x0=np.zeros(4), p0_scale=p0_scale)
    got, _ = _scalar_gains(noise, linkage, p0_scale, 5000)
    P, ref = config.P0, []
    for _ in range(5000):
        K, P = gain_step(P, 1e-3, config)
        ref.append(K.ravel())
    ref = np.array(ref)
    assert (np.abs(got - ref) <= tol * np.abs(ref).max(axis=0)).all()


@pytest.mark.parametrize("noise", [NoiseConfig(), NoiseConfig.noiseless()], ids=["default", "noiseless"])
def test_scalar_gain_recursion_stays_finite_and_psd(linkage, noise):
    gains, P = _scalar_gains(noise, linkage, EstimationConfig().p0_scale, 20_000)
    assert np.isfinite(gains).all()
    assert np.linalg.eigvalsh(P).min() >= 0.0


# ------------------------------------------------------- momentum observer


def test_psi_gravity_only(linkage):
    theta = 0.8
    co = reduced_dynamics_coeffs(theta, linkage)
    assert psi(theta, 0.0, 0.0, 0.0, linkage) == pytest.approx(-co.M_f * GRAVITY, rel=1e-12)


def test_psi_linear_in_torque(linkage):
    theta, theta_dot, v_f = 0.9, 2.0, -0.4
    co = reduced_dynamics_coeffs(theta, linkage)
    p0 = psi(theta, theta_dot, v_f, 0.0, linkage)
    p1 = psi(theta, theta_dot, v_f, 1.0, linkage)
    p2 = psi(theta, theta_dot, v_f, 2.0, linkage)
    assert p1 - p0 == pytest.approx(-co.beta, rel=1e-12)
    assert p2 - p1 == pytest.approx(p1 - p0, rel=1e-12)


def test_psi_recovers_contact_force_on_trajectory(noiseless_trial, linkage):
    # d(M_f v_f)/dt - psi equals the logged contact force
    truth = noiseless_trial.truth
    dt = truth.t[1] - truth.t[0]
    m_f = np.array([reduced_dynamics_coeffs(th, linkage).M_f for th in truth.theta])
    p_f = m_f * truth.v_f
    p_dot = np.gradient(p_f, dt)
    ids = truth.phase_id
    switch = np.flatnonzero(np.diff(ids) != 0)
    exclude = set()
    for s in switch:
        exclude.update(range(s - 2, s + 3))
    worst = 0.0
    z = -truth.x_f
    for i in range(2, len(truth.t) - 2, 13):
        if i in exclude or z[i] <= 1e-4 or abs(truth.v_f[i]) < 1e-3:
            continue
        value = p_dot[i] - psi(truth.theta[i], truth.theta_dot[i], truth.v_f[i], truth.tau[i], linkage)
        worst = max(worst, abs(value - truth.f_total[i]))
    assert worst < 1e-2


def test_mo_step_response_exact_at_dtk_02(linkage):
    # discrete step response equals 1 - exp(-k_obs t) sampled
    k_obs, dt, f0 = 200.0, 1e-3, 10.0
    theta = 0.8
    co = reduced_dynamics_coeffs(theta, linkage)
    obs = ObserverState(p_hat=0.0, r=0.0, k_obs=k_obs)
    v = 0.0
    worst = 0.0
    for k in range(1, 80):
        v += dt * (f0 / co.M_f - GRAVITY)
        obs = mo_step(obs, theta, 0.0, v, 0.0, dt, linkage)
        exact = f0 * (1.0 - math.exp(-k_obs * k * dt))
        worst = max(worst, abs(obs.r - exact) / f0)
    assert worst < 0.01


def test_mo_zero_input_decay(linkage):
    # ballistic flight (zero contact force): the residual decays below 0.1 N
    k_obs, dt = 800.0, 1e-3
    theta = 0.8
    obs = ObserverState(p_hat=0.05, r=40.0, k_obs=k_obs)
    v = 0.0
    for _ in range(200):
        v -= dt * GRAVITY
        obs = mo_step(obs, theta, 0.0, v, 0.0, dt, linkage)
    assert abs(obs.r) < 0.1


def test_mo_unstable_discretization_rejected(linkage):
    obs = ObserverState(p_hat=0.0, r=0.0, k_obs=1200.0)
    with pytest.raises(ConfigError):
        mo_step(obs, 0.8, 0.0, 0.0, 0.0, 1e-3, linkage)
    t = np.arange(3) * 1e-3
    with pytest.raises(ValueError):
        run_momentum_observer(t, np.full(3, 0.8), np.zeros(3), np.zeros(3), np.zeros(3), linkage, k_obs=-5.0)


def test_mo_truth_kinematics_stance_rmse(noiseless_trial, linkage):
    truth = vars(noiseless_trial.truth)
    r = run_momentum_observer(
        truth["t"], truth["theta"], truth["theta_dot"], truth["v_f"], truth["tau"], linkage, k_obs=800.0
    )
    ev = noiseless_trial.events
    stance = (truth["t"] >= ev.t_td) & (truth["t"] <= ev.t_lo)
    rmse = math.sqrt(np.mean((r[stance] - truth["f_total"][stance]) ** 2))
    assert rmse <= 0.02 * truth["f_total"].max()


def test_mo_with_kf_inputs_degrades_gracefully(noisy_trial, noisy_frames, linkage):
    # estimated inputs cost at most 2x the truth-input RMSE
    truth = vars(noisy_trial.truth)
    ev = noisy_trial.events
    stance = (truth["t"] >= ev.t_td) & (truth["t"] <= ev.t_lo)
    r_truth = run_momentum_observer(
        truth["t"], truth["theta"], truth["theta_dot"], truth["v_f"], truth["tau"], linkage, k_obs=800.0
    )
    rmse_truth = math.sqrt(np.mean((r_truth[stance] - truth["f_total"][stance]) ** 2))
    est = run_estimation(noisy_frames, linkage, NoiseConfig(), EstimationConfig())
    rmse_kf = math.sqrt(np.mean((est.f_mo[: len(truth["t"])][stance] - truth["f_total"][stance]) ** 2))
    assert rmse_kf <= 2.0 * rmse_truth


# ------------------------------------------------------------ QS baseline


def test_qs_series_zero_current(noiseless_frames, linkage):
    frames = Frames(
        t=noiseless_frames.t,
        encoder_theta=noiseless_frames.encoder_theta,
        encoder_theta_dot=noiseless_frames.encoder_theta_dot,
        imu_body_acc=noiseless_frames.imu_body_acc,
        imu_foot_acc=noiseless_frames.imu_foot_acc,
        tof_height=noiseless_frames.tof_height,
        motor_current=np.zeros_like(noiseless_frames.motor_current),
        loadcell_force=noiseless_frames.loadcell_force,
    )
    f_qs = quasi_static_series(frames, linkage)
    assert np.all(f_qs[np.isfinite(f_qs)] == 0.0)


def test_qs_matches_loadcell_in_statics(linkage):
    # a held, loaded pose: the QS estimate differs from the measured
    # contact force by exactly the foot weight (which the torque channel
    # cannot see), far from its dynamic-regime errors
    theta = 0.8
    tau = weight_holding_torque(theta, linkage)
    n = 50
    frames = Frames(
        t=np.arange(n) * 1e-3,
        encoder_theta=np.full(n, theta),
        encoder_theta_dot=np.zeros(n),
        imu_body_acc=np.zeros(n),
        imu_foot_acc=np.zeros(n),
        tof_height=np.full(n, 0.5),
        motor_current=np.full(n, tau / linkage.torque_constant),
        loadcell_force=np.full(n, (linkage.m_body + linkage.m_foot) * GRAVITY),
    )
    f_qs = quasi_static_series(frames, linkage)
    foot_weight = linkage.m_foot * GRAVITY
    assert np.allclose(f_qs, linkage.m_body * GRAVITY, rtol=1e-9)
    assert np.abs(f_qs - frames.loadcell_force).max() == pytest.approx(foot_weight, rel=1e-9)


def test_qs_worse_than_mo_at_touchdown(linkage, terrain, controller, k_compress):
    # the ordering the whole pipeline exists to demonstrate
    log = run_hop_trial(
        SimConfig(), controller, terrain, linkage, 1.2, k_compress, seed=0, noise_config=NoiseConfig.noiseless()
    )
    truth = vars(log.truth)
    ev = log.events
    frames = log.frames
    n = len(frames.t)
    stance = (truth["t"][:n] >= ev.t_td) & (truth["t"][:n] <= ev.t_lo)
    f_qs = quasi_static_series(frames, linkage)
    r = run_momentum_observer(
        truth["t"][:n], truth["theta"][:n], truth["theta_dot"][:n], truth["v_f"][:n], truth["tau"][:n], linkage, 800.0
    )
    f_true = truth["f_total"][:n]
    rmse_qs = math.sqrt(np.mean((f_qs[stance] - f_true[stance]) ** 2))
    rmse_mo = math.sqrt(np.mean((r[stance] - f_true[stance]) ** 2))
    assert rmse_mo < rmse_qs
    # touchdown window specifically
    td_win = (truth["t"][:n] >= ev.t_td) & (truth["t"][:n] <= ev.t_td + 0.05)
    err_qs = np.abs(f_qs[td_win] - f_true[td_win]).mean()
    err_mo = np.abs(r[td_win] - f_true[td_win]).mean()
    assert err_mo < err_qs


def test_mo_beats_qs_on_every_noiseless_sweep_speed(linkage, terrain, controller, k_compress):
    for speed in (0.2, 0.5, 0.8, 1.0, 1.2):
        log = run_hop_trial(
            SimConfig(), controller, terrain, linkage, speed, k_compress, seed=0, noise_config=NoiseConfig.noiseless()
        )
        truth = vars(log.truth)
        frames = log.frames
        n = len(frames.t)
        ev = log.events
        stance = (truth["t"][:n] >= ev.t_td) & (truth["t"][:n] <= ev.t_lo)
        f_qs = quasi_static_series(frames, linkage)
        r = run_momentum_observer(
            truth["t"][:n], truth["theta"][:n], truth["theta_dot"][:n], truth["v_f"][:n], truth["tau"][:n], linkage, 800.0
        )
        f_true = truth["f_total"][:n]
        rmse_qs = math.sqrt(np.mean((f_qs[stance] - f_true[stance]) ** 2))
        rmse_mo = math.sqrt(np.mean((r[stance] - f_true[stance]) ** 2))
        assert rmse_mo < rmse_qs


def test_pipeline_noiseless_tracks_truth(noiseless_frames, noiseless_trial, linkage):
    est = run_estimation(noiseless_frames, linkage, NoiseConfig.noiseless(), EstimationConfig())
    truth = vars(noiseless_trial.truth)
    assert np.abs(est.x_b_hat - truth["x_b"]).max() < 2e-3
    assert np.abs(est.v_f_hat[50:] - truth["v_f"][50:]).max() < 0.05


def test_pipeline_takes_encoder_rate_from_frames(noisy_frames, linkage):
    # the reported rate drives the KF rate channel and the observer; the
    # estimator does not re-derive it from the encoder angle
    still = Frames(**{**vars(noisy_frames), "encoder_theta_dot": np.zeros(len(noisy_frames))})
    est = run_estimation(noisy_frames, linkage, NoiseConfig(), EstimationConfig())
    est_still = run_estimation(still, linkage, NoiseConfig(), EstimationConfig())
    assert not np.allclose(est.v_b_hat, est_still.v_b_hat)
    assert not np.allclose(est.f_mo, est_still.f_mo)


def test_pipeline_requires_two_frames(noiseless_frames, linkage):
    short = Frames(**{k: getattr(noiseless_frames, k)[:1] for k in (
        "t", "encoder_theta", "encoder_theta_dot", "imu_body_acc", "imu_foot_acc",
        "tof_height", "motor_current", "loadcell_force")})
    with pytest.raises(InsufficientDataError, match="need at least two frames, got 1"):
        run_estimation(short, linkage, NoiseConfig(), EstimationConfig())


# ------------------------------------------- cached gains, array observer


def _reference_estimation(frames, linkage, kconf, k_obs):
    """The pipeline one sample at a time through the oracles kf_step and mo_step."""
    from hopperlab.linkage import leg_jacobian, leg_length

    n = len(frames)
    dt = float(frames.t[1] - frames.t[0])
    theta = [
        float(np.clip(th, linkage.theta_min, linkage.theta_max)) for th in frames.encoder_theta
    ]
    theta_dot = [0.0] + [
        (theta[k] - theta[k - min(5, k)]) / (min(5, k) * dt) for k in range(1, n)
    ]
    state = KalmanState(x_hat=kconf.x0.copy(), P=kconf.P0.copy(), t=float(frames.t[0]))
    x_hat = [state.x_hat]
    for k in range(1, n):
        z = (
            frames.tof_height[k],
            leg_length(theta[k], linkage) + linkage.mount_offset,
            leg_jacobian(theta[k], linkage) * theta_dot[k],
        )
        state = kf_step(state, (frames.imu_body_acc[k], frames.imu_foot_acc[k]), z, dt, kconf)
        x_hat.append(state.x_hat)
    x_hat = np.array(x_hat)
    tau = linkage.torque_constant * frames.motor_current
    obs = ObserverState(
        p_hat=reduced_dynamics_coeffs(theta[0], linkage).M_f * x_hat[0, 3], r=0.0, k_obs=k_obs
    )
    f_mo = [0.0]
    for k in range(1, n):
        h = float(frames.t[k] - frames.t[k - 1])
        obs = mo_step(obs, theta[k], theta_dot[k], x_hat[k, 3], tau[k], h, linkage)
        f_mo.append(obs.r)
    f_qs = [quasi_static_force(tq, th, linkage) for tq, th in zip(tau, theta)]
    return x_hat, np.array(f_mo), np.array(f_qs)


def test_run_estimation_matches_per_sample_reference(noisy_frames, linkage):
    from hopperlab.estimation import kalman_x0

    settings = EstimationConfig()
    dt = float(noisy_frames.t[1] - noisy_frames.t[0])
    kconf = KalmanConfig.from_noise(
        NoiseConfig(), linkage, dt=dt, x0=kalman_x0(noisy_frames, linkage), p0_scale=settings.p0_scale
    )
    est = run_estimation(noisy_frames, linkage, NoiseConfig(), settings)
    x_ref, f_mo_ref, f_qs_ref = _reference_estimation(noisy_frames, linkage, kconf, settings.k_obs)
    got = np.column_stack([est.x_b_hat, est.v_b_hat, est.x_f_hat, est.v_f_hat])
    for col in range(4):
        scale = np.abs(x_ref[:, col]).max()
        assert np.abs(got[:, col] - x_ref[:, col]).max() <= 1e-12 * scale
    assert np.abs(est.f_mo - f_mo_ref).max() <= 1e-12 * np.abs(f_mo_ref).max()
    assert np.abs(est.f_qs - f_qs_ref).max() <= 1e-12 * np.abs(f_qs_ref).max()
    assert np.isfinite(est.f_qs).all()


def _estimation_arrays(est):
    return np.column_stack([est.x_b_hat, est.v_b_hat, est.x_f_hat, est.v_f_hat, est.f_qs, est.f_mo])


def test_gain_cache_cold_and_warm_runs_are_bit_identical(noisy_frames, noiseless_frames, linkage):
    n_short = len(noisy_frames) // 3
    short = Frames(**{k: v[:n_short] for k, v in vars(noisy_frames).items()})
    estimation._GAIN_CACHE.clear()
    cold = _estimation_arrays(run_estimation(noisy_frames, linkage, NoiseConfig(), EstimationConfig()))
    warm = _estimation_arrays(run_estimation(noisy_frames, linkage, NoiseConfig(), EstimationConfig()))
    assert cold.tobytes() == warm.tobytes()
    # a cache first filled by a shorter trial is extended, not restarted
    estimation._GAIN_CACHE.clear()
    run_estimation(short, linkage, NoiseConfig(), EstimationConfig())
    extended = _estimation_arrays(run_estimation(noisy_frames, linkage, NoiseConfig(), EstimationConfig()))
    assert cold.tobytes() == extended.tobytes()
    # a different noise model keys a different gain sequence
    ideal = run_estimation(noiseless_frames, linkage, NoiseConfig.noiseless(), EstimationConfig())
    assert len(estimation._GAIN_CACHE) == 2
    assert np.isfinite(ideal.x_b_hat).all()


def test_unstable_observer_gain_rejected_by_pipeline(noisy_frames, noiseless_trial, linkage):
    with pytest.raises(ConfigError):
        run_estimation(noisy_frames, linkage, NoiseConfig(), EstimationConfig(k_obs=1000.0))
    truth = vars(noiseless_trial.truth)
    with pytest.raises(ConfigError):
        run_momentum_observer(
            truth["t"], truth["theta"], truth["theta_dot"], truth["v_f"], truth["tau"], linkage, k_obs=1500.0
        )


def test_observer_rejects_out_of_workspace_angle(noiseless_trial, linkage):
    from hopperlab.errors import WorkspaceError

    truth = vars(noiseless_trial.truth)
    theta = truth["theta"].copy()
    theta[10] = linkage.theta_max + 0.1
    with pytest.raises(WorkspaceError):
        run_momentum_observer(truth["t"], theta, truth["theta_dot"], truth["v_f"], truth["tau"], linkage, 800.0)
