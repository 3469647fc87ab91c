"""Onboard-style state and contact-force estimation.

A discrete-time Kalman filter fuses the ToF height, the encoder-derived
body-foot displacement and rate, and the two IMU accelerations into the
four-state estimate (x_b, v_b, x_f, v_f).  A momentum observer on the
reduced foot channel then reconstructs the terrain contact force as the
residual of an internal momentum estimate, compensating inertia, gravity
and centrifugal effects without ever differentiating the velocity
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import GRAVITY, JACOBIAN_EPSILON
from .errors import POSITIVE, ConfigError, InsufficientDataError, WorkspaceError, check_domains
from .linkage import LinkageParams, _foot_channel_coeffs, _geometry, leg_jacobian, leg_length
from .signals import ENCODER_RATE_WINDOW
from .simulator import Frames, NoiseConfig


@dataclass(frozen=True)
class EstimationConfig:
    """Observer gain and filter scaling knobs."""

    k_obs: float = field(default=800.0, metadata=POSITIVE)     # momentum-observer bandwidth [1/s]
    p0_scale: float = field(default=1e-2, metadata=POSITIVE)   # initial KF covariance diagonal

    __post_init__ = check_domains


_H = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
    ]
)


@dataclass
class KalmanConfig:
    """Process/measurement covariances for the four-state kinematic filter,
    as float arrays: Q and P0 4x4, R 3x3 and diagonal, x0 of 4 states."""

    Q: np.ndarray
    R: np.ndarray
    P0: np.ndarray
    x0: np.ndarray

    @classmethod
    def from_noise(
        cls,
        noise: NoiseConfig,
        linkage: LinkageParams,
        dt: float,
        x0: np.ndarray,
        p0_scale: float,
    ) -> "KalmanConfig":
        """White-acceleration discretization of the IMU noise for Q,
        per-channel sensor variances for R, and P0 = p0_scale * I."""
        sig_a = max(noise.imu_sigma, 1e-4)
        q_block = sig_a**2 * np.array(
            [[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]]
        )
        Q = np.zeros((4, 4))
        Q[:2, :2] = q_block
        Q[2:, 2:] = q_block
        # Encoder noise maps through the Jacobian magnitude at mid-workspace.
        theta_mid = 0.5 * (linkage.theta_min + linkage.theta_max)
        jac_mid = abs(leg_jacobian(theta_mid, linkage))
        quant = noise.encoder_resolution / math.sqrt(12.0)
        sig_theta = math.sqrt(noise.encoder_sigma**2 + quant**2)
        sig_disp = max(jac_mid * sig_theta, 1e-6)
        sig_rate = max(math.sqrt(2.0) * sig_disp / (ENCODER_RATE_WINDOW * dt), 1e-5)
        R = np.diag([max(noise.tof_sigma, 1e-5) ** 2, sig_disp**2, sig_rate**2])
        return cls(Q=Q, R=R, P0=np.eye(4) * p0_scale, x0=x0)


def _transition(dt: float) -> np.ndarray:
    """State transition of the two constant-acceleration (height, rate) pairs."""
    return np.array(
        [
            [1.0, dt, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, dt],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _gain_step(P: np.ndarray, A: np.ndarray, config: KalmanConfig) -> tuple[np.ndarray, np.ndarray]:
    """One covariance predict/update: returns (gain K, posterior P).

    The covariance is propagated in Joseph form and symmetrized, so it
    stays PSD.  Nothing here depends on the measurements.
    """
    P_pred = A @ P @ A.T + config.Q
    S = _H @ P_pred @ _H.T + config.R
    K = np.linalg.solve(S.T, (_H @ P_pred.T)).T  # P_pred H^T S^-1
    ikh = np.eye(4) - K @ _H
    P_new = ikh @ P_pred @ ikh.T + K @ config.R @ K.T
    return K, 0.5 * (P_new + P_new.T)


_GAIN_CACHE: dict[tuple, tuple[list, np.ndarray]] = {}
_GAIN_CACHE_SIZE = 8


def _gain_sequence(n: int, dt: float, config: KalmanConfig) -> list[tuple]:
    """The first n gains of the filter started at P0, as row-major 12-tuples.

    The covariance recursion does not see the data, so the gains depend
    only on (dt, Q, R, P0); they are computed once per process and
    extended on demand to the longest trial seen.
    """
    key = (dt, config.Q.tobytes(), config.R.tobytes(), config.P0.tobytes())
    # pop and re-insert keeps the dict in least-recently-used order
    gains, P = _GAIN_CACHE.pop(key, ([], config.P0))
    if len(gains) < n:
        A = _transition(dt)
        while len(gains) < n:
            K, P = _gain_step(P, A, config)
            gains.append(tuple(K.ravel().tolist()))
    if len(_GAIN_CACHE) >= _GAIN_CACHE_SIZE:
        del _GAIN_CACHE[next(iter(_GAIN_CACHE))]
    _GAIN_CACHE[key] = (gains, P)
    return gains


def _kf_filter(x, u_body, u_foot, z_tof, z_disp, z_rate, gains, dt: float) -> list[tuple]:
    """The state update of the one-sample oracle `kf_step` in
    `tests/reference.py`, written out in scalars over aligned inputs and
    precomputed gains.

    x is the prior state; returns the posterior state after each sample.
    """
    h2 = 0.5 * dt * dt
    x0, x1, x2, x3 = x
    out = []
    for ub, uf, z0, z1, z2, (k00, k01, k02, k10, k11, k12, k20, k21, k22, k30, k31, k32) in zip(
        u_body, u_foot, z_tof, z_disp, z_rate, gains
    ):
        p0 = x0 + dt * x1 + h2 * ub
        p1 = x1 + dt * ub
        p2 = x2 + dt * x3 + h2 * uf
        p3 = x3 + dt * uf
        e0 = z0 - p0
        e1 = z1 - (p0 - p2)
        e2 = z2 - (p1 - p3)
        x0 = p0 + k00 * e0 + k01 * e1 + k02 * e2
        x1 = p1 + k10 * e0 + k11 * e1 + k12 * e2
        x2 = p2 + k20 * e0 + k21 * e1 + k22 * e2
        x3 = p3 + k30 * e0 + k31 * e1 + k32 * e2
        out.append((x0, x1, x2, x3))
    return out


def run_momentum_observer(
    t: np.ndarray,
    theta: np.ndarray,
    theta_dot: np.ndarray,
    v_f: np.ndarray,
    tau: np.ndarray,
    linkage_params: LinkageParams,
    k_obs: float,
) -> np.ndarray:
    """Run the momentum observer over aligned signal arrays; returns the
    force residual [N].

    The foot momentum obeys d(M_f * v_f)/dt = F_c + psi, where the drift
    psi collects the inertia-gradient, gravity, torque and centrifugal
    terms.  The internal momentum estimate integrates psi plus the
    residual, and the residual is the momentum mismatch scaled by the
    discrete gain (1 - exp(-k_obs*dt))/dt, which makes the sampled step
    response match the continuous first-order filter 1 - exp(-k_obs*t)
    exactly.  The coefficients, the drift and the gain are evaluated as
    arrays up front; the oracle `mo_step` in `tests/reference.py` is the
    same recursion one sample at a time.
    """
    theta = np.asarray(theta, dtype=float)
    n = len(t)
    lk = linkage_params
    outside = ~((theta >= lk.theta_min) & (theta <= lk.theta_max))
    if np.any(outside):
        raise WorkspaceError(
            f"theta={theta[outside][0]:.6g} outside workspace [{lk.theta_min:.6g}, {lk.theta_max:.6g}]"
        )
    if not 0.0 < k_obs < math.inf:
        raise ValueError(f"k_obs = {k_obs!r} is outside (0, inf)")
    dt = np.diff(t)
    if np.any(dt <= 0.0):
        raise ValueError("dt must be positive")
    if np.any(dt * k_obs >= 1.0):
        raise ConfigError(
            f"unstable observer discretization: dt*k_obs = {np.max(dt) * k_obs:.3g} >= 1"
        )
    _, jac, curv = _geometry(theta, lk.l_upper, lk.l_lower**2, xp=np)
    m_f, d_mf, beta, c_coef = _foot_channel_coeffs(jac, curv, lk)
    drift = d_mf * theta_dot * v_f - m_f * GRAVITY - beta * tau - c_coef * theta_dot * theta_dot
    momentum = m_f * v_f
    gain = (1.0 - np.exp(-k_obs * dt)) / dt

    r_series = np.zeros(n)
    if n > 1:
        p_hat, r, residuals = float(momentum[0]), 0.0, []
        for h, d, g, m in zip(dt.tolist(), drift[1:].tolist(), gain.tolist(), momentum[1:].tolist()):
            p_hat = p_hat + h * (d + r)
            r = g * (m - p_hat)
            residuals.append(r)
        r_series[1:] = residuals
    return r_series


def quasi_static_series(frames: Frames, linkage_params: LinkageParams) -> np.ndarray:
    """Per-frame Jacobian-transpose force estimate [N] from motor current;
    NaN at frames whose encoder angle sits at the extension singularity."""
    lk = linkage_params
    theta = np.clip(frames.encoder_theta, lk.theta_min, lk.theta_max)
    tau = lk.torque_constant * frames.motor_current
    jac_abs = np.abs(_geometry(theta, lk.l_upper, lk.l_lower**2, xp=np)[1])
    singular = jac_abs < JACOBIAN_EPSILON
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(singular, np.nan, 2.0 * tau / jac_abs)


@dataclass
class EstimationSeries:
    """Time-aligned estimator outputs at the sensor rate."""

    t: np.ndarray
    x_b_hat: np.ndarray
    v_b_hat: np.ndarray
    x_f_hat: np.ndarray
    v_f_hat: np.ndarray
    f_qs: np.ndarray
    f_mo: np.ndarray

    def __len__(self) -> int:
        return self.t.size


def kalman_x0(frames: Frames, linkage_params: LinkageParams) -> np.ndarray:
    """KF x0: body at the first ToF height, foot below it by the encoder
    leg length, both at rest."""
    lk = linkage_params
    theta0 = float(np.clip(frames.encoder_theta[0], lk.theta_min, lk.theta_max))
    x_b0 = float(frames.tof_height[0])
    return np.array([x_b0, 0.0, x_b0 - (leg_length(theta0, lk) + lk.mount_offset), 0.0])


def run_estimation(
    frames: Frames,
    linkage_params: LinkageParams,
    noise: NoiseConfig | None = None,
    settings: EstimationConfig = EstimationConfig(),
) -> EstimationSeries:
    """Full onboard pipeline over one trial's frames.

    The encoder angle and rate are taken as the frames report them; the
    Kalman filter, with covariances from the sensor model `noise` (default
    `NoiseConfig()`) and `settings.p0_scale`, runs at the frame rate over
    the cached gain sequence (see `_gain_sequence`); the momentum observer
    (bandwidth `settings.k_obs`) consumes raw encoder kinematics plus the
    filtered foot velocity.
    """
    if len(frames) < 2:
        raise InsufficientDataError(f"need at least two frames, got {len(frames)}")
    dt = float(frames.t[1] - frames.t[0])
    lk = linkage_params
    theta = np.clip(frames.encoder_theta, lk.theta_min, lk.theta_max)
    theta_dot = frames.encoder_theta_dot

    length, jac, _ = _geometry(theta, lk.l_upper, lk.l_lower**2, xp=np)
    disp = length + lk.mount_offset
    rate = jac * theta_dot

    kalman_config = KalmanConfig.from_noise(
        noise if noise is not None else NoiseConfig(),
        lk,
        dt=dt,
        x0=kalman_x0(frames, lk),
        p0_scale=settings.p0_scale,
    )
    n = len(frames)
    x_hat = np.empty((n, 4))
    x_hat[0] = kalman_config.x0
    x_hat[1:] = _kf_filter(
        kalman_config.x0.tolist(),
        frames.imu_body_acc[1:].tolist(),
        frames.imu_foot_acc[1:].tolist(),
        frames.tof_height[1:].tolist(),
        disp[1:].tolist(),
        rate[1:].tolist(),
        _gain_sequence(n - 1, dt, kalman_config),
        dt,
    )

    tau = lk.torque_constant * frames.motor_current
    f_mo = run_momentum_observer(frames.t, theta, theta_dot, x_hat[:, 3], tau, lk, settings.k_obs)
    return EstimationSeries(
        t=frames.t.copy(),
        x_b_hat=x_hat[:, 0],
        v_b_hat=x_hat[:, 1],
        x_f_hat=x_hat[:, 2],
        v_f_hat=x_hat[:, 3],
        f_qs=quasi_static_series(frames, lk),
        f_mo=f_mo,
    )
