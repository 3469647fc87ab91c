"""Onboard-style state and contact-force estimation.

A discrete-time Kalman filter fuses the ToF height, the encoder-derived
body-foot displacement and rate, and the two IMU accelerations into the
four-state estimate (x_b, v_b, x_f, v_f).  A momentum observer on the
reduced foot channel then reconstructs the terrain contact force as the
residual of an internal momentum estimate, compensating inertia, gravity
and centrifugal effects without ever differentiating the velocity
estimate.

The filter's gains do not depend on the measurements.  They come from a
covariance recursion written out in scalars over the filter's known
structure (`_extend_gains`).  It reads dt and the scalars of Q, R and P0
that the sensor model, the leg and `p0_scale` give (`_filter_constants`);
the gains are computed once per process for each set of them and extended
on demand (`_gain_sequence`), and the state update (`_kf_filter`) then
runs over them in one pass.
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


def _filter_constants(noise: NoiseConfig, linkage: LinkageParams, dt: float, p0_scale: float) -> tuple:
    """The scalars the gain recursion reads, as (q, r, p0): Q's 10 upper
    entries, row-major, from a white-acceleration discretization of the IMU
    noise; R's diagonal, the per-channel sensor variances; and the 10 upper
    entries of P0 = p0_scale * I.  The zero entries are 0.0, so that the
    recursion adds them; `tests/reference.py` builds the same matrices."""
    var_a = max(noise.imu_sigma, 1e-4) ** 2
    q00, q01, q11 = var_a * (dt**4 / 4.0), var_a * (dt**3 / 2.0), var_a * dt**2
    # Encoder noise maps through the Jacobian magnitude at mid-workspace.
    theta_mid = 0.5 * (linkage.theta_min + linkage.theta_max)
    jac_mid = abs(leg_jacobian(theta_mid, linkage))
    quant = noise.encoder_resolution / math.sqrt(12.0)
    sig_theta = math.sqrt(noise.encoder_sigma**2 + quant**2)
    sig_disp = max(jac_mid * sig_theta, 1e-6)
    sig_rate = max(math.sqrt(2.0) * sig_disp / (ENCODER_RATE_WINDOW * dt), 1e-5)
    return (
        (q00, q01, 0.0, 0.0, q11, 0.0, 0.0, q00, q01, q11),
        (max(noise.tof_sigma, 1e-5) ** 2, sig_disp**2, sig_rate**2),
        (p0_scale, 0.0, 0.0, 0.0, p0_scale, 0.0, 0.0, p0_scale, 0.0, p0_scale),
    )


def _pivot_root(d: float, index: int) -> float:
    """The square root of pivot `index` of the innovation covariance's
    Cholesky factorization; a pivot that is not finite and positive raises
    LinAlgError, as `np.linalg.solve` does for a singular matrix."""
    if not 0.0 < d < math.inf:
        raise np.linalg.LinAlgError(f"Singular matrix: innovation covariance pivot {index} is {d!r}")
    return math.sqrt(d)


def _extend_gains(gains: list, P: tuple, n: int, dt: float, q: tuple, r: tuple) -> tuple:
    """Append gains to `gains` until it holds n, going on from the posterior
    covariance P; returns the posterior after the last gain.  P in and out,
    and Q (`q`), are the 10 upper entries of the symmetric 4x4, row-major;
    `r` is R's diagonal.

    Each gain is one covariance predict/update, written out in scalars over
    the filter's structure: A is two [[1, dt], [0, 1]] blocks, the rows of
    H are e0, e0 - e2 and e1 - e3, and R is diagonal.  K solves K S = G,
    with G = P- H^T and S = H G + R, through the Cholesky factor of S.  The
    posterior is the Joseph form (I - KH) P- (I - KH)^T + K R K^T,
    evaluated as B - (B H^T - K R) K^T with B = P- - K G^T, and
    symmetrized, so it stays PSD.  Nothing here depends on the measurements.
    """
    q00, q01, q02, q03, q11, q12, q13, q22, q23, q33 = q
    r0, r1, r2 = r
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = P
    while len(gains) < n:
        # the prior P- = A P A^T + Q, entry ij as mij
        m00 = p00 + dt * (p01 + p01 + dt * p11) + q00
        m01, m11 = p01 + dt * p11 + q01, p11 + q11
        m02 = p02 + dt * (p12 + p03 + dt * p13) + q02
        m03, m12, m13 = p03 + dt * p13 + q03, p12 + dt * p13 + q12, p13 + q13
        m22 = p22 + dt * (p23 + p23 + dt * p33) + q22
        m23, m33 = p23 + dt * p33 + q23, p33 + q33
        # G = P- H^T, entry ij as gij
        g00, g01, g02 = m00, m00 - m02, m01 - m03
        g10, g11, g12 = m01, m01 - m12, m11 - m13
        g20, g21, g22 = m02, m02 - m22, m12 - m23
        g30, g31, g32 = m03, m03 - m23, m13 - m33
        # S = H G + R = L L^T, L's entry ij as lij
        l00 = _pivot_root(g00 + r0, 0)
        l10, l20 = g01 / l00, g02 / l00
        l11 = _pivot_root(g01 - g21 + r1 - l10 * l10, 1)
        l21 = (g02 - g22 - l20 * l10) / l11
        l22 = _pivot_root(g12 - g32 + r2 - l20 * l20 - l21 * l21, 2)
        # K = G S^-1, row by row: a forward solve with L, a back solve with L^T
        K = []
        for gi0, gi1, gi2 in ((g00, g01, g02), (g10, g11, g12), (g20, g21, g22), (g30, g31, g32)):
            y0 = gi0 / l00
            y1 = (gi1 - l10 * y0) / l11
            ki2 = (gi2 - l20 * y0 - l21 * y1) / l22 / l22
            ki1 = (y1 - l21 * ki2) / l11
            K += (y0 - l10 * ki1 - l20 * ki2) / l00, ki1, ki2
        k00, k01, k02, k10, k11, k12, k20, k21, k22, k30, k31, k32 = K
        gains.append(tuple(K))
        # B = P- - K G^T, entry ij as bij
        b00 = m00 - k00 * g00 - k01 * g01 - k02 * g02
        b01 = m01 - k00 * g10 - k01 * g11 - k02 * g12
        b02 = m02 - k00 * g20 - k01 * g21 - k02 * g22
        b03 = m03 - k00 * g30 - k01 * g31 - k02 * g32
        b10 = m01 - k10 * g00 - k11 * g01 - k12 * g02
        b11 = m11 - k10 * g10 - k11 * g11 - k12 * g12
        b12 = m12 - k10 * g20 - k11 * g21 - k12 * g22
        b13 = m13 - k10 * g30 - k11 * g31 - k12 * g32
        b20 = m02 - k20 * g00 - k21 * g01 - k22 * g02
        b21 = m12 - k20 * g10 - k21 * g11 - k22 * g12
        b22 = m22 - k20 * g20 - k21 * g21 - k22 * g22
        b23 = m23 - k20 * g30 - k21 * g31 - k22 * g32
        b30 = m03 - k30 * g00 - k31 * g01 - k32 * g02
        b31 = m13 - k30 * g10 - k31 * g11 - k32 * g12
        b32 = m23 - k30 * g20 - k31 * g21 - k32 * g22
        b33 = m33 - k30 * g30 - k31 * g31 - k32 * g32
        # C = B H^T - K R, entry ij as cij
        c00, c01, c02 = b00 - k00 * r0, b00 - b02 - k01 * r1, b01 - b03 - k02 * r2
        c10, c11, c12 = b10 - k10 * r0, b10 - b12 - k11 * r1, b11 - b13 - k12 * r2
        c20, c21, c22 = b20 - k20 * r0, b20 - b22 - k21 * r1, b21 - b23 - k22 * r2
        c30, c31, c32 = b30 - k30 * r0, b30 - b32 - k31 * r1, b31 - b33 - k32 * r2
        # P = B - C K^T, symmetrized
        p00 = b00 - c00 * k00 - c01 * k01 - c02 * k02
        p11 = b11 - c10 * k10 - c11 * k11 - c12 * k12
        p22 = b22 - c20 * k20 - c21 * k21 - c22 * k22
        p33 = b33 - c30 * k30 - c31 * k31 - c32 * k32
        p01 = 0.5 * (b01 + b10 - c00 * k10 - c01 * k11 - c02 * k12 - c10 * k00 - c11 * k01 - c12 * k02)
        p02 = 0.5 * (b02 + b20 - c00 * k20 - c01 * k21 - c02 * k22 - c20 * k00 - c21 * k01 - c22 * k02)
        p03 = 0.5 * (b03 + b30 - c00 * k30 - c01 * k31 - c02 * k32 - c30 * k00 - c31 * k01 - c32 * k02)
        p12 = 0.5 * (b12 + b21 - c10 * k20 - c11 * k21 - c12 * k22 - c20 * k10 - c21 * k11 - c22 * k12)
        p13 = 0.5 * (b13 + b31 - c10 * k30 - c11 * k31 - c12 * k32 - c30 * k10 - c31 * k11 - c32 * k12)
        p23 = 0.5 * (b23 + b32 - c20 * k30 - c21 * k31 - c22 * k32 - c30 * k20 - c31 * k21 - c32 * k22)
    return p00, p01, p02, p03, p11, p12, p13, p22, p23, p33


_GAIN_CACHE: dict[tuple, tuple[list, tuple]] = {}
_GAIN_CACHE_SIZE = 8


def _gain_sequence(n: int, dt: float, q: tuple, r: tuple, p0: tuple) -> list[tuple]:
    """The first n gains of the filter started at P0, as row-major 12-tuples.

    The covariance recursion (`_extend_gains`) does not see the data, so
    the gains depend only on dt and the scalars it reads (`_filter_constants`);
    they are computed once per process and extended on demand, from the
    cached last posterior, to the longest trial seen.
    """
    key = (dt, q, r, p0)
    # pop and re-insert keeps the dict in least-recently-used order
    gains, P = _GAIN_CACHE.pop(key, ([], p0))
    if len(gains) < n:
        P = _extend_gains(gains, P, n, dt, q, r)
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
    noise: NoiseConfig,
    settings: EstimationConfig,
) -> EstimationSeries:
    """Full onboard pipeline over one trial's frames.

    The encoder angle and rate are taken as the frames report them; the
    Kalman filter, with covariances from the sensor model `noise` and
    `settings.p0_scale`, runs at the frame rate over
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

    constants = _filter_constants(noise, lk, dt, settings.p0_scale)
    x0 = kalman_x0(frames, lk)
    n = len(frames)
    x_hat = np.empty((n, 4))
    x_hat[0] = x0
    x_hat[1:] = _kf_filter(
        x0.tolist(),
        frames.imu_body_acc[1:].tolist(),
        frames.imu_foot_acc[1:].tolist(),
        frames.tof_height[1:].tolist(),
        disp[1:].tolist(),
        rate[1:].tolist(),
        _gain_sequence(n - 1, dt, *constants),
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
