"""Oracles outside `src/` that the program's own code is pinned against:
the numeric-CSV writer and reader as they were with the `csv` module, the
leg-length inversion as a fixed 200-step bisection, and the pipeline's
laws as scalar functions of one sample: the reduced foot-channel
dynamics, the quasi-static torque map, the granular reaction law and its
branch, the virtual spring, the Savitzky-Golay slope's coefficients and
its edge fits by `np.polyfit`, one step of the Kalman filter and of the momentum
observer, the filter's covariances as matrices (`KalmanConfig`, the
oracle of the scalars the program's recursion reads), one step of the
filter's covariance and gain in 4x4 matrices (`gain_step`, the oracle of
the program's scalar recursion), the intrusion-model fit on the samples of
every force row of every record pooled (`pooled_depth_speed_fit`, the
oracle of the fit that enters the repeats of a grid row as their force
sum), and the search over log z_c by golden section
(`golden_search_log_zc`, the oracle of the program's Brent search).  One
has no copy in `src/`: the mechanical energy of the body-foot-rotor
system (`mechanical_energy`), which the plant conserves in free flight.

Each oracle carries its own copy of the arithmetic it checks, so a fault
in the program's copy (`linkage._foot_channel_coeffs`,
`estimation._filter_constants`, `estimation._extend_gains`,
`estimation._kf_filter`, the observer loop in
`estimation.run_momentum_observer`, the torque map in
`estimation.quasi_static_series`, the repeat collapse in
`identification.fit_depth_speed_model`, the branch test inline in
`simulator.run_hop_trial`, `signals._slope_operator`) fails a test.  They
share only the leg geometry (`_geometry`, `leg_length`, `leg_jacobian`),
which `test_linkage.py` and the plant-kernel geometry test pin on their
own, the encoder-rate window (`signals.ENCODER_RATE_WINDOW`), and the
fit's search over log z_c (`identification._search_log_zc`), which
`golden_search_log_zc` pins.  The program's observer and torque map read
the geometry and torque that `estimation.run_estimation` evaluates once
per trial at the clipped encoder angle; their oracles (`mo_step`,
`quasi_static_force`) evaluate both per sample and refuse an angle
outside the workspace.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hopperlab.constants import GRAVITY, JACOBIAN_EPSILON
from hopperlab.controller import PhaseName
from hopperlab.errors import (
    ConfigError,
    DegenerateFitError,
    HopperlabError,
    InsufficientDataError,
    MissingInputError,
    WorkspaceError,
)
from hopperlab.identification import _FIT_LOWER, _FIT_UPPER, _ZC_GRID, _ZC_TOL, DepthSpeedFit, _search_log_zc
from hopperlab.linkage import _geometry, leg_jacobian, leg_length
from hopperlab.signals import ENCODER_RATE_WINDOW


def write_rows(path, header, rows) -> None:
    """`header` and `rows` through `csv.writer` (excel dialect: "\\r\\n" line ends)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_columns_csv(path, header, columns) -> None:
    """Each column's float64 values as their shortest round-trip repr, rows through `csv.writer`."""
    cells = [list(map(repr, np.asarray(col, dtype=float).tolist())) for col in columns]
    write_rows(path, header, zip(*cells))


def read_csv(path, columns) -> np.ndarray:
    """The numeric body of a CSV parsed by `csv.reader` and `float()`, with
    the header and shape checks of the artifact readers."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or tuple(header) != tuple(columns):
                raise MissingInputError(f"unexpected header in {path}")
            data = np.array([[float(v) for v in row] for row in reader], dtype=float)
    except (OSError, ValueError, csv.Error) as exc:
        raise MissingInputError(f"malformed file {Path(path)}: {exc}") from exc
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] != len(columns):
        raise MissingInputError(f"malformed file {path}: expected at least one row of {len(columns)} numbers")
    return data


def solve_theta_for_length(length, params) -> float:
    """L(theta) = length inverted by 200 halvings of the workspace, with no
    convergence test; `length` must be reachable."""
    lo, hi = params.theta_min, params.theta_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if leg_length(mid, params) > length:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------ linkage


@dataclass(frozen=True)
class DynamicsCoeffs:
    """Coefficients of the single-channel foot dynamics at one joint angle.

    M_f: effective foot-channel mass [kg]
    dMf_dtheta: its angle derivative [kg/rad]
    beta: torque-to-force coefficient [1/m]
    C_coef: centrifugal coefficient [kg*m/rad^2]
    """

    M_f: float
    dMf_dtheta: float
    beta: float
    C_coef: float


def _check_theta(theta, params) -> None:
    if not (params.theta_min <= theta <= params.theta_max):
        raise WorkspaceError(
            f"theta={theta:.6g} outside workspace [{params.theta_min:.6g}, {params.theta_max:.6g}]"
        )


def leg_curvature(theta, params) -> float:
    """d2L/dtheta2 [m/rad^2]."""
    _check_theta(theta, params)
    return _geometry(theta, params.l_upper, params.l_lower**2)[2]


def reduced_dynamics_coeffs(theta, params) -> DynamicsCoeffs:
    """Foot-channel coefficients at one joint angle: the Schur complement
    of the 2x2 mass matrix in (x_f, theta) coordinates, so that
    M_f*xdd_f + M_f*g + beta*tau + C*thetadot^2 = F_c on any trajectory."""
    _check_theta(theta, params)
    _, jac, curv = _geometry(theta, params.l_upper, params.l_lower**2)
    mb = params.m_body
    m00 = mb + params.m_foot
    m01 = mb * jac
    m11 = mb * jac * jac + 2.0 * params.rotor_inertia
    d_m01 = mb * curv
    d_m11 = 2.0 * mb * jac * curv
    return DynamicsCoeffs(
        M_f=m00 - m01 * m01 / m11,
        dMf_dtheta=-(2.0 * m01 * d_m01 * m11 - m01 * m01 * d_m11) / (m11 * m11),
        beta=-2.0 * m01 / m11,
        C_coef=mb * curv * (1.0 - mb * jac * jac / m11),
    )


class SingularityError(HopperlabError):
    """Leg Jacobian too close to the full-extension singularity."""


def _checked_jacobian(theta, params) -> float:
    jac = leg_jacobian(theta, params)
    if abs(jac) < JACOBIAN_EPSILON:
        raise SingularityError(
            f"|dL/dtheta|={abs(jac):.3g} below {JACOBIAN_EPSILON:g} at theta={theta:.6g}"
        )
    return jac


def quasi_static_force(tau_per_motor, theta, params) -> float:
    """Jacobian-transpose map F = 2*tau/|dL/dtheta| from per-motor torque
    to vertical foot force; positive pushes the foot into the ground."""
    return 2.0 * tau_per_motor / abs(_checked_jacobian(theta, params))


def weight_holding_torque(theta, params) -> float:
    """Per-motor torque that statically supports the body weight at theta."""
    return 0.5 * params.m_body * GRAVITY * abs(leg_jacobian(theta, params))


# ------------------------------------------------------------ terrain


@dataclass(frozen=True)
class ForceDecomposition:
    """One evaluation of the reaction law, split by mechanism [N]."""

    f_static: float
    f_drag: float
    f_added: float
    f_total: float


def added_mass_profile(z, params) -> tuple[float, float]:
    """Entrained grain mass m_a(z) [kg] and its depth gradient [kg/m] for z >= 0."""
    decay = math.exp(-z / params.z_c)
    return params.m_a_inf * (1.0 - decay), params.m_a_inf / params.z_c * decay


def terrain_force(z, z_dot, z_ddot, params) -> ForceDecomposition:
    """The reaction law at penetration depth z >= 0, rate z_dot and
    acceleration z_ddot (positive downward): zero out of contact, only the
    depth term while withdrawing, and the total clamped at zero."""
    if z <= 0.0:
        return ForceDecomposition(0.0, 0.0, 0.0, 0.0)
    f_static = params.k_stiff * z
    if z_dot >= 0.0:
        m_a, dm_a = added_mass_profile(z, params)
        f_drag = dm_a * z_dot * z_dot
        f_added = m_a * z_ddot
    else:
        f_drag = 0.0
        f_added = 0.0
    return ForceDecomposition(f_static, f_drag, f_added, max(0.0, f_static + f_drag + f_added))


def contact_branch(x_f, v_f) -> int:
    """Which branch of the contact law acts at a state: 0 free (z <= 0),
    1 withdrawing (z > 0, z_dot < 0), 2 penetrating.  The no-tension clamp
    is not a branch: at f_total = 0 the penetrating and free dynamics
    agree.  The oracle of the branch test written inline in the RK4 loop."""
    return 0 if x_f >= 0.0 else 1 if v_f > 0.0 else 2


# ------------------------------------------------------------ simulator


def mechanical_energy(x_f, v_f, theta, theta_dot, linkage):
    """Kinetic plus gravitational energy of the body-foot-rotor system [J]
    at foot-channel coordinates, given as floats or aligned arrays."""
    length, jac, _ = _geometry(theta, linkage.l_upper, linkage.l_lower**2, xp=np)
    mb, mf = linkage.m_body, linkage.m_foot
    v_b = v_f + jac * theta_dot
    x_b = x_f + length + linkage.mount_offset
    kinetic = 0.5 * mb * v_b * v_b + 0.5 * mf * v_f * v_f + linkage.rotor_inertia * theta_dot * theta_dot
    return kinetic + mb * GRAVITY * x_b + mf * GRAVITY * x_f


# ------------------------------------------------------------ controller


def virtual_leg_force(phase, leg_len, leg_rate, config, k_compress) -> float:
    """Axial spring-damper force [N]; positive pushes body and foot apart.
    The extension spring in extension, the compression spring (stiffness
    `k_compress`) otherwise; the flight damping in flight, the stance
    damping otherwise."""
    if phase == PhaseName.EXTENSION:
        k, l0 = config.k_extend, config.l0_extend
    else:
        k, l0 = k_compress, config.l0_compress
    b = config.b_flight if phase == PhaseName.FLIGHT else config.b_stance
    return k * (l0 - leg_len) - b * leg_rate


def motor_torque(f_leg, theta, linkage) -> float:
    """Per-motor torque realizing an axial leg force; inverse of the quasi-static map."""
    return 0.5 * f_leg * abs(_checked_jacobian(theta, linkage))


# ------------------------------------------------------------ signals


def savgol_slope_coefficients(window, polyorder, dt) -> np.ndarray:
    """The Savitzky-Golay slope coefficients, reversed for convolution,
    solved afresh: the minimum-norm solution of the window offsets'
    powers against the first-derivative unit vector."""
    half = window // 2
    vander = np.arange(half, -half - 1, -1.0) ** np.arange(polyorder + 1)[:, None]
    return np.linalg.lstsq(vander, np.eye(polyorder + 1)[1] / dt, rcond=None)[0]


def savgol_edge_slopes(x, dt, window, polyorder) -> tuple[np.ndarray, np.ndarray]:
    """The slopes at the first and last `window // 2` samples: those of the
    polynomial fitted to the first or last full window (`np.polyfit`, then
    `np.polyder` and `np.polyval`)."""
    half = window // 2
    i = np.arange(window, dtype=float)
    head = np.polyval(np.polyder(np.polyfit(i, x[:window], polyorder)), i[:half]) / dt
    tail = np.polyval(np.polyder(np.polyfit(i, x[-window:], polyorder)), i[-half:]) / dt
    return head, tail


# ------------------------------------------------------------ estimation

_H = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])


@dataclass
class KalmanConfig:
    """The filter's covariances as matrices: Q and P0 4x4, R 3x3 diagonal,
    and the initial state x0; the form `gain_step` and `kf_step` read."""

    Q: np.ndarray
    R: np.ndarray
    P0: np.ndarray
    x0: np.ndarray

    @classmethod
    def from_noise(cls, noise, linkage, dt, x0, p0_scale) -> "KalmanConfig":
        """White-acceleration discretization of the IMU noise for Q,
        per-channel sensor variances for R, and P0 = p0_scale * I."""
        sig_a = max(noise.imu_sigma, 1e-4)
        q_block = sig_a**2 * np.array([[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]])
        Q = np.zeros((4, 4))
        Q[:2, :2] = q_block
        Q[2:, 2:] = q_block
        # Encoder noise maps through the Jacobian magnitude at mid-workspace.
        jac_mid = abs(leg_jacobian(0.5 * (linkage.theta_min + linkage.theta_max), linkage))
        quant = noise.encoder_resolution / math.sqrt(12.0)
        sig_disp = max(jac_mid * math.sqrt(noise.encoder_sigma**2 + quant**2), 1e-6)
        sig_rate = max(math.sqrt(2.0) * sig_disp / (ENCODER_RATE_WINDOW * dt), 1e-5)
        R = np.diag([max(noise.tof_sigma, 1e-5) ** 2, sig_disp**2, sig_rate**2])
        return cls(Q=Q, R=R, P0=np.eye(4) * p0_scale, x0=np.asarray(x0, dtype=float))


@dataclass
class KalmanState:
    x_hat: np.ndarray
    P: np.ndarray
    t: float


def transition(dt) -> np.ndarray:
    """State transition of the two constant-acceleration (height, rate) pairs."""
    return np.array([[1.0, dt, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, dt], [0.0, 0.0, 0.0, 1.0]])


def gain_step(P, dt, config) -> tuple[np.ndarray, np.ndarray]:
    """One covariance predict/update in 4x4 matrices: returns (gain K,
    posterior P).  The posterior is the Joseph form, symmetrized;
    `np.linalg.solve` raises LinAlgError on a singular innovation covariance."""
    A = transition(dt)
    P_pred = A @ P @ A.T + config.Q
    S = _H @ P_pred @ _H.T + config.R
    K = np.linalg.solve(S.T, (_H @ P_pred.T)).T  # P_pred H^T S^-1
    ikh = np.eye(4) - K @ _H
    P_new = ikh @ P_pred @ ikh.T + K @ config.R @ K.T
    return K, 0.5 * (P_new + P_new.T)


def kf_step(state, u_k, z_k, dt, config) -> KalmanState:
    """One predict/update cycle of the kinematic Kalman filter.

    u_k = (body, foot) IMU accelerations; z_k = (ToF body height,
    body-foot displacement, body-foot rate); `config` a `KalmanConfig`.
    The covariance and gain come from `gain_step`.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    u = np.asarray(u_k, dtype=float).reshape(2)
    z = np.asarray(z_k, dtype=float).reshape(3)
    B = np.array([[0.5 * dt * dt, 0.0], [dt, 0.0], [0.0, 0.5 * dt * dt], [0.0, dt]])
    x_pred = transition(dt) @ state.x_hat + B @ u
    K, P_new = gain_step(state.P, dt, config)
    x_new = x_pred + K @ (z - _H @ x_pred)
    return KalmanState(x_hat=x_new, P=P_new, t=state.t + dt)


@dataclass(frozen=True)
class ObserverState:
    """Momentum-observer internal state: momentum estimate and force residual."""

    p_hat: float
    r: float
    k_obs: float


def psi(theta, theta_dot, v_f, tau, linkage_params) -> float:
    """Drift of the foot-momentum dynamics d(M_f*v_f)/dt = F_c + psi: the
    inertia-gradient, gravity, torque and centrifugal terms."""
    co = reduced_dynamics_coeffs(theta, linkage_params)
    return co.dMf_dtheta * theta_dot * v_f - co.M_f * GRAVITY - co.beta * tau - co.C_coef * theta_dot * theta_dot


def mo_step(obs, theta, theta_dot, v_f, tau, dt, linkage_params) -> ObserverState:
    """Advance the momentum observer by one sample: the momentum estimate
    integrates the drift plus the residual, and the residual is the
    momentum mismatch times the discrete gain (1 - exp(-k_obs*dt))/dt."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt * obs.k_obs >= 1.0:
        raise ConfigError(f"unstable observer discretization: dt*k_obs = {dt * obs.k_obs:.3g} >= 1")
    momentum = reduced_dynamics_coeffs(theta, linkage_params).M_f * v_f
    p_hat = obs.p_hat + dt * (psi(theta, theta_dot, v_f, tau, linkage_params) + obs.r)
    gain = (1.0 - math.exp(-obs.k_obs * dt)) / dt
    return ObserverState(p_hat=p_hat, r=gain * (momentum - p_hat), k_obs=obs.k_obs)


# ------------------------------------------------------------ identification

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_search_log_zc(solve) -> tuple:
    """The least-cost `solve(log_zc)` over the box's z_c range by golden
    section inside the bracket of the best of the same log-spaced grid,
    until the bracket is narrower than _ZC_TOL; the best grid point competes
    with the search's last pair.  The oracle of `_search_log_zc`."""
    grid = np.linspace(math.log(_FIT_LOWER[2]), math.log(_FIT_UPPER[2]), _ZC_GRID).tolist()
    fits = [solve(x) for x in grid]
    i = min(range(_ZC_GRID), key=lambda j: fits[j][0])
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, _ZC_GRID - 1)]
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fit_c, fit_d = solve(c), solve(d)
    while b - a > _ZC_TOL:
        if fit_c[0] < fit_d[0]:
            b, d, fit_d = d, c, fit_c
            c = b - _INV_PHI * (b - a)
            fit_c = solve(c)
        else:
            a, c, fit_c = c, d, fit_d
            d = a + _INV_PHI * (b - a)
            fit_d = solve(d)
    return min(fit_c, fit_d, fits[i], key=lambda fit: fit[0])


def _pooled_samples(logs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, v^2, f) of the in-contact samples of every force row of every
    record, each row beside its record's depth, concatenated in order."""
    rows = [(log, force) for log in logs for force in log.force]
    z = np.concatenate([log.depth for log, _ in rows])
    v = np.concatenate([np.full(log.depth.shape, log.speed) for log, _ in rows])
    f = np.concatenate([force for _, force in rows])
    keep = z > 0.0
    return z[keep], v[keep] ** 2, f[keep]


def pooled_depth_speed_fit(logs) -> DepthSpeedFit:
    """The intrusion-model fit on every log's samples pooled, one row per
    sample of every repeat: variable projection over log z_c, the 2x2 normal
    equations of [z, g] held to k, m_a_inf >= 0, and the cost from the
    residuals."""
    speeds = {round(log.speed, 9) for log in logs}
    if len(speeds) < 2:
        raise InsufficientDataError("need intrusion sweeps at >= 2 distinct speeds")
    z, v2, f = _pooled_samples(logs)
    if z.size < 10:
        raise InsufficientDataError("too few in-contact intrusion samples")
    zz, zf = (float(np.einsum("i,i", z, col)) for col in (z, f))

    def solve(log_zc: float) -> tuple:
        zc = max(math.exp(log_zc), float(_FIT_LOWER[2]))
        g = np.exp(z / -zc)
        g *= v2
        g /= zc
        zg, gg, gf = (float(np.einsum("i,i", g, col)) for col in (z, g, f))

        def fit(k, ma):
            r = k * z
            r += ma * g
            r -= f
            return float(np.einsum("i,i", r, r)), k, ma, zc

        det = zz * gg - zg * zg
        if det > 0.0:
            k, ma = (gg * zf - zg * gf) / det, (zz * gf - zg * zf) / det
            if k >= 0.0 and ma >= 0.0:
                return fit(k, ma)
        edges = (fit(max(zf / zz, 0.0), 0.0), fit(0.0, max(gf / gg, 0.0) if gg > 0.0 else 0.0))
        return min(edges, key=lambda edge: edge[0])

    cost, k_fit, ma_fit, zc_fit = _search_log_zc(solve)
    if not math.isfinite(cost):
        raise DegenerateFitError("intrusion model is not finite on these samples")
    return DepthSpeedFit(
        k_fit=k_fit, m_a_inf_fit=ma_fit, z_c_fit=zc_fit, rmse=math.sqrt(cost / z.size), n_samples=int(z.size)
    )


def pooled_cost(logs, fit: DepthSpeedFit) -> float:
    """The sum of squared residuals of `fit` over every log's in-contact samples."""
    z, v2, f = _pooled_samples(logs)
    r = fit.k_fit * z + fit.gradient(z) * v2 - f
    return float(np.dot(r, r))
