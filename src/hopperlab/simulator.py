"""Coupled body-foot-terrain dynamics, the intrusion rig, and the sensor model.

The truth plant integrates the two-coordinate (foot height, joint angle)
dynamics with fixed-step RK4 at 10 kHz.  While the foot penetrates, the
entrained grain mass is folded into the foot-channel inertia so the
acceleration-proportional part of the reaction never appears as a force
of unknown acceleration; the logged contact force is then algebraically
identical to the reaction law evaluated at the logged (z, zd, zdd).
Sensors are synthesized at 1 kHz by decimating the truth trajectory and
applying quantization, bias and white noise per channel.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily: load it here, not in the first trial)

from .constants import GRAVITY
from .controller import ControllerConfig, Phase, PhaseName, next_phase, spring_gains
from .errors import SimulationError, TrialMalformedError, ConfigError
from .linkage import LinkageParams, _geometry, solve_theta_for_length
from .signals import smoothed_backward_difference
from .terrain import TerrainParams, ForceDecomposition, constant_speed_force


@dataclass(frozen=True)
class SimConfig:
    """Truth-integration and trial protocol settings."""

    dt_truth: float = 1e-4          # RK4 step [s]
    sensor_rate_hz: float = 1000.0  # proprioceptive sampling rate
    t_max: float = 2.0              # hard stop [s]
    post_liftoff_time: float = 0.1  # keep integrating this long after liftoff [s]
    drop_speed: float = 0.8         # target touchdown speed [m/s]
    seed: int = 0

    def __post_init__(self):
        if self.dt_truth <= 0.0 or self.sensor_rate_hz <= 0.0:
            raise ValueError("dt_truth and sensor_rate_hz must be positive")
        ratio = 1.0 / (self.sensor_rate_hz * self.dt_truth)
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(
                f"sensor period must be an integer multiple of dt_truth (ratio {ratio:.6g})"
            )
        if self.t_max <= 0.0 or self.post_liftoff_time < 0.0:
            raise ValueError("t_max must be positive and post_liftoff_time nonnegative")
        if self.drop_speed < 0.0:
            raise ValueError("drop_speed must be nonnegative")

    @property
    def decimation(self) -> int:
        return round(1.0 / (self.sensor_rate_hz * self.dt_truth))

    @property
    def sensor_period(self) -> float:
        return 1.0 / self.sensor_rate_hz


@dataclass(frozen=True)
class NoiseConfig:
    """Sensor corruption levels; `enabled=False` gives ideal sensors."""

    enabled: bool = True
    encoder_resolution: float = 2.0 * math.pi / 4096.0  # [rad]
    encoder_sigma: float = 1e-3    # [rad]
    imu_sigma: float = 0.2         # [m/s^2]
    imu_bias_max: float = 0.05     # [m/s^2], per-trial uniform bias
    tof_sigma: float = 5e-3        # [m]
    current_sigma: float = 0.05    # [A]
    loadcell_sigma: float = 0.5    # [N]

    @classmethod
    def noiseless(cls) -> "NoiseConfig":
        return cls(
            enabled=False,
            encoder_resolution=0.0,
            encoder_sigma=0.0,
            imu_sigma=0.0,
            imu_bias_max=0.0,
            tof_sigma=0.0,
            current_sigma=0.0,
            loadcell_sigma=0.0,
        )


@dataclass(frozen=True)
class HopperState:
    """Truth state at one instant; body coordinates follow the closure."""

    x_b: float
    v_b: float
    x_f: float
    v_f: float
    theta: float
    theta_dot: float
    phase: Phase
    t: float


@dataclass(frozen=True)
class Derivative:
    """Time derivative of the truth state plus contact diagnostics."""

    a_b: float
    a_f: float
    theta_ddot: float
    force: ForceDecomposition


@dataclass
class TruthSeries:
    """Columnar truth log at the integration rate."""

    t: np.ndarray
    x_b: np.ndarray
    v_b: np.ndarray
    x_f: np.ndarray
    v_f: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    acc_b: np.ndarray
    acc_f: np.ndarray
    f_static: np.ndarray
    f_drag: np.ndarray
    f_added: np.ndarray
    f_total: np.ndarray
    tau: np.ndarray
    f_leg: np.ndarray
    phase_id: np.ndarray

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class TrialEvents:
    """Touchdown, compression-extension transition and liftoff timestamps [s]."""

    t_td: float
    t_ce: float
    t_lo: float
    v_td: float  # touchdown speed, positive downward [m/s]


@dataclass
class Frames:
    """A trial's 1 kHz proprioceptive samples, one aligned array per channel."""

    t: np.ndarray
    encoder_theta: np.ndarray
    encoder_theta_dot: np.ndarray
    imu_body_acc: np.ndarray
    imu_foot_acc: np.ndarray
    tof_height: np.ndarray
    motor_current: np.ndarray
    loadcell_force: np.ndarray

    @classmethod
    def from_list(cls, frames: "Frames") -> "Frames":
        """`frames` unchanged: a trial's frames are already columns (the
        benchmark's closed-loop workload still calls this)."""
        return frames

    def __len__(self) -> int:
        return self.t.size


@dataclass
class TrialLog:
    frames: Frames
    truth: TruthSeries
    events: TrialEvents
    config: dict
    seed: object
    clamp_events: int = 0  # steps where the no-tension clamp changed the dynamics


@dataclass
class IntrusionLog:
    """Constant-speed penetration record from the kinematic rig."""

    speed: float
    t: np.ndarray
    depth: np.ndarray
    force: np.ndarray
    seed: object = None


def plant_kernel(lk: LinkageParams, tr: TerrainParams):
    """The truth plant of one trial, with its constants bound once.

    Returns `stage(x_f, v_f, theta, theta_dot, k_spr, l0_spr, b_spr, tau=None)`,
    which evaluates the leg geometry once and solves the 2x2 system for
    (a_f, theta_ddot).  The per-motor torque comes from the virtual spring
    (k_spr, l0_spr, b_spr) unless `tau` is given, in which case the spring
    is bypassed and f_leg is NaN.  Returns (a_f, theta_ddot, a_b, f_static,
    f_drag, f_added, f_total, clamped, tau, f_leg, length, jac).
    """
    l1 = lk.l_upper
    l2_sq = lk.l_lower * lk.l_lower
    mb = lk.m_body
    m_free = mb + lk.m_foot
    two_ir = 2.0 * lk.rotor_inertia
    weight_free = -m_free * GRAVITY
    weight_body = mb * GRAVITY
    surface = tr.surface_height
    k_stiff = tr.k_stiff
    m_a_inf = tr.m_a_inf
    z_c = tr.z_c
    dm_a_scale = tr.m_a_inf / tr.z_c
    exp = math.exp
    nan = math.nan

    def stage(x_f, v_f, theta, theta_dot, k_spr, l0_spr, b_spr, tau=None):
        length, jac, curv = _geometry(theta, l1, l2_sq)
        if tau is None:
            f_leg = k_spr * (l0_spr - length) - b_spr * (jac * theta_dot)
            tau = 0.5 * f_leg * abs(jac)
        else:
            f_leg = nan
        m01 = mb * jac
        m11 = m01 * jac + two_ir
        thd_sq = theta_dot * theta_dot
        rhs_free = weight_free - mb * curv * thd_sq
        rhs_t = -2.0 * tau - m01 * curv * thd_sq - weight_body * jac

        z = surface - x_f
        z_dot = -v_f
        penetrating = z > 0.0 and z_dot >= 0.0
        m00 = m_free
        rhs_f = rhs_free
        if penetrating:
            decay = exp(-z / z_c)
            m_a = m_a_inf * (1.0 - decay)
            f_static = k_stiff * z
            f_drag = dm_a_scale * decay * z_dot * z_dot
            m00 = m_free + m_a
            rhs_f = rhs_free + (f_static + f_drag)
        elif z > 0.0:
            # withdrawing: the grains are abandoned, only the depth term acts
            f_static = f_total = k_stiff * z
            f_drag = f_added = 0.0
            rhs_f = rhs_free + f_static
        else:
            f_static = f_drag = f_added = f_total = 0.0

        det = m00 * m11 - m01 * m01
        a_f = (rhs_f * m11 - m01 * rhs_t) / det
        theta_ddot = (m00 * rhs_t - m01 * rhs_f) / det

        clamped = False
        if penetrating:
            f_added = m_a * (-a_f)
            f_total = f_static + f_drag + f_added
            if f_total < 0.0:
                # Grains cannot pull the foot down: drop all terrain coupling
                # and re-solve as if detached (rare complementarity corner).
                clamped = True
                det = m_free * m11 - m01 * m01
                a_f = (rhs_free * m11 - m01 * rhs_t) / det
                theta_ddot = (m_free * rhs_t - m01 * rhs_free) / det
                f_static = f_drag = f_added = f_total = 0.0

        a_b = a_f + jac * theta_ddot + curv * thd_sq
        return (
            a_f, theta_ddot, a_b, f_static, f_drag, f_added, f_total, clamped,
            tau, f_leg, length, jac,
        )

    return stage


def _accelerations(
    x_f: float,
    v_f: float,
    theta: float,
    theta_dot: float,
    tau: float,
    lk: LinkageParams,
    tr: TerrainParams,
) -> tuple:
    """Plant accelerations at one instant for a given per-motor torque.

    Returns (a_f, theta_ddot, a_b, f_static, f_drag, f_added, f_total, clamped).
    """
    return plant_kernel(lk, tr)(x_f, v_f, theta, theta_dot, 0.0, 0.0, 0.0, tau)[:8]


def dynamics_derivative(
    state: HopperState,
    tau: float,
    terrain_params: TerrainParams,
    linkage_params: LinkageParams,
) -> Derivative:
    """Exact state derivative at one instant for a given per-motor torque."""
    a_f, thdd, a_b, fs, fd, fa, ft, _ = _accelerations(
        state.x_f, state.v_f, state.theta, state.theta_dot, tau, linkage_params, terrain_params
    )
    return Derivative(
        a_b=a_b,
        a_f=a_f,
        theta_ddot=thdd,
        force=ForceDecomposition(fs, fd, fa, ft),
    )


def state_from_foot_channel(
    x_f: float,
    v_f: float,
    theta: float,
    theta_dot: float,
    phase: Phase,
    t: float,
    linkage: LinkageParams,
) -> HopperState:
    """Build a full state honoring the kinematic closure."""
    length, jac, _ = _geometry(theta, linkage.l_upper, linkage.l_lower**2)
    return HopperState(
        x_b=x_f + length + linkage.mount_offset,
        v_b=v_f + jac * theta_dot,
        x_f=x_f,
        v_f=v_f,
        theta=theta,
        theta_dot=theta_dot,
        phase=phase,
        t=t,
    )


def mechanical_energy(state: HopperState, linkage: LinkageParams) -> float:
    """Kinetic plus gravitational energy of the body-foot-rotor system [J]."""
    _, jac, _ = _geometry(state.theta, linkage.l_upper, linkage.l_lower**2)
    mb, mf = linkage.m_body, linkage.m_foot
    v_b = state.v_f + jac * state.theta_dot
    kinetic = (
        0.5 * mb * v_b * v_b
        + 0.5 * mf * state.v_f * state.v_f
        + linkage.rotor_inertia * state.theta_dot * state.theta_dot
    )
    potential = mb * GRAVITY * state.x_b + mf * GRAVITY * state.x_f
    return kinetic + potential


def sensor_frames(
    t,
    theta,
    theta_dot,
    acc_body,
    acc_foot,
    x_b,
    tau,
    contact_force,
    noise: NoiseConfig,
    linkage: LinkageParams,
    rng: np.random.Generator,
    dt: float,
) -> Frames:
    """The 1 kHz sensor model over aligned float arrays of truth samples.

    With `enabled=False` every channel reports truth exactly (ideal
    sensors).  Otherwise the angle is quantized, the two per-trial IMU
    biases are drawn, then one standard-normal row per frame (encoder
    unless `encoder_sigma == 0`, body IMU, foot IMU, ToF, current, load
    cell) is scaled per channel, and the encoder rate is a 5-sample
    smoothed backward difference of the encoder angle, matching what a
    motor driver reports.
    """
    current = tau / linkage.torque_constant
    if not noise.enabled:
        columns = (t, theta, theta_dot, acc_body, acc_foot, x_b, current, contact_force)
    else:
        n = noise
        bias_body = rng.uniform(-n.imu_bias_max, n.imu_bias_max)
        bias_foot = rng.uniform(-n.imu_bias_max, n.imu_bias_max)
        enc = theta
        if n.encoder_resolution > 0.0:
            enc = np.round(enc / n.encoder_resolution) * n.encoder_resolution
        sigmas = [n.imu_sigma, n.imu_sigma, n.tof_sigma, n.current_sigma, n.loadcell_sigma]
        if n.encoder_sigma > 0.0:
            sigmas.insert(0, n.encoder_sigma)
        draws = rng.standard_normal((enc.size, len(sigmas))) * sigmas
        if n.encoder_sigma > 0.0:
            enc = enc + draws[:, 0]
        e_body, e_foot, e_tof, e_current, e_load = draws[:, -5:].T
        columns = (
            t,
            enc,
            smoothed_backward_difference(enc, dt, window=5),
            acc_body + bias_body + e_body,
            acc_foot + bias_foot + e_foot,
            x_b + e_tof,
            current + e_current,
            contact_force + e_load,
        )
    return Frames(*(np.array(col, dtype=float) for col in columns))


def detect_events(truth: TruthSeries, surface_height: float = 0.0) -> TrialEvents:
    """Locate touchdown, compression-extension transition and liftoff.

    TD is the first sample with positive penetration; CE the controller's
    compression-to-extension switch; LO the last sample with positive
    contact force before the controller returns to flight.
    """
    z = surface_height - truth.x_f
    contact_idx = np.flatnonzero(z > 0.0)
    if contact_idx.size == 0:
        raise TrialMalformedError("no touchdown: foot never penetrated the surface")
    i_td = int(contact_idx[0])

    phase = truth.phase_id
    ce_idx = np.flatnonzero(
        (phase[:-1] == int(PhaseName.COMPRESSION)) & (phase[1:] == int(PhaseName.EXTENSION))
    )
    if ce_idx.size == 0:
        raise TrialMalformedError("no compression-extension transition found")
    i_ce = int(ce_idx[0]) + 1

    flight_after = np.flatnonzero((np.arange(phase.size) > i_ce) & (phase == int(PhaseName.FLIGHT)))
    if flight_after.size == 0:
        raise TrialMalformedError("no liftoff: controller never returned to flight")
    i_flight = int(flight_after[0])
    loaded = np.flatnonzero(truth.f_total[:i_flight] > 0.0)
    if loaded.size == 0:
        raise TrialMalformedError("no liftoff: no loaded samples before flight")
    i_lo = int(loaded[-1])

    t_td, t_ce, t_lo = truth.t[i_td], truth.t[i_ce], truth.t[i_lo]
    if not (t_td < t_ce < t_lo):
        raise TrialMalformedError(
            f"events out of order: td={t_td:.4f} ce={t_ce:.4f} lo={t_lo:.4f}"
        )
    return TrialEvents(t_td=float(t_td), t_ce=float(t_ce), t_lo=float(t_lo), v_td=float(-truth.v_f[i_td]))


def run_hop_trial(
    sim_config: SimConfig,
    controller_config: ControllerConfig,
    terrain_params: TerrainParams,
    linkage_params: LinkageParams,
    seed=None,
    noise_config: NoiseConfig | None = None,
) -> TrialLog:
    """Integrate one drop-release hop, then synthesize its sensor frames
    from the decimated truth in one pass (`sensor_frames`).

    The hopper is released from rest with the leg at its compression
    neutral length, at the height that yields the configured touchdown
    speed.  Deterministic for a fixed seed.
    """
    noise = noise_config if noise_config is not None else NoiseConfig()
    if seed is None:
        seed = sim_config.seed
    rng = np.random.default_rng(seed)

    lk = linkage_params
    tr = terrain_params
    cc = controller_config
    dt = sim_config.dt_truth
    n_max = int(round(sim_config.t_max / dt))

    theta0 = solve_theta_for_length(cc.l0_compress, lk)
    drop_h = sim_config.drop_speed**2 / (2.0 * GRAVITY)
    x_f = tr.surface_height + drop_h
    v_f = 0.0
    theta = theta0
    theta_dot = 0.0
    phase = Phase(PhaseName.FLIGHT, 0.0)

    stage = plant_kernel(lk, tr)
    th_lo, th_hi = lk.theta_min, lk.theta_max
    surface = tr.surface_height
    mount = lk.mount_offset
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0

    k_spr, l0_spr, b_spr = spring_gains(phase.name, cc)
    phase_id = float(int(phase.name))

    rows: list[tuple] = []
    clamp_events = 0
    f_prev = 0.0
    t = 0.0
    t_stop = sim_config.t_max

    for step in range(n_max):
        # stage 1 under the current spring also yields the geometry the
        # phase machine needs; a phase switch re-evaluates it
        a_f, thdd, a_b, fs, fd, fa, ft, clamped, tau, f_leg, length, jac = stage(
            x_f, v_f, theta, theta_dot, k_spr, l0_spr, b_spr
        )
        new_phase = next_phase(
            phase, length, jac * theta_dot, x_f, v_f, f_prev, t, cc, surface
        )
        if new_phase.name != phase.name:
            phase = new_phase
            if phase.name == PhaseName.FLIGHT:
                t_stop = min(t_stop, t + sim_config.post_liftoff_time)
            k_spr, l0_spr, b_spr = spring_gains(phase.name, cc)
            phase_id = float(int(phase.name))
            a_f, thdd, a_b, fs, fd, fa, ft, clamped, tau, f_leg, length, jac = stage(
                x_f, v_f, theta, theta_dot, k_spr, l0_spr, b_spr
            )
        if clamped:
            clamp_events += 1
        f_prev = ft

        v_b = v_f + jac * theta_dot
        x_b = x_f + length + mount
        rows.append((
            t, x_b, v_b, x_f, v_f, theta, theta_dot, a_b, a_f,
            fs, fd, fa, ft, tau, f_leg, phase_id,
        ))

        # RK4 with the phase (and spring law) frozen across the step
        x2 = x_f + half_dt * v_f
        v2 = v_f + half_dt * a_f
        th2 = theta + half_dt * theta_dot
        thd2 = theta_dot + half_dt * thdd
        a2, tdd2 = stage(x2, v2, th2, thd2, k_spr, l0_spr, b_spr)[:2]
        x3 = x_f + half_dt * v2
        v3 = v_f + half_dt * a2
        th3 = theta + half_dt * thd2
        thd3 = theta_dot + half_dt * tdd2
        a3, tdd3 = stage(x3, v3, th3, thd3, k_spr, l0_spr, b_spr)[:2]
        x4 = x_f + dt * v3
        v4 = v_f + dt * a3
        th4 = theta + dt * thd3
        thd4 = theta_dot + dt * tdd3
        a4, tdd4 = stage(x4, v4, th4, thd4, k_spr, l0_spr, b_spr)[:2]

        x_f += sixth_dt * (v_f + 2.0 * v2 + 2.0 * v3 + v4)
        v_f += sixth_dt * (a_f + 2.0 * a2 + 2.0 * a3 + a4)
        theta += sixth_dt * (theta_dot + 2.0 * thd2 + 2.0 * thd3 + thd4)
        theta_dot += sixth_dt * (thdd + 2.0 * tdd2 + 2.0 * tdd3 + tdd4)
        t = (step + 1) * dt

        if not (math.isfinite(x_f) and math.isfinite(v_f) and math.isfinite(theta) and math.isfinite(theta_dot)):
            raise SimulationError(f"state became non-finite at t={t:.6f} s")
        if not (th_lo <= theta <= th_hi):
            raise SimulationError(
                f"joint angle {theta:.4f} left workspace [{th_lo}, {th_hi}] at t={t:.6f} s"
            )
        if t >= t_stop:
            break

    *columns, phase_col = np.array(rows, dtype=float).reshape(len(rows), len(fields(TruthSeries))).T
    truth = TruthSeries(*columns, phase_id=phase_col.astype(int))
    events = detect_events(truth, tr.surface_height)
    d = slice(None, None, sim_config.decimation)
    frames = sensor_frames(
        np.arange(truth.t[d].size) * sim_config.sensor_period,
        truth.theta[d], truth.theta_dot[d], truth.acc_b[d], truth.acc_f[d],
        truth.x_b[d], truth.tau[d], truth.f_total[d],
        noise, lk, rng, sim_config.sensor_period,
    )
    return TrialLog(
        frames=frames,
        truth=truth,
        events=events,
        config={
            "sim": asdict(sim_config),
            "controller": asdict(cc),
            "terrain": asdict(tr),
            "linkage": asdict(lk),
            "noise": asdict(noise),
        },
        seed=seed,
        clamp_events=clamp_events,
    )


def run_constant_speed_intrusion(
    speed: float,
    z_max: float,
    terrain_params: TerrainParams,
    noise_config: NoiseConfig | None = None,
    seed=0,
    sample_rate_hz: float = 1000.0,
) -> IntrusionLog:
    """Drive the foot kinematically at constant speed down to z_max.

    The recorded force is the reaction law at (z, v, 0) plus load-cell
    noise when enabled; deterministic for a fixed seed.
    """
    if speed <= 0.0:
        raise ValueError("speed must be positive")
    if z_max <= 0.0:
        raise ValueError("z_max must be positive")
    noise = noise_config if noise_config is not None else NoiseConfig.noiseless()
    rng = np.random.default_rng(seed)
    dt = 1.0 / sample_rate_hz
    n = int(math.floor(z_max / (speed * dt))) + 1
    t = np.arange(n) * dt
    depth = np.minimum(speed * t, z_max)
    force = constant_speed_force(depth, speed, terrain_params)
    if noise.enabled and noise.loadcell_sigma > 0.0:
        force = force + rng.normal(0.0, noise.loadcell_sigma, size=n)
    return IntrusionLog(speed=float(speed), t=t, depth=depth, force=force, seed=seed)
