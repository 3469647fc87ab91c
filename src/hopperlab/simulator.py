"""Coupled body-foot-terrain dynamics, the intrusion rig, and the sensor model.

The truth plant integrates the two-coordinate (foot height, joint angle)
dynamics with fixed-step RK4, one step per sensor period.  Inside a step
whose dynamics switch (a phase change or a change of contact-law branch)
the switch is bracketed by `EVENT_BISECTIONS` halvings, to within dt/1024,
and the step is finished under the new dynamics, so that touchdown, the
stiffness switch and liftoff act where they happen, not at the step's
end.  Heights are measured from the undisturbed bed surface, so the foot
penetrates while x_f < 0.  The drop before touchdown is exact free fall, so its rows are
written in closed form and RK4 starts at the last step above the bed.
`plant_kernel` is the one way to evaluate the plant: the RK4 loop calls it
under the phase's virtual spring, and tests call it at a fixed per-motor
torque.  Its stage computes the leg geometry inline; stage 1 of each step
returns the full record that the log row and the phase machine read, and
stages 2-4 return only (a_f, theta_ddot).  While the foot penetrates, the
entrained grain mass is folded into the foot-channel inertia so the
acceleration-proportional part of the reaction never appears as a force of
unknown acceleration; the logged contact force is then algebraically
identical to the reaction law evaluated at the logged (z, zd, zdd).
Each truth row is a sensor frame: the sensors are synthesized from the
rows by applying quantization, bias and white noise per channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily: load it here, not in the first trial)

from .constants import GRAVITY
from .controller import FLIGHT, ControllerConfig, PhaseName, next_phase, spring_gains
from .errors import NONNEGATIVE, POSITIVE, SimulationError, TrialMalformedError, check_domains
from .linkage import LinkageParams, _geometry, solve_theta_for_length
from .signals import ENCODER_RATE_WINDOW, smoothed_backward_difference
from .terrain import TerrainParams, constant_speed_force


MAX_TRIAL_SAMPLES = 1_000_000   # RK4 steps (frames) of a hop, or load-cell samples of an intrusion
INTRUSION_RATE_HZ = 1000.0      # the intrusion rig's load-cell sampling rate
EVENT_BISECTIONS = 10           # halvings that bracket a switch of the dynamics inside an RK4 step


@dataclass(frozen=True)
class SimConfig:
    """Truth-integration and trial protocol settings."""

    sensor_rate_hz: float = field(default=1000.0, metadata=POSITIVE)      # proprioceptive sampling and RK4 rate
    t_max: float = field(default=2.0, metadata=POSITIVE)                  # hard stop [s]
    post_liftoff_time: float = field(default=0.1, metadata=NONNEGATIVE)   # keep integrating this long after liftoff [s]
    drop_speed: float = field(default=0.8, metadata=NONNEGATIVE)          # target touchdown speed [m/s]
    seed: int = field(default=0, metadata=NONNEGATIVE)

    def __post_init__(self):
        check_domains(self)
        if (steps := self.t_max * self.sensor_rate_hz) > MAX_TRIAL_SAMPLES:
            raise ValueError(f"t_max * sensor_rate_hz gives {steps:g} RK4 steps, above {MAX_TRIAL_SAMPLES:,}")

    # Truth rows per frame: always 1.  Kept only for the benchmark's
    # closed-loop workload, which slices the truth by it.
    decimation = 1

    @property
    def sensor_period(self) -> float:
        return 1.0 / self.sensor_rate_hz


@dataclass(frozen=True)
class NoiseConfig:
    """Sensor corruption levels; `enabled=False` gives ideal sensors."""

    enabled: bool = True
    encoder_resolution: float = field(default=2.0 * math.pi / 4096.0, metadata=NONNEGATIVE)  # [rad]
    encoder_sigma: float = field(default=1e-3, metadata=NONNEGATIVE)    # [rad]
    imu_sigma: float = field(default=0.2, metadata=NONNEGATIVE)         # [m/s^2]
    imu_bias_max: float = field(default=0.05, metadata=NONNEGATIVE)     # [m/s^2], per-trial uniform bias
    tof_sigma: float = field(default=5e-3, metadata=NONNEGATIVE)        # [m]
    current_sigma: float = field(default=0.05, metadata=NONNEGATIVE)    # [A]
    loadcell_sigma: float = field(default=0.5, metadata=NONNEGATIVE)    # [N]

    __post_init__ = check_domains

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


@dataclass
class TruthSeries:
    """Columnar truth log, one row per RK4 step, each at a frame's time."""

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
    seed: object
    clamp_events: int = 0  # rows at which the no-tension clamp changed the dynamics


@dataclass
class IntrusionLog:
    """Constant-speed penetration record from the kinematic rig."""

    speed: float
    t: np.ndarray
    depth: np.ndarray
    force: np.ndarray


def plant_kernel(lk: LinkageParams, tr: TerrainParams):
    """The truth plant of one trial, with its constants bound once.

    Returns `stage(x_f, v_f, theta, theta_dot, k_spr, l0_spr, b_spr, tau=None,
    *, rates_only=False)`, which evaluates the leg geometry once and solves
    the 2x2 system for (a_f, theta_ddot).  The per-motor torque comes from
    the virtual spring (k_spr, l0_spr, b_spr) unless `tau` is given, in
    which case the spring is bypassed and f_leg is NaN.  Returns (a_f,
    theta_ddot, a_b, f_static, f_drag, f_added, f_total, clamped, tau,
    f_leg, length, jac), or only (a_f, theta_ddot) with `rates_only`, as
    RK4 stages 2-4 need.  The geometry is `linkage._geometry` with the same
    float operations, its shared products formed once; it, the spring, the
    reaction law and the mass matrix are inline because a helper call costs
    ~0.2 us of a 1.5-2.7 us stage.
    """
    l1 = lk.l_upper
    neg_l1 = -l1
    l1_sq = l1 * l1
    l2_sq = lk.l_lower * lk.l_lower
    mb = lk.m_body
    m_free = mb + lk.m_foot
    two_ir = 2.0 * lk.rotor_inertia
    weight_free = -m_free * GRAVITY
    weight_body = mb * GRAVITY
    k_stiff = tr.k_stiff
    m_a_inf = tr.m_a_inf
    z_c = tr.z_c
    dm_a_scale = tr.m_a_inf / tr.z_c
    exp = math.exp
    sin = math.sin
    cos = math.cos
    sqrt = math.sqrt
    nan = math.nan

    def stage(x_f, v_f, theta, theta_dot, k_spr, l0_spr, b_spr, tau=None, *, rates_only=False):
        s = sin(theta)
        c = cos(theta)
        l1_sq_s = l1_sq * s
        l1_sq_s_s = l1_sq_s * s
        root = sqrt(l2_sq - l1_sq_s_s)
        length = l1 * c + root
        jac = neg_l1 * s - l1_sq_s * c / root
        curv = neg_l1 * c - l1_sq * ((c * c - s * s) / root + l1_sq_s_s * c * c / root**3)
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

        z = -x_f
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

        if rates_only:
            return a_f, theta_ddot
        a_b = a_f + jac * theta_ddot + curv * thd_sq
        return (
            a_f, theta_ddot, a_b, f_static, f_drag, f_added, f_total, clamped,
            tau, f_leg, length, jac,
        )

    return stage


def mechanical_energy(x_f, v_f, theta, theta_dot, linkage: LinkageParams):
    """Kinetic plus gravitational energy of the body-foot-rotor system [J]
    at foot-channel coordinates, given as floats or aligned arrays."""
    length, jac, _ = _geometry(theta, linkage.l_upper, linkage.l_lower**2, xp=np)
    mb, mf = linkage.m_body, linkage.m_foot
    v_b = v_f + jac * theta_dot
    x_b = x_f + length + linkage.mount_offset
    kinetic = 0.5 * mb * v_b * v_b + 0.5 * mf * v_f * v_f + linkage.rotor_inertia * theta_dot * theta_dot
    return kinetic + mb * GRAVITY * x_b + mf * GRAVITY * x_f


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
    cell) is scaled per channel, and the encoder rate is a smoothed
    backward difference of the encoder angle over `ENCODER_RATE_WINDOW`
    samples, matching what a motor driver reports.
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
            smoothed_backward_difference(enc, dt, ENCODER_RATE_WINDOW),
            acc_body + bias_body + e_body,
            acc_foot + bias_foot + e_foot,
            x_b + e_tof,
            current + e_current,
            contact_force + e_load,
        )
    return Frames(*(np.array(col, dtype=float) for col in columns))


def detect_events(truth: TruthSeries) -> TrialEvents:
    """Locate touchdown, compression-extension transition and liftoff.

    TD is the first sample with positive penetration; CE the controller's
    compression-to-extension switch; LO the last sample with positive
    contact force before the controller returns to flight.  The touchdown
    speed is the foot's speed at the bed, sqrt(v_f^2 - 2 a_f x_f) from the
    last sample above it, which is in free fall.  `phase_id` holds the
    phase at each row, so it cannot show a phase shorter than one step: a
    re-contact after liftoff whose compression ends inside a step goes
    FLIGHT -> EXTENSION in the rows.
    """
    contact_idx = np.flatnonzero(truth.x_f < 0.0)
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
    i = i_td - 1
    v_td = math.sqrt(truth.v_f[i] ** 2 - 2.0 * truth.acc_f[i] * truth.x_f[i])
    return TrialEvents(t_td=float(t_td), t_ce=float(t_ce), t_lo=float(t_lo), v_td=v_td)


def _contact_branch(x_f, v_f):
    """Which branch of the contact law acts at a state: 0 free (z <= 0),
    1 withdrawing (z > 0, z_dot < 0), 2 penetrating.  The no-tension clamp
    is not a branch: at f_total = 0 the penetrating and free dynamics agree."""
    return 0 if x_f >= 0.0 else 1 if v_f > 0.0 else 2


def run_hop_trial(
    sim_config: SimConfig,
    controller_config: ControllerConfig,
    terrain_params: TerrainParams,
    linkage_params: LinkageParams,
    seed=None,
    noise_config: NoiseConfig | None = None,
) -> TrialLog:
    """Integrate one drop-release hop, one RK4 step per sensor period, then
    synthesize its sensor frames from the truth rows in one pass
    (`sensor_frames`).

    The hopper is released from rest with the leg at its compression
    neutral length, at the height h that yields the configured touchdown
    speed.  Until the foot reaches the bed the leg force is zero and the
    joint does not move, so the rows before the last step with
    h - g*t^2/2 >= 0 are written in closed form (x_f = h - g*t^2/2,
    v_f = -g*t, theta = theta0, the rest from one kernel evaluation), and
    RK4 runs from that step on.  Rows stay on the k*dt grid.  An RK4 step
    from a state s is kept only if every stage state it evaluates lies on
    s's contact branch and the phase machine, at its end state with that
    state's own force, does not switch.  A step that is not kept holds a
    switch of the dynamics: `EVENT_BISECTIONS` halvings, each a step from
    the last kept state, bracket it; one step crosses the bracket, the
    phase machine runs there, and the rest of the row's step is taken
    under the same rule.  The phase machine runs only at these located
    switches.  Deterministic for a fixed seed.
    """
    noise = noise_config if noise_config is not None else NoiseConfig()
    if seed is None:
        seed = sim_config.seed
    rng = np.random.default_rng(seed)

    lk = linkage_params
    tr = terrain_params
    cc = controller_config
    dt = sim_config.sensor_period
    n_max = int(round(sim_config.t_max / dt))

    theta0 = solve_theta_for_length(cc.l0_compress, lk)
    drop_h = sim_config.drop_speed**2 / (2.0 * GRAVITY)
    phase = FLIGHT

    stage = plant_kernel(lk, tr)
    th_lo, th_hi = lk.theta_min, lk.theta_max
    mount = lk.mount_offset
    isfinite = math.isfinite
    spring = spring_gains(phase, cc)
    t_stop = sim_config.t_max

    def rk4(x_f, v_f, theta, theta_dot, a_f, thdd, h, t_end, branch=None):
        """The state at t_end after one RK4 step of length h under the
        spring in force, from a state whose stage-1 rates are (a_f, thdd);
        None if `branch` is given and a stage state leaves that contact
        branch (the stage is then not evaluated)."""
        k_spr, l0_spr, b_spr = spring
        half = 0.5 * h
        x2 = x_f + half * v_f
        v2 = v_f + half * a_f
        if branch is not None and _contact_branch(x2, v2) != branch:
            return None
        th2 = theta + half * theta_dot
        thd2 = theta_dot + half * thdd
        a2, tdd2 = stage(x2, v2, th2, thd2, k_spr, l0_spr, b_spr, rates_only=True)
        x3 = x_f + half * v2
        v3 = v_f + half * a2
        if branch is not None and _contact_branch(x3, v3) != branch:
            return None
        th3 = theta + half * thd2
        thd3 = theta_dot + half * tdd2
        a3, tdd3 = stage(x3, v3, th3, thd3, k_spr, l0_spr, b_spr, rates_only=True)
        x4 = x_f + h * v3
        v4 = v_f + h * a3
        if branch is not None and _contact_branch(x4, v4) != branch:
            return None
        th4 = theta + h * thd3
        thd4 = theta_dot + h * tdd3
        a4, tdd4 = stage(x4, v4, th4, thd4, k_spr, l0_spr, b_spr, rates_only=True)

        sixth = h / 6.0
        x_f += sixth * (v_f + 2.0 * v2 + 2.0 * v3 + v4)
        v_f += sixth * (a_f + 2.0 * a2 + 2.0 * a3 + a4)
        theta += sixth * (theta_dot + 2.0 * thd2 + 2.0 * thd3 + thd4)
        theta_dot += sixth * (thdd + 2.0 * tdd2 + 2.0 * tdd3 + tdd4)
        if not (isfinite(x_f) and isfinite(v_f) and isfinite(theta) and isfinite(theta_dot)):
            raise SimulationError(f"state became non-finite at t={t_end:.6f} s")
        if not (th_lo <= theta <= th_hi):
            raise SimulationError(
                f"joint angle {theta:.4f} left workspace [{th_lo}, {th_hi}] at t={t_end:.6f} s"
            )
        return x_f, v_f, theta, theta_dot

    def kept_step(state, out, h, t_end):
        """(end state, its stage 1) of the RK4 step of length h from `state`,
        whose stage 1 is `out`, if the step is kept, else None."""
        end = rk4(*state, out[0], out[1], h, t_end, _contact_branch(state[0], state[1]))
        if end is None:
            return None
        out = stage(*end, *spring)
        if next_phase(phase, out[11] * end[3], end[0], end[1], out[6], cc) is not phase:
            return None
        return end, out

    def advance(state, out, t):
        """(end state, its stage 1) of the row's step from `state` at t,
        whose stage 1 is `out`, across the switches of the dynamics inside it."""
        nonlocal phase, spring, t_stop
        start = 0.0  # offset of `state` into the step
        while True:
            kept = kept_step(state, out, dt - start, t + dt)
            if kept is not None:
                return kept
            lo, hi, s_lo, out_lo = start, dt, state, out
            for _ in range(EVENT_BISECTIONS):
                mid = 0.5 * (lo + hi)
                kept = kept_step(s_lo, out_lo, mid - lo, t + mid)
                if kept is None:
                    hi = mid
                else:
                    lo = mid
                    s_lo, out_lo = kept
            state = rk4(*s_lo, out_lo[0], out_lo[1], hi - lo, t + hi)
            out = stage(*state, *spring)
            new_phase = next_phase(phase, out[11] * state[3], state[0], state[1], out[6], cc)
            if new_phase is not phase:
                phase = new_phase
                if phase == FLIGHT:
                    t_stop = min(t_stop, t + hi + sim_config.post_liftoff_time)
                spring = spring_gains(phase, cc)
                out = stage(*state, *spring)
            if hi == dt:
                return state, out
            start = hi

    # Free fall: rows 0..k0-1 in closed form, k0 the last step above the
    # bed, which the foot is below by step (fall time)/dt + 2.  Above the
    # bed the kernel's outputs do not depend on (x_f, v_f).
    n_fall = min(n_max, int(sim_config.drop_speed / GRAVITY / dt) + 2)
    t_fall = np.arange(n_fall + 1) * dt
    x_fall = drop_h - 0.5 * GRAVITY * t_fall * t_fall
    below = np.flatnonzero(x_fall < 0.0)
    k0 = int(below[0]) - 1 if below.size else n_fall
    a_f, _, a_b, fs, fd, fa, ft, _, tau, f_leg, length, _ = stage(drop_h, 0.0, theta0, 0.0, *spring)
    t_pre, x_pre = t_fall[:k0], x_fall[:k0]
    v_pre = 0.0 - GRAVITY * t_pre  # +0.0 at t = 0
    prefix = (
        t_pre, x_pre + length + mount, v_pre, x_pre, v_pre, theta0, 0.0, a_b, a_f,
        fs, fd, fa, ft, tau, f_leg, float(phase),
    )

    t = float(t_fall[k0])
    state = (float(x_fall[k0]), 0.0 - GRAVITY * t, theta0, 0.0)
    rows: list[tuple] = []
    append = rows.append
    clamp_events = 0
    out = stage(*state, *spring)

    for step in range(k0, n_max):
        x_f, v_f, theta, theta_dot = state
        a_f, thdd, a_b, fs, fd, fa, ft, clamped, tau, f_leg, length, jac = out
        if clamped:
            clamp_events += 1
        append((
            t, x_f + length + mount, v_f + jac * theta_dot, x_f, v_f, theta, theta_dot, a_b, a_f,
            fs, fd, fa, ft, tau, f_leg, float(phase),
        ))
        t_end = (step + 1) * dt
        if t_end >= t_stop:  # the last row's step would not be logged
            break
        state, out = advance(state, out, t)  # stage 1 at its end is the next row's
        t = t_end

    table = np.empty((k0 + len(rows), len(prefix)))
    for column, values in zip(table[:k0].T, prefix):
        column[:] = values
    if rows:  # filled from the tuples in place, no second copy; [] does not broadcast
        table[k0:] = rows
    *columns, phase_col = table.T
    truth = TruthSeries(*columns, phase_id=phase_col.astype(int))
    events = detect_events(truth)
    frames = sensor_frames(
        truth.t, truth.theta, truth.theta_dot, truth.acc_b, truth.acc_f,
        truth.x_b, truth.tau, truth.f_total, noise, lk, rng, dt,
    )
    return TrialLog(
        frames=frames,
        truth=truth,
        events=events,
        seed=seed,
        clamp_events=clamp_events,
    )


def run_constant_speed_intrusion(
    speed: float,
    z_max: float,
    terrain_params: TerrainParams,
    noise_config: NoiseConfig | None = None,
    seed=0,
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
    dt = 1.0 / INTRUSION_RATE_HZ
    n = int(math.floor(z_max / (speed * dt))) + 1
    t = np.arange(n) * dt
    depth = np.minimum(speed * t, z_max)
    force = constant_speed_force(depth, speed, terrain_params)
    if noise.enabled and noise.loadcell_sigma > 0.0:
        force = force + rng.normal(0.0, noise.loadcell_sigma, size=n)
    return IntrusionLog(speed=float(speed), t=t, depth=depth, force=force)
