import math

import numpy as np
import pytest

from hopperlab.constants import GRAVITY
from hopperlab.controller import ControllerConfig, Phase, PhaseName
from hopperlab.errors import ConfigError, TrialMalformedError
from hopperlab.linkage import LinkageParams, reduced_dynamics_coeffs, solve_theta_for_length
from hopperlab.simulator import (
    NoiseConfig,
    SimConfig,
    TruthSeries,
    detect_events,
    dynamics_derivative,
    mechanical_energy,
    run_constant_speed_intrusion,
    run_hop_trial,
    sensor_frames,
    state_from_foot_channel,
)
from hopperlab.terrain import TerrainParams, terrain_force

from conftest import decimate_truth


def _flight_state(x_f, v_f, theta, theta_dot, linkage, t=0.0):
    return state_from_foot_channel(x_f, v_f, theta, theta_dot, Phase(PhaseName.FLIGHT, 0.0), t, linkage)


def test_ballistic_free_fall(linkage, terrain):
    state = _flight_state(0.05, 0.0, 0.7, 0.0, linkage)
    deriv = dynamics_derivative(state, 0.0, terrain, linkage)
    assert deriv.a_b == pytest.approx(-GRAVITY, rel=1e-12)
    assert deriv.a_f == pytest.approx(-GRAVITY, rel=1e-12)
    assert deriv.force.f_total == 0.0


def test_static_balance(linkage, terrain):
    # foot loaded so the bed carries the whole weight, torque holds the body:
    # k*z = m_f*g + F_leg with F_leg = m_b*g
    from hopperlab.linkage import weight_holding_torque

    z_eq = (linkage.m_body + linkage.m_foot) * GRAVITY / terrain.k_stiff
    theta = 0.8
    tau = weight_holding_torque(theta, linkage)
    state = _flight_state(-z_eq, 0.0, theta, 0.0, linkage)
    deriv = dynamics_derivative(state, tau, terrain, linkage)
    assert deriv.a_f == pytest.approx(0.0, abs=1e-10)
    assert deriv.theta_ddot == pytest.approx(0.0, abs=1e-9)
    f_leg = linkage.m_body * GRAVITY
    assert terrain.k_stiff * z_eq == pytest.approx(linkage.m_foot * GRAVITY + f_leg, rel=1e-12)


def test_derivative_force_matches_terrain_law(linkage, terrain):
    # the returned decomposition must be the reaction law at (z, zd, -a_f)
    rng = np.random.default_rng(3)
    for _ in range(50):
        state = _flight_state(
            rng.uniform(-0.05, 0.01),
            rng.uniform(-1.5, 0.5),
            rng.uniform(0.5, 1.2),
            rng.uniform(-5.0, 5.0),
            linkage,
        )
        deriv = dynamics_derivative(state, rng.uniform(-0.5, 2.0), terrain, linkage)
        z = max(0.0, -state.x_f)
        law = terrain_force(z, -state.v_f, -deriv.a_f, terrain)
        assert deriv.force.f_total == pytest.approx(law.f_total, abs=1e-9)
        assert deriv.force.f_added == pytest.approx(law.f_added, abs=1e-9)


def test_ballistic_energy_conservation(linkage):
    # contact and actuation disabled: RK4 drift < 1e-8 over 1 s at dt = 1e-4
    import hopperlab.simulator as sim

    terrain_off = TerrainParams(surface_height=-10.0)
    x_f, v_f, theta, theta_dot = 0.5, 0.2, 0.7, 0.4
    dt = 1e-4
    e0 = mechanical_energy(_flight_state(x_f, v_f, theta, theta_dot, linkage), linkage)

    def f(y):
        a = sim._accelerations(y[0], y[1], y[2], y[3], 0.0, linkage, terrain_off)
        return np.array([y[1], a[0], y[3], a[1]])

    y = np.array([x_f, v_f, theta, theta_dot])
    for _ in range(10000):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    e1 = mechanical_energy(_flight_state(*y, linkage), linkage)
    assert abs(e1 - e0) / abs(e0) < 1e-8


def test_touchdown_speed_matches_projectile(linkage, terrain, controller):
    # h = v^2/(2g) drop arrives within 1% of the target speed
    log = run_hop_trial(
        SimConfig(drop_speed=1.2), controller, terrain, linkage, seed=0, noise_config=NoiseConfig.noiseless()
    )
    assert log.events.v_td == pytest.approx(1.2, rel=0.01)


def test_low_release_touchdown_speed(linkage, terrain, controller):
    # a ~2 mm release lands near 0.2 m/s
    v = math.sqrt(2.0 * GRAVITY * 0.002)
    log = run_hop_trial(
        SimConfig(drop_speed=v), controller, terrain, linkage, seed=0, noise_config=NoiseConfig.noiseless()
    )
    assert log.events.v_td == pytest.approx(0.198, abs=0.005)


def test_trial_determinism(linkage, terrain, controller):
    a = run_hop_trial(SimConfig(drop_speed=0.8), controller, terrain, linkage, seed=42)
    b = run_hop_trial(SimConfig(drop_speed=0.8), controller, terrain, linkage, seed=42)
    assert np.array_equal(a.truth.x_f, b.truth.x_f)
    assert np.array_equal(a.truth.f_total, b.truth.f_total)
    fa = a.frames
    fb = b.frames
    for col in ("encoder_theta", "tof_height", "loadcell_force", "imu_foot_acc"):
        assert np.array_equal(getattr(fa, col), getattr(fb, col))


def test_kinematic_closure(noiseless_trial, linkage):
    from hopperlab.linkage import leg_length

    truth = noiseless_trial.truth
    for i in range(0, len(truth.t), 500):
        expected = truth.x_f[i] + leg_length(truth.theta[i], linkage) + linkage.mount_offset
        assert truth.x_b[i] == pytest.approx(expected, abs=1e-12)


def test_contact_consistency(noiseless_trial, terrain):
    # logged force equals the reaction law at the logged (z, zd, zdd)
    truth = noiseless_trial.truth
    z = -truth.x_f
    for i in range(0, len(truth.t), 37):
        law = terrain_force(max(0.0, z[i]), -truth.v_f[i], -truth.acc_f[i], terrain)
        assert truth.f_total[i] == pytest.approx(law.f_total, abs=1e-9)
    assert noiseless_trial.clamp_events == 0


def test_reduced_dynamics_consistency(noiseless_trial, linkage):
    # single-channel equation holds on the logged trajectory
    truth = noiseless_trial.truth
    worst = 0.0
    for i in range(0, len(truth.t), 11):
        co = reduced_dynamics_coeffs(truth.theta[i], linkage)
        lhs = (
            co.M_f * truth.acc_f[i]
            + co.M_f * GRAVITY
            + co.beta * truth.tau[i]
            + co.C_coef * truth.theta_dot[i] ** 2
        )
        worst = max(worst, abs(lhs - truth.f_total[i]))
    assert worst < 1e-3


def test_reduced_dynamics_consistency_finite_difference(noiseless_trial, linkage):
    # same identity with accelerations recovered by differencing the log
    truth = noiseless_trial.truth
    dt = truth.t[1] - truth.t[0]
    acc_fd = np.gradient(truth.v_f, dt)
    ids = truth.phase_id
    switch = np.flatnonzero(np.diff(ids) != 0)
    exclude = set()
    for s in switch:
        exclude.update(range(s - 2, s + 3))
    # contact on/off also breaks smoothness; keep strictly-in-stance samples
    z = -truth.x_f
    worst = 0.0
    for i in range(2, len(truth.t) - 2, 5):
        if i in exclude or z[i] <= 1e-4 or abs(truth.v_f[i]) < 1e-3:
            continue
        co = reduced_dynamics_coeffs(truth.theta[i], linkage)
        lhs = (
            co.M_f * acc_fd[i]
            + co.M_f * GRAVITY
            + co.beta * truth.tau[i]
            + co.C_coef * truth.theta_dot[i] ** 2
        )
        worst = max(worst, abs(lhs - truth.f_total[i]))
    assert worst < 1e-3


def test_stride_phenomenology(noiseless_trial):
    truth = noiseless_trial.truth
    ev = noiseless_trial.events
    dt = truth.t[1] - truth.t[0]
    i_td = int(round(ev.t_td / dt))
    # (1) the foot decelerates over finite time (> 10 ms), not instantaneously
    after = truth.v_f[i_td:]
    i_stop = np.flatnonzero(after >= 0.0)[0]
    assert i_stop * dt > 0.01
    # (2) after the stiffness switch the body rises while the foot still sinks
    i_ce = int(round(ev.t_ce / dt))
    i_lo = int(round(ev.t_lo / dt))
    window = slice(i_ce + 5, i_lo)
    assert np.any((truth.v_b[window] > 0.0) & (truth.v_f[window] < 0.0))
    # (3) liftoff happens below the original surface
    i_lo = int(round(ev.t_lo / dt))
    assert truth.x_f[i_lo] < 0.0
    # stance duration is in the SLIP-on-sand range
    assert 0.1 < ev.t_lo - ev.t_td < 0.5


def test_sensor_frame_timing(noiseless_trial):
    frames = noiseless_trial.frames
    period = 1e-3
    for k, t in enumerate(frames.t.tolist()):
        assert t == k * period


def test_noiseless_sensors_equal_truth(noiseless_trial, linkage):
    truth_dec = decimate_truth(noiseless_trial, n=len(noiseless_trial.frames))
    frames = noiseless_trial.frames
    assert np.array_equal(frames.encoder_theta, truth_dec["theta"])
    assert np.array_equal(frames.encoder_theta_dot, truth_dec["theta_dot"])
    assert np.array_equal(frames.tof_height, truth_dec["x_b"])
    assert np.array_equal(frames.imu_body_acc, truth_dec["acc_b"])
    assert np.array_equal(frames.imu_foot_acc, truth_dec["acc_f"])
    assert np.array_equal(frames.loadcell_force, truth_dec["f_total"])
    assert np.allclose(frames.motor_current * linkage.torque_constant, truth_dec["tau"])


def test_sensor_noise_statistics(linkage):
    # generated ToF noise has the configured spread; IMU bias shows as a mean
    noise = NoiseConfig(tof_sigma=5e-3)
    n = 10000
    const = [np.full(n, v) for v in (0.8, 0.0, 1.5, -2.0, 0.55, 0.1, 5.0)]
    frames = sensor_frames(np.arange(n) * 1e-3, *const, noise, linkage, np.random.default_rng(0), 1e-3)
    bias_body = np.random.default_rng(0).uniform(-noise.imu_bias_max, noise.imu_bias_max)
    tof_err = frames.tof_height - 0.55
    imu_err = frames.imu_body_acc - 1.5
    assert abs(np.std(tof_err) - 5e-3) / 5e-3 < 0.1
    assert abs(np.mean(imu_err) - bias_body) < 0.01


def test_sensor_frames_one_row(linkage):
    state = state_from_foot_channel(0.0, -0.5, 0.8, 0.1, Phase(PhaseName.FLIGHT, 0.0), 0.25, linkage)
    frame = sensor_frames(
        *_one_row(state.t, state.theta, state.theta_dot, -9.81, -9.81, state.x_b, 0.05, 0.0),
        NoiseConfig.noiseless(), linkage, np.random.default_rng(0), 1e-3,
    )
    assert frame.encoder_theta[0] == state.theta
    assert frame.loadcell_force[0] == 0.0
    assert frame.motor_current[0] == pytest.approx(0.05 / linkage.torque_constant)


def test_detect_events_ordering(noiseless_trial):
    ev = noiseless_trial.events
    assert ev.t_td < ev.t_ce < ev.t_lo


def test_detect_events_no_drop_starts_at_zero(linkage, terrain, controller):
    log = run_hop_trial(
        SimConfig(drop_speed=0.0), controller, terrain, linkage, seed=0, noise_config=NoiseConfig.noiseless()
    )
    assert log.events.t_td <= 1e-3


def test_detect_events_pure_flight_raises(noiseless_trial):
    truth = noiseless_trial.truth
    n = 200
    flight = TruthSeries(
        t=truth.t[:n],
        x_b=np.full(n, 0.9),
        v_b=np.zeros(n),
        x_f=np.full(n, 0.5),
        v_f=np.zeros(n),
        theta=np.full(n, 0.7),
        theta_dot=np.zeros(n),
        acc_b=np.zeros(n),
        acc_f=np.zeros(n),
        f_static=np.zeros(n),
        f_drag=np.zeros(n),
        f_added=np.zeros(n),
        f_total=np.zeros(n),
        tau=np.zeros(n),
        f_leg=np.zeros(n),
        phase_id=np.zeros(n, dtype=int),
    )
    with pytest.raises(TrialMalformedError):
        detect_events(flight)


def test_intrusion_constant_speed_force(terrain):
    # slowest rig condition: force at 5 cm equals k*z + g_a(z)*v^2, noise-free
    from hopperlab.terrain import added_mass_profile

    log = run_constant_speed_intrusion(0.022, 0.05, terrain)
    assert log.depth[-1] == pytest.approx(0.05, abs=1e-4)
    _, grad = added_mass_profile(log.depth[-1], terrain)
    expected = terrain.k_stiff * log.depth[-1] + grad * 0.022**2
    assert log.force[-1] == pytest.approx(expected, rel=1e-12)


def test_intrusion_below_threshold_drag_negligible(terrain):
    # below the inertial threshold the drag term is < 1% of the static term
    from hopperlab.terrain import added_mass_profile, inertial_threshold

    v = inertial_threshold(terrain.d_grain)
    _, grad = added_mass_profile(0.02, terrain)
    assert grad * v * v / (terrain.k_stiff * 0.02) < 0.01


def test_intrusion_determinism(terrain):
    noise = NoiseConfig()
    a = run_constant_speed_intrusion(0.5, 0.05, terrain, noise_config=noise, seed=3)
    b = run_constant_speed_intrusion(0.5, 0.05, terrain, noise_config=noise, seed=3)
    assert np.array_equal(a.force, b.force)


def test_intrusion_validation(terrain):
    with pytest.raises(ValueError):
        run_constant_speed_intrusion(0.0, 0.05, terrain)
    with pytest.raises(ValueError):
        run_constant_speed_intrusion(0.5, -0.01, terrain)


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(dt_truth=3e-4, sensor_rate_hz=1000.0)
    with pytest.raises(ValueError):
        SimConfig(t_max=-1.0)


def test_blowup_reported_with_time(linkage, terrain, controller):
    # a drop beyond the leg stroke drives the joint out of its workspace;
    # the error names the offending time
    from hopperlab.errors import SimulationError

    with pytest.raises(SimulationError, match=r"t="):
        run_hop_trial(SimConfig(drop_speed=3.0), controller, terrain, linkage, seed=0)


# ------------------------------------------------- fused plant kernel

from hypothesis import example, given, settings, strategies as st

from hopperlab.linkage import _geometry
from hopperlab.simulator import plant_kernel
from hopperlab.terrain import added_mass_profile

_LK = LinkageParams()
_TR = TerrainParams()


def _reference_accelerations(x_f, v_f, theta, theta_dot, tau, lk, tr):
    """The plant equations written out term by term, one geometry call per use."""
    _, jac, curv = _geometry(theta, lk.l_upper, lk.l_lower * lk.l_lower)
    mb = lk.m_body
    mf = lk.m_foot
    m00 = mb + mf
    m01 = mb * jac
    m11 = mb * jac * jac + 2.0 * lk.rotor_inertia
    thd_sq = theta_dot * theta_dot
    rhs_f = -(mb + mf) * GRAVITY - mb * curv * thd_sq
    rhs_t = -2.0 * tau - mb * jac * curv * thd_sq - mb * GRAVITY * jac

    z = tr.surface_height - x_f
    z_dot = -v_f
    penetrating = z > 0.0 and z_dot >= 0.0
    withdrawing = z > 0.0 and z_dot < 0.0
    m_a = dm_a = 0.0
    if penetrating:
        m_a, dm_a = added_mass_profile(z, tr)
        m00 += m_a
        rhs_f += tr.k_stiff * z + dm_a * z_dot * z_dot
    elif withdrawing:
        rhs_f += tr.k_stiff * z

    det = m00 * m11 - m01 * m01
    a_f = (rhs_f * m11 - m01 * rhs_t) / det
    theta_ddot = (m00 * rhs_t - m01 * rhs_f) / det

    clamped = False
    if penetrating:
        f_static = tr.k_stiff * z
        f_drag = dm_a * z_dot * z_dot
        f_added = m_a * (-a_f)
        f_total = f_static + f_drag + f_added
        if f_total < 0.0:
            clamped = True
            m00 = mb + mf
            rhs_f = -(mb + mf) * GRAVITY - mb * curv * thd_sq
            det = m00 * m11 - m01 * m01
            a_f = (rhs_f * m11 - m01 * rhs_t) / det
            theta_ddot = (m00 * rhs_t - m01 * rhs_f) / det
            f_static = f_drag = f_added = f_total = 0.0
    elif withdrawing:
        f_static = tr.k_stiff * z
        f_drag = f_added = 0.0
        f_total = f_static
    else:
        f_static = f_drag = f_added = f_total = 0.0

    a_b = a_f + jac * theta_ddot + curv * thd_sq
    return a_f, theta_ddot, a_b, f_static, f_drag, f_added, f_total, clamped


def _reference_stage(x_f, v_f, theta, theta_dot, k_spr, l0_spr, b_spr, lk, tr):
    length, jac, _ = _geometry(theta, lk.l_upper, lk.l_lower * lk.l_lower)
    f_leg = k_spr * (l0_spr - length) - b_spr * (jac * theta_dot)
    tau = 0.5 * f_leg * abs(jac)
    return _reference_accelerations(x_f, v_f, theta, theta_dot, tau, lk, tr) + (tau, f_leg, length, jac)


def _branch(x_f, v_f, theta, theta_dot, tau):
    z = _TR.surface_height - x_f
    if z <= 0.0:
        return "free"
    if v_f > 0.0:
        return "withdrawing"
    clamped = _reference_accelerations(x_f, v_f, theta, theta_dot, tau, _LK, _TR)[7]
    return "clamped" if clamped else "penetrating"


# (x_f, v_f, theta, theta_dot, tau), one per branch of the contact law
_BRANCH_EXAMPLES = {
    "free": (0.02, -0.5, 0.8, 3.0, 0.4),
    "penetrating": (-0.01, -0.8, 0.9, -4.0, 1.2),
    "withdrawing": (-0.01, 0.6, 0.7, 5.0, 0.9),
    "clamped": (-0.00849720533105161, -1.099321266701426, 1.2250377648878472, -16.161467460375153, -8.959573978711807),
}


def _bits(values):
    return [repr(v) for v in values]


def test_branch_examples_cover_every_contact_branch():
    assert {name: _branch(*args) for name, args in _BRANCH_EXAMPLES.items()} == {
        name: name for name in _BRANCH_EXAMPLES
    }


@settings(max_examples=400, deadline=None)
@given(
    x_f=st.floats(-0.08, 0.05),
    v_f=st.floats(-3.0, 3.0),
    theta=st.floats(_LK.theta_min, _LK.theta_max),
    theta_dot=st.floats(-30.0, 30.0),
    tau=st.floats(-10.0, 10.0),
)
@example(*_BRANCH_EXAMPLES["free"])
@example(*_BRANCH_EXAMPLES["penetrating"])
@example(*_BRANCH_EXAMPLES["withdrawing"])
@example(*_BRANCH_EXAMPLES["clamped"])
@example(x_f=-0.01, v_f=0.0, theta=0.8, theta_dot=0.0, tau=0.5)
@example(x_f=0.0, v_f=-1.0, theta=0.8, theta_dot=0.0, tau=0.5)
def test_plant_kernel_matches_reference_bit_for_bit(x_f, v_f, theta, theta_dot, tau):
    stage = plant_kernel(_LK, _TR)
    got = stage(x_f, v_f, theta, theta_dot, 0.0, 0.0, 0.0, tau)
    assert _bits(got[:8]) == _bits(_reference_accelerations(x_f, v_f, theta, theta_dot, tau, _LK, _TR))
    assert got[8] == tau and math.isnan(got[9])


@settings(max_examples=300, deadline=None)
@given(
    x_f=st.floats(-0.08, 0.05),
    v_f=st.floats(-3.0, 3.0),
    theta=st.floats(_LK.theta_min, _LK.theta_max),
    theta_dot=st.floats(-30.0, 30.0),
    k_spr=st.floats(100.0, 800.0),
    l0_spr=st.floats(0.3, 0.44),
    b_spr=st.floats(0.0, 30.0),
)
def test_plant_kernel_spring_stage_matches_reference(x_f, v_f, theta, theta_dot, k_spr, l0_spr, b_spr):
    stage = plant_kernel(_LK, _TR)
    got = stage(x_f, v_f, theta, theta_dot, k_spr, l0_spr, b_spr)
    want = _reference_stage(x_f, v_f, theta, theta_dot, k_spr, l0_spr, b_spr, _LK, _TR)
    assert _bits(got) == _bits(want)


def test_truth_log_matches_kernel_at_logged_states(noisy_trial, linkage, terrain, controller):
    # every logged row is the kernel evaluated at that row's state and phase spring
    stage = plant_kernel(linkage, terrain)
    truth = noisy_trial.truth
    springs = {
        int(PhaseName.FLIGHT): (controller.k_compress, controller.l0_compress, controller.b_flight),
        int(PhaseName.COMPRESSION): (controller.k_compress, controller.l0_compress, controller.b_stance),
        int(PhaseName.EXTENSION): (controller.k_extend, controller.l0_extend, controller.b_stance),
    }
    for i in range(0, len(truth), 97):
        out = stage(truth.x_f[i], truth.v_f[i], truth.theta[i], truth.theta_dot[i], *springs[truth.phase_id[i]])
        a_f, thdd, a_b, fs, fd, fa, ft, _, tau, f_leg, length, jac = out
        assert (a_f, a_b, fs, fd, fa, ft, tau, f_leg) == (
            truth.acc_f[i], truth.acc_b[i], truth.f_static[i], truth.f_drag[i],
            truth.f_added[i], truth.f_total[i], truth.tau[i], truth.f_leg[i],
        )
        assert truth.x_b[i] == truth.x_f[i] + length + linkage.mount_offset


# ------------------------------------------------- one-pass sensor model

FRAME_COLUMNS = (
    "t", "encoder_theta", "encoder_theta_dot", "imu_body_acc",
    "imu_foot_acc", "tof_height", "motor_current", "loadcell_force",
)


def _one_row(*values):
    """One-sample truth arrays for `sensor_frames`."""
    return tuple(np.array([v], dtype=float) for v in values)


def _assert_frames_equal(frames, rows):
    """Columnar frames equal per-frame row tuples bit for bit, column by column
    (`.tobytes()` tells -0.0 from 0.0 and matches NaN with NaN)."""
    assert len(frames) == len(rows)
    for name, want in zip(FRAME_COLUMNS, zip(*rows)):
        assert getattr(frames, name).tobytes() == np.array(want, dtype=float).tobytes(), name


class _ReferenceSampler:
    """The per-frame sensor model, one scalar draw per channel per frame,
    with a streaming 5-sample encoder differentiator; one row tuple per frame."""

    def __init__(self, noise, linkage, rng, dt):
        self.noise, self.linkage, self.rng, self.dt = noise, linkage, rng, dt
        self.bias_body = self.bias_foot = 0.0
        if noise.enabled:
            self.bias_body = rng.uniform(-noise.imu_bias_max, noise.imu_bias_max)
            self.bias_foot = rng.uniform(-noise.imu_bias_max, noise.imu_bias_max)
        self.history = []

    def sample(self, t, theta, theta_dot, acc_body, acc_foot, x_b, tau, contact_force):
        n, rng = self.noise, self.rng
        current = tau / self.linkage.torque_constant
        if not n.enabled:
            return (t, theta, theta_dot, acc_body, acc_foot, x_b, current, contact_force)
        enc = theta
        if n.encoder_resolution > 0.0:
            enc = round(theta / n.encoder_resolution) * n.encoder_resolution
        enc += rng.normal(0.0, n.encoder_sigma) if n.encoder_sigma > 0.0 else 0.0
        self.history.append(enc)
        k = len(self.history) - 1
        w = min(5, k)
        rate = (self.history[-1] - self.history[-1 - w]) / (w * self.dt) if k else 0.0
        return (
            t,
            enc,
            rate,
            acc_body + self.bias_body + rng.normal(0.0, n.imu_sigma),
            acc_foot + self.bias_foot + rng.normal(0.0, n.imu_sigma),
            x_b + rng.normal(0.0, n.tof_sigma),
            current + rng.normal(0.0, n.current_sigma),
            contact_force + rng.normal(0.0, n.loadcell_sigma),
        )


def _reference_frames(log, sim, noise, linkage, seed):
    sampler = _ReferenceSampler(noise, linkage, np.random.default_rng(seed), sim.sensor_period)
    tr = log.truth
    rows = zip(*(col.tolist() for col in (
        tr.theta, tr.theta_dot, tr.acc_b, tr.acc_f, tr.x_b, tr.tau, tr.f_total,
    )))
    return [
        sampler.sample((step // sim.decimation) * sim.sensor_period, *row)
        for step, row in enumerate(rows)
        if step % sim.decimation == 0
    ]


_NOISE_MODES = {
    "noisy": NoiseConfig(),
    "noiseless": NoiseConfig.noiseless(),
    "encoder_sigma_0": NoiseConfig(encoder_sigma=0.0),
}


@pytest.mark.parametrize("mode", sorted(_NOISE_MODES))
@pytest.mark.parametrize("speed, seed", [(0.5, 7), (1.2, [3, 1200, 375])])
def test_trial_frames_match_per_frame_reference(mode, speed, seed, linkage, terrain, controller):
    noise = _NOISE_MODES[mode]
    sim = SimConfig(drop_speed=speed)
    log = run_hop_trial(sim, controller, terrain, linkage, seed=seed, noise_config=noise)
    _assert_frames_equal(log.frames, _reference_frames(log, sim, noise, linkage, seed))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    resolution=st.sampled_from([0.0, 2.0 * math.pi / 4096.0]),
    encoder_sigma=st.sampled_from([0.0, 1e-3]),
    enabled=st.booleans(),
)
def test_sensor_frames_match_per_frame_reference(n, seed, resolution, encoder_sigma, enabled):
    noise = NoiseConfig(enabled=enabled, encoder_resolution=resolution, encoder_sigma=encoder_sigma)
    inputs = np.random.default_rng(seed + 1).uniform(0.5, 1.2, size=(7, n))
    t = np.arange(n) * 1e-3
    got = sensor_frames(t, *inputs, noise, _LK, np.random.default_rng(seed), 1e-3)
    ref = _ReferenceSampler(noise, _LK, np.random.default_rng(seed), 1e-3)
    want = [ref.sample(k * 1e-3, *inputs[:, k].tolist()) for k in range(n)]
    _assert_frames_equal(got, want)
    theta, theta_dot, acc_body, acc_foot, x_b, tau, force = inputs[:, 0].tolist()
    one = sensor_frames(
        *_one_row(0.0, theta, theta_dot, acc_body, acc_foot, x_b, tau, force),
        noise, _LK, np.random.default_rng(seed), 1e-3,
    )
    _assert_frames_equal(one, want[:1])
