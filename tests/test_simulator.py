import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest

from hopperlab.constants import GRAVITY
from hopperlab.controller import ControllerConfig, PhaseName
from hopperlab.errors import TrialMalformedError
from hopperlab.linkage import LinkageParams, leg_length
from hopperlab.simulator import (
    NoiseConfig,
    SimConfig,
    TruthSeries,
    detect_events,
    plant_kernel,
    run_constant_speed_intrusion,
    run_hop_trial,
    sensor_frames,
)
from hopperlab.terrain import TerrainParams

from reference import (
    added_mass_profile,
    contact_branch,
    mechanical_energy,
    reduced_dynamics_coeffs,
    terrain_force,
    weight_holding_torque,
)


def test_ballistic_free_fall(linkage, terrain):
    a_f, _, a_b, _, _, _, f_total, *_ = plant_kernel(linkage, terrain)(0.05, 0.0, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert a_b == pytest.approx(-GRAVITY, rel=1e-12)
    assert a_f == pytest.approx(-GRAVITY, rel=1e-12)
    assert f_total == 0.0


def test_static_balance(linkage, terrain):
    # foot loaded so the bed carries the whole weight, torque holds the body:
    # k*z = m_f*g + F_leg with F_leg = m_b*g
    z_eq = (linkage.m_body + linkage.m_foot) * GRAVITY / terrain.k_stiff
    theta = 0.8
    tau = weight_holding_torque(theta, linkage)
    a_f, theta_ddot, *_ = plant_kernel(linkage, terrain)(-z_eq, 0.0, theta, 0.0, 0.0, 0.0, 0.0, tau)
    assert a_f == pytest.approx(0.0, abs=1e-10)
    assert theta_ddot == pytest.approx(0.0, abs=1e-9)
    f_leg = linkage.m_body * GRAVITY
    assert terrain.k_stiff * z_eq == pytest.approx(linkage.m_foot * GRAVITY + f_leg, rel=1e-12)


def test_derivative_force_matches_terrain_law(linkage, terrain):
    # the returned decomposition must be the reaction law at (z, zd, -a_f)
    rng = np.random.default_rng(3)
    stage = plant_kernel(linkage, terrain)
    for _ in range(50):
        x_f = rng.uniform(-0.05, 0.01)
        v_f = rng.uniform(-1.5, 0.5)
        theta = rng.uniform(0.5, 1.2)
        theta_dot = rng.uniform(-5.0, 5.0)
        tau = rng.uniform(-0.5, 2.0)
        a_f, _, _, _, _, f_added, f_total, *_ = stage(x_f, v_f, theta, theta_dot, 0.0, 0.0, 0.0, tau)
        law = terrain_force(max(0.0, -x_f), -v_f, -a_f, terrain)
        assert f_total == pytest.approx(law.f_total, abs=1e-9)
        assert f_added == pytest.approx(law.f_added, abs=1e-9)


def test_ballistic_energy_conservation(linkage, terrain):
    # contact and actuation disabled: RK4 drift < 1e-8 over 1 s at dt = 1e-4;
    # the hopper flies 10 m above the bed, and its energy is evaluated at
    # the heights it would have without that lift
    lift = 10.0
    stage = plant_kernel(linkage, terrain)
    x_f, v_f, theta, theta_dot = 0.5, 0.2, 0.7, 0.4
    dt = 1e-4
    e0 = mechanical_energy(x_f, v_f, theta, theta_dot, linkage)

    def f(y):
        a = stage(y[0], y[1], y[2], y[3], 0.0, 0.0, 0.0, 0.0)
        return np.array([y[1], a[0], y[3], a[1]])

    y = np.array([x_f + lift, v_f, theta, theta_dot])
    for _ in range(10000):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    e1 = mechanical_energy(y[0] - lift, y[1], y[2], y[3], linkage)
    assert abs(e1 - e0) / abs(e0) < 1e-8


def test_mechanical_energy_on_arrays_matches_floats(noiseless_trial, linkage):
    truth = noiseless_trial.truth
    cols = (truth.x_f, truth.v_f, truth.theta, truth.theta_dot)
    energy = mechanical_energy(*cols, linkage)
    assert energy.shape == truth.t.shape
    each = [mechanical_energy(*row, linkage) for row in zip(*(c.tolist() for c in cols))]
    np.testing.assert_allclose(energy, each, rtol=1e-14, atol=0.0)
    # body height from the closure, as the truth log has it
    mb, mf = linkage.m_body, linkage.m_foot
    kinetic = 0.5 * mb * truth.v_b**2 + 0.5 * mf * truth.v_f**2 + linkage.rotor_inertia * truth.theta_dot**2
    np.testing.assert_allclose(energy, kinetic + GRAVITY * (mb * truth.x_b + mf * truth.x_f), rtol=1e-12)


def test_touchdown_speed_matches_projectile(linkage, terrain, controller, k_compress):
    # an h = v^2/(2g) drop reaches the bed at the target speed, whatever the step
    for steps in (1, 2, 10):
        log = run_hop_trial(
            _sim(steps), controller, terrain, linkage, 1.2, k_compress, seed=0, noise_config=NoiseConfig.noiseless()
        )
        assert log.events.v_td == pytest.approx(1.2, rel=1e-9), steps


def test_low_release_touchdown_speed(linkage, terrain, controller, k_compress):
    # a 2 mm release lands at sqrt(2 g 2 mm), about 0.198 m/s
    v = math.sqrt(2.0 * GRAVITY * 0.002)
    for steps in (1, 2, 10):
        log = run_hop_trial(
            _sim(steps), controller, terrain, linkage, v, k_compress, seed=0, noise_config=NoiseConfig.noiseless()
        )
        assert log.events.v_td == pytest.approx(v, rel=1e-9), steps


def test_trial_determinism(linkage, terrain, controller, k_compress):
    a = run_hop_trial(SimConfig(), controller, terrain, linkage, 0.8, k_compress, seed=42, noise_config=NoiseConfig())
    b = run_hop_trial(SimConfig(), controller, terrain, linkage, 0.8, k_compress, seed=42, noise_config=NoiseConfig())
    assert np.array_equal(a.truth.x_f, b.truth.x_f)
    assert np.array_equal(a.truth.f_total, b.truth.f_total)
    fa = a.frames
    fb = b.frames
    for col in ("encoder_theta", "tof_height", "loadcell_force", "imu_foot_acc"):
        assert np.array_equal(getattr(fa, col), getattr(fb, col))


def test_kinematic_closure(noiseless_trial, linkage):
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


def test_reduced_dynamics_consistency_finite_difference(linkage, terrain, controller):
    # same identity with accelerations recovered by differencing the log; the
    # differencing error scales with the step, so the log is taken at 1e-4 s
    truth = _noiseless_hop(0.8, 3.75, linkage, terrain, controller, sensor_rate_hz=1e4).truth
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
    truth = noiseless_trial.truth
    frames = noiseless_trial.frames
    assert np.array_equal(frames.encoder_theta, truth.theta)
    assert np.array_equal(frames.encoder_theta_dot, truth.theta_dot)
    assert np.array_equal(frames.tof_height, truth.x_b)
    assert np.array_equal(frames.imu_body_acc, truth.acc_b)
    assert np.array_equal(frames.imu_foot_acc, truth.acc_f)
    assert np.array_equal(frames.loadcell_force, truth.f_total)
    assert np.allclose(frames.motor_current * linkage.torque_constant, truth.tau)


def test_each_truth_row_is_a_frame(linkage, terrain, controller, k_compress):
    # the truth steps once per sensor period, at any rate: one frame per
    # truth row, at the row's time bit for bit
    for rate in (1000.0, 1500.0):
        log = run_hop_trial(
            SimConfig(sensor_rate_hz=rate), controller, terrain, linkage, 0.8, k_compress, seed=0,
            noise_config=NoiseConfig.noiseless(),
        )
        assert len(log.frames) == len(log.truth)
        assert log.frames.t.tobytes() == log.truth.t.tobytes(), rate
        assert log.truth.t[1] == 1.0 / rate


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
    theta = 0.8
    frame = sensor_frames(
        *_one_row(0.25, theta, 0.1, -9.81, -9.81, leg_length(theta, linkage), 0.05, 0.0),
        NoiseConfig.noiseless(), linkage, np.random.default_rng(0), 1e-3,
    )
    assert frame.encoder_theta[0] == theta
    assert frame.loadcell_force[0] == 0.0
    assert frame.motor_current[0] == pytest.approx(0.05 / linkage.torque_constant)


def test_detect_events_ordering(noiseless_trial):
    ev = noiseless_trial.events
    assert ev.t_td < ev.t_ce < ev.t_lo


def test_detect_events_no_drop_starts_at_zero(linkage, terrain, controller, k_compress):
    log = run_hop_trial(
        SimConfig(), controller, terrain, linkage, 0.0, k_compress, seed=0, noise_config=NoiseConfig.noiseless()
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
    log = run_constant_speed_intrusion(0.022, 0.05, terrain, NoiseConfig.noiseless(), seeds=[0])
    assert log.depth[-1] == pytest.approx(0.05, abs=1e-4)
    _, grad = added_mass_profile(log.depth[-1], terrain)
    expected = terrain.k_stiff * log.depth[-1] + grad * 0.022**2
    assert log.force.shape == (1, log.t.size)
    assert log.force[0, -1] == pytest.approx(expected, rel=1e-12)


def test_intrusion_below_threshold_drag_negligible(terrain):
    # below the inertial threshold the drag term is < 1% of the static term
    from hopperlab.terrain import inertial_threshold

    v = inertial_threshold(terrain.d_grain)
    _, grad = added_mass_profile(0.02, terrain)
    assert grad * v * v / (terrain.k_stiff * 0.02) < 0.01


def test_intrusion_determinism(terrain):
    noise = NoiseConfig()
    a = run_constant_speed_intrusion(0.5, 0.05, terrain, noise_config=noise, seeds=[3])
    b = run_constant_speed_intrusion(0.5, 0.05, terrain, noise_config=noise, seeds=[3])
    assert np.array_equal(a.force, b.force)


def test_intrusion_repeats_are_each_reproducible_on_their_own(terrain):
    # row r of a call with several seeds is, bit for bit, a one-seed call
    # with seed r: the repeats share the kinematics and nothing else
    noise = NoiseConfig()
    seeds = [[0, 500000], [1, 500000], 7]
    log = run_constant_speed_intrusion(0.5, 0.05, terrain, noise_config=noise, seeds=seeds)
    assert log.force.shape == (len(seeds), log.t.size)
    for row, seed in zip(log.force, seeds):
        alone = run_constant_speed_intrusion(0.5, 0.05, terrain, noise_config=noise, seeds=[seed])
        assert np.array_equal(alone.t, log.t) and np.array_equal(alone.depth, log.depth)
        assert np.array_equal(row.view(np.int64), alone.force[0].view(np.int64))
    assert not np.array_equal(log.force[0], log.force[1])


def test_intrusion_validation(terrain):
    with pytest.raises(ValueError):
        run_constant_speed_intrusion(0.0, 0.05, terrain, NoiseConfig.noiseless(), seeds=[0])
    with pytest.raises(ValueError):
        run_constant_speed_intrusion(0.5, -0.01, terrain, NoiseConfig.noiseless(), seeds=[0])


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(sensor_rate_hz=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_max=-1.0)


def test_blowup_reported_with_time(linkage, terrain, controller, k_compress):
    # a drop beyond the leg stroke drives the joint out of its workspace;
    # the error names the offending time
    from hopperlab.errors import SimulationError

    with pytest.raises(SimulationError, match=r"t="):
        run_hop_trial(SimConfig(), controller, terrain, linkage, 3.0, k_compress, seed=0, noise_config=NoiseConfig())


@pytest.mark.parametrize(
    "drop_speed, k_c, name",
    [
        (-0.1, 3.75, "drop_speed"), (math.nan, 3.75, "drop_speed"), (math.inf, 3.75, "drop_speed"),
        (0.8, 0.0, "k_compress"), (0.8, -1.0, "k_compress"), (0.8, math.nan, "k_compress"),
        (0.8, 5.01, "k_compress"),
    ],
)
def test_a_hop_condition_outside_its_domain_is_refused(linkage, terrain, controller, drop_speed, k_c, name):
    # the touchdown speed lies in [0, inf) and the compression stiffness in
    # (0, k_extend]: the default extension spring is 5 N/cm
    with pytest.raises(ValueError, match=f"^{name} = "):
        run_hop_trial(SimConfig(), controller, terrain, linkage, drop_speed, k_c * 100.0, seed=0, noise_config=NoiseConfig())


def test_a_hop_at_the_extension_stiffness_runs(linkage, terrain, controller):
    log = run_hop_trial(SimConfig(), controller, terrain, linkage, 0.8, controller.k_extend, seed=0, noise_config=NoiseConfig())
    assert log.events.t_td < log.events.t_ce < log.events.t_lo


# ------------------------------------------------- fused plant kernel

from hypothesis import example, given, settings, strategies as st

from hopperlab.linkage import _geometry

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

    z = -x_f
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


def test_plant_kernel_geometry_is_linkage_geometry_bit_for_bit():
    # the stage's inline geometry against `_geometry` on a dense grid of
    # angles: a reordered product changes the curvature at ~1 % of them,
    # which random draws rarely hit; at 20 rad/s the curvature reaches a_b
    stage = plant_kernel(_LK, _TR)
    for theta in np.linspace(_LK.theta_min, _LK.theta_max, 4001).tolist():
        args = (-0.01, -0.8, theta, 20.0, 375.0, 0.42, 3.0)
        assert _bits(stage(*args)) == _bits(_reference_stage(*args, _LK, _TR)), theta


def _branch(x_f, v_f, theta, theta_dot, tau):
    branch = ("free", "withdrawing", "penetrating")[contact_branch(x_f, v_f)]
    if branch != "penetrating":
        return branch
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


def _stage_args(x_f, v_f, theta, theta_dot, tau, spring):
    """Stage arguments at a state: the fixed torque `tau`, or a unit spring
    whose torque there is `tau` to rounding."""
    if not spring:
        return x_f, v_f, theta, theta_dot, 0.0, 0.0, 0.0, tau
    length, jac, _ = _geometry(theta, _LK.l_upper, _LK.l_lower * _LK.l_lower)
    return x_f, v_f, theta, theta_dot, 1.0, length + 2.0 * tau / abs(jac), 0.0


@pytest.mark.parametrize("name", list(_BRANCH_EXAMPLES))
def test_branch_examples_take_their_branch_under_a_spring(name):
    x_f, v_f = _BRANCH_EXAMPLES[name][:2]
    clamped = plant_kernel(_LK, _TR)(*_stage_args(*_BRANCH_EXAMPLES[name], spring=True))[7]
    taken = "free" if x_f >= 0.0 else "withdrawing" if v_f > 0.0 else "clamped" if clamped else "penetrating"
    assert taken == name


@settings(max_examples=400, deadline=None)
@given(
    x_f=st.floats(-0.08, 0.05),
    v_f=st.floats(-3.0, 3.0),
    theta=st.floats(_LK.theta_min, _LK.theta_max),
    theta_dot=st.floats(-30.0, 30.0),
    tau=st.floats(-10.0, 10.0),
    spring=st.booleans(),
)
@example(*_BRANCH_EXAMPLES["free"], False)
@example(*_BRANCH_EXAMPLES["penetrating"], False)
@example(*_BRANCH_EXAMPLES["withdrawing"], False)
@example(*_BRANCH_EXAMPLES["clamped"], False)
@example(*_BRANCH_EXAMPLES["free"], True)
@example(*_BRANCH_EXAMPLES["penetrating"], True)
@example(*_BRANCH_EXAMPLES["withdrawing"], True)
@example(*_BRANCH_EXAMPLES["clamped"], True)
def test_rates_only_stage_is_the_full_stage_rates_bit_for_bit(x_f, v_f, theta, theta_dot, tau, spring):
    # RK4 stages 2-4 take (a_f, theta_ddot) from the short return
    stage = plant_kernel(_LK, _TR)
    args = _stage_args(x_f, v_f, theta, theta_dot, tau, spring)
    rates = stage(*args, rates_only=True)
    assert type(rates) is tuple and _bits(rates) == _bits(stage(*args)[:2])


def test_truth_log_matches_kernel_at_logged_states(noisy_trial, linkage, terrain, controller, k_compress):
    # every logged row is the kernel evaluated at that row's state and phase spring
    stage = plant_kernel(linkage, terrain)
    truth = noisy_trial.truth
    springs = {
        int(PhaseName.FLIGHT): (k_compress, controller.l0_compress, controller.b_flight),
        int(PhaseName.COMPRESSION): (k_compress, controller.l0_compress, controller.b_stance),
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


# ------------------------------------------------- closed-form free fall

from hopperlab import simulator
from hopperlab.controller import next_phase, spring_gains
from hopperlab.linkage import solve_theta_for_length

TRUTH_COLUMNS = tuple(f.name for f in dataclasses.fields(TruthSeries))
F_TOTAL, X_B, V_F, PHASE_ID = (TRUTH_COLUMNS.index(name) for name in ("f_total", "x_b", "v_f", "phase_id"))
DEFAULT_GRID = [(v, k_c) for v in (0.5, 0.8, 1.0, 1.2) for k_c in (2.5, 3.75, 5.0)]
FINE_STEPS = 100  # RK4 steps per 1 kHz frame of the reference truth: 1e-5 s


def _sim(steps):
    """`SimConfig` whose truth takes `steps` RK4 steps per millisecond: its
    sensor rate is 1000 * steps Hz, and every `steps`-th truth row is at a
    1 kHz frame's time."""
    return SimConfig(sensor_rate_hz=1000.0 * steps)


def _prefix_rows(drop_speed, dt):
    """Closed-form rows: the foot is above the bed until t = v/g, and the
    loop starts at the last grid row at or before it."""
    return math.floor(drop_speed / GRAVITY / dt)


def _reference_truth(sim, controller, linkage, terrain, drop_speed, k_compress):
    """The truth table of the RK4 loop run from the release (t = 0), the
    free fall included, one row per step in `TruthSeries` column order."""
    stage = plant_kernel(linkage, terrain)
    dt = sim.sensor_period
    y = np.array([drop_speed**2 / (2.0 * GRAVITY), 0.0, solve_theta_for_length(controller.l0_compress, linkage), 0.0])
    phase = PhaseName.FLIGHT
    spring = spring_gains(phase, controller, k_compress)

    def derivative(y):
        a = stage(*y.tolist(), *spring)
        return np.array([y[1], a[0], y[3], a[1]])

    rows, f_prev, t, t_stop = [], 0.0, 0.0, sim.t_max
    for step in range(int(round(sim.t_max / dt))):
        x_f, v_f, theta, theta_dot = y.tolist()
        out = stage(x_f, v_f, theta, theta_dot, *spring)
        new = next_phase(phase, out[11] * theta_dot, x_f, v_f, f_prev, controller)
        if new != phase:
            phase = new
            if phase == PhaseName.FLIGHT:
                t_stop = min(t_stop, t + sim.post_liftoff_time)
            spring = spring_gains(phase, controller, k_compress)
            out = stage(x_f, v_f, theta, theta_dot, *spring)
        a_f, thdd, a_b, fs, fd, fa, ft, _, tau, f_leg, length, jac = out
        f_prev = ft
        rows.append((
            t, x_f + length + linkage.mount_offset, v_f + jac * theta_dot, x_f, v_f, theta, theta_dot,
            a_b, a_f, fs, fd, fa, ft, tau, f_leg, float(phase),
        ))
        k1 = np.array([v_f, a_f, theta_dot, thdd])
        k2 = derivative(y + 0.5 * dt * k1)
        k3 = derivative(y + 0.5 * dt * k2)
        k4 = derivative(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = (step + 1) * dt
        if t >= t_stop:
            break
    return np.array(rows)


def _table(truth):
    return np.column_stack([getattr(truth, name).astype(float) for name in TRUTH_COLUMNS])


def _noiseless_hop(drop_speed, k_c, linkage, terrain, controller, **sim):
    """A noiseless hop at `drop_speed` [m/s] and `k_c` [N/cm]."""
    return run_hop_trial(
        SimConfig(**sim), controller, terrain, linkage, drop_speed, k_c * 100.0, seed=0,
        noise_config=NoiseConfig.noiseless(),
    )


@functools.cache
def _oracle(drop_speed, k_c, steps, every):
    """Every `every`-th row of `_reference_truth` at one condition (k_c in
    N/cm) and `steps` RK4 steps per ms, with the events of all its rows;
    computed once."""
    table = _reference_truth(_sim(steps), ControllerConfig(), _LK, _TR, drop_speed, k_c * 100.0)
    *columns, phase = table.T
    return table[::every], detect_events(TruthSeries(*columns, phase_id=phase.astype(int)))


@functools.cache
def _located(drop_speed, k_c, steps, bisections=simulator.EVENT_BISECTIONS):
    """The noiseless truth table of `run_hop_trial` at one condition (k_c
    in N/cm) and `steps` RK4 steps per ms, with `bisections` halvings per
    switch; computed once."""
    with mock.patch.object(simulator, "EVENT_BISECTIONS", bisections):
        log = _noiseless_hop(drop_speed, k_c, _LK, _TR, ControllerConfig(), sensor_rate_hz=1000.0 * steps)
    return _table(log.truth)


def _fine(drop_speed, k_c):
    """The truth at `FINE_STEPS` steps per ms with 22 halvings
    (switches located to 2.4 ps)."""
    return _located(drop_speed, k_c, FINE_STEPS, 22)


def _frame_errors(drop_speed, k_c, steps):
    """Largest |error| of load-cell force [N] and body height [m] at the
    1 kHz frames of the truth at `steps` RK4 steps per ms, against `_fine`."""
    got = _located(drop_speed, k_c, steps)[::steps]
    ref = _fine(drop_speed, k_c)[::FINE_STEPS]
    n = min(len(got), len(ref))
    return np.abs(got[:n, [F_TOTAL, X_B]] - ref[:n, [F_TOTAL, X_B]]).max(axis=0)


@pytest.mark.parametrize(
    "drop_speed, k_c, recontact", [(1.2, 2.5, []), (0.5, 5.0, [0.40132])], ids=["1.2-2.5", "0.5-5.0"]
)
def test_located_truth_keeps_the_rows_of_the_grid(drop_speed, k_c, recontact):
    # the switches are located inside their steps, and the rows stay on the
    # k*dt grid with the phases of the truth at a finer step: 0.5 m/s,
    # 5 N/cm touches the bed again after liftoff, at 0.40132 s, and
    # compresses for less than a step
    log = _noiseless_hop(drop_speed, k_c, _LK, _TR, ControllerConfig())
    got = _table(log.truth)
    dt = SimConfig().sensor_period
    fine = _fine(drop_speed, k_c)[::FINE_STEPS]
    assert got.shape == fine.shape
    assert np.array_equal(got[:, PHASE_ID], fine[:, PHASE_ID]), "phase_id"
    # the loop starts at the last row above the bed; the next row touches down
    k0 = _prefix_rows(drop_speed, dt)
    assert log.truth.x_f[k0] >= 0.0 > log.truth.x_f[k0 + 1]
    assert log.events.t_td == log.truth.t[k0 + 1]
    # the release row is bit for bit the kernel at rest (v_f +0.0, not -0.0)
    want, _ = _oracle(drop_speed, k_c, 1, 1)
    assert got[0].tobytes() == want[0].tobytes()
    # a phase shorter than a step does not show in the rows: the re-contact
    # goes straight from FLIGHT to EXTENSION at the first row after it
    phase = got[:, PHASE_ID]
    skipped = (phase[:-1] == PhaseName.FLIGHT) & (phase[1:] == PhaseName.EXTENSION)
    assert got[1:][skipped, 0].tolist() == pytest.approx([math.ceil(t / dt) * dt for t in recontact])


@pytest.mark.parametrize("drop_speed, k_c", DEFAULT_GRID)
def test_truth_error_at_the_frames(drop_speed, k_c):
    # noiseless, at the 1 kHz frames, against the truth at 1e-5 s: within
    # 1e-3 N of load-cell force and 1 um of body height at the 1 ms step of
    # the default sensor rate (taking each switch's 0.5 ms step again in 50
    # sub-steps gave up to 1.03e-2 N and 8.0 um)
    force, height = _frame_errors(drop_speed, k_c, 1)
    assert force <= 1e-3
    assert height <= 1e-6


def test_truth_error_does_not_grow_as_the_step_shrinks():
    # the largest error over the default conditions, at 1, 0.5, 0.25 and 0.1 ms
    worst = [
        np.max([_frame_errors(v, k_c, steps) for v, k_c in DEFAULT_GRID], axis=0) for steps in (1, 2, 4, 10)
    ]
    for coarse, fine in zip(worst, worst[1:]):
        assert np.all(fine <= coarse), (coarse, fine)


def test_switch_where_the_acceleration_jumps_is_located_from_the_stage_states():
    # at 0.8 m/s, 2.5 N/cm the foot turns down again inside the step from
    # t = 0.168 s (withdrawing -> penetrating) and its acceleration jumps.
    # Bisecting with trial steps from the step's start, judged by their end
    # states only, let the straddling stage 4 pull the end state back and
    # left the force 0.012 N off.  Every row is within 1e-3 N of the truth
    # at 1e-5 s.
    got = _located(0.8, 2.5, 1)
    turns = got[:-1][(got[:-1, V_F] > 0.0) & (got[1:, V_F] < 0.0), 0]
    assert np.any(np.abs(turns - 0.168) < 1e-9)
    ref = _fine(0.8, 2.5)[::FINE_STEPS]
    n = min(len(got), len(ref))
    assert np.abs(got[:n, F_TOTAL] - ref[:n, F_TOTAL]).max() <= 1e-3


@pytest.mark.parametrize("drop_speed, k_c", DEFAULT_GRID)
def test_truth_is_closer_to_the_reference_than_the_uniform_loop(drop_speed, k_c):
    # at the 1 kHz frames, against the uniform loop at 2e-5 s: load-cell
    # force and body height are no further off than the uniform loop at 1e-4 s
    log = _noiseless_hop(drop_speed, k_c, _LK, _TR, ControllerConfig())
    got = _table(log.truth)
    ref, _ = _oracle(drop_speed, k_c, 50, 50)
    uniform, _ = _oracle(drop_speed, k_c, 10, 10)
    n = min(len(got), len(ref), len(uniform))
    for column in (F_TOTAL, X_B):
        error = np.abs(got[:n, column] - ref[:n, column]).max()
        assert error <= np.abs(uniform[:n, column] - ref[:n, column]).max(), TRUTH_COLUMNS[column]


@pytest.mark.parametrize("drop_speed, k_c", DEFAULT_GRID)
def test_events_within_one_step_of_the_reference(drop_speed, k_c):
    log = _noiseless_hop(drop_speed, k_c, _LK, _TR, ControllerConfig())
    _, want = _oracle(drop_speed, k_c, 50, 50)
    dt = SimConfig().sensor_period
    for name in ("t_td", "t_ce", "t_lo"):
        assert abs(getattr(log.events, name) - getattr(want, name)) <= dt, name


def _counting_kernel(monkeypatch):
    """Patch `plant_kernel` so that every stage call is counted."""
    calls = [0]
    kernel = simulator.plant_kernel

    def counting(lk, tr):
        stage = kernel(lk, tr)

        def counted(*args, **kwargs):
            calls[0] += 1
            return stage(*args, **kwargs)

        return counted

    monkeypatch.setattr(simulator, "plant_kernel", counting)
    return calls


def _contact_branches(truth):
    """The contact law's branch at each row: free, withdrawing or penetrating."""
    return np.array([contact_branch(x_f, v_f) for x_f, v_f in zip(truth.x_f.tolist(), truth.v_f.tolist())])


@pytest.mark.parametrize("drop_speed", [0.0, 1.2])
def test_free_fall_is_not_integrated(drop_speed, monkeypatch, linkage, terrain, controller):
    # one kernel evaluation for the closed-form rows and one at the first
    # RK4 row, four stages per further row's step, and more only in the few
    # steps across which the phase or the contact branch changes: each
    # holds at most two switches (a re-contact), and each switch costs at
    # most the failed attempt, four stages per halving, the crossing step
    # and the re-staging under the new spring
    calls = _counting_kernel(monkeypatch)
    truth = _noiseless_hop(drop_speed, 3.75, linkage, terrain, controller).truth
    rows = len(truth) - _prefix_rows(drop_speed, SimConfig().sensor_period)
    refined = np.count_nonzero(np.diff(truth.phase_id) | np.diff(_contact_branches(truth)))
    assert 0 < refined < 10
    located = calls[0] - (2 + 4 * (rows - 1))
    assert 0 < located <= 2 * refined * (4 + 4 * simulator.EVENT_BISECTIONS + 4 + 1)


def test_default_grid_stage_calls(monkeypatch):
    # exactly the locator's work at the 1 ms step (37,754 at 0.5 ms; taking
    # each switch's 0.5 ms step again in 50 sub-steps of 10 us cost 50,642):
    # a rework of the integrator that keeps every row keeps this count
    calls = _counting_kernel(monkeypatch)
    for drop_speed, k_c in DEFAULT_GRID:
        _noiseless_hop(drop_speed, k_c, _LK, _TR, ControllerConfig())
    assert calls[0] == 20_362


def test_a_step_whose_stage_3_state_alone_leaves_the_branch_is_refused(monkeypatch, linkage, terrain, controller):
    # released at the bed (x_f = v_f = 0, free) with stage-1 rate a_f = -A
    # and every later rate 0: the row's whole step evaluates stage 2 at
    # x_f = 0, has its stage-3 state at x_f = -(dt/2)^2 A (below the bed)
    # and its stage-4 state at x_f = 0 again.  The step is refused at stage
    # 3, so the next stage call is stage 2 of the first halving's step
    A = 100.0
    calls = []

    class Stop(Exception):
        pass

    def kernel(lk, tr):
        def stage(x_f, v_f, theta, theta_dot, k_spr, l0_spr, b_spr, tau=None, *, rates_only=False):
            calls.append((x_f, v_f))
            if len(calls) == 4:
                raise Stop
            return (0.0, 0.0) if rates_only else (-A, 0.0, -A, 0.0, 0.0, 0.0, 0.0, False, 0.0, 0.0, 0.1, 0.0)

        return stage

    monkeypatch.setattr(simulator, "plant_kernel", kernel)
    with pytest.raises(Stop):
        _noiseless_hop(0.0, 3.75, linkage, terrain, controller)
    dt = SimConfig().sensor_period
    # the closed-form rows' evaluation, stage 1 of the first RK4 row, stage 2 of its step
    assert calls[:3] == [(0.0, 0.0), (0.0, 0.0), (0.0, -0.5 * dt * A)]
    assert calls[3] == (0.0, -0.25 * dt * A)


@pytest.mark.parametrize("t_max", [0.05, 0.1224])
def test_run_shorter_than_the_fall_has_no_touchdown(t_max, linkage, terrain, controller):
    # 1.2 m/s reaches the bed at t = 0.1223 s: at t_max = 0.05 s every row is
    # closed-form, at 0.1224 s the loop runs the last row only
    with pytest.raises(TrialMalformedError, match="no touchdown"):
        _noiseless_hop(1.2, 3.75, linkage, terrain, controller, t_max=t_max)


def test_sim_config_rejects_non_finite_settings():
    for name in ("t_max", "post_liftoff_time", "sensor_rate_hz"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError):
                SimConfig(**{name: value})


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
    return [sampler.sample(step * sim.sensor_period, *row) for step, row in enumerate(rows)]


_NOISE_MODES = {
    "noisy": NoiseConfig(),
    "noiseless": NoiseConfig.noiseless(),
    "encoder_sigma_0": NoiseConfig(encoder_sigma=0.0),
}


@pytest.mark.parametrize("mode", sorted(_NOISE_MODES))
@pytest.mark.parametrize("speed, seed", [(0.5, 7), (1.2, [3, 1200, 375])])
def test_trial_frames_match_per_frame_reference(mode, speed, seed, linkage, terrain, controller, k_compress):
    noise = _NOISE_MODES[mode]
    sim = SimConfig()
    log = run_hop_trial(sim, controller, terrain, linkage, speed, k_compress, seed=seed, noise_config=noise)
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


# ------------------------------------------------- the seed reaches only the sensors

from hopperlab import experiments
from hopperlab.config import ExperimentConfig

_SWEEP = ExperimentConfig().sweep


@functools.lru_cache(maxsize=None)
def _seed_zero_hop(speed, kc):
    return experiments.run_single_hop(ExperimentConfig(), speed, kc, 0)[0]


@settings(max_examples=24, deadline=None)
@given(
    condition=st.sampled_from([(v, kc) for v in _SWEEP.speeds for kc in _SWEEP.stiffnesses_n_per_cm]),
    seed=st.integers(1, 2**32 - 1),
)
def test_a_hops_truth_and_events_do_not_depend_on_its_seed(condition, seed):
    # the seed key feeds only the sensor draw: every seed of a default
    # condition integrates the same truth, bit for bit, to the same events
    log = experiments.run_single_hop(ExperimentConfig(), *condition, seed)[0]
    zero = _seed_zero_hop(*condition)
    assert log.events == zero.events and log.clamp_events == zero.clamp_events
    for name, column in vars(log.truth).items():
        other = getattr(zero.truth, name)
        assert column.dtype == other.dtype and column.tobytes() == other.tobytes(), name
    assert not np.array_equal(log.frames.loadcell_force, zero.frames.loadcell_force)


# ------------------------------------------------- the plant's reaction is the law's

from hopperlab.terrain import reaction_terms


@pytest.mark.parametrize("speed", _SWEEP.speeds)
@pytest.mark.parametrize("kc", _SWEEP.stiffnesses_n_per_cm)
def test_the_plants_reaction_terms_are_the_laws(speed, kc):
    # the plant's inline copy of the law logs, row by row, the terms that
    # `reaction_terms` gives at the logged (z, zd, zdd), to the last bits
    # of exp; a row whose force the no-tension clamp dropped logs none
    log = _seed_zero_hop(speed, kc)
    truth = log.truth
    clamped = (truth.f_total == 0.0) & (truth.x_f < 0.0)
    assert np.count_nonzero(clamped) == log.clamp_events
    law = reaction_terms(-truth.x_f, -truth.v_f, -truth.acc_f, ExperimentConfig().terrain)
    for name, terms in zip(("f_static", "f_drag", "f_added"), law):
        np.testing.assert_allclose(getattr(truth, name)[~clamped], terms[~clamped], rtol=1e-14, atol=0.0, err_msg=name)
