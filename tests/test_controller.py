import numpy as np
import pytest

from hopperlab.controller import ControllerConfig, PhaseName, next_phase
from hopperlab.linkage import LinkageParams, leg_jacobian
from hopperlab.simulator import SimConfig
from reference import SingularityError, motor_torque, quasi_static_force, virtual_leg_force


def test_flight_stays_flight_without_contact():
    cfg = ControllerConfig()
    out = next_phase(PhaseName.FLIGHT, -0.1, 0.05, -0.5, 0.0, cfg)
    assert out is PhaseName.FLIGHT


def test_flight_to_compression_on_force():
    cfg = ControllerConfig()
    out = next_phase(PhaseName.FLIGHT, -0.1, 0.001, -0.5, cfg.contact_force_threshold + 2.0, cfg)
    assert out == PhaseName.COMPRESSION


def test_flight_to_compression_on_geometry():
    cfg = ControllerConfig()
    out = next_phase(PhaseName.FLIGHT, -0.1, -0.002, -0.4, 0.0, cfg)
    assert out == PhaseName.COMPRESSION


def test_flight_no_retrigger_when_foot_rising():
    # right after liftoff the foot is still below the original surface
    cfg = ControllerConfig()
    out = next_phase(PhaseName.FLIGHT, 0.1, -0.002, 0.4, 0.5, cfg)
    assert out == PhaseName.FLIGHT


def test_compression_to_extension_at_rate_zero_crossing():
    cfg = ControllerConfig()
    still_shortening = next_phase(PhaseName.COMPRESSION, -0.2, -0.02, -0.3, 20.0, cfg)
    assert still_shortening == PhaseName.COMPRESSION
    crossed = next_phase(PhaseName.COMPRESSION, 0.01, -0.02, -0.1, 20.0, cfg)
    assert crossed == PhaseName.EXTENSION


def test_extension_to_flight_requires_unload_and_rise():
    cfg = ControllerConfig()
    loaded = next_phase(PhaseName.EXTENSION, 0.3, -0.01, 0.2, 10.0, cfg)
    assert loaded == PhaseName.EXTENSION
    sinking = next_phase(PhaseName.EXTENSION, 0.3, -0.01, -0.2, 0.5, cfg)
    assert sinking == PhaseName.EXTENSION
    out = next_phase(PhaseName.EXTENSION, 0.3, -0.001, 0.2, 0.5, cfg)
    assert out == PhaseName.FLIGHT


def test_virtual_force_neutral_point():
    cfg = ControllerConfig()
    assert virtual_leg_force(PhaseName.COMPRESSION, cfg.l0_compress, 0.0, cfg, 375.0) == 0.0


def test_virtual_force_compression_value():
    # 3.75 N/cm spring at 2 cm deflection -> 7.5 N
    cfg = ControllerConfig()
    f = virtual_leg_force(PhaseName.COMPRESSION, cfg.l0_compress - 0.02, 0.0, cfg, 375.0)
    assert f == pytest.approx(7.5)


def test_virtual_force_extension_stiffer():
    cfg = ControllerConfig(k_extend=500.0)
    deflection = 0.02
    f_c = virtual_leg_force(PhaseName.COMPRESSION, cfg.l0_compress - deflection, 0.0, cfg, 375.0)
    f_e = virtual_leg_force(PhaseName.EXTENSION, cfg.l0_extend - deflection, 0.0, cfg, 375.0)
    assert f_e == pytest.approx(10.0)
    assert f_e > f_c


def test_virtual_force_ce_jump_matches_stiffness_step():
    cfg, k_compress = ControllerConfig(), 375.0
    length, rate = cfg.l0_compress - 0.03, 0.0
    f_c = virtual_leg_force(PhaseName.COMPRESSION, length, rate, cfg, k_compress)
    f_e = virtual_leg_force(PhaseName.EXTENSION, length, rate, cfg, k_compress)
    expected_jump = (cfg.k_extend - k_compress) * (cfg.l0_compress - length) + cfg.k_extend * (
        cfg.l0_extend - cfg.l0_compress
    )
    assert f_e - f_c == pytest.approx(expected_jump)


def test_flight_force_uses_flight_damping():
    cfg = ControllerConfig()
    f = virtual_leg_force(PhaseName.FLIGHT, cfg.l0_compress, 0.5, cfg, 375.0)
    assert f == pytest.approx(-cfg.b_flight * 0.5)


def test_motor_torque_zero_force():
    assert motor_torque(0.0, 0.8, LinkageParams()) == 0.0


def test_motor_torque_round_trip():
    params = LinkageParams()
    for theta in np.linspace(params.theta_min + 0.05, params.theta_max - 0.05, 20):
        tau = motor_torque(20.0, theta, params)
        assert quasi_static_force(tau, theta, params) == pytest.approx(20.0, abs=1e-9)


def test_motor_torque_direct_value():
    # F = 10 N through |dL/dtheta| = 0.06 -> 0.3 N*m per motor
    params = LinkageParams()
    thetas = np.linspace(params.theta_min, params.theta_max, 4000)
    theta = min(thetas, key=lambda t: abs(abs(leg_jacobian(t, params)) - 0.06))
    jac = abs(leg_jacobian(theta, params))
    assert motor_torque(10.0, theta, params) == pytest.approx(0.5 * 10.0 * jac, rel=1e-12)
    assert motor_torque(10.0, theta, params) == pytest.approx(0.3, abs=2e-3)


def test_motor_torque_singularity():
    params = LinkageParams(l_upper=0.10, l_lower=0.20, theta_min=1e-6, theta_max=1.5)
    with pytest.raises(SingularityError):
        motor_torque(10.0, 5e-4, params)


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(k_extend=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(contact_force_threshold=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(l0_compress=0.1).validate_workspace(LinkageParams())


def test_phase_sequence_over_simulated_hop(noiseless_trial):
    # exactly Flight -> Compression -> Extension -> Flight
    ids = noiseless_trial.truth.phase_id
    changes = ids[np.r_[True, np.diff(ids) != 0]]
    assert list(changes) == [
        int(PhaseName.FLIGHT),
        int(PhaseName.COMPRESSION),
        int(PhaseName.EXTENSION),
        int(PhaseName.FLIGHT),
    ]


def test_stance_force_continuous_except_ce(noiseless_trial):
    truth = noiseless_trial.truth
    ids = truth.phase_id
    f_leg = truth.f_leg
    jumps = np.abs(np.diff(f_leg))
    switch = np.flatnonzero(np.diff(ids) != 0)
    in_stance = (ids[:-1] != int(PhaseName.FLIGHT)) & (ids[1:] != int(PhaseName.FLIGHT))
    smooth = in_stance.copy()
    smooth[switch] = False
    # away from transitions the spring force moves by < 1000 N/s times the
    # truth step (1 N per 1 ms step)
    assert jumps[smooth].max() < 1000.0 * SimConfig().sensor_period
    ce = switch[(ids[switch] == int(PhaseName.COMPRESSION)) & (ids[switch + 1] == int(PhaseName.EXTENSION))]
    assert jumps[ce[0]] > 1.0


def test_touchdown_detectors_agree(noisy_trial, noisy_frames):
    # geometric truth detector vs onboard force-threshold detector
    cfg = ControllerConfig()
    t_geo = noisy_trial.events.t_td
    above = np.flatnonzero(noisy_frames.loadcell_force > cfg.contact_force_threshold)
    t_force = noisy_frames.t[above[0]]
    assert t_force >= t_geo - 2e-3
    assert t_force - t_geo < 0.03
