import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from hopperlab.errors import WorkspaceError
from hopperlab.linkage import (
    LinkageParams,
    _foot_channel_coeffs,
    _geometry,
    leg_jacobian,
    leg_length,
    solve_theta_for_length,
)
from reference import SingularityError, leg_curvature, quasi_static_force, reduced_dynamics_coeffs

SMALL_LEG = LinkageParams(l_upper=0.10, l_lower=0.20, theta_min=1e-8, theta_max=math.pi / 2 - 1e-8)


def test_leg_length_full_extension_limit():
    # L -> l_upper + l_lower at the straightened configuration
    assert leg_length(1e-8, SMALL_LEG) == pytest.approx(0.30, abs=1e-9)


def test_leg_length_right_angle_limit():
    # cos term vanishes: L -> sqrt(l_lower^2 - l_upper^2)
    assert leg_length(SMALL_LEG.theta_max, SMALL_LEG) == pytest.approx(math.sqrt(0.03), abs=1e-8)


def test_leg_length_midrange_value():
    # frozen from direct evaluation of the closed form at theta = 0.6
    assert leg_length(0.6, SMALL_LEG) == pytest.approx(0.27439754657515025, rel=1e-12)


def test_leg_length_strictly_decreasing():
    thetas = np.linspace(SMALL_LEG.theta_min, SMALL_LEG.theta_max, 500)
    lengths = [leg_length(t, SMALL_LEG) for t in thetas]
    assert np.all(np.diff(lengths) < 0.0)


def test_leg_length_out_of_range_raises():
    params = LinkageParams()
    with pytest.raises(WorkspaceError):
        leg_length(params.theta_min - 0.01, params)
    with pytest.raises(WorkspaceError):
        leg_length(params.theta_max + 0.01, params)


def test_jacobian_vanishes_at_full_extension():
    assert abs(leg_jacobian(1e-8, SMALL_LEG)) < 1e-7


def test_jacobian_right_angle_value():
    # sin = 1 and the coupling term vanishes: dL/dtheta -> -l_upper
    assert leg_jacobian(SMALL_LEG.theta_max, SMALL_LEG) == pytest.approx(-0.10, abs=1e-7)


def test_jacobian_matches_finite_difference_1000_angles():
    params = LinkageParams()
    h = 1e-6
    thetas = np.linspace(params.theta_min + h, params.theta_max - h, 1000)
    worst = 0.0
    for theta in thetas:
        fd = (leg_length(theta + h, params) - leg_length(theta - h, params)) / (2 * h)
        jac = leg_jacobian(theta, params)
        worst = max(worst, abs(jac - fd) / abs(jac))
    assert worst < 1e-6


def test_curvature_matches_finite_difference():
    params = LinkageParams()
    h = 1e-6
    for theta in np.linspace(params.theta_min + h, params.theta_max - h, 200):
        fd = (leg_jacobian(theta + h, params) - leg_jacobian(theta - h, params)) / (2 * h)
        assert leg_curvature(theta, params) == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_quasi_static_force_zero_torque():
    assert quasi_static_force(0.0, 0.8, LinkageParams()) == 0.0


def test_quasi_static_force_direct_formula():
    # find theta where |dL/dtheta| = 0.05, then F = 2*tau/|J| = 20 N
    params = SMALL_LEG
    theta = 0.3
    jac = abs(leg_jacobian(theta, params))
    tau = 0.5 * jac / 0.05 * 0.05  # 0.5 N*m scaled to this Jacobian
    assert quasi_static_force(0.5, theta, params) == pytest.approx(2 * 0.5 / jac, rel=1e-12)
    assert quasi_static_force(tau, theta, params) == pytest.approx(2 * tau / jac, rel=1e-12)


def test_quasi_static_force_linear_in_torque():
    params = LinkageParams()
    theta = 0.9
    base = quasi_static_force(0.5, theta, params)
    assert quasi_static_force(2.0 * 0.5, theta, params) == 2.0 * base
    assert quasi_static_force(0.25 * 0.5, theta, params) == 0.25 * base


def test_quasi_static_force_singularity_guard():
    # near full extension |dL/dtheta| < 1e-4
    params = LinkageParams(l_upper=0.10, l_lower=0.20, theta_min=1e-6, theta_max=1.5)
    with pytest.raises(SingularityError):
        quasi_static_force(0.5, 5e-4, params)


def test_reduced_coeffs_massive_lock_limit():
    # Near full extension the mechanism cannot move the joint, so the body
    # mass rides rigidly on the foot channel: M_f -> m_body + m_foot.
    params = LinkageParams(l_upper=0.10, l_lower=0.20, theta_min=1e-4, theta_max=1.5)
    co = reduced_dynamics_coeffs(2e-4, params)
    assert co.M_f == pytest.approx(params.m_body + params.m_foot, rel=1e-4)


def test_reduced_coeffs_mf_bounds():
    params = LinkageParams()
    for theta in np.linspace(params.theta_min, params.theta_max, 200):
        co = reduced_dynamics_coeffs(theta, params)
        assert params.m_foot <= co.M_f <= params.m_body + params.m_foot + 1e-12


def test_reduced_coeffs_dmf_matches_finite_difference():
    params = LinkageParams()
    h = 1e-6
    for theta in np.linspace(params.theta_min + h, params.theta_max - h, 200):
        fd = (
            reduced_dynamics_coeffs(theta + h, params).M_f
            - reduced_dynamics_coeffs(theta - h, params).M_f
        ) / (2 * h)
        co = reduced_dynamics_coeffs(theta, params)
        assert co.dMf_dtheta == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_reduced_coeffs_continuous_over_grid():
    params = LinkageParams()
    grid = np.linspace(params.theta_min, params.theta_max, 2000)
    coeffs = [reduced_dynamics_coeffs(t, params) for t in grid]
    for name in ("M_f", "dMf_dtheta", "beta", "C_coef"):
        vals = np.array([getattr(c, name) for c in coeffs])
        step = np.abs(np.diff(vals))
        scale = max(1.0, np.abs(vals).max())
        assert step.max() / scale < 1e-2


def test_reduced_coeffs_beta_positive():
    # positive (extension) torque must increase the contact force
    params = LinkageParams()
    for theta in np.linspace(params.theta_min, params.theta_max, 50):
        assert reduced_dynamics_coeffs(theta, params).beta > 0.0


def test_foot_channel_coeffs_are_the_oracle_bit_for_bit():
    # the program's coefficients, on floats and on an array, against the
    # scalar oracle's own copy of the mass-matrix elimination
    params = LinkageParams()
    grid = np.linspace(params.theta_min, params.theta_max, 500)
    _, jac, curv = _geometry(grid, params.l_upper, params.l_lower**2, xp=np)
    arrays = _foot_channel_coeffs(jac, curv, params)
    for i, theta in enumerate(grid.tolist()):
        co = reduced_dynamics_coeffs(theta, params)
        expected = (co.M_f, co.dMf_dtheta, co.beta, co.C_coef)
        _, jac_i, curv_i = _geometry(theta, params.l_upper, params.l_lower**2)
        assert _foot_channel_coeffs(jac_i, curv_i, params) == expected, theta
        assert tuple(float(a[i]) for a in arrays) == _foot_channel_coeffs(float(jac[i]), float(curv[i]), params)


def test_solve_theta_for_length_round_trip():
    params = LinkageParams()
    for length in (0.30, 0.38, 0.42):
        theta = solve_theta_for_length(length, params)
        assert leg_length(theta, params) == pytest.approx(length, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    l_upper=st.floats(0.05, 0.3),
    ratio=st.floats(1.05, 3.0),
    theta_min=st.floats(1e-6, 0.7),
    theta_max=st.floats(0.8, math.pi / 2 - 1e-6),
    u=st.floats(0.0, 1.0),
)
@example(l_upper=0.15, ratio=2.0, theta_min=0.15, theta_max=1.5, u=0.0)
@example(l_upper=0.15, ratio=2.0, theta_min=0.15, theta_max=1.5, u=1.0)
@example(l_upper=0.15, ratio=2.0, theta_min=0.15, theta_max=1.5, u=0.5)
def test_solve_theta_for_length_is_the_200_step_bisection_bit_for_bit(l_upper, ratio, theta_min, theta_max, u):
    # stopping once the bracket has converged returns the double that all
    # 200 halvings return, over the whole reachable range
    params = LinkageParams(l_upper=l_upper, l_lower=l_upper * ratio, theta_min=theta_min, theta_max=theta_max)
    l_short, l_long = leg_length(theta_max, params), leg_length(theta_min, params)
    length = min(max(l_short + u * (l_long - l_short), l_short), l_long)
    got = solve_theta_for_length(length, params)
    assert repr(got) == repr(reference.solve_theta_for_length(length, params))


def test_solve_theta_for_length_stops_once_converged(monkeypatch):
    calls = [0]

    def counting(theta, params):
        calls[0] += 1
        return leg_length(theta, params)

    monkeypatch.setattr("hopperlab.linkage.leg_length", counting)
    solve_theta_for_length(0.42, LinkageParams())
    # two range checks, then one call per halving until adjacent doubles
    assert calls[0] < 2 + 64


def test_params_validation():
    with pytest.raises(ValueError):
        LinkageParams(l_upper=0.3, l_lower=0.2)
    with pytest.raises(ValueError):
        LinkageParams(theta_min=0.0)
    with pytest.raises(ValueError):
        LinkageParams(theta_min=1.0, theta_max=0.5)
    with pytest.raises(ValueError):
        LinkageParams(rotor_inertia=0.0)
    with pytest.raises(ValueError):
        LinkageParams(m_body=-1.0)
