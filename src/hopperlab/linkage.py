"""Reduced kinematics and dynamics of a symmetric parallel five-bar leg.

The two actuated upper links share a single joint angle theta under
symmetric drive, so the leg is fully described by theta and its axial
length

    L(theta) = l_upper * cos(theta) + sqrt(l_lower^2 - l_upper^2 * sin(theta)^2),

which is strictly decreasing on (0, pi/2) and singular (dL/dtheta = 0)
at full extension theta = 0.

The vertical plant has two degrees of freedom, foot height x_f and joint
angle theta, with the body riding on the closure x_b = x_f + L(theta) +
mount_offset.  Eliminating the joint coordinate from the two-coordinate
equations of motion (Schur complement of the 2x2 mass matrix) collapses
the plant onto a single foot channel

    M_f(theta) * xdd_f + M_f(theta) * g = F_c - beta(theta) * tau - C(theta) * thetadot^2

whose coefficients `_foot_channel_coeffs` computes from the leg Jacobian
and curvature, over the arrays of a trial for the momentum observer.
`tau` is the per-motor torque, positive when driving the foot toward the
ground (leg extension); `F_c` is the vertical terrain contact force on
the foot, positive upward.

The truth plant (`simulator.plant_kernel`) keeps its own inline copy of
the geometry and the mass matrix.  Scalar reference versions of these
laws, which the tests pin the program against, live in
`tests/reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NONNEGATIVE, POSITIVE, WorkspaceError, check_domains, domain


@dataclass(frozen=True)
class LinkageParams:
    """Geometry, inertia and motor constants of the symmetric leg.

    Lengths in m, angles in rad, masses in kg, rotor_inertia in kg*m^2
    (reflected, per motor), torque_constant in N*m/A.
    """

    l_upper: float = field(default=0.15, metadata=POSITIVE)
    l_lower: float = field(default=0.30, metadata=POSITIVE)
    theta_min: float = field(default=0.15, metadata=domain(0.0, math.pi / 2))
    theta_max: float = field(default=1.50, metadata=domain(0.0, math.pi / 2))
    rotor_inertia: float = field(default=5e-4, metadata=POSITIVE)
    torque_constant: float = field(default=0.14, metadata=POSITIVE)
    m_body: float = field(default=1.0, metadata=POSITIVE)
    m_foot: float = field(default=0.3, metadata=POSITIVE)
    mount_offset: float = field(default=0.0, metadata=NONNEGATIVE)  # body height above the hip joint

    def __post_init__(self):
        check_domains(self)
        if not self.l_lower > self.l_upper:
            raise ValueError("l_lower must exceed l_upper")
        if not self.theta_min < self.theta_max:
            raise ValueError("theta_min must be below theta_max")


def _check_theta(theta: float, params: LinkageParams) -> None:
    if not (params.theta_min <= theta <= params.theta_max):
        raise WorkspaceError(
            f"theta={theta:.6g} outside workspace [{params.theta_min:.6g}, {params.theta_max:.6g}]"
        )


def _geometry(theta, l1: float, l2_sq: float, xp=math):
    """Leg length, Jacobian dL/dtheta and its derivative d2L/dtheta2.

    No bounds check; callers guarantee theta is inside the workspace
    (the square root stays real for l_lower > l_upper).  `xp` is the math
    module for a scalar angle or numpy for an array of angles.
    """
    s = xp.sin(theta)
    c = xp.cos(theta)
    l1_sq = l1 * l1
    root = xp.sqrt(l2_sq - l1_sq * s * s)
    length = l1 * c + root
    jac = -l1 * s - l1_sq * s * c / root
    curv = -l1 * c - l1_sq * ((c * c - s * s) / root + l1_sq * s * s * c * c / root**3)
    return length, jac, curv


def leg_length(theta: float, params: LinkageParams) -> float:
    """Axial leg length L(theta) [m]."""
    _check_theta(theta, params)
    return _geometry(theta, params.l_upper, params.l_lower**2)[0]


def leg_jacobian(theta: float, params: LinkageParams) -> float:
    """dL/dtheta [m/rad]; negative throughout the workspace."""
    _check_theta(theta, params)
    return _geometry(theta, params.l_upper, params.l_lower**2)[1]


def _foot_channel_coeffs(jac, curv, params: LinkageParams):
    """Foot-channel coefficients from the leg Jacobian and curvature:
    M_f [kg], dM_f/dtheta [kg/rad], beta [1/m] and C [kg*m/rad^2].

    The entries m00, m01, m11 of the symmetric 2x2 mass matrix in (x_f,
    theta) coordinates are eliminated by their Schur complement, so the
    coefficients satisfy M_f*xdd_f + M_f*g + beta*tau + C*thetadot^2 = F_c
    exactly for any trajectory of the plant.  Plain arithmetic, so `jac`
    and `curv` may be floats or numpy arrays.
    """
    mb = params.m_body
    m00 = mb + params.m_foot
    m01 = mb * jac
    m11 = mb * jac * jac + 2.0 * params.rotor_inertia  # >= 2*rotor_inertia > 0
    m_f = m00 - m01 * m01 / m11
    beta = -2.0 * m01 / m11
    c_coef = mb * curv * (1.0 - mb * jac * jac / m11)
    # d/dtheta of m01^2/m11 via the entry derivatives.
    d_m01 = mb * curv
    d_m11 = 2.0 * mb * jac * curv
    d_mf = -(2.0 * m01 * d_m01 * m11 - m01 * m01 * d_m11) / (m11 * m11)
    return m_f, d_mf, beta, c_coef


def solve_theta_for_length(length: float, params: LinkageParams) -> float:
    """Invert L(theta) = length by bisection; L is monotone on the workspace.

    Stops once the midpoint rounds onto an end of the bracket: from then on
    the bracket can only shrink onto that double, which is what any number
    of further halvings returns.
    """
    lo, hi = params.theta_min, params.theta_max
    l_lo = leg_length(lo, params)
    l_hi = leg_length(hi, params)
    if not (l_hi <= length <= l_lo):
        raise WorkspaceError(
            f"leg length {length:.6g} outside reachable range [{l_hi:.6g}, {l_lo:.6g}]"
        )
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if leg_length(mid, params) > length:
            lo = mid
        else:
            hi = mid

