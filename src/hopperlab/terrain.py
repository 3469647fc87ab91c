"""Ground-truth granular reaction law for a flat foot intruding a bead bed.

The vertical reaction combines a depth-proportional resistance with the
momentum flux of grains entrained under the foot:

    F(z, zd, zdd) = k_stiff * z + dm_a/dz * zd^2 + m_a(z) * zdd

with the entrained (added) mass saturating exponentially,
m_a(z) = m_a_inf * (1 - exp(-z / z_c)).  The undisturbed bed surface is
the height datum x_f = 0, so a foot at height x_f has penetrated to
z = -x_f, positive downward; no setting moves the surface.  The
momentum-flux terms act only while the foot penetrates (zd >= 0): grains
are abandoned on withdrawal, and the bed can never pull the foot down, so
the total is clamped at zero from below.

The program evaluates the law in two places: the truth plant's inline
copy (`simulator.plant_kernel`), which also applies the clamp, and
`reaction_terms` here, the one vectorised form, which the intrusion rig,
the force map and the report's added-mass residual call.  The scalar
reference version that the tests pin both against lives in
`tests/reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import GRAVITY
from .errors import NONNEGATIVE, POSITIVE, check_domains, domain


@dataclass(frozen=True)
class TerrainParams:
    """Granular bed parameters (SI units)."""

    k_stiff: float = field(default=800.0, metadata=POSITIVE)             # depth stiffness [N/m]
    m_a_inf: float = field(default=0.15, metadata=NONNEGATIVE)           # saturated added mass [kg]
    z_c: float = field(default=0.015, metadata=POSITIVE)                 # added-mass saturation depth [m]
    d_grain: float = field(default=300e-6, metadata=domain(0.0, 0.01))   # grain diameter [m]

    __post_init__ = check_domains


def reaction_terms(z, z_dot, z_ddot, params: TerrainParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f_static, f_drag, f_added) of the reaction law at depth z, rate
    z_dot and acceleration z_ddot (positive downward), broadcast over numpy
    arrays.  The depth term acts while z > 0, the momentum-flux terms only
    while penetrating (z > 0 and z_dot >= 0); no term is clamped, since
    the no-tension clamp belongs to the plant's coupled dynamics."""
    decay = np.exp(-z / params.z_c)
    penetrating = (z > 0.0) & (z_dot >= 0.0)
    f_drag = np.where(penetrating, params.m_a_inf / params.z_c * decay * z_dot * z_dot, 0.0)
    f_added = np.where(penetrating, params.m_a_inf * (1.0 - decay) * z_ddot, 0.0)
    del decay, penetrating  # freed before the depth term: two fewer arrays live at a long grid's peak
    return np.where(z > 0.0, params.k_stiff * z, 0.0), f_drag, f_added


def inertial_threshold(d_grain: float) -> float:
    """Intrusion speed sqrt(2*d_grain*g) above which grain inertia matters [m/s]."""
    if d_grain <= 0.0:
        raise ValueError("d_grain must be positive")
    return math.sqrt(2.0 * d_grain * GRAVITY)


def force_map(params: TerrainParams, depth_grid, speed_grid) -> np.ndarray:
    """Constant-speed force surface, shape (len(depth_grid), len(speed_grid)).

    Under constant-speed intrusion zdd = 0, so entry (i, j) is the total
    reaction at depth z_i and penetration rate v_j.
    """
    depths = np.asarray(depth_grid, dtype=float)
    speeds = np.asarray(speed_grid, dtype=float)
    if depths.size == 0 or speeds.size == 0:
        raise ValueError("depth and speed grids must be nonempty")
    if np.any(np.diff(depths) < 0.0) or np.any(np.diff(speeds) < 0.0):
        raise ValueError("grids must be sorted ascending")
    if depths[0] < 0.0 or speeds[0] < 0.0:
        raise ValueError("depths and speeds must be nonnegative")
    f_static, f_drag, f_added = reaction_terms(depths[:, None], speeds[None, :], 0.0, params)
    return f_static + f_drag + f_added
