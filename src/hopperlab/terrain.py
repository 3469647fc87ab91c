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
copy (`simulator.plant_kernel`) and its constant-speed form here
(`constant_speed_force`).  The scalar reference version that the tests
pin both against lives in `tests/reference.py`.
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


def constant_speed_force(z, v, params: TerrainParams) -> np.ndarray:
    """Total reaction at depths z >= 0 under constant penetration rates
    v >= 0 (zdd = 0), broadcast over numpy arrays; zero out of contact."""
    grad = params.m_a_inf / params.z_c * np.exp(-z / params.z_c)
    return np.where(z > 0.0, params.k_stiff * z + grad * v * v, 0.0)


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
    return constant_speed_force(depths[:, None], speeds[None, :], params)
