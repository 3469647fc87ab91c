"""Stance/flight state machine with phase-dependent virtual leg stiffness.

One hop cycle runs Flight -> Compression -> Extension -> Flight.  The
software spring between body and foot is compliant while the leg shortens
and switches to a stiffer setting at the end of compression so the stored
energy plus the stiffness step produce liftoff.  In flight the spring
pulls the leg back to its compression neutral length under heavy damping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import NONNEGATIVE, POSITIVE, check_domains
from .linkage import LinkageParams, leg_length


class PhaseName(enum.IntEnum):
    FLIGHT = 0
    COMPRESSION = 1
    EXTENSION = 2


# the members bound once: a lookup on the class costs ~0.1 us, and the
# phase machine runs at every RK4 step
FLIGHT, COMPRESSION, EXTENSION = PhaseName


@dataclass(frozen=True)
class ControllerConfig:
    """Virtual spring gains (SI: N/m, N*s/m, m, N); the compression stiffness is a hop's condition."""

    k_extend: float = field(default=500.0, metadata=POSITIVE)
    l0_compress: float = field(default=0.42, metadata=POSITIVE)
    l0_extend: float = field(default=0.42, metadata=POSITIVE)
    b_stance: float = field(default=3.0, metadata=NONNEGATIVE)
    b_flight: float = field(default=20.0, metadata=NONNEGATIVE)
    contact_force_threshold: float = field(default=3.0, metadata=POSITIVE)

    __post_init__ = check_domains

    def validate_workspace(self, linkage: LinkageParams) -> None:
        """Neutral lengths must be reachable by the leg."""
        l_min = leg_length(linkage.theta_max, linkage)
        l_max = leg_length(linkage.theta_min, linkage)
        for name, l0 in (("l0_compress", self.l0_compress), ("l0_extend", self.l0_extend)):
            if not (l_min < l0 < l_max):
                raise ValueError(
                    f"{name}={l0:.4g} outside leg workspace ({l_min:.4g}, {l_max:.4g})"
                )


def next_phase(
    phase: PhaseName,
    leg_rate: float,
    x_f: float,
    v_f: float,
    contact_force: float,
    config: ControllerConfig,
) -> PhaseName:
    """The phase that follows `phase` at one state; total (never raises).
    Returns `phase` itself unless the phase switches.  The truth plant
    reads it at each RK4 step's end and switches where it locates the
    change inside the step.

    Touchdown fires on either detector: contact force above threshold, or
    geometric penetration while the foot still moves downward (the motion
    gate stops retriggering right after liftoff, when the foot is still
    below the original surface).
    """
    if phase == FLIGHT:
        contact = contact_force > config.contact_force_threshold or (
            x_f < 0.0 and v_f < 0.0
        )
        if contact:
            return COMPRESSION
    elif phase == COMPRESSION:
        if leg_rate >= 0.0:
            return EXTENSION
    elif phase == EXTENSION:
        if contact_force < config.contact_force_threshold and v_f > 0.0:
            return FLIGHT
    return phase


def spring_gains(phase: PhaseName, config: ControllerConfig, k_compress: float) -> tuple[float, float, float]:
    """Virtual spring (stiffness, neutral length, damping) in force during a
    phase, at the compression stiffness `k_compress` [N/m]."""
    if phase == COMPRESSION:
        return k_compress, config.l0_compress, config.b_stance
    if phase == EXTENSION:
        return config.k_extend, config.l0_extend, config.b_stance
    return k_compress, config.l0_compress, config.b_flight

