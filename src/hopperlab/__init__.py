"""Desk-scale granular hopping workbench.

A one-leg hopper drops onto a simulated bead bed, and an onboard-style
pipeline (Kalman filter, momentum observer, acceleration-aware weighted
regression) recovers the bed's depth stiffness from proprioceptive
signals alone.
"""

__version__ = "0.1.0"

from .linkage import (
    LinkageParams,
    DynamicsCoeffs,
    leg_length,
    leg_jacobian,
    reduced_dynamics_coeffs,
    quasi_static_force,
)
from .terrain import (
    TerrainParams,
    ForceDecomposition,
    penetration_depth,
    added_mass_profile,
    terrain_force,
    inertial_threshold,
    force_map,
)
from .controller import (
    ControllerConfig,
    Phase,
    PhaseName,
    next_phase,
    virtual_leg_force,
    motor_torque,
)
from .simulator import (
    SimConfig,
    NoiseConfig,
    HopperState,
    Frames,
    TrialLog,
    dynamics_derivative,
    run_hop_trial,
    run_constant_speed_intrusion,
    detect_events,
)
from .estimation import (
    KalmanConfig,
    KalmanState,
    ObserverState,
    kf_step,
    psi,
    mo_step,
    quasi_static_series,
    run_estimation,
)
from .identification import (
    StanceSamples,
    WeightConfig,
    FitResult,
    DepthSpeedFit,
    extract_samples,
    ols_linear_fit,
    acceleration_weight,
    wls_linear_fit,
    fit_depth_speed_model,
    added_mass_reconstruction,
    treatment_comparison,
)
from .config import ExperimentConfig, default_config, load_config
