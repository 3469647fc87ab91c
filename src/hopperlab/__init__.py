"""Desk-scale granular hopping workbench.

A one-leg hopper drops onto a simulated bead bed, and an onboard-style
pipeline (Kalman filter, momentum observer, acceleration-aware weighted
regression) recovers the bed's depth stiffness from proprioceptive
signals alone.
"""

__version__ = "0.1.0"

from .linkage import (
    LinkageParams,
    leg_length,
    leg_jacobian,
)
from .terrain import (
    TerrainParams,
    inertial_threshold,
    force_map,
)
from .controller import (
    ControllerConfig,
    PhaseName,
    next_phase,
)
from .simulator import (
    SimConfig,
    NoiseConfig,
    Frames,
    TrialLog,
    run_hop_trial,
    run_constant_speed_intrusion,
    detect_events,
)
from .estimation import (
    EstimationConfig,
    KalmanConfig,
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
from .config import ExperimentConfig, load_config
