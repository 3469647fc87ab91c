import numpy as np
import pytest

from hopperlab import (
    ControllerConfig,
    LinkageParams,
    NoiseConfig,
    SimConfig,
    TerrainParams,
    run_hop_trial,
)


@pytest.fixture(scope="session")
def linkage():
    return LinkageParams()


@pytest.fixture(scope="session")
def terrain():
    return TerrainParams()


@pytest.fixture(scope="session")
def controller():
    return ControllerConfig()


@pytest.fixture(scope="session")
def noiseless_trial(linkage, terrain, controller):
    """One noiseless hop at the default drop speed; shared across tests."""
    return run_hop_trial(
        SimConfig(drop_speed=0.8),
        controller,
        terrain,
        linkage,
        seed=0,
        noise_config=NoiseConfig.noiseless(),
    )


@pytest.fixture(scope="session")
def noisy_trial(linkage, terrain, controller):
    """One default-noise hop; shared across tests."""
    return run_hop_trial(SimConfig(drop_speed=0.8), controller, terrain, linkage, seed=0)


@pytest.fixture(scope="session")
def noisy_frames(noisy_trial):
    return noisy_trial.frames


@pytest.fixture(scope="session")
def noiseless_frames(noiseless_trial):
    return noiseless_trial.frames


def decimate_truth(trial, n=None):
    """Truth columns at the sensor rate, aligned with the frames of a trial
    run at the default `SimConfig` step and sensor rate."""
    decim = SimConfig().decimation
    cols = {
        name: getattr(trial.truth, name)[::decim]
        for name in ("t", "x_b", "v_b", "x_f", "v_f", "theta", "theta_dot", "acc_b", "acc_f", "f_total", "tau")
    }
    if n is not None:
        cols = {k: v[:n] for k, v in cols.items()}
    return cols
