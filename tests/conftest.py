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

