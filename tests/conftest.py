import numpy as np
import pytest

from hopperlab.controller import ControllerConfig
from hopperlab.linkage import LinkageParams
from hopperlab.simulator import NoiseConfig, SimConfig, run_hop_trial
from hopperlab.terrain import TerrainParams


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
def k_compress():
    """The compression stiffness of the default sweep's middle condition,
    3.75 N/cm, in N/m."""
    return 375.0


@pytest.fixture(scope="session")
def noiseless_trial(linkage, terrain, controller, k_compress):
    """One noiseless hop at 0.8 m/s; shared across tests."""
    return run_hop_trial(
        SimConfig(), controller, terrain, linkage, 0.8, k_compress, seed=0, noise_config=NoiseConfig.noiseless()
    )


@pytest.fixture(scope="session")
def noisy_trial(linkage, terrain, controller, k_compress):
    """One default-noise hop at 0.8 m/s; shared across tests."""
    return run_hop_trial(SimConfig(), controller, terrain, linkage, 0.8, k_compress, seed=0, noise_config=NoiseConfig())


@pytest.fixture(scope="session")
def noisy_frames(noisy_trial):
    return noisy_trial.frames


@pytest.fixture(scope="session")
def noiseless_frames(noiseless_trial):
    return noiseless_trial.frames

