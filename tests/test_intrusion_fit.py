"""The intrusion-model fit on the edge of its box, and its imports.

`tests/test_scipy_reference.py` checks the fit against
`scipy.optimize.least_squares` inside the box and with z_c on its bound;
here m_a_inf is held at its bound, and the fit must not import `numpy.ma`.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hopperlab.identification import fit_depth_speed_model
from hopperlab.simulator import NoiseConfig, run_constant_speed_intrusion
from hopperlab.terrain import TerrainParams


def test_drag_subtracted_twice_holds_added_mass_at_zero():
    # F = k*z - g_a(z)*v^2: the best m_a_inf is negative, so the fit keeps
    # m_a_inf = 0 and k is the slope through the origin
    terrain = TerrainParams()
    logs = []
    for v in np.linspace(0.05, 1.1, 12):
        log = run_constant_speed_intrusion(v, 0.05, terrain, NoiseConfig.noiseless(), seeds=[0])
        drag = log.force - terrain.k_stiff * log.depth
        logs.append(dataclasses.replace(log, force=log.force - 2.0 * drag))
    fit = fit_depth_speed_model(logs)
    z = np.concatenate([log.depth for log in logs])
    f = np.concatenate([log.force[0] for log in logs])
    assert fit.m_a_inf_fit == 0.0
    assert fit.k_fit == pytest.approx(np.dot(z, f) / np.dot(z, z), rel=1e-12)
    assert fit.in_box()


def test_fit_imports_no_numpy_ma():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, numpy as np\n"
        "from hopperlab.identification import fit_depth_speed_model\n"
        "from hopperlab.simulator import NoiseConfig, run_constant_speed_intrusion\n"
        "from hopperlab.terrain import TerrainParams\n"
        "logs = [run_constant_speed_intrusion(v, 0.05, TerrainParams(), NoiseConfig.noiseless(), seeds=[0]) for v in (0.2, 0.6, 1.0)]\n"
        "fit_depth_speed_model(logs)\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
