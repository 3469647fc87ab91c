"""The intrusion-model fit's numpy reductions and its median.

The Levenberg-Marquardt step forms its column norms, gradient, normal
matrix and cost with `np.einsum`, which never calls a (threaded) BLAS
routine.  It is checked against a copy of the step it replaced, which
formed them with `@`.  The initial guesses take their medians from
`identification._median`, which must equal `np.median` bit for bit without
importing `numpy.ma`.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hopperlab import identification
from hopperlab.config import ExperimentConfig
from hopperlab.errors import DegenerateFitError
from hopperlab.identification import _FIT_LOWER, _FIT_MAX_ITER, _FIT_TOL, _median, fit_depth_speed_model
from hopperlab.simulator import NoiseConfig, run_constant_speed_intrusion
from hopperlab.terrain import TerrainParams


def _matmul_levenberg_marquardt(z, v2, f, p):
    """`_bounded_levenberg_marquardt` as it was, with BLAS products."""
    upper = identification._FIT_UPPER

    def residuals(p):
        k, ma, zc = p
        e = np.exp(-z / zc) * v2
        return k * z + ma / zc * e - f, e

    def jacobian(p, e):
        _, ma, zc = p
        return np.column_stack([z, e / zc, ma * e * (z - zc) / zc**3])

    r, e = residuals(p)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise DegenerateFitError("intrusion model is not finite at the initial guess")
    jac = jacobian(p, e)
    damping = 1e-3
    for _ in range(_FIT_MAX_ITER):
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0.0] = 1.0
        jac_s = jac / scale
        grad = jac_s.T @ r
        free = ~(((p <= _FIT_LOWER) & (grad > 0.0)) | ((p >= upper) & (grad < 0.0)))
        if np.max(np.abs(grad[free]), initial=0.0) <= _FIT_TOL * math.sqrt(cost):
            return p, r
        jac_free = jac_s[:, free]
        step = np.zeros(3)
        step[free] = np.linalg.solve(
            jac_free.T @ jac_free + damping * np.eye(jac_free.shape[1]), -grad[free]
        ) / scale[free]
        trial = np.clip(p + step, _FIT_LOWER, upper)
        small_step = np.linalg.norm((trial - p) * scale) <= _FIT_TOL * (_FIT_TOL + np.linalg.norm(p * scale))
        r_trial, e_trial = residuals(trial)
        cost_trial = float(r_trial @ r_trial)
        if cost_trial < cost:
            converged = small_step or cost - cost_trial <= _FIT_TOL * cost
            p, r, e, cost = trial, r_trial, e_trial, cost_trial
            if converged:
                return p, r
            jac = jacobian(p, e)
            damping = max(damping / 10.0, 1e-12)
        elif small_step:
            return p, r
        else:
            damping *= 10.0
    raise DegenerateFitError(f"intrusion model fit did not converge in {_FIT_MAX_ITER} iterations")


def _rss(logs, fit):
    """Residual sum of squares of a fit over the pooled in-contact samples."""
    z = np.concatenate([log.depth for log in logs])
    v = np.concatenate([np.full(log.depth.shape, log.speed) for log in logs])
    f = np.concatenate([log.force for log in logs])
    z, v, f = z[z > 0.0], v[z > 0.0], f[z > 0.0]
    r = fit.k_fit * z + fit.m_a_inf_fit / fit.z_c_fit * np.exp(-z / fit.z_c_fit) * v * v - f
    return float(np.sum(r**2))


def _assert_step_matches_matmul_step(logs):
    fit = fit_depth_speed_model(logs)
    with mock.patch.object(identification, "_bounded_levenberg_marquardt", _matmul_levenberg_marquardt):
        ref = fit_depth_speed_model(logs)
    assert _rss(logs, fit) <= _rss(logs, ref) * (1.0 + 1e-12)
    got = np.array([fit.k_fit, fit.m_a_inf_fit, fit.z_c_fit])
    np.testing.assert_allclose(got, [ref.k_fit, ref.m_a_inf_fit, ref.z_c_fit], rtol=1e-6, atol=0.0)


def test_einsum_step_matches_matmul_step_on_default_corpus():
    config = ExperimentConfig()
    logs = [
        run_constant_speed_intrusion(
            speed,
            config.sweep.intrusion_z_max,
            config.terrain,
            noise_config=config.noise,
            seed=[repeat, int(round(speed * 1e6))],
        )
        for speed in config.sweep.intrusion_speeds()
        for repeat in range(config.sweep.intrusion_repeats)
    ]
    _assert_step_matches_matmul_step(logs)


@settings(max_examples=25, deadline=None)
@given(
    k_stiff=st.floats(400.0, 1600.0),
    m_a_inf=st.floats(0.05, 0.5),
    z_c=st.floats(0.005, 0.03),
    sigma=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**16),
)
def test_einsum_step_matches_matmul_step_on_noisy_draws(k_stiff, m_a_inf, z_c, sigma, seed):
    terrain = TerrainParams(k_stiff=k_stiff, m_a_inf=m_a_inf, z_c=z_c)
    noise = NoiseConfig(loadcell_sigma=sigma)
    logs = [
        run_constant_speed_intrusion(v, 0.05, terrain, noise_config=noise, seed=[seed, i])
        for i, v in enumerate(np.linspace(0.05, 1.1, 12))
    ]
    _assert_step_matches_matmul_step(logs)


_values = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=400, deadline=None)
@given(
    a=st.integers(1, 40).flatmap(lambda n: arrays(np.float64, n, elements=_values)),
    nan=st.booleans(),
)
def test_median_is_numpy_median_bit_for_bit(a, nan):
    if nan:
        a[len(a) // 2] = np.nan
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and a sum past the largest float
        got, ref = np.float64(_median(a)), np.float64(np.median(a))
    assert np.isnan(got) == np.isnan(ref)
    if not np.isnan(ref):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "values, expected",
    [([3.0, -np.inf, 1.0], 1.0), ([np.inf, 1.0, -np.inf, 2.0], 1.5), ([-np.inf, np.inf], np.nan), ([1.0, np.nan], np.nan)],
)
def test_median_of_infinities_and_nan(values, expected):
    with np.errstate(invalid="ignore"):
        np.testing.assert_equal(_median(np.array(values)), expected)


def test_fit_imports_no_numpy_ma():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, numpy as np\n"
        "from hopperlab.identification import fit_depth_speed_model\n"
        "from hopperlab.simulator import run_constant_speed_intrusion\n"
        "from hopperlab.terrain import TerrainParams\n"
        "logs = [run_constant_speed_intrusion(v, 0.05, TerrainParams()) for v in (0.2, 0.6, 1.0)]\n"
        "fit_depth_speed_model(logs)\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
