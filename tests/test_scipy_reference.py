"""The numpy-only runtime against the scipy routines it replaced.

scipy is a test dependency only.  `smoothed_derivative` is checked against
`savgol_filter(..., deriv=1, mode="interp")`, `fit_depth_speed_model`
against `least_squares` from the same start with the same box and
tolerances, and importing the CLI must load no scipy module.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import least_squares
from scipy.signal import savgol_filter

from hopperlab.config import ExperimentConfig
from hopperlab.errors import DegenerateFitError
from hopperlab.identification import fit_depth_speed_model
from hopperlab.signals import smoothed_derivative
from hopperlab.simulator import NoiseConfig, run_constant_speed_intrusion
from hopperlab.terrain import TerrainParams


def _reference_derivative(x, dt, window, polyorder=2):
    """`smoothed_derivative` as it was, on scipy.  scipy is evaluated on x
    scaled by a power of two that takes max|x| to [0.5, 1) when it is below
    that, and its result is scaled back: on subnormal samples its products
    lose the digits that the correctly rounded slope keeps, and a scaling by
    a power of two is exact and changes no value in the normal range."""
    x = np.asarray(x, dtype=float)
    if x.size < window:
        window = x.size if x.size % 2 == 1 else x.size - 1
        if window < polyorder + 2:
            return np.gradient(x, dt)
    exponent = max(0, -int(np.frexp(np.max(np.abs(x)))[1]))
    scaled = savgol_filter(np.ldexp(x, exponent), window, polyorder, deriv=1, delta=dt, mode="interp")
    return np.ldexp(scaled, -exponent)


@settings(max_examples=300, deadline=None)
@given(
    x=st.integers(3, 600).flatmap(lambda n: arrays(np.float64, n, elements=st.floats(-1e3, 1e3))),
    window=st.sampled_from(range(5, 22, 2)),
    dt=st.floats(1e-4, 1.0),
)
# every sample subnormal: savgol_filter on x itself gives [-d, -d, 0, -d, -d]
# (d = 5e-324), the correctly rounded slope [-d, 0, 0, 0, 0]
@example(x=np.array([5e-324, 0.0, 0.0, 0.0, 0.0]), window=5, dt=1.0)
def test_smoothed_derivative_matches_savgol_filter(x, window, dt):
    ref = _reference_derivative(x, dt, window)
    got = smoothed_derivative(x, dt, window=window)
    # a nearly flat series has a derivative made of rounding error, whose
    # scale is that of a difference of samples, max|x|/dt
    scale = max(np.max(np.abs(ref)), np.max(np.abs(x)) / dt)
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def test_smoothed_derivative_rejects_even_window():
    x = np.arange(50.0) ** 2
    with pytest.raises(ValueError):
        smoothed_derivative(x, 1e-3, window=10)
    with pytest.raises(ValueError):
        smoothed_derivative(x, 1e-3, window=5, polyorder=5)
    # a short series still falls back to the longest odd window that fits
    assert smoothed_derivative(x[:8], 1.0) == pytest.approx(2.0 * x[:8] ** 0.5)


def _reference_fit(logs):
    """`fit_depth_speed_model` as it was, on scipy: parameters and the
    residual function of the pooled in-contact samples."""
    rows = [(log, force) for log in logs for force in log.force]
    z = np.concatenate([log.depth for log, _ in rows])
    v = np.concatenate([np.full(log.depth.shape, log.speed) for log, _ in rows])
    f = np.concatenate([force for _, force in rows])
    keep = z > 0.0
    z, v, f = z[keep], v[keep], f[keep]
    slow, slow_force = min(rows, key=lambda row: row[0].speed)
    zs, fs = slow.depth[slow.depth > 0.0], slow_force[slow.depth > 0.0]
    k0 = float(np.polyfit(zs, fs, 1)[0])
    zc0 = max(float(np.median(z)) / 2.0, 1e-3)
    with np.errstate(divide="ignore", invalid="ignore"):
        g_samples = (f - k0 * z) / np.maximum(v * v, 1e-12)
    ma0 = max(float(np.median(g_samples)) * zc0, 1e-3)

    def residuals(p):
        k, ma, zc = p
        return k * z + ma / zc * np.exp(-z / zc) * v * v - f

    sol = least_squares(
        residuals,
        x0=[max(k0, 1.0), ma0, zc0],
        bounds=([0.0, 0.0, 1e-5], [np.inf, np.inf, 1.0]),
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
    )
    return sol.x, residuals


def _assert_fit_matches_reference(logs):
    ref, residuals = _reference_fit(logs)
    fit = fit_depth_speed_model(logs)
    got = np.array([fit.k_fit, fit.m_a_inf_fit, fit.z_c_fit])
    rss_ref, rss_got = np.sum(residuals(ref) ** 2), np.sum(residuals(got) ** 2)
    assert rss_got <= rss_ref * (1.0 + 1e-12)
    assert fit.rmse == pytest.approx(np.sqrt(rss_got / fit.n_samples), rel=1e-12)
    np.testing.assert_allclose(got, ref, rtol=1e-6, atol=0.0)


def _default_intrusion_corpus():
    """The default sweep's intrusion logs, with the sweep's seed keys."""
    config = ExperimentConfig()
    return [
        run_constant_speed_intrusion(
            speed,
            config.sweep.intrusion_z_max,
            config.terrain,
            noise_config=config.noise,
            seeds=[[repeat, int(round(speed * 1e6))] for repeat in range(config.sweep.intrusion_repeats)],
        )
        for speed in config.sweep.intrusion_speeds()
    ]


@pytest.fixture(scope="module")
def default_corpus():
    return _default_intrusion_corpus()


def test_intrusion_fit_matches_least_squares_on_default_corpus(default_corpus):
    _assert_fit_matches_reference(default_corpus)


@settings(max_examples=25, deadline=None)
@given(
    k_stiff=st.floats(400.0, 1600.0),
    m_a_inf=st.floats(0.05, 0.5),
    z_c=st.floats(0.005, 0.03),
    sigma=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**16),
)
def test_intrusion_fit_matches_least_squares_on_noisy_draws(k_stiff, m_a_inf, z_c, sigma, seed):
    terrain = TerrainParams(k_stiff=k_stiff, m_a_inf=m_a_inf, z_c=z_c)
    noise = NoiseConfig(loadcell_sigma=sigma)
    logs = [
        run_constant_speed_intrusion(v, 0.05, terrain, noise_config=noise, seeds=[[seed, i]])
        for i, v in enumerate(np.linspace(0.05, 1.1, 12))
    ]
    _assert_fit_matches_reference(logs)



def test_intrusion_fit_matches_least_squares_with_z_c_on_its_bound():
    # weak drag under heavy noise: the best z_c is the 1 m edge of the box
    terrain = TerrainParams(k_stiff=200.0, m_a_inf=0.02, z_c=0.04)
    noise = NoiseConfig(loadcell_sigma=3.0)
    logs = [
        run_constant_speed_intrusion(v, 0.05, terrain, noise_config=noise, seeds=[[1, i]])
        for i, v in enumerate(np.linspace(0.05, 1.1, 12))
    ]
    assert fit_depth_speed_model(logs).z_c_fit == 1.0
    _assert_fit_matches_reference(logs)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_intrusion_fit_that_is_not_finite_is_degenerate(default_corpus, bad):
    fast = default_corpus[-1]
    force = fast.force.copy()
    force[-1, force.shape[1] // 2] = bad
    logs = default_corpus[:-1] + [dataclasses.replace(fast, force=force)]
    with pytest.raises(DegenerateFitError, match="not finite"):
        fit_depth_speed_model(logs)


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, hopperlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
