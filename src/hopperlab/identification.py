"""Terrain-parameter recovery from stance-window force-depth samples.

Three treatments mirror the estimation pipeline's stages: plain OLS on
the quasi-static force series, OLS on the momentum-observer series, and
acceleration-aware weighted least squares on the momentum-observer
series.  The weighting assigns each sample an inverse-variance weight
whose sigma ramps from sigma_good to sigma_bad through a sigmoid in
|zdd|, so samples taken during impact and stiffness-switch transients
are retained but barely influence the depth-stiffness slope.

The constant-speed intrusion sweeps feed a separate parametric fit
F = k*z + g_a(z)*v^2 with g_a the exponential added-mass gradient; its
integral reconstructs the added-mass profile used to explain the
residual force transients during hopping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFitError, InsufficientDataError
from .estimation import EstimationSeries
from .signals import smoothed_derivative
from .simulator import Frames, IntrusionLog, TrialEvents

TREATMENTS = ("noMO_noGD", "MO_noGD", "MO_GD")


@dataclass(frozen=True)
class StanceSamples:
    """One trial's stance samples: aligned depth kinematics and force readings."""

    z: np.ndarray
    z_dot: np.ndarray
    z_ddot: np.ndarray
    f: np.ndarray
    t: np.ndarray
    source: str  # one of {"qs", "mo", "loadcell"}

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class WeightConfig:
    """Sigmoid inverse-variance weighting in |zdd| (SI units)."""

    sigma_good: float = 1.0   # [N]
    sigma_bad: float = 20.0   # [N]
    k_w: float = 0.8          # sigmoid slope [s^2/m]
    a0: float = 8.0           # acceleration threshold [m/s^2]

    def __post_init__(self):
        if not (0.0 < self.sigma_good <= self.sigma_bad):
            raise ValueError("need 0 < sigma_good <= sigma_bad")
        if self.k_w <= 0.0 or self.a0 <= 0.0:
            raise ValueError("k_w and a0 must be positive")


@dataclass(frozen=True)
class FitResult:
    """Depth-stiffness line fit."""

    k_est: float
    intercept: float
    rmse: float
    n_samples: int
    treatment: str = ""


@dataclass(frozen=True)
class DepthSpeedFit:
    """Parametric intrusion model: F = k*z + (m_a_inf/z_c)*exp(-z/z_c)*v^2."""

    k_fit: float
    m_a_inf_fit: float
    z_c_fit: float
    rmse: float
    n_samples: int

    def gradient(self, z) -> np.ndarray:
        """Fitted added-mass depth gradient g_a(z) [kg/m]."""
        return self.m_a_inf_fit / self.z_c_fit * np.exp(-np.asarray(z, dtype=float) / self.z_c_fit)

    def added_mass(self, z, n_grid: int = 2000) -> np.ndarray:
        """m_a(z) by trapezoid integration of the fitted gradient."""
        z = np.asarray(z, dtype=float)
        z_hi = max(float(np.max(z)), 1e-9)
        grid = np.linspace(0.0, z_hi, n_grid)
        cumulative = np.concatenate(
            ([0.0], np.cumsum(0.5 * (self.gradient(grid[1:]) + self.gradient(grid[:-1])) * np.diff(grid)))
        )
        return np.interp(z, grid, cumulative)


def extract_samples(
    est: EstimationSeries,
    events: TrialEvents,
    source: str = "mo",
    frames: Frames | None = None,
    diff_window: int = 11,
) -> StanceSamples:
    """Stance-window regression samples from one trial's estimates.

    Depth comes from the filtered foot height, its rate from the filtered
    foot velocity, and the acceleration from a local-quadratic slope of
    that velocity.  Force source: "qs", "mo", or "loadcell" (the latter
    requires the trial's frames).
    """
    if source not in ("qs", "mo", "loadcell"):
        raise ValueError(f"unknown sample source {source!r}")
    if source == "loadcell":
        if frames is None:
            raise ValueError("loadcell source requires the trial frames")
        force = frames.loadcell_force
    elif source == "qs":
        force = est.f_qs
    else:
        force = est.f_mo

    dt = float(est.t[1] - est.t[0])
    z = np.maximum(0.0, -est.x_f_hat)
    z_dot = -est.v_f_hat
    z_ddot = -smoothed_derivative(est.v_f_hat, dt, window=diff_window)

    mask = (est.t >= events.t_td) & (est.t <= events.t_lo) & (z > 0.0) & np.isfinite(force)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise InsufficientDataError("empty stance window: no contact samples")
    return StanceSamples(
        z=z[idx], z_dot=z_dot[idx], z_ddot=z_ddot[idx], f=force[idx], t=est.t[idx], source=source
    )


def _design(samples: StanceSamples) -> tuple[np.ndarray, np.ndarray]:
    z = samples.z
    if z.size < 2 or np.ptp(z) <= 0.0:
        raise DegenerateFitError("need at least two samples with distinct depths")
    return np.column_stack([z, np.ones_like(z)]), samples.f


def ols_linear_fit(samples: StanceSamples, treatment: str = "") -> FitResult:
    """Ordinary least squares of force on depth with intercept."""
    X, f = _design(samples)
    coef, *_ = np.linalg.lstsq(X, f, rcond=None)
    resid = f - X @ coef
    return FitResult(
        k_est=float(coef[0]),
        intercept=float(coef[1]),
        rmse=float(np.sqrt(np.mean(resid**2))),
        n_samples=len(samples),
        treatment=treatment,
    )


def acceleration_weight(z_ddot: float, config: WeightConfig) -> float:
    """Inverse-variance weight 1/sigma(|zdd|)^2, nonincreasing in |zdd|."""
    s = 1.0 / (1.0 + math.exp(-config.k_w * (abs(z_ddot) - config.a0)))
    sigma = config.sigma_good + (config.sigma_bad - config.sigma_good) * s
    return 1.0 / (sigma * sigma)


def wls_linear_fit(
    samples: StanceSamples,
    config: WeightConfig,
    treatment: str = "",
    drag_model=None,
) -> FitResult:
    """Acceleration-aware weighted least squares of force on depth.

    Every sample is retained with a positive weight.  `drag_model`, if
    given, is a callable g_a(z) whose zd^2 contribution is subtracted
    from the force before fitting (off by default: weighting alone).
    """
    X, f = _design(samples)
    if drag_model is not None:
        f = f - drag_model(samples.z) * np.maximum(samples.z_dot, 0.0) ** 2
    # the scalar law (math.exp) per sample: numpy's exp may differ in the last bit
    w = np.array([acceleration_weight(a, config) for a in samples.z_ddot.tolist()])
    if not np.all(np.isfinite(w)) or w.sum() <= 0.0:
        raise DegenerateFitError("degenerate weights")
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(X * sw[:, None], f * sw, rcond=None)
    resid = f - X @ coef
    return FitResult(
        k_est=float(coef[0]),
        intercept=float(coef[1]),
        rmse=float(np.sqrt(np.sum(w * resid**2) / np.sum(w))),
        n_samples=len(samples),
        treatment=treatment,
    )


_FIT_LOWER = np.array([0.0, 0.0, 1e-5])       # k, m_a_inf, z_c
_FIT_UPPER = np.array([np.inf, np.inf, 1.0])
_FIT_TOL = 1e-14
_FIT_MAX_ITER = 300


def _bounded_levenberg_marquardt(
    z: np.ndarray, v2: np.ndarray, f: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of F = k*z + (m_a_inf/z_c)*exp(-z/z_c)*v^2 in the box.

    Levenberg-Marquardt (More, 1978) on column-scaled normal equations with
    the analytic Jacobian; a parameter held at a bound by the gradient is
    left out of the step, and each trial point is clipped to the box.  Stops
    when the scaled gradient, the relative cost reduction or the scaled step
    falls below _FIT_TOL; returns the parameters and their residuals.  Only
    steps that lower a finite cost are taken, so a finite start stays finite.
    """

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
        scale[scale == 0.0] = 1.0  # m_a_inf = 0 zeroes the z_c column
        jac_s = jac / scale
        grad = jac_s.T @ r
        # a parameter on the box edge whose descent direction leaves the box stays put
        free = ~(((p <= _FIT_LOWER) & (grad > 0.0)) | ((p >= _FIT_UPPER) & (grad < 0.0)))
        if np.max(np.abs(grad[free]), initial=0.0) <= _FIT_TOL * math.sqrt(cost):
            return p, r
        jac_free = jac_s[:, free]
        step = np.zeros(3)
        step[free] = np.linalg.solve(
            jac_free.T @ jac_free + damping * np.eye(jac_free.shape[1]), -grad[free]
        ) / scale[free]
        trial = np.clip(p + step, _FIT_LOWER, _FIT_UPPER)
        small_step = np.linalg.norm((trial - p) * scale) <= _FIT_TOL * (_FIT_TOL + np.linalg.norm(p * scale))
        r_trial, e_trial = residuals(trial)
        cost_trial = float(r_trial @ r_trial)
        if cost_trial < cost:
            converged = small_step or cost - cost_trial <= _FIT_TOL * cost
            p, r, e, cost = trial, r_trial, e_trial, cost_trial
            if converged:
                return p, r
            jac = jacobian(p, e)
            damping = max(damping / 10.0, 1e-12)  # keeps the damped system positive definite
        elif small_step:
            return p, r
        else:
            damping *= 10.0
    raise DegenerateFitError(f"intrusion model fit did not converge in {_FIT_MAX_ITER} iterations")


def fit_depth_speed_model(logs: list[IntrusionLog]) -> DepthSpeedFit:
    """Fit the parametric terrain model to constant-speed intrusion sweeps.

    Constant-speed data has zero penetration acceleration, so the fit of
    (k, m_a_inf, z_c) is unbiased by the added-mass term.  Requires at
    least two distinct speeds to separate the drag gradient from the
    depth stiffness.
    """
    speeds = {round(log.speed, 9) for log in logs}
    if len(speeds) < 2:
        raise InsufficientDataError("need intrusion sweeps at >= 2 distinct speeds")
    z = np.concatenate([log.depth for log in logs])
    v = np.concatenate([np.full(log.depth.shape, log.speed) for log in logs])
    f = np.concatenate([log.force for log in logs])
    keep = z > 0.0
    z, v, f = z[keep], v[keep], f[keep]
    if z.size < 10:
        raise InsufficientDataError("too few in-contact intrusion samples")

    # Initial guesses: depth slope from the slowest sweep, gradient scale
    # from the low-depth drag residual.
    slow = min(logs, key=lambda lg: lg.speed)
    zs, fs = slow.depth[slow.depth > 0.0], slow.force[slow.depth > 0.0]
    k0 = float(np.polyfit(zs, fs, 1)[0])
    zc0 = max(float(np.median(z)) / 2.0, 1e-3)
    resid0 = f - k0 * z
    with np.errstate(divide="ignore", invalid="ignore"):
        g_samples = resid0 / np.maximum(v * v, 1e-12)
    ma0 = max(float(np.median(g_samples)) * zc0, 1e-3)

    p, resid = _bounded_levenberg_marquardt(z, v * v, f, np.array([max(k0, 1.0), ma0, zc0]))
    k_fit, ma_fit, zc_fit = (float(x) for x in p)
    rmse = float(np.sqrt(np.mean(resid**2)))
    return DepthSpeedFit(
        k_fit=k_fit, m_a_inf_fit=ma_fit, z_c_fit=zc_fit, rmse=rmse, n_samples=int(z.size)
    )


def added_mass_reconstruction(
    fit: DepthSpeedFit,
    z: np.ndarray,
    z_dot: np.ndarray,
    z_ddot: np.ndarray,
    f_measured: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted added-mass force and the measured residual it should explain.

    Residual = F - k_fit*z - g_a(z)*zd^2; prediction = m_a(z)*zdd, both with
    the momentum-flux terms active only while penetrating (zd >= 0).
    """
    z = np.asarray(z, dtype=float)
    zd = np.asarray(z_dot, dtype=float)
    zdd = np.asarray(z_ddot, dtype=float)
    f = np.asarray(f_measured, dtype=float)
    pen = (zd >= 0.0) & (z > 0.0)
    residual = f - fit.k_fit * z - np.where(pen, fit.gradient(z) * zd * zd, 0.0)
    predicted = np.where(pen, fit.added_mass(z) * zdd, 0.0)
    return predicted, residual


@dataclass(frozen=True)
class TrialSamples:
    """Stance samples of one trial, keyed by experimental condition."""

    v_td: float             # nominal touchdown speed [m/s]
    k_c_n_per_cm: float     # compression stiffness in the sweep's native unit
    seed: object
    samples_qs: StanceSamples
    samples_mo: StanceSamples


@dataclass(frozen=True)
class ConditionStats:
    v_td: float
    k_c_n_per_cm: float
    treatment: str
    mean_k: float
    sem_k: float
    rel_err: float
    n: int


@dataclass
class TreatmentReport:
    k_gt: float
    conditions: list[ConditionStats]
    fits: list[dict] = field(default_factory=list)  # per-trial rows for plotting


def sem(values: np.ndarray) -> float:
    """Standard error of the mean: sample std / sqrt(n); zero for n < 2."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def fit_treatments(trial: TrialSamples, weights: WeightConfig) -> dict[str, FitResult]:
    """The three per-trial fits: QS+OLS, MO+OLS, MO+WLS."""
    return {
        "noMO_noGD": ols_linear_fit(trial.samples_qs, treatment="noMO_noGD"),
        "MO_noGD": ols_linear_fit(trial.samples_mo, treatment="MO_noGD"),
        "MO_GD": wls_linear_fit(trial.samples_mo, weights, treatment="MO_GD"),
    }


def treatment_comparison(
    trials: list[TrialSamples],
    k_gt: float,
    weights: WeightConfig | None = None,
) -> TreatmentReport:
    """Per-condition mean +/- SEM of the stiffness estimate for each treatment."""
    if not trials:
        raise InsufficientDataError("no trials to compare")
    weights = weights if weights is not None else WeightConfig()
    by_condition: dict[tuple[float, float], list[TrialSamples]] = {}
    for trial in trials:
        by_condition.setdefault((trial.v_td, trial.k_c_n_per_cm), []).append(trial)

    report = TreatmentReport(k_gt=k_gt, conditions=[])
    for (v_td, kc), group in sorted(by_condition.items()):
        per_treatment: dict[str, list[float]] = {name: [] for name in TREATMENTS}
        for trial in group:
            fits = fit_treatments(trial, weights)
            for name, fit in fits.items():
                per_treatment[name].append(fit.k_est)
                report.fits.append(
                    {
                        "v_td": v_td,
                        "k_c_n_per_cm": kc,
                        "treatment": name,
                        "k_est": fit.k_est,
                        "seed": trial.seed,
                    }
                )
        for name in TREATMENTS:
            ks = np.array(per_treatment[name])
            mean_k = float(np.mean(ks))
            report.conditions.append(
                ConditionStats(
                    v_td=v_td,
                    k_c_n_per_cm=kc,
                    treatment=name,
                    mean_k=mean_k,
                    sem_k=sem(ks),
                    rel_err=abs(mean_k - k_gt) / k_gt,
                    n=ks.size,
                )
            )
    return report
