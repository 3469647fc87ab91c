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
closed-form integral m_a(z) is the added-mass profile used to explain
the residual force transients during hopping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import POSITIVE, DegenerateFitError, InsufficientDataError, check_domains
from .estimation import EstimationSeries
from .signals import smoothed_derivative
from .simulator import IntrusionLog, TrialEvents

TREATMENTS = ("noMO_noGD", "MO_noGD", "MO_GD")


@dataclass(frozen=True)
class StanceSamples:
    """One trial's stance samples: aligned depth kinematics and force readings."""

    z: np.ndarray
    z_dot: np.ndarray
    z_ddot: np.ndarray
    f: np.ndarray
    t: np.ndarray

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class WeightConfig:
    """Sigmoid inverse-variance weighting in |zdd| (SI units)."""

    sigma_good: float = field(default=1.0, metadata=POSITIVE)   # [N]
    sigma_bad: float = field(default=20.0, metadata=POSITIVE)   # [N]
    k_w: float = field(default=0.8, metadata=POSITIVE)          # sigmoid slope [s^2/m]
    a0: float = field(default=8.0, metadata=POSITIVE)           # acceleration threshold [m/s^2]

    def __post_init__(self):
        check_domains(self)
        if not self.sigma_good <= self.sigma_bad:
            raise ValueError("sigma_good must not exceed sigma_bad")


@dataclass(frozen=True)
class FitResult:
    """Depth-stiffness line fit."""

    k_est: float
    intercept: float


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

    def added_mass(self, z) -> np.ndarray:
        """Fitted added mass m_a(z) = m_a_inf*(1 - exp(-z/z_c)) [kg], the
        integral of `gradient` from the surface."""
        return self.m_a_inf_fit * (1.0 - np.exp(-np.asarray(z, dtype=float) / self.z_c_fit))

    def in_box(self) -> bool:
        """Whether (k, m_a_inf, z_c) lie in the box the fit searches."""
        p = np.array([self.k_fit, self.m_a_inf_fit, self.z_c_fit])
        return bool(np.all((_FIT_LOWER <= p) & (p <= _FIT_UPPER)))


def extract_samples(est: EstimationSeries, events: TrialEvents, source: str) -> StanceSamples:
    """Stance-window regression samples from one trial's estimates.

    Depth comes from the filtered foot height, its rate from the filtered
    foot velocity, and the acceleration from an 11-tap local-quadratic
    slope of that velocity.  Force source: "qs" (quasi-static) or "mo"
    (momentum observer).
    """
    if source == "qs":
        force = est.f_qs
    elif source == "mo":
        force = est.f_mo
    else:
        raise ValueError(f"unknown sample source {source!r}")

    dt = float(est.t[1] - est.t[0])
    z = np.maximum(0.0, -est.x_f_hat)
    z_dot = -est.v_f_hat
    z_ddot = -smoothed_derivative(est.v_f_hat, dt, window=11)

    mask = (est.t >= events.t_td) & (est.t <= events.t_lo) & (z > 0.0) & np.isfinite(force)
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise InsufficientDataError("empty stance window: no contact samples")
    return StanceSamples(z=z[idx], z_dot=z_dot[idx], z_ddot=z_ddot[idx], f=force[idx], t=est.t[idx])


def _design(samples: StanceSamples) -> tuple[np.ndarray, np.ndarray]:
    z = samples.z
    if z.size < 2 or np.ptp(z) <= 0.0:
        raise DegenerateFitError("need at least two samples with distinct depths")
    return np.column_stack([z, np.ones_like(z)]), samples.f


def ols_linear_fit(samples: StanceSamples) -> FitResult:
    """Ordinary least squares of force on depth with intercept."""
    X, f = _design(samples)
    coef, *_ = np.linalg.lstsq(X, f, rcond=None)
    return FitResult(k_est=float(coef[0]), intercept=float(coef[1]))


def acceleration_weight(z_ddot: float, config: WeightConfig) -> float:
    """Inverse-variance weight 1/sigma(|zdd|)^2, nonincreasing in |zdd|."""
    s = 1.0 / (1.0 + math.exp(-config.k_w * (abs(z_ddot) - config.a0)))
    sigma = config.sigma_good + (config.sigma_bad - config.sigma_good) * s
    return 1.0 / (sigma * sigma)


def wls_linear_fit(samples: StanceSamples, config: WeightConfig) -> FitResult:
    """Acceleration-aware weighted least squares of force on depth.

    Every sample is retained with a positive weight.
    """
    X, f = _design(samples)
    # the scalar law (math.exp) per sample: numpy's exp may differ in the last bit
    w = np.array([acceleration_weight(a, config) for a in samples.z_ddot.tolist()])
    if not np.all(np.isfinite(w)) or w.sum() <= 0.0:
        raise DegenerateFitError("degenerate weights")
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(X * sw[:, None], f * sw, rcond=None)
    return FitResult(k_est=float(coef[0]), intercept=float(coef[1]))


_FIT_LOWER = np.array([0.0, 0.0, 1e-5])       # k, m_a_inf, z_c
_FIT_UPPER = np.array([np.inf, np.inf, 1.0])
_ZC_GRID = 6        # log-spaced z_c values; the best one brackets the search
_ZC_TOL = 1e-8      # the search stops once its bracket in log z_c ends this close to its best point
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


def _search_log_zc(solve) -> tuple:
    """The least-cost `solve(log_zc)` over the box's z_c range, where `solve`
    returns a tuple whose first item is the cost.

    Brent's minimization (Brent 1973, ch. 5) inside the bracket of the best
    of a log-spaced grid: a parabola through the three best points when its
    step is short and inside the bracket, else a golden-section step.  The
    search starts at the bracket's golden-section point, so its first two
    solves cut the bracket as golden section does and, where the cost has
    two minima in the bracket, it keeps to golden section's side.  The best
    grid point competes with the search's best, so an optimum on the edge of
    the box is the edge exactly.
    """
    grid = np.linspace(math.log(_FIT_LOWER[2]), math.log(_FIT_UPPER[2]), _ZC_GRID).tolist()
    fits = [solve(x) for x in grid]
    i = min(range(_ZC_GRID), key=lambda j: fits[j][0])
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, _ZC_GRID - 1)]
    tol = _ZC_TOL / 2.0  # the least step; the bracket ends may lie 2*tol from x
    # x the best point so far, w the second best, v the previous w
    x = w = v = a + _GOLDEN * (b - a)
    best = solve(x)
    fw = fv = best[0]
    step = last = 0.0
    while max(x - a, b - x) > 2.0 * tol:
        mid = 0.5 * (a + b)
        parabolic = False
        if abs(last) > tol:
            r = (x - w) * (best[0] - fv)
            q = (x - v) * (best[0] - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # take the parabola's vertex only if it lies inside the bracket and
            # the step is under half the one before last, so steps shrink
            if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
                last, step = step, p / q
                parabolic = True
                if (x + step) - a < 2.0 * tol or b - (x + step) < 2.0 * tol:
                    step = tol if x <= mid else -tol
        if not parabolic:
            last = (a if x >= mid else b) - x
            step = _GOLDEN * last
        u = x + (step if abs(step) >= tol else tol if step >= 0.0 else -tol)
        fit_u = solve(u)
        if fit_u[0] <= best[0]:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw = w, fw, x, best[0]
            x, best = u, fit_u
        else:
            if u < x:
                a = u
            else:
                b = u
            if fit_u[0] <= fw or w == x:
                v, fv, w, fw = w, fw, u, fit_u[0]
            elif fit_u[0] <= fv or v == x or v == w:
                v, fv = u, fit_u[0]
    return min(best, fits[i], key=lambda fit: fit[0])


def fit_depth_speed_model(logs: list[IntrusionLog]) -> DepthSpeedFit:
    """Fit the parametric terrain model to constant-speed intrusion sweeps.

    Constant-speed data has zero penetration acceleration, so the fit of
    (k, m_a_inf, z_c) is unbiased by the added-mass term.  Requires at
    least two distinct speeds to separate the drag gradient from the
    depth stiffness.

    Variable projection (Golub & Pereyra, 1973): at a fixed z_c the model
    is linear in (k, m_a_inf), so only log z_c is searched.

    Each record holds one speed's kinematics once and its R repeats' force
    rows, so a (speed, depth) row enters once: with p the model and f_j the
    repeats' forces, sum_j (p - f_j)^2 = R*(p - fbar)^2 +
    sum_j (f_j - fbar)^2.  The columns carry sqrt(R) (sqrt(R)*z,
    sqrt(R)*v^2 and F/sqrt(R), F the force sum), so the search minimizes
    the first term on one row per sample of kinematics; the second, the
    spread within rows, is a constant added once to the cost behind
    `rmse`.  `n_samples` counts every repeat's samples.  With one repeat
    (R = 1) every scale is 1.0 and the spread 0.0.
    """
    speeds = {round(log.speed, 9) for log in logs}
    if len(speeds) < 2:
        raise InsufficientDataError("need intrusion sweeps at >= 2 distinct speeds")
    keeps = [log.depth > 0.0 for log in logs]
    counts = [int(np.count_nonzero(keep)) for keep in keeps]
    n_samples = sum(len(log.force) * count for log, count in zip(logs, counts))
    if n_samples < 10:
        raise InsufficientDataError("too few in-contact intrusion samples")

    # z for the exponent, the sqrt(R)-scaled columns for the sums; filled
    # in place, so the grid's rows are never held twice
    z, zs, v2, f = np.empty((4, sum(counts)))
    spread, stop = 0.0, 0
    for log, keep, count in zip(logs, keeps, counts):
        rows = slice(stop, stop + count)
        stop += count
        root = math.sqrt(len(log.force))
        forces = log.force[:, keep]
        total = sum(forces[1:], forces[0])
        mean = total / len(forces)
        spread += sum(float(np.einsum("i,i", d, d)) for d in (force - mean for force in forces))
        z[rows] = log.depth[keep]
        zs[rows] = z[rows] * root
        v2[rows] = log.speed * log.speed * root
        f[rows] = total / root

    # every n-long reduction is an einsum without `optimize`, which sums in
    # numpy's own loops: a BLAS product this long would wake its worker threads
    zz, zf = (float(np.einsum("i,i", zs, col)) for col in (zs, f))

    def solve(log_zc: float) -> tuple:
        """(cost, k, m_a_inf, z_c) of the least-squares
        (k, m_a_inf) >= 0 at z_c = exp(log_zc): the 2x2 normal equations of
        the columns [z, g], or, if their solution leaves the box, the better
        fit of one column alone, since the optimum then lies on an edge."""
        zc = max(math.exp(log_zc), float(_FIT_LOWER[2]))  # exp(log(z_c)) may round below the bound
        # in place, here and in the residuals: a fresh n-long temporary per
        # operation costs more than the arithmetic
        g = np.exp(z / -zc)
        g *= v2
        g /= zc
        zg, gg, gf = (float(np.einsum("i,i", g, col)) for col in (zs, g, f))

        def fit(k, ma):
            # the cost from the residuals themselves: the expanded
            # normal-equation form cancels badly near the optimum
            r = k * zs
            r += ma * g
            r -= f
            return float(np.einsum("i,i", r, r)), k, ma, zc

        det = zz * gg - zg * zg
        if det > 0.0:
            k, ma = (gg * zf - zg * gf) / det, (zz * gf - zg * zf) / det
            if k >= 0.0 and ma >= 0.0:
                return fit(k, ma)
        edges = (fit(max(zf / zz, 0.0), 0.0), fit(0.0, max(gf / gg, 0.0) if gg > 0.0 else 0.0))
        return min(edges, key=lambda edge: edge[0])

    cost, k_fit, ma_fit, zc_fit = _search_log_zc(solve)
    cost += spread
    if not math.isfinite(cost):
        raise DegenerateFitError("intrusion model is not finite on these samples")
    return DepthSpeedFit(
        k_fit=k_fit, m_a_inf_fit=ma_fit, z_c_fit=zc_fit, rmse=math.sqrt(cost / n_samples), n_samples=n_samples
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
        "noMO_noGD": ols_linear_fit(trial.samples_qs),
        "MO_noGD": ols_linear_fit(trial.samples_mo),
        "MO_GD": wls_linear_fit(trial.samples_mo, weights),
    }


def treatment_comparison(
    trials: list[TrialSamples],
    k_gt: float,
    weights: WeightConfig,
) -> TreatmentReport:
    """Per-condition mean +/- SEM of the stiffness estimate for each treatment."""
    if not trials:
        raise InsufficientDataError("no trials to compare")
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
