"""Acceptance numbers and the criterion-2 verdict, from plain result data.

Kept free of hopperlab imports: run.py pools closed_loop repetitions (one
seed each) and judges the pool here.
"""

from __future__ import annotations

import math
import statistics

# criterion 2 of the acceptance gate, at the middle stiffness
MO_GD_LIMIT = 0.10
QS_OVER_MO_GD_MIN = 2.0
RATIO_CONDITION = (1.2, 3.75)

# the Kalman filter's start-up transient, skipped as criterion 7 does
RMSE_SKIP = 100


def accuracy(conditions: list[dict], k_gt: float, k_fit: float | None, rmse_m: float) -> dict[str, float]:
    """The acceptance numbers a speed-up must leave unchanged."""
    errs = {(c["v_td"], c["k_c_n_per_cm"], c["treatment"]): c["rel_err"] for c in conditions}
    mo_gd = errs.get((*RATIO_CONDITION, "MO_GD"))
    qs = errs.get((*RATIO_CONDITION, "noMO_noGD"))
    return {
        "identification.mo_gd_max_rel_err": max(e for (_, _, t), e in errs.items() if t == "MO_GD"),
        "identification.qs_over_mo_gd_v1.2": qs / mo_gd if qs is not None and mo_gd else 0.0,
        "identification.k_fit_rel_err": abs(k_fit - k_gt) / k_gt if k_fit is not None else 0.0,
        "estimation.body_height_rmse_mm": rmse_m * 1000.0,
    }


def check_closed_loop(conditions: list[dict]) -> tuple[bool, str]:
    """Criterion 2: MO_GD within 10 % at every speed, QS error at least
    twice MO_GD at 1.2 m/s."""
    errs = {(c["v_td"], c["k_c_n_per_cm"], c["treatment"]): c["rel_err"] for c in conditions}
    mo_gd = {v: e for (v, kc, t), e in errs.items() if kc == RATIO_CONDITION[1] and t == "MO_GD"}
    key = (*RATIO_CONDITION, "MO_GD")
    if key not in errs:
        return False, f"criterion 2 needs the {RATIO_CONDITION} condition"
    ratio = errs[(*RATIO_CONDITION, "noMO_noGD")] / errs[key] if errs[key] else math.inf
    ok = all(e <= MO_GD_LIMIT for e in mo_gd.values()) and ratio >= QS_OVER_MO_GD_MIN
    detail = (
        "MO_GD errors " + ", ".join(f"{v}:{e * 100:.1f}%" for v, e in sorted(mo_gd.items()))
        + f"; noMO/MO_GD at {RATIO_CONDITION[0]} = {ratio:.1f}x"
    )
    return ok, detail


def pool_closed_loop(reps: list[dict], seeds: list[int]) -> tuple[bool, str, dict | None]:
    """Criterion 2 and accuracy over the per-trial fits of all repetitions.

    Each repetition ran one seed; a seed run twice must give the same fits.
    """
    k_est: dict[tuple, float] = {}
    errors: dict[int, tuple[float, int]] = {}
    for rep in reps:
        for fit in rep["fits"]:
            key = (fit["v_td"], fit["k_c_n_per_cm"], fit["treatment"], fit["seed"])
            if k_est.setdefault(key, fit["k_est"]) != fit["k_est"]:
                return False, f"repetitions disagree on {key}", None
        seed = rep["fits"][0]["seed"]
        if errors.setdefault(seed, (rep["sq_err"], rep["n_err"])) != (rep["sq_err"], rep["n_err"]):
            return False, f"repetitions disagree on seed {seed}", None
    missing = sorted(set(seeds) - set(errors))
    if missing:
        return False, f"seeds {missing} were not run", None

    k_gt = reps[0]["k_gt"]
    by_condition: dict[tuple, list[float]] = {}
    for (v, kc, treatment, _), k in sorted(k_est.items()):
        by_condition.setdefault((v, kc, treatment), []).append(k)
    conditions = [
        {"v_td": v, "k_c_n_per_cm": kc, "treatment": t, "rel_err": abs(statistics.fmean(ks) - k_gt) / k_gt}
        for (v, kc, t), ks in by_condition.items()
    ]
    ok, detail = check_closed_loop(conditions)
    sq_err = sum(sq for sq, _ in errors.values())
    n_err = sum(n for _, n in errors.values())
    rmse = math.sqrt(sq_err / n_err) if n_err else 0.0
    return ok, f"{detail} ({len(errors)} seeds pooled)", accuracy(conditions, k_gt, None, rmse)
