"""Small signal-conditioning helpers for the sensor model and identification."""

from __future__ import annotations

import functools

import numpy as np

# samples the encoder rate is averaged over, as a motor driver reports it;
# the Kalman filter's rate variance assumes the same window
ENCODER_RATE_WINDOW = 5


def smoothed_backward_difference(x: np.ndarray, dt: float, window: int) -> np.ndarray:
    """Backward difference averaged over `window` samples.

    The mean of the last `window` one-step differences telescopes to
    (x[k] - x[k-window]) / (window*dt).  Early samples fall back to the
    span available; the first sample is zero.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    out = np.zeros(n)
    for k in range(1, min(window, n)):
        out[k] = (x[k] - x[0]) / (k * dt)
    if n > window:
        out[window:] = (x[window:] - x[:-window]) / (window * dt)
    return out


@functools.lru_cache(maxsize=8)
def _slope_operator(window: int, polyorder: int, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The linear maps of `smoothed_derivative` at one (window, polyorder, dt).

    The slope coefficients reversed for convolution, and the two
    `half x window` matrices that take the first or last full window to
    the slope of its least-squares polynomial at the window's first or
    last `half` offsets.  They do not see the data, so each is computed
    once per process; a few are kept, the least recently used dropped.
    """
    half = window // 2
    powers = np.arange(polyorder + 1)
    # rows: powers of the window offsets, reversed for convolution
    vander = np.arange(half, -half - 1, -1.0) ** powers[:, None]
    coeffs = np.linalg.lstsq(vander, np.eye(polyorder + 1)[1] / dt, rcond=None)[0]
    # the window's least-squares polynomial in u = offset / half, which
    # keeps the powers of u within [-1, 1], as one map per coefficient
    u = np.arange(-half, half + 1) / half
    fit = np.linalg.lstsq(u[:, None] ** powers, np.eye(window), rcond=None)[0]
    # its slope p u^(p-1) / (half dt) at the edge offsets, p = 0 giving 0
    edge = np.concatenate([u[:half], u[-half:]])[:, None]
    slope = (powers * edge ** np.maximum(powers - 1, 0)) @ fit / (half * dt)
    operator = coeffs, slope[:half], slope[half:]
    for array in operator:
        array.flags.writeable = False
    return operator


def smoothed_derivative(x: np.ndarray, dt: float, window: int = 11, polyorder: int = 2) -> np.ndarray:
    """Local least-squares polynomial slope (Savitzky-Golay derivative).

    Interior samples are a convolution with the Savitzky & Golay (1964)
    slope coefficients; the first and last `window // 2` samples take the
    slope of the polynomial fitted to the first or last full window, as
    scipy's `savgol_filter(..., deriv=1, mode="interp")` does, each a
    precomputed linear map of that window (`_slope_operator`).  Series
    shorter than `window` use the longest odd window that fits, or
    `np.gradient` when that is too short for the polynomial.

    The edge maps take their window less its own end sample, which no
    slope sees: a constant series then has edge slopes of exactly zero,
    where the maps' rounding would leave one ulp of the constant (for a
    subnormal constant, a whole step of the float grid).
    """
    x = np.asarray(x, dtype=float)
    if x.size < window:
        window = x.size if x.size % 2 == 1 else x.size - 1
        if window < polyorder + 2:
            return np.gradient(x, dt)
    if window % 2 == 0 or not 1 <= polyorder < window:
        raise ValueError(f"need an odd window > polyorder >= 1, got window={window}, polyorder={polyorder}")
    half = window // 2
    coeffs, head, tail = _slope_operator(window, polyorder, dt)
    out = np.convolve(x, coeffs, "same")
    out[:half] = head @ (x[:window] - x[0])
    out[-half:] = tail @ (x[-window:] - x[-1])
    return out
