"""Small signal-conditioning helpers for the sensor model and identification."""

from __future__ import annotations

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


def smoothed_derivative(x: np.ndarray, dt: float, window: int = 11, polyorder: int = 2) -> np.ndarray:
    """Local least-squares polynomial slope (Savitzky-Golay derivative).

    Interior samples are a convolution with the Savitzky & Golay (1964)
    slope coefficients; the first and last `window // 2` samples take the
    slope of the polynomial fitted to the first or last full window, as
    scipy's `savgol_filter(..., deriv=1, mode="interp")` does.  Series
    shorter than `window` use the longest odd window that fits, or
    `np.gradient` when that is too short for the polynomial.
    """
    x = np.asarray(x, dtype=float)
    if x.size < window:
        window = x.size if x.size % 2 == 1 else x.size - 1
        if window < polyorder + 2:
            return np.gradient(x, dt)
    if window % 2 == 0 or not 1 <= polyorder < window:
        raise ValueError(f"need an odd window > polyorder >= 1, got window={window}, polyorder={polyorder}")
    half = window // 2
    # rows: powers of the window offsets, reversed for convolution
    vander = np.arange(half, -half - 1, -1.0) ** np.arange(polyorder + 1)[:, None]
    coeffs = np.linalg.lstsq(vander, np.eye(polyorder + 1)[1] / dt, rcond=None)[0]
    out = np.convolve(x, coeffs, "same")
    i = np.arange(window, dtype=float)
    out[:half] = np.polyval(np.polyder(np.polyfit(i, x[:window], polyorder)), i[:half]) / dt
    out[-half:] = np.polyval(np.polyder(np.polyfit(i, x[-window:], polyorder)), i[-half:]) / dt
    return out
