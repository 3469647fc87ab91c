"""Small signal-conditioning helpers for the sensor model and identification."""

from __future__ import annotations

import numpy as np
from scipy.signal import savgol_filter


def smoothed_backward_difference(x: np.ndarray, dt: float, window: int = 5) -> np.ndarray:
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
    """Local least-squares polynomial slope (Savitzky-Golay derivative)."""
    x = np.asarray(x, dtype=float)
    if x.size < window:
        window = x.size if x.size % 2 == 1 else x.size - 1
        if window < polyorder + 2:
            return np.gradient(x, dt)
    return savgol_filter(x, window, polyorder, deriv=1, delta=dt, mode="interp")

