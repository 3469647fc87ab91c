"""CPU-speed calibration for a shared, noisy host.

On the 2-vCPU VMs this benchmark was built on, the speed a process gets
drifts by up to ~40 % over tens of seconds (other tenants; no CPU steal is
reported), so raw wall times of identical runs spread far wider than any
useful regression bound.  Each repetition therefore times four fixed
kernels right before and right after its workload, in the same process: a
Python integer loop, a scalar float ODE loop, small numpy matrix products
and float-to-text formatting, the operation mix of hopperlab's hot paths.
The geometric mean of their medians is the repetition's calibration time,
and reported times are scaled to `REFERENCE_S`: "seconds at the reference
speed".  Raw times are printed next to them.  The kernels use nothing from
`src/`, so a change to hopperlab cannot move the calibration.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# calibration time of an Intel Xeon 2-vCPU VM (Python 3.11, numpy 2.4) in a
# quiet period; it only fixes the scale of the reported seconds
REFERENCE_S = 0.0120
SAMPLES = 3


def _int_loop():
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return s


def _float_ode():
    x, v = 0.1, 0.0

    def accel(x, v):
        return -800.0 * x - 3.0 * v + math.exp(-x / 0.015) * v * v

    for _ in range(40_000):
        a = accel(x, v)
        x += 1e-4 * v
        v += 1e-4 * a
    return x


def _small_matrices():
    p = np.eye(4)
    f = np.eye(4) + 1e-3
    for _ in range(3000):
        p = f @ p @ f.T + 1e-6
        p = 0.5 * (p + p.T)
    return p


def _format_floats():
    return ",".join(repr(float(v)) for v in np.linspace(0.001, 1.0, 20_000))


KERNELS = (_int_loop, _float_ode, _small_matrices, _format_floats)


def calibration_s() -> float:
    """Geometric mean over the kernels of each kernel's median time."""
    log_sum = 0.0
    for kernel in KERNELS:
        times = []
        for _ in range(SAMPLES):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        log_sum += math.log(statistics.median(times))
    return math.exp(log_sum / len(KERNELS))
