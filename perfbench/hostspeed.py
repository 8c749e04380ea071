"""Host-speed correction: a fixed reference kernel timed between operations.

The benchmark's host is a share of a busy machine.  Its speed drifts by tens
of percent over stretches of seconds to minutes, with no steal time showing,
and CPU time drifts with wall time.  A run's raw latencies therefore measure
the host as much as the program.

The reference kernel below does a fixed amount of the same kind of work as
zerowind (interpreted scalar arithmetic, small NumPy array operations and a
small ``np.roots`` eigenvalue problem) and touches no zerowind code, so no
change to the library can change its time.  It runs after every timed
operation.  Each operation's latency is scaled by REFERENCE_MS over the
kernel's local time, the median of the kernel samples around the operation.
The result is the latency the operation would have on a host where the
kernel takes REFERENCE_MS.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Nominal time of one reference() call; corrected latencies are in these units of host speed.
REFERENCE_MS = 3.0
# Kernel samples in the rolling median that gives an operation's local host speed.
WINDOW = 25

_Z0 = np.linspace(0.0, 2.0 * np.pi, 64)
_ROOTS_OF = np.array([1.0, 0.2, -0.3, 0.4, 0.1])


def reference() -> float:
    """A fixed amount of interpreter, NumPy and LAPACK work, about 3 ms on a 2-vCPU Xeon VM."""
    x = 0.0
    for i in range(2000):
        x += math.sin(i * 0.001) * math.cos(x)
    z = _Z0
    for _ in range(60):
        w = np.exp(1j * z) * (1.0 + 0.1j)
        z = z + float(np.abs(w).mean()) * 1e-12
        x += float(np.roots(_ROOTS_OF).real.sum())
    return x


def time_reference() -> float:
    """Seconds one reference() call takes."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def local_reference(ref_times: list[float], window: int = WINDOW) -> list[float]:
    """Rolling median of the kernel times, centred on each sample, shrunk at the ends."""
    n = len(ref_times)
    half = min(window, n) // 2
    out = []
    for j in range(n):
        lo = min(max(0, j - half), max(0, n - 2 * half - 1))
        out.append(statistics.median(ref_times[lo : lo + 2 * half + 1]))
    return out


def corrected(latencies: list[float], ref_times: list[float], window: int = WINDOW) -> list[float]:
    """Each latency scaled to a host on which reference() takes REFERENCE_MS."""
    if len(latencies) != len(ref_times):
        raise ValueError("one reference time per latency is needed")
    scale = REFERENCE_MS * 1e-3
    return [lat * scale / ref for lat, ref in zip(latencies, local_reference(ref_times, window))]
