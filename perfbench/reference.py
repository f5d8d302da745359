"""A fixed reference job that measures how fast the host core runs right now.

On the shared host the benchmark was built on, the speed one core gives a
process switches between states about 1.8x apart, each lasting from a second
to minutes, and the two cores switch independently (other tenants' load on
the physical cores).  Wall time alone then drifts by 15-40% between runs of
the same code.  The runner therefore pins itself to one core, times this job
right before and after every CLI call, and reports each call's time scaled
to the host speed at which the job takes ``NOMINAL_S``:
``scaled = wall * (NOMINAL_S / mean(reference before, reference after)) **
SPEED_EXPONENT``.  Set-up times are scaled by the median reference time of
the whole run.

The job is a blend of the kinds of work the pipeline spends its time on: a
float-to-text-to-float round trip (the CSV layer), a pure-Python loop over
small objects (the UAV environment step), small-vector numpy arithmetic, and
a batch of small complex SVDs through LAPACK (the H-infinity grid search and
the DMD fit).  It never calls the program, so a change to the program cannot
change the reference.  The program slows down less than the job when the
core slows (about 1.5x where the job slows 1.8x), which ``SPEED_EXPONENT``
accounts for.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median reference time on the 2-vCPU KVM guest (Intel Xeon,
# AVX-512, OpenBLAS with one thread) the benchmark was tuned on, where single
# runs of the job took 6 ms (fast state) to 12 ms (slow state).  It only sets
# the unit of the scaled times.
NOMINAL_S = 0.008
# Slope of log(pass wall time) against log(mean reference time of the pass)
# over 122 passes on that host: 0.69 (linear-gain), 0.74 (uav-policies) and
# 0.63 (wide-io), each with correlation 0.87-0.97.  With an exponent of 1 a
# switch of the host from the fast to the slow state moved scaled times by
# 15-30% the other way.
SPEED_EXPONENT = 0.7
REPEATS = 3
_FLOATS = 3_000
_LOOP = 8_000
_VECTOR_STEPS = 600
_SVD_BATCH, _SVD_N = 8, 42


def _matrices() -> np.ndarray:
    rng = np.random.default_rng(0)
    k = rng.standard_normal((_SVD_N, _SVD_N)) / np.sqrt(_SVD_N)
    z = np.exp(1j * np.linspace(0.0, np.pi, _SVD_BATCH))
    return z[:, None, None] * np.eye(_SVD_N) - k[None, :, :]


_MATS = _matrices()


def _once() -> float:
    start = time.perf_counter()
    text = [repr(i * 0.1234567891) for i in range(_FLOATS)]
    total = sum(float(t) for t in text)
    state = {"x": 0.0, "y": 0.0}
    for i in range(_LOOP):
        state["x"] = 0.5 * state["x"] + (i % 7)
        state["y"] = max(state["y"], state["x"])
    x = np.ones(26)
    for _ in range(_VECTOR_STEPS):
        x = 0.999 * x + 0.001
    total += float(np.linalg.svd(_MATS, compute_uv=False)[0, 0]) + state["y"] + float(x[0])
    elapsed = time.perf_counter() - start
    if not total > 0.0:
        raise AssertionError("reference job computed nothing")
    return elapsed


def reference_s() -> float:
    """Median wall time of REPEATS runs of the reference job."""
    return float(statistics.median(_once() for _ in range(REPEATS)))


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at nominal host speed, from the reference times around it."""
    return wall_s * (NOMINAL_S / ((before_s + after_s) / 2.0)) ** SPEED_EXPONENT
