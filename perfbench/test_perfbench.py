"""Tests of the benchmark's own pieces: the two soundness oracles, span self
time and the host-speed scaling of timings.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import (  # noqa: E402
    CheckLog,
    check_admissible,
    check_gain,
    gain_lower_bound,
    spectral_peak,
)
from tracing import Span, self_time  # noqa: E402


def _rotation(radius: float, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


def _narrow_peak_operator() -> np.ndarray:
    """Block-diagonal 4x4 whose second pole sits 1e-5 inside the unit circle,
    halfway between two points of a 4096-point grid on [0, pi]."""
    k = np.zeros((4, 4))
    k[:2, :2] = _rotation(0.9997, 0.3)
    k[2:, 2:] = _rotation(1.0 - 1e-5, 2.0 + 0.5 * math.pi / 4095)
    return k


def test_gain_oracle_finds_narrow_off_grid_peak():
    oracle, omega = gain_lower_bound(_narrow_peak_operator())
    # The operator is normal, so the true gain is 1 / (1 - |lambda|) = 1e5.
    assert oracle == pytest.approx(1e5, rel=1e-6)
    assert oracle <= 1e5
    assert omega == pytest.approx(2.0 + 0.5 * math.pi / 4095, abs=1e-9)


def test_gain_check_flags_under_reported_gain_from_hinf_norm():
    from koopbound.hinf_spectral import TransferFunction, hinf_norm

    oracle, _ = gain_lower_bound(_narrow_peak_operator())
    reported = hinf_norm(TransferFunction.resolvent(_narrow_peak_operator())).value

    log = CheckLog()
    ratio = check_gain(log, reported, oracle, "4x4")
    # The grid search reports about 3333 here; whatever it reports, the check
    # fails exactly when the value is below the true gain.
    assert (log.failed() == 1) == (reported < 0.999 * 1e5)
    assert ratio == pytest.approx(oracle / reported)

    log = CheckLog()
    check_gain(log, 3333.3, oracle, "under-reported")
    check_gain(log, 1e5, oracle, "exact")
    check_gain(log, math.inf, oracle, "unstable")
    assert log.counts["gain_oracle"] == (3, 1)


def test_admissibility_oracle_flags_peak_between_8k_grid_points():
    k, gamma = 256, 0.5
    grid8 = 8 * k
    # A tone halfway between two points of the 8K grid; scaled so that its
    # peak on that grid is exactly gamma.
    omega = 2.0 * math.pi * (37 + 0.5) / grid8
    w = np.cos(omega * np.arange(k))[:, None] * np.array([[0.6, 0.8]])
    w *= gamma / np.max(np.linalg.norm(np.fft.fft(w, n=grid8, axis=0), axis=1))
    assert np.max(np.linalg.norm(np.fft.fft(w, n=grid8, axis=0), axis=1)) <= gamma * (1 + 1e-12)

    log = CheckLog()
    ratio = check_admissible(log, w, gamma, "tone")
    assert log.counts["admissibility_oracle"] == (1, 1)
    assert ratio > 1.005

    log = CheckLog()
    check_admissible(log, w * (gamma / spectral_peak(w)), gamma, "rescaled")
    assert log.failed() == 0


def test_spectral_peak_matches_full_fft():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((50, 3))
    full = np.max(np.linalg.norm(np.fft.fft(w, n=64 * 50, axis=0), axis=1))
    assert spectral_peak(w) == pytest.approx(full, rel=1e-12)


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "cli.verify", 0.0, 10.0, None),
        Span(1, "bounds.verify_bounds", 2.0, 7.0, 0),
        Span(2, "hinf_spectral.hinf_norm", 3.0, 6.0, 1),
        Span(3, "env_sim.rollout", 7.5, 9.0, 0),
    ]
    assert self_time(spans[0], spans) == pytest.approx(10.0 - 5.0 - 1.5)
    assert self_time(spans[1], spans) == pytest.approx(5.0 - 3.0)
    assert self_time(spans[2], spans) == pytest.approx(3.0)


def test_tracer_records_parent_ids():
    from tracing import Tracer

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert self_time(outer, tracer.spans) == pytest.approx(outer.duration - inner.duration)
    # One tick to open and one to close each span is the tracer's own time.
    assert tracer.bookkeeping_s == 4.0


def test_scaled_time_follows_mean_reference_time():
    from reference import NOMINAL_S, SPEED_EXPONENT, scaled

    assert scaled(3.0, NOMINAL_S, NOMINAL_S) == pytest.approx(3.0)
    # The reference took twice its nominal time on average around the call:
    # the core ran slow, and the call counts 2**-SPEED_EXPONENT of its wall time.
    assert scaled(3.0, NOMINAL_S, 3.0 * NOMINAL_S) == pytest.approx(3.0 * 2.0 ** -SPEED_EXPONENT)
