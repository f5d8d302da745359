"""Frequency response and worst-case gain: analytic oracles and search."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize_scalar

from koopbound import (
    DataError,
    DivergenceError,
    HinfReport,
    ParameterError,
    SchemaError,
    TransferFunction,
    hinf_norm,
)
from koopbound import hinf_spectral
from koopbound._jsonio import read_json, write_json


EPS = np.finfo(float).eps


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def rotation(radius, angle):
    c, s = math.cos(angle), math.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


def similar(rng, d):
    """d under the random similarity I + G / sqrt(n), G standard normal."""
    t = np.eye(len(d)) + rng.normal(size=d.shape) / math.sqrt(len(d))
    return t @ d @ np.linalg.inv(t)


def lightly_damped(rng, n):
    """Random real K whose eigenvalues have 1 - |lambda| log-uniform in
    [1e-4, 1e-1]: rotation blocks and real poles under a random similarity."""
    d = np.zeros((n, n))
    i = 0
    while i < n:
        margin = 10.0 ** rng.uniform(-4.0, -1.0)
        if i + 1 < n and rng.random() < 0.7:
            d[i:i + 2, i:i + 2] = rotation(1.0 - margin, rng.uniform(0.0, math.pi))
            i += 2
        else:
            d[i, i] = (1.0 - margin) * rng.choice([-1.0, 1.0])
            i += 1
    return similar(rng, d)


def sigma_min(k, omegas):
    """sigma_min(e^{jw} I - K) per frequency, in batches of 512 frequencies."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    out = []
    for start in range(0, omegas.size, 512):
        z = np.exp(1j * omegas[start:start + 512])
        mats = z[:, None, None] * np.eye(k.shape[0]) - k
        out.append(np.linalg.svd(mats, compute_uv=False)[:, -1])
    return np.concatenate(out)


def grid_max_gain(k, grid_points):
    """Largest resolvent gain on a uniform grid over [0, pi]."""
    return float(np.max(1.0 / sigma_min(k, np.linspace(0.0, math.pi, grid_points))))


def reference_sigma(k, grid_points=4096):
    """Reference oracle for min_w sigma_min(e^{jw} I - K): a dense grid plus
    a bounded 1-D search around every grid local minimum and every eigenvalue
    angle.

    Returns the smallest value seen and the SVD's backward error: the true
    minimum is at most their sum, so 1 / (best + slack) is a lower bound of
    the true gain that round-off cannot push above it.
    """
    grid = np.linspace(0.0, math.pi, grid_points)
    values = sigma_min(k, grid)
    best = float(np.min(values))
    inner = np.flatnonzero((values[1:-1] <= values[:-2]) & (values[1:-1] <= values[2:])) + 1
    windows = [(grid[i - 1], grid[i + 1]) for i in inner]
    for lam in np.linalg.eigvals(k):
        theta, half = abs(float(np.angle(lam))), max(4.0 * (1.0 - abs(lam)), 1e-9)
        windows.append((max(theta - half, 0.0), min(theta + half, math.pi)))
    for lo, hi in windows:
        res = minimize_scalar(lambda w: float(sigma_min(k, w)[0]), bounds=(lo, hi),
                              method="bounded", options={"xatol": (hi - lo) * 1e-10})
        best = min(best, float(res.fun))
    return best, k.shape[0] * EPS * (1.0 + np.linalg.norm(k, 2))


def narrow_peak_operator():
    """Block-diagonal 4x4 whose second pole sits 1e-5 inside the unit circle,
    halfway between two points of a 4096-point grid on [0, pi]."""
    k = np.zeros((4, 4))
    k[:2, :2] = rotation(0.9997, 0.3)
    k[2:, 2:] = rotation(1.0 - 1e-5, 2.0 + 0.5 * math.pi / 4095)
    return k


class TestSpectralRadius:
    """The spectral radius a resolvent's gain report carries."""

    @staticmethod
    def radius(k):
        return hinf_norm(TransferFunction.resolvent(k)).spectral_radius

    def test_zero_matrix(self):
        assert self.radius(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert np.isclose(self.radius(np.diag([0.5, -0.8])), 0.8)
        assert self.radius(np.diag([0.5, -1.25])) == 1.25

    def test_companion_double_root(self):
        # Characteristic polynomial l^2 - l + 1/4 has a double root at 0.5.
        k = np.array([[0.0, 1.0], [-0.25, 1.0]])
        assert np.isclose(self.radius(k), 0.5, atol=1e-8)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            self.radius(np.array([[np.nan]]))


class TestFrequencyResponse:
    """The resolvent gain 1 / sigma_min(e^{jw} I - K) of the sigma_min oracle."""

    def test_scalar_resolvent_dc(self):
        gain = 1.0 / sigma_min(np.array([[0.9]]), 0.0)[0]
        assert np.isclose(gain, 10.0, atol=1e-12)

    def test_scalar_resolvent_nyquist(self):
        gain = 1.0 / sigma_min(np.array([[0.9]]), math.pi)[0]
        assert np.isclose(gain, 1.0 / 1.9, atol=1e-12)

    def test_symmetry_about_zero(self):
        # A real K gives the same gain at -w as at w, which is why hinf_norm
        # searches [0, pi] only.
        rng = np.random.default_rng(0)
        k = rng.normal(size=(4, 4)) * 0.2
        omegas = rng.uniform(0.1, math.pi - 0.1, size=5)
        assert np.allclose(sigma_min(k, omegas), sigma_min(k, -omegas), rtol=1e-12, atol=0.0)


class TestHinfNorm:
    def test_scalar_positive_pole(self):
        report = hinf_norm(TransferFunction.resolvent(np.array([[0.9]])))
        assert abs(report.value - 10.0) <= 1e-6
        assert report.omega_star <= 1e-3
        assert report.converged and not report.ill_conditioned

    def test_diag_negative_dominant(self):
        report = hinf_norm(TransferFunction.resolvent(np.diag([0.5, -0.8])))
        assert abs(report.value - 5.0) <= 1e-6
        assert abs(report.omega_star - math.pi) <= 1e-3

    def test_unit_circle_pole_flagged_infinite(self):
        report = hinf_norm(TransferFunction.resolvent(np.array([[1.0]])))
        assert math.isinf(report.value)
        assert not report.converged

    def test_near_unit_circle_flagged_ill_conditioned(self):
        report = hinf_norm(TransferFunction.resolvent(np.array([[1.0 - 1e-7]])))
        assert report.converged and report.ill_conditioned
        assert np.isclose(report.value, 1e7, rtol=1e-4)

    def test_scalar_oracle_random(self):
        # For scalar K = [a], the supremum is 1/(1 - |a|).
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(-0.95, 0.95)
            if abs(a) < 1e-3:
                continue
            report = hinf_norm(TransferFunction.resolvent(np.array([[a]])))
            assert abs(report.value - 1.0 / (1.0 - abs(a))) <= 1e-6

    def test_normal_matrix_oracle(self):
        # Orthogonally diagonalizable K: the gain is max_i 1/(1 - |a_i|).
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            eigs = rng.uniform(-0.9, 0.9, size=n)
            q = random_orthogonal(rng, n)
            k = q @ np.diag(eigs) @ q.T
            report = hinf_norm(TransferFunction.resolvent(k))
            expected = 1.0 / (1.0 - np.max(np.abs(eigs)))
            assert abs(report.value - expected) <= 1e-6 * expected

    def test_lower_bound_soundness(self):
        rng = np.random.default_rng(3)
        k = rng.normal(size=(5, 5))
        k *= 0.85 / np.max(np.abs(np.linalg.eigvals(k)))
        report = hinf_norm(TransferFunction.resolvent(k))
        gains = 1.0 / sigma_min(k, np.linspace(0.0, math.pi, 113))
        assert np.all(report.value >= gains)

    def test_grid_monotonicity(self):
        # The certified upper end is never below what a 64K-point grid sees.
        rng = np.random.default_rng(4)
        for _ in range(5):
            k = rng.normal(size=(4, 4))
            k *= 0.9 / np.max(np.abs(np.linalg.eigvals(k)))
            report = hinf_norm(TransferFunction.resolvent(k))
            assert report.value >= grid_max_gain(k, 65536)

    def test_narrow_off_grid_peak(self):
        # The normal operator's gain is 1 / (1 - |lambda|) = 1e5, in a peak of
        # half-width 1e-5 that a 4096-point grid misses by a factor of 30.
        k = narrow_peak_operator()
        assert grid_max_gain(k, 4096) < 1e5 / 20
        report = hinf_norm(TransferFunction.resolvent(k))
        assert abs(report.value - 1e5) <= 1e-6 * 1e5
        assert abs(report.omega_star - (2.0 + 0.5 * math.pi / 4095)) <= 1e-9
        # sigma_min = 1e-5 is computed from entries of size 1, so both ends of
        # the bracket carry a relative round-off of about n * eps / 1e-5.
        rounding = 4 * EPS * (1.0 + np.linalg.norm(k, 2)) / 1e-5
        assert report.lower <= 1e5 * (1.0 + rounding)
        assert report.upper >= 1e5 * (1.0 - rounding)
        assert report.converged and not report.ill_conditioned

    @pytest.mark.parametrize("n", [4, 26, 42])
    def test_lightly_damped_random_operators(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(4):
            k = lightly_damped(rng, n)
            report = hinf_norm(TransferFunction.resolvent(k))
            best, slack = reference_sigma(k)
            assert report.upper >= 1.0 / (best + slack)
            # Not loose either: within 1e-6 of the largest gain the oracle saw.
            assert report.upper <= (1.0 + 1e-6) / (best - slack)
            assert report.lower <= report.upper
            # The bracket is 1e-13 wide plus the search's rounding allowance
            # on sigma_min, relative to the level it widens.
            search_slack = n * EPS * (1.0 + np.linalg.norm(k))
            sigma_best = 1.0 / report.lower
            assert ((report.upper - report.lower) / report.upper
                    <= 1e-12 + search_slack / sigma_best)
            assert report.converged and not report.ill_conditioned
            assert report.iterations >= 1

    def test_upper_end_covers_rounding(self):
        # Strongly non-normal operator (||K|| = 2.1e3, T = 3e6): SVDs at
        # frequencies within 1e-6 of omega_star see gains 1.3e-8 above the
        # level the search proved, which is rounding of sigma_min, not a
        # missed peak.  The upper end allows for it.
        rng = np.random.default_rng(542)
        for _ in range(4):
            k = lightly_damped(rng, 42)
        report = hinf_norm(TransferFunction.resolvent(k))
        for half_width in (1e-6, 1e-7):
            scan = np.linspace(report.omega_star - half_width,
                               report.omega_star + half_width, 4001)
            gains = 1.0 / sigma_min(k, scan)
            assert np.max(gains) > report.lower
            assert np.max(gains) <= report.upper
        assert report.converged and not report.ill_conditioned

    def test_level_within_rounding_unbounded(self):
        # sigma_min(e^{jw} - a) = 1 - a = 4e-16 sits inside the rounding
        # allowance 2 * eps of one SVD, so no finite gain is proved.
        report = hinf_norm(TransferFunction.resolvent(np.array([[1.0 - 4e-16]])))
        assert report.upper == float("inf") and report.ill_conditioned
        assert report.lower == pytest.approx(1.0 / 4e-16, rel=0.2)
        assert report.converged

    def test_iteration_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(4)
        tf = TransferFunction.resolvent(lightly_damped(rng, 8))
        needed = hinf_norm(tf).iterations
        assert needed >= 2
        monkeypatch.setattr(hinf_spectral, "_MAX_ITERATIONS", needed - 1)
        with pytest.raises(DivergenceError):
            hinf_norm(tf)

    def test_parameter_validation(self):
        with pytest.raises(DataError):
            TransferFunction.resolvent(np.array([[0.5, np.nan], [0.0, 0.5]]))
        with pytest.raises(ParameterError):
            TransferFunction.resolvent(np.zeros((2, 2, 2)))

    def test_resolvent_requires_square(self):
        with pytest.raises(ParameterError):
            TransferFunction.resolvent(np.ones((2, 3)))


def qz_level_crossings(k, level, z0):
    """The candidate crossings of the level-set pencil from scipy's QZ,
    unshifted (z0 is not used): the solver the search ran before numpy's
    shifted eigensolve, kept as its reference."""
    n = k.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    a = np.block([[k, level * eye], [zero, eye]])
    b = np.block([[eye, zero], [level * eye, k.T]])
    alpha, beta = scipy.linalg.eigvals(a, b, homogeneous_eigvals=True)
    near = np.abs(np.abs(alpha) - np.abs(beta)) <= hinf_spectral._UNIT_CIRCLE_RTOL * np.abs(beta)
    z = alpha[near] / beta[near]
    r = np.abs(z)
    return np.abs(np.angle(z)), np.maximum(np.abs(r - 1.0), np.abs(1.0 / r - 1.0))


def qz_hinf_norm(k):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hinf_spectral, "_level_crossings", qz_level_crossings)
        return hinf_norm(TransferFunction.resolvent(k))


def shift_reference_operators():
    """(name, K) for 202 operators: the lightly damped family at n = 2-60,
    operators of rank n - 2, nilpotent and zero matrices, Jordan blocks at
    spectral radius 0.999 and 0.999999 (as they are and under a similarity),
    and pairs of peaks of equal height, whose level-set crossings at the
    second peak are near-tangent."""
    rng = np.random.default_rng(32)
    sizes = [*range(2, 18)] * 9 + [20, 26, 34, 42] * 2 + [50, 60]
    for n in sizes:
        yield f"lightly damped n={n}", lightly_damped(rng, n)
    for n in (4, 6, 8, 12) * 4:
        d = np.zeros((n, n))
        d[2:, 2:] = lightly_damped(rng, n - 2)
        yield f"rank {n - 2} of {n}", similar(rng, d)
    for n in (2, 3, 5, 8):
        yield f"nilpotent n={n}", np.eye(n, k=1)
        yield f"zero n={n}", np.zeros((n, n))
        for rho in (0.999, 0.999999):
            jordan = rho * np.eye(n) + np.eye(n, k=1)
            yield f"Jordan n={n} rho={rho}", jordan
            yield f"similar Jordan n={n} rho={rho}", similar(rng, jordan)
    for i in range(8):
        k = np.zeros((4, 4))
        k[:2, :2] = rotation(0.99, 0.5)
        k[2:, 2:] = rotation(0.99 * (1.0 + 1e-12 * i), 2.0)
        yield f"equal peaks {i}", k


class TestShiftedPencil:
    """The search solves its pencil after a Moebius shift, with numpy; QZ
    on the unshifted pencil is the reference."""

    def test_brackets_match_qz(self):
        # The two searches may test different numbers of levels, since a
        # near-tangent crossing may show in one eigensolver's rounding and
        # not the other's.  Every upper end still bounds the gain QZ's search
        # saw and the one the oracle finds, and the flags agree.
        operators, faults = 0, []
        for name, k in shift_reference_operators():
            operators += 1
            shifted, qz = hinf_norm(TransferFunction.resolvent(k)), qz_hinf_norm(k)
            if shifted.converged:
                best, slack = reference_sigma(k, 64)
                oracle = 1.0 / (best + slack)
            else:
                oracle = math.inf
            if not (shifted.upper >= max(qz.lower, oracle)
                    and shifted.ill_conditioned == qz.ill_conditioned):
                faults.append((name, shifted, qz, oracle))
        assert operators >= 200 and not faults

    @pytest.mark.parametrize("delta", [1e-3, 1e-6])
    def test_crossing_next_to_the_shift_point(self, delta):
        # |e^{jw} - 0.5| = 1 at cos w = 1/4; sigma_min rises from 0.5 at
        # w = 0 to 1.5 at pi, so the shift point may sit just above the
        # crossing, where A - z0 B is nearly singular.
        k, crossing = np.array([[0.5]]), math.acos(0.25)
        found, distances = hinf_spectral._level_crossings(k, 1.0, np.exp(1j * (crossing + delta)))
        assert found.size == 2 and np.all(np.abs(found - crossing) <= 1e-9)
        assert np.all(distances <= 1e-9)
        # On the flanks of two narrow peaks, every crossing QZ finds, to
        # within 1e-8, from a shift point just outside each of them.
        k = narrow_peak_operator()
        level = float(sigma_min(k, [0.25])[0])
        reference = np.sort(qz_level_crossings(k, level, None)[0])
        assert reference.size == 8
        for theta0 in np.concatenate((reference - delta, reference + delta)):
            if sigma_min(k, [theta0])[0] > level:
                found = hinf_spectral._level_crossings(k, level, np.exp(1j * theta0))[0]
                assert np.allclose(np.sort(found), reference, rtol=0.0, atol=1e-8)

    def test_near_tangent_crossing(self):
        # A level 1e-10 below the local minimum at the narrow peak: the two
        # crossings there are 5e-11 apart, and both methods see the same
        # ones, each as z and its conjugate.
        k = narrow_peak_operator()
        peak = 2.0 + 0.5 * math.pi / 4095
        level = float(sigma_min(k, [peak])[0]) * (1.0 - 1e-10)
        z0 = np.exp(1j * math.pi)
        found = np.sort(hinf_spectral._level_crossings(k, level, z0)[0])
        reference = np.sort(qz_level_crossings(k, level, None)[0])
        assert found.size == reference.size >= 2
        assert np.allclose(found, reference, rtol=0.0, atol=1e-8)
        assert np.sum(np.abs(found - peak) <= 1e-9) == 4


class TestReportSerialization:
    def test_round_trip_finite(self):
        report = hinf_norm(TransferFunction.resolvent(np.array([[0.9]])))
        doc = report.to_dict()
        assert doc["value"] == doc["upper"] == report.upper
        assert doc["lower"] == report.lower <= report.upper
        assert doc["iterations"] == report.iterations >= 1
        assert doc["ill_conditioned"] is False
        back = HinfReport.from_dict(doc)
        assert back == report
        assert back.value == report.value

    def test_round_trip_failed_confirmation(self, monkeypatch):
        # A spurious unit-modulus pencil eigenvalue at omega = 1, where no
        # singular value of e^{j} - 0.9 is near the level, fails its SVD
        # confirmation: the report is flagged, and the gain is still right.
        real = hinf_spectral._level_crossings

        def with_spurious(k, level, z0):
            crossings, distances = real(k, level, z0)
            return np.append(crossings, 1.0), np.append(distances, 0.0)

        monkeypatch.setattr(hinf_spectral, "_level_crossings", with_spurious)
        report = hinf_norm(TransferFunction.resolvent(np.array([[0.9]])))
        monkeypatch.undo()
        assert report.converged and report.ill_conditioned
        assert abs(report.value - 10.0) <= 1e-9
        doc = report.to_dict()
        assert doc["ill_conditioned"] is True
        assert HinfReport.from_dict(doc) == report

    def test_missing_field_rejected(self):
        doc = hinf_norm(TransferFunction.resolvent(np.array([[0.9]]))).to_dict()
        del doc["upper"]
        with pytest.raises(SchemaError):
            HinfReport.from_dict(doc)

    def test_infinite_sentinel(self, tmp_path):
        report = hinf_norm(TransferFunction.resolvent(np.array([[1.0]])))
        path = tmp_path / "gain.json"
        write_json(report.to_dict(), path)
        assert '"value": "inf"' in path.read_text()
        doc = read_json(path)
        assert doc["value"] == doc["lower"] == doc["upper"] == "inf"
        assert doc["converged"] is False
        back = HinfReport.from_dict(doc)
        assert math.isinf(back.value)
        assert back == report
