"""Worst-case frequency-domain gain of fitted operators.

The disturbance-to-state map of a fitted one-step model K is the resolvent
(zI - K)^-1 evaluated on the unit circle; its worst-case gain over frequency
is the quantity the robustness bounds consume.  (The gain of the action map,
a constant matrix, is its spectral norm, which ``bounds.certified_gain``
takes from numpy.)

The resolvent's gain is 1 / min_w sigma_min(e^{jw} I - K), and the minimum
is found by the level-set iteration of Boyd & Balakrishnan (Systems & Control
Letters 15, 1990) and Bruinsma & Steinbuch (Systems & Control Letters 14,
1990): the frequencies where a level s is a singular value of e^{jw} I - K
are the unit-modulus eigenvalues of a 2n x 2n pencil, so each level either
yields the intervals where sigma_min dips below it or proves that it never
does.  numpy solves the pencil after a Moebius shift to a point of the circle.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._jsonio import as_integer, as_number, as_object, encodes
from .errors import DivergenceError, ParameterError, SchemaError
from .trajectory_data import _frozen_array

RESOLVENT = "resolvent"

# Spectral radius this close to 1 still yields a finite norm, but the value
# is dominated by fit noise in the operator, so the report is flagged.
_ILL_CONDITIONED_BAND = 1e-6
# Relative width of the returned bracket: the search stops at the first level
# sigma_best / (1 + _BRACKET_RTOL) that sigma_min never crosses.
_BRACKET_RTOL = 1e-13
# Pencil eigenvalues whose modulus is within this relative distance of 1 are
# candidate crossings.  The shifted eigensolve leaves a true crossing about
# eps * cond off the circle, and a near-tangent pair about sqrt(eps); a wider
# window only adds candidates, and each one is checked by a direct SVD.
_UNIT_CIRCLE_RTOL = 1e-6
# The iteration converges quadratically, in 1-5 levels on the fitted
# operators seen so far; this cap only stops a numerically broken search.
_MAX_ITERATIONS = 100


@dataclass(frozen=True, eq=False)
class TransferFunction:
    """The resolvent (zI - K)^-1 of a square real K, held read-only, with K's
    eigenvalues as its poles; ``kind`` is always RESOLVENT."""

    kind: str
    matrix: np.ndarray
    poles: np.ndarray

    @classmethod
    def resolvent(cls, k: np.ndarray) -> "TransferFunction":
        k = _frozen_array(k, "matrix")
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ParameterError(f"resolvent needs a square matrix, got shape {k.shape}")
        poles = np.linalg.eigvals(k)
        return cls(kind=RESOLVENT, matrix=k, poles=_frozen_array(poles, "poles", poles.dtype))


@dataclass(frozen=True)
class HinfReport:
    """Worst-case gain over frequencies in [0, pi] as a bracket [lower, upper].

    ``lower`` is the gain evaluated at ``omega_star``, which carries the
    rounding of the singular value it comes from.  ``upper`` is a level the
    search proved the gain never exceeds, widened by that rounding allowance,
    n * eps * (1 + ||K||_F) on sigma_min, so that it bounds the exact gain;
    it lies at most 1e-13 + n * eps * (1 + ||K||_F) * lower relative above
    ``lower``.  ``value`` is ``upper``, the end every bound uses.
    ``iterations`` counts the levels tested.

    The bracket is infinite (converged=False) when a resolvent's spectral
    radius reaches the unit circle.  ``ill_conditioned`` marks values
    produced by eigenvalues within 1e-6 of the circle, or by a search in
    which a candidate crossing from the pencil failed its SVD confirmation,
    and an infinite ``upper`` left when the rounding allowance reaches the
    smallest sigma_min (converged=True, finite ``lower``).
    """

    lower: float
    upper: float
    omega_star: float
    spectral_radius: float
    iterations: int
    converged: bool
    ill_conditioned: bool = False

    @property
    def value(self) -> float:
        return self.upper

    def to_dict(self) -> dict:
        return {"value": self.upper, **asdict(self)}

    @classmethod
    def from_dict(cls, doc, where: str = "hinf") -> "HinfReport":
        """Read a report written by to_dict; every field must be present, and
        a mistyped one, one out of the range of its kind, or a ``value`` that
        is not ``upper``, raises SchemaError naming it under ``where``."""
        as_object(doc, where, ["value", *(f.name for f in fields(cls))])
        for key in ("converged", "ill_conditioned"):
            if not isinstance(doc[key], bool):
                raise SchemaError(f"{where}.{key} must be true or false, got {doc[key]!r}")
        report = cls(
            lower=as_number(doc["lower"], f"{where}.lower", "bound level"),
            upper=as_number(doc["upper"], f"{where}.upper", "bound level"),
            omega_star=as_number(doc["omega_star"], f"{where}.omega_star", "finite"),
            spectral_radius=as_number(doc["spectral_radius"], f"{where}.spectral_radius", "level"),
            # Any integer of at least 0, as a seed is.
            iterations=as_integer(doc["iterations"], f"{where}.iterations", "seed"),
            converged=doc["converged"],
            ill_conditioned=doc["ill_conditioned"],
        )
        if not encodes(doc["value"], report.value):
            raise SchemaError(f"{where}.value must be {report.value!r}, the value of "
                              f"{where}.upper, got {doc['value']!r}")
        return report


def _singular_values(k: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Singular values of e^{jw} I - K, one descending row per frequency."""
    mats = np.exp(1j * omegas)[:, None, None] * np.eye(k.shape[0]) - k
    return np.linalg.svd(mats, compute_uv=False)


def _level_crossings(k: np.ndarray, level: float, z0: complex) -> tuple[np.ndarray, np.ndarray]:
    """Candidate frequencies in [0, pi] where ``level`` is a singular value of
    e^{jw} I - K, with the distance of each pencil eigenvalue from the circle.

    (e^{jw} I - K) v = s u and (e^{-jw} I - K^T) u = s v hold exactly when
    z = e^{jw} is an eigenvalue of A - zB = [[K, sI], [0, I]] - z [[I, 0], [sI, K^T]],
    that is z = z0 + 1/mu for an eigenvalue mu != 0 of (A - z0 B)^-1 B.  The search
    takes z0 where it saw sigma_min farthest above s, so A - z0 B is invertible.
    The distance is max(|r - 1|, |1/r - 1|) for an eigenvalue of modulus r.
    """
    n = k.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    a = np.block([[k, level * eye], [zero, eye]])
    b = np.block([[eye, zero], [level * eye, k.T]])
    mu = np.linalg.eigvals(np.linalg.solve(a - z0 * b, b))
    # |z - z0| <= 2 + _UNIT_CIRCLE_RTOL near the circle, so |mu| >= 0.4 there.
    z = z0 + 1.0 / mu[np.abs(mu) >= 0.4]
    z = z[np.abs(np.abs(z) - 1.0) <= _UNIT_CIRCLE_RTOL]
    r = np.abs(z)
    return np.abs(np.angle(z)), np.maximum(np.abs(r - 1.0), np.abs(1.0 / r - 1.0))


def hinf_norm(tf: TransferFunction) -> HinfReport:
    """Supremum over omega in [0, pi] of the largest singular value of the
    resolvent.

    For real operators the response at -omega mirrors the one at +omega, so
    [0, pi] covers the whole circle.  For a resolvent, sigma_min(e^{jw} I - K)
    is first evaluated at 0, pi and the eigenvalue angles of K.  Each
    iteration then tests the level just below the smallest value seen: the
    pencil's unit-modulus eigenvalues are the candidate crossings, each is
    confirmed by a direct SVD, and sigma_min is evaluated at the midpoints of
    the intervals they cut [0, pi] into.  A midpoint below the level becomes
    the new smallest value; when none is, sigma_min never dips below the
    level.  The upper end of the bracket is 1 / (level - slack), where
    slack = n * eps * (1 + ||K||_F) covers the rounding of each computed
    sigma_min; it is infinite, and the report ill-conditioned, when the level
    does not exceed the slack.
    """
    rho = float(np.max(np.abs(tf.poles)))
    if rho >= 1.0:
        dominant = tf.poles[int(np.argmax(np.abs(tf.poles)))]
        return HinfReport(
            lower=float("inf"),
            upper=float("inf"),
            omega_star=abs(float(np.angle(dominant))),
            spectral_radius=rho,
            iterations=0,
            converged=False,
            ill_conditioned=True,
        )

    k = tf.matrix
    # Backward error of one SVD of e^{jw} I - K, the round-off allowed when a
    # candidate crossing is checked against the level.
    slack = float(k.shape[0] * np.finfo(float).eps * (1.0 + np.linalg.norm(k)))
    ill_conditioned = rho >= 1.0 - _ILL_CONDITIONED_BAND
    points = np.unique(np.concatenate(([0.0, math.pi], np.abs(np.angle(tf.poles)))))
    values = _singular_values(k, points)[:, -1]
    for iterations in range(1, _MAX_ITERATIONS + 1):
        i = int(np.argmin(values))
        sigma_best, omega_star = float(values[i]), float(points[i])
        level = sigma_best / (1.0 + _BRACKET_RTOL)
        crossings, distances = _level_crossings(k, level, np.exp(1j * points[np.argmax(values)]))
        if crossings.size == 0:
            break
        # A true crossing's SVD has a singular value within the eigenvalue's
        # distance from the circle of the level (Bauer-Fike on the Hermitian
        # dilation [[0, A], [A^H, 0]]); one that has none is an eig failure.
        sigmas = _singular_values(k, crossings)
        misfit = np.min(np.abs(sigmas - level), axis=1)
        ill_conditioned |= bool(np.any(misfit > distances + slack))
        ends = np.unique(np.concatenate(([0.0, math.pi], crossings)))
        midpoints = 0.5 * (ends[1:] + ends[:-1])
        points = np.concatenate((crossings, midpoints))
        values = np.concatenate((sigmas[:, -1], _singular_values(k, midpoints)[:, -1]))
        if np.min(values) >= level:
            break
    else:
        raise DivergenceError(
            f"level-set search did not converge in {_MAX_ITERATIONS} iterations"
        )

    # The computed sigma_min never dips below the level, so the exact one
    # never dips below level - slack: its inverse bounds the gain in floating
    # point too.  A level inside the rounding proves no finite bound.
    if level <= slack:
        upper, ill_conditioned = float("inf"), True
    else:
        upper = 1.0 / (level - slack)
    return HinfReport(
        lower=1.0 / sigma_best,
        upper=upper,
        omega_star=omega_star,
        spectral_radius=rho,
        iterations=iterations,
        converged=True,
        ill_conditioned=ill_conditioned,
    )
