"""Koopman operator fitting from ensemble-mean trajectories.

The state operator ``Kh`` is fitted by projected DMD: the compact SVD of the
snapshot matrix X0 of mean states 0..K-1, truncated at ``rank_tol``, projects
X1 (mean states 1..K) onto its span.  When X1 lies in that span, as for
noiseless linear data with full-rank excitation, this is also exact DMD's
least-squares operator X1 X0^+ (Tu et al., J. Comput. Dyn. 1, 2014).  The
non-square state-to-action map ``Kf`` is fitted by the rank-truncated
pseudoinverse of the same X0, so both fits share one SVD.

A model may carry its certified gains (``ModelGain``), which
``bounds.certified_gain`` computes.  Model JSON stores them in a ``gain``
block bound to the operators by the SHA-256 of their float64 bytes, and
``load_model`` refuses a block that does not belong to the operators beside
it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._jsonio import as_integer, as_number, as_object, read_json, write_json
from .errors import (
    DataError,
    DegenerateInputError,
    InsufficientDataError,
    ParameterError,
    SchemaError,
)
from .hinf_spectral import HinfReport
from .trajectory_data import MeanTrajectory

DEFAULT_RANK_TOL = 1e-10

# Version of the model JSON gain block.  It changes whenever the gain routine
# may return a different report for the same operators, so that a block
# written by another version is refused instead of trusted.
_GAIN_VERSION = 1

# Assembled operators must be real; larger imaginary residue means the
# decomposition went numerically wrong rather than just noisy.
_REAL_HARD_TOL = 1e-6


@dataclass(frozen=True)
class DmdResult:
    """Fitted state operator with its spectrum and fit diagnostics.

    ``eigenvalues`` are those of the reduced operator, sorted by descending
    modulus, ties broken by descending real part then descending imaginary
    part (conjugate pairs stay adjacent).  ``singular_values`` are the
    ``rank`` kept singular values of X0, and ``residual`` is the relative
    Frobenius misfit of X1 ~= operator @ X0.
    """

    operator: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    singular_values: np.ndarray
    residual: float


class ModelGain(NamedTuple):
    """Certified gains of a model: the H-infinity report of the resolvent of
    the state operator and the spectral norm of the action operator."""

    hinf: HinfReport
    kf_hinf: float


@dataclass(frozen=True)
class KoopmanModel:
    """State operator (n x n) and action operator (m x n) fitted from means.

    ``state_dmd`` keeps the full decomposition when the model was fitted in
    process; it is None for models reloaded from JSON, which stores only
    the operators and summary diagnostics.  ``gain`` is set by
    ``bounds.certified_gain`` or by ``load_model`` from the file's gain
    block, never by the constructor, so a model built or replaced in code
    starts without one.
    """

    state_operator: np.ndarray
    action_operator: np.ndarray
    state_dmd: DmdResult | None = None
    fit_metadata: dict = field(default_factory=dict)
    gain: ModelGain | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.state_operator.shape[0]

    @property
    def m(self) -> int:
        return self.action_operator.shape[0]


def _check_rank_tol(rank_tol: float) -> None:
    if not (0.0 < rank_tol < 1.0):
        raise ParameterError(f"rank_tol must lie in (0, 1), got {rank_tol}")


def _truncated_svd(x: np.ndarray, rank_tol: float):
    """Compact SVD keeping singular values >= rank_tol * sigma_1."""
    if not np.any(x):
        raise DegenerateInputError("snapshot matrix is identically zero")
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    r = int(np.count_nonzero(s >= rank_tol * s[0]))
    return u[:, :r], s[:r], vh[:r].conj().T


def _require_real(matrix: np.ndarray, what: str) -> np.ndarray:
    if np.iscomplexobj(matrix):
        residue = float(np.max(np.abs(matrix.imag))) if matrix.size else 0.0
        if residue > _REAL_HARD_TOL:
            raise DataError(f"{what} has imaginary residue {residue:.3e}")
        matrix = matrix.real
    return np.ascontiguousarray(matrix)


def _sorted_eig(a: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by (|lambda|, Re, Im) all descending."""
    # eig, not eigvals: LAPACK may round eigenvalues differently when it
    # computes no eigenvectors, and the eigenvalues are written to model JSON.
    eigvals, _ = np.linalg.eig(a)
    return eigvals[np.lexsort((-eigvals.imag, -eigvals.real, -np.abs(eigvals)))]


def _relative_residual(right: np.ndarray, operator: np.ndarray, left: np.ndarray) -> float:
    denom = np.linalg.norm(right)
    misfit = np.linalg.norm(right - operator @ left)
    if denom == 0.0:
        return 0.0 if misfit == 0.0 else float("inf")
    return float(misfit / denom)


def _projected_dmd(x0: np.ndarray, x1: np.ndarray, svd) -> DmdResult:
    """Projected DMD of x1 ~= K x0, given the truncated SVD (u, s, v) of x0.

    The reduced operator is A~ = U^H x1 V S^-1 and its eigenvalues are the
    DMD eigenvalues; the full operator U A~ U^H is real for real data.
    """
    u, s, v = svd
    a_tilde = u.conj().T @ ((x1 @ v) / s[np.newaxis, :])
    a_tilde = _require_real(a_tilde, "reduced operator")
    operator = _require_real(u @ a_tilde @ u.conj().T, "state operator")
    return DmdResult(
        operator=operator,
        eigenvalues=_sorted_eig(a_tilde),
        rank=len(s),
        singular_values=s.copy(),
        residual=_relative_residual(x1, operator, x0),
    )


def _pseudoinverse_fit(targets: np.ndarray, svd) -> np.ndarray:
    """targets @ pinv(x) from the truncated SVD (u, s, v) of x."""
    u, s, v = svd
    pinv = (v / s[np.newaxis, :]) @ u.conj().T
    return _require_real(targets @ pinv, "action operator")


def fit_koopman_model(mean_traj: MeanTrajectory, rank_tol: float = DEFAULT_RANK_TOL) -> KoopmanModel:
    """Fit both operators from one mean trajectory and collect diagnostics.

    The state fit regresses mean states 1..K on mean states 0..K-1, and the
    action fit regresses mean actions 0..K-1 on the same states, so the
    truncated SVD of that snapshot matrix is taken once and shared.  All K
    columns enter both fits.
    """
    k = mean_traj.horizon
    if k < 2:
        raise InsufficientDataError(f"need at least two snapshot columns, horizon is {k}")
    _check_rank_tol(rank_tol)
    x0 = mean_traj.mean_states[:k].T
    actions = mean_traj.mean_actions.T
    svd = _truncated_svd(x0, rank_tol)
    state_dmd = _projected_dmd(x0, mean_traj.mean_states[1:].T, svd)
    action_operator = _pseudoinverse_fit(actions, svd)
    metadata = {
        "rank_tol": rank_tol,
        "snapshot_columns": k,
        "r_count": mean_traj.r_count,
        "state_residual": state_dmd.residual,
        "action_residual": _relative_residual(actions, action_operator, x0),
    }
    return KoopmanModel(
        state_operator=state_dmd.operator,
        action_operator=action_operator,
        state_dmd=state_dmd,
        fit_metadata=metadata,
    )


# ---------------------------------------------------------------------------
# JSON serialization: dimensions, row-major operator entries at full
# precision, eigenvalues as (re, im) pairs, rank, rank_tol, residuals, and
# the gain block when the model carries its gain.  Every float is written as
# its shortest repr, so a loaded operator equals the saved one bit for bit.
# ---------------------------------------------------------------------------


def _operators_sha256(state_operator: np.ndarray, action_operator: np.ndarray) -> str:
    """SHA-256 of both operators' row-major little-endian float64 bytes."""
    digest = hashlib.sha256()
    for operator in (state_operator, action_operator):
        digest.update(np.ascontiguousarray(operator, dtype="<f8").tobytes())
    return digest.hexdigest()


def _gain_to_dict(model: KoopmanModel) -> dict:
    return {
        "version": _GAIN_VERSION,
        "operators_sha256": _operators_sha256(model.state_operator, model.action_operator),
        "hinf": model.gain.hinf.to_dict(),
        "Kf_hinf": model.gain.kf_hinf,
    }


def _gain_from_dict(node, state_operator: np.ndarray, action_operator: np.ndarray) -> ModelGain:
    """The gain block of a model document, checked against its operators."""
    block = as_object(node, "model field 'gain'")
    for key in ("version", "operators_sha256", "hinf", "Kf_hinf"):
        if key not in block:
            raise SchemaError(f"model field 'gain' is missing field {key!r}")
    version = as_integer(block["version"], "gain.version")
    if version != _GAIN_VERSION:
        raise SchemaError(f"gain.version is {version}, this reader takes {_GAIN_VERSION}")
    if block["operators_sha256"] != _operators_sha256(state_operator, action_operator):
        raise SchemaError("gain.operators_sha256 does not match the model's operators: "
                          "the gain block belongs to other operators")
    hinf = HinfReport.from_dict(as_object(block["hinf"], "gain.hinf"), "gain.hinf")
    if hinf.spectral_radius is None:
        raise SchemaError("gain.hinf.spectral_radius must be a number, got None")
    return ModelGain(hinf, as_number(block["Kf_hinf"], "gain.Kf_hinf", finite=True))


def _model_to_dict(model: KoopmanModel) -> dict:
    eigvals = (
        model.state_dmd.eigenvalues
        if model.state_dmd is not None
        else np.linalg.eigvals(model.state_operator)
    )
    order = np.lexsort((-eigvals.imag, -eigvals.real, -np.abs(eigvals)))
    eigvals = eigvals[order]
    meta = dict(model.fit_metadata)
    doc = {
        "n": model.n,
        "m": model.m,
        "state_operator": model.state_operator.tolist(),
        "action_operator": model.action_operator.tolist(),
        "eigenvalues": [[float(v.real), float(v.imag)] for v in eigvals],
        "rank": model.state_dmd.rank if model.state_dmd is not None else None,
        "rank_tol": meta.get("rank_tol"),
        "residuals": {
            "state": meta.get("state_residual"),
            "action": meta.get("action_residual"),
        },
        "snapshot_columns": meta.get("snapshot_columns"),
        "r_count": meta.get("r_count"),
    }
    if model.gain is not None:
        doc["gain"] = _gain_to_dict(model)
    return doc


def _matrix_field(doc: dict, key: str, shape: tuple[int, int]) -> np.ndarray:
    try:
        matrix = np.array(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"model field {key!r} must be a matrix of numbers") from None
    if matrix.shape != shape:
        raise SchemaError(f"model field {key!r} has shape {matrix.shape}, expected {shape}")
    if not np.isfinite(matrix).all():
        raise DataError(f"model field {key!r} holds a non-finite value")
    return matrix


def _model_from_dict(doc) -> KoopmanModel:
    doc = as_object(doc, "model document")
    for key in ("n", "m", "state_operator", "action_operator"):
        if key not in doc:
            raise SchemaError(f"model document is missing field {key!r}")
    n, m = as_integer(doc["n"], "model field 'n'"), as_integer(doc["m"], "model field 'm'")
    residuals = as_object(doc.get("residuals") or {}, "model field 'residuals'")
    metadata = {
        "rank_tol": doc.get("rank_tol"),
        "snapshot_columns": doc.get("snapshot_columns"),
        "r_count": doc.get("r_count"),
        "state_residual": residuals.get("state"),
        "action_residual": residuals.get("action"),
        "rank": doc.get("rank"),
    }
    model = KoopmanModel(
        state_operator=_matrix_field(doc, "state_operator", (n, n)),
        action_operator=_matrix_field(doc, "action_operator", (m, n)),
        state_dmd=None,
        fit_metadata=metadata,
    )
    if "gain" in doc:
        gain = _gain_from_dict(doc["gain"], model.state_operator, model.action_operator)
        object.__setattr__(model, "gain", gain)
    return model


def save_model(model: KoopmanModel, path) -> None:
    """Write the model as JSON, with a gain block when it carries its gain."""
    write_json(_model_to_dict(model), path)


def load_model(path) -> KoopmanModel:
    """Read a model written by save_model; a malformed document, or a gain
    block that is mistyped, of another version or computed for other
    operators, raises SchemaError naming the field."""
    return _model_from_dict(read_json(path))
