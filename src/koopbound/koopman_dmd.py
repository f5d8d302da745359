"""Finite-dimensional linear operator fitting from snapshot data.

Two eigen-analysis routes are provided: ``dmd_standard`` runs the classic
six-step projected procedure on a time-shifted snapshot pair, and
``dmd_exact`` runs the five-step variant that accepts arbitrary (X, Y) data
pairs and guarantees that every returned (mode, eigenvalue) pair is an
eigenpair of the least-squares operator.  The non-square state-to-action map
is fitted separately by a rank-truncated pseudoinverse least squares, since
eigen-analysis does not apply there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._jsonio import read_json, write_json
from .errors import (
    DataError,
    DegenerateInputError,
    DimensionMismatchError,
    ParameterError,
    SchemaError,
)
from .trajectory_data import (
    STATE_SHIFTED,
    MeanTrajectory,
    SnapshotPair,
    build_action_pairs,
    build_state_snapshots,
)

DEFAULT_RANK_TOL = 1e-10

# Eigenvalues below this (relative to the dominant modulus) count as zero and
# get no mode: the mode formula divides by the eigenvalue.
_ZERO_EIG_RTOL = 1e-12

# Assembled operators must be real; larger imaginary residue means the
# decomposition went numerically wrong rather than just noisy.
_REAL_HARD_TOL = 1e-6


@dataclass(frozen=True)
class DmdResult:
    """Fitted operator with its spectral decomposition and fit diagnostics.

    ``eigenvalues`` are sorted by descending modulus, ties broken by
    descending real part then descending imaginary part (conjugate pairs stay
    adjacent).  ``modes`` has one column per *nonzero* eigenvalue, aligned
    with the leading entries of ``eigenvalues`` (zero eigenvalues sort last).
    ``residual`` is the relative Frobenius misfit of right ~= operator @ left.
    """

    operator: np.ndarray
    eigenvalues: np.ndarray
    modes: np.ndarray
    rank: int
    singular_values: np.ndarray
    residual: float


@dataclass(frozen=True)
class KoopmanModel:
    """State operator (n x n) and action operator (m x n) fitted from means.

    ``state_dmd`` keeps the full decomposition when the model was fitted in
    process; it is None for models reloaded from JSON, which stores only
    the operators and summary diagnostics.
    """

    state_operator: np.ndarray
    action_operator: np.ndarray
    state_dmd: DmdResult | None = None
    fit_metadata: dict = field(default_factory=dict)

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


def _sorted_eig(a: np.ndarray):
    """Eigendecomposition sorted by (|lambda|, Re, Im) all descending."""
    eigvals, eigvecs = np.linalg.eig(a)
    order = np.lexsort((-eigvals.imag, -eigvals.real, -np.abs(eigvals)))
    return eigvals[order], eigvecs[:, order]


def _relative_residual(right: np.ndarray, operator: np.ndarray, left: np.ndarray) -> float:
    denom = np.linalg.norm(right)
    misfit = np.linalg.norm(right - operator @ left)
    if denom == 0.0:
        return 0.0 if misfit == 0.0 else float("inf")
    return float(misfit / denom)


def _lifted_modes(b: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """Map reduced eigenvectors to full-space modes, skipping zero eigenvalues.

    b is the lift matrix (right @ V / sigma); the mode for eigenvalue lambda
    is b @ v / lambda.  The modulus-descending sort puts zero eigenvalues
    last, so the kept modes align with the leading eigenvalue entries.
    """
    scale = max(1.0, float(np.max(np.abs(eigvals))) if eigvals.size else 1.0)
    count = int(np.count_nonzero(np.abs(eigvals) > _ZERO_EIG_RTOL * scale))
    vals = eigvals[:count]
    return (b @ eigvecs[:, :count]) / vals[np.newaxis, :] if count else np.zeros(
        (b.shape[0], 0), dtype=complex
    )


def dmd_standard(pair: SnapshotPair, rank_tol: float = DEFAULT_RANK_TOL) -> DmdResult:
    """Fit a square operator from a time-shifted snapshot pair.

    Pipeline: compact SVD of the left matrix truncated at rank_tol, reduced
    operator A~ = U^H X1 V S^-1, eigendecomposition of A~, modes lifted as
    (1/lambda) X1 V S^-1 v for nonzero eigenvalues, and the full operator
    assembled as U A~ U^H (real by construction for real data).
    """
    _check_rank_tol(rank_tol)
    if pair.kind != STATE_SHIFTED:
        raise ParameterError(f"dmd_standard expects a {STATE_SHIFTED} pair, got {pair.kind}")
    return _projected_dmd(pair.left, pair.right, _truncated_svd(pair.left, rank_tol))


def _projected_dmd(x0: np.ndarray, x1: np.ndarray, svd) -> DmdResult:
    """dmd_standard after the truncated SVD (u, s, v) of x0."""
    u, s, v = svd
    lift = (x1 @ v) / s[np.newaxis, :]
    a_tilde = u.conj().T @ lift
    a_tilde = _require_real(a_tilde, "reduced operator")
    eigvals, eigvecs = _sorted_eig(a_tilde)
    modes = _lifted_modes(lift, eigvals, eigvecs)
    operator = _require_real(u @ a_tilde @ u.conj().T, "state operator")
    return DmdResult(
        operator=operator,
        eigenvalues=eigvals,
        modes=modes,
        rank=len(s),
        singular_values=s.copy(),
        residual=_relative_residual(x1, operator, x0),
    )


def dmd_exact(pair: SnapshotPair, rank_tol: float = DEFAULT_RANK_TOL) -> DmdResult:
    """Fit from an arbitrary data pair (X, Y) with guaranteed eigenpairs.

    The operator is the truncated least-squares solution Y X^+; every
    returned (mode, eigenvalue) pair with nonzero eigenvalue satisfies
    operator @ mode = eigenvalue * mode up to numerical round-off, and all
    nonzero eigenvalues of the least-squares operator are recovered.
    """
    _check_rank_tol(rank_tol)
    x, y = pair.left, pair.right
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            "eigen-analysis needs matching row dimensions; fit non-square maps "
            "with fit_action_operator instead"
        )
    u, s, v = _truncated_svd(x, rank_tol)
    lift = (y @ v) / s[np.newaxis, :]
    a_tilde = _require_real(u.conj().T @ lift, "reduced operator")
    eigvals, eigvecs = _sorted_eig(a_tilde)
    modes = _lifted_modes(lift, eigvals, eigvecs)
    operator = _require_real(lift @ u.conj().T, "fitted operator")
    return DmdResult(
        operator=operator,
        eigenvalues=eigvals,
        modes=modes,
        rank=len(s),
        singular_values=s.copy(),
        residual=_relative_residual(y, operator, x),
    )


def fit_state_operator(mean_traj: MeanTrajectory, rank_tol: float = DEFAULT_RANK_TOL) -> DmdResult:
    """Fit the one-step mean-state operator from a mean trajectory."""
    return dmd_standard(build_state_snapshots(mean_traj), rank_tol)


def fit_action_operator(mean_traj: MeanTrajectory, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Least-squares m x n map from mean states to mean actions.

    Uses the rank_tol-truncated pseudoinverse of the state snapshot matrix,
    which minimizes the Frobenius misfit among maps acting on the span of the
    observed states.  All K column pairs enter the fit.
    """
    _check_rank_tol(rank_tol)
    pair = build_action_pairs(mean_traj)
    return _pseudoinverse_fit(pair.right, _truncated_svd(pair.left, rank_tol))


def _pseudoinverse_fit(targets: np.ndarray, svd) -> np.ndarray:
    """targets @ pinv(x) from the truncated SVD (u, s, v) of x."""
    u, s, v = svd
    pinv = (v / s[np.newaxis, :]) @ u.conj().T
    return _require_real(targets @ pinv, "action operator")


def action_fit_residual(mean_traj: MeanTrajectory, operator: np.ndarray) -> float:
    """Relative Frobenius misfit of the fitted action operator on its data."""
    pair = build_action_pairs(mean_traj)
    return _relative_residual(pair.right, operator, pair.left)


def fit_koopman_model(mean_traj: MeanTrajectory, rank_tol: float = DEFAULT_RANK_TOL) -> KoopmanModel:
    """Fit both operators from one mean trajectory and collect diagnostics.

    The state fit and the action fit regress on the same snapshot matrix of
    mean states 0..K-1, so its truncated SVD is taken once and shared.
    """
    states = build_state_snapshots(mean_traj)
    _check_rank_tol(rank_tol)
    svd = _truncated_svd(states.left, rank_tol)
    state_dmd = _projected_dmd(states.left, states.right, svd)
    action_operator = _pseudoinverse_fit(build_action_pairs(mean_traj).right, svd)
    metadata = {
        "rank_tol": rank_tol,
        "snapshot_columns": mean_traj.horizon,
        "r_count": mean_traj.r_count,
        "state_residual": state_dmd.residual,
        "action_residual": action_fit_residual(mean_traj, action_operator),
    }
    return KoopmanModel(
        state_operator=state_dmd.operator,
        action_operator=action_operator,
        state_dmd=state_dmd,
        fit_metadata=metadata,
    )


def predict(model: KoopmanModel, x0: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Roll the fitted linear model forward from x0.

    Returns (states, actions) with steps+1 predicted states and steps
    predicted actions; steps == 0 yields just the initial state.
    """
    if steps < 0:
        raise ParameterError("steps must be non-negative")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != model.n:
        raise DimensionMismatchError(
            f"x0 has dimension {x0.shape[0]}, model expects {model.n}"
        )
    states = np.empty((steps + 1, model.n))
    actions = np.empty((steps, model.m))
    states[0] = x0
    for k in range(steps):
        actions[k] = model.action_operator @ states[k]
        states[k + 1] = model.state_operator @ states[k]
    return states, actions


# ---------------------------------------------------------------------------
# JSON serialization: dimensions, row-major operator entries at full
# precision, eigenvalues as (re, im) pairs, rank, rank_tol, residuals.
# ---------------------------------------------------------------------------


def model_to_dict(model: KoopmanModel) -> dict:
    eigvals = (
        model.state_dmd.eigenvalues
        if model.state_dmd is not None
        else np.linalg.eigvals(model.state_operator)
    )
    order = np.lexsort((-eigvals.imag, -eigvals.real, -np.abs(eigvals)))
    eigvals = eigvals[order]
    meta = dict(model.fit_metadata)
    return {
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


def model_from_dict(doc: dict) -> KoopmanModel:
    for key in ("n", "m", "state_operator", "action_operator"):
        if key not in doc:
            raise SchemaError(f"model document is missing field {key!r}")
    state_op = np.asarray(doc["state_operator"], dtype=float)
    action_op = np.asarray(doc["action_operator"], dtype=float)
    n, m = int(doc["n"]), int(doc["m"])
    if state_op.shape != (n, n):
        raise SchemaError(f"state_operator shape {state_op.shape} does not match n={n}")
    if action_op.shape != (m, n):
        raise SchemaError(
            f"action_operator shape {action_op.shape} does not match (m, n)=({m}, {n})"
        )
    residuals = doc.get("residuals") or {}
    metadata = {
        "rank_tol": doc.get("rank_tol"),
        "snapshot_columns": doc.get("snapshot_columns"),
        "r_count": doc.get("r_count"),
        "state_residual": residuals.get("state"),
        "action_residual": residuals.get("action"),
        "rank": doc.get("rank"),
    }
    return KoopmanModel(
        state_operator=state_op,
        action_operator=action_op,
        state_dmd=None,
        fit_metadata=metadata,
    )


def save_model(model: KoopmanModel, path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path) -> KoopmanModel:
    return model_from_dict(read_json(path))
