"""Koopman operator fitting from a trajectory ensemble's per-step means.

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

from ._jsonio import _in_range, as_integer, as_number, as_numbers, as_object, read_json, write_json
from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    SchemaError,
)
from .hinf_spectral import HinfReport
from .trajectory_data import TrajectoryEnsemble, _frozen_array, ensemble_mean

DEFAULT_RANK_TOL = 1e-10

# Version of the model JSON gain block.  It changes whenever the gain routine
# may return a different report for the same operators, so that a block
# written by another version is refused instead of trusted.
_GAIN_VERSION = 3


class ModelGain(NamedTuple):
    """Certified gains of a model: the H-infinity report of the resolvent of
    the state operator and the spectral norm of the action operator."""

    hinf: HinfReport
    kf_hinf: float


@dataclass(frozen=True, eq=False)
class KoopmanModel:
    """State operator (n x n) and action operator (m x n) with their fit
    diagnostics; the one record of a model, fitted or loaded.

    ``eigenvalues`` are the DMD eigenvalues, those of the reduced operator,
    sorted by descending modulus, ties broken by descending real part then
    descending imaginary part (conjugate pairs stay adjacent).  ``rank`` is
    the number of singular values of the snapshot matrix kept at
    ``rank_tol``, and the residuals are the relative Frobenius misfits of
    the state and action fits.  These diagnostics are set by the fit or by
    ``load_model``, and ``gain`` by ``bounds.certified_gain`` or from the
    file's gain block, never by the constructor, so a model built or
    replaced in code starts without them.  Models compare by identity.

    The constructor checks the operators (real and finite, Kh square, Kf with
    n columns) and holds every array read-only, so a gain once set always
    describes the operators beside it.
    """

    state_operator: np.ndarray
    action_operator: np.ndarray
    eigenvalues: np.ndarray | None = field(default=None, init=False)
    rank: int | None = field(default=None, init=False)
    rank_tol: float | None = field(default=None, init=False)
    snapshot_columns: int | None = field(default=None, init=False)
    r_count: int | None = field(default=None, init=False)
    state_residual: float | None = field(default=None, init=False)
    action_residual: float | None = field(default=None, init=False)
    gain: ModelGain | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        kh = _frozen_array(self.state_operator, "state_operator")
        kf = _frozen_array(self.action_operator, "action_operator")
        if kh.ndim != 2 or kh.shape[0] != kh.shape[1]:
            raise DimensionMismatchError(f"state_operator must be square, got shape {kh.shape}")
        if kf.ndim != 2 or kf.shape[1] != len(kh):
            raise DimensionMismatchError(
                f"action_operator must be m x {len(kh)}, got shape {kf.shape}")
        # A model with no state or no action saves a file load_model refuses.
        for name, arr in (("state_operator", kh), ("action_operator", kf)):
            if not arr.size:
                raise DimensionMismatchError(f"{name} is empty, got shape {arr.shape}")
        object.__setattr__(self, "state_operator", kh)
        object.__setattr__(self, "action_operator", kf)

    @property
    def n(self) -> int:
        return self.state_operator.shape[0]

    @property
    def m(self) -> int:
        return self.action_operator.shape[0]


def _truncated_svd(x: np.ndarray, rank_tol: float):
    """Compact SVD keeping singular values >= rank_tol * sigma_1."""
    if not np.any(x):
        raise InsufficientDataError("snapshot matrix is identically zero")
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    r = int(np.count_nonzero(s >= rank_tol * s[0]))
    return u[:, :r], s[:r], vh[:r].T


def _sorted_eig(a: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by (|lambda|, Re, Im) all descending."""
    # eig, not eigvals: LAPACK may round eigenvalues differently when it
    # computes no eigenvectors, and the eigenvalues are written to model JSON.
    eigvals = np.linalg.eig(a)[0].astype(complex)
    return eigvals[np.lexsort((-eigvals.imag, -eigvals.real, -np.abs(eigvals)))]


def _relative_residual(right: np.ndarray, operator: np.ndarray, left: np.ndarray) -> float:
    denom = np.linalg.norm(right)
    misfit = np.linalg.norm(right - operator @ left)
    if denom == 0.0:
        return 0.0 if misfit == 0.0 else float("inf")
    return float(misfit / denom)


def _projected_dmd(x0: np.ndarray, x1: np.ndarray, svd):
    """Projected DMD of x1 ~= K x0, given the truncated SVD (u, s, v) of x0:
    the operator, its sorted DMD eigenvalues and the relative residual.

    The reduced operator is A~ = U^T x1 V S^-1, whose eigenvalues are the
    DMD eigenvalues, and the full operator is U A~ U^T.
    """
    u, s, v = svd
    a_tilde = u.T @ ((x1 @ v) / s[np.newaxis, :])
    operator = u @ a_tilde @ u.T
    return operator, _sorted_eig(a_tilde), _relative_residual(x1, operator, x0)


def _pseudoinverse_fit(targets: np.ndarray, svd) -> np.ndarray:
    """targets @ pinv(x) from the truncated SVD (u, s, v) of x."""
    u, s, v = svd
    return targets @ ((v / s[np.newaxis, :]) @ u.T)


def _with_diagnostics(model: KoopmanModel, eigenvalues, **diagnostics) -> KoopmanModel:
    """model given the diagnostics of the fit its operators come from."""
    diagnostics["eigenvalues"] = _frozen_array(eigenvalues, "eigenvalues", np.complex128)
    for name, value in diagnostics.items():
        object.__setattr__(model, name, value)
    return model


def fit_koopman_model(ensemble: TrajectoryEnsemble,
                      rank_tol: float = DEFAULT_RANK_TOL) -> KoopmanModel:
    """Fit both operators from the ensemble's mean and collect diagnostics.

    The state fit regresses mean states 1..K on mean states 0..K-1, and the
    action fit regresses mean actions 0..K-1 on the same states, so the
    truncated SVD of that snapshot matrix is taken once and shared.  All K
    columns enter both fits.  The means are ``ensemble_mean``'s, kept on the
    ensemble for every later reader.
    """
    k = ensemble.horizon
    if k < 2:
        raise InsufficientDataError(f"need at least two snapshot columns, horizon is {k}")
    _in_range(rank_tol, "rank_tol", "rank tolerance")
    mean_states, mean_actions, _ = ensemble_mean(ensemble)
    x0 = mean_states[:k].T
    actions = mean_actions.T
    svd = _truncated_svd(x0, rank_tol)
    state_operator, eigenvalues, state_residual = _projected_dmd(x0, mean_states[1:].T, svd)
    action_operator = _pseudoinverse_fit(actions, svd)
    return _with_diagnostics(
        KoopmanModel(state_operator, action_operator),
        eigenvalues=eigenvalues,
        rank=len(svd[1]),
        rank_tol=rank_tol,
        snapshot_columns=k,
        r_count=ensemble.r_count,
        state_residual=state_residual,
        action_residual=_relative_residual(actions, action_operator, x0),
    )


# ---------------------------------------------------------------------------
# JSON serialization: dimensions, row-major operator entries at full
# precision, eigenvalues as (re, im) pairs, rank, rank_tol, residuals, and
# the gain block when the model carries its gain.  Every float is written as
# its shortest repr, so a loaded model equals the saved one field for field
# and saves to the same bytes.
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
    block = as_object(node, "model field 'gain'",
                      ("version", "operators_sha256", "hinf", "Kf_hinf"))
    version = as_integer(block["version"], "gain.version")
    if version != _GAIN_VERSION:
        raise SchemaError(f"gain.version is {version}, this reader takes {_GAIN_VERSION}")
    if block["operators_sha256"] != _operators_sha256(state_operator, action_operator):
        raise SchemaError("gain.operators_sha256 does not match the model's operators: "
                          "the gain block belongs to other operators")
    return ModelGain(HinfReport.from_dict(block["hinf"], "gain.hinf"),
                     as_number(block["Kf_hinf"], "gain.Kf_hinf", "level"))


def _model_to_dict(model: KoopmanModel) -> dict:
    eigvals = model.eigenvalues
    if eigvals is None:
        eigvals = _sorted_eig(model.state_operator)
    doc = {
        "n": model.n,
        "m": model.m,
        "state_operator": model.state_operator.tolist(),
        "action_operator": model.action_operator.tolist(),
        "eigenvalues": eigvals.view(np.float64).reshape(-1, 2).tolist(),
        "rank": model.rank,
        "rank_tol": model.rank_tol,
        "residuals": {"state": model.state_residual, "action": model.action_residual},
        "snapshot_columns": model.snapshot_columns,
        "r_count": model.r_count,
    }
    if model.gain is not None:
        doc["gain"] = _gain_to_dict(model)
    return doc


def _matrix_field(doc: dict, key: str, shape: tuple[int, int]) -> np.ndarray:
    matrix = as_numbers(doc[key], f"model field {key!r}")
    if matrix.shape != shape:
        raise SchemaError(f"model field {key!r} has shape {matrix.shape}, expected {shape}")
    return matrix


def _eigenvalues_field(node, n: int) -> np.ndarray:
    """The [re, im] pairs as complex values; _with_diagnostics checks that
    they are finite, as KoopmanModel checks the operators."""
    where = "model field 'eigenvalues'"
    pairs = as_numbers(node, where)
    if pairs.shape not in ((0,), (len(pairs), 2)) or len(pairs) > n:
        raise SchemaError(f"{where} must be a list of at most n = {n} [re, im] pairs")
    # A view, not re + 1j * im, which would lose the sign of a zero imaginary part.
    return pairs.reshape(-1, 2).view(np.complex128)[:, 0]


def _nullable(read, node, where: str, kind: str):
    return None if node is None else read(node, f"model field {where!r}", kind)


def _model_from_dict(doc) -> KoopmanModel:
    doc = as_object(doc, "model document", (
        "n", "m", "state_operator", "action_operator", "eigenvalues", "rank", "rank_tol",
        "residuals", "snapshot_columns", "r_count"))
    n, m = as_integer(doc["n"], "model field 'n'"), as_integer(doc["m"], "model field 'm'")
    residuals = as_object(doc["residuals"], "model field 'residuals'", ("state", "action"))
    model = _with_diagnostics(
        KoopmanModel(_matrix_field(doc, "state_operator", (n, n)),
                     _matrix_field(doc, "action_operator", (m, n))),
        eigenvalues=_eigenvalues_field(doc["eigenvalues"], n),
        rank=_nullable(as_integer, doc["rank"], "rank", "count"),
        rank_tol=_nullable(as_number, doc["rank_tol"], "rank_tol", "rank tolerance"),
        snapshot_columns=_nullable(as_integer, doc["snapshot_columns"], "snapshot_columns",
                                   "count"),
        r_count=_nullable(as_integer, doc["r_count"], "r_count", "count"),
        # A residual is +inf when a fit misses a zero target.
        state_residual=_nullable(as_number, residuals["state"], "residuals.state", "bound level"),
        action_residual=_nullable(as_number, residuals["action"], "residuals.action",
                                  "bound level"),
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
