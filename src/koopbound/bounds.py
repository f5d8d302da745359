"""Admissible disturbances, worst-case deviation bounds, and verification.

A domain change is an additive state disturbance sequence w_0..w_{K-1} whose
frequency response never exceeds gamma in Euclidean norm.  Under that premise
the fitted model's resolvent gain T and action gain Kf cap the mean state and
action deviations (energy and max), and together with a reward Lipschitz
constant they cap the discounted reward impact and the generalization error.
This module generates premise-satisfying disturbances, evaluates every bound
expression, and checks them against measured rollout data.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple, Sequence

import numpy as np
from scipy.spatial.distance import pdist

from ._jsonio import as_number, as_object, read_json, write_json
from .errors import (
    DataError,
    DimensionMismatchError,
    DivergenceError,
    EmptyInputError,
    InsufficientDataError,
    ParameterError,
    SchemaError,
)
from .hinf_spectral import HinfReport, TransferFunction, hinf_norm
from .koopman_dmd import KoopmanModel, ModelGain
from .trajectory_data import MeanTrajectory, TrajectoryEnsemble, mean_rewards

DISTURBANCE_KINDS = (
    "impulse",
    "constant_direction",
    "scaled_gaussian_projected",
    "single_tone",
)

# Oversampling of the frequency grid relative to the sequence length.  A
# length-K sequence has a trigonometric-polynomial spectrum of degree K-1,
# which 8x oversampling resolves densely.
ADMISSIBILITY_OVERSAMPLING = 8

# Relative slack for admissibility and bound-violation comparisons; float
# round-off only, never a loosening of the inequalities themselves.
_CHECK_RTOL = 1e-9

# Bound comparisons evaluated by verify_bounds: state/action energy and max,
# discounted reward impact, generalization error.
_N_BOUND_COMPARISONS = 6

INFINITE_HORIZON = float("inf")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Recipe for one admissible disturbance sequence.

    direction selects the spatial axis for the deterministic kinds (defaults
    to the first coordinate axis); omega fixes the tone frequency for
    single_tone.
    """

    kind: str
    gamma: float
    horizon: int
    seed: int
    dim: int
    direction: np.ndarray | None = None
    omega: float = math.pi / 4.0

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ParameterError(
                f"unknown disturbance kind {self.kind!r}; choose from {DISTURBANCE_KINDS}"
            )
        if not self.gamma >= 0:
            raise ParameterError("gamma must be non-negative")
        if self.horizon < 1:
            raise ParameterError("horizon must be at least 1")
        if self.dim < 1:
            raise ParameterError("dim must be at least 1")
        if not math.isfinite(self.omega):
            raise ParameterError(f"omega must be finite, got {self.omega}")
        if self.direction is not None:
            d = np.asarray(self.direction, dtype=float).reshape(-1)
            if d.shape[0] != self.dim:
                raise DimensionMismatchError(
                    f"direction has dimension {d.shape[0]}, expected {self.dim}"
                )
            if not np.all(np.isfinite(d)) or np.linalg.norm(d) == 0.0:
                raise DataError("direction must be finite and nonzero")
            object.__setattr__(self, "direction", d)


def _unit_direction(spec: DisturbanceSpec) -> np.ndarray:
    if spec.direction is not None:
        return spec.direction / np.linalg.norm(spec.direction)
    e1 = np.zeros(spec.dim)
    e1[0] = 1.0
    return e1


def _dtft_grid_norms(w: np.ndarray, grid_points: int) -> np.ndarray:
    """Euclidean norms of the discrete-time spectrum on a uniform grid.

    The grid frequencies are 2*pi*j/grid_points; for real sequences the
    norms are symmetric about pi, so the full circle costs nothing extra.
    Zero-padded FFT evaluates all grid points at once.
    """
    spectrum = np.fft.fft(w, n=grid_points, axis=0)
    return np.linalg.norm(spectrum, axis=1)


def generate_disturbance(spec: DisturbanceSpec) -> np.ndarray:
    """Produce w_0..w_{K-1} whose spectral peak is at most gamma.

    The raw sequence per kind is rescaled by gamma / peak whenever its dense
    spectral grid peak exceeds gamma, so the admissibility premise holds
    exactly (to round-off) by construction.
    """
    k, dim = spec.horizon, spec.dim
    if spec.gamma == 0.0:
        return np.zeros((k, dim))
    direction = _unit_direction(spec)
    if spec.kind == "impulse":
        w = np.zeros((k, dim))
        w[0] = spec.gamma * direction
    elif spec.kind == "constant_direction":
        w = np.tile((spec.gamma / k) * direction, (k, 1))
    elif spec.kind == "scaled_gaussian_projected":
        rng = np.random.default_rng(spec.seed)
        w = rng.standard_normal((k, dim))
    else:  # single_tone
        phases = np.cos(spec.omega * np.arange(k))
        w = spec.gamma * phases[:, None] * direction[None, :]
    peak = float(np.max(_dtft_grid_norms(w, ADMISSIBILITY_OVERSAMPLING * k)))
    if peak > spec.gamma and peak > 0.0:
        w = w * (spec.gamma / peak)
    return w


class AdmissibilityResult(NamedTuple):
    admissible: bool
    sup_value: float
    energy: float


def disturbance_admissible(
    w: np.ndarray, gamma: float, grid_points: int | None = None
) -> AdmissibilityResult:
    """Check sup over the frequency grid of the spectrum norm against gamma.

    Two necessary conditions are checked first: total energy at most gamma^2
    and every per-step norm at most gamma.  Either failing is definitive
    inadmissibility and skips the grid sweep (sup_value is then the larger of
    the two implied spectral lower bounds).
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if w.size == 0:
        raise EmptyInputError("empty disturbance sequence")
    if not gamma >= 0:
        raise ParameterError("gamma must be non-negative")
    k = w.shape[0]
    if grid_points is None:
        grid_points = ADMISSIBILITY_OVERSAMPLING * k
    if grid_points < 4 * k:
        raise ParameterError(
            f"grid_points must be at least 4x the sequence length ({4 * k}), got {grid_points}"
        )
    energy = float(np.sum(w * w))
    max_step = float(np.max(np.linalg.norm(w, axis=1)))
    slack = 1.0 + _CHECK_RTOL
    if energy > gamma * gamma * slack or max_step > gamma * slack:
        return AdmissibilityResult(
            admissible=False,
            sup_value=max(math.sqrt(energy), max_step),
            energy=energy,
        )
    sup_value = float(np.max(_dtft_grid_norms(w, grid_points)))
    return AdmissibilityResult(
        admissible=sup_value <= gamma * slack,
        sup_value=sup_value,
        energy=energy,
    )


# ---------------------------------------------------------------------------
# Bound expressions
# ---------------------------------------------------------------------------


def state_deviation_bounds(t_hinf: float, gamma: float) -> tuple[float, float]:
    """Energy and max caps on mean-state deviation: ((T*gamma)^2, T*gamma)."""
    if not (t_hinf >= 0 and gamma >= 0):
        raise ParameterError("inputs must be non-negative")
    max_bound = _gain_times_gamma(t_hinf, gamma)
    return max_bound * max_bound, max_bound


def action_deviation_bounds(
    kf_hinf: float, t_hinf: float, gamma: float
) -> tuple[float, float]:
    """Energy and max caps on mean-action deviation: ((Kf*T*gamma)^2, Kf*T*gamma)."""
    if not (kf_hinf >= 0 and t_hinf >= 0 and gamma >= 0):
        raise ParameterError("inputs must be non-negative")
    max_bound = _gain_times_gamma(_action_gain(kf_hinf, t_hinf), gamma)
    return max_bound * max_bound, max_bound


def _action_gain(kf_hinf: float, t_hinf: float) -> float:
    # A zero action map moves no action, even when the state gain is flagged
    # infinite (0 * inf would be NaN).
    if kf_hinf == 0.0:
        return 0.0
    return kf_hinf * t_hinf


def _gain_times_gamma(gain: float, gamma: float) -> float:
    # gamma == 0 means no disturbance at all, so the cap is 0 even when the
    # gain is flagged infinite.
    if gamma == 0.0:
        return 0.0
    return gain * gamma


@dataclass(frozen=True)
class BoundInputs:
    """Ingredients of the reward-level bounds.

    T_hinf is the resolvent worst-case gain, Kf_hinf the action-map gain,
    L the reward Lipschitz constant, Q the expected in-run deviation of the
    disturbed rollouts from their mean, C the same for nominal rollouts,
    gamma_d the discount factor and horizon the step count (math.inf for the
    infinite-horizon forms).
    """

    gamma: float
    T_hinf: float
    Kf_hinf: float
    L: float
    Q: float
    C: float
    gamma_d: float
    horizon: float

    def __post_init__(self):
        for name in ("gamma", "T_hinf", "Kf_hinf", "L", "Q", "C", "gamma_d"):
            if not getattr(self, name) >= 0:
                raise ParameterError(f"{name} must be non-negative")
        if math.isinf(self.horizon) and self.gamma_d >= 1.0:
            raise DivergenceError(
                "infinite horizon requires a discount factor below 1"
            )

    @property
    def M(self) -> float:
        return _gain_times_gamma(self.T_hinf, self.gamma)

    @property
    def N(self) -> float:
        return _gain_times_gamma(_action_gain(self.Kf_hinf, self.T_hinf), self.gamma)


def _discount_sum(gamma_d: float, horizon: float) -> float:
    if gamma_d >= 1.0:
        raise DivergenceError(f"discount factor {gamma_d} must be below 1")
    if math.isinf(horizon):
        return 1.0 / (1.0 - gamma_d)
    return (1.0 - gamma_d ** (horizon + 1)) / (1.0 - gamma_d)


def reward_impact_bound(inputs: BoundInputs) -> float:
    """Cap on the discounted reward gap: L(Q+M+N) * sum of discounts.

    Finite horizons use (1 - gamma_d^(K+1))/(1 - gamma_d); an infinite
    horizon uses 1/(1 - gamma_d).
    """
    total = _discount_sum(inputs.gamma_d, inputs.horizon)
    # A constant reward cannot change, even when the gain is flagged infinite.
    if inputs.L == 0.0:
        return 0.0
    return inputs.L * (inputs.Q + inputs.M + inputs.N) * total


def generalization_error_bound(inputs: BoundInputs) -> float:
    """Cap on the generalization error: (L(Q+M+N) + L*C)/(1 - gamma_d)."""
    if inputs.gamma_d >= 1.0:
        raise DivergenceError(f"discount factor {inputs.gamma_d} must be below 1")
    if inputs.L == 0.0:
        return 0.0
    return (inputs.L * (inputs.Q + inputs.M + inputs.N) + inputs.L * inputs.C) / (
        1.0 - inputs.gamma_d
    )


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

_DISTINCT_EPS = 1e-12


def estimate_lipschitz(samples: Sequence[tuple[tuple, float]]) -> float:
    """Largest sampled ratio |r1 - r2| / (|x1 - x2| + |u1 - u2|).

    This is a lower bound on the true Lipschitz constant; supply an analytic
    constant instead whenever one is known.  Pairs closer than 1e-12 in
    combined input distance are excluded.
    """
    if len(samples) < 2:
        raise InsufficientDataError("need at least two reward samples")
    states = np.array([np.asarray(x, dtype=float).reshape(-1) for (x, _), _ in samples])
    actions = np.array([np.asarray(u, dtype=float).reshape(-1) for (_, u), _ in samples])
    rewards = np.array([float(r) for _, r in samples])
    denom = pdist(states) + pdist(actions)
    numer = pdist(rewards[:, None], metric="cityblock")
    valid = denom >= _DISTINCT_EPS
    if not np.any(valid):
        raise InsufficientDataError("fewer than two distinct samples")
    return float(np.max(numer[valid] / denom[valid]))


def _per_step_dispersion(ensemble: TrajectoryEnsemble, mean: MeanTrajectory) -> np.ndarray:
    """Per-step mean over runs of |x_{k+1} - xbar_{k+1}| + |u_k - ubar_k|."""
    dx = np.linalg.norm(ensemble.states[:, 1:, :] - mean.mean_states[None, 1:, :], axis=2)
    du = np.linalg.norm(ensemble.actions - mean.mean_actions[None, :, :], axis=2)
    return (dx + du).mean(axis=0)


def estimate_Q(ensemble: TrajectoryEnsemble, mean: MeanTrajectory) -> float:
    """Worst per-step in-run dispersion of an ensemble about its mean: Q on
    the disturbed rollouts, C on the nominal ones.

    The per-step estimate is scalarized by its maximum over k, the most
    conservative choice that keeps every per-step inequality valid.
    """
    if ensemble.r_count < 2:
        raise InsufficientDataError("dispersion needs at least two runs")
    return float(np.max(_per_step_dispersion(ensemble, mean)))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewardDescriptor:
    """How to obtain the reward Lipschitz constant for the bound expressions.

    analytic_L, when given, is used directly and the report is labeled
    "analytic"; otherwise L is estimated from sampled (state, action, reward)
    triples and labeled "estimated" (a lower bound of the true constant).
    """

    name: str = "reward"
    analytic_L: float | None = None


# The bound values a report derives from its inputs.
_DERIVED_BOUNDS = ("M", "N", "state_energy_bound", "state_max_bound", "action_energy_bound",
                   "action_max_bound", "reward_impact_bound", "generalization_error_bound")


@dataclass(frozen=True)
class BoundReport:
    """Bound inputs, measured left-hand sides, and any exceedances.

    Every bound value is a property computed from ``inputs``, so a report
    cannot hold bounds that disagree with its own inputs.
    """

    inputs: BoundInputs
    hinf: HinfReport | None = None
    empirical: dict | None = None
    violations: tuple = ()
    l_source: str = "analytic"
    flags: tuple = ()

    @property
    def M(self) -> float:
        return self.inputs.M

    @property
    def N(self) -> float:
        return self.inputs.N

    @property
    def state_energy_bound(self) -> float:
        return state_deviation_bounds(self.inputs.T_hinf, self.inputs.gamma)[0]

    @property
    def state_max_bound(self) -> float:
        return state_deviation_bounds(self.inputs.T_hinf, self.inputs.gamma)[1]

    @property
    def action_energy_bound(self) -> float:
        i = self.inputs
        return action_deviation_bounds(i.Kf_hinf, i.T_hinf, i.gamma)[0]

    @property
    def action_max_bound(self) -> float:
        i = self.inputs
        return action_deviation_bounds(i.Kf_hinf, i.T_hinf, i.gamma)[1]

    @property
    def reward_impact_bound(self) -> float:
        return reward_impact_bound(self.inputs)

    @property
    def generalization_error_bound(self) -> float:
        return generalization_error_bound(self.inputs)

    def to_dict(self) -> dict:
        doc = {name: getattr(self, name) for name in _DERIVED_BOUNDS}
        doc.update(
            inputs=asdict(self.inputs),
            l_source=self.l_source,
            flags=list(self.flags),
            violations=[list(v) for v in self.violations],
            # Fraction of the six compared bounds that were exceeded; nonzero
            # rates on fitted models are a model-approximation effect, not a
            # process failure.
            violation_rate=len(self.violations) / float(_N_BOUND_COMPARISONS),
        )
        if self.hinf is not None:
            doc["hinf"] = self.hinf.to_dict()
        if self.empirical is not None:
            doc["empirical"] = dict(self.empirical)
        return doc

    @classmethod
    def from_dict(cls, doc) -> "BoundReport":
        """Read a report written by to_dict; a malformed document raises
        SchemaError naming the field."""
        doc = as_object(doc, "bound report")
        for key in ("inputs", "M", "N", "state_energy_bound"):
            if key not in doc:
                raise SchemaError(f"bound report is missing field {key!r}")
        raw = as_object(doc["inputs"], "inputs")
        for key in ("gamma", "T_hinf", "Kf_hinf", "gamma_d"):
            if key not in raw:
                raise SchemaError(f"bound report inputs are missing field {key!r}")
        defaults = {"L": 0.0, "Q": 0.0, "C": 0.0, "horizon": INFINITE_HORIZON}
        inputs = BoundInputs(**{
            f.name: as_number(raw.get(f.name, defaults.get(f.name)), f"inputs.{f.name}")
            for f in fields(BoundInputs)
        })
        violations = doc.get("violations", [])
        if not (isinstance(violations, list) and all(
                isinstance(v, list) and len(v) == 3 and isinstance(v[0], str) for v in violations)):
            raise SchemaError(
                f"violations must be a list of [name, measured, bound], got {violations!r}"
            )
        empirical = doc.get("empirical")
        if empirical is not None:
            empirical = {key: as_number(value, f"empirical.{key}")
                         for key, value in as_object(empirical, "empirical").items()}
        l_source = doc.get("l_source", "analytic")
        if not isinstance(l_source, str):
            raise SchemaError(f"l_source must be a string, got {l_source!r}")
        return cls(
            inputs=inputs,
            hinf=HinfReport.from_dict(as_object(doc["hinf"], "hinf")) if "hinf" in doc else None,
            empirical=empirical,
            violations=tuple(
                (name, as_number(measured, f"violations[{i}]"), as_number(bound, f"violations[{i}]"))
                for i, (name, measured, bound) in enumerate(violations)
            ),
            l_source=l_source,
            flags=_strings(doc.get("flags", []), "flags"),
        )


def _strings(node, where: str) -> tuple:
    if not (isinstance(node, list) and all(isinstance(v, str) for v in node)):
        raise SchemaError(f"{where} must be a list of strings, got {node!r}")
    return tuple(node)


def save_report(report: BoundReport, path, label: str | None = None) -> None:
    doc = report.to_dict()
    if label is not None:
        doc["label"] = label
    write_json(doc, path)


def load_report(path) -> tuple[BoundReport, str | None]:
    """The report at path and its label (None when it has none); a malformed
    document raises SchemaError naming the field."""
    report = BoundReport.from_dict(doc := read_json(path))
    label = doc.get("label")
    if not (label is None or isinstance(label, str)):
        raise SchemaError(f"label must be a string, got {label!r}")
    return report, label


def certified_gain(model: KoopmanModel) -> ModelGain:
    """The model's certified gains: the H-infinity report of the resolvent of
    Kh and ||Kf||_2.

    This is the one routine that computes them.  ``fit`` stores its result in
    model JSON and ``load_model`` hands it back; a model without it (built in
    code, or read from a file without a gain block) computes it here on first
    use and keeps it on the instance.
    """
    if model.gain is None:
        gain = ModelGain(
            hinf=hinf_norm(TransferFunction.resolvent(model.state_operator)),
            kf_hinf=hinf_norm(TransferFunction.constant(model.action_operator)).value,
        )
        object.__setattr__(model, "gain", gain)  # derived from the frozen operators
    return model.gain


def _sample_reward_triples(ensemble: TrajectoryEnsemble, max_samples: int = 400):
    """Deterministic subsample of ((x_{k+1}, u_k), r_k) triples for L estimation:
    every stride-th (run, step) pair in run-major order."""
    horizon = ensemble.horizon
    total = ensemble.r_count * horizon
    runs, steps = np.divmod(np.arange(0, total, max(1, total // max_samples)), horizon)
    inputs = zip(ensemble.states[runs, steps + 1], ensemble.actions[runs, steps])
    return list(zip(inputs, ensemble.rewards[runs, steps].tolist()))


def _check_dims(nominal_mean, disturbed_mean, nominal, disturbed, model):
    shapes = {
        "nominal mean": (nominal_mean.n, nominal_mean.m, nominal_mean.horizon),
        "disturbed mean": (disturbed_mean.n, disturbed_mean.m, disturbed_mean.horizon),
        "nominal ensemble": (nominal.n, nominal.m, nominal.horizon),
        "disturbed ensemble": (disturbed.n, disturbed.m, disturbed.horizon),
    }
    reference = shapes["nominal mean"]
    for name, shape in shapes.items():
        if shape != reference:
            raise DimensionMismatchError(
                f"{name} has (n, m, K)={shape}, expected {reference}"
            )
    if (model.n, model.m) != (reference[0], reference[1]):
        raise DimensionMismatchError(
            f"model has (n, m)=({model.n}, {model.m}), data has "
            f"({reference[0]}, {reference[1]})"
        )


def verify_bounds(
    nominal_mean: MeanTrajectory,
    disturbed_mean: MeanTrajectory,
    nominal: TrajectoryEnsemble,
    disturbed: TrajectoryEnsemble,
    model: KoopmanModel,
    gamma: float,
    gamma_d: float,
    reward: RewardDescriptor | None = None,
) -> BoundReport:
    """Compare every bound against its measured left-hand side.

    Measures state/action deviation energies and maxima between the nominal
    and disturbed mean trajectories, plus the discounted gap of per-step
    ensemble-mean rewards, then records any exceedance beyond float
    round-off.  Q is estimated from the disturbed rollouts themselves (the
    bound is partially a posteriori; see the q-from-disturbed-rollouts flag).
    """
    _check_dims(nominal_mean, disturbed_mean, nominal, disturbed, model)
    if not gamma >= 0:
        raise ParameterError("gamma must be non-negative")
    flags = []

    hinf, kf_hinf = certified_gain(model)
    if not hinf.converged:
        flags.append("unstable-state-operator")
    if hinf.ill_conditioned and hinf.converged:
        flags.append("ill-conditioned-resolvent")

    if reward is None:
        reward = RewardDescriptor()
    if reward.analytic_L is not None:
        lipschitz = float(reward.analytic_L)
        l_source = "analytic"
    else:
        samples = _sample_reward_triples(nominal) + _sample_reward_triples(disturbed)
        lipschitz = estimate_lipschitz(samples)
        l_source = "estimated"
        flags.append("estimated-L")

    if disturbed.r_count >= 2:
        q_value = estimate_Q(disturbed, disturbed_mean)
        flags.append("q-from-disturbed-rollouts")
    else:
        q_value = 0.0
        flags.append("single-run-dispersion-unavailable")
    c_value = estimate_Q(nominal, nominal_mean) if nominal.r_count >= 2 else 0.0

    k_steps = nominal_mean.horizon
    inputs = BoundInputs(
        gamma=gamma,
        T_hinf=hinf.value,
        Kf_hinf=kf_hinf,
        L=lipschitz,
        Q=q_value,
        C=c_value,
        gamma_d=gamma_d,
        horizon=float(k_steps),
    )
    dx = np.linalg.norm(nominal_mean.mean_states - disturbed_mean.mean_states, axis=1)
    du = np.linalg.norm(nominal_mean.mean_actions - disturbed_mean.mean_actions, axis=1)
    r_nom = mean_rewards(nominal)
    r_dis = mean_rewards(disturbed)
    discounts = gamma_d ** np.arange(k_steps)
    gap_discounted = float(abs(np.sum(discounts * (r_dis - r_nom))))
    sum_nom = float(np.sum(r_nom))
    sum_dis = float(np.sum(r_dis))
    impact_pct = (
        100.0 * (sum_nom - sum_dis) / abs(sum_nom) if sum_nom != 0.0 else 0.0
    )
    empirical = {
        "state_energy": float(np.sum(dx * dx)),
        "state_max": float(np.max(dx)),
        "action_energy": float(np.sum(du * du)),
        "action_max": float(np.max(du)),
        "reward_gap_discounted": gap_discounted,
        "reward_nominal_discounted": float(np.sum(discounts * r_nom)),
        "reward_sum_nominal": sum_nom,
        "reward_sum_disturbed": sum_dis,
        "reward_impact_pct": impact_pct,
    }

    report = BoundReport(
        inputs=inputs,
        hinf=hinf,
        empirical=empirical,
        l_source=l_source,
        flags=tuple(flags),
    )
    comparisons = (
        ("state_energy", empirical["state_energy"], report.state_energy_bound),
        ("state_max", empirical["state_max"], report.state_max_bound),
        ("action_energy", empirical["action_energy"], report.action_energy_bound),
        ("action_max", empirical["action_max"], report.action_max_bound),
        ("reward_impact", gap_discounted, report.reward_impact_bound),
        ("generalization_error", gap_discounted, report.generalization_error_bound),
    )
    violations = tuple(
        (name, measured, bound)
        for name, measured, bound in comparisons
        if math.isfinite(bound) and measured > bound * (1.0 + _CHECK_RTOL)
    )
    return replace(report, violations=violations)


def per_step_table(
    nominal_mean: MeanTrajectory,
    disturbed_mean: MeanTrajectory,
    nominal: TrajectoryEnsemble,
    disturbed: TrajectoryEnsemble,
) -> list[tuple]:
    """Rows (k, state_dev, action_dev, reward_nominal_mean, reward_disturbed_mean).

    The terminal step carries only the state deviation; its action and reward
    cells are empty, mirroring the trajectory file format.
    """
    dx = np.linalg.norm(nominal_mean.mean_states - disturbed_mean.mean_states, axis=1)
    du = np.linalg.norm(nominal_mean.mean_actions - disturbed_mean.mean_actions, axis=1)
    r_nom = mean_rewards(nominal)
    r_dis = mean_rewards(disturbed)
    rows = [
        (k, float(dx[k]), float(du[k]), float(r_nom[k]), float(r_dis[k]))
        for k in range(len(du))
    ]
    rows.append((len(du), float(dx[-1]), None, None, None))
    return rows


def write_per_step_table(rows, path) -> None:
    lines = ["k,state_dev,action_dev,reward_nominal_mean,reward_disturbed_mean"]
    for row in rows:
        lines.append(
            ",".join("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row)
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
