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
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from ._floattext import write_rows
from ._jsonio import _in_range, as_number, as_object, as_string, encodes, read_json, write_json
from .errors import (
    DataError,
    DimensionMismatchError,
    InsufficientDataError,
    ParameterError,
    SchemaError,
)
from .hinf_spectral import HinfReport, TransferFunction, hinf_norm
from .koopman_dmd import KoopmanModel, ModelGain
from .trajectory_data import (
    _BLOCK_VALUES,
    TrajectoryEnsemble,
    _frozen_array,
    ensemble_mean,
    mean_rewards,
)

DISTURBANCE_KINDS = (
    "impulse",
    "constant_direction",
    "scaled_gaussian_projected",
    "single_tone",
)

# Oversampling of the frequency grid relative to the sequence length.  A
# length-K sequence has a trigonometric-polynomial spectrum of degree K-1
# whose supremum can lie between the 8K grid points and exceed their peak:
# by about 0.1% on Gaussian draws, by at most about 4% (Bernstein's
# inequality).  The admissibility check is a grid check, not a certified
# bound.
ADMISSIBILITY_OVERSAMPLING = 8

# Relative slack for admissibility and bound-violation comparisons; float
# round-off only, never a loosening of the inequalities themselves.
_CHECK_RTOL = 1e-9

# The comparisons verify_bounds makes: (name, empirical key, bound key).
_COMPARISONS = (
    ("state_energy", "state_energy", "state_energy_bound"),
    ("state_max", "state_max", "state_max_bound"),
    ("action_energy", "action_energy", "action_energy_bound"),
    ("action_max", "action_max", "action_max_bound"),
    ("reward_impact", "reward_gap_discounted", "reward_impact_bound"),
    ("generalization_error", "reward_gap_discounted", "generalization_error_bound"),
)
# The keys verify_bounds measures, in the report's ``empirical`` object.
_MEASURED = ("state_energy", "state_max", "action_energy", "action_max", "reward_gap_discounted",
             "reward_nominal_discounted", "reward_sum_nominal", "reward_sum_disturbed",
             "reward_impact_pct")


@dataclass(frozen=True, eq=False)
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
        _in_range(self.gamma, "gamma", "level")
        _in_range(self.horizon, "horizon", "count")
        _in_range(self.seed, "seed", "seed")
        _in_range(self.dim, "dim", "count")
        _in_range(self.omega, "omega", "finite")
        if self.direction is not None:
            d = _frozen_array(np.reshape(self.direction, -1), "direction")
            if d.shape[0] != self.dim:
                raise DimensionMismatchError(
                    f"direction has dimension {d.shape[0]}, expected {self.dim}"
                )
            if np.linalg.norm(d) == 0.0:
                raise DataError("direction must be nonzero")
            object.__setattr__(self, "direction", d)


def _unit_direction(spec: DisturbanceSpec) -> np.ndarray:
    if spec.direction is not None:
        return spec.direction / np.linalg.norm(spec.direction)
    e1 = np.zeros(spec.dim)
    e1[0] = 1.0
    return e1


def _spectral_power(w: np.ndarray, grid_points: int) -> np.ndarray:
    """||W(omega_j)||^2 at omega_j = 2*pi*j/grid_points, j = 0..grid_points//2.

    By Wiener-Khinchin the power is the scalar trigonometric polynomial whose
    coefficients are the autocorrelation r(tau) of w summed over components,
    so one real FFT of the lags evaluates it on the whole grid, whatever the
    dimension.  A real sequence's power is symmetric about pi, so the half
    grid covers the circle.  Round-off can leave the power slightly negative
    near a spectral zero; it is clamped at 0.
    """
    k = w.shape[0]
    # 2K points hold every lag |tau| < K without circular wrap-around.
    spectra = np.fft.rfft(np.ascontiguousarray(w.T), n=2 * k, axis=1)
    lags = np.fft.irfft((spectra.real**2 + spectra.imag**2).sum(axis=0), n=2 * k)[:k]
    # r(-tau) = r(tau), so the power is Re sum_tau c_tau e^{-j omega tau} with
    # c_0 = r(0) and c_tau = 2 r(tau).
    lags[1:] *= 2.0
    return np.maximum(np.fft.rfft(lags, n=grid_points).real, 0.0)


def spectral_grid_values(horizon: int) -> int:
    """Float64 values the admissibility grid of a length-horizon disturbance
    holds at once: the zero-padded lags and their half spectrum, about 2N for
    N = ADMISSIBILITY_OVERSAMPLING * horizon."""
    return 2 * ADMISSIBILITY_OVERSAMPLING * horizon


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
    peak = math.sqrt(float(np.max(_spectral_power(w, ADMISSIBILITY_OVERSAMPLING * k))))
    if peak > spec.gamma and peak > 0.0:
        w = w * (spec.gamma / peak)
    return w


class AdmissibilityResult(NamedTuple):
    admissible: bool
    sup_value: float
    energy: float


def disturbance_admissible(w: np.ndarray, gamma: float) -> AdmissibilityResult:
    """Check sup over the frequency grid of the spectrum norm against gamma;
    the grid has ADMISSIBILITY_OVERSAMPLING points per step.

    Two necessary conditions are checked first: total energy at most gamma^2
    and every per-step norm at most gamma.  Either failing is definitive
    inadmissibility and skips the grid sweep (sup_value is then the larger of
    the two implied spectral lower bounds).
    """
    w = _frozen_array(w, "w")
    if w.ndim == 1:
        w = w[:, None]
    if w.size == 0:
        raise InsufficientDataError("empty disturbance sequence")
    _in_range(gamma, "gamma", "bound level")
    energy = float(np.sum(w * w))
    max_step = float(np.max(np.linalg.norm(w, axis=1)))
    slack = 1.0 + _CHECK_RTOL
    if energy > gamma * gamma * slack or max_step > gamma * slack:
        return AdmissibilityResult(
            admissible=False,
            sup_value=max(math.sqrt(energy), max_step),
            energy=energy,
        )
    power = _spectral_power(w, ADMISSIBILITY_OVERSAMPLING * len(w))
    sup_value = math.sqrt(float(np.max(power)))
    return AdmissibilityResult(
        admissible=sup_value <= gamma * slack,
        sup_value=sup_value,
        energy=energy,
    )


# ---------------------------------------------------------------------------
# Bound expressions
# ---------------------------------------------------------------------------


def deviation_bounds(gamma: float, T_hinf: float, Kf_hinf: float) -> dict:
    """The caps on mean deviations under a disturbance of spectral peak gamma:
    M = T*gamma and N = Kf*T*gamma cap the state and action maxima, M^2 and
    N^2 their energies."""
    for name, value in (("gamma", gamma), ("T_hinf", T_hinf), ("Kf_hinf", Kf_hinf)):
        _in_range(value, name, "bound level")
    # gamma == 0 means no disturbance at all, and a zero action map moves no
    # action, so the cap is 0 even when the gain is flagged infinite (0 * inf
    # would be NaN).
    m = 0.0 if gamma == 0.0 else T_hinf * gamma
    n = 0.0 if gamma == 0.0 or Kf_hinf == 0.0 else Kf_hinf * T_hinf * gamma
    return {"M": m, "N": n, "state_energy_bound": m * m, "state_max_bound": m,
            "action_energy_bound": n * n, "action_max_bound": n}


# The range kind of each BoundInputs field, checked when the record is built
# and when a report file is read.
_INPUT_KINDS = {"gamma": "bound level", "T_hinf": "bound level", "Kf_hinf": "bound level",
                "L": "bound level", "Q": "level", "C": "level", "gamma_d": "discount factor",
                "horizon": "horizon"}


@dataclass(frozen=True)
class BoundInputs:
    """Ingredients of the reward-level bounds.

    T_hinf is the resolvent worst-case gain, Kf_hinf the action-map gain,
    L the reward Lipschitz constant, Q the expected in-run deviation of the
    disturbed rollouts from their mean, C the same for nominal rollouts,
    gamma_d the discount factor and horizon the step count (math.inf for the
    infinite-horizon forms).  Each field is checked against the range of its
    kind when the record is built and then held as a Python float, so the
    bounds derived from it are the ones a report file reloads to.
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
        for name, kind in _INPUT_KINDS.items():
            object.__setattr__(self, name, float(_in_range(getattr(self, name), name, kind)))

    def bounds(self) -> dict:
        """Every bound value: the deviation_bounds caps, the cap
        L(Q+M+N) * sum of discounts on the discounted reward gap, and the cap
        (L(Q+M+N) + L*C)/(1 - gamma_d) on the generalization error.

        Finite horizons sum (1 - gamma_d^(K+1))/(1 - gamma_d) discounts; an
        infinite horizon sums 1/(1 - gamma_d).
        """
        values = deviation_bounds(self.gamma, self.T_hinf, self.Kf_hinf)
        if math.isinf(self.horizon):
            total = 1.0 / (1.0 - self.gamma_d)
        else:
            total = (1.0 - self.gamma_d ** (self.horizon + 1)) / (1.0 - self.gamma_d)
        # A constant reward cannot change, even when the gain is flagged infinite.
        if self.L == 0.0:
            return {**values, "reward_impact_bound": 0.0, "generalization_error_bound": 0.0}
        lqmn = self.L * (self.Q + values["M"] + values["N"])
        return {**values, "reward_impact_bound": lqmn * total,
                "generalization_error_bound": (lqmn + self.L * self.C) / (1.0 - self.gamma_d)}


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

_DISTINCT_EPS = 1e-12


def estimate_lipschitz(states: np.ndarray, actions: np.ndarray, rewards: np.ndarray) -> float:
    """Largest sampled ratio |r1 - r2| / (|x1 - x2| + |u1 - u2|) over the S
    samples in the rows of ``states`` (S, n), ``actions`` (S, m) and
    ``rewards`` (S,).

    This is a lower bound on the true Lipschitz constant; supply an analytic
    constant instead whenever one is known.  Pairs closer than 1e-12 in
    combined input distance are excluded.
    """
    if not len(states) == len(actions) == len(rewards):
        raise DimensionMismatchError(f"{len(states)} states, {len(actions)} actions and "
                                     f"{len(rewards)} rewards do not pair up as samples")
    if len(rewards) < 2:
        raise InsufficientDataError("need at least two reward samples")
    from scipy.spatial.distance import pdist  # here: only an estimated L loads scipy

    denom = pdist(_frozen_array(states, "states"))
    denom += pdist(_frozen_array(actions, "actions"))
    numer = pdist(_frozen_array(rewards, "rewards")[:, None], metric="cityblock")
    close = denom < _DISTINCT_EPS
    if close.all():
        raise InsufficientDataError("fewer than two distinct samples")
    # An excluded pair's ratio is 0 / 1, at most every kept one (each is
    # >= 0); a +inf denominator would turn an overflowed reward gap into NaN.
    numer[close] = 0.0
    denom[close] = 1.0
    numer /= denom
    return float(np.max(numer))


def _per_step_dispersion(ensemble: TrajectoryEnsemble) -> np.ndarray:
    """Per-step mean over runs of |x_{k+1} - xbar_{k+1}| + |u_k - ubar_k|.

    The deviations are differenced a run at a time (several small runs at
    once, up to _BLOCK_VALUES states), so no copy of the whole ensemble is
    made; each run's norms are the ones the whole-array expression gives,
    and the (R, K) array of their sums is averaged over runs as before."""
    mean = ensemble_mean(ensemble)
    spread = np.empty(ensemble.rewards.shape)
    step = max(1, _BLOCK_VALUES // max(1, ensemble.states[0].size))
    for start in range(0, ensemble.r_count, step):
        runs = slice(start, start + step)
        spread[runs] = np.linalg.norm(ensemble.states[runs, 1:] - mean.mean_states[1:], axis=2)
        spread[runs] += np.linalg.norm(ensemble.actions[runs] - mean.mean_actions, axis=2)
    return spread.mean(axis=0)


def estimate_Q(ensemble: TrajectoryEnsemble) -> float:
    """Worst per-step in-run dispersion of an ensemble about its mean: Q on
    the disturbed rollouts, C on the nominal ones.

    The per-step estimate is scalarized by its maximum over k, the most
    conservative choice that keeps every per-step inequality valid.
    """
    if ensemble.r_count < 2:
        raise InsufficientDataError("dispersion needs at least two runs")
    return float(np.max(_per_step_dispersion(ensemble)))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """What verify_bounds measured or was given: the bound inputs, the
    model's gain report, the measured left-hand sides and the flags.

    The bound values, the violations and the L source are derived from these
    on each read, so a report cannot hold values that disagree with its own
    fields.
    """

    inputs: BoundInputs
    hinf: HinfReport
    empirical: dict
    flags: tuple

    @property
    def bounds(self) -> dict:
        """Every bound value, by name: ``BoundInputs.bounds`` of the inputs."""
        return self.inputs.bounds()

    @property
    def violations(self) -> tuple:
        """(name, measured, bound) of each finite bound that its measured
        left-hand side exceeds beyond float round-off."""
        bounds = self.bounds
        return tuple(
            (name, self.empirical[measured], bounds[bound])
            for name, measured, bound in _COMPARISONS
            if math.isfinite(bounds[bound])
            and self.empirical[measured] > bounds[bound] * (1.0 + _CHECK_RTOL)
        )

    @property
    def l_source(self) -> str:
        return "estimated" if "estimated-L" in self.flags else "analytic"

    def _derived(self) -> dict:
        """Every value to_dict writes that the fields determine."""
        violations = self.violations
        return {
            **self.bounds,
            "violations": [list(v) for v in violations],
            # Fraction of the compared bounds that were exceeded; nonzero
            # rates on fitted models are a model-approximation effect, not a
            # process failure.
            "violation_rate": len(violations) / float(len(_COMPARISONS)),
            "l_source": self.l_source,
        }

    def to_dict(self) -> dict:
        return {**self._derived(), "inputs": asdict(self.inputs), "hinf": self.hinf.to_dict(),
                "empirical": dict(self.empirical), "flags": list(self.flags)}

    @classmethod
    def from_dict(cls, doc) -> "BoundReport":
        """Read a report written by to_dict.  A malformed document, an
        ``inputs.T_hinf`` that is not ``hinf.value``, or a derived value that
        is not the one the fields give raises SchemaError naming the field.
        Values written by to_dict compare exactly: the codec writes
        shortest-repr floats."""
        doc = as_object(doc, "bound report", ("inputs", "hinf", "empirical", "flags"))
        raw = as_object(doc["inputs"], "inputs", _INPUT_KINDS)
        inputs = BoundInputs(**{name: as_number(raw[name], f"inputs.{name}", kind)
                                for name, kind in _INPUT_KINDS.items()})
        hinf = HinfReport.from_dict(doc["hinf"])
        if inputs.T_hinf != hinf.value:
            raise SchemaError(f"inputs.T_hinf must be {hinf.value!r}, the value of hinf.value, "
                              f"got {raw['T_hinf']!r}")
        empirical = as_object(doc["empirical"], "empirical", _MEASURED)
        if not (isinstance(doc["flags"], list) and all(isinstance(v, str) for v in doc["flags"])):
            raise SchemaError(f"flags must be a list of strings, got {doc['flags']!r}")
        report = cls(
            inputs=inputs,
            hinf=hinf,
            empirical={key: as_number(value, f"empirical.{key}")
                       for key, value in empirical.items()},
            flags=tuple(doc["flags"]),
        )
        derived = report._derived()
        as_object(doc, "bound report", derived)
        for key, value in derived.items():
            if not encodes(doc[key], value):
                raise SchemaError(f"{key} must be {value!r}, the value its fields give, "
                                  f"got {doc[key]!r}")
        return report


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
    return report, None if label is None else as_string(label, "label")


def certified_gain(model: KoopmanModel) -> ModelGain:
    """The model's certified gains: the H-infinity report of the resolvent of
    Kh and the spectral norm ||Kf||_2, the gain of the constant action map at
    every frequency.

    This is the one routine that computes them.  ``fit`` stores its result in
    model JSON and ``load_model`` hands it back; a model without it (built in
    code, or read from a file without a gain block) computes it here on first
    use and keeps it on the instance.
    """
    if model.gain is None:
        hinf = hinf_norm(TransferFunction.resolvent(model.state_operator))
        gain = ModelGain(hinf=hinf, kf_hinf=float(np.linalg.norm(model.action_operator, 2)))
        object.__setattr__(model, "gain", gain)  # derived from the read-only operators
    return model.gain


def _reward_samples(ensemble: TrajectoryEnsemble, max_samples: int = 400):
    """Deterministic subsample (x_{k+1}, u_k, r_k) for L estimation, as
    arrays of shape (S, n), (S, m) and (S,): every stride-th (run, step) pair
    in run-major order."""
    horizon = ensemble.horizon
    total = ensemble.r_count * horizon
    runs, steps = np.divmod(np.arange(0, total, max(1, total // max_samples)), horizon)
    return (ensemble.states[runs, steps + 1], ensemble.actions[runs, steps],
            ensemble.rewards[runs, steps])


def _check_dims(nominal, disturbed, model=None):
    reference = (nominal.n, nominal.m, nominal.horizon)
    shape = (disturbed.n, disturbed.m, disturbed.horizon)
    if shape != reference:
        raise DimensionMismatchError(
            f"disturbed ensemble has (n, m, K)={shape}, nominal ensemble {reference}"
        )
    if model is not None and (model.n, model.m) != reference[:2]:
        raise DimensionMismatchError(
            f"model has (n, m)=({model.n}, {model.m}), data has "
            f"({reference[0]}, {reference[1]})"
        )


def verify_bounds(
    nominal: TrajectoryEnsemble,
    disturbed: TrajectoryEnsemble,
    model: KoopmanModel,
    gamma: float,
    gamma_d: float,
    lipschitz: float | None = None,
) -> tuple[BoundReport, np.ndarray]:
    """Compare every bound against its measured left-hand side; return the
    report and the per_step_table it measured from.

    ``lipschitz`` is the reward's Lipschitz constant L, labeled "analytic"
    in the report; when None, L is estimated from sampled (state, action,
    reward) triples of both ensembles and labeled "estimated" (a lower bound
    of the true constant).

    Measures state/action deviation energies and maxima between the two
    ensembles' mean trajectories, plus the discounted gap of per-step
    ensemble-mean rewards; the report derives any exceedance beyond float
    round-off.  Q is estimated from the disturbed rollouts themselves (the
    bound is partially a posteriori; see the q-from-disturbed-rollouts flag),
    C from the nominal ones; an ensemble of one run has no dispersion, so its
    value is 0 and the single-run-dispersion-unavailable flag is raised.
    """
    _check_dims(nominal, disturbed, model)
    flags = []

    hinf, kf_hinf = certified_gain(model)
    if not hinf.converged:
        flags.append("unstable-state-operator")
    if hinf.ill_conditioned and hinf.converged:
        flags.append("ill-conditioned-resolvent")

    if lipschitz is None:
        samples = zip(_reward_samples(nominal), _reward_samples(disturbed))
        lipschitz = estimate_lipschitz(*(np.concatenate(pair) for pair in samples))
        flags.append("estimated-L")

    if disturbed.r_count >= 2:
        flags.append("q-from-disturbed-rollouts")
    if min(nominal.r_count, disturbed.r_count) < 2:
        flags.append("single-run-dispersion-unavailable")
    q_value = estimate_Q(disturbed) if disturbed.r_count >= 2 else 0.0
    c_value = estimate_Q(nominal) if nominal.r_count >= 2 else 0.0

    k_steps = nominal.horizon
    inputs = BoundInputs(gamma=gamma, T_hinf=hinf.value, Kf_hinf=kf_hinf, L=lipschitz,
                         Q=q_value, C=c_value, gamma_d=gamma_d, horizon=float(k_steps))
    table = per_step_table(nominal, disturbed)
    dx, du, r_nom, r_dis = table[:, 1], table[:-1, 2], table[:-1, 3], table[:-1, 4]
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

    return BoundReport(inputs=inputs, hinf=hinf, empirical=empirical, flags=tuple(flags)), table


def per_step_table(nominal: TrajectoryEnsemble, disturbed: TrajectoryEnsemble) -> np.ndarray:
    """The (K+1, 5) array of rows (k, state_dev, action_dev,
    reward_nominal_mean, reward_disturbed_mean) of the two ensembles' means;
    the terminal row k = K carries only the state deviation, its last three
    cells NaN."""
    _check_dims(nominal, disturbed)
    nominal_mean, disturbed_mean = ensemble_mean(nominal), ensemble_mean(disturbed)
    k = nominal.horizon
    table = np.full((k + 1, 5), np.nan)
    table[:, 0] = np.arange(k + 1)
    table[:, 1] = np.linalg.norm(nominal_mean.mean_states - disturbed_mean.mean_states, axis=1)
    table[:k, 2] = np.linalg.norm(nominal_mean.mean_actions - disturbed_mean.mean_actions, axis=1)
    table[:k, 3] = mean_rewards(nominal)
    table[:k, 4] = mean_rewards(disturbed)
    return table


def write_per_step_table(table, path) -> None:
    """Write a per_step_table array as CSV, floats as repr: the last row's
    last three cells empty, as in the trajectory file format, any other NaN
    written as nan."""
    table = np.asarray(table, dtype=float)
    empty = np.zeros((len(table), 4), dtype=bool)
    empty[-1, 1:] = True
    with open(path, "wb") as fh:
        fh.write(b"k,state_dev,action_dev,reward_nominal_mean,reward_disturbed_mean\n")
        write_rows(fh, table[:, :1], table[:, 1:], empty)
