"""Koopman operator fitting and worst-case robustness bounds for
black-box sequential decision policies."""

__version__ = "0.1.0"

from .trajectory_data import (
    MeanTrajectory,
    TrajectoryEnsemble,
    ensemble_mean,
    load_trajectories,
    mean_rewards,
    save_trajectories,
)
from .koopman_dmd import (
    DEFAULT_RANK_TOL,
    DmdResult,
    KoopmanModel,
    fit_koopman_model,
    load_model,
    save_model,
)
from .hinf_spectral import (
    CONSTANT,
    RESOLVENT,
    HinfReport,
    TransferFunction,
    hinf_norm,
)
from .bounds import (
    DISTURBANCE_KINDS,
    AdmissibilityResult,
    BoundInputs,
    BoundReport,
    DisturbanceSpec,
    RewardDescriptor,
    action_deviation_bounds,
    disturbance_admissible,
    estimate_lipschitz,
    estimate_Q,
    generalization_error_bound,
    generate_disturbance,
    load_report,
    per_step_table,
    reward_impact_bound,
    save_report,
    state_deviation_bounds,
    verify_bounds,
    write_per_step_table,
)
from .env_sim import (
    FAIRNESS_MODES,
    POLICY_KINDS,
    LinearSurrogateConfig,
    ScriptedPolicy,
    UavEnvConfig,
    downlink_rate,
    fairness_index,
    linear_ensemble,
    norm_penalty_reward,
    path_loss,
    uav_ensemble,
    uav_reward,
)
from .errors import (
    DataError,
    DegenerateInputError,
    DimensionMismatchError,
    DivergenceError,
    EmptyInputError,
    InsufficientDataError,
    KoopboundError,
    ParameterError,
    ParseError,
    SchemaError,
)
