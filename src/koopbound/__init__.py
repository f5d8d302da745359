"""Koopman operator fitting and worst-case robustness bounds for
black-box sequential decision policies."""

__version__ = "0.1.0"

from .trajectory_data import (
    TrajectoryEnsemble,
    ensemble_mean,
    load_trajectories,
    save_trajectories,
)
from .koopman_dmd import (
    KoopmanModel,
    fit_koopman_model,
    load_model,
    save_model,
)
from .hinf_spectral import (
    HinfReport,
    TransferFunction,
    hinf_norm,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    DisturbanceSpec,
    deviation_bounds,
    disturbance_admissible,
    estimate_Q,
    generate_disturbance,
    load_report,
    per_step_table,
    save_report,
    verify_bounds,
    write_per_step_table,
)
from .env_sim import (
    POLICY_KINDS,
    LinearSurrogateConfig,
    UavEnvConfig,
    linear_ensemble,
    uav_ensemble,
)
from .errors import (
    DataError,
    DimensionMismatchError,
    DivergenceError,
    InsufficientDataError,
    KoopboundError,
    ParameterError,
    ParseError,
    SchemaError,
)
