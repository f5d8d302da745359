"""Trajectory generators with scripted policies.

Two environments feed the analysis pipeline.  The linear closed-loop
surrogate has analytically known transition and policy matrices, so fitted
operators and bound checks can be validated against ground truth.  The UAV
coverage environment simulates a single mmWave-serving UAV chasing mobile
ground users over a bounded service area, with link-budget based service
decisions and a coverage/fairness reward.

Both simulators step all R runs of an ensemble ("lanes") together as arrays.
Lane r draws from its own np.random.default_rng(master_seed + r) in a fixed
order, so its trajectory is the same whatever number of lanes runs beside it.
Row-wise norms use np.vecdot, which goes through the same BLAS dot as
np.linalg.norm of one vector, and matrix-vector products are stacked matmuls,
so every lane is rounded exactly as a run simulated on its own.

A call may also step G groups of R lanes, one group per disturbance, to roll
out nominal and disturbed ensembles with common random numbers in one loop.
Generator r then draws once per step and lane r of every group uses those
draws.  No draw depends on the state, so each group's lanes equal a separate
call with that group's disturbance alone, bit for bit.

A UAV rollout keeps the service mask of every step and scores the rewards and
speed flags of all steps once, after the step loop.  The sums count 0/1
values and every other operation is elementwise, so each reward is the one a
step-by-step scoring gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError, DimensionMismatchError, ParameterError
from .trajectory_data import TrajectoryEnsemble

SPEED_OF_LIGHT = 299_792_458.0

POLICY_KINDS = ("centroid_greedy", "lagged_centroid")
FAIRNESS_MODES = ("as_written", "standard")

# Exponential smoothing weight of the lagged policy's target.
_LAG_SMOOTHING = 0.5
# Slack on the per-step UAV displacement check, float round-off only.
_SPEED_EPS = 1e-9
# Steps of process noise the linear surrogate draws per lane at a time.
_NOISE_CHUNK = 256
# Largest (G*R, K+1, n) state buffer a rollout plans, in values: 2**28
# float64 values are 2 GiB, before the action, reward and service-mask
# buffers.  A larger rollout is refused before any generator or array exists.
_MAX_STATE_VALUES = 2**28


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, rounded as np.linalg.norm."""
    return np.sqrt(np.vecdot(v, v))


def _ensemble(states, actions, rewards, base_seed: int, runs: int) -> TrajectoryEnsemble:
    """Ensemble from lane-major (G*R, K+1, n), (G*R, K, m) and (G*R, K)
    buffers of G groups of R lanes; lane l used seed base_seed + l % R.  The
    buffers are frozen and handed over, not copied."""
    for buffer in (states, actions, rewards):
        buffer.setflags(write=False)
    lanes = np.arange(len(states))
    return TrajectoryEnsemble(
        states=states, actions=actions, rewards=rewards, run_ids=lanes,
        seeds=base_seed + lanes % runs,
    )


def split_groups(ensemble: TrajectoryEnsemble, groups: int) -> tuple[TrajectoryEnsemble, ...]:
    """The per-group ensembles of a rollout of `groups` disturbance groups,
    each equal to the rollout of that group's disturbance alone.  They are
    read-only views of the ensemble's arrays; nothing is copied."""
    runs, rest = divmod(ensemble.r_count, groups)
    if rest:
        raise DimensionMismatchError(
            f"{ensemble.r_count} runs do not split into {groups} equal groups"
        )
    parts = []
    for g in range(groups):
        lanes = slice(g * runs, (g + 1) * runs)
        parts.append(TrajectoryEnsemble(
            states=ensemble.states[lanes], actions=ensemble.actions[lanes],
            rewards=ensemble.rewards[lanes], run_ids=np.arange(runs),
            seeds=ensemble.seeds[lanes],
        ))
    return tuple(parts)


# ---------------------------------------------------------------------------
# Linear closed-loop surrogate
# ---------------------------------------------------------------------------


def norm_penalty_reward(x_next: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Surrogate reward -|x| - 0.1|u| along the last axis; Lipschitz constant 1."""
    return -_norms(x_next) - 0.1 * _norms(u)


@dataclass(frozen=True)
class LinearSurrogateConfig:
    """Closed loop x' = A x + eta + w with deterministic policy u = F x.

    eta is i.i.d. Gaussian per component with noise_std (zero disables the
    draw entirely, keeping runs bit-deterministic).  The per-step reward is
    norm_penalty_reward(x_{k+1}, u_k), whose Lipschitz constant is
    reward_lipschitz.
    """

    A: np.ndarray
    F: np.ndarray
    x0_mean: np.ndarray
    noise_std: float = 0.0
    reward_lipschitz: float = 1.0

    def __post_init__(self):
        a = np.array(self.A, dtype=float)
        f = np.array(self.F, dtype=float)
        x0 = np.array(self.x0_mean, dtype=float).reshape(-1)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"A must be square, got shape {a.shape}")
        if f.ndim != 2 or f.shape[1] != a.shape[0]:
            raise DimensionMismatchError(
                f"F must be m x n with n={a.shape[0]}, got shape {f.shape}"
            )
        if x0.shape[0] != a.shape[0]:
            raise DimensionMismatchError(
                f"x0_mean has dimension {x0.shape[0]}, expected {a.shape[0]}"
            )
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(f)) and np.all(np.isfinite(x0))):
            raise DataError("non-finite entry in surrogate configuration")
        for name in ("noise_std", "reward_lipschitz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ParameterError(f"{name} must be finite and non-negative, got {value}")
        for name, arr in (("A", a), ("F", f), ("x0_mean", x0)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.F.shape[0]


def _check_disturbance(disturbance, horizon: int, dim: int) -> np.ndarray | None:
    if disturbance is None:
        return None
    w = np.asarray(disturbance, dtype=float)
    if w.shape != (horizon, dim):
        raise DimensionMismatchError(
            f"disturbance has shape {w.shape}, expected ({horizon}, {dim})"
        )
    if not np.all(np.isfinite(w)):
        raise DataError("non-finite entry in disturbance")
    return w


def check_rollout_size(groups: int, runs: int, horizon: int, n: int) -> None:
    """Refuse a rollout whose (groups*runs, horizon+1, n) state buffer holds
    more than _MAX_STATE_VALUES values."""
    values = groups * runs * (horizon + 1) * n
    if values > _MAX_STATE_VALUES:
        raise ParameterError(
            f"sim.runs = {runs} and sim.horizon = {horizon} plan a "
            f"({groups * runs}, {horizon + 1}, {n}) state buffer of {values} values, "
            f"above the cap of {_MAX_STATE_VALUES}"
        )


def _disturbance_groups(disturbance, runs: int, horizon: int, dim: int) -> tuple[list, int]:
    """(lanes, w) for each disturbed group of a call, and the group count G.

    A tuple gives one group per entry, anything else the single group
    `disturbance`; group g holds lanes g*runs .. (g+1)*runs - 1."""
    entries = disturbance if isinstance(disturbance, tuple) else (disturbance,)
    if not entries:
        raise ParameterError("a disturbance tuple needs at least one group")
    disturbed = []
    for g, entry in enumerate(entries):
        w = _check_disturbance(entry, horizon, dim)
        if w is not None:
            disturbed.append((slice(g * runs, (g + 1) * runs), w))
    return disturbed, len(entries)


def linear_ensemble(
    config: LinearSurrogateConfig,
    horizon: int,
    runs: int,
    master_seed: int,
    disturbance: np.ndarray | tuple | None = None,
) -> TrajectoryEnsemble:
    """Independent runs with per-run seed master_seed + run index, stepped
    together; deterministic when noise_std is zero and no disturbance is given.

    A lane draws its process noise as one stream of normal(0, noise_std)
    values in step order, _NOISE_CHUNK steps at a time.  The same disturbance
    sequence is shared by every run, matching the premise that the domain
    change itself is common across realizations.

    A tuple of G disturbances (each None or a (horizon, n) array) rolls out G
    groups of runs lanes that share each seed's noise; the ensemble holds
    the G*runs runs group by group (see split_groups).
    """
    if runs < 1:
        raise ParameterError("runs must be at least 1")
    if horizon < 1:
        raise ParameterError("horizon must be at least 1")
    n = config.n
    disturbed, groups = _disturbance_groups(disturbance, runs, horizon, n)
    check_rollout_size(groups, runs, horizon, n)
    rngs = [np.random.default_rng(master_seed + r) for r in range(runs)]
    states = np.empty((groups * runs, horizon + 1, n))
    actions = np.empty((groups * runs, horizon, config.m))
    states[:, 0] = config.x0_mean
    for start in range(0, horizon, _NOISE_CHUNK):
        stop = min(start + _NOISE_CHUNK, horizon)
        if config.noise_std > 0.0:
            draws = [rng.normal(0.0, config.noise_std, size=(stop - start, n)) for rng in rngs]
            noise = np.stack(draws * groups, axis=1)
        for k in range(start, stop):
            x = states[:, k, :, None]
            actions[:, k] = (config.F @ x)[..., 0]
            x_next = (config.A @ x)[..., 0]
            if config.noise_std > 0.0:
                x_next = x_next + noise[k - start]
            for group, w in disturbed:
                x_next[group] += w[k]
            states[:, k + 1] = x_next
    rewards = norm_penalty_reward(states[:, 1:], actions)
    return _ensemble(states, actions, rewards, master_seed, runs)


# ---------------------------------------------------------------------------
# UAV coverage environment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UavEnvConfig:
    """Physical and reward parameters of the UAV coverage environment.

    Defaults are the baseline simulation values: 100x100 m area, 20 ground
    users, 30 m altitude, 0.1 s steps, 30 m/s UAV speed cap, 50 m coverage
    radius, 3 m/s mean user speed, 400 MHz bandwidth, 0.2512 W transmit
    power, 30 GHz carrier, -85 dBm noise power, 150 Mb/s rate floor.
    """

    area_x: float = 100.0
    area_y: float = 100.0
    gu_count: int = 20
    altitude: float = 30.0
    step_seconds: float = 0.1
    uav_max_speed: float = 30.0
    coverage_radius: float = 50.0
    gu_mean_speed: float = 3.0
    gu_speed_std: float = 0.65
    gu_keep_direction: float = 0.65   # probability of keeping the heading
    gu_speed_memory: float = 0.65     # weight of the previous speed
    gu_turn_bias: float = 0.0         # radians added when the heading is kept
    bandwidth_hz: float = 400e6
    power_watt: float = 0.2512
    frequency_hz: float = 30e9
    noise_watt: float = 10.0 ** (-11.5)   # -85 dBm
    min_rate: float = 150e6
    absorption: float = 0.0           # molecular absorption, 1/m
    gain_uav: float = 1.0
    gain_gu: float = 1.0
    coverage_weight: float = 0.5      # balance between served count and fairness
    speed_penalty: float = -1.0       # added once per step with a speed violation
    fairness_mode: str = "as_written"

    def __post_init__(self):
        # Every number must be finite: an infinite altitude, say, passes the
        # sign checks below and gives a run in which nobody is served.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "fairness_mode" and not math.isfinite(value):
                raise ParameterError(f"{f.name} must be finite, got {value}")
        positive = (
            "area_x", "area_y", "gu_count", "altitude", "step_seconds",
            "uav_max_speed", "coverage_radius", "gu_mean_speed",
            "bandwidth_hz", "power_watt", "frequency_hz", "noise_watt",
            "min_rate", "gain_uav", "gain_gu",
        )
        for name in positive:
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive")
        for name in ("gu_speed_std", "absorption"):
            if not getattr(self, name) >= 0:
                raise ParameterError(f"{name} must be non-negative")
        for name in ("gu_keep_direction", "gu_speed_memory", "coverage_weight"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1]")
        if self.fairness_mode not in FAIRNESS_MODES:
            raise ParameterError(
                f"fairness_mode must be one of {FAIRNESS_MODES}, got {self.fairness_mode!r}"
            )

    @property
    def state_dim(self) -> int:
        return 2 * self.gu_count + 2


def _lane_draws(rngs, gu_count: int, config: UavEnvConfig, groups: int = 1):
    """Yield, once per step, every lane's standard draws as one reused
    (G*R, 3, J) buffer: normal(J) (left zero when gu_speed_std is zero), then
    random(J) twice, drawn in that order from generator rngs[r] and copied to
    lane r of each of the G groups."""
    draws = np.zeros((groups, len(rngs), 3, gu_count))
    calls = []
    for r, rng in enumerate(rngs):
        if config.gu_speed_std > 0:
            calls.append((rng.standard_normal, draws[0, r, 0]))
        calls.append((rng.random, draws[0, r, 1:]))
    lanes = draws.reshape(-1, 3, gu_count)
    while True:
        for draw, out in calls:
            draw(out=out)
        draws[1:] = draws[0]
        yield lanes


def _step_gu_arrays(pos, speeds, headings, config: UavEnvConfig, draws):
    """Advance every ground user of every lane by one step.

    pos is (R, J, 2), speeds and headings (R, J), and draws the step's
    (R, 3, J) standard draws from _lane_draws.  Speed follows a
    mean-reverting update with Gaussian jitter, clamped at zero.  The heading
    is kept (plus the configured turn bias) with probability
    gu_keep_direction, otherwise redrawn uniformly.  The position advances
    along the heading and reflects off the area walls.

    The jitter normal(0, s) and the fresh heading uniform(0, 2 pi) are
    0 + s * z and 0 + 2 pi * u for the standard draws z and u they consume,
    so scaling the standard draws gives the same numbers.
    """
    h1 = config.gu_speed_memory
    nu = config.gu_speed_std * draws[:, 0]
    speeds = np.maximum(0.0, h1 * speeds + (1.0 - h1) * config.gu_mean_speed + nu)
    headings = np.where(
        draws[:, 1] < config.gu_keep_direction,
        headings + config.gu_turn_bias,
        2.0 * math.pi * draws[:, 2],
    )
    stride = config.step_seconds * speeds
    # Both displacements use the headings drawn above; the reflections below
    # then turn them.
    # Every operation below is on whole arrays or (R, J) views: broadcasting
    # a per-axis (2,) operand would step numpy's loops two elements at a time.
    moved = np.empty(pos.shape)
    x, y = moved[..., 0], moved[..., 1]
    np.multiply(stride, np.cos(headings), out=x)
    np.multiply(stride, np.sin(headings), out=y)
    moved += pos
    outside = moved < 0.0
    outside[..., 0] |= x > config.area_x
    outside[..., 1] |= y > config.area_y
    crossings = outside.reshape(-1).nonzero()[0]
    if crossings.size:
        turned = headings.reshape(-1)
        _fold(moved.reshape(-1, 2), turned, crossings.tolist(), config)
        headings = turned.reshape(headings.shape)
    return moved, speeds, headings % (2.0 * math.pi)


def _fold(points, headings, crossings, config: UavEnvConfig) -> None:
    """Fold, in place, the points (U, 2) that crossed a wall back into the
    area and turn their headings (U,) at every wall: first all x
    reflections, then all y ones.  crossings are flat indices into points:
    2 u + axis for point u.

    Only the few users that crossed a wall this step come here, one at a
    time as Python floats.  -c, 2 * limit - c, pi - h and -h are single IEEE
    operations, which Python floats round as numpy does.  A point listed
    twice (it crossed on both axes) is already inside the second time.
    """
    for u in crossings:
        u >>= 1
        x, y, h = points.item(u, 0), points.item(u, 1), headings.item(u)
        while x < 0.0 or x > config.area_x:
            x = -x if x < 0.0 else 2.0 * config.area_x - x
            h = math.pi - h
        while y < 0.0 or y > config.area_y:
            y = -y if y < 0.0 else 2.0 * config.area_y - y
            h = -h
        points[u, 0] = x
        points[u, 1] = y
        headings[u] = h


def _channel(d, config: UavEnvConfig):
    """path_loss without its argument checks."""
    h = (
        SPEED_OF_LIGHT
        * math.sqrt(config.gain_uav * config.gain_gu)
        / (4.0 * math.pi * config.frequency_hz * d)
    )
    # exp(-0 * d) is exactly 1, so without absorption the factor is skipped.
    if config.absorption:
        h = h * np.exp(-0.5 * config.absorption * d)
    return h


def _spectral_efficiency(h_g, config: UavEnvConfig):
    """Rate per hertz log2(1 + P |h|^2 / N0): downlink_rate at 1 Hz."""
    snr = config.power_watt * h_g * h_g / config.noise_watt
    return np.log2(1.0 + snr)


def path_loss(d: float, config: UavEnvConfig) -> float:
    """Channel coefficient at distance d: free-space propagation times
    molecular absorption exp(-absorption * d / 2)."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ParameterError("path loss is singular at zero distance")
    result = _channel(d, config)
    return float(result) if result.ndim == 0 else result


def downlink_rate(bandwidth_hz: float, h_g, config: UavEnvConfig):
    """Achievable rate bandwidth * log2(1 + P |h|^2 / N0) in bits/s."""
    if bandwidth_hz <= 0:
        raise ParameterError("bandwidth must be positive")
    result = bandwidth_hz * _spectral_efficiency(np.asarray(h_g, dtype=float), config)
    return float(result) if result.ndim == 0 else result


def _serve_mask(uav_xy: np.ndarray, gu_xy: np.ndarray, config: UavEnvConfig) -> np.ndarray:
    """Equal-split service selection: (R, J) mask from UAV positions (R, 2)
    and user positions (R, J, 2).

    Users within the coverage radius (3-d distance) split the bandwidth
    equally; users whose resulting rate misses the floor are dropped and the
    split is recomputed until every survivor meets it.  The drop passes run
    on all lanes together until no lane drops a user.
    """
    diff = gu_xy - uav_xy[:, None, :]
    d3 = np.sqrt((diff * diff).sum(axis=-1) + config.altitude**2)
    # Rate per hertz: scaling it by a share rounds as downlink_rate(share, .).
    efficiency = _spectral_efficiency(_channel(d3, config), config)
    active = d3 <= config.coverage_radius
    while True:
        share = config.bandwidth_hz / np.maximum(active.sum(axis=1), 1)
        drop = active & ~(share[:, None] * efficiency >= config.min_rate)
        if not np.count_nonzero(drop):
            return active
        active &= ~drop


def fairness_index(s, mode: str = "as_written"):
    """Evenness of the service indicators along the last axis.

    as_written uses the (sum s)^2 / (J^2 sum s^2) form; standard uses the
    conventional J denominator so that full service scores 1.  Both return 0
    when nobody is served.  One indicator vector gives a float, a stack of
    them an array.
    """
    if mode not in FAIRNESS_MODES:
        raise ParameterError(f"mode must be one of {FAIRNESS_MODES}, got {mode!r}")
    s = np.asarray(s)
    j = s.shape[-1]
    if s.dtype == bool:
        # A mask is its own square; summing it as floats needs no float copy.
        total = square_sum = s.sum(axis=-1, dtype=float)
    else:
        s = s.astype(float, copy=False)
        total = s.sum(axis=-1)
        square_sum = np.sum(s * s, axis=-1)
    denom = j * j if mode == "as_written" else j
    index = np.divide(
        total * total, denom * square_sum, out=np.zeros_like(total), where=total != 0.0
    )
    return float(index) if index.ndim == 0 else index


def uav_reward(s, fairness, speed_violation, config: UavEnvConfig):
    """Weighted served fraction plus fairness, plus the signed speed penalty;
    along the last axis of s, like fairness_index."""
    a = config.coverage_weight
    reward = (
        a * np.asarray(s).sum(axis=-1, dtype=float) / config.gu_count
        + (1.0 - a) * fairness
        + config.speed_penalty * np.asarray(speed_violation, dtype=float)
    )
    return float(reward) if reward.ndim == 0 else reward


class ScriptedPolicy:
    """Deterministic waypoint policies standing in for trained agents.

    centroid_greedy heads straight for the centroid of the currently
    unserved users; lagged_centroid chases an exponentially smoothed copy of
    that centroid, which makes its closed loop noticeably more sluggish.
    Both clip the step to step_seconds * uav_max_speed, so compliant motion
    never violates the speed limit.  One policy object drives all lanes of
    an ensemble and keeps the smoothing state of each.
    """

    def __init__(self, kind: str, config: UavEnvConfig):
        if kind not in POLICY_KINDS:
            raise ParameterError(f"policy kind must be one of {POLICY_KINDS}, got {kind!r}")
        self.kind = kind
        self.config = config
        self._smoothed: np.ndarray | None = None

    def waypoint_arrays(
        self, uav_xy: np.ndarray, gu_xy: np.ndarray, served: np.ndarray
    ) -> np.ndarray:
        """Next waypoints (R, 2) from UAV positions (R, 2), user positions
        (R, J, 2) and their service mask (R, J) from _serve_mask."""
        unserved = ~served
        count = unserved.sum(axis=1)[:, None]
        # The sum runs over users in index order, as a mean over one lane's
        # unserved users does, so the centroid rounds the same way.
        total = np.where(unserved[..., None], gu_xy, 0.0).sum(axis=1)
        target = np.where(count > 0, total / np.maximum(count, 1), uav_xy)
        if self.kind == "lagged_centroid":
            if self._smoothed is None:
                self._smoothed = target.copy()
            else:
                self._smoothed = (
                    _LAG_SMOOTHING * self._smoothed + (1.0 - _LAG_SMOOTHING) * target
                )
            target = self._smoothed
        step = target - uav_xy
        dist = _norms(step)
        max_step = self.config.step_seconds * self.config.uav_max_speed
        over = dist > max_step
        step[over] *= (max_step / dist[over])[:, None]
        return uav_xy + step


def uav_ensemble(
    config: UavEnvConfig,
    policy_kind: str,
    horizon: int,
    runs: int,
    master_seed: int,
    disturbance: np.ndarray | tuple | None = None,
) -> TrajectoryEnsemble:
    """Independent episodes with per-run seed master_seed + run index,
    stepped together.

    A lane draws its start (UAV position, user positions, user headings,
    all uniform) and then, per step, the ground-user motion of
    _step_gu_arrays.  The state vector concatenates all GU planar positions
    and the UAV planar position (2*gu_count + 2 entries); the action is the
    commanded next waypoint.  A disturbance row, shared by every run, is
    added to the post-transition state and the result clamped to the
    service area; the reward sees the clamped state, including any
    disturbance-induced speed violation.

    A tuple of G disturbances (each None or a (horizon, n) array) rolls out G
    groups of runs lanes that share each seed's draws; a group's disturbance
    moves and clamps its own lanes only.  The ensemble holds the G*runs runs
    group by group (see split_groups).
    """
    if runs < 1:
        raise ParameterError("runs must be at least 1")
    if horizon < 1:
        raise ParameterError("horizon must be at least 1")
    n, j = config.state_dim, config.gu_count
    disturbed, groups = _disturbance_groups(disturbance, runs, horizon, n)
    check_rollout_size(groups, runs, horizon, n)
    lanes = groups * runs
    rngs = [np.random.default_rng(master_seed + r) for r in range(runs)]
    area = np.array([config.area_x, config.area_y])
    uav = np.empty((runs, 2))
    gu_pos = np.empty((runs, j, 2))
    gu_heading = np.empty((runs, j))
    for r, rng in enumerate(rngs):
        uav[r] = rng.uniform(size=2) * area
        gu_pos[r] = rng.uniform(size=(j, 2)) * area
        gu_heading[r] = rng.uniform(0.0, 2.0 * math.pi, size=j)
    uav, gu_pos, gu_heading = (np.concatenate([a] * groups) for a in (uav, gu_pos, gu_heading))
    gu_speed = np.full((lanes, j), config.gu_mean_speed)
    draws = _lane_draws(rngs, j, config, groups)

    policy = ScriptedPolicy(policy_kind, config)
    states = np.empty((lanes, horizon + 1, n))
    actions = np.empty((lanes, horizon, 2))
    states[:, 0, :-2] = gu_pos.reshape(lanes, -1)
    states[:, 0, -2:] = uav
    # served[:, k] is the mask after step k: it scores step k's reward, and
    # the policy sees it at step k+1.
    served = np.empty((lanes, horizon, j), dtype=bool)
    mask = _serve_mask(uav, gu_pos, config)

    for k in range(horizon):
        uav = policy.waypoint_arrays(uav, gu_pos, mask)
        actions[:, k] = uav
        gu_pos, gu_speed, gu_heading = _step_gu_arrays(
            gu_pos, gu_speed, gu_heading, config, next(draws)
        )
        row = states[:, k + 1]
        row[:, :-2] = gu_pos.reshape(lanes, -1)
        row[:, -2:] = uav
        if disturbed:
            for group, w in disturbed:
                row[group] += w[k]
                coords = row[group].reshape(runs, -1, 2)
                np.clip(coords, 0.0, area, out=coords)
            coords = row.reshape(lanes, -1, 2)
            gu_pos = coords[:, :-1].copy()
            uav = coords[:, -1].copy()
        mask = served[:, k] = _serve_mask(uav, gu_pos, config)

    # The speed constraint is a property of the commanded step, from the
    # position the craft was in; state disturbances displace the craft but
    # are not policy violations.
    max_step = config.step_seconds * config.uav_max_speed
    violation = _norms(actions - states[:, :-1, -2:]) > max_step + _SPEED_EPS
    rewards = uav_reward(
        served, fairness_index(served, config.fairness_mode), violation, config
    )
    return _ensemble(states, actions, rewards, master_seed, runs)
