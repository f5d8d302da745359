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
call with that group's disturbance alone, bit for bit.  _plan is both
rollouts' one front end: it checks their arguments, reads the disturbance
into groups and seeds the generators.

The ground users never see the UAV: their motion depends on their draws and,
in a disturbed group, on the disturbance alone.  So a UAV rollout advances
the crowd first, a chunk of steps at a time: every lane's draws for the chunk
(in the per-lane, per-step order above), then the positions of all its steps
into one (chunk+1, G*R, J, 2) buffer; the closed loop of waypoint, UAV
disturbance and service mask then runs over the chunk.  Each value goes
through the same operations as in a step-by-step loop, so the bytes are the
same.

Once per chunk a UAV rollout makes every lane's draws, the users' speeds,
the crowd's buffers and the views its steps read (one zip over the chunk),
and copies the chunk's waypoints, UAV positions and service masks into the
output buffers.  Per step run the users' headings, moves, wall reflections
and disturbance, the policy's waypoint, the UAV's disturbance and the
service mask.  Those per-step expressions are chosen for few numpy calls,
each exact by construction:

- x / x is 1.0 for a finite, nonzero x, so the step scale
  max_step / max(dist, max_step) is exactly 1.0 within reach, and x * 1.0
  is x.
- x + 0.0 is x for every x but -0.0, and headings are never -0.0, so a turn
  bias of 0.0 is not added.
- A complex sum is the sums of the real and of the imaginary parts, and an
  accumulation adds in index order whatever the memory layout.  So the
  centroid sums each lane's (x, y) pairs, read as complex numbers, in one
  accumulation: the masked sum over the users in the same order, with one
  numpy inner loop per lane where a reduction over the middle axis of an
  (R, J, 2) array runs one per user.
- An IEEE sum and the correctly rounded square root are monotone.  So a user
  is covered, sqrt(d + altitude^2) <= radius for the planar squared distance
  d, exactly when d is at most the largest double that is, which
  _planar_reach finds once per radius and altitude.  No square root runs
  unless the link budget does.
- The bits of a nonnegative double, read as an unsigned integer, are ordered
  as the doubles are, and a negative double reads above them all.  So one
  integer comparison flags the coordinates below 0 or past a wall, and
  another the headings that np.remainder(h, 2 pi) would change (those below
  0 or at least 2 pi); only those are wrapped, with Python's float %, the
  same fmod-based remainder.

A linear rollout writes A x straight into the state buffer and computes the
actions u = F x of every lane and step in one product after the step loop.
numpy's matmul makes the same BLAS matrix-vector call per (lane, step), with
the same strides, as a product per step does, so the bits are the same.

The service mask skips the link budget when no lane covers more than
_sure_count users: their equal share at the spectral efficiency of the
coverage edge clears the rate floor by the relative margin _RATE_SLACK, and
every step from distance to rate is monotone in the distance.  numpy's log2
and exp are not correctly rounded, and a scalar may round a few ulps apart
from an array; the 1e-9 margin covers that many times over.

A UAV rollout keeps the service mask of every step and scores the rewards and
speed flags of all steps once, after the step loop.  The sums count 0/1
values and every other operation is elementwise, so each reward is the one a
step-by-step scoring gives.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from ._jsonio import _in_range
from .errors import DimensionMismatchError, ParameterError
from .trajectory_data import TrajectoryEnsemble, _frozen_array

SPEED_OF_LIGHT = 299_792_458.0

POLICY_KINDS = ("centroid_greedy", "lagged_centroid")
FAIRNESS_MODES = ("as_written", "standard")

# Exponential smoothing weight of the lagged policy's target.
_LAG_SMOOTHING = 0.5
# Slack on the per-step UAV displacement check, float round-off only.
_SPEED_EPS = 1e-9
# Steps of process noise the linear surrogate draws per lane at a time, and
# of ground-user motion the UAV environment advances ahead of its closed loop.
_NOISE_CHUNK = 256
# User positions (lanes x users x steps) a UAV chunk holds at most, unless
# that is under 8 steps: many lanes take fewer steps at a time, so the
# chunk's buffers stay small next to the state buffer.
_CROWD_CHUNK_VALUES = 2**12
# Relative margin by which a lane's bandwidth share at the coverage edge must
# clear the rate floor before the drop passes are skipped; see _serve_mask.
_RATE_SLACK = 1e-9
# Largest (G*R, K+1, n) state buffer a rollout plans, in values: 2**28
# float64 values are 2 GiB, before the action, reward and service-mask
# buffers.  A larger rollout is refused before any generator or array exists.
_MAX_STATE_VALUES = 2**28


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, rounded as np.linalg.norm."""
    return np.sqrt(np.vecdot(v, v))


def _ensemble(states, actions, rewards, base_seed: int, runs: int) -> TrajectoryEnsemble:
    """Ensemble from lane-major (G*R, K+1, n), (G*R, K, m) and (G*R, K)
    arrays of G groups of R lanes; lane l used seed base_seed + l % R.  The
    arrays and the buffers they view are frozen and handed over, not
    copied."""
    for array in (states, actions, rewards):
        if array.base is not None:
            array.base.setflags(write=False)
        array.setflags(write=False)
    lanes = np.arange(len(states))
    return TrajectoryEnsemble(
        states=states, actions=actions, rewards=rewards, run_ids=lanes,
        seeds=base_seed + lanes % runs,
    )


def split_groups(ensemble: TrajectoryEnsemble, groups: int) -> tuple[TrajectoryEnsemble, ...]:
    """The per-group ensembles of a rollout of `groups` disturbance groups,
    each equal to the rollout of that group's disturbance alone.  They are
    read-only views of the ensemble's arrays; nothing is copied."""
    _in_range(groups, "groups", "count")
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


# The Lipschitz constant of norm_penalty_reward in (x, u), as verify uses it.
NORM_PENALTY_LIPSCHITZ = 1.0


@dataclass(frozen=True, eq=False)
class LinearSurrogateConfig:
    """Closed loop x' = A x + eta + w with deterministic policy u = F x.

    eta is i.i.d. Gaussian per component with noise_std (zero disables the
    draw entirely, keeping runs bit-deterministic).  The per-step reward is
    norm_penalty_reward(x_{k+1}, u_k), whose Lipschitz constant is
    NORM_PENALTY_LIPSCHITZ.
    """

    A: np.ndarray
    F: np.ndarray
    x0_mean: np.ndarray
    noise_std: float = 0.0

    def __post_init__(self):
        a = _frozen_array(self.A, "A")
        f = _frozen_array(self.F, "F")
        x0 = _frozen_array(self.x0_mean, "x0_mean").ravel()
        x0.setflags(write=False)  # a copy when the flattening made one
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"A must be square, got shape {a.shape}")
        if f.ndim != 2 or f.shape[1] != a.shape[0]:
            raise DimensionMismatchError(
                f"F must be m x n with n={a.shape[0]}, got shape {f.shape}"
            )
        for name, arr in (("A", a), ("F", f)):
            if not arr.size:
                raise DimensionMismatchError(f"{name} is empty, got shape {arr.shape}")
        if x0.shape[0] != a.shape[0]:
            raise DimensionMismatchError(
                f"x0_mean has dimension {x0.shape[0]}, expected {a.shape[0]}"
            )
        _in_range(self.noise_std, "noise_std", "level")
        for name, arr in (("A", a), ("F", f), ("x0_mean", x0)):
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.F.shape[0]

    @property
    def reward_lipschitz(self) -> float:
        """The reward's Lipschitz constant in (x, u), the L verify uses."""
        return NORM_PENALTY_LIPSCHITZ


def check_rollout_size(groups: int, runs: int, horizon: int, n: int, grid_values: int = 0,
                       prefix: str = "") -> None:
    """Refuse a rollout whose (groups*runs, horizon+1, n) state buffer holds
    more than _MAX_STATE_VALUES values, or whose working set that grows with
    the horizon alone (grid_values, verify's disturbance spectrum) does.  The
    message names runs and horizon after ``prefix``: the arguments of a
    rollout, or with "sim." the config keys."""
    values = groups * runs * (horizon + 1) * n
    if values > _MAX_STATE_VALUES:
        raise ParameterError(
            f"{prefix}runs = {runs} and {prefix}horizon = {horizon} plan a "
            f"({groups * runs}, {horizon + 1}, {n}) state buffer of {values} values, "
            f"above the cap of {_MAX_STATE_VALUES}"
        )
    if grid_values > _MAX_STATE_VALUES:
        raise ParameterError(
            f"{prefix}horizon = {horizon} plans a disturbance spectral grid of {grid_values} "
            f"values, above the cap of {_MAX_STATE_VALUES}"
        )


def _plan(disturbance, horizon: int, runs: int, master_seed: int,
          n: int) -> tuple[list, int, list]:
    """Check a rollout's arguments and lay out its lanes: the (lanes, w) of
    each group with a disturbance, the group count G, and the generator
    default_rng(master_seed + r) of each run r.

    A tuple gives one group per entry g, None or a (horizon, n) array named
    `disturbance[g]`, anything else the single group `disturbance`; group g
    holds lanes g*runs .. (g+1)*runs - 1.  The last run's seed must fit the
    int64 seeds an ensemble records, as the master seed must; it is summed as
    Python ints, which a numpy integer would wrap.  Every check runs before
    any generator or buffer exists."""
    _in_range(runs, "runs", "count")
    _in_range(horizon, "horizon", "count")
    _in_range(master_seed, "master_seed", "seed")
    _in_range(int(master_seed) + int(runs) - 1, "master_seed + runs - 1", "seed")
    entries = disturbance if isinstance(disturbance, tuple) else (disturbance,)
    if not entries:
        raise ParameterError("a disturbance tuple needs at least one group")
    disturbed = []
    for g, entry in enumerate(entries):
        if entry is not None:
            name = f"disturbance[{g}]" if isinstance(disturbance, tuple) else "disturbance"
            w = _frozen_array(entry, name)
            if w.shape != (horizon, n):
                raise DimensionMismatchError(
                    f"{name} has shape {w.shape}, expected ({horizon}, {n})")
            disturbed.append((slice(g * runs, (g + 1) * runs), w))
    check_rollout_size(len(entries), runs, horizon, n)
    return disturbed, len(entries), [np.random.default_rng(master_seed + r) for r in range(runs)]


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

    A tuple of disturbances rolls out one group of runs lanes per entry (see
    _plan), which share each seed's noise; the ensemble holds them group by
    group (see split_groups).
    """
    n = config.n
    disturbed, groups, rngs = _plan(disturbance, horizon, runs, master_seed, n)
    # Step-major, so that each step's product and adds run on one contiguous
    # (G*R, n) block; the ensemble holds lane-major views of the buffers.
    steps = np.empty((horizon + 1, groups * runs, n))
    actions = np.empty((horizon, groups * runs, config.m))
    steps[0] = config.x0_mean
    # One chunk of every lane's draws, reused chunk after chunk and added to
    # the G groups' lanes alike.
    noise = np.empty((min(_NOISE_CHUNK, horizon), runs, n)) if config.noise_std > 0.0 else None
    for start in range(0, horizon, _NOISE_CHUNK):
        stop = min(start + _NOISE_CHUNK, horizon)
        if noise is not None:
            for r, rng in enumerate(rngs):
                noise[: stop - start, r] = rng.normal(0.0, config.noise_std,
                                                      size=(stop - start, n))
        for k in range(start, stop):
            x_next = steps[k + 1]
            np.matmul(config.A, steps[k, :, :, None], out=x_next[..., None])
            if noise is not None:
                lanes = x_next.reshape(groups, runs, n)  # splitting an axis is a view
                lanes += noise[k - start]
            for group, w in disturbed:
                x_next[group] += w[k]
    # u_k = F x_k for every step and lane at once: numpy's matmul makes the
    # same BLAS matrix-vector call per (step, lane), each on one contiguous
    # state, as a product per step would.
    np.matmul(config.F, steps[:-1, :, :, None], out=actions[..., None])
    rewards = norm_penalty_reward(steps[1:], actions)
    return _ensemble(steps.swapaxes(0, 1), actions.swapaxes(0, 1), rewards.T, master_seed, runs)


# ---------------------------------------------------------------------------
# UAV coverage environment
# ---------------------------------------------------------------------------


# The range kind of each numeric UavEnvConfig field, which its constructor
# checks and the CLI's env.* keys are read by.  Every kind is finite: an
# infinite altitude, say, would give a run in which nobody is served.
_UAV_KINDS = {
    **dict.fromkeys(("area_x", "area_y", "altitude", "step_seconds", "uav_max_speed",
                     "coverage_radius", "gu_mean_speed", "bandwidth_hz", "power_watt",
                     "frequency_hz", "noise_watt", "min_rate", "gain_uav", "gain_gu"), "positive"),
    "gu_count": "count",
    **dict.fromkeys(("gu_speed_std", "absorption"), "level"),
    **dict.fromkeys(("gu_keep_direction", "gu_speed_memory", "coverage_weight"), "fraction"),
    **dict.fromkeys(("gu_turn_bias", "speed_penalty"), "finite"),
}


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
        for name, kind in _UAV_KINDS.items():
            _in_range(getattr(self, name), name, kind)
        if self.fairness_mode not in FAIRNESS_MODES:
            raise ParameterError(
                f"fairness_mode must be one of {FAIRNESS_MODES}, got {self.fairness_mode!r}"
            )

    @property
    def n(self) -> int:
        return 2 * self.gu_count + 2

    @property
    def m(self) -> int:
        return 2

    @property
    def reward_lipschitz(self) -> float:
        """The reward's Lipschitz constant in (x, u), the L verify uses: +inf.
        The reward counts served users, and a user's service switches on or
        off as the UAV or the user crosses the coverage radius or the rate
        floor, so the reward jumps and no finite constant holds."""
        return math.inf


def _lane_draws(rngs, chunk: int, gu_count: int, config: UavEnvConfig):
    """A function that draws the next `steps` <= chunk steps of every lane
    into one reused (chunk, R, 3, J) buffer and returns its first `steps`
    entries.  Lane r draws per step normal(J) (left zero when gu_speed_std
    is zero), then random(J) twice, in that order from generator rngs[r]."""
    draws = np.zeros((chunk, len(rngs), 3, gu_count))
    calls = []
    for step in draws:
        for rng, lane in zip(rngs, step):
            if config.gu_speed_std > 0:
                calls.append((rng.standard_normal, lane[0]))
            calls.append((rng.random, lane[1:]))
    per_step = len(calls) // chunk

    def draw(steps: int) -> np.ndarray:
        for fill, out in calls[:steps * per_step]:
            fill(out=out)
        return draws[:steps]

    return draw


def _step_gu_arrays(crowd, speeds, headings, config: UavEnvConfig, draws, disturbed=()) -> None:
    """Advance every ground user of every lane over C steps, in place.

    crowd is a (C+1, G*R, J, 2) buffer: entry 0 holds the positions the
    steps start from and entry k+1 receives those after step k.  speeds
    (R, J), which the G groups share, and headings (G*R, J) are updated in
    place; draws are the C steps' (C, R, 3, J) standard draws from
    _lane_draws.  disturbed lists (lanes, w) with w a group's (C, J, 2) user
    rows of the disturbance, added to its lanes' positions after each step
    and clamped to the area.

    Speed follows a mean-reverting update with Gaussian jitter, clamped at
    zero; it does not depend on position, so all C speeds come first.  The
    heading is kept (plus the configured turn bias) with probability
    gu_keep_direction, otherwise redrawn uniformly.  The position advances
    along the heading and reflects off the area walls.

    The jitter normal(0, s) and the fresh heading uniform(0, 2 pi) are
    0 + s * z and 0 + 2 pi * u for the standard draws z and u they consume,
    so scaling the standard draws gives the same numbers.  The clamp is
    np.maximum(0.0, x) then np.minimum, which is np.clip down to the sign of
    zero: both map -0.0 to +0.0.
    """
    steps, runs = draws.shape[:2]
    j = headings.shape[1]
    h1 = config.gu_speed_memory
    nu = config.gu_speed_std * draws[:, :, 0]
    redraw = draws[:, :, 1] >= config.gu_keep_direction
    fresh = 2.0 * math.pi * draws[:, :, 2]
    stride = np.empty((steps, runs, j))
    speed = speeds
    for row, jitter in zip(stride, nu):
        np.multiply(h1, speed, out=row)
        row += (1.0 - h1) * config.gu_mean_speed
        row += jitter
        np.maximum(0.0, row, out=row)
        speed = row
    speeds[...] = speed
    stride *= config.step_seconds

    # Every operation below is on whole arrays or (R, J) views, and the
    # walls and disturbance rows are repeated to the shape they meet:
    # broadcasting a per-axis (2,) operand would step numpy's loops two
    # elements at a time, and a (J, 2) one once per lane.  The buffers and
    # views are made once for the C steps; the step loop takes its views
    # from one zip.
    turns = headings.reshape(-1, runs, j)
    flat_turns = turns.reshape(-1)
    grouped = crowd.reshape(steps + 1, *turns.shape, 2)
    upper = np.empty(grouped.shape[1:])
    upper[...] = (config.area_x, config.area_y)
    # For x >= +0.0 the bits of a double, read as an unsigned integer, grow
    # with x, and a negative double reads above every positive one.  So one
    # comparison with the walls' bits flags every coordinate below 0 or past
    # its wall.  It would also flag -0.0, which _fold leaves as it is.
    upper_bits = upper.view(np.uint64)
    cosines, sines = np.empty(turns.shape), np.empty(turns.shape)
    moves = np.empty(grouped.shape[1:])
    moves_x, moves_y = moves[..., 0], moves[..., 1]
    outside = np.empty(grouped.shape[1:], dtype=bool)
    flags = outside.reshape(-1)
    # Headings are never -0.0 (draws and the wrap below give +0.0), so adding
    # a turn bias of 0.0 leaves them as they are and is skipped.
    bias = config.gu_turn_bias
    # np.remainder(h, 2 pi) is h itself, bit for bit, for +0.0 <= h < 2 pi:
    # fmod is exact there.  Those are the headings whose bits read below the
    # bits of 2 pi (a negative double, -0.0 too, reads above), so only the
    # others are wrapped, one at a time with Python's float %, which is the
    # same fmod-based remainder as numpy's.
    two_pi = 2.0 * math.pi
    turn_bits, two_pi_bits = turns.view(np.uint64), np.float64(two_pi).view(np.uint64)
    wrap = np.empty(turns.shape, dtype=bool)
    wraps = wrap.reshape(-1)
    # Each disturbed group's positions after every step, its rows of the
    # disturbance repeated over its R lanes, and the walls of R lanes.
    blocks = [(crowd[1:, group], np.repeat(w[:, None], runs, axis=1)) for group, w in disturbed]
    group_walls = upper[0]
    for k, (redrawn, fresh_k, length, start, moved, moved_bits) in enumerate(zip(
            redraw, fresh, stride, grouped, grouped[1:], grouped[1:].view(np.uint64))):
        if bias:
            turns += bias
        # The drawn headings replace the kept ones in place.  Both
        # displacements use them; the reflections below then turn them.
        np.copyto(turns, fresh_k, where=redrawn)
        np.cos(turns, out=cosines)
        np.sin(turns, out=sines)
        np.multiply(length, cosines, out=moves_x)
        np.multiply(length, sines, out=moves_y)
        np.add(moves, start, out=moved)
        np.greater(moved_bits, upper_bits, out=outside)
        crossings = flags.nonzero()[0]
        if crossings.size:
            _fold(moved.reshape(-1, 2), flat_turns, crossings.tolist(), config)
        np.greater_equal(turn_bits, two_pi_bits, out=wrap)
        for u in wraps.nonzero()[0].tolist():
            flat_turns[u] = flat_turns.item(u) % two_pi
        for block, w in blocks:
            block = block[k]
            block += w[k]
            np.maximum(0.0, block, out=block)
            np.minimum(block, group_walls, out=block)


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
    """Channel coefficient at distance d > 0: free-space propagation times
    molecular absorption exp(-absorption * d / 2)."""
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
    """Rate per hertz log2(1 + P |h|^2 / N0) of channel h_g; a bandwidth B
    times it is the achievable rate in bits/s."""
    snr = config.power_watt * h_g * h_g / config.noise_watt
    return np.log2(1.0 + snr)


def _serve_mask(uav_xy: np.ndarray, gu_xy: np.ndarray, config: UavEnvConfig,
                sure: int) -> np.ndarray:
    """Equal-split service selection: (R, J) mask from UAV positions (R, 2)
    and user positions (R, J, 2); sure is _sure_count(config).

    Users within the coverage radius (3-d distance) split the bandwidth
    equally; users whose resulting rate misses the floor are dropped and the
    split is recomputed until every survivor meets it.  The drop passes run
    on all lanes together until no lane drops a user.  They are skipped,
    and so is the link budget, when no lane covers more than `sure` users:
    none of them can then miss the floor.
    """
    # dx^2 + dy^2, the planar squared distance, from one (R, J, 2) difference.
    squares = gu_xy - uav_xy[:, None]
    squares *= squares
    planar = squares[..., 0] + squares[..., 1]
    active = planar <= _planar_reach(config.coverage_radius, config.altitude)
    if config.gu_count <= sure or np.maximum.reduce(np.add.reduce(active, 1)) <= sure:
        return active
    planar += config.altitude**2
    d3 = np.sqrt(planar, out=planar)
    # Rate per hertz, scaled below by each lane's bandwidth share.
    efficiency = _spectral_efficiency(_channel(d3, config), config)
    while True:
        share = config.bandwidth_hz / np.maximum(active.sum(axis=1), 1)
        drop = active & ~(share[:, None] * efficiency >= config.min_rate)
        if not np.count_nonzero(drop):
            return active
        active &= ~drop


@functools.lru_cache(maxsize=64)
def _planar_reach(radius: float, altitude: float) -> float:
    """The largest double d with sqrt(d + altitude**2) <= radius, each
    operation rounded as numpy rounds the 3-d distance (an IEEE sum, a
    correctly rounded root, the operands as float64); -1.0 when not even
    d = 0 qualifies.

    Rounded addition and the rounded square root are both monotone, so the
    planar squared distances d >= 0 whose 3-d distance is within the radius
    are exactly those up to this one: comparing d with it decides coverage
    as the square root of d + altitude**2 compared with the radius does,
    with no square root.  The bits of nonnegative doubles, read as integers,
    are ordered as the doubles are, so it is found by bisection over them.
    """
    radius, altitude_sq = float(radius), float(altitude**2)

    def covered(bits: int) -> bool:
        d = struct.unpack("<d", struct.pack("<q", bits))[0]
        return math.sqrt(d + altitude_sq) <= radius

    low, high = 0, 0x7FF0000000000000  # the bits of +0.0 and of +inf
    if not covered(low):
        return -1.0
    while high - low > 1:
        middle = (low + high) // 2
        if covered(middle):
            low = middle
        else:
            high = middle
    return struct.unpack("<d", struct.pack("<q", low))[0]


def _sure_count(config: UavEnvConfig) -> int:
    """The most covered users a lane can hold with each of them sure to
    clear the rate floor: their equal share at the spectral efficiency of
    the coverage edge clears it by the _RATE_SLACK margin.

    Each step from distance to rate (square root, channel, log2, the share's
    product) is monotone in the distance, so no covered user's efficiency is
    below the edge one, up to the few ulps by which numpy's log2 and exp,
    which are not correctly rounded, may differ between a scalar and an
    array.  The margin is far above that.
    """
    edge = float(_spectral_efficiency(_channel(config.coverage_radius, config), config))
    floor = config.min_rate * (1.0 + _RATE_SLACK)
    # In Python floats a huge bandwidth makes the quotient +inf, not a warning.
    quotient = config.bandwidth_hz * edge / floor
    count = config.gu_count if quotient >= config.gu_count else math.floor(quotient)
    while count and config.bandwidth_hz / count * edge < floor:
        count -= 1
    return count


def _rewards(served: np.ndarray, violation: np.ndarray, config: UavEnvConfig) -> np.ndarray:
    """Rewards of a stack of service masks (..., J) and their speed flags
    (...,): the weighted served fraction plus fairness, plus the signed speed
    penalty.

    Fairness is (sum s)^2 / (J^2 sum s^2) as_written; standard uses the
    conventional J denominator so that full service scores 1.  Both are 0
    when nobody is served.  A mask is its own square, so one float sum of it
    is both sums.
    """
    count = served.sum(axis=-1, dtype=float)
    j = config.gu_count
    denom = j * j if config.fairness_mode == "as_written" else j
    fairness = np.divide(
        count * count, denom * count, out=np.zeros_like(count), where=count != 0.0
    )
    a = config.coverage_weight
    return a * count / j + (1.0 - a) * fairness + config.speed_penalty * violation


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
        count = served.shape[1] - np.add.reduce(served, 1, keepdims=True)
        # The sum runs over users in index order, as a mean over one lane's
        # unserved users does, so the centroid rounds the same way; a served
        # user adds 0.0.  It accumulates each (x, y) pair as one complex
        # number: see the module docstring.
        points = np.ascontiguousarray(gu_xy, dtype=float).view(np.complex128)
        running = np.add.accumulate(np.where(served[..., None], 0j, points), axis=1)
        total = running[:, -1].view(np.float64)
        target = np.divide(total, count, out=uav_xy.copy(), where=count > 0)
        if self.kind == "lagged_centroid":
            if self._smoothed is None:
                self._smoothed = target
            else:
                self._smoothed *= _LAG_SMOOTHING
                target *= 1.0 - _LAG_SMOOTHING
                self._smoothed += target
            target = self._smoothed
        step = target - uav_xy
        dist = _norms(step)
        max_step = self.config.step_seconds * self.config.uav_max_speed
        # A lane within reach keeps its step: max_step / max_step is exactly
        # 1.0 for a finite, nonzero max_step, and times 1.0 is exact.
        np.maximum(dist, max_step, out=dist)
        np.divide(max_step, dist, out=dist)
        step *= dist[:, None]
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

    A tuple of disturbances rolls out one group of runs lanes per entry (see
    _plan), which share each seed's draws; a group's disturbance moves and
    clamps its own lanes only.  The ensemble holds them group by group (see
    split_groups).
    """
    n, j = config.n, config.gu_count
    disturbed, groups, rngs = _plan(disturbance, horizon, runs, master_seed, n)
    lanes = groups * runs
    chunk = min(_NOISE_CHUNK, horizon, max(8, _CROWD_CHUNK_VALUES // (lanes * j)))
    area = np.array([config.area_x, config.area_y])
    uav = np.empty((runs, 2))
    gu_pos = np.empty((runs, j, 2))
    gu_heading = np.empty((runs, j))
    for r, rng in enumerate(rngs):
        uav[r] = rng.uniform(size=2) * area
        gu_pos[r] = rng.uniform(size=(j, 2)) * area
        gu_heading[r] = rng.uniform(0.0, 2.0 * math.pi, size=j)
    # crowd[0] holds the users' positions at the start of a chunk.
    crowd = np.empty((chunk + 1, lanes, j, 2))
    uav, crowd[0], heading = (np.concatenate([a] * groups) for a in (uav, gu_pos, gu_heading))
    speed = np.full((runs, j), config.gu_mean_speed)
    draw = _lane_draws(rngs, chunk, j, config)
    gu_disturbed = [(group, w[:, :-2].reshape(horizon, j, 2)) for group, w in disturbed]
    uav_disturbed = [(group, w[:, -2:]) for group, w in disturbed]

    policy = ScriptedPolicy(policy_kind, config)
    states = np.empty((lanes, horizon + 1, n))
    actions = np.empty((lanes, horizon, 2))
    states[:, 0, :-2] = crowd[0].reshape(lanes, -1)
    states[:, 0, -2:] = uav
    # served[:, k] is the mask after step k: it scores step k's reward, and
    # the policy sees it at step k+1.
    served = np.empty((lanes, horizon, j), dtype=bool)
    # Each lane's actions and masks as one row: views, as both are contiguous.
    action_rows, mask_rows = actions.reshape(lanes, -1), served.reshape(lanes, -1)
    sure = _sure_count(config)
    mask = _serve_mask(uav, crowd[0], config, sure)

    for start in range(0, horizon, chunk):
        stop = min(start + chunk, horizon)
        steps = stop - start
        if start:
            crowd[0] = crowd[chunk]
        # The users never see the UAV: their positions come first, then the
        # closed loop of the chunk reads them.
        _step_gu_arrays(crowd[:steps + 1], speed, heading, config, draw(steps),
                        [(group, w[start:stop]) for group, w in gu_disturbed])
        # Each step's waypoints, UAV positions and masks are fresh arrays,
        # copied into the outputs once per chunk: concatenated along their
        # last axis, the (R, 2) and (R, J) arrays of the chunk's steps are
        # its (R, C, 2) and (R, C, J) blocks, read lane by lane.
        waypoints, crafts, masks = [], [], []
        for k, users, next_users in zip(range(start, stop), crowd, crowd[1:]):
            uav = waypoint = policy.waypoint_arrays(uav, users, mask)
            if uav_disturbed:
                uav = waypoint.copy()
                for group, w in uav_disturbed:
                    craft = uav[group]
                    craft += w[k]
                    np.maximum(0.0, craft, out=craft)
                    np.minimum(craft, area, out=craft)
            mask = _serve_mask(uav, next_users, config, sure)
            waypoints.append(waypoint)
            crafts.append(uav)
            masks.append(mask)
        np.concatenate(waypoints, axis=1, out=action_rows[:, 2 * start:2 * stop])
        states[:, start + 1:stop + 1, -2:] = (
            np.concatenate(crafts, axis=1).reshape(lanes, steps, 2))
        np.concatenate(masks, axis=1, out=mask_rows[:, j * start:j * stop])
        states[:, start + 1:stop + 1, :-2] = (
            crowd[1:steps + 1].swapaxes(0, 1).reshape(lanes, steps, -1))

    # The speed constraint is a property of the commanded step, from the
    # position the craft was in; state disturbances displace the craft but
    # are not policy violations.
    max_step = config.step_seconds * config.uav_max_speed
    violation = _norms(actions - states[:, :-1, -2:]) > max_step + _SPEED_EPS
    rewards = _rewards(served, violation, config)
    return _ensemble(states, actions, rewards, master_seed, runs)
