"""Trajectory ensembles, ensemble-mean observables, and snapshot matrices.

Rollout data arrives as independent runs of (state, action, reward) steps.
Operator fitting downstream consumes the per-step ensemble means (the
randomness-free observables) arranged into snapshot matrices, so this module
owns the on-disk format, validation, averaging, and snapshot assembly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataError,
    DimensionMismatchError,
    EmptyInputError,
    InsufficientDataError,
    ParameterError,
    ParseError,
)

STATE_SHIFTED = "state_shifted"
STATE_ACTION = "state_action"


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Trajectory:
    """One rollout: K+1 states, K actions, K rewards, plus its RNG seed."""

    run_id: int
    states: np.ndarray   # (K+1, n)
    actions: np.ndarray  # (K, m)
    rewards: np.ndarray  # (K,)
    seed: int = -1

    def __post_init__(self):
        states = _frozen_array(self.states)
        actions = _frozen_array(self.actions)
        rewards = _frozen_array(self.rewards)
        if states.ndim != 2 or actions.ndim != 2 or rewards.ndim != 1:
            raise DimensionMismatchError(
                "states/actions must be 2-d (steps x dim) and rewards 1-d"
            )
        if len(states) != len(actions) + 1 or len(actions) != len(rewards):
            raise DimensionMismatchError(
                f"run {self.run_id}: need |states| = |actions|+1 = |rewards|+1, "
                f"got {len(states)}, {len(actions)}, {len(rewards)}"
            )
        if len(actions) < 1:
            raise InsufficientDataError(f"run {self.run_id}: empty rollout")
        for name, arr in (("states", states), ("actions", actions), ("rewards", rewards)):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"run {self.run_id}: non-finite value in {name}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "rewards", rewards)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def m(self) -> int:
        return self.actions.shape[1]

    @property
    def horizon(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """R independent runs sharing state dimension n, action dimension m, horizon K."""

    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if not trajs:
            raise EmptyInputError("ensemble needs at least one trajectory")
        first = trajs[0]
        for t in trajs[1:]:
            if (t.n, t.m, t.horizon) != (first.n, first.m, first.horizon):
                raise DimensionMismatchError(
                    f"run {t.run_id}: (n, m, K)=({t.n}, {t.m}, {t.horizon}) does not "
                    f"match run {first.run_id} ({first.n}, {first.m}, {first.horizon})"
                )
        ids = [t.run_id for t in trajs]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate run_id in ensemble")
        object.__setattr__(self, "trajectories", trajs)

    @property
    def r_count(self) -> int:
        return len(self.trajectories)

    @property
    def n(self) -> int:
        return self.trajectories[0].n

    @property
    def m(self) -> int:
        return self.trajectories[0].m

    @property
    def horizon(self) -> int:
        return self.trajectories[0].horizon

    def __iter__(self):
        return iter(self.trajectories)


@dataclass(frozen=True)
class MeanTrajectory:
    """Per-step ensemble means of states and actions."""

    mean_states: np.ndarray   # (K+1, n)
    mean_actions: np.ndarray  # (K, m)
    r_count: int

    def __post_init__(self):
        object.__setattr__(self, "mean_states", _frozen_array(self.mean_states))
        object.__setattr__(self, "mean_actions", _frozen_array(self.mean_actions))

    @property
    def n(self) -> int:
        return self.mean_states.shape[1]

    @property
    def m(self) -> int:
        return self.mean_actions.shape[1]

    @property
    def horizon(self) -> int:
        return len(self.mean_actions)


@dataclass(frozen=True)
class SnapshotPair:
    """A pair of data matrices with one column per snapshot."""

    left: np.ndarray
    right: np.ndarray
    kind: str

    def __post_init__(self):
        left = _frozen_array(self.left)
        right = _frozen_array(self.right)
        if self.kind not in (STATE_SHIFTED, STATE_ACTION):
            raise ParameterError(f"unknown snapshot kind {self.kind!r}")
        if left.ndim != 2 or right.ndim != 2:
            raise DimensionMismatchError("snapshot matrices must be 2-d")
        if left.shape[1] != right.shape[1]:
            raise DimensionMismatchError(
                f"column counts differ: {left.shape[1]} vs {right.shape[1]}"
            )
        if self.kind == STATE_SHIFTED and left.shape[0] != right.shape[0]:
            raise DimensionMismatchError(
                f"{STATE_SHIFTED} pair needs equal row counts, got "
                f"{left.shape[0]} and {right.shape[0]}"
            )
        if not (np.all(np.isfinite(left)) and np.all(np.isfinite(right))):
            raise DataError("non-finite value in snapshot matrix")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def columns(self) -> int:
        return self.left.shape[1]


def _pairwise_mean(stacked: np.ndarray) -> np.ndarray:
    # Reduce over the run axis; moving it to the contiguous last axis makes
    # numpy apply pairwise summation, bounding accumulation error for large R.
    moved = np.ascontiguousarray(np.moveaxis(stacked, 0, -1))
    return moved.mean(axis=-1)


def ensemble_mean(ensemble: TrajectoryEnsemble) -> MeanTrajectory:
    """Average states and actions elementwise across runs.

    The reduction is a deterministic pairwise sum over the run index, so the
    result does not depend on traversal order.
    """
    if ensemble.r_count < 1:
        raise EmptyInputError("cannot average an empty ensemble")
    states = np.stack([t.states for t in ensemble])
    actions = np.stack([t.actions for t in ensemble])
    return MeanTrajectory(
        mean_states=_pairwise_mean(states),
        mean_actions=_pairwise_mean(actions),
        r_count=ensemble.r_count,
    )


def mean_rewards(ensemble: TrajectoryEnsemble) -> np.ndarray:
    """Per-step ensemble mean of rewards, shape (K,)."""
    return _pairwise_mean(np.stack([t.rewards for t in ensemble]))


def build_state_snapshots(mean_traj: MeanTrajectory) -> SnapshotPair:
    """Arrange mean states as a time-shifted pair: left holds steps 0..K-1,
    right holds steps 1..K, one column per step."""
    k = mean_traj.horizon
    if k < 2:
        raise InsufficientDataError(
            f"need at least two snapshot columns, horizon is {k}"
        )
    states = mean_traj.mean_states
    return SnapshotPair(left=states[:k].T, right=states[1 : k + 1].T, kind=STATE_SHIFTED)


def build_action_pairs(mean_traj: MeanTrajectory) -> SnapshotPair:
    """Pair mean states 0..K-1 (left, n x K) with mean actions 0..K-1 (right, m x K)."""
    k = mean_traj.horizon
    if k < 1:
        raise InsufficientDataError("need at least one (state, action) column")
    return SnapshotPair(
        left=mean_traj.mean_states[:k].T,
        right=mean_traj.mean_actions.T,
        kind=STATE_ACTION,
    )


# ---------------------------------------------------------------------------
# File format
#
# UTF-8 comma-separated text, one row per (run, step):
#   run,k,x0..x{n-1},u0..u{m-1},r
# The final step of each run carries the terminal state with empty action and
# reward fields.  Optional leading comment lines "# seed <run_id> <seed>"
# record RNG provenance.  Floats are written with shortest round-trip repr.
# ---------------------------------------------------------------------------


def save_trajectories(ensemble: TrajectoryEnsemble, path) -> None:
    """Write an ensemble in the trajectory file format (round-trip exact)."""
    n, m = ensemble.n, ensemble.m
    header = (
        ["run", "k"]
        + [f"x{i}" for i in range(n)]
        + [f"u{i}" for i in range(m)]
        + ["r"]
    )
    lines = []
    for t in ensemble:
        lines.append(f"# seed {t.run_id} {t.seed}")
    lines.append(",".join(header))
    for t in ensemble:
        # tolist() yields Python floats, whose repr is the shortest round trip.
        rewards = t.rewards.tolist()
        k_max = t.horizon
        for k in range(k_max):
            fields = [str(t.run_id), str(k)]
            fields += map(repr, t.states[k].tolist())
            fields += map(repr, t.actions[k].tolist())
            fields.append(repr(rewards[k]))
            lines.append(",".join(fields))
        fields = [str(t.run_id), str(k_max)]
        fields += map(repr, t.states[k_max].tolist())
        fields += [""] * (m + 1)
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header(fields: Sequence[str], line_no: int) -> tuple[int, int]:
    if len(fields) < 4 or fields[0] != "run" or fields[1] != "k" or fields[-1] != "r":
        raise ParseError(f"line {line_no}: malformed header {fields!r}")
    xs = [f for f in fields[2:-1] if f.startswith("x")]
    us = [f for f in fields[2:-1] if f.startswith("u")]
    n, m = len(xs), len(us)
    expected = [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
    if n == 0 or m == 0 or list(fields[2:-1]) != expected:
        raise ParseError(f"line {line_no}: header columns must be x0..x{{n-1}},u0..u{{m-1}}")
    return n, m


def _parse_value(text: str, line_no: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"line {line_no}: cannot parse {col}={text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"line {line_no}: non-finite value in column {col}")
    return value


def load_trajectories(path, expected_dims: tuple[int, int] | None = None) -> TrajectoryEnsemble:
    """Load and validate a trajectory file.

    expected_dims, when given, is (n, m) and is checked against the header.
    Raises ParseError with a line number for malformed rows,
    DimensionMismatchError for shape violations and DataError for
    non-finite values.
    """
    seeds: dict[int, int] = {}
    header: tuple[int, int] | None = None
    rows: dict[int, dict[int, tuple]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 3 and parts[0] == "seed":
                    try:
                        seeds[int(parts[1])] = int(parts[2])
                    except ValueError:
                        raise ParseError(f"line {line_no}: malformed seed comment") from None
                continue
            fields = next(csv.reader([line]))
            if header is None:
                header = _parse_header(fields, line_no)
                continue
            n, m = header
            if len(fields) != 2 + n + m + 1:
                raise DimensionMismatchError(
                    f"line {line_no}: expected {2 + n + m + 1} columns, got {len(fields)}"
                )
            try:
                run = int(fields[0])
                k = int(fields[1])
            except ValueError:
                raise ParseError(f"line {line_no}: run/k must be integers") from None
            state = [_parse_value(fields[2 + i], line_no, f"x{i}") for i in range(n)]
            tail = fields[2 + n :]
            terminal = all(f == "" for f in tail)
            if terminal:
                entry = (state, None, None)
            else:
                if any(f == "" for f in tail):
                    raise ParseError(
                        f"line {line_no}: action/reward fields must be all "
                        "present or all empty"
                    )
                action = [_parse_value(tail[i], line_no, f"u{i}") for i in range(m)]
                reward = _parse_value(tail[m], line_no, "r")
                entry = (state, action, reward)
            per_run = rows.setdefault(run, {})
            if k in per_run:
                raise ParseError(f"line {line_no}: duplicate step {k} for run {run}")
            per_run[k] = entry

    if header is None:
        raise ParseError("file has no header row")
    n, m = header
    if expected_dims is not None and (n, m) != tuple(expected_dims):
        raise DimensionMismatchError(
            f"file has (n, m)=({n}, {m}), expected {tuple(expected_dims)}"
        )
    if not rows:
        raise EmptyInputError("trajectory file has no data rows")

    trajectories = []
    for run in sorted(rows):
        per_run = rows[run]
        steps = sorted(per_run)
        k_terminal = steps[-1]
        if steps != list(range(k_terminal + 1)):
            raise ParseError(f"run {run}: steps are not contiguous from 0")
        states, actions, rewards = [], [], []
        for k in steps:
            state, action, reward = per_run[k]
            states.append(state)
            if k < k_terminal:
                if action is None:
                    raise ParseError(
                        f"run {run}: step {k} is missing action/reward fields"
                    )
                actions.append(action)
                rewards.append(reward)
            elif action is not None:
                raise ParseError(
                    f"run {run}: final step {k} must have empty action/reward fields"
                )
        trajectories.append(
            Trajectory(
                run_id=run,
                states=np.array(states),
                actions=np.array(actions),
                rewards=np.array(rewards),
                seed=seeds.get(run, -1),
            )
        )
    return TrajectoryEnsemble(trajectories=tuple(trajectories))


def concat_ensembles(ensembles: Iterable[TrajectoryEnsemble]) -> TrajectoryEnsemble:
    """Concatenate ensembles, renumbering run ids to stay unique."""
    trajs = []
    next_id = 0
    for ens in ensembles:
        for t in ens:
            trajs.append(
                Trajectory(
                    run_id=next_id,
                    states=t.states,
                    actions=t.actions,
                    rewards=t.rewards,
                    seed=t.seed,
                )
            )
            next_id += 1
    if not trajs:
        raise EmptyInputError("no ensembles to concatenate")
    return TrajectoryEnsemble(trajectories=tuple(trajs))
