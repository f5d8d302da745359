"""Trajectory ensembles and their ensemble-mean observables.

Rollout data arrives as independent runs of (state, action, reward) steps.
Operator fitting downstream consumes the per-step ensemble means (the
randomness-free observables), so this module owns the on-disk format,
validation and averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DimensionMismatchError,
    EmptyInputError,
    InsufficientDataError,
    ParseError,
)


def _read_only(arr: np.ndarray) -> bool:
    """Whether no array can write arr's memory: arr and every array it views
    are read-only, and the memory is numpy's own."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def _frozen_array(values, dtype=float) -> np.ndarray:
    """values as a read-only array: kept when it is already a read-only array
    of that dtype, copied otherwise."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and _read_only(values):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """R independent runs sharing state dimension n, action dimension m and
    horizon K, held as whole arrays: run r has K+1 states states[r], K actions
    actions[r] and K rewards rewards[r], its id run_ids[r] and its RNG seed
    seeds[r] (-1 when unknown).

    The arrays are validated once and stored read-only: an array that is
    already read-only (a view of another ensemble's runs, say) is shared,
    anything else copied.  run_ids default to 0..R-1 and seeds to -1.
    """

    states: np.ndarray   # (R, K+1, n)
    actions: np.ndarray  # (R, K, m)
    rewards: np.ndarray  # (R, K)
    run_ids: np.ndarray | None = None  # (R,)
    seeds: np.ndarray | None = None    # (R,)

    def __post_init__(self):
        states = _frozen_array(self.states)
        actions = _frozen_array(self.actions)
        rewards = _frozen_array(self.rewards)
        if states.ndim != 3 or actions.ndim != 3 or rewards.ndim != 2:
            raise DimensionMismatchError(
                "states/actions must be 3-d (runs x steps x dim) and rewards 2-d"
            )
        r_count = len(states)
        if r_count == 0:
            raise EmptyInputError("ensemble needs at least one run")
        run_ids = np.arange(r_count) if self.run_ids is None else self.run_ids
        seeds = np.full(r_count, -1) if self.seeds is None else self.seeds
        run_ids = _frozen_array(run_ids, dtype=np.int64)
        seeds = _frozen_array(seeds, dtype=np.int64)
        k = actions.shape[1]
        if (
            actions.shape[0] != r_count
            or rewards.shape != (r_count, k)
            or states.shape[1] != k + 1
            or run_ids.shape != (r_count,)
            or seeds.shape != (r_count,)
        ):
            raise DimensionMismatchError(
                f"need states (R, K+1, n), actions (R, K, m), rewards (R, K), "
                f"run_ids and seeds (R,); got {states.shape}, {actions.shape}, "
                f"{rewards.shape}, {run_ids.shape}, {seeds.shape}"
            )
        if k < 1:
            raise InsufficientDataError("empty rollouts: horizon is 0")
        for name, arr in (("states", states), ("actions", actions), ("rewards", rewards)):
            finite = np.isfinite(arr).reshape(r_count, -1).all(axis=1)
            if not finite.all():
                run = run_ids[np.argmin(finite)]
                raise DataError(f"run {run}: non-finite value in {name}")
        if len(np.unique(run_ids)) != r_count:
            raise DataError("duplicate run_id in ensemble")
        for name, arr in (("states", states), ("actions", actions), ("rewards", rewards),
                          ("run_ids", run_ids), ("seeds", seeds)):
            object.__setattr__(self, name, arr)

    @property
    def r_count(self) -> int:
        return len(self.states)

    @property
    def n(self) -> int:
        return self.states.shape[2]

    @property
    def m(self) -> int:
        return self.actions.shape[2]

    @property
    def horizon(self) -> int:
        return self.actions.shape[1]


@dataclass(frozen=True)
class MeanTrajectory:
    """Per-step ensemble means of states and actions, validated once when
    built: K+1 finite state rows and K finite action rows."""

    mean_states: np.ndarray   # (K+1, n)
    mean_actions: np.ndarray  # (K, m)
    r_count: int

    def __post_init__(self):
        states = _frozen_array(self.mean_states)
        actions = _frozen_array(self.mean_actions)
        if states.ndim != 2 or actions.ndim != 2 or len(states) != len(actions) + 1:
            raise DimensionMismatchError(
                f"need mean states (K+1, n) and mean actions (K, m), got "
                f"{states.shape} and {actions.shape}"
            )
        if not (np.isfinite(states).all() and np.isfinite(actions).all()):
            raise DataError("non-finite ensemble mean")
        object.__setattr__(self, "mean_states", states)
        object.__setattr__(self, "mean_actions", actions)

    @property
    def n(self) -> int:
        return self.mean_states.shape[1]

    @property
    def m(self) -> int:
        return self.mean_actions.shape[1]

    @property
    def horizon(self) -> int:
        return len(self.mean_actions)


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
    return MeanTrajectory(
        mean_states=_pairwise_mean(ensemble.states),
        mean_actions=_pairwise_mean(ensemble.actions),
        r_count=ensemble.r_count,
    )


def mean_rewards(ensemble: TrajectoryEnsemble) -> np.ndarray:
    """Per-step ensemble mean of rewards, shape (K,)."""
    return _pairwise_mean(ensemble.rewards)


# ---------------------------------------------------------------------------
# File format
#
# UTF-8 comma-separated text, one row per (run, step):
#   run,k,x0..x{n-1},u0..u{m-1},r
# The final step of each run carries the terminal state with empty action and
# reward fields.  Comment lines start with "#"; a comment "# seed <run_id>
# <seed>" records RNG provenance.  Floats are written with shortest
# round-trip repr.  The writer emits LF line ends, all seed comments, the
# header, then each run's rows in step order; the reader also accepts CRLF
# and CR line ends, blank and comment lines anywhere, and data rows in any
# order.  Fields are never quoted, and a double quote on a data line is an
# error.
# ---------------------------------------------------------------------------

# Data rows are converted in blocks of this many rows: one numpy conversion
# per block for the floats and one for the (run, k) integers keeps the
# per-value work in C while only one block's fields are held as Python strings.
_BLOCK_ROWS = 2048


def save_trajectories(ensemble: TrajectoryEnsemble, path) -> None:
    """Write an ensemble in the trajectory file format (round-trip exact)."""
    n, m, k_max = ensemble.n, ensemble.m, ensemble.horizon
    header = (
        ["run", "k"]
        + [f"x{i}" for i in range(n)]
        + [f"u{i}" for i in range(m)]
        + ["r"]
    )
    run_ids = ensemble.run_ids.tolist()
    terminal_tail = "," * (m + 1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f"# seed {run} {seed}\n" for run, seed in zip(run_ids, ensemble.seeds.tolist())
        )
        fh.write(",".join(header) + "\n")
        for r, run in enumerate(run_ids):
            # tolist() yields Python floats, whose repr is the shortest round trip.
            steps = np.concatenate(
                (ensemble.states[r, :k_max], ensemble.actions[r], ensemble.rewards[r, :, None]),
                axis=1,
            ).tolist()
            lines = [f"{run},{k}," + ",".join(map(repr, row)) for k, row in enumerate(steps)]
            terminal = ",".join(map(repr, ensemble.states[r, k_max].tolist()))
            lines.append(f"{run},{k_max},{terminal}{terminal_tail}\n")
            fh.write("\n".join(lines))


def _parse_header(line: str, line_no: int) -> tuple[int, int]:
    fields = line.split(",")
    if len(fields) < 4 or fields[0] != "run" or fields[1] != "k" or fields[-1] != "r":
        raise ParseError(f"line {line_no}: malformed header {fields!r}")
    xs = [f for f in fields[2:-1] if f.startswith("x")]
    us = [f for f in fields[2:-1] if f.startswith("u")]
    n, m = len(xs), len(us)
    expected = [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
    if n == 0 or m == 0 or fields[2:-1] != expected:
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


def _check_row(line: str, line_no: int, n: int, m: int) -> None:
    """Raise the first fault of one data row, checking fields left to right."""
    if '"' in line:
        raise ParseError(f"line {line_no}: quoted fields are not supported")
    fields = line.split(",")
    if len(fields) != n + m + 3:
        raise DimensionMismatchError(
            f"line {line_no}: expected {n + m + 3} columns, got {len(fields)}"
        )
    try:
        np.array(fields[:2], dtype=np.int64)
    except (ValueError, OverflowError):
        raise ParseError(f"line {line_no}: run/k must be 64-bit integers") from None
    for i in range(n):
        _parse_value(fields[2 + i], line_no, f"x{i}")
    tail = fields[2 + n :]
    if all(f == "" for f in tail):
        return
    if "" in tail:
        raise ParseError(
            f"line {line_no}: action/reward fields must be all present or all empty"
        )
    for i in range(m):
        _parse_value(tail[i], line_no, f"u{i}")
    _parse_value(tail[m], line_no, "r")


def _parse_block(lines: list, line_nos: list, n: int, m: int):
    """Convert a block of data rows to (run, k) pairs (B, 2), values
    (B, n+m+1) and a terminal-row mask (B,).  A terminal row's action and
    reward values are zero.  When the block does not convert, its rows are
    checked one by one to raise the first faulty line's error."""
    width = n + m + 3
    empty_tail = [""] * (m + 1)
    terminal_pad = ["0"] * (m + 1)
    ids, values, terminal = [], [], []
    for line in lines:
        fields = line.split(",")
        if len(fields) != width or '"' in line:
            break
        ids += fields[:2]
        if fields[-1]:
            if "" in fields:
                break
            values += fields[2:]
            terminal.append(False)
        else:
            if fields[2 + n :] != empty_tail:
                break
            values += fields[2 : 2 + n]
            values += terminal_pad
            terminal.append(True)
    else:
        try:
            ids = np.array(ids, dtype=np.int64).reshape(-1, 2)
            values = np.array(values, dtype=np.float64).reshape(-1, width - 2)
        except (ValueError, OverflowError):
            pass
        else:
            if np.isfinite(values).all():
                return ids, values, np.array(terminal), np.array(line_nos)
    for line, line_no in zip(lines, line_nos):
        _check_row(line, line_no, n, m)
    raise AssertionError("a block that failed to convert has no faulty row")


def _raise_run_fault(run_id, steps, ends) -> None:
    """Raise the error of one run's sorted rows: step contiguity first, then
    the terminal-row markers in step order, then a run without steps."""
    if not np.array_equal(steps, np.arange(len(steps))):
        raise ParseError(f"run {run_id}: steps are not contiguous from 0")
    for step, is_terminal in zip(steps[:-1].tolist(), ends[:-1].tolist()):
        if is_terminal:
            raise ParseError(f"run {run_id}: step {step} is missing action/reward fields")
    if not ends[-1]:
        raise ParseError(
            f"run {run_id}: final step {steps[-1]} must have empty action/reward fields"
        )
    raise DimensionMismatchError(f"run {run_id}: no steps before the terminal row")


def load_trajectories(path, expected_dims: tuple[int, int] | None = None) -> TrajectoryEnsemble:
    """Load and validate a trajectory file.

    expected_dims, when given, is (n, m) and is checked against the header.
    Raises ParseError with a line number for malformed rows and duplicate
    steps, and with the run for missing steps and misplaced terminal rows;
    DimensionMismatchError for shape violations and DataError for non-finite
    values.  In a file with several faults, the first malformed row in the
    file is reported before any duplicate step.
    """
    seeds: dict[int, int] = {}
    header: tuple[int, int] | None = None
    blocks = []
    lines, line_nos = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 3 and parts[0] == "seed":
                    try:
                        run, seed = np.array(parts[1:], dtype=np.int64).tolist()
                    except (ValueError, OverflowError):
                        raise ParseError(f"line {line_no}: malformed seed comment") from None
                    seeds[run] = seed
                continue
            if header is None:
                header = _parse_header(line, line_no)
                continue
            lines.append(line)
            line_nos.append(line_no)
            if len(lines) == _BLOCK_ROWS:
                blocks.append(_parse_block(lines, line_nos, *header))
                lines, line_nos = [], []
    if header is None:
        raise ParseError("file has no header row")
    n, m = header
    if lines:
        blocks.append(_parse_block(lines, line_nos, n, m))
    if expected_dims is not None and (n, m) != tuple(expected_dims):
        raise DimensionMismatchError(
            f"file has (n, m)=({n}, {m}), expected {tuple(expected_dims)}"
        )
    if not blocks:
        raise EmptyInputError("trajectory file has no data rows")

    ids, values, terminal, line_nos = (np.concatenate(parts) for parts in zip(*blocks))
    del blocks  # frees the per-block arrays before the sorted copy is made
    order = np.lexsort((ids[:, 1], ids[:, 0]))
    run, k, terminal, line_nos = ids[order, 0], ids[order, 1], terminal[order], line_nos[order]
    same_run = run[1:] == run[:-1]
    repeat = same_run & (k[1:] == k[:-1])
    if repeat.any():
        # The stable sort keeps file order within a (run, k) pair, so the
        # first repeat in the file is the earliest non-first row of a pair.
        i = 1 + np.flatnonzero(repeat)[np.argmin(line_nos[1:][repeat])]
        raise ParseError(f"line {line_nos[i]}: duplicate step {k[i]} for run {run[i]}")

    starts = np.flatnonzero(np.concatenate(([True], ~same_run)))
    sizes = np.diff(np.append(starts, len(run)))
    position = np.arange(len(run)) - np.repeat(starts, sizes)
    is_last = np.append(~same_run, True)
    faulty = (k != position) | (terminal != is_last) | np.repeat(sizes < 2, sizes)
    if faulty.any():
        r = np.searchsorted(starts, np.argmax(faulty), "right") - 1
        rows = slice(starts[r], starts[r] + sizes[r])
        _raise_run_fault(run[starts[r]], k[rows], terminal[rows])
    ragged = np.flatnonzero(sizes != sizes[0])
    if ragged.size:
        r = ragged[0]
        raise DimensionMismatchError(
            f"run {run[starts[r]]}: (n, m, K)=({n}, {m}, {sizes[r] - 1}) does not "
            f"match run {run[0]} ({n}, {m}, {sizes[0] - 1})"
        )

    r_count, horizon = len(starts), sizes[0] - 1
    # save_trajectories writes the rows in (run, k) order, so the sort is
    # usually the identity and the gather copy is skipped.
    if not np.array_equal(order, np.arange(len(order))):
        values = values[order]
    # Read-only, the sorted block is shared by the ensemble's arrays, not copied.
    values.setflags(write=False)
    values = values.reshape(r_count, horizon + 1, n + m + 1)
    run_ids = run[starts]
    return TrajectoryEnsemble(
        states=values[:, :, :n],
        actions=values[:, :horizon, n : n + m],
        rewards=values[:, :horizon, -1],
        run_ids=run_ids,
        seeds=[seeds.get(r, -1) for r in run_ids.tolist()],
    )
