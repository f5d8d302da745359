"""Trajectory ensembles and their ensemble-mean observables.

Rollout data arrives as independent runs of (state, action, reward) steps.
Operator fitting downstream consumes the per-step ensemble means (the
randomness-free observables), so this module owns the on-disk format,
validation and averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._floattext import _BLOCK_CELLS, read_rows, write_rows
from .errors import (
    DataError,
    DimensionMismatchError,
    InsufficientDataError,
    ParseError,
    decode_line,
)


def _read_only(arr: np.ndarray) -> bool:
    """Whether no array can write arr's memory: arr and every array it views
    are read-only, and the memory is numpy's own."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def _first_false(ok: np.ndarray) -> tuple[int, ...]:
    """The index of the first False entry of ok."""
    return tuple(map(int, np.unravel_index(np.argmin(ok), ok.shape)))


def _frozen_array(values, name: str, dtype=float) -> np.ndarray:
    """values as a read-only array, the one check of every array koopbound
    holds or takes in: kept when it is already a read-only array of that
    dtype, copied otherwise, so a caller's writable array is never frozen.
    Anything but numbers (bools, strings, objects), complex values for a
    real dtype, values an integer dtype cannot hold exactly, and NaN or
    infinite entries raise DataError naming the field instead of becoming a
    plausible wrong number; an array with no entries raises
    InsufficientDataError."""
    if not (isinstance(values, np.ndarray) and values.dtype == dtype and _read_only(values)):
        given = np.asarray(values)
        kind = given.dtype.kind
        if kind == "c" and not np.issubdtype(dtype, np.complexfloating):
            raise DataError(f"{name} must be real, got complex values")
        if kind not in "iufc":
            raise DataError(f"{name} must hold numbers, got {given.dtype} values")
        # numpy reads a bool in a list of numbers as 0 or 1.
        if isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(
                map(type, np.asarray(values, dtype=object).flat)):
            raise DataError(f"{name} must hold numbers, got bool values")
        if np.issubdtype(dtype, np.integer) and kind != "i":
            top = np.iinfo(dtype).max
            # An unsigned value fits up to top; a float must be whole and in
            # [-(top + 1), top + 1), which also refuses NaN and infinities.
            fits = (given <= top if kind == "u" else
                    (given >= -top - 1) & (given < top + 1.0) & (np.trunc(given) == given))
            if not fits.all():
                index = _first_false(fits)
                raise DataError(f"{name} must hold {np.dtype(dtype)} integers, got "
                                f"{given[index].item()!r} at index {index}")
        values = np.array(given, dtype=dtype)
        values.setflags(write=False)
    if not values.size:
        raise InsufficientDataError(f"{name} is empty, got shape {values.shape}")
    if not np.isfinite(values).all():
        index = _first_false(np.isfinite(values))
        raise DataError(f"{name} holds a non-finite value at index {index}")
    return values


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """R independent runs sharing state dimension n, action dimension m and
    horizon K, held as whole arrays: run r has K+1 states states[r], K actions
    actions[r] and K rewards rewards[r], its id run_ids[r] and its RNG seed
    seeds[r] (-1 when unknown).

    The arrays are validated once and stored read-only: an array that is
    already read-only (a view of another ensemble's runs, say) is shared,
    anything else copied.  run_ids default to 0..R-1 and seeds to -1.
    ``mean``, the per-step means of states, actions and rewards, is set by
    ``ensemble_mean`` on first use, never by the constructor, so the one
    mean of an ensemble always describes its runs.
    """

    states: np.ndarray   # (R, K+1, n)
    actions: np.ndarray  # (R, K, m)
    rewards: np.ndarray  # (R, K)
    run_ids: np.ndarray | None = None  # (R,)
    seeds: np.ndarray | None = None    # (R,)
    mean: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        states = _frozen_array(self.states, "states")
        actions = _frozen_array(self.actions, "actions")
        rewards = _frozen_array(self.rewards, "rewards")
        if states.ndim != 3 or actions.ndim != 3 or rewards.ndim != 2:
            raise DimensionMismatchError(
                "states/actions must be 3-d (runs x steps x dim) and rewards 2-d"
            )
        r_count = len(states)
        run_ids = np.arange(r_count) if self.run_ids is None else self.run_ids
        seeds = np.full(r_count, -1) if self.seeds is None else self.seeds
        run_ids = _frozen_array(run_ids, "run_ids", np.int64)
        seeds = _frozen_array(seeds, "seeds", np.int64)
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


# A reduction over runs copies or differences at most about this many values
# of an ensemble at a time (one run, or one step, when that is more), so its
# working memory stays small next to the ensemble's own arrays.
_BLOCK_VALUES = 1 << 16


def _pairwise_mean(stacked: np.ndarray) -> np.ndarray:
    # Reduce over the run axis; moving it to the contiguous last axis makes
    # numpy apply pairwise summation, bounding accumulation error for large R.
    # Each value's sum runs over its own contiguous row of R, so taking the
    # transposed copy a block of steps at a time gives the same bits.
    mean = np.empty(stacked.shape[1:])
    step = max(1, _BLOCK_VALUES // max(1, stacked.size // len(mean)))
    for start in range(0, len(mean), step):
        block = np.ascontiguousarray(np.moveaxis(stacked[:, start : start + step], 0, -1))
        block.mean(axis=-1, out=mean[start : start + step])
    return mean


def ensemble_mean(ensemble: TrajectoryEnsemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-step means over runs of states (K+1, n), actions (K, m) and
    rewards (K,), read-only and finite.

    The reduction is a deterministic pairwise sum over the run index, so the
    result does not depend on traversal order.  The means are computed once
    per ensemble and kept on it, so every later call returns the same arrays.
    A mean that overflows raises DataError naming it (``mean_states``, ...).
    """
    if ensemble.mean is None:
        means = []
        for name in ("states", "actions", "rewards"):
            mean = _pairwise_mean(getattr(ensemble, name))
            # Fresh and read-only, the mean is kept, not copied.
            mean.setflags(write=False)
            means.append(_frozen_array(mean, f"mean_{name}"))
        object.__setattr__(ensemble, "mean", tuple(means))  # derived from the read-only runs
    return ensemble.mean


# ---------------------------------------------------------------------------
# File format
#
# UTF-8 comma-separated text, one row per (run, step):
#   run,k,x0..x{n-1},u0..u{m-1},r
# The final step of each run carries the terminal state with empty action and
# reward fields.  Comment lines start with "#"; a comment "# seed <run_id>
# <seed>" records RNG provenance.  Floats are written as their shortest
# round-trip repr, built a block at a time by ``_floattext``.  The writer
# emits LF line ends, all seed comments, the header, then each run's rows in
# step order; the reader also accepts CRLF and CR line ends, blank and
# comment lines anywhere, and data rows in any order.  Fields are never
# quoted, and a double quote on a data line is an error.  The reader decodes
# a block of data lines at a time with ``_floattext.read_rows``: fields in
# the writer's form with exact integer arithmetic, any other through
# float() (run and k through numpy's int64 conversion), so each value is
# the one float() gives.  Each data row becomes one record of its run, k,
# line number (with the terminal flag) and values; rows out of (run, k)
# order are sorted in place by numpy.  Bytes that are not UTF-8 are a
# ParseError naming the line.
# ---------------------------------------------------------------------------

# Runs of data lines are decoded in blocks of max(1, _BLOCK_CELLS // (n + m + 3))
# lines, the writer's rule, which bounds the working memory (a few hundred
# bytes a field) whatever the file size.  The file is read in chunks of about
# _CHUNK_BYTES.
_CHUNK_BYTES = 1 << 20
# The ASCII characters str.strip() removes.  A line is looked at on its own
# when it starts with one of them, '#' or a non-ASCII byte, or comes no later
# than the header; any other line is a data line.
_WHITESPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_INSPECT = np.zeros(256, dtype=bool)
_INSPECT[list(_WHITESPACE + b"#")] = True
_INSPECT[128:] = True


def save_trajectories(ensemble: TrajectoryEnsemble, path) -> int:
    """Write an ensemble in the trajectory file format (round-trip exact).

    Returns how many values were written by ``repr`` one at a time, those
    outside the positional range 1e-4 <= |x| < 1e16 (see ``_floattext``).
    """
    n, m, k_max = ensemble.n, ensemble.m, ensemble.horizon
    header = (
        ["run", "k"]
        + [f"x{i}" for i in range(n)]
        + [f"u{i}" for i in range(m)]
        + ["r"]
    )
    seeds = "".join(f"# seed {run} {seed}\n"
                    for run, seed in zip(ensemble.run_ids.tolist(), ensemble.seeds.tolist()))
    # One run's rows: (run, k) and its cells; the terminal row's action and
    # reward cells are empty.
    ids = np.empty((k_max + 1, 2), dtype=np.int64)
    ids[:, 1] = np.arange(k_max + 1)
    cells = np.zeros((k_max + 1, n + m + 1))
    empty = np.zeros(cells.shape, dtype=bool)
    empty[k_max, n:] = True
    fallback = 0
    with open(path, "wb") as fh:
        fh.write((seeds + ",".join(header) + "\n").encode("utf-8"))
        for r, run in enumerate(ensemble.run_ids.tolist()):
            ids[:, 0] = run
            cells[:, :n] = ensemble.states[r]
            cells[:k_max, n : n + m] = ensemble.actions[r]
            cells[:k_max, -1] = ensemble.rewards[r]
            fallback += write_rows(fh, ids, cells, empty)
    return fallback


def _chunks(fh):
    """The text of the binary file fh as memoryviews, a run of whole lines at
    a time, each ending in LF: CRLF and CR line ends become LF, as text mode
    reads them."""
    rest = b""
    while chunk := fh.read(_CHUNK_BYTES):
        text = rest + chunk
        del chunk
        # A last line that may go on, or a CR that may begin a CRLF, waits
        # for the next chunk.
        end = max(text.rfind(b"\n"), text.rfind(b"\r", 0, -1)) + 1
        rest = text[end:]
        if text.find(b"\r", 0, end) < 0:
            yield memoryview(text)[:end]
        else:
            yield memoryview(text[:end].replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
    if rest:
        yield memoryview(rest.rstrip(b"\r") + b"\n")


def _blank(line: bytes) -> bool:
    """Whether str.strip() leaves nothing of the line's text."""
    if line.isascii():
        return not line.strip(_WHITESPACE)
    try:
        return not line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False


def _skip(line: bytes, line_no: int, seeds: dict) -> bool:
    """Whether the line is blank or a comment, recording the run's seed of a
    seed comment in seeds."""
    if _blank(line):
        return True
    if not line.startswith(b"#"):
        return False
    parts = decode_line(line, line_no)[1:].split()
    if len(parts) == 3 and parts[0] == "seed":
        try:
            run, seed = np.array(parts[1:], dtype=np.int64).tolist()
        except (ValueError, OverflowError):
            raise ParseError(f"line {line_no}: malformed seed comment") from None
        seeds[run] = seed
    return True


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


def _parse_block(text, lines: int, line_no: int, n: int, m: int, records, start: int) -> int:
    """Decode a block of data lines, each ending in LF, the first on line
    line_no, into the records from start on: each gets its run and k, its
    line number L as 2 L + 1 for a terminal row and 2 L for any other, and
    its n+m+1 values, a terminal row's action and reward values zero.  When
    the block does not decode, its lines are checked one by one to raise the
    first faulty line's error.  Returns the record after the block."""
    stop = start + lines
    rows = records[start:stop]
    # The (run, k) pairs are the first two int64 words of each record.
    empty = read_rows(text, rows.view(np.int64).reshape(lines, -1)[:, :2], rows["values"])
    if empty is not None:
        tail = empty[:, n:]
        if not empty[:, :n].any() and (tail == tail[:, :1]).all():
            rows["line"] = 2 * np.arange(line_no, line_no + lines) + tail[:, 0]
            return stop
    for i, line in enumerate(bytes(text).split(b"\n")[:-1]):
        _check_row(decode_line(line, line_no + i), line_no + i, n, m)
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


def load_trajectories(path) -> TrajectoryEnsemble:
    """Load and validate a trajectory file.

    Raises ParseError with a line number for malformed rows and duplicate
    steps, and with the run for missing steps and misplaced terminal rows;
    DimensionMismatchError for shape violations and DataError for non-finite
    values.  In a file with several faults, the first malformed row in the
    file is reported before any duplicate step, and of a step given twice the
    later line is named.

    Each data row is decoded into one record of its run, k, line number and
    values, and the records are sorted in place by (run, k, line) when the
    file's rows are not in that order already.  The ensemble's arrays are
    read-only views of the records' values, never copied.
    """
    seeds: dict[int, int] = {}
    header: tuple[int, int] | None = None
    rows = line_no = 0
    with open(path, "rb") as fh:
        # The records are allocated once, one for each line after the header,
        # and each block is decoded into its records.
        line_count = sum(np.count_nonzero(np.frombuffer(text, dtype=np.uint8) == 10)
                         for text in _chunks(fh))
        fh.seek(0)
        for text in _chunks(fh):
            b = np.frombuffer(text, dtype=np.uint8)
            line_ends = np.flatnonzero(b == 10)
            line_starts = np.concatenate(([0], line_ends[:-1] + 1))[: line_ends.size]
            after = 0
            while header is None and after < line_ends.size:
                number = line_no + after + 1
                line = bytes(text[line_starts[after] : line_ends[after]])
                after += 1
                if not _skip(line, number, seeds):
                    header = n, m = _parse_header(decode_line(line, number), number)
                    block = max(1, _BLOCK_CELLS // (n + m + 3))
                    capacity = line_count - number
                    records = np.empty(capacity, dtype=[
                        ("run", np.int64), ("k", np.int64), ("line", np.int64),
                        ("values", np.float64, (n + m + 1,))])
            inspect = _INSPECT[b[line_starts[after:]]]
            data = np.concatenate((np.zeros(after, dtype=bool), ~inspect))
            for i in (after + np.flatnonzero(inspect)).tolist():
                line = bytes(text[line_starts[i] : line_ends[i]])
                data[i] = not _skip(line, line_no + i + 1, seeds)
            # Each run of data lines, in blocks.
            edges = np.flatnonzero(np.diff(data, prepend=False, append=False)).tolist()
            for first, stop in zip(edges[::2], edges[1::2]):
                for i in range(first, stop, block):
                    last = min(i + block, stop)
                    rows = _parse_block(text[line_starts[i] : line_ends[last - 1] + 1],
                                        last - i, line_no + i + 1, n, m, records, rows)
            line_no += line_ends.size
    if header is None:
        raise ParseError("file has no header row")
    if not rows:
        raise InsufficientDataError("trajectory file has no data rows")

    # The records past the data stay unused (a resize fails under a tracer).
    # save_trajectories writes the rows in (run, k) order, so they are
    # usually sorted already; otherwise numpy sorts them in place, the line
    # breaking ties, so the rows of a (run, k) pair keep their file order.
    data = records[:rows]
    run, k, line = data["run"], data["k"], data["line"]
    if not ((run[1:] > run[:-1]) | (run[1:] == run[:-1]) & (k[1:] >= k[:-1])).all():
        data.sort(order=("run", "k", "line"))
    line_nos, terminal = line >> 1, (line & 1).astype(bool)
    same_run = run[1:] == run[:-1]
    repeat = same_run & (k[1:] == k[:-1])
    if repeat.any():
        # The first repeat in the file is the earliest non-first row of a pair.
        i = 1 + np.flatnonzero(repeat)[np.argmin(line_nos[1:][repeat])]
        raise ParseError(f"line {line_nos[i]}: duplicate step {k[i]} for run {run[i]}")

    starts = np.flatnonzero(np.concatenate(([True], ~same_run)))
    sizes = np.diff(np.append(starts, len(run)))
    position = np.arange(len(run)) - np.repeat(starts, sizes)
    is_last = np.append(~same_run, True)
    faulty = (k != position) | (terminal != is_last) | np.repeat(sizes < 2, sizes)
    if faulty.any():
        r = np.searchsorted(starts, np.argmax(faulty), "right") - 1
        span = slice(starts[r], starts[r] + sizes[r])
        _raise_run_fault(run[starts[r]], k[span], terminal[span])
    ragged = np.flatnonzero(sizes != sizes[0])
    if ragged.size:
        r = ragged[0]
        raise DimensionMismatchError(
            f"run {run[starts[r]]}: (n, m, K)=({n}, {m}, {sizes[r] - 1}) does not "
            f"match run {run[0]} ({n}, {m}, {sizes[0] - 1})"
        )

    r_count, horizon = len(starts), sizes[0] - 1
    # Read-only, the records are shared by the ensemble's arrays, not copied.
    records.setflags(write=False)
    values = records["values"][:rows].reshape(r_count, horizon + 1, n + m + 1)
    run_ids = run[starts]
    return TrajectoryEnsemble(
        states=values[:, :, :n],
        actions=values[:, :horizon, n : n + m],
        rewards=values[:, :horizon, -1],
        run_ids=run_ids,
        seeds=[seeds.get(r, -1) for r in run_ids.tolist()],
    )
