"""Trajectory format, validation, ensemble means, and the snapshots fitted from them."""

import contextlib
import cProfile
import csv
import decimal
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopbound import (
    DataError,
    DimensionMismatchError,
    InsufficientDataError,
    KoopboundError,
    ParseError,
    TrajectoryEnsemble,
    ensemble_mean,
    fit_koopman_model,
    load_trajectories,
    per_step_table,
    save_trajectories,
)
from koopbound import bounds, koopman_dmd, trajectory_data


def scalar_ensemble(*runs, seeds=None):
    """Ensemble of runs with n = m = 1, given their state values; actions and
    rewards are zero."""
    states = np.asarray(runs, dtype=float)[:, :, None]
    r_count, k = len(states), states.shape[1] - 1
    return TrajectoryEnsemble(states=states, actions=np.zeros((r_count, k, 1)),
                              rewards=np.zeros((r_count, k)), seeds=seeds)


class TestTrajectoryValidation:
    def test_length_relation_enforced(self):
        with pytest.raises(DimensionMismatchError):
            TrajectoryEnsemble(states=np.zeros((1, 3, 2)),
                               actions=np.zeros((1, 3, 1)), rewards=np.zeros((1, 3)))

    def test_non_finite_rejected(self):
        states = np.zeros((1, 3, 2))
        states[0, 1, 0] = np.nan
        with pytest.raises(DataError):
            TrajectoryEnsemble(states=states,
                               actions=np.zeros((1, 2, 1)), rewards=np.zeros((1, 2)))

    def test_ragged_ensemble_rejected(self, tmp_path):
        # Runs of different horizons cannot share the ensemble's arrays; a
        # file holding them is rejected.
        path = tmp_path / "ragged.csv"
        path.write_text(
            "run,k,x0,u0,r\n"
            "0,0,1.0,0.0,0.0\n"
            "0,1,2.0,0.0,0.0\n"
            "0,2,3.0,,\n"
            "1,0,1.0,0.0,0.0\n"
            "1,1,2.0,,\n"
        )
        with pytest.raises(DimensionMismatchError):
            load_trajectories(path)

    def test_rows_out_of_order_load_sorted(self, tmp_path):
        # Runs as blocks in the order 7, 3, 5, with rows reversed in two of
        # them, and runs interleaved step by step, load as the sorted file.
        header = "run,k,x0,u0,r\n"
        rows = {run: [f"{run},{k},{run + k / 8},{-k},{k * run}\n" for k in range(3)]
                for run in (3, 5, 7)}
        for run in rows:
            rows[run][-1] = rows[run][-1].rsplit(",", 2)[0] + ",,\n"
        layouts = {
            "sorted": rows[3] + rows[5] + rows[7],
            "blocks": rows[7][::-1] + rows[3] + rows[5][::-1],
            "interleaved": [rows[run][k] for k in range(3) for run in (5, 7, 3)],
        }
        loaded = {}
        for name, lines in layouts.items():
            (tmp_path / name).write_text(header + "".join(lines))
            loaded[name] = load_trajectories(tmp_path / name)
        for name in ("blocks", "interleaved"):
            for field in ("run_ids", "states", "actions", "rewards"):
                assert np.array_equal(getattr(loaded[name], field),
                                      getattr(loaded["sorted"], field)), (name, field)

    def test_duplicate_run_ids_rejected(self):
        with pytest.raises(DataError):
            TrajectoryEnsemble(states=np.zeros((2, 2, 1)), actions=np.zeros((2, 1, 1)),
                               rewards=np.zeros((2, 1)), run_ids=[0, 0])

    def test_arrays_are_read_only(self):
        ens = scalar_ensemble([1.0, 2.0])
        for arr in (ens.states, ens.actions, ens.rewards, ens.run_ids, ens.seeds):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            ens.states[0, 0, 0] = 5.0

    def test_inputs_are_copied(self):
        # Writable memory is copied, also behind a read-only view; arrays
        # that are read-only throughout, such as another ensemble's, are shared.
        states = np.zeros((2, 2, 1))
        view = states[:1]
        view.setflags(write=False)
        for given in (states[:1], view):
            ens = TrajectoryEnsemble(states=given, actions=np.zeros((1, 1, 1)),
                                     rewards=np.zeros((1, 1)))
            states[0, 0, 0] += 1.0
            assert ens.states[0, 0, 0] == states[0, 0, 0] - 1.0
        again = TrajectoryEnsemble(states=ens.states[:1], actions=ens.actions,
                                   rewards=ens.rewards)
        assert np.shares_memory(again.states, ens.states)

    def test_defaults_and_empty(self):
        ens = scalar_ensemble([1.0, 2.0], [3.0, 4.0])
        assert ens.run_ids.tolist() == [0, 1] and ens.seeds.tolist() == [-1, -1]
        assert (ens.r_count, ens.horizon, ens.n, ens.m) == (2, 1, 1, 1)
        with pytest.raises(InsufficientDataError, match="^ensemble needs at least one run$"):
            TrajectoryEnsemble(states=np.zeros((0, 2, 1)), actions=np.zeros((0, 1, 1)),
                               rewards=np.zeros((0, 1)))
        with pytest.raises(InsufficientDataError):
            scalar_ensemble([1.0])


class TestFileFormat:
    def test_round_trip_single_run(self, tmp_path):
        states = np.array([[1.0, 2.0], [0.1, -0.2], [np.pi, 1e-17]])
        actions = np.array([[0.5], [-1.5]])
        rewards = np.array([0.25, -0.75])
        ens = TrajectoryEnsemble(states=states[None], actions=actions[None],
                                 rewards=rewards[None], seeds=[7])
        path = tmp_path / "traj.csv"
        save_trajectories(ens, path)
        loaded = load_trajectories(path)
        assert loaded.r_count == 1 and loaded.horizon == 2
        assert np.array_equal(loaded.states[0], states)
        assert np.array_equal(loaded.actions[0], actions)
        assert np.array_equal(loaded.rewards[0], rewards)
        assert loaded.seeds.tolist() == [7]
        # Re-saving reproduces the file byte for byte.
        path2 = tmp_path / "traj2.csv"
        save_trajectories(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_loaded_arrays_share_one_block(self, tmp_path):
        # The ensemble keeps the loader's sorted block instead of copying its
        # states, actions and rewards out of it.
        states = np.arange(24.0).reshape(2, 4, 3)
        ens = TrajectoryEnsemble(states=states, actions=-states[:, 1:, :2],
                                 rewards=states[:, 1:, 0])
        save_trajectories(ens, tmp_path / "traj.csv")
        loaded = load_trajectories(tmp_path / "traj.csv")
        block = loaded.states.base
        assert block is not None and not block.flags.writeable
        assert loaded.actions.base is block and loaded.rewards.base is block
        for name in ("states", "actions", "rewards"):
            assert np.array_equal(getattr(loaded, name), getattr(ens, name))

    def test_writer_layout(self, tmp_path):
        ens = TrajectoryEnsemble(
            states=[[[1.0], [-0.0]], [[0.1], [1e300]]], actions=[[[0.5]], [[2.0]]],
            rewards=[[-1.0], [5e-324]], run_ids=[4, 2], seeds=[40, -1],
        )
        path = tmp_path / "traj.csv"
        save_trajectories(ens, path)
        assert path.read_bytes() == (
            b"# seed 4 40\n# seed 2 -1\nrun,k,x0,u0,r\n"
            b"4,0,1.0,0.5,-1.0\n4,1,-0.0,,\n"
            b"2,0,0.1,2.0,5e-324\n2,1,1e+300,,\n"
        )
        # The reader sorts runs by id.
        loaded = load_trajectories(path)
        assert loaded.run_ids.tolist() == [2, 4] and loaded.seeds.tolist() == [-1, 40]
        assert np.array_equal(loaded.states, ens.states[::-1])

    def test_lines_right_after_header(self, tmp_path):
        # The lines after the header in its chunk are told by first byte:
        # a seed comment, a blank and a whitespace-only line are skipped, and
        # a whitespace-led row is read as data, as in any later chunk.
        path = tmp_path / "traj.csv"
        path.write_text("# seed 1 11\nrun,k,x0,u0,r\n# seed 0 5\n\n \t\n"
                        " 0,0,1.5,0.5,-1.0\n0,1,2.0,,\n1,0,3.0,0.25,1.0\n1,1,4.0,,\n")
        loaded = load_trajectories(path)
        assert loaded.seeds.tolist() == [5, 11]
        assert loaded.states.ravel().tolist() == [1.5, 2.0, 3.0, 4.0]
        assert outcome(load_trajectories, path) == outcome(reference_load, path)
        # A line led by a non-ASCII byte is looked at on its own too: one of
        # only non-ASCII spaces is blank, and one that is not UTF-8 is an
        # error naming it.
        for space in ("\u00a0", "\u3000"):
            path.write_text(f"run,k,x0,u0,r\n0,0,1.5,0.5,-1.0\n{space}\n0,1,2.0,,\n",
                            encoding="utf-8")
            assert load_trajectories(path).states.ravel().tolist() == [1.5, 2.0]
        path.write_bytes(b"run,k,x0,u0,r\n0,0,1.5,0.5,-1.0\n\xff\n0,1,2.0,,\n")
        with pytest.raises(ParseError) as refused:
            load_trajectories(path)
        assert str(refused.value) == "line 3: not UTF-8 text at byte 1 (invalid start byte)"

    def test_loads_under_a_profiler_and_a_tracer(self, tmp_path):
        # A blank or comment line after the header leaves records past the
        # data.  Giving them back with an in-place resize raised numpy's
        # "cannot resize an array that references or is referenced" whenever
        # a profiler or tracer held one more reference to the buffer.
        path = tmp_path / "traj.csv"
        path.write_text("run,k,x0,u0,r\n# note\n0,0,1.5,0.5,-1.0\n\n0,1,2.0,,\n")
        profiled = cProfile.Profile().runcall(load_trajectories, path)

        def tracer(frame, event, arg):
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            traced = load_trajectories(path)
        finally:
            sys.settrace(previous)
        for loaded in (profiled, traced):
            assert loaded.states.ravel().tolist() == [1.5, 2.0]
            assert loaded.rewards.tolist() == [[-1.0]]
            assert trajectory_data._read_only(loaded.states)

    @pytest.mark.parametrize("size, runs", [(1, 1), (2, 1), (3, 1), (10, 5), (1000, 8)])
    def test_rows_in_any_order_load_as_sorted(self, tmp_path, size, runs):
        # A file of size rows with its rows in another order loads bit for
        # bit as the sorted file does: random permutations, one cycle
        # through every row, reversed rows, the identity and each run's
        # even steps swapped with the next.  A one-row file is refused the
        # same way in every order.
        rng = np.random.default_rng(5)
        length = size // runs
        shape = (runs, length, 2)
        states = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 16, shape)
        lines = [f"# seed {run} {run + 7}\n" for run in range(runs)] + ["run,k,x0,x1,u0,r\n"]
        rows = [f"{run},{k},{x0!r},{x1!r}," + ("," if k == length - 1 else f"{x1 / 3!r},{-x0!r}")
                + "\n" for run in range(runs) for k, (x0, x1) in enumerate(states[run].tolist())]
        sorted_path = tmp_path / "sorted.csv"
        sorted_path.write_text("".join(lines + rows))
        want = outcome(load_trajectories, sorted_path)
        assert want == outcome(reference_load, sorted_path)
        assert (want[0] is DimensionMismatchError) == (size == 1), want
        steps = np.arange(length)
        steps[: length // 2 * 2] ^= 1
        pair_swapped = (length * np.arange(runs)[:, None] + steps).ravel()
        path = tmp_path / "traj.csv"
        for order in (rng.permutation(size), rng.permutation(size), np.roll(np.arange(size), 1),
                      np.arange(size)[::-1], np.arange(size), pair_swapped):
            path.write_text("".join(lines + [rows[i] for i in order]))
            assert outcome(load_trajectories, path) == want, order

    def test_duplicate_step_in_unsorted_file_names_later_line(self, tmp_path):
        # Of a step given twice, the later line is named, and of two such
        # steps the one whose later line comes first in the file, whatever
        # the sorted order of their runs.
        path = tmp_path / "traj.csv"
        path.write_text(
            "run,k,x0,u0,r\n"
            "1,1,2.0,,\n"
            "0,0,1.0,0.5,1.0\n"
            "1,0,1.0,0.5,1.0\n"
            "0,1,2.0,,\n"
            "1,0,3.0,0.5,1.0\n"
            "0,1,4.0,,\n"
        )
        with pytest.raises(ParseError, match=r"^line 6: duplicate step 0 for run 1$"):
            load_trajectories(path)
        assert outcome(reference_load, path) == (ParseError, 6)

    def test_row_with_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "run,k,x0,x1,u0,r\n"
            "0,0,1.0,2.0,0.5,1.0\n"
            "0,1,1.0,2.0,3.0,0.5,1.0\n"
        )
        with pytest.raises(DimensionMismatchError, match="line 3"):
            load_trajectories(path)

    def test_nan_in_state_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "run,k,x0,u0,r\n"
            "0,0,NaN,0.5,1.0\n"
            "0,1,2.0,,\n"
        )
        with pytest.raises(DataError, match="line 2"):
            load_trajectories(path)

    def test_unparseable_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "run,k,x0,u0,r\n"
            "0,0,oops,0.5,1.0\n"
            "0,1,2.0,,\n"
        )
        with pytest.raises(ParseError, match="line 2"):
            load_trajectories(path)

    def test_quoted_field_rejected(self, tmp_path):
        # The writer never quotes; a quoted field is an error rather than
        # being unquoted, as a general CSV reader would.
        path = tmp_path / "quoted.csv"
        path.write_text(
            "run,k,x0,u0,r\n"
            "0,0,1.0,0.5,1.0\n"
            '0,1,"1.5",,\n'
        )
        with pytest.raises(ParseError, match="line 3: quoted"):
            load_trajectories(path)

    def test_missing_terminal_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "run,k,x0,u0,r\n"
            "0,0,1.0,0.5,1.0\n"
            "0,1,2.0,0.5,1.0\n"
        )
        with pytest.raises(ParseError):
            load_trajectories(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_trajectories(path)


# ---------------------------------------------------------------------------
# Differential tests of the block-wise loader against a row-by-row reference.
# ---------------------------------------------------------------------------


def reference_load(path):
    """Row-by-row reference parser: csv.reader and one float() per value.

    Returns (run_ids, seeds, states, actions, rewards) as arrays, runs sorted
    by id, and raises the errors the loader must raise, with the same line
    numbers.  It unquotes quoted fields, which the loader rejects.
    """
    seeds, header, rows = {}, None, {}

    def value(text, line_no, col):
        try:
            v = float(text)
        except ValueError:
            raise ParseError(f"line {line_no}: cannot parse {col}={text!r}") from None
        if not math.isfinite(v):
            raise DataError(f"line {line_no}: non-finite value in column {col}")
        return v

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
                names = fields[2:-1]
                n = sum(name.startswith("x") for name in names)
                m = len(names) - n
                if (fields[:2] != ["run", "k"] or fields[-1:] != ["r"] or not n or not m
                        or names != [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]):
                    raise ParseError(f"line {line_no}: malformed header")
                header = n, m
                continue
            n, m = header
            if len(fields) != 2 + n + m + 1:
                raise DimensionMismatchError(f"line {line_no}: wrong column count")
            try:
                run, k = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(f"line {line_no}: run/k must be integers") from None
            state = [value(fields[2 + i], line_no, f"x{i}") for i in range(n)]
            tail = fields[2 + n:]
            if all(f == "" for f in tail):
                entry = (state, None, None)
            else:
                if any(f == "" for f in tail):
                    raise ParseError(f"line {line_no}: partly empty action/reward fields")
                entry = (state, [value(tail[i], line_no, f"u{i}") for i in range(m)],
                         value(tail[m], line_no, "r"))
            per_run = rows.setdefault(run, {})
            if k in per_run:
                raise ParseError(f"line {line_no}: duplicate step {k} for run {run}")
            per_run[k] = entry
    if header is None:
        raise ParseError("file has no header row")
    if not rows:
        raise InsufficientDataError("trajectory file has no data rows")
    runs = []
    for run in sorted(rows):
        per_run = rows[run]
        steps = sorted(per_run)
        if steps != list(range(steps[-1] + 1)):
            raise ParseError(f"run {run}: steps are not contiguous from 0")
        states, actions, rewards = [], [], []
        for k in steps:
            state, action, reward = per_run[k]
            states.append(state)
            if k < steps[-1]:
                if action is None:
                    raise ParseError(f"run {run}: step {k} is missing action/reward fields")
                actions.append(action)
                rewards.append(reward)
            elif action is not None:
                raise ParseError(f"run {run}: final step {k} must have empty fields")
        if not actions:
            raise DimensionMismatchError(f"run {run}: empty rollout")
        runs.append((states, actions, rewards))
    if len({len(states) for states, _, _ in runs}) > 1:
        raise DimensionMismatchError("runs differ in horizon")
    ids = sorted(rows)
    return (np.array(ids), np.array([seeds.get(r, -1) for r in ids]),
            *(np.array(arrays, dtype=float) for arrays in zip(*runs)))


def outcome(load, path):
    """What a loader makes of a file: the arrays as bytes, or the error type
    and the line number its message names (None when it names none)."""
    try:
        ens = load(path)
    except KoopboundError as exc:
        line = re.search(r"line (\d+)", str(exc))
        return type(exc), line and int(line.group(1))
    if isinstance(ens, TrajectoryEnsemble):
        ens = (ens.run_ids, ens.seeds, ens.states, ens.actions, ens.rewards)
    return tuple((a.shape, np.asarray(a, dtype=a.dtype.kind + "8").tobytes()) for a in ens)


EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.2250738585072014e-308)
values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_VALUES))


def midpoint_text(v, offset):
    """The decimal midpoint between the double v > 0 and the next one up,
    rounded to 18 significant digits and moved by offset units of its last
    digit, written positionally: an exact binary midpoint when it has at most
    18 digits, else one near it."""
    context = decimal.Context(prec=60)
    mid = context.divide(context.add(decimal.Decimal(v),
                                     decimal.Decimal(math.nextafter(v, math.inf))), 2)
    unit = decimal.Decimal(1).scaleb(mid.adjusted() - 17)
    return format(mid.quantize(unit) + offset * unit, "f")


def digits_with_point(digits, point):
    text = str(digits)
    point = min(point, len(text))
    return f"{text[:point]}.{text[point:]}"


# Decimal digits that the block decoder converts exactly, or must leave to
# float(): binary midpoints and the decimals next to them, also just below a
# power of two; 16 to 18 digits, and more than 18; long runs of leading
# zeros; signed zero and digits without a point.
DECODER_TEXTS = st.one_of(
    st.builds(midpoint_text, st.floats(1e-4, 1e15), st.integers(-1, 1)),
    # Below a power of two the ulp halves.
    st.builds(midpoint_text, st.integers(-13, 49).map(lambda e: math.nextafter(2.0**e, 0)),
              st.integers(-1, 1)),
    st.builds(digits_with_point, st.integers(10**15, 10**20), st.integers(0, 21)),
    st.builds(lambda digits, zeros: "0." + "0" * zeros + str(digits),
              st.integers(1, 10**18), st.integers(0, 21)),
    st.sampled_from(["9007199254740993.0", "9007199254740993", "9007199254740992.9",
                     "9007199254740993.1", "18014398509481986.0", "0.00012345678901234567",
                     "-0.0", "5", "-5", "5.", "-.5"]),
)
# Text forms float() and int() accept besides the writer's: spaces, '+', '_',
# exponents and a non-ASCII digit.
value_texts = st.one_of(values.map(repr), values.map(lambda v: f" {v:.17e}"),
                        st.sampled_from(["1_0", "+1", "1E3", ".5", "  -2.5  ", "\u0661.5"]),
                        DECODER_TEXTS, DECODER_TEXTS.map(lambda text: "-" + text.lstrip("-")))


@st.composite
def trajectory_files(draw):
    """A valid file as (header, data rows, seed comments): rows are field
    lists in shuffled order."""
    r_count, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    # Run ids of 19 digits are above the decoder's 18.
    run_ids = draw(st.lists(st.integers(-5, 10**12) | st.integers(10**18, 2**63 - 1),
                            min_size=r_count, max_size=r_count, unique=True))
    rows = []
    for run in run_ids:
        for k in range(horizon + 1):
            width = n + m + 1 if k < horizon else n
            fields = draw(st.lists(value_texts, min_size=width, max_size=width))
            rows.append([str(run), str(k)] + fields + [""] * (n + m + 1 - width))
    rows = draw(st.permutations(rows))
    seeded = draw(st.lists(st.sampled_from(run_ids), unique=True))
    seeds = [f"# seed {run} {draw(st.integers(-2**63, 2**63 - 1))}" for run in seeded]
    header = ",".join(["run", "k"] + [f"x{i}" for i in range(n)]
                      + [f"u{i}" for i in range(m)] + ["r"])
    return header, rows, seeds, n


@st.composite
def render(draw, header, rows, seeds):
    """File text with seed comments, other comments and blank lines anywhere
    (the header first among the rest), and LF, CRLF or CR line ends."""
    extras = [draw(st.sampled_from(["# note", "#", "", "  ", "\t", "# seed x"]))
              for _ in range(draw(st.integers(0, 4)))]
    lines = [header] + [",".join(fields) for fields in rows]
    for extra in seeds + extras:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(ends) for line in lines)


FAULTS = ("oops", "nan", "1e999", "empty field", "partly empty tail", "extra column",
          "missing column", "duplicate step", "missing step", "missing terminal row")


def inject(draw, rows, n, fault):
    """Apply one fault to a copy of the data rows."""
    rows = [list(fields) for fields in rows]
    terminal = [i for i, fields in enumerate(rows) if fields[-1] == ""]
    inner = [i for i, fields in enumerate(rows) if fields[-1] != ""]
    if fault in ("oops", "nan", "1e999"):
        i = draw(st.sampled_from(range(len(rows))))
        last = 2 + n if rows[i][-1] == "" else len(rows[i])
        rows[i][draw(st.integers(2, last - 1))] = fault
    elif fault == "empty field":
        i = draw(st.sampled_from(inner))
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = ""
    elif fault == "partly empty tail":
        i = draw(st.sampled_from(draw(st.sampled_from([terminal, inner]))))
        tail = range(2 + n, len(rows[i]))
        picked = draw(st.lists(st.sampled_from(tail), min_size=1, max_size=len(tail) - 1,
                               unique=True))
        for j in picked:
            rows[i][j] = "1.5" if rows[i][-1] == "" else ""
    elif fault == "extra column":
        rows[draw(st.sampled_from(range(len(rows))))].append("0.5")
    elif fault == "missing column":
        rows[draw(st.sampled_from(range(len(rows))))].pop()
    elif fault == "duplicate step":
        copy = list(rows[draw(st.sampled_from(range(len(rows))))])
        rows.insert(draw(st.integers(0, len(rows))), copy)
    elif fault == "missing step":
        rows.pop(draw(st.sampled_from(inner)))
    else:  # missing terminal row
        rows.pop(draw(st.sampled_from(terminal)))
    return rows


def three_row_blocks(header):
    """Patch the reader to decode blocks of 3 data rows of header's width."""
    return mock.patch.object(trajectory_data, "_BLOCK_CELLS", 3 * len(header.split(",")))


class TestDifferentialLoader:
    @given(data=st.data(), small_blocks=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_valid_files_match_reference(self, tmp_path_factory, data, small_blocks):
        header, rows, seeds, _ = data.draw(trajectory_files())
        path = tmp_path_factory.mktemp("valid") / "traj.csv"
        path.write_bytes(data.draw(render(header, rows, seeds)).encode())
        expected = outcome(reference_load, path)
        assert not isinstance(expected[0], type), expected
        # Blocks of 3 rows put block edges inside these small files.
        with three_row_blocks(header) if small_blocks else contextlib.nullcontext():
            assert outcome(load_trajectories, path) == expected

    @given(data=st.data(), fault=st.sampled_from(FAULTS), small_blocks=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_single_fault_matches_reference(self, tmp_path_factory, data, fault,
                                            small_blocks):
        header, rows, seeds, n = data.draw(trajectory_files())
        rows = inject(data.draw, rows, n, fault)
        path = tmp_path_factory.mktemp("fault") / "traj.csv"
        path.write_bytes(data.draw(render(header, rows, seeds)).encode())
        expected = outcome(reference_load, path)
        assert isinstance(expected[0], type) and issubclass(expected[0], KoopboundError)
        with three_row_blocks(header) if small_blocks else contextlib.nullcontext():
            assert outcome(load_trajectories, path) == expected


class TestChunkEdges:
    """Files read a few bytes at a time, so that chunk edges fall inside
    lines and fields, between the CR and LF of a CRLF, and inside a
    multi-byte character."""

    @given(data=st.data(), chunk=st.integers(1, 16), fault=st.sampled_from((None,) + FAULTS))
    @settings(max_examples=100, deadline=None)
    def test_files_match_reference(self, tmp_path_factory, data, chunk, fault):
        header, rows, seeds, n = data.draw(trajectory_files())
        if fault:
            rows = inject(data.draw, rows, n, fault)
        path = tmp_path_factory.mktemp("chunks") / "traj.csv"
        path.write_bytes(data.draw(render(header, rows, seeds)).encode())
        expected = outcome(reference_load, path)
        with mock.patch.object(trajectory_data, "_CHUNK_BYTES", chunk), three_row_blocks(header):
            assert outcome(load_trajectories, path) == expected


class TestBlockEdges:
    """Files of exactly one block of data rows, and one block plus one row:
    n = m = 1, so a block is _BLOCK_CELLS // 5 rows."""

    BLOCK = trajectory_data._BLOCK_CELLS // 5

    @staticmethod
    def write(path, rows):
        # Header on line 1, so data row i is on line i + 2.
        lines = ["run,k,x0,u0,r"]
        lines += [f"0,{k},{0.5 * k},1.0,-1.0" for k in range(rows - 1)]
        lines.append(f"0,{rows - 1},2.0,,")
        path.write_text("\n".join(lines) + "\n")
        return lines

    @pytest.mark.parametrize("extra", [0, 1])
    def test_valid_file_matches_reference(self, tmp_path, extra):
        path = tmp_path / "traj.csv"
        self.write(path, self.BLOCK + extra)
        ens = load_trajectories(path)
        assert ens.horizon == self.BLOCK + extra - 1
        assert outcome(load_trajectories, path) == outcome(reference_load, path)

    def test_narrow_file_past_2048_rows_matches_reference(self, tmp_path):
        # 4097 rows of width 5 make one whole block and one partial block.
        path = tmp_path / "traj.csv"
        self.write(path, 2 * 2048 + 1)
        assert load_trajectories(path).horizon == 2 * 2048
        assert outcome(load_trajectories, path) == outcome(reference_load, path)

    @pytest.mark.parametrize("extra, row", [
        (0, "last"),           # last row of the only block
        (1, "last"),           # first (and only) row of the second block
        (1, "first block end"),
    ])
    @pytest.mark.parametrize("bad, error", [("oops", ParseError), ("inf", DataError)])
    def test_fault_line_exact(self, tmp_path, extra, row, bad, error):
        block = self.BLOCK
        rows = block + extra
        index = rows - 1 if row == "last" else block - 1
        path = tmp_path / "traj.csv"
        lines = self.write(path, rows)
        fields = lines[index + 1].split(",")
        fields[2] = bad
        lines[index + 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error, match=rf"^line {index + 2}: "):
            load_trajectories(path)
        assert outcome(reference_load, path) == (error, index + 2)


class TestWideFile:
    """A file the size of the benchmark's wide-io workload: R=24, K=1000,
    n=42, m=4, about 1.18M fields and 22 MB."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        # Magnitudes from 1e-5 to 1e15 give positional text of 1 to 17
        # digits, and exponent forms below 1e-4.
        rng = np.random.default_rng(201)
        r_count, horizon, n, m = 24, 1000, 42, 4

        def draw(*shape):
            return rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 16, shape)

        ensemble = TrajectoryEnsemble(states=draw(r_count, horizon + 1, n),
                                      actions=draw(r_count, horizon, m),
                                      rewards=draw(r_count, horizon),
                                      run_ids=np.sort(rng.permutation(10**6)[:r_count]),
                                      seeds=rng.integers(0, 2**63, r_count))
        path = tmp_path_factory.mktemp("wide") / "traj.csv"
        save_trajectories(ensemble, path)
        return ensemble, path

    def test_loads_bit_for_bit(self, saved):
        ensemble, path = saved
        loaded = load_trajectories(path)
        for name in ("run_ids", "seeds", "states", "actions", "rewards"):
            got, want = getattr(loaded, name), getattr(ensemble, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    @staticmethod
    def traced_load(path):
        """The loaded ensemble and the traced peak of the load."""
        tracemalloc.start()
        try:
            loaded = load_trajectories(path)
            return loaded, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def sorted_load(self, saved):
        _, path = saved
        load_trajectories(path)  # imports and caches outside the measurement
        return self.traced_load(path)

    def test_peak_memory(self, sorted_load):
        # The records are allocated once from a line count and each block is
        # decoded into them.  Over the returned arrays, whose base is the
        # records with their 24 bytes a row of run, k and line, the load
        # holds one block's working set (about 16k fields at a few hundred
        # bytes) and one chunk of text: 4.5 MiB here.  Concatenating
        # per-block arrays peaked 9.8 MiB over them.
        loaded, peak = sorted_load
        returned = loaded.states.base.nbytes + loaded.run_ids.nbytes + loaded.seeds.nbytes
        assert peak <= returned + 8 * 2**20, (peak, returned)

    @pytest.fixture(scope="class")
    def unsorted(self, saved, tmp_path_factory):
        # The same runs under permuted ids, so the file's run blocks are out
        # of (run, k) order.
        ensemble, _ = saved
        run_ids = np.random.default_rng(202).permutation(ensemble.run_ids)
        path = tmp_path_factory.mktemp("wide") / "unsorted.csv"
        save_trajectories(replace(ensemble, run_ids=run_ids), path)
        return run_ids, path

    def test_unsorted_runs_load_bit_for_bit_in_place(self, saved, sorted_load, unsorted):
        # Run blocks out of order are sorted in place: the peak stays within
        # the sorted file's plus one run's block, where a sorted copy of the
        # values added 5.7 MB.
        ensemble, _ = saved
        run_ids, path = unsorted
        loaded, peak = self.traced_load(path)
        order = np.argsort(run_ids)
        assert loaded.run_ids.tobytes() == run_ids[order].tobytes()
        for name in ("seeds", "states", "actions", "rewards"):
            assert getattr(loaded, name).tobytes() == getattr(ensemble, name)[order].tobytes()
        block = (ensemble.horizon + 1) * (ensemble.n + ensemble.m + 1) * 8
        assert peak <= sorted_load[1] + block, (peak, sorted_load[1])

    @pytest.fixture(scope="class")
    def step_major(self, saved, tmp_path_factory):
        # The same rows with the runs interleaved step by step, as another
        # simulator may write them.
        ensemble, path = saved
        lines = path.read_bytes().splitlines(keepends=True)
        head = len(lines) - ensemble.r_count * (ensemble.horizon + 1)
        rows = np.array(lines[head:], dtype=object).reshape(ensemble.r_count, -1)
        path = tmp_path_factory.mktemp("wide") / "step_major.csv"
        path.write_bytes(b"".join(lines[:head] + rows.T.ravel().tolist()))
        return path

    def test_step_major_rows_load_bit_for_bit_in_place(self, saved, sorted_load, step_major):
        # Rows of interleaved runs are sorted in place: the peak stays within
        # the sorted file's plus one run's block, where a sorted copy of the
        # values peaked at 20.0 MB against 14.3 MB.
        ensemble, _ = saved
        loaded, peak = self.traced_load(step_major)
        for name in ("run_ids", "seeds", "states", "actions", "rewards"):
            assert getattr(loaded, name).tobytes() == getattr(ensemble, name).tobytes(), name
        block = (ensemble.horizon + 1) * (ensemble.n + ensemble.m + 1) * 8
        assert peak <= sorted_load[1] + block, (peak, sorted_load[1])

    @pytest.fixture(scope="class")
    def pair_swapped(self, saved, tmp_path_factory):
        # The same rows with each run's even steps swapped with the next, so
        # the file is out of order at every other row of every run.
        ensemble, path = saved
        lines = path.read_bytes().splitlines(keepends=True)
        head = len(lines) - ensemble.r_count * (ensemble.horizon + 1)
        rows = np.array(lines[head:], dtype=object).reshape(ensemble.r_count, -1)
        steps = np.arange(ensemble.horizon + 1)
        steps[: ensemble.horizon // 2 * 2] ^= 1
        path = tmp_path_factory.mktemp("wide") / "pair_swapped.csv"
        path.write_bytes(b"".join(lines[:head] + rows[:, steps].ravel().tolist()))
        return path

    def test_pair_swapped_rows_load_bit_for_bit_in_place(self, saved, sorted_load, pair_swapped):
        # Each run's swapped step pairs are sorted in place: the peak stays
        # within the sorted file's plus one run's block.
        ensemble, _ = saved
        loaded, peak = self.traced_load(pair_swapped)
        for name in ("run_ids", "seeds", "states", "actions", "rewards"):
            assert getattr(loaded, name).tobytes() == getattr(ensemble, name).tobytes(), name
        block = (ensemble.horizon + 1) * (ensemble.n + ensemble.m + 1) * 8
        assert peak <= sorted_load[1] + block, (peak, sorted_load[1])


class TestEnsembleMean:
    def test_single_run_identity(self):
        states = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        actions = np.array([[[0.5]]])
        ens = TrajectoryEnsemble(states=states, actions=actions, rewards=[[1.0]])
        mean_states, mean_actions, mean_rewards = ensemble_mean(ens)
        assert np.array_equal(mean_states, states[0])
        assert np.array_equal(mean_actions, actions[0])
        assert np.array_equal(mean_rewards, [1.0])

    def test_symmetric_runs_cancel(self):
        v = np.array([[1.0, -2.0], [3.0, 4.0], [0.5, 0.25]])
        ens = TrajectoryEnsemble(states=np.stack([v, -v]), actions=np.ones((2, 2, 1)),
                                 rewards=np.zeros((2, 2)))
        assert np.allclose(ensemble_mean(ens)[0], 0.0)

    def test_hand_arithmetic(self):
        # Runs (1,2,3) and (3,4,5) average to (2,3,4).
        mean_states = ensemble_mean(scalar_ensemble([1.0, 2.0, 3.0], [3.0, 4.0, 5.0]))[0]
        assert np.array_equal(mean_states.ravel(), [2.0, 3.0, 4.0])

    def test_mean_is_linear_under_duplication(self):
        rng = np.random.default_rng(3)
        runs = [(rng.normal(size=(4, 2)), rng.normal(size=(3, 1)), rng.normal(size=3))
                for _ in range(3)]
        states, actions, rewards = (np.stack(arrays) for arrays in zip(*runs))
        ens = TrajectoryEnsemble(states=states, actions=actions, rewards=rewards)
        doubled = TrajectoryEnsemble(
            states=np.concatenate([states, states]),
            actions=np.concatenate([actions, actions]),
            rewards=np.concatenate([rewards, rewards]),
        )
        for single, twice in zip(ensemble_mean(ens), ensemble_mean(doubled)):
            assert np.allclose(single, twice, atol=1e-14)

    def test_computed_once_per_ensemble(self):
        # The mean is kept on the ensemble whose read-only runs it averages;
        # an ensemble built from other runs starts without one.
        ens = scalar_ensemble([1.0, 2.0, 3.0], [3.0, 4.0, 5.0])
        mean = ensemble_mean(ens)
        assert ensemble_mean(ens) is mean and ens.mean is mean
        other = replace(ens, states=-ens.states)
        assert other.mean is None
        assert np.array_equal(ensemble_mean(other)[0].ravel(), [-2.0, -3.0, -4.0])
        assert ensemble_mean(ens) is mean

    def test_record_keeps_the_fresh_means(self):
        # The ensemble keeps the means ensemble_mean computes read-only,
        # those very arrays instead of copies.
        ens = scalar_ensemble([1.0, 2.0, 3.0], [3.0, 4.0, 5.0])
        returned = []
        pairwise_mean = trajectory_data._pairwise_mean

        def spy(stacked):
            returned.append(pairwise_mean(stacked))
            return returned[-1]

        with mock.patch.object(trajectory_data, "_pairwise_mean", spy):
            mean = ensemble_mean(ens)
        assert len(mean) == len(returned) == 3
        for kept, computed in zip(mean, returned):
            assert kept is computed and not kept.flags.writeable

    def test_fit_and_table_share_one_mean(self):
        # The fit and per_step_table read the same three arrays of an
        # ensemble, computed once: three pairwise means of each ensemble.
        nominal = scalar_ensemble([1.0, 2.0, 4.0], [3.0, 4.0, 5.0])
        disturbed = scalar_ensemble([1.0, 2.5, 4.0], [3.0, 4.5, 5.0])
        read, computed = [], []
        pairwise_mean = trajectory_data._pairwise_mean

        def reader(ensemble):
            read.append(ensemble_mean(ensemble))
            return read[-1]

        def counted(stacked):
            computed.append(stacked)
            return pairwise_mean(stacked)

        with mock.patch.object(koopman_dmd, "ensemble_mean", reader), \
                mock.patch.object(bounds, "ensemble_mean", reader), \
                mock.patch.object(trajectory_data, "_pairwise_mean", counted):
            fit_koopman_model(nominal)
            per_step_table(nominal, disturbed)
        assert len(read) == 3 and read[0] is read[1] is nominal.mean
        assert read[2] is disturbed.mean
        assert len(computed) == 6

    def test_overflowing_mean_raises(self):
        # A mean that overflows is refused by the finiteness check, and the
        # ensemble keeps no mean.
        ens = scalar_ensemble([1.5e308, 1.0], [1.5e308, 1.0])
        with np.errstate(over="ignore"), pytest.raises(DataError, match="mean_states"):
            ensemble_mean(ens)
        assert ens.mean is None


def curve(states, actions):
    """A one-run ensemble of these states and actions, whose mean is that
    run bit for bit."""
    states, actions = np.asarray(states, dtype=float), np.asarray(actions, dtype=float)
    return TrajectoryEnsemble(states=states[None], actions=actions[None],
                              rewards=np.zeros((1, len(actions))))


class TestSnapshots:
    """The snapshot matrices fit_koopman_model builds from an ensemble's
    mean: states 0..K-1 against states 1..K and against actions 0..K-1."""

    def test_state_shift_definition(self):
        model = fit_koopman_model(curve([[1.0], [2.0], [4.0]], np.zeros((2, 1))))
        assert np.allclose(model.state_operator, [[2.0]], rtol=1e-14)
        assert model.state_residual < 1e-15

    def test_insufficient_horizon(self):
        with pytest.raises(InsufficientDataError):
            fit_koopman_model(curve([[1.0], [2.0]], np.zeros((1, 1))))

    def test_shapes_n2_k3(self):
        model = fit_koopman_model(curve(np.arange(8.0).reshape(4, 2), np.zeros((3, 1))))
        assert model.state_operator.shape == (2, 2) and model.action_operator.shape == (1, 2)
        assert model.snapshot_columns == 3

    def test_shift_consistency(self):
        # The state residual pairs step k+1 with step k.
        rng = np.random.default_rng(11)
        states = rng.normal(size=(6, 3))
        model = fit_koopman_model(curve(states, rng.normal(size=(5, 2))))
        misfit = states[1:].T - model.state_operator @ states[:-1].T
        expected = np.linalg.norm(misfit) / np.linalg.norm(states[1:])
        assert np.isclose(model.state_residual, expected, rtol=1e-12)

    def test_action_pair_shapes(self):
        model = fit_koopman_model(curve(np.ones((3, 2)), np.zeros((2, 1))))
        assert model.action_operator.shape == (1, 2)
        assert model.action_residual == 0.0

    def test_action_pair_values(self):
        # Actions 2, 4 on states 1, 2; the terminal state 3 takes no action.
        model = fit_koopman_model(curve([[1.0], [2.0], [3.0]], [[2.0], [4.0]]))
        assert np.allclose(model.action_operator, [[2.0]], rtol=1e-14)
        assert model.action_residual < 1e-15

    def test_zero_actions(self):
        model = fit_koopman_model(curve(np.ones((3, 2)), np.zeros((2, 2))))
        assert not np.any(model.action_operator)
