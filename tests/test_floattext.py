"""The block float encoder against Python's repr, and the CSV files it writes
against the per-value repr writers it replaced."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopbound import (
    LinearSurrogateConfig,
    TrajectoryEnsemble,
    UavEnvConfig,
    linear_ensemble,
    save_trajectories,
    uav_ensemble,
)
from koopbound import _floattext
from koopbound.bounds import write_per_step_table


def encode(values) -> str:
    """The encoder's text of one row of floats, without its newline."""
    floats = np.asarray(values, dtype=np.float64).reshape(1, -1)
    buffer = io.BytesIO()
    _floattext.write_rows(buffer, np.zeros((1, 0), dtype=np.int64), floats,
                          np.zeros(floats.shape, dtype=bool))
    text = buffer.getvalue().decode("ascii")
    assert text.endswith("\n")
    return text[:-1]


def reference(values) -> str:
    return ",".join(map(repr, np.asarray(values, dtype=np.float64).ravel().tolist()))


def assert_same_text(got, want) -> None:
    """got == want (str or bytes), failing with the first line and cell that
    differ: pytest's own diff of two megabyte strings takes minutes."""
    if got == want:
        return
    if isinstance(got, bytes):
        got, want = got.decode(), want.decode()
    got_cells = [line.split(",") for line in got.splitlines()]
    want_cells = [line.split(",") for line in want.splitlines()]
    for line, (g, w) in enumerate(zip(got_cells, want_cells)):
        for cell, (a, b) in enumerate(zip(g, w)):
            if a != b:
                pytest.fail(f"line {line}, cell {cell}: {a!r} != {b!r}")
        if len(g) != len(w):
            pytest.fail(f"line {line}: {len(g)} cells != {len(w)}")
    pytest.fail(f"{len(got_cells)} lines != {len(want_cells)}, or line ends differ")


def reference_save(ensemble, path) -> None:
    """The per-row repr writer that save_trajectories replaced."""
    n, m, k_max = ensemble.n, ensemble.m, ensemble.horizon
    header = ["run", "k"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)] + ["r"]
    run_ids = ensemble.run_ids.tolist()
    terminal_tail = "," * (m + 1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f"# seed {run} {seed}\n" for run, seed in zip(run_ids, ensemble.seeds.tolist())
        )
        fh.write(",".join(header) + "\n")
        for r, run in enumerate(run_ids):
            steps = np.concatenate(
                (ensemble.states[r, :k_max], ensemble.actions[r], ensemble.rewards[r, :, None]),
                axis=1,
            ).tolist()
            lines = [f"{run},{k}," + ",".join(map(repr, row)) for k, row in enumerate(steps)]
            terminal = ",".join(map(repr, ensemble.states[r, k_max].tolist()))
            lines.append(f"{run},{k_max},{terminal}{terminal_tail}\n")
            fh.write("\n".join(lines))


def reference_steps(table, path) -> None:
    """The per-row repr writer that write_per_step_table replaced, on a
    per_step_table array: the last row's last three cells empty."""
    rows = [(int(k), *cells) for k, *cells in table.tolist()]
    lines = ["k,state_dev,action_dev,reward_nominal_mean,reward_disturbed_mean"]
    lines += [f"{k},{dx!r},{du!r},{rn!r},{rd!r}" for k, dx, du, rn, rd in rows[:-1]]
    lines.append(f"{rows[-1][0]},{rows[-1][1]!r},,,")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def neighbours(values):
    """Each value with the doubles just below and above it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate((np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)))


def adversarial_values() -> np.ndarray:
    rng = np.random.default_rng(17)
    digits = "".join(rng.choice(list("123456789"), size=17))
    shortest = [float(f"{digits[:d]}e{e}") for d in range(1, 18) for e in range(-22, 17)]
    # y = x * 10**s exactly half-way between two integers: x = m / 4 with m
    # odd (s = 1) and m / 8 (s = 2), rounded to the even digit.
    odd = 2 * rng.integers(2**51, 2**52, size=50) + 1
    ties = np.concatenate((odd / 4.0, odd / 8.0))
    special = [
        0.0, 5e-324, 2.2250738585072014e-308, 1e-4, 1e16, 9999999999999998.0,
        2.0**53 - 1, 2.0**53, 2.0**53 + 2, 0.1, 0.5, 1.0 / 3.0,
    ]
    largest = np.finfo(np.float64).max
    values = np.concatenate((
        neighbours(np.ldexp(1.0, np.arange(-30, 61))),
        neighbours(np.power(10.0, np.arange(-5, 18))),
        neighbours(special), [largest, np.nextafter(largest, 0.0)], shortest, ties,
    ))
    return np.concatenate((values, -values))


class TestEncoder:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_repr(self, x):
        assert encode([x]) == repr(x)

    def test_adversarial_values(self):
        values = adversarial_values()
        assert_same_text(encode(values), reference(values))
        # Half-way between ...242 and ...243, and between ...247 and ...248.
        assert encode([(2**52 + 1) / 4, (2**52 + 3) / 4]) == (
            "1125899906842624.2,1125899906842624.8")

    def test_seeded_sweep(self):
        rng = np.random.default_rng(20261019)
        # Bit patterns inside the positional range, log-uniform magnitudes
        # from 1e-7 to 1e17, short decimals, integers and normal draws.
        low, high = np.array([1e-4, 1e16]).view(np.int64)
        scale = 10.0 ** rng.integers(0, 8, size=100_000)
        values = np.concatenate((
            rng.integers(low, high, size=400_000).view(np.float64),
            10.0 ** rng.uniform(-7, 17, size=300_000),
            np.rint(rng.uniform(-1e3, 1e3, size=100_000) * scale) / scale,
            rng.integers(-10**15, 10**15, size=100_000).astype(np.float64),
            rng.standard_normal(100_000),
        ))
        values[rng.random(values.size) < 0.5] *= -1
        assert values.size >= 10**6
        assert_same_text(encode(values), reference(values))

    def test_fallback_count(self):
        values = [1e-5, 0.0, -0.0, 1e16, 3.5, -1e300, 5e-324, 1e-4]
        buffer = io.BytesIO()
        count = _floattext.write_rows(buffer, np.zeros((1, 0), dtype=np.int64),
                                      np.array([values]), np.zeros((1, len(values)), dtype=bool))
        assert count == 4
        assert buffer.getvalue().decode() == reference(values) + "\n"

    def test_integers_and_empty_cells(self):
        ints = np.array([[0, -1, 9, 10, -2**63, 2**63 - 1], [99, 100, -10**18, 10**18, 7, -7]])
        floats = np.array([[0.5, 1e-9, -2.0], [np.nan, np.inf, 3.25]])
        empty = np.array([[False, True, False], [True, False, True]])
        buffer = io.BytesIO()
        assert _floattext.write_rows(buffer, ints, floats, empty) == 1
        assert buffer.getvalue().decode() == (
            "0,-1,9,10,-9223372036854775808,9223372036854775807,0.5,,-2.0\n"
            "99,100,-1000000000000000000,1000000000000000000,7,-7,,inf,\n"
        )

    def test_blocks_of_many_rows(self, monkeypatch):
        # Rows cut into blocks of 3 give the same text as one block.
        rng = np.random.default_rng(3)
        floats = rng.standard_normal((10, 4)) * 10.0 ** rng.integers(-6, 18, size=(10, 4))
        ints = np.arange(20).reshape(10, 2)
        empty = np.zeros(floats.shape, dtype=bool)
        whole = io.BytesIO()
        _floattext.write_rows(whole, ints, floats, empty)
        monkeypatch.setattr(_floattext, "_BLOCK_CELLS", 18)
        cut = io.BytesIO()
        _floattext.write_rows(cut, ints, floats, empty)
        assert cut.getvalue() == whole.getvalue()
        assert whole.getvalue().decode() == "".join(
            f"{a},{b},{reference(row)}\n" for (a, b), row in zip(ints.tolist(), floats))

    def test_cells_without_digits_add_no_search_steps(self, monkeypatch):
        # A zero, an empty cell or a value written by repr adds no power of
        # ten to its block's search for the shortest digits: a terminal row,
        # or a per-step table's, costs its block no more steps.
        calls = []
        multiples = _floattext._multiples

        def counted(*args):
            calls.append(args[-1])
            return multiples(*args)

        monkeypatch.setattr(_floattext, "_multiples", counted)

        def write(floats, empty):
            calls.clear()
            buffer = io.BytesIO()
            _floattext.write_rows(buffer, np.zeros((len(floats), 0), dtype=np.int64), floats,
                                  empty)
            return len(calls), buffer.getvalue().decode()

        rng = np.random.default_rng(5)
        floats = rng.uniform(0.1, 10.0, size=(100, 5)) * rng.choice([-1.0, 1.0], size=(100, 5))
        none = np.zeros(floats.shape, dtype=bool)
        steps, text = write(floats, none)
        assert text == "".join(reference(row) + "\n" for row in floats)
        # Random digits end the search within a few powers of ten, of 17.
        assert steps <= 8
        for value, blank in ((0.0, False), (-0.0, False), (1e300, False), (2.5, True)):
            values, empty = floats.copy(), none.copy()
            values[37, 2], empty[37, 2] = value, blank
            assert write(values, empty) == (steps, "".join(
                ",".join("" if e else repr(v) for v, e in zip(row.tolist(), mask.tolist())) + "\n"
                for row, mask in zip(values, empty)))


# The file tests write blocks of this many rows.
BLOCK_ROWS = 64


def constructed_ensemble() -> TrajectoryEnsemble:
    """Values of every magnitude, with values that take the repr fallback in
    every column and on the rows around each block edge."""
    rng = np.random.default_rng(11)
    runs, horizon, n, m = 3, 300, 5, 2
    states = rng.standard_normal((runs, horizon + 1, n)) * 10.0 ** rng.integers(
        -3, 15, size=(runs, horizon + 1, n))
    actions = rng.standard_normal((runs, horizon, m))
    rewards = rng.standard_normal((runs, horizon))
    odd = [1e-5, -3e-300, 5e-324, 1e16, -2.5e17, 1.7976931348623157e308, 0.0, -0.0]
    for row in range(horizon):
        if row % BLOCK_ROWS not in (0, 1, BLOCK_ROWS - 1):
            continue
        for column in range(n + m + 1):
            value = odd[(row + column) % len(odd)]
            if column < n:
                states[:, row, column] = value
            elif column < n + m:
                actions[:, row, column - n] = value
            else:
                rewards[:, row] = value
    states[:, horizon] = odd[:n]
    return TrajectoryEnsemble(states=states, actions=actions, rewards=rewards,
                              run_ids=[5, -2, 0])


def uav_test_ensemble() -> TrajectoryEnsemble:
    config = UavEnvConfig(area_x=50.0, area_y=50.0, gu_count=6, coverage_radius=25.0)
    return uav_ensemble(config, "centroid_greedy", 300, 3, 1004)


def linear_test_ensemble() -> TrajectoryEnsemble:
    config = LinearSurrogateConfig(A=[[0.9, 0.1], [0.0, 0.5]], F=[[1.0, -1.0]],
                                   x0_mean=[1.0, 1.0], noise_std=0.02)
    return linear_ensemble(config, 200, 8, 7)


class TestFiles:
    @pytest.mark.parametrize("build", [uav_test_ensemble, linear_test_ensemble,
                                       constructed_ensemble])
    def test_trajectory_file_matches_reference(self, tmp_path, monkeypatch, build):
        ensemble = build()
        # A row holds two integers and n + m + 1 floats.
        monkeypatch.setattr(_floattext, "_BLOCK_CELLS",
                            BLOCK_ROWS * (2 + ensemble.n + ensemble.m + 1))
        reference_save(ensemble, tmp_path / "reference.csv")
        fallback = save_trajectories(ensemble, tmp_path / "traj.csv")
        assert_same_text((tmp_path / "traj.csv").read_bytes(),
                         (tmp_path / "reference.csv").read_bytes())
        values = np.concatenate([ensemble.states.ravel(), ensemble.actions.ravel(),
                                 ensemble.rewards.ravel()])
        magnitude = np.abs(values)
        assert fallback == np.count_nonzero((magnitude != 0)
                                            & ((magnitude < 1e-4) | (magnitude >= 1e16)))

    def test_constructed_ensemble_takes_fallback(self, tmp_path):
        ensemble = constructed_ensemble()
        assert ensemble.seeds.tolist() == [-1, -1, -1]
        assert save_trajectories(ensemble, tmp_path / "traj.csv") > 0

    def test_per_step_table_matches_reference(self, tmp_path):
        rng = np.random.default_rng(5)
        cells = rng.standard_normal((400, 4)) * 10.0 ** rng.integers(-8, 20, size=(400, 4))
        cells[::7] = 0.0
        cells[3] = [np.nan, 1.0, np.nan, -np.inf]  # written, unlike the terminal cells
        cells = np.vstack((cells, [1e-7, np.nan, np.nan, np.nan]))
        table = np.column_stack((np.arange(len(cells)), cells))
        write_per_step_table(table, tmp_path / "steps.csv")
        reference_steps(table, tmp_path / "reference.csv")
        assert b"\n3,nan," in (tmp_path / "steps.csv").read_bytes()
        assert_same_text((tmp_path / "steps.csv").read_bytes(),
                         (tmp_path / "reference.csv").read_bytes())
