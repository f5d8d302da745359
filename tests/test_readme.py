"""The README's documented CLI walkthrough and library use run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from koopbound import load_trajectories
from koopbound.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def section_block(heading, language):
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


@pytest.fixture(scope="session")
def walkthrough(tmp_path_factory):
    """The walkthrough run once: its directory, and each command's argv,
    exit code and standard error.  The config heredoc is written as the
    shell would, and every koopbound command runs in process from that
    directory."""
    script = section_block("CLI walkthrough", "sh")
    heredoc = re.search(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", script, re.S | re.M)
    commands = [shlex.split(line) for line in script.splitlines()
                if line.startswith("koopbound ")]
    assert heredoc and len(commands) == 5
    root = tmp_path_factory.mktemp("walkthrough")
    (root / heredoc.group(1)).write_text(heredoc.group(2))
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv[1:])
            runs.append((argv, code, err.getvalue()))
    return root, runs


def test_cli_walkthrough_runs(walkthrough):
    root, runs = walkthrough
    for argv, code, err in runs:
        assert code == 0, argv
        assert "warning" not in err, (argv, err)
    assert (root / "summary.json").exists()


def test_trajectory_file_has_repr_writer_bytes(walkthrough):
    # simulate writes each float as its repr through a numpy encoder: a
    # per-value repr writer gives the same bytes, so the encoder holds on the
    # numpy version installed.
    path = walkthrough[0] / "traj.csv"
    ens = load_trajectories(path)
    n, m, k_max = ens.n, ens.m, ens.horizon
    lines = [f"# seed {run} {seed}"
             for run, seed in zip(ens.run_ids.tolist(), ens.seeds.tolist())]
    lines.append(",".join(["run", "k"] + [f"x{i}" for i in range(n)]
                          + [f"u{i}" for i in range(m)] + ["r"]))
    for r, run in enumerate(ens.run_ids.tolist()):
        for k in range(k_max):
            row = (ens.states[r, k].tolist() + ens.actions[r, k].tolist()
                   + [ens.rewards[r, k].item()])
            lines.append(f"{run},{k}," + ",".join(map(repr, row)))
        terminal = ",".join(map(repr, ens.states[r, k_max].tolist()))
        lines.append(f"{run},{k_max},{terminal}" + "," * (m + 1))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_trajectory_file_loads_float_reader_bits(walkthrough):
    # fit reads each value through a numpy decoder: a per-value float() and
    # int() reader gives the same bits, so the decoder holds on the numpy
    # version installed.
    path = walkthrough[0] / "traj.csv"
    seeds, rows = {}, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# seed "):
                _, _, run, seed = line.split()
                seeds[int(run)] = int(seed)
            elif not line.startswith("run,"):
                fields = line.split(",")
                rows[int(fields[0]), int(fields[1])] = [float(f) for f in fields[2:] if f]
    ens = load_trajectories(path)
    n, m = ens.n, ens.m
    runs = sorted({run for run, _ in rows})
    k_max = max(k for _, k in rows)
    want = {
        "run_ids": np.array(runs, dtype=np.int64),
        "seeds": np.array([seeds.get(run, -1) for run in runs], dtype=np.int64),
        "states": np.array([[rows[run, k][:n] for k in range(k_max + 1)] for run in runs]),
        "actions": np.array([[rows[run, k][n:n + m] for k in range(k_max)] for run in runs]),
        "rewards": np.array([[rows[run, k][n + m] for k in range(k_max)] for run in runs]),
    }
    for name, array in want.items():
        got = getattr(ens, name)
        assert got.shape == array.shape and got.tobytes() == array.tobytes(), name


def test_library_use_block_runs():
    block = section_block("Library use", "python")
    namespace = {}
    exec(compile(block, "README.md (Library use)", "exec"), namespace)
    assert namespace["report"].violations == ()
