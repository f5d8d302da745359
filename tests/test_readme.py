"""The README's documented CLI walkthrough and library use run as written."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from koopbound import TransferFunction, hinf_norm, koopman_dmd, load_trajectories
from koopbound.cli import main

from test_hinf_spectral import shift_reference_operators

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


def test_steps_file_terminal_row_holds_only_the_state_deviation(walkthrough):
    last = (walkthrough[0] / "report.steps.csv").read_text().splitlines()[-1]
    assert last.endswith(",,,"), last


# The deviation caps that analyze and verify both write, from one routine.
CAPS = ("M", "N", "state_energy_bound", "state_max_bound", "action_energy_bound",
        "action_max_bound")


def test_analysis_and_report_carry_the_same_caps(walkthrough):
    # At the same model and gamma, analyze and verify write the same six
    # values.
    root = walkthrough[0]
    analysis = json.loads((root / "analysis.json").read_text())
    report = json.loads((root / "report.json").read_text())
    assert analysis["gamma"] == report["inputs"]["gamma"] == 0.5
    for key in CAPS:
        assert analysis[key] == report[key], (key, analysis[key], report[key])


def test_analyze_reads_gamma_from_the_config(walkthrough, tmp_path):
    # analyze reads the disturbance level from disturbance.gamma, the key
    # verify reads: with the walkthrough config and no --gamma it writes
    # gamma 0.5 and the six caps of report.json.
    root = walkthrough[0]
    out = tmp_path / "analysis.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", "--config", str(root / "surrogate.cfg"), str(root / "model.json"),
                     "--out", str(out)]) == 0
    analysis = json.loads(out.read_text())
    report = json.loads((root / "report.json").read_text())
    assert analysis["gamma"] == 0.5, analysis["gamma"]
    for key in CAPS:
        assert analysis[key] == report[key], (key, analysis[key], report[key])


def test_report_refuses_an_edited_violations_list(walkthrough, tmp_path, capsys):
    # A report's violations are derived from its measurements and bounds:
    # report exits 2 on a copy whose violations list was edited, with one
    # error line naming the field and no output.
    doc = json.loads((walkthrough[0] / "report.json").read_text())
    doc["violations"] = [["state_max", 1e9, 0.1]]
    edited, out = tmp_path / "report.json", tmp_path / "summary.json"
    edited.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", str(edited), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: violations"), err
    assert "Traceback" not in err and not out.exists()


def test_analyze_refuses_a_string_operator_entry(walkthrough, tmp_path, capsys):
    # An operator entry written as a string is refused, not converted:
    # analyze exits 2 with an error line naming the field, no traceback and
    # no output.  The edited copy and its output stay in tmp_path.
    doc = json.loads((walkthrough[0] / "model.json").read_text())
    doc["state_operator"][0][0] = repr(doc["state_operator"][0][0])
    edited, out = tmp_path / "model.json", tmp_path / "analysis.json"
    edited.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["analyze", str(edited), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error: model field 'state_operator'")
               for line in err.splitlines()), err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("order", ["step-major", "reversed runs"])
def test_fit_takes_rows_in_any_order(walkthrough, tmp_path, order):
    # fit on traj.csv with its rows rewritten step by step across runs, or
    # with its runs in reverse order, writes the model.json bytes of the
    # file as simulate wrote it.
    root = walkthrough[0]
    lines = (root / "traj.csv").read_bytes().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if line.startswith(b"run,k,")) + 1
    r_count = len({line.split(b",", 1)[0] for line in lines[head:]})
    rows = np.array(lines[head:], dtype=object).reshape(r_count, -1)
    rows = rows.T if order == "step-major" else rows[::-1]
    traj, model = tmp_path / "traj.csv", tmp_path / "model.json"
    traj.write_bytes(b"".join(lines[:head] + rows.ravel().tolist()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fit", str(traj), "--out", str(model)]) == 0
    assert model.read_bytes() == (root / "model.json").read_bytes()


def test_every_json_file_is_standard_json(walkthrough):
    # The four outputs and the five manifests hold no NaN or Infinity token.
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    paths = sorted(walkthrough[0].glob("*.json"))
    assert len(paths) == 9, paths
    for path in paths:
        json.loads(path.read_text(), parse_constant=refuse)


def test_gain_block_version_is_the_readers():
    # The gain block the README shows carries the version load_model takes.
    block = section_block("Worst-case gain", "json")
    versions = re.findall(r'"version": (\d+)', block)
    assert versions == [str(koopman_dmd._GAIN_VERSION)], versions


def test_stated_level_count_covers_the_reference_operators():
    # The README said 1-5 levels; the 202 reference operators take 0 (the
    # unstable ones) to 6.
    text = README.read_text(encoding="utf-8")
    stated = re.search(r"number of levels\s+tested:\s+0-(\d+)\s+on", text)
    counts = [hinf_norm(TransferFunction.resolvent(k)).iterations
              for _, k in shift_reference_operators()]
    assert len(counts) == 202 and min(counts) == 0
    assert stated and int(stated.group(1)) >= max(counts), max(counts)


def test_library_use_block_runs():
    block = section_block("Library use", "python")
    namespace = {}
    exec(compile(block, "README.md (Library use)", "exec"), namespace)
    assert namespace["report"].violations == ()
