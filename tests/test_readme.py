"""The README's documented CLI walkthrough and library use run as written."""

import re
import shlex
from pathlib import Path

from koopbound.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def section_block(heading, language):
    section = README.read_text(encoding="utf-8").split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # The config heredoc is written as the shell would, and every koopbound
    # command runs in process from the walkthrough's directory.
    script = section_block("CLI walkthrough", "sh")
    heredoc = re.search(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", script, re.S | re.M)
    commands = [shlex.split(line) for line in script.splitlines()
                if line.startswith("koopbound ")]
    assert heredoc and len(commands) == 5
    monkeypatch.chdir(tmp_path)
    (tmp_path / heredoc.group(1)).write_text(heredoc.group(2))
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        err = capsys.readouterr().err
        assert "warning" not in err, (argv, err)
    assert (tmp_path / "summary.json").exists()


def test_library_use_block_runs():
    block = section_block("Library use", "python")
    namespace = {}
    exec(compile(block, "README.md (Library use)", "exec"), namespace)
    assert namespace["report"].violations == ()
