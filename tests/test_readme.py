"""README's Quick start and Command line examples run as written.

A name or flag the README shows but the package no longer has fails
here.  Commands run from the repo root, as the README's relative paths
assume, with every --out pointed into a temporary directory and the
shell redirect dropped.
"""

import re
import shlex
from pathlib import Path

from tagflow.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the ## heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs(capsys):
    exec(compile(_block("Quick start", "python"), "README.md", "exec"), {})
    assert "S3" in capsys.readouterr().out


def test_every_command_line_example_exits_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    commands = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    assert commands
    for line in commands:
        words = shlex.split(line)
        if ">" in words:
            words = words[: words.index(">")]
        assert words[0] == "tagflow", line
        args = words[1:]
        if "--out" in args:
            at = args.index("--out") + 1
            args[at] = str(tmp_path / args[at])
        assert main(args) == 0, (line, capsys.readouterr().err)
