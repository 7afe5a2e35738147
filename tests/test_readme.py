"""The README's quick start runs as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from wikicat.cli import main
from wikicat.synth import make_ablation_wiki

README = Path(__file__).parent.parent / "README.md"


def quick_start_commands() -> list[list[str]]:
    """The arguments of each ``wikicat`` command in the code blocks of the
    README's "Quick start" section, in order, with continued lines joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```\n(.*?)^```$", section, flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("wikicat ")]


def test_quick_start_commands_exit_0(tmp_path, monkeypatch, capsys):
    """Each command, run in the wiki that the quick start generates, exits 0."""
    commands = quick_start_commands()
    assert [args[0] for args in commands] == [
        "build-graph", "map", "label", "train", "evaluate", "predict", "ablate",
    ]
    make_ablation_wiki(tmp_path, seed=0)
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert main(args) == 0, (args, capsys.readouterr().err)
