"""README's command-line examples against the parser that runs them."""
import shlex
from pathlib import Path

import pytest

from cfbounds.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """Every ``cfbounds ...`` line of README's bash code blocks, with its
    backslash continuation lines joined."""
    commands, block, pending = [], False, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            block = line == "```bash"
            continue
        if not block:
            continue
        if pending is not None:
            line = pending + " " + line.strip()
        elif not line.startswith("cfbounds "):
            continue
        pending = line[:-1].rstrip() if line.endswith("\\") else None
        if pending is None:
            commands.append(line)
    return commands


def test_readme_has_cli_examples():
    subcommands = {shlex.split(c)[1] for c in readme_commands()}
    assert subcommands == {"bound", "simulate", "reproduce", "optimize", "verify"}


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command)
    assert argv[0] == "cfbounds"
    build_parser().parse_args(argv[1:])     # a usage error exits with code 1
