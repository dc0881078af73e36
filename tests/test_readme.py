"""Every command line in the README's "Command line" block runs as written."""

import re
import shlex
from pathlib import Path

import pytest

from foguel_lab.cli import FAMILY_OF, main

ROOT = Path(__file__).resolve().parents[1]


def readme_command_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


LINES = readme_command_lines()


def test_the_command_line_block_is_found():
    assert len(LINES) >= 8
    assert all(argv[0] == "foguel-lab" for argv in LINES)


@pytest.mark.parametrize("argv", LINES, ids=[f"{i}-{a[1]}" for i, a in enumerate(LINES)])
def test_readme_command_line_runs(tmp_path, argv):
    args = []
    it = iter(argv[1:])
    for tok in it:
        if tok == "--out":
            next(it)  # every run writes into its own temporary directory
        elif not tok.startswith("-") and (ROOT / tok).is_file():
            args.append(str(ROOT / tok))
        else:
            args.append(tok)
    command = args[0]
    assert main(args + ["--out", str(tmp_path)]) == 0
    families = set(FAMILY_OF.values()) if command == "sweep" else {FAMILY_OF[command]}
    for family in families:
        assert (tmp_path / f"{family}.csv").is_file()
