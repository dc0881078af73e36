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


def line_id(argv):
    """The line's command and values (a file by its name), without ``--out X``.

    An id made of the line's own arguments survives the insertion of other
    lines; leaving out the option names keeps each test name short enough
    to be listed whole.
    """
    args = argv[1:]
    if "--out" in args:
        i = args.index("--out")
        del args[i:i + 2]
    return "_".join(Path(a).name for a in args if not a.startswith("--"))


LINES = readme_command_lines()
IDS = [line_id(argv) for argv in LINES]


def test_the_command_line_block_is_found():
    assert len(LINES) >= 8
    assert all(argv[0] == "foguel-lab" for argv in LINES)
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("argv", LINES, ids=IDS)
def test_readme_line_runs(tmp_path, argv):
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
