"""The README's examples run as written.

Every `sfom ...` line of its `sh` blocks goes through `cli.main` in a
directory that holds the `myfield.txt` it names, and must exit 0; a command
followed by `# -> ...` lines must print exactly those lines.  The `python`
block is executed as it stands.
"""

import re
import shlex
from pathlib import Path

from sfom import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _commands():
    """(argv, expected stdout lines) for each `sfom` line of the sh blocks."""
    out = []
    for block in _blocks("sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("sfom "):
                continue
            expected = []
            for follow in lines[i + 1:]:
                m = re.fullmatch(r"#(?: ->|   ) (.*)", follow)
                if m is None:
                    break
                expected.append(m.group(1))
            out.append((shlex.split(line, comments=True)[1:], expected))
    return out


def test_readme_commands(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "myfield.txt").write_text("1225,1457750,70,0,1\n")
    commands = _commands()
    assert {argv[0] for argv, _ in commands} == {
        "basis", "tree", "polygon", "verify"}
    for argv, expected in commands:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if expected:
            assert out.splitlines() == expected, argv


def test_readme_library_example():
    (block,) = _blocks("python")
    exec(block, {})
