"""The README's Python API sketch runs as written, and its CLI tour prints
what the README shows."""

import json
import re
import shlex
from pathlib import Path

from fallfact.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_sketch_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API sketch"):]
    sketch = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(sketch, str(README), "exec"), {"__name__": "readme_sketch"})


def _tour():
    """(argv, printed lines) for each `$ fallfact ...` command of the CLI tour."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI tour"):]
    section = section[:section.index("\n## ", 1)]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for chunk in re.split(r"\n(?=\$ )", block.replace("\\\n", " ").strip()):
            line, *printed = chunk.strip().split("\n")
            argv = shlex.split(line)
            assert argv[:2] == ["$", "fallfact"], line
            commands.append((argv[2:], printed))
    return commands


def _matches(expected, got):
    """got equals expected, where a line "..." stands for any lines."""
    if not expected:
        return not got
    if expected[0] == "...":
        return any(_matches(expected[1:], got[k:]) for k in range(len(got) + 1))
    return bool(got) and got[0] == expected[0] and _matches(expected[1:], got[1:])


def test_cli_tour_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    tour = _tour()
    assert len(tour) == 11
    for argv, printed in tour:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "convert" and "--out" not in argv:
            # convert pretty-prints its JSON; the README shows it compacted
            out = json.dumps(json.loads(out)) + "\n"
        got = out.splitlines()
        assert _matches(printed, got), (argv, got)
