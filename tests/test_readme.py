"""Every fenced ``python`` block of README.md runs as written, and so
does every ``ultrafree`` command of its ``sh`` blocks, so the examples
cannot drift from the code."""

import json
import pathlib
import re
import shlex

from ultrafree.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

C5 = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_shell_examples_run(tmp_path, monkeypatch, capsys):
    # the files the examples name: g.json is C5, s.json its from_graph space
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps(C5))
    (tmp_path / "s.json").write_text(json.dumps({"kind": "from_graph", "graph": C5}))
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("ultrafree ")
    ]
    assert commands
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr())
