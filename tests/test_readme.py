"""README.md's examples, run as written: the library example, and the CLI
round trip that samples ft_sum parameters to a file and verifies them.
Run against an installed package (no src/ on the path) they check what a
user of the package reads."""

import json
import re
import shlex
from pathlib import Path

from thetahyp.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def test_the_library_example_runs():
    [example] = _blocks("python")
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["report"].passed


def test_the_cli_round_trip_exits_0(tmp_path, monkeypatch):
    # the sample and verify lines that share params.json, each through cli.main
    monkeypatch.chdir(tmp_path)
    lines = [line for block in _blocks("sh") for line in block.splitlines() if "params.json" in line]
    commands = [shlex.split(line) for line in lines]
    assert [argv[:3] for argv in commands] == [["thetahyp", "sample", "ft_sum"], ["thetahyp", "verify", "ft_sum"]]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    draws = json.loads((tmp_path / "params.json").read_text())["params"]
    assert len(draws) == 5
