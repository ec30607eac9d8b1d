"""README.md's examples run against the package as it is.

Every ``python`` block runs, every ``wqed`` line of the ``sh`` blocks runs
through ``cli.main`` in a fresh directory (but ``oracle-check --full``,
which takes seconds), and the example ``ini`` scenario runs as a ``field``
config.
"""

import configparser
import csv
import re
import shlex
from pathlib import Path

import pytest

from wqed import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", TEXT, flags=re.M | re.S)


BLOCKS = _blocks("python")
COMMANDS = [argv for argv in (shlex.split(line, comments=True)[1:]
                              for block in _blocks("sh")
                              for line in block.splitlines()
                              if line.startswith("wqed "))
            if argv != ["oracle-check", "--full"]]
(SCENARIO,) = _blocks("ini")


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_cli_examples():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS,
                         ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0


def test_readme_ini_scenario_writes_one_row_per_position(tmp_path,
                                                         monkeypatch):
    config = configparser.ConfigParser(interpolation=None)
    config.read_string(SCENARIO)
    positions = [float(v) for v in config["grid"]["x_over_d"].split(",")]
    (tmp_path / "scenario.ini").write_text(SCENARIO, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["field", "--config", "scenario.ini"]) == 0
    with open(config["output"]["path"], encoding="utf-8") as f:
        rows = list(csv.DictReader(line for line in f
                                   if not line.startswith("#")))
    assert [float(row["x_over_d"]) for row in rows] == positions
