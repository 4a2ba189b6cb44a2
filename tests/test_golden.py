"""Byte goldens: every subcommand in every output format.

Each file under ``tests/golden/`` is the exact stdout of one command below,
named ``<subcommand>.<format>``.  A change to any digit, space, column
order or line ending shows here, in json, table and csv alike.
"""

from pathlib import Path

import pytest

from canopy.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

INVENTORY_CSV = """\
label,wood,size,count
boulevard,evergreen,tall,140
park,conifer,medium,60
hedge,deciduous,shrub,800
"""

COMMANDS = {
    "estimate": ["estimate", "--wood", "evergreen", "--size", "tall"],
    "breakdown": ["breakdown", "--wood", "evergreen", "--size", "shrub"],
    "portfolio": ["portfolio", "{inventory}", "--emissions", "25", "--steward-years", "3"],
    "derive-p": [
        "derive-p", "--stock", "6670000", "--lifespan", "35",
        "--horizon", "15", "--storm-felled", "380000",
    ],
    "fit": ["fit", "--reference", "conifer"],
}


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_stdout_matches_golden(command, fmt, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("CANOPY_CONFIG", raising=False)
    inventory = tmp_path / "inventory.csv"
    inventory.write_text(INVENTORY_CSV)
    argv = [arg.format(inventory=inventory) for arg in COMMANDS[command]]
    assert main(argv + ["--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    expected = (GOLDEN_DIR / f"{command}.{fmt}").read_bytes()
    assert captured.out.encode("utf-8") == expected
