"""tools/templates.py: one line per seed, stable across runs."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "templates.py"


def _load():
    spec = importlib.util.spec_from_file_location("templates", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_seed_and_repeatable(capsys):
    templates = _load()
    args = ["--problem", "conic", "--seeds", "3..5"]
    assert templates.main(args) == 0
    first = capsys.readouterr().out.splitlines()
    assert templates.main(args) == 0
    assert capsys.readouterr().out.splitlines() == first
    assert len(first) == 3
    for seed, line in zip(range(3, 6), first):
        assert re.fullmatch(rf"{seed} 4 0,3( [0-9a-f]{{64}}){{5}}", line), line
    # every seed of a problem builds the same template from different draws
    assert len({line.split()[3] for line in first}) == 1
    assert len({line.split()[4] for line in first}) == 3


def test_offline_decisions_in_clear(capsys):
    templates = _load()
    assert templates.main(["--problem", "five_point", "--seeds", "0..1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [["0", "10", "0,9"], ["1", "10", "0,9"]]
