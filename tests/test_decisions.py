"""tools/decisions.py: one line per instance, stable across runs."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "decisions.py"


def _load():
    spec = importlib.util.spec_from_file_location("decisions", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_instance_and_repeatable(capsys):
    decisions = _load()
    args = ["--problem", "conic", "--seed", "1", "--count", "4"]
    assert decisions.main(args) == 0
    first = capsys.readouterr().out.splitlines()
    assert decisions.main(args) == 0
    assert capsys.readouterr().out.splitlines() == first
    assert len(first) == 4
    for index, line in enumerate(first):
        assert re.fullmatch(rf"{index} 0 [1-4] [0-9a-f]{{64}}", line), line
