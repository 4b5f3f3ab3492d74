"""Every name the benchmark's outside tracer wraps must still exist.

``perfbench/tracer.py`` skips a name that no longer resolves and counts it
in ``trace.missing_names``, so a refactor that renames a layer would
silently blank that layer's per-layer metrics.  The tracer module is
loaded by path and only read.
"""

import importlib.util
import pathlib
import sys

import pytest

from resultant_solve.problems import PROBLEMS

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module, attr",
    [(t.module, t.attr) for t in tracer.TARGETS] + list(tracer.PROBLEM_LOOKUPS),
)
def test_wrapped_name_resolves(module, attr):
    assert tracer.Tracer._resolve(module, attr) is not None, f"{module}:{attr}"


@pytest.mark.parametrize("field", tracer.PROBLEM_FIELDS)
def test_wrapped_problem_field_exists(field):
    for problem in PROBLEMS.values():
        assert callable(getattr(problem, field, None)), f"{problem.problem_id}.{field}"
