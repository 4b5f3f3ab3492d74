import pytest

from resultant_solve import SolverTemplate, build_template
from resultant_solve.problems import PROBLEMS, Problem, get_problem


@pytest.fixture(scope="session")
def conic_template():
    return build_template(get_problem("conic"), 7)


@pytest.fixture(scope="session")
def five_point_template():
    return build_template(get_problem("five_point"), 7)


def _register_toy(monkeypatch, problem_id, basis):
    """A registered problem with only the structure a template reads.

    The hidden variable is the last, r = 1, and there is no builder,
    data or frame.
    """
    problem = Problem(problem_id, basis, (), 1, *[None] * 6)
    monkeypatch.setitem(PROBLEMS, problem_id, problem)


@pytest.fixture
def toy_template(monkeypatch):
    """Three-column power basis (v^2, v, 1) for one recoverable variable v.

    k = 2, and row 0 / column 0 deleted, so v is the ratio of columns 1
    and 2.
    """
    _register_toy(monkeypatch, "toy", ((2,), (1,), (0,)))
    return SolverTemplate("toy", 2, (0, 0))


@pytest.fixture
def toy3_template(monkeypatch):
    """Basis (x, y, 1, xy) over two recovered variables, column 3 deleted."""
    _register_toy(monkeypatch, "toy3", ((1, 0), (0, 1), (0, 0), (1, 1)))
    return SolverTemplate("toy3", 1, (0, 3))
