"""Per-instance accept/reject decisions of the online solver, one line each.

    PYTHONPATH=src python tools/decisions.py --problem conic --seed 1 --count 2000

The template is ``build_template(problem, seed)`` and instance i is
``generate_instance(default_rng([seed, i]))``, the pools that
``perfbench/run.py`` solves.  Each line reads

    index failed accepted sha256

where ``failed`` is 1 when the solve accepted nothing, ``accepted`` is the
number of accepted solutions and ``sha256`` is taken over the bytes of
every accepted x followed by its float64 residual.  A solve that raises
``SolveError`` prints ``error`` in place of the last three fields.  Run it
against two checkouts (``PYTHONPATH=<checkout>/src``) and diff the outputs
to list every instance whose decisions or bits changed.
"""

from __future__ import annotations

import argparse
import hashlib

import numpy as np

from resultant_solve.offline import build_template
from resultant_solve.problems import get_problem
from resultant_solve.recover import SolveError, solve_online


def decision_line(index: int, template, data) -> str:
    try:
        result = solve_online(template, data)
    except SolveError:
        return f"{index} error"
    digest = hashlib.sha256()
    for cand in result.accepted:
        digest.update(np.ascontiguousarray(cand.x, dtype=np.float64).tobytes())
        digest.update(np.float64(cand.residual).tobytes())
    return f"{index} {int(result.failed)} {len(result.accepted)} {digest.hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--problem", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    problem = get_problem(args.problem)
    template = build_template(problem, args.seed)
    for i in range(args.count):
        data, _ = problem.generate_instance(np.random.default_rng([args.seed, i]))
        print(decision_line(i, template, data))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
