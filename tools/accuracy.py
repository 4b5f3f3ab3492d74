"""How accurately the online solver recovers each ground truth, one line per instance.

    PYTHONPATH=src python tools/accuracy.py --problem five_point --seed 1 --count 3000 --summary

The pools are ``tools/decisions.py``'s: the template is
``build_template(problem, seed)`` and instance i is
``generate_instance(default_rng([seed, i]))``.  The error of a ground
truth is the max-abs coordinate distance to its nearest accepted
solution (infinite when the solve accepted nothing or raised
``SolveError``), and it is a miss at MISS_DISTANCE or more.  Each line reads

    index accepted misses log10_error ...

with one log10 error per ground truth, clipped below at LOG10_FLOOR (a
solve that raises prints ``error`` as its accepted count).  ``--summary``
prints one line instead: the misses, the accepted total, and the p99 and
median of the clipped log10 errors over every ground truth.
"""

from __future__ import annotations

import argparse

import numpy as np

from resultant_solve.offline import build_template
from resultant_solve.problems import get_problem
from resultant_solve.recover import SolveError, solve_online

MISS_DISTANCE = 1e-6
LOG10_FLOOR = -17.0


def distances(template, data, gts) -> tuple:
    """(accepted count, or None when the solve raised; each ground truth's error)."""
    try:
        accepted = [c.x for c in solve_online(template, data).accepted]
    except SolveError:
        return None, [np.inf] * len(gts)
    return len(accepted), [
        min((float(np.max(np.abs(x - gt))) for x in accepted), default=np.inf) for gt in gts
    ]


def log10_errors(errors) -> np.ndarray:
    return np.log10(np.maximum(errors, 10.0**LOG10_FLOOR))


def summary(counts: list, errors: list) -> str:
    """Misses, accepted total, p99 and median log10 error over every ground truth."""
    logs = log10_errors(errors)
    misses = int(np.sum(np.array(errors) >= MISS_DISTANCE))
    p99, median = np.percentile(logs, [99, 50])
    return (
        f"misses {misses} accepted {sum(c or 0 for c in counts)}"
        f" p99 {p99:.2f} median {median:.2f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--problem", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args(argv)
    problem = get_problem(args.problem)
    template = build_template(problem, args.seed)
    counts, errors = [], []
    for i in range(args.count):
        data, gts = problem.generate_instance(np.random.default_rng([args.seed, i]))
        count, found = distances(template, data, gts)
        counts.append(count)
        errors.extend(found)
        if not args.summary:
            misses = sum(e >= MISS_DISTANCE for e in found)
            shown = " ".join(f"{e:.2f}" for e in log10_errors(found))
            print(f"{i} {'error' if count is None else count} {misses} {shown}")
    if args.summary:
        print(summary(counts, errors))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
