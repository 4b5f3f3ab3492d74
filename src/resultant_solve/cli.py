"""Command-line front end: offline template generation, solving, benchmarks.

``bench --jobs N`` splits the trials into contiguous index ranges over up
to N processes, the calling one included, capped by the CPU count and the
number of trials. Trials are seeded by (seed, index), so results never
depend on N.

Exit codes: 0 ok, 1 usage or I/O error, 2 offline template failure.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .offline import TemplateError, build_template, template_from_json, template_to_json
from .problems import get_problem
from .recover import SolveError, solve_online, solution_set_to_json

HIST_BINS = 40
HIST_RANGE = (-16.0, 0.0)
CSV_HEADER = (
    "problem,trials,mean_log10,median_log10,fail_pct,mean_us,mean_roots,best_mean_log10"
)
# workers fork on Linux whatever the caller's start method (forkserver is
# Python 3.14's default): a calling script then needs no __main__ guard, no
# worker pays an interpreter start-up, and workers see the caller's state
_POOL_CONTEXT = multiprocessing.get_context("fork") if sys.platform == "linux" else None


@dataclass(frozen=True)
class BenchReport:
    problem_id: str
    trials: int
    mean_log10_residual: float
    median_log10_residual: float
    fail_percent: float
    mean_time_us: float
    mean_roots: float
    best_mean_log10_residual: float

    def csv_row(self) -> str:
        return ",".join(
            [
                self.problem_id,
                str(self.trials),
                f"{self.mean_log10_residual:.6g}",
                f"{self.median_log10_residual:.6g}",
                f"{self.fail_percent:.6g}",
                f"{self.mean_time_us:.6g}",
                f"{self.mean_roots:.6g}",
                f"{self.best_mean_log10_residual:.6g}",
            ]
        )


def _log10_residuals(residuals) -> np.ndarray:
    return np.log10(np.maximum(np.asarray(residuals, dtype=float), 1e-300))


def _run_trial(template, problem, seed: int, index: int) -> tuple | None:
    """``(accepted residuals, solve time in us)``, or None when the solve raised SolveError."""
    rng = np.random.default_rng([seed, index])
    data, _ = problem.generate_instance(rng)
    start = time.perf_counter()
    try:
        accepted = solve_online(template, data).accepted
    except SolveError:
        return None
    time_us = (time.perf_counter() - start) * 1e6
    return [c.residual for c in accepted], time_us


def _run_chunk(problem_id: str, template, seed: int, indices: range) -> list:
    # plain picklable arguments only (a Problem may hold closures), so the
    # process that runs the range looks the problem up itself
    problem = get_problem(problem_id)
    return [_run_trial(template, problem, seed, i) for i in indices]


def _chunks(trials: int, jobs: int) -> list:
    """Contiguous trial index ranges, one per process: min(jobs, trials, CPUs).

    CPUs are those this process may run on, where the platform reports them.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    n = min(jobs, trials, cpus)
    bounds = [trials * c // n for c in range(n + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def run_bench(
    problem_id: str, trials: int, seed: int, jobs: int = 1
) -> tuple[BenchReport, np.ndarray]:
    """Benchmark one problem; returns the report and the histogram counts.

    Trials are independent and seeded by (seed, trial index), so the jobs
    count never changes the results. The calling process solves the first
    index range itself and worker processes solve the others; records are
    concatenated in index order, and every worker is joined before return.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    problem = get_problem(problem_id)
    template = build_template(problem, seed)
    first, *rest = _chunks(trials, jobs)
    # a single range runs in this process alone, without a pool
    pool = ProcessPoolExecutor(len(rest), mp_context=_POOL_CONTEXT) if rest else nullcontext()
    with pool:
        futures = [pool.submit(_run_chunk, problem_id, template, seed, c) for c in rest]
        records = _run_chunk(problem_id, template, seed, first)
        for future in futures:
            records += future.result()

    solved = [rec for rec in records if rec is not None]
    logs = _log10_residuals([r for res, _ in solved for r in res])
    best_logs = _log10_residuals([min(res) for res, _ in solved if res])

    def stat(reduce, values) -> float:
        return float(reduce(values)) if len(values) else float("nan")

    report = BenchReport(
        problem_id=problem_id,
        trials=trials,
        mean_log10_residual=stat(np.mean, logs),
        median_log10_residual=stat(np.median, logs),
        fail_percent=100.0 * (trials - len(best_logs)) / trials,
        mean_time_us=stat(np.mean, [t for _, t in solved]),
        mean_roots=stat(np.mean, [len(res) for res, _ in solved]),
        best_mean_log10_residual=stat(np.mean, best_logs),
    )
    counts, _ = np.histogram(np.clip(logs, *HIST_RANGE), bins=HIST_BINS, range=HIST_RANGE)
    return report, counts


def _write_histogram(path: str, counts: np.ndarray) -> None:
    edges = np.linspace(HIST_RANGE[0], HIST_RANGE[1], HIST_BINS + 1)
    table = np.column_stack([edges[:-1], edges[1:], counts])
    np.savetxt(path, table, fmt=["%.6g", "%.6g", "%d"], delimiter=",",
               header="bin_left,bin_right,count", comments="")


def cmd_offline(args) -> int:
    problem = get_problem(args.problem)
    try:
        template = build_template(problem, args.seed)
    except TemplateError as exc:
        print(f"offline stage failed: {exc}", file=sys.stderr)
        return 2
    text = template_to_json(template)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args) -> int:
    with open(args.template) as fh:
        template = template_from_json(fh.read())
    problem = get_problem(template.problem_id)
    with open(args.data) as fh:
        data = problem.data_from_json(json.load(fh))
    result = solve_online(template, data)
    json.dump(solution_set_to_json(result), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_bench(args) -> int:
    report, counts = run_bench(args.problem, args.trials, args.seed, args.jobs)
    print(CSV_HEADER)
    print(report.csv_row())
    if args.hist:
        _write_histogram(args.hist, counts)
    return 0


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="resultant-solve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_off = sub.add_parser("offline", help="build and write a solver template")
    p_off.add_argument("problem")
    p_off.add_argument("--seed", type=int, default=0)
    p_off.add_argument("-o", "--output", default=None)
    p_off.set_defaults(func=cmd_offline)

    p_solve = sub.add_parser("solve", help="solve one instance from JSON files")
    p_solve.add_argument("-t", "--template", required=True)
    p_solve.add_argument("-d", "--data", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run the stability/runtime benchmark")
    p_bench.add_argument("problem")
    p_bench.add_argument("--trials", type=int, required=True)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--hist", default=None)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, ValueError, SolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
