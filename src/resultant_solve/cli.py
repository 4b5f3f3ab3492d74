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


def _run_trial(template, problem, seed: int, index: int) -> dict:
    rng = np.random.default_rng([seed, index])
    data, _ = problem.generate_instance(rng)
    start = time.perf_counter()
    try:
        result = solve_online(template, data)
    except SolveError:
        return {"error": True, "time_us": (time.perf_counter() - start) * 1e6}
    elapsed_us = (time.perf_counter() - start) * 1e6
    return {
        "error": False,
        "failed": result.failed,
        "residuals": [c.residual for c in result.accepted],
        "roots": len(result.accepted),
        "time_us": elapsed_us,
    }


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

    all_residuals: list = []
    best_logs: list = []
    times: list = []
    roots: list = []
    failures = 0
    for rec in records:
        if rec["error"]:
            failures += 1
            continue
        times.append(rec["time_us"])
        roots.append(rec["roots"])
        if rec["failed"]:
            failures += 1
            continue
        all_residuals.extend(rec["residuals"])
        best_logs.append(float(_log10_residuals([min(rec["residuals"])])[0]))

    logs = _log10_residuals(all_residuals) if all_residuals else np.array([])
    report = BenchReport(
        problem_id=problem_id,
        trials=trials,
        mean_log10_residual=float(np.mean(logs)) if logs.size else float("nan"),
        median_log10_residual=float(np.median(logs)) if logs.size else float("nan"),
        fail_percent=100.0 * failures / trials,
        mean_time_us=float(np.mean(times)) if times else float("nan"),
        mean_roots=float(np.mean(roots)) if roots else float("nan"),
        best_mean_log10_residual=(
            float(np.mean(best_logs)) if best_logs else float("nan")
        ),
    )
    clipped = np.clip(logs, HIST_RANGE[0], HIST_RANGE[1]) if logs.size else logs
    counts, _ = np.histogram(clipped, bins=HIST_BINS, range=HIST_RANGE)
    return report, counts


def _write_histogram(path: str, counts: np.ndarray) -> None:
    edges = np.linspace(HIST_RANGE[0], HIST_RANGE[1], HIST_BINS + 1)
    lines = ["bin_left,bin_right,count"]
    for b in range(HIST_BINS):
        lines.append(f"{edges[b]:.6g},{edges[b + 1]:.6g},{int(counts[b])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
