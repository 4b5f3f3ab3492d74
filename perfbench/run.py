"""Benchmark of the resultant solver through its public API.

    python3 perfbench/run.py --workload five_point --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.
Every workload is a closed loop with one client:

* ``five_point``: one thread calls ``solve_online`` on pre-generated
  10x10, k = 10 instances, cycling through the pool;
* ``conic``: the same loop on 4x4, k = 4 conic pairs;
* ``five_point_bulk``: repeated ``cli.run_bench("five_point", BULK_TRIALS,
  seed, jobs=nproc)`` calls, the CLI's threaded bulk path; BULK_TRIALS is
  the 1000 trials of acceptance criterion 2.

Instance i of a run is ``generate_instance(default_rng([seed, i]))``.

``--trace 0`` prints the end-to-end metrics and never wraps anything.
``--trace 1`` alternates untraced chunks with chunks under the outside
tracer (``tracer.py``), prints the per-layer metrics and writes the spans
to ``.bench_out/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when an output check fails.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import fmean

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from resultant_solve import cli, offline, recover  # noqa: E402
from resultant_solve.cli import _log10_residuals  # noqa: E402
from resultant_solve.problems import get_problem  # noqa: E402

from tracer import Tracer, median, self_time  # noqa: E402

WORKLOADS = ("five_point", "conic", "five_point_bulk")
POOL_SIZE = {"five_point": 3000, "conic": 2000}
WARMUP_SOLVES = 20
WINDOW_S = 0.5  # throughput is the median over windows of this length
TRACE_CHUNKS = 4  # a traced run alternates untraced and traced chunks
# setup_s is the 90th percentile of this many template builds (about 4 ms
# for conic, 50 ms for five_point), spread evenly over the timed loop so that
# they sample the machine's speed as the loop does.  Not the median: the host
# switches between two speeds about 1.4x apart, and the median of a run's
# builds lands on whichever speed held more of that run (see NOTES.md).
BUILD_REPEATS = {"conic": 301, "five_point": 101}
SETUP_PERCENTILE = 90
TRACED_BUILDS = 5  # builds under the tracer, for the offline.* metrics
BULK_PROBLEM = "five_point"
BULK_TRIALS = 1000
GT_TOL = 1e-6
# Output gates from tests/test_acceptance.py: criterion 1 (conic) and
# criterion 2 (five_point).  Criterion 1 has no ground-truth gate, so
# conic takes criterion 2's 99% match rate.  A rate fails its gate when a
# one-sided binomial test puts the true rate above the limit at GATE_ALPHA:
# five_point misses about 0.75% of ground truths, so a plain cut at 1%
# would fail healthy seeds on sampling noise alone.
GATE_ALPHA = 1e-3
LIMITS = {
    "conic": {"fail_pct": 0.0, "gt_miss_pct": 1.0, "median_log10": -10.0},
    "five_point": {"fail_pct": 0.1, "gt_miss_pct": 1.0, "median_log10": -8.0},
}

# solves_per_s and latency_p50_us are measured on every run but carry no
# regression bound, so they are printed in the details line (the p50 also
# as the per-layer trace.untraced_p50_us) rather than here.  On a shared 2-vCPU
# VM the host alternates for seconds to minutes between two speeds about
# 1.6x apart; that moved the single-stream median and throughput by up to
# 35% between runs, while the p95, set by the slower speed, moved by about
# 10%.
UNBOUNDED = ("solves_per_s", "latency_p50_us")
E2E_UNITS = {
    "latency_p95_us": "us",
    "solved_pct": "%",
    "gt_match_pct": "%",
    "residual_digits_median": "digits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "problems.build.p50_us": "us",
    "problems.original_equations.p50_us": "us",
    "problems.generate_instance.p50_us": "us",
    "spectral.batched_eval.p50_us": "us",
    "spectral.recover_coefficients.p50_us": "us",
    "matrixpoly.det_complex.samples.p50_us": "us",
    "matrixpoly.det_complex.samples.matrices_per_solve": "count",
    "matrixpoly.det_complex.cramer.us_per_solve": "us",
    "matrixpoly.det_complex.cramer.calls_per_solve": "count",
    "matrixpoly.evaluate_at.us_per_solve": "us",
    "rootfind.roots.p50_us": "us",
    "rootfind.real_candidates.count_per_solve": "count",
    "poly.max_abs_residual.us_per_solve": "us",
    "poly.max_abs_residual.calls_per_solve": "count",
    "recover.solve_online.p50_us": "us",
    "recover.solve_online.self_us": "us",
    "recover.accept_ratio": "ratio",
    "recover.fail_pct": "%",
    "recover.fail_solve_error_pct": "%",
    "recover.fail_no_root_pct": "%",
    "recover.gt_miss_pct": "%",
    "offline.detect_degree_s": "s",
    "offline.find_deletion_pair_s": "s",
    "cli.solve_online.p50_us": "us",
    "cli.run_bench.self_s": "s",
    "trace.overhead_solves_per_s": "1/s",
    "trace.untraced_p50_us": "us",
    "trace.missing_names": "count",
}


# --- inputs and output checks ----------------------------------------------


def instances(problem, seed: int, count: int) -> list:
    """[(data, ground truths)] for instance indices 0..count-1."""
    return [problem.generate_instance(np.random.default_rng([seed, i])) for i in range(count)]


def solve_or_error(solve, template, data):
    """The solve's SolutionSet, or the SolveError it raised.

    Only SolveError counts as a failed solve; any other exception is a bug
    and propagates.
    """
    try:
        return solve(template, data)
    except recover.SolveError as exc:
        return exc


def outcome(result, gts) -> dict:
    if isinstance(result, recover.SolveError):
        return {"error": True, "failed": True, "residuals": [], "roots": 0, "gt_miss": True}
    xs = [c.x for c in result.accepted]
    gt_miss = any(not xs or min(np.max(np.abs(x - g)) for x in xs) >= GT_TOL for g in gts)
    return {
        "error": False,
        "failed": result.failed,
        "residuals": [c.residual for c in result.accepted],
        "roots": len(xs),
        "gt_miss": gt_miss,
    }


def same_result(a, b) -> bool:
    """Bitwise equality of two solve results (or two SolveErrors)."""
    if isinstance(a, recover.SolveError) or isinstance(b, recover.SolveError):
        return type(a) is type(b) and str(a) == str(b)
    return len(a.accepted) == len(b.accepted) and all(
        ca.residual == cb.residual and np.array_equal(ca.x, cb.x)
        for ca, cb in zip(a.accepted, b.accepted)
    )


def quality(outcomes: list) -> dict:
    """Deterministic output statistics over distinct instances."""
    n = len(outcomes)
    errors = sum(o["error"] for o in outcomes)
    no_root = sum(o["failed"] and not o["error"] for o in outcomes)
    misses = sum(o["gt_miss"] for o in outcomes)
    residuals = [r for o in outcomes for r in o["residuals"]]
    roots = [o["roots"] for o in outcomes if not o["error"]]
    logs = _log10_residuals(residuals)
    return {
        "instances": n,
        "failures": errors + no_root,
        "gt_misses": misses,
        "fail_pct": 100.0 * (errors + no_root) / n,
        "fail_solve_error_pct": 100.0 * errors / n,
        "fail_no_root_pct": 100.0 * no_root / n,
        "gt_miss_pct": 100.0 * misses / n,
        "median_log10": float(np.median(logs)) if logs.size else 0.0,
        "mean_log10": float(np.mean(logs)) if logs.size else 0.0,
        "mean_roots": fmean(roots) if roots else 0.0,
        "max_residual": max(residuals, default=0.0),
    }


def rate_above(count: int, n: int, limit_pct: float) -> bool:
    """Whether `count` events in `n` trials put the true rate above limit_pct.

    One-sided binomial test: true when seeing `count` or more events would
    have probability below GATE_ALPHA at a true rate equal to the limit.  A
    limit of 0 allows no event.
    """
    p = limit_pct / 100.0
    if p == 0.0:
        return count > 0
    if count <= n * p:
        return False
    log_c = math.lgamma(n + 1)
    tail = sum(
        math.exp(log_c - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                 + j * math.log(p) + (n - j) * math.log1p(-p))
        for j in range(count, n + 1)
    )
    return tail < GATE_ALPHA


def gate(problem_id: str, q: dict) -> list:
    """Reasons the outputs are wrong; empty when they pass."""
    limits = LIMITS[problem_id]
    n = q["instances"]
    reasons = []
    if q["max_residual"] > recover.RESIDUAL_FAIL_THRESHOLD:
        reasons.append(f"accepted residual {q['max_residual']:.3g} above threshold")
    if rate_above(q["failures"], n, limits["fail_pct"]):
        reasons.append(f"{q['failures']} of {n} failed: rate above {limits['fail_pct']}%")
    if rate_above(q["gt_misses"], n, limits["gt_miss_pct"]):
        reasons.append(f"{q['gt_misses']} of {n} missed ground truth: rate above {limits['gt_miss_pct']}%")
    if q["median_log10"] > limits["median_log10"]:
        reasons.append(f"median log10 residual {q['median_log10']:.3g} > {limits['median_log10']}")
    return reasons


# --- timed loops -------------------------------------------------------------


class Builds:
    """Template builds timed at even intervals over a timed loop.

    The loop calls tick() after each operation, and `count` builds fall
    due over `seconds`, so the builds sample the machine's speed over the
    whole run as the loop does.  setup_s is the SETUP_PERCENTILE of their
    wall times.
    """

    def __init__(self, build, count: int, seconds: float):
        self.build, self.count, self.step = build, count, seconds / count
        self.times: list = []
        self.due = time.perf_counter()

    def tick(self, now: float) -> float:
        """Run the builds due by `now`; return the seconds they took."""
        start = time.perf_counter()
        while len(self.times) < self.count and now >= self.due:
            self.run_one()
            self.due += self.step
        return time.perf_counter() - start

    def run_one(self) -> None:
        start = time.perf_counter()
        self.build()
        self.times.append(time.perf_counter() - start)

    def setup_s(self) -> float:
        while len(self.times) < self.count:  # the loop ended before they fell due
            self.run_one()
        return float(np.percentile(self.times, SETUP_PERCENTILE))


def solve_loop(solve, template, pool: list, order, seconds: float, first: list,
               tick=None) -> dict:
    """Closed loop over the pool for `seconds`, taking indices from `order`.

    first[k] receives the result of instance k's first solve; a later solve
    of the same instance must match it bitwise.  tick(now), if given, runs
    after each solve; the time it takes does not count against throughput.
    """
    latencies = []
    windows = []
    failed = mismatches = 0
    i = 0
    start = window_start = time.perf_counter()
    window_first = 0
    deadline = start + seconds
    while True:
        k = next(order)
        t0 = time.perf_counter()
        result = solve_or_error(solve, template, pool[k][0])
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if first[k] is None:
            first[k] = result
        elif not same_result(first[k], result):
            mismatches += 1
        failed += isinstance(result, recover.SolveError) or result.failed
        i += 1
        if t1 - window_start >= WINDOW_S:
            windows.append((i - window_first) / (t1 - window_start))
            window_start, window_first = t1, i
        if t1 >= deadline:
            break
        if tick:
            window_start += tick(t1)
    return {
        "rates": windows or [i / (t1 - start)],
        "latencies": latencies,
        "attempted": i,
        "failed": failed,
        "mismatches": mismatches,
    }


def bulk_loop(run_bench, problem_id, trials, seed, jobs, seconds, expected,
              tick=None) -> dict:
    """Closed loop of run_bench calls for `seconds`; each report must equal `expected`."""
    walls = []
    failed = mismatches = 0
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        report, _ = run_bench(problem_id, trials, seed, jobs)
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        failed += round(report.fail_percent * trials / 100.0)
        mismatches += report_fields(report) != expected
        if t1 >= deadline:
            break
        if tick:
            tick(t1)
    return {
        "rates": [trials / w for w in walls],
        "latencies": walls,
        "attempted": trials * len(walls),
        "failed": failed,
        "mismatches": mismatches,
    }


def measure(loop, build, builds: int, seconds: float, trace: bool, tracer: Tracer) -> tuple:
    """(untraced, traced, setup_s) from `loop(seconds, tick)` and `build()`.

    Untraced, `builds` timed builds are spread over the loop.  Traced,
    TRACED_BUILDS builds run under the tracer, then the time is split into
    TRACE_CHUNKS chunks that alternate untraced and traced, so drift in the
    machine's speed affects both sides alike.
    """
    if not trace:
        timer = Builds(build, builds, seconds)
        untraced = merge([loop(seconds, timer.tick)])
        return untraced, None, timer.setup_s()
    with tracer.active():
        for _ in range(TRACED_BUILDS):
            build()
    untraced, traced = [], []
    for c in range(TRACE_CHUNKS):
        if c % 2:
            with tracer.active():
                traced.append(loop(seconds / TRACE_CHUNKS, None))
        else:
            untraced.append(loop(seconds / TRACE_CHUNKS, None))
    return merge(untraced), merge(traced), None


def merge(loops: list) -> dict:
    return {
        "solves_per_s": median(r for loop in loops for r in loop["rates"]),
        "latencies": [t for loop in loops for t in loop["latencies"]],
        "attempted": sum(loop["attempted"] for loop in loops),
        "failed": sum(loop["failed"] for loop in loops),
        "mismatches": sum(loop["mismatches"] for loop in loops),
    }


def report_fields(report) -> tuple:
    return (
        report.fail_percent,
        report.median_log10_residual,
        report.mean_log10_residual,
        report.mean_roots,
    )


# --- workloads ---------------------------------------------------------------


def run_single(problem_id, seed, seconds, trace, pool_size=None) -> dict:
    problem = get_problem(problem_id)
    template = offline.build_template(problem, seed)
    pool = instances(problem, seed, pool_size or POOL_SIZE[problem_id])
    for data, _ in pool[:WARMUP_SOLVES]:
        solve_or_error(recover.solve_online, template, data)

    first = [None] * len(pool)
    order = itertools.cycle(range(len(pool)))  # shared by all chunks
    tracer = Tracer()
    untraced, traced, setup_s = measure(
        # looked up per chunk: the tracer replaces recover.solve_online
        lambda sec, tick: solve_loop(recover.solve_online, template, pool, order, sec, first, tick),
        lambda: offline.build_template(problem, seed),
        BUILD_REPEATS[problem_id], seconds, trace, tracer,
    )
    for i, result in enumerate(first):  # the loop did not reach every instance
        if result is None:
            first[i] = solve_or_error(recover.solve_online, template, pool[i][0])
    q = quality([outcome(r, gts) for r, (_, gts) in zip(first, pool)])
    return finish(problem_id, setup_s, q, untraced, traced, tracer)


def run_bulk(seed, seconds, trace, trials=BULK_TRIALS) -> dict:
    problem = get_problem(BULK_PROBLEM)
    jobs = len(os.sched_getaffinity(0))
    template = offline.build_template(problem, seed)
    # Reference: the instances every call solves, solved once on one thread.
    # run_bench builds the same template from the same seed, so its report
    # must reproduce these statistics exactly.
    pool = instances(problem, seed, trials)
    q = quality([outcome(solve_or_error(recover.solve_online, template, d), gts) for d, gts in pool])
    expected = (q["fail_pct"], q["median_log10"], q["mean_log10"], q["mean_roots"])

    cli.run_bench(BULK_PROBLEM, 2 * jobs, seed, jobs)  # warm-up
    tracer = Tracer()
    untraced, traced, setup_s = measure(
        lambda sec, tick: bulk_loop(cli.run_bench, BULK_PROBLEM, trials, seed, jobs, sec, expected, tick),
        lambda: offline.build_template(problem, seed),
        BUILD_REPEATS[BULK_PROBLEM], seconds, trace, tracer,
    )
    return finish(BULK_PROBLEM, setup_s, q, untraced, traced, tracer)


def finish(problem_id, setup_s, q, untraced, traced, tracer) -> dict:
    """Result dict: correctness, counts, end-to-end and (traced) layer metrics."""
    reasons = gate(problem_id, q)
    loops = [untraced] + ([traced] if traced else [])
    mismatches = sum(loop["mismatches"] for loop in loops)
    if mismatches:
        reasons.append(f"{mismatches} repeated runs differ from the first")
    lat_us = np.asarray(untraced["latencies"]) * 1e6
    e2e = {
        "solves_per_s": untraced["solves_per_s"],
        "latency_p50_us": float(np.percentile(lat_us, 50)),
        "latency_p95_us": float(np.percentile(lat_us, 95)),
        "solved_pct": 100.0 - q["fail_pct"],
        "gt_match_pct": 100.0 - q["gt_miss_pct"],
        "residual_digits_median": -q["median_log10"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out = {
        "correct": not reasons,
        "reasons": reasons,
        "attempted": sum(loop["attempted"] for loop in loops),
        "failed": sum(loop["failed"] for loop in loops),
        "quality": q,
        "samples": len(lat_us),
        "e2e": e2e,
    }
    if traced is not None:
        out["layers"] = layer_metrics(tracer, q, untraced, traced)
        out["missing"] = tracer.missing
        out["tracer"] = tracer
    return out


def layer_metrics(tracer: Tracer, q: dict, untraced: dict, traced: dict) -> dict:
    solves, totals = tracer.per_solve()
    ids = [s.solve_id for s in solves]
    kids = tracer.children()

    def total(name, field=0):  # per-solve sums of one span name
        by_solve = totals.get(name, {})
        return [by_solve.get(i, (0.0, 0, 0))[field] for i in ids]

    def durations(name):
        return [s.duration for s in tracer.spans if s.name == name]

    real = sum(total("rootfind.real_candidates", 1))
    accepted = sum(s.count for s in solves)
    return {
        "problems.build.p50_us": median(total("problems.build")) * 1e6,
        "problems.original_equations.p50_us": median(total("problems.original_equations")) * 1e6,
        "problems.generate_instance.p50_us": median(durations("problems.generate_instance")) * 1e6,
        "spectral.batched_eval.p50_us": median(total("spectral.batched_eval")) * 1e6,
        "spectral.recover_coefficients.p50_us": median(total("spectral.recover_coefficients")) * 1e6,
        "matrixpoly.det_complex.samples.p50_us": median(total("matrixpoly.det_complex.samples")) * 1e6,
        "matrixpoly.det_complex.samples.matrices_per_solve": fmean(total("matrixpoly.det_complex.samples", 1)),
        "matrixpoly.det_complex.cramer.us_per_solve": median(total("matrixpoly.det_complex.cramer")) * 1e6,
        "matrixpoly.det_complex.cramer.calls_per_solve": fmean(total("matrixpoly.det_complex.cramer", 2)),
        "matrixpoly.evaluate_at.us_per_solve": median(total("matrixpoly.evaluate_at")) * 1e6,
        "rootfind.roots.p50_us": median(total("rootfind.roots")) * 1e6,
        "rootfind.real_candidates.count_per_solve": fmean(total("rootfind.real_candidates", 1)),
        "poly.max_abs_residual.us_per_solve": median(total("poly.max_abs_residual")) * 1e6,
        "poly.max_abs_residual.calls_per_solve": fmean(total("poly.max_abs_residual", 2)),
        "recover.solve_online.p50_us": median(s.duration for s in solves) * 1e6,
        "recover.solve_online.self_us": median(self_time(s, kids.get(s.span_id, [])) for s in solves) * 1e6,
        "recover.accept_ratio": accepted / real if real else 0.0,
        "recover.fail_pct": q["fail_pct"],
        "recover.fail_solve_error_pct": q["fail_solve_error_pct"],
        "recover.fail_no_root_pct": q["fail_no_root_pct"],
        "recover.gt_miss_pct": q["gt_miss_pct"],
        "offline.detect_degree_s": median(durations("offline.detect_degree")),
        "offline.find_deletion_pair_s": median(durations("offline.find_deletion_pair")),
        "cli.solve_online.p50_us": median(durations("cli.solve_online")) * 1e6,
        "cli.run_bench.self_s": median(
            self_time(s, kids.get(s.span_id, [])) for s in tracer.spans if s.name == "cli.run_bench"
        ),
        "trace.overhead_solves_per_s": traced["solves_per_s"] - untraced["solves_per_s"],
        "trace.untraced_p50_us": float(np.percentile(untraced["latencies"], 50)) * 1e6,
        "trace.missing_names": len(tracer.missing),
    }


# --- command line ------------------------------------------------------------


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not Path(recover.__file__).resolve().is_relative_to(SRC):
        parser.error(f"resultant_solve was not imported from {SRC}")

    facts = machine_facts()
    if args.workload == "five_point_bulk":
        res = run_bulk(args.seed, args.seconds, args.trace)
    else:
        res = run_single(args.workload, args.seed, args.seconds, args.trace)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    values = res["layers"] if args.trace else res["e2e"]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        res["tracer"].write_jsonl(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    details = {
        "workload": args.workload,
        "machine": facts,
        "reasons": res["reasons"],
        "quality": res["quality"],
        "timed_samples": res["samples"],
        "unbounded": {k: res["e2e"][k] for k in UNBOUNDED},
        "missing_names": res.get("missing", []),
    }
    print("details " + json.dumps(details))
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
