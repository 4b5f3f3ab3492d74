"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and measured numbers.
"""

import ast
import pathlib
import time

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

import resultant_solve
from exact_oracles import det_poly_exact, sample_points
from resultant_solve.cli import run_bench
from resultant_solve.matrixpoly import det_complex, evaluate_at
from resultant_solve.problems import get_problem
from resultant_solve.recover import SolveError, solve_online
from resultant_solve.rootfind import roots
from resultant_solve.spectral import batched_eval, recover_coefficients

SRC = pathlib.Path(resultant_solve.__file__).parent


def _report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_conic_stability():
    start = time.perf_counter()
    report, _ = run_bench("conic", 5000, seed=1, jobs=1)
    elapsed = time.perf_counter() - start
    ok = (
        report.fail_percent == 0.0
        and report.median_log10_residual <= -10.0
        and elapsed < 30.0
    )
    _report(
        1,
        ok,
        f"conic 5000 trials: fail={report.fail_percent}% "
        f"median log10={report.median_log10_residual:.2f} "
        f"bench wall time={elapsed:.1f}s (limits: 0%, -10, 30s)",
    )


def test_criterion_2_five_point_stability(five_point_template):
    problem = get_problem("five_point")
    trials = 1000
    failures = 0
    matched = 0
    residuals = []
    for i in range(trials):
        data, gts = problem.generate_instance(np.random.default_rng([21, i]))
        try:
            result = solve_online(five_point_template, data)
        except SolveError:
            failures += 1
            continue
        if result.failed:
            failures += 1
            continue
        residuals.extend(c.residual for c in result.accepted)
        best = min(np.max(np.abs(c.x - gts[0])) for c in result.accepted)
        if best < 1e-6:
            matched += 1
    fail_percent = 100.0 * failures / trials
    median = float(np.median(np.log10(np.maximum(residuals, 1e-300))))
    match_rate = 100.0 * matched / trials
    ok = fail_percent <= 0.1 and median <= -8.0 and match_rate >= 99.0
    _report(
        2,
        ok,
        f"five_point {trials} trials: fail={fail_percent:.2f}% "
        f"median log10={median:.2f} ground-truth match={match_rate:.1f}% "
        f"(limits: 0.1%, -8, 99%)",
    )


def test_criterion_3_solution_counts(conic_template, five_point_template):
    def sizes(template):
        problem = get_problem(template.problem_id)
        return len(problem.basis), template.k, problem.expected_solutions

    got_conic, got_five = sizes(conic_template), sizes(five_point_template)
    ok = got_conic == (4, 4, 4) and got_five == (10, 10, 10)
    _report(
        3,
        ok,
        f"templates: conic (N,k,r)={got_conic} five_point (N,k,r)={got_five} "
        f"(expected (4,4,4) and (10,10,10))",
    )


def test_criterion_4_ifft_determinant_oracle():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 9))
        d = int(rng.integers(0, 4))
        stack = rng.integers(-5, 6, size=(d + 1, n, n)).astype(float)
        exact = det_poly_exact(stack)
        if not exact:
            continue  # identically zero determinant: nothing to compare
        k = n * d
        got = recover_coefficients(det_complex(batched_eval(stack, k)))
        padded = np.zeros(k + 1)
        padded[: len(exact)] = exact
        mask = np.abs(padded) > 1e-12 * np.abs(padded).max()
        rel = np.abs(got[mask] - padded[mask]) / np.abs(padded[mask])
        worst = max(worst, float(rel.max()))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _report(
        4,
        ok,
        f"200 integer matrices N<=8 d<=3: max rel coeff error={worst:.2e} "
        f"in {elapsed:.1f}s (limits: 1e-9, 10s)",
    )


def test_criterion_5_fft_round_trip():
    rng = np.random.default_rng(5)
    worst_coeff = 0.0
    worst_parseval = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 65))
        coeffs = rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)
        samples = polyval(sample_points(k), coeffs)
        got = recover_coefficients(samples)
        worst_coeff = max(worst_coeff, float(np.max(np.abs(got - coeffs))))
        lhs = float(np.sum(np.abs(samples) ** 2))
        rhs = float((k + 1) * np.sum(np.abs(coeffs) ** 2))
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / rhs)
    ok = worst_coeff < 1e-12 and worst_parseval < 1e-10
    _report(
        5,
        ok,
        f"1000 round trips deg<=64: max coeff error={worst_coeff:.2e} "
        f"max Parseval error={worst_parseval:.2e} (limits: 1e-12, 1e-10)",
    )


def test_criterion_6_root_finder():
    rng = np.random.default_rng(6)

    # matched-root accuracy on well-separated known roots
    worst_match = 0.0
    for _ in range(100):
        deg = int(rng.integers(2, 21))
        while True:
            vals = rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)
            sep = min(
                abs(vals[i] - vals[j])
                for i in range(deg)
                for j in range(i + 1, deg)
            )
            if sep > 1e-2:
                break
        coeffs = np.array([1.0 + 0j])
        for r in vals:
            coeffs = np.convolve(coeffs, [-r, 1.0])
        found = list(roots(coeffs))
        for e in vals:
            dists = [abs(f - e) for f in found]
            idx = int(np.argmin(dists))
            worst_match = max(worst_match, dists[idx])
            found.pop(idx)

    # conjugate closure and degree count on random real polynomials
    invariants_hold = True
    for _ in range(1000):
        deg = int(rng.integers(1, 21))
        c = rng.standard_normal(deg + 1)
        if c[-1] == 0.0:
            c[-1] = 1.0
        got = roots(c + 0j)
        if len(got) != deg:
            invariants_hold = False
            break
        for z in got:
            if min(abs(got - np.conj(z))) > 1e-9 * (1.0 + abs(z)):
                invariants_hold = False
                break
    ok = worst_match < 1e-7 and invariants_hold
    _report(
        6,
        ok,
        f"root finder: max matched error={worst_match:.2e} (limit 1e-7), "
        f"conjugate/degree invariants on 1000 polynomials: {invariants_hold}",
    )


def test_criterion_7_rank_deficiency_witness(conic_template, five_point_template):
    worst_full = 0.0
    worst_sub = 1.0
    for template, pid in (
        (conic_template, "conic"),
        (five_point_template, "five_point"),
    ):
        problem = get_problem(pid)
        i, j = template.deletion_pair
        for seed in range(100):
            data, _ = problem.generate_instance(np.random.default_rng([31, seed]))
            stack = problem.build(problem.original_equations(data))
            result = solve_online(template, data)
            for cand in result.accepted:
                m = evaluate_at(stack, cand.x[-1])
                sigma = np.linalg.svd(m, compute_uv=False)
                worst_full = max(worst_full, sigma[-1] / sigma[0])
                sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
                sub_sigma = np.linalg.svd(sub, compute_uv=False)
                worst_sub = min(worst_sub, sub_sigma[-1] / sub_sigma[0])
    ok = worst_full < 1e-6 and worst_sub > 1e-8
    _report(
        7,
        ok,
        f"rank-1 deficiency at accepted roots (100 instances/problem): "
        f"max full-matrix ratio={worst_full:.2e} (< 1e-6), "
        f"min submatrix ratio={worst_sub:.2e} (> 1e-8)",
    )


def test_criterion_8_inversion_free_audit():
    # the library may only reach determinant-returning linear algebra;
    # svd only finds the five_point nullspace basis and builds instances,
    # and eigvals roots the companion; every module is read, so that a new
    # one cannot slip past the audit
    forbidden = {"inv", "pinv", "solve", "lstsq", "tensorsolve", "tensorinv"}
    modules = sorted(SRC.rglob("*.py"))
    assert SRC / "problems" / "base.py" in modules
    offenders = []
    for path in modules:
        name = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in forbidden:
                offenders.append(f"{name}:{node.lineno} .{node.attr}")
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in forbidden:
                        offenders.append(f"{name}:{node.lineno} import {alias.name}")
    ok = not offenders
    _report(
        8,
        ok,
        f"{len(modules)} library modules free of inverse/solve operations"
        + (f"; offenders: {offenders}" if offenders else ""),
    )


def test_criterion_9_runtime_sanity(conic_template, five_point_template):
    conic = get_problem("conic")
    conic_data = [
        conic.generate_instance(np.random.default_rng([41, i]))[0] for i in range(300)
    ]
    solve_online(conic_template, conic_data[0])  # warm caches
    start = time.perf_counter()
    for data in conic_data:
        solve_online(conic_template, data)
    conic_ms = (time.perf_counter() - start) / len(conic_data) * 1e3

    five = get_problem("five_point")
    five_data = [
        five.generate_instance(np.random.default_rng([42, i]))[0] for i in range(200)
    ]
    solve_online(five_point_template, five_data[0])
    start = time.perf_counter()
    for data in five_data:
        solve_online(five_point_template, data)
    five_ms = (time.perf_counter() - start) / len(five_data) * 1e3

    ok = conic_ms < 1.0 and five_ms < 5.0
    _report(
        9,
        ok,
        f"mean solve time: conic={conic_ms:.3f}ms (< 1ms) "
        f"five_point={five_ms:.3f}ms (< 5ms), single-threaded",
    )
