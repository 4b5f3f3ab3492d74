"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import run
from resultant_solve import build_template
from resultant_solve.problems import get_problem
from tracer import Target, Tracer

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
DETERMINISTIC = ("fail_pct", "gt_miss_pct", "median_log10", "mean_log10", "mean_roots")


def _originals(tracer):
    found = [tracer._resolve(t.module, t.attr) for t in tracer.targets]
    found += [tracer._resolve(m, a) for m, a in tracer.problem_lookups]
    return [(owner, name, original) for owner, name, original in found]


@pytest.mark.parametrize("problem_id", ["conic", "five_point"])
def test_same_seed_same_instances_and_metrics(problem_id, monkeypatch):
    monkeypatch.setattr(run, "BUILD_REPEATS", {"conic": 1, "five_point": 1})
    problem = get_problem(problem_id)
    a = run.instances(problem, 5, 30)
    b = run.instances(problem, 5, 30)
    for (da, ga), (db, gb) in zip(a, b):
        assert problem.data_to_json(da) == problem.data_to_json(db)
        assert all(np.array_equal(x, y) for x, y in zip(ga, gb))
    first = run.run_single(problem_id, 5, 0.05, trace=False, pool_size=30)
    second = run.run_single(problem_id, 5, 0.05, trace=False, pool_size=30)
    assert first["correct"] and second["correct"], (first["reasons"], second["reasons"])
    for key in DETERMINISTIC:
        assert first["quality"][key] == second["quality"][key]
    assert first["e2e"]["residual_digits_median"] == second["e2e"]["residual_digits_median"]


def test_bulk_matches_single_thread_reference(monkeypatch):
    monkeypatch.setattr(run, "BUILD_REPEATS", {"conic": 1, "five_point": 1})
    res = run.run_bulk(3, 0.01, trace=False, trials=6)
    assert res["correct"], res["reasons"]
    assert res["attempted"] % 6 == 0


@pytest.mark.parametrize("problem_id", ["conic", "five_point"])
def test_traced_solve_is_bitwise_identical(problem_id):
    problem = get_problem(problem_id)
    template = build_template(problem, 7)
    pool = run.instances(problem, 11, 10)
    plain = [run.solve_or_error(run.recover.solve_online, template, d) for d, _ in pool]
    tracer = Tracer()
    with tracer.active():
        traced = [run.solve_or_error(run.recover.solve_online, template, d) for d, _ in pool]
    assert all(run.same_result(p, t) for p, t in zip(plain, traced))
    solves, totals = tracer.per_solve()
    assert len(solves) == len(pool)
    assert "matrixpoly.det_complex.samples" in totals
    assert "problems.original_equations" in totals


def test_patched_names_restored_even_after_error():
    tracer = Tracer()
    before = _originals(tracer)
    assert before and all(original is not None for _, _, original in before)
    with pytest.raises(RuntimeError):
        with tracer.active():
            for owner, name, original in before:
                assert getattr(owner, name) is not original
            raise RuntimeError("boom")
    for owner, name, original in before:
        assert getattr(owner, name) is original
    assert tracer.missing == []


def test_missing_names_are_listed_not_fatal():
    targets = (
        Target("resultant_solve.no_such_module", "f", "x.f"),
        Target("resultant_solve.recover", "no_such_name", "x.g"),
        Target("resultant_solve.poly", "NoSuchClass.method", "x.h"),
        Target("resultant_solve.recover", "roots", "rootfind.roots"),
    )
    tracer = Tracer(targets=targets, problem_lookups=())
    with tracer.active():
        pass
    assert tracer.missing == [
        "resultant_solve.no_such_module:f",
        "resultant_solve.recover:no_such_name",
        "resultant_solve.poly:NoSuchClass.method",
    ]


def test_spans_nest_under_their_solve():
    problem = get_problem("conic")
    template = build_template(problem, 7)
    (data, _), = run.instances(problem, 2, 1)
    tracer = Tracer()
    with tracer.active():
        run.recover.solve_online(template, data)
    (solve,) = [s for s in tracer.spans if s.name == "recover.solve_online"]
    others = [s for s in tracer.spans if s is not solve]
    assert others and all(s.solve_id == solve.span_id for s in others)
    assert all(s.parent == solve.span_id for s in others)
    assert all(solve.start <= s.start <= s.end <= solve.end for s in others)


def test_builds_all_run_and_spread_over_the_loop():
    calls = []
    timer = run.Builds(lambda: calls.append(1), 5, 10.0)
    timer.tick(timer.due)  # the first build is due at once
    assert len(calls) == 1
    timer.tick(timer.due - 1.0)  # the next is not due yet
    assert len(calls) == 1
    assert timer.setup_s() >= 0.0 and len(calls) == len(timer.times) == 5


def test_benchmark_json_names_match_printed_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_rate_gate_is_a_binomial_test_against_the_limit():
    assert not run.rate_above(48, 3000, 1.0)  # 1.6%: within noise of 1%
    assert run.rate_above(49, 3000, 1.0)
    assert not run.rate_above(30, 3000, 1.0)
    assert run.rate_above(1, 2000, 0.0)  # a 0% limit allows no event
    assert not run.rate_above(0, 2000, 0.0)
    q = {"instances": 3000, "failures": 0, "gt_misses": 60, "max_residual": 1e-9,
         "median_log10": -12.0}
    assert run.gate("five_point", q) == ["60 of 3000 missed ground truth: rate above 1.0%"]


def test_spans_from_many_threads_keep_their_own_parents():
    tracer = Tracer(targets=(), problem_lookups=())
    inner = tracer.wrap(lambda x: x, "inner")
    outer = tracer.wrap(lambda x: inner(x), "recover.solve_online")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(outer, range(2000), timeout=60)) == list(range(2000))
    finally:
        sys.setswitchinterval(old)
    by_id = {s.span_id: s for s in tracer.spans}
    assert len(tracer.spans) == len(by_id) == 4000
    for s in tracer.spans:
        if s.name == "inner":
            parent = by_id[s.parent]
            assert parent.name == "recover.solve_online"
            assert s.solve_id == parent.span_id
            assert parent.start <= s.start <= s.end <= parent.end
