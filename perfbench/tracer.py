"""Outside tracer: times each solver layer by wrapping the names it looks up.

The solver calls its layers through module-level names (``recover`` looks
up ``det_complex``, ``roots``, ``get_problem`` and so on; ``cli`` looks up
``solve_online``, ``build_template`` and ``get_problem``; ``offline``
looks up ``detect_degree`` and ``find_deletion_pair``).  ``Tracer.active()``
replaces those names with timing wrappers and puts the originals back on
exit, so the program itself is never edited and an untraced run pays
nothing.  A name that no longer exists is skipped and listed in
``Tracer.missing``.

Spans stay in memory: each holds its name, start and end, the span that
caused it, and the id of the solve it belongs to.  ``write_jsonl`` writes
them out once the run has ended.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

# Spans named here start a new solve id; every span they cause shares it.
SOLVE_SPANS = ("recover.solve_online", "cli.solve_online")


def _det_detail(args, result):
    m = args[0]
    if getattr(m, "ndim", 2) == 3:
        return ".samples", m.shape[0]  # the (k+1, N, N) sample stack
    return ".cramer", 1


def _len_detail(args, result):
    return "", len(result)


def _accepted_detail(args, result):
    return "", len(result.accepted)


@dataclass(frozen=True)
class Target:
    """One looked-up name: ``attr`` may be ``Class.method``."""

    module: str
    attr: str
    span: str
    # (args, result) -> (span-name suffix, work count); default ("", 1),
    # and ("", 0) when the call raised
    detail: Optional[Callable] = None


TARGETS = (
    Target("resultant_solve.recover", "solve_online", "recover.solve_online", _accepted_detail),
    Target("resultant_solve.recover", "batched_eval", "spectral.batched_eval"),
    Target(
        "resultant_solve.recover", "recover_coefficients", "spectral.recover_coefficients"
    ),
    Target("resultant_solve.recover", "det_complex", "matrixpoly.det_complex", _det_detail),
    Target("resultant_solve.recover", "evaluate_at", "matrixpoly.evaluate_at"),
    Target("resultant_solve.recover", "roots", "rootfind.roots"),
    Target(
        "resultant_solve.recover", "real_candidates", "rootfind.real_candidates", _len_detail
    ),
    Target("resultant_solve.poly", "PolynomialSystem.max_abs_residual", "poly.max_abs_residual"),
    Target("resultant_solve.offline", "detect_degree", "offline.detect_degree"),
    Target("resultant_solve.offline", "find_deletion_pair", "offline.find_deletion_pair"),
    Target("resultant_solve.cli", "run_bench", "cli.run_bench"),
    Target("resultant_solve.cli", "solve_online", "cli.solve_online", _accepted_detail),
    Target("resultant_solve.cli", "build_template", "offline.build_template"),
)

# get_problem is patched to hand out a copy of the Problem whose callables
# are wrapped; the registered Problem objects themselves are never touched.
PROBLEM_LOOKUPS = (
    ("resultant_solve.recover", "get_problem"),
    ("resultant_solve.cli", "get_problem"),
)
PROBLEM_FIELDS = ("build", "original_equations", "generate_instance")


class Span(NamedTuple):
    span_id: int
    parent: Optional[int]
    solve_id: Optional[int]
    name: str
    start: float
    end: float
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, targets=TARGETS, problem_lookups=PROBLEM_LOOKUPS):
        self.targets = targets
        self.problem_lookups = problem_lookups
        self.spans: list = []
        self.missing: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._outer = None  # open span that parents spans of fresh threads
        self._outer_lock = threading.Lock()
        self._problems: dict = {}

    # --- span recording --------------------------------------------------

    def wrap(self, fn: Callable, name: str, detail: Optional[Callable] = None):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        tracer = self
        is_solve = name in SOLVE_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            outermost = False
            if stack:
                parent = stack[-1]
            else:
                with tracer._outer_lock:
                    parent = tracer._outer
                    outermost = parent is None
                    if outermost:
                        tracer._outer = (span_id, span_id if is_solve else None)
            solve_id = span_id if is_solve else (parent[1] if parent else None)
            stack.append((span_id, solve_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end, suffix, count = clock(), "", 0
                raise
            else:
                end = clock()
                suffix, count = detail(args, result) if detail else ("", 1)
                return result
            finally:
                stack.pop()
                if outermost:
                    tracer._outer = None
                spans.append(
                    Span(span_id, parent[0] if parent else None, solve_id,
                         name + suffix, start, end, count)
                )

        return traced

    def _traced_problem(self, problem):
        copy = self._problems.get(problem.problem_id)
        if copy is None:
            wrapped = {}
            for f in PROBLEM_FIELDS:
                if hasattr(problem, f):
                    wrapped[f] = self.wrap(getattr(problem, f), f"problems.{f}")
                elif f"Problem.{f}" not in self.missing:
                    self.missing.append(f"Problem.{f}")
            copy = self._problems[problem.problem_id] = dataclasses.replace(
                problem, **wrapped
            )
        return copy

    # --- patching --------------------------------------------------------

    @staticmethod
    def _resolve(module: str, attr: str):
        """(owner, name, original) for module:attr, or None when missing."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        original = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if original is None:
            return None
        return owner, name, original

    @contextlib.contextmanager
    def active(self):
        """Patch every target for the duration of the block, then restore."""
        patched = []
        self.missing = []
        self._problems = {}
        try:
            for t in self.targets:
                found = self._resolve(t.module, t.attr)
                if found is None:
                    self.missing.append(f"{t.module}:{t.attr}")
                    continue
                owner, name, original = found
                setattr(owner, name, self.wrap(original, t.span, t.detail))
                patched.append((owner, name, original))
            for module, attr in self.problem_lookups:
                found = self._resolve(module, attr)
                if found is None:
                    self.missing.append(f"{module}:{attr}")
                    continue
                owner, name, original = found
                lookup = functools.wraps(original)(
                    lambda pid, _orig=original: self._traced_problem(_orig(pid))
                )
                setattr(owner, name, lookup)
                patched.append((owner, name, original))
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    # --- aggregation -----------------------------------------------------

    def children(self) -> dict:
        kids: dict = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def per_solve(self) -> tuple:
        """(solve spans, {name: {solve_id: [seconds, count, calls]}}).

        Covers every span a solve caused, except the solve span itself.
        """
        solves = [s for s in self.spans if s.name in SOLVE_SPANS]
        totals: dict = {}
        for s in self.spans:
            if s.solve_id is None or s.span_id == s.solve_id:
                continue
            entry = totals.setdefault(s.name, {}).setdefault(s.solve_id, [0.0, 0, 0])
            entry[0] += s.duration
            entry[1] += s.count
            entry[2] += 1
        return solves, totals

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_time(span: Span, children: list) -> float:
    """Span duration minus the part of it that its children's intervals cover."""
    covered = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, span.start), min(c.end, span.end)
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.duration - covered


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
