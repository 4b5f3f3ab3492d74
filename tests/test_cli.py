import hashlib
import json
import math
import multiprocessing
import os
import statistics
import subprocess
import sys
import textwrap
from concurrent.futures import Future

import numpy as np
import pytest

from resultant_solve import cli
from resultant_solve.offline import TemplateError, template_to_json
from resultant_solve.problems import get_problem
from resultant_solve.recover import CandidateSolution, SolutionSet


def _set_cpus(monkeypatch, count):
    """Make ``cli`` see ``count`` usable CPUs, from either source it reads."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: count)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestOffline:
    def test_writes_conic_template(self, tmp_path, capsys):
        path = tmp_path / "conic.tpl.json"
        code, _, _ = _run(capsys, ["offline", "conic", "--seed", "7", "-o", str(path)])
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj == {"problem": "conic", "k": 4, "deletion": [0, 3]}

    def test_five_point_template_to_stdout(self, capsys):
        code, out, _ = _run(capsys, ["offline", "five_point", "--seed", "7"])
        assert code == 0
        obj = json.loads(out)
        assert (obj["problem"], obj["k"]) == ("five_point", 10)

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        _run(capsys, ["offline", "conic", "--seed", "3", "-o", str(p1)])
        _run(capsys, ["offline", "conic", "--seed", "3", "-o", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_template_failure_exits_2(self, capsys, monkeypatch):
        def boom(problem, seed):
            raise TemplateError("no valid deletion pair")

        monkeypatch.setattr(cli, "build_template", boom)
        code, _, err = _run(capsys, ["offline", "conic"])
        assert code == 2
        assert "no valid deletion pair" in err


class TestSolve:
    @pytest.fixture()
    def conic_files(self, tmp_path, conic_template):
        problem = get_problem("conic")
        data, gts = problem.generate_instance(np.random.default_rng(1))
        tpl = tmp_path / "conic.tpl.json"
        tpl.write_text(template_to_json(conic_template))
        datafile = tmp_path / "instance.json"
        datafile.write_text(json.dumps(problem.data_to_json(data)))
        return tpl, datafile, gts

    def test_solves_fixture(self, capsys, conic_files):
        tpl, datafile, gts = conic_files
        code, out, _ = _run(capsys, ["solve", "-t", str(tpl), "-d", str(datafile)])
        assert code == 0
        obj = json.loads(out)
        assert not obj["failed"]
        assert len(obj["solutions"]) == 4
        assert all(s["residual"] < 1e-6 for s in obj["solutions"])
        for gt in gts:
            best = min(
                max(abs(a - b) for a, b in zip(s["x"], gt))
                for s in obj["solutions"]
            )
            assert best < 1e-6

    def test_five_point_fixture_matches_ground_truth(
        self, capsys, tmp_path, five_point_template
    ):
        problem = get_problem("five_point")
        data, gts = problem.generate_instance(np.random.default_rng(1))
        tpl = tmp_path / "fp.tpl.json"
        tpl.write_text(template_to_json(five_point_template))
        datafile = tmp_path / "instance.json"
        datafile.write_text(json.dumps(problem.data_to_json(data)))
        code, out, _ = _run(capsys, ["solve", "-t", str(tpl), "-d", str(datafile)])
        assert code == 0
        obj = json.loads(out)
        best = min(
            max(abs(a - b) for a, b in zip(s["x"], gts[0]))
            for s in obj["solutions"]
        )
        assert best < 1e-6

    def test_malformed_json_exits_1(self, capsys, tmp_path, conic_files):
        tpl, _, _ = conic_files
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = _run(capsys, ["solve", "-t", str(tpl), "-d", str(bad)])
        assert code == 1
        assert err.strip()

    def test_missing_file_exits_1(self, capsys, conic_files):
        tpl, _, _ = conic_files
        code, _, err = _run(capsys, ["solve", "-t", str(tpl), "-d", "/nope.json"])
        assert code == 1
        assert err.strip()

    @pytest.mark.parametrize("drop", ["C1", "C2", None])
    def test_conic_data_missing_key_exits_1(self, capsys, tmp_path, conic_files, drop):
        tpl, datafile, _ = conic_files
        obj = json.loads(datafile.read_text())
        if drop is None:
            obj = list(obj.values())  # an array, not an object
        else:
            del obj[drop]
        datafile.write_text(json.dumps(obj))
        code, _, err = _run(capsys, ["solve", "-t", str(tpl), "-d", str(datafile)])
        assert code == 1
        assert err.startswith("error:") and "C2" in err

    def test_five_point_data_missing_key_exits_1(
        self, capsys, tmp_path, five_point_template
    ):
        tpl = tmp_path / "fp.tpl.json"
        tpl.write_text(template_to_json(five_point_template))
        datafile = tmp_path / "instance.json"
        datafile.write_text(json.dumps({"pts_a": [[0.0, 0.0, 1.0]] * 5}))
        code, _, err = _run(capsys, ["solve", "-t", str(tpl), "-d", str(datafile)])
        assert code == 1
        assert err.startswith("error:") and "pts_b" in err

    @pytest.mark.parametrize(
        "pid, key", [("conic", "C1"), ("conic", "C2"), ("five_point", "pts_a")]
    )
    def test_non_numeric_data_exits_1(self, capsys, tmp_path, pid, key, request):
        template = request.getfixturevalue(f"{pid}_template")
        problem = get_problem(pid)
        obj = problem.data_to_json(problem.generate_instance(np.random.default_rng(1))[0])
        obj[key] = {"a": 1}  # an object where a number array belongs
        tpl = tmp_path / "tpl.json"
        tpl.write_text(template_to_json(template))
        datafile = tmp_path / "instance.json"
        datafile.write_text(json.dumps(obj))
        code, _, err = _run(capsys, ["solve", "-t", str(tpl), "-d", str(datafile)])
        assert code == 1
        assert err.startswith("error:") and key in err

    # explicit ids keep each case's name as cases are added or dropped
    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("deletion", [0, -1], id="deletion-value6"),
            ("k", "4"),  # a string for a number
            ("k", 4.5),
            pytest.param("deletion", [0.0, 3.0], id="deletion-value9"),
            ("k", None),  # key missing
            (None, None),  # an array, not an object
            pytest.param("problem", ["conic"], id="problem-value14"),  # not a string
            ("k", 9),  # above N d = 8, the most a 4x4 degree-2 det can reach
            ("k", 3),  # below r = 4
            ("deletion", 3),  # a number, not a pair
            ("problem", "nonesuch"),
        ],
    )
    def test_malformed_template_exits_1(self, capsys, conic_files, key, value):
        tpl, datafile, _ = conic_files
        obj = json.loads(tpl.read_text())
        if key is None:
            obj = list(obj.values())
        elif value is None:
            del obj[key]
        else:
            obj[key] = value
        tpl.write_text(json.dumps(obj))
        code, _, err = _run(capsys, ["solve", "-t", str(tpl), "-d", str(datafile)])
        assert code == 1
        assert err.startswith("error:")

    def test_earlier_format_template_solves_the_same(self, capsys, conic_files):
        # the earlier format's copies of the problem, here with the basis
        # reversed, are not read
        tpl, datafile, _ = conic_files
        argv = ["solve", "-t", str(tpl), "-d", str(datafile)]
        code, want, _ = _run(capsys, argv)
        obj = json.loads(tpl.read_text())
        obj.update(n_vars=2, hidden=1, N=4, r=4, basis=[[0], [1], [2], [3]], recovery={"0": [2, 1]})
        tpl.write_text(json.dumps(obj))
        assert _run(capsys, argv) == (code, want, "") and code == 0


class TestBench:
    def test_csv_deterministic(self, capsys):
        code, out1, _ = _run(capsys, ["bench", "conic", "--trials", "10", "--seed", "1"])
        assert code == 0
        code, out2, _ = _run(capsys, ["bench", "conic", "--trials", "10", "--seed", "1"])
        assert code == 0
        # every column except wall time must reproduce exactly
        def strip_time(text):
            header, row = text.strip().splitlines()
            f = row.split(",")
            return header, f[:5] + f[6:]

        assert strip_time(out1) == strip_time(out2)
        header, row = out1.strip().splitlines()
        assert header == cli.CSV_HEADER
        fields = row.split(",")
        assert fields[0] == "conic" and fields[1] == "10"
        assert float(fields[4]) == 0.0  # fail_pct

    def test_jobs_do_not_change_results(self, capsys):
        _, seq, _ = _run(capsys, ["bench", "conic", "--trials", "8", "--seed", "2"])
        _, par, _ = _run(
            capsys, ["bench", "conic", "--trials", "8", "--seed", "2", "--jobs", "4"]
        )
        # timing column differs; everything else must match
        def strip_time(text):
            header, row = text.strip().splitlines()
            f = row.split(",")
            return header, f[:5] + f[6:]

        assert strip_time(seq) == strip_time(par)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_solve_errors_count_and_other_errors_propagate(self, monkeypatch, jobs):
        # a SolveError is a failed trial; any other exception is a bug and
        # must reach the caller, also from a worker process. The monkeypatch
        # reaches the workers because run_bench forks them on Linux.
        calls = []

        def failing(template, data):
            calls.append(1)
            raise cli.SolveError("degenerate instance: test")

        monkeypatch.setattr(cli, "solve_online", failing)
        report, _ = cli.run_bench("conic", 4, 0, jobs)
        # `calls` sees only this process's trials; the report counts them all
        assert report.trials == 4 and report.fail_percent == 100.0
        if jobs == 1:
            assert len(calls) == 4

        def broken(template, data):
            raise ZeroDivisionError("bug in a trial")

        monkeypatch.setattr(cli, "solve_online", broken)
        with pytest.raises(ZeroDivisionError, match="bug in a trial"):
            cli.run_bench("conic", 4, 0, jobs)

    @pytest.fixture()
    def two_cpus(self, monkeypatch):
        # so that jobs=2 starts a worker process also on a one-CPU machine
        _set_cpus(monkeypatch, 2)

    @staticmethod
    def _untimed(report) -> dict:
        fields = dict(vars(report))
        del fields["mean_time_us"]
        return fields

    @pytest.mark.parametrize("pid", ["conic", "five_point"])
    def test_jobs_do_not_change_reports(self, two_cpus, pid):
        report1, counts1 = cli.run_bench(pid, 24, 5, 1)
        report2, counts2 = cli.run_bench(pid, 24, 5, 2)
        assert self._untimed(report1) == self._untimed(report2)
        assert np.array_equal(counts1, counts2)

    @staticmethod
    def _scripted_residuals(data):
        """What a fake solve of ``data`` does: None raises, else the accepted residuals.

        Keyed on the instance's bytes, not on a call count, so forked
        workers script the same trials as the calling process.
        """
        key = int.from_bytes(hashlib.sha256(data.c1.tobytes()).digest()[:4], "little")
        kind = key % 6
        if kind == 0:
            return None
        return [10.0 ** -((key // 6 + 5 * j) % 16) for j in range(kind - 1)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_report_matches_a_direct_count(self, two_cpus, monkeypatch, jobs):
        # every column but the time, recomputed from the scripted outcomes:
        # a raised trial and a trial that accepts nothing both fail, and
        # mean_roots averages over every trial that did not raise
        def scripted(template, data):
            residuals = self._scripted_residuals(data)
            if residuals is None:
                raise cli.SolveError("degenerate instance: test")
            accepted = tuple(CandidateSolution(np.zeros(2), r) for r in residuals)
            return SolutionSet(accepted, len(accepted), len(accepted))

        monkeypatch.setattr(cli, "solve_online", scripted)
        trials, seed = 60, 4
        problem = get_problem("conic")
        instances = [
            problem.generate_instance(np.random.default_rng([seed, i]))[0] for i in range(trials)
        ]
        outcomes = [self._scripted_residuals(data) for data in instances]
        raised = [o for o in outcomes if o is None]
        empty = [o for o in outcomes if o == []]
        solved = [o for o in outcomes if o is not None]
        assert raised and empty and {len(o) for o in solved} == {0, 1, 2, 3, 4}
        logs = [math.log10(r) for o in solved for r in o]
        best = [math.log10(min(o)) for o in solved if o]

        report, counts = cli.run_bench("conic", trials, seed, jobs)
        assert report.trials == trials
        assert report.fail_percent == pytest.approx(100 * (len(raised) + len(empty)) / trials)
        assert report.mean_roots == pytest.approx(sum(map(len, solved)) / len(solved))
        assert report.mean_log10_residual == pytest.approx(statistics.fmean(logs))
        assert report.median_log10_residual == pytest.approx(statistics.median(logs))
        assert report.best_mean_log10_residual == pytest.approx(statistics.fmean(best))
        assert counts.sum() == len(logs)

    def test_worker_error_reaches_caller(self, two_cpus, monkeypatch):
        # raised only in the worker process (reached by fork, as above)
        caller = os.getpid()

        def broken_in_worker(template, data):
            if os.getpid() != caller:
                raise ZeroDivisionError("bug in a worker's trial")
            raise cli.SolveError("degenerate instance: test")

        monkeypatch.setattr(cli, "solve_online", broken_in_worker)
        with pytest.raises(ZeroDivisionError, match="bug in a worker's trial"):
            cli.run_bench("conic", 4, 0, 2)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(sys.platform != "linux", reason="workers fork on Linux only")
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_caller_start_method_needs_no_main_guard(self, tmp_path, method):
        # a script without an `if __name__ == "__main__"` guard sets another
        # start method and calls run_bench: the workers still fork, so they
        # never re-run the script, and the row is the one run_bench gives here
        script = tmp_path / "bench_script.py"
        script.write_text(textwrap.dedent(f"""\
            import multiprocessing, os
            from resultant_solve import cli
            multiprocessing.set_start_method({method!r})
            os.sched_getaffinity = lambda pid: {{0, 1}}  # a worker also on one CPU
            report, _ = cli.run_bench("conic", 8, 2, 2)
            print(report.csv_row())
            """))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        row = done.stdout.strip().split(",")
        want = cli.run_bench("conic", 8, 2, 1)[0].csv_row().split(",")
        assert row[:5] + row[6:] == want[:5] + want[6:]  # all but mean_us

    def test_no_worker_outlives_run_bench(self, two_cpus, monkeypatch):
        cli.run_bench("conic", 4, 0, 2)
        assert multiprocessing.active_children() == []

        def broken(template, data):
            raise ZeroDivisionError("bug in a trial")

        monkeypatch.setattr(cli, "solve_online", broken)
        with pytest.raises(ZeroDivisionError):
            cli.run_bench("conic", 4, 0, 2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_bad_jobs_rejected(self, capsys, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            cli.run_bench("conic", 4, 0, jobs)
        code, out, err = _run(
            capsys, ["bench", "conic", "--trials", "4", "--jobs", str(jobs)]
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "jobs" in err

    def test_chunks_are_contiguous_and_capped(self, monkeypatch):
        _set_cpus(monkeypatch, 8)
        for trials, jobs, n in [(1000, 2, 2), (5, 100000, 5), (1000, 100000, 8), (7, 3, 3)]:
            chunks = cli._chunks(trials, jobs)
            assert len(chunks) == n
            assert [i for c in chunks for i in c] == list(range(trials))
            assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
        # without an affinity mask, an unknown CPU count means one process
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._chunks(10, 4) == [range(10)]

    def test_chunks_capped_by_the_affinity_mask(self, monkeypatch):
        # a process pinned to one CPU of a 64-CPU machine starts no worker
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert cli._chunks(1000, 64) == [range(1000)]

    @pytest.mark.parametrize("cpus, trials, workers", [(8, 50, 7), (8, 3, 2), (2, 50, 1)])
    def test_pool_size_capped(self, monkeypatch, cpus, trials, workers):
        # a stand-in executor records its size and runs chunks inline, so a
        # huge --jobs is checked without starting any process
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        _set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
        report, counts = cli.run_bench("conic", trials, 1, 100000)
        assert sizes == [workers]
        reference, ref_counts = cli.run_bench("conic", trials, 1, 1)
        assert self._untimed(report) == self._untimed(reference)
        assert np.array_equal(counts, ref_counts)

    def test_histogram_counts_sum(self, capsys, tmp_path):
        hist = tmp_path / "hist.csv"
        code, out, _ = _run(
            capsys,
            ["bench", "conic", "--trials", "12", "--seed", "3", "--hist", str(hist)],
        )
        assert code == 0
        lines = hist.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 1 + cli.HIST_BINS
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        # every accepted solution contributes exactly one histogram sample
        report, _ = cli.run_bench("conic", 12, 3, 1)
        assert sum(counts) == round(report.mean_roots * 12)

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 1
