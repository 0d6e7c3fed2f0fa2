"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Run from the repository root.  The last test starts the real child
processes on the `cli` workload for two cycles, so it takes about 20 s.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import cli_ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


# -- spans and self time ------------------------------------------------------

def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9];
    # c [8, 9.5] overlaps b and runs past b's end but stays inside root.
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 9.5]
    parents = [-1, 0, 1, 0, 0]
    selfs = spans.self_times(starts, ends, parents)
    # root: 10 minus the union [1, 4] + [5, 9.5] = 10 - 7.5
    assert selfs == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5])


def test_tracer_records_parents_and_sums_self_time_per_name():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.enabled = True
    leaf = tracer.wrap("m.leaf", lambda: "x")
    mid = tracer.wrap("m.mid", lambda: leaf() + leaf())
    root = tracer.begin("bench.op")        # t = 0
    assert mid() == "xx"                   # mid 1..6, leaves 2..3 and 4..5
    tracer.finish(root)                    # t = 10
    assert list(tracer.parent) == [-1, 0, 1, 1]
    summary = tracer.summary()
    assert summary["bench.op"] == (1, pytest.approx(5.0))
    assert summary["m.mid"] == (1, pytest.approx(3.0))
    assert summary["m.leaf"] == (2, pytest.approx(2.0))
    total = sum(s for _, s in summary.values())
    assert total == pytest.approx(10.0)  # self times add up to the wall


def test_disabled_tracer_records_nothing():
    tracer = spans.Tracer()
    assert tracer.wrap("m.f", lambda v: v + 1)(1) == 2
    assert len(tracer.start) == 0


# -- the percentile rule --------------------------------------------------------

@pytest.mark.parametrize("n, p", [(20, 50), (35, 71), (70, 85), (100, 90),
                                  (1000, 99), (1001, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    value, pct, beyond = stats.tail_percentile(list(range(n)))
    assert pct == p
    assert beyond >= 10
    assert value == n - 1 - beyond
    # one percentile higher would leave fewer than ten beyond
    if pct < 99:
        assert n - -(-(pct + 1) * n // 100) < 10


def test_tail_percentile_falls_back_to_median_for_small_runs():
    value, pct, beyond = stats.tail_percentile([5.0, 1.0, 3.0])
    assert (value, pct, beyond) == (3.0, 50, 1)


def test_error_rate_is_never_zero():
    assert stats.error_rate(0, 98) == pytest.approx(0.01)
    assert stats.error_rate(5, 33) == pytest.approx(6 / 35)


# -- failure counting -----------------------------------------------------------

def test_failures_are_counted_including_ops_that_raise():
    import workloads as wl

    def boom():
        raise ValueError("library error")

    def bad_check(result, checks):
        checks.within("x", result, 1e-10)

    ops = [
        wl.Op("ok", lambda: 0.0, bad_check),
        wl.Op("raises", boom, bad_check),
        wl.Op("wrong", lambda: 1.0, bad_check),
        wl.Op("malformed", boom, bad_check, malformed=True),
    ]
    workload = wl.Workload(ops, nominal_cycle_s=1.0)
    res = child.run_ops(workload, seconds=3.0)
    assert res["cycles"] == 3
    assert len(res["latencies"]) == 12
    assert res["outcomes"] == [True, False, False, False] * 3
    assert res["failed"] == 9
    assert res["incorrect"] == 6
    assert res["contract_violations"] == 3
    assert any("raised ValueError" in e for e in res["errors"])


# -- golden comparison ----------------------------------------------------------

def test_golden_numbers_compare_at_1e_12():
    cli_ops.compare_numeric("a = 0.707106781187 x2", "a = 0.707106781187 x2")
    cli_ops.compare_numeric("a = 0.707106781188", "a = 0.707106781187")
    with pytest.raises(cli_ops.Mismatch):
        cli_ops.compare_numeric("a = 0.70710678119", "a = 0.707106781187")
    with pytest.raises(cli_ops.Mismatch):
        cli_ops.compare_numeric("b = 0.707106781187", "a = 0.707106781187")


def test_residual_lines_follow_the_verdict():
    class Checks:
        def within(self, name, value, tol):
            if value > tol:
                raise cli_ops.Mismatch(name)

    out = "non-invariant residual: 0.25\n"
    masked = cli_ops.tolerance_lines(out, 1, Checks())
    assert masked == "non-invariant residual: <checked>"
    with pytest.raises(cli_ops.Mismatch):
        cli_ops.tolerance_lines(out, 0, Checks())
    with pytest.raises(cli_ops.Mismatch):
        cli_ops.tolerance_lines("non-invariant residual: 1e-16\n", 1,
                                Checks())


# -- the benchmark definition ----------------------------------------------------

def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "twirl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_traced_and_untraced_runs_agree():
    env = run.child_env(1)

    def child_result(mode):
        p = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"),
             "--workload", "cli", "--seed", "11", "--seconds", "1",
             "--mode", mode, "--workdir", f".perfbench_tmp/test-{mode}"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
        assert p.returncode == 0, p.stderr
        return json.loads(p.stdout.splitlines()[-1])

    plain, traced = child_result("run"), child_result("trace")
    assert len(plain["latencies"]) == len(traced["latencies"]) > 0
    assert plain["outcomes"] == traced["outcomes"]
    assert plain["failed"] == traced["failed"]
    layers = traced["layers"]
    assert layers["cli.main.calls"] == len(traced["latencies"])
    assert layers["trace.self_sum_s"] <= traced["wall_s"]
