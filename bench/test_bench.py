"""Self-tests of the solve benchmark; run with ``python3 -m pytest bench -q``."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import HookError, Tracer, hooked  # noqa: E402

TINY_N = {"simplex_qp": 6, "soc_dense": 8, "loss_hessian": 5}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_smoke_run(workload):
    tally = run.Tally()
    metrics, _ = run.measure_layers(workload, 0, 0.0, tally, n=TINY_N[workload])
    assert tally.failures == []
    assert tally.attempted == 1 + 2 * run.MIN_PAIRS
    assert metrics["ops.cholesky"] == metrics["cones.barrier_factor.calls"]
    assert metrics["trace.solve_s"] > 0.0


def test_self_time_accounting_on_synthetic_nested_call():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = tracer.wrap("middle", middle)
    traced_root = tracer.wrap("solver", lambda: traced_middle() + traced_leaf())
    assert traced_root() == 3
    # clock reads: root 0, middle 1, leaf 2-3, leaf 4-5, middle 6, leaf 7-8, root 9
    summary = tracer.summary()
    assert summary.calls["leaf"] == 3 and summary.calls["middle"] == 1
    assert summary.self_s["leaf"] == 3.0
    assert summary.self_s["middle"] == 5.0 - 2.0
    assert summary.self_s["solver"] == 9.0 - 5.0 - 1.0
    assert sum(summary.self_s.values()) == summary.wall_s == 9.0
    assert summary.child_calls[("middle", "leaf")] == 2
    assert summary.child_calls[("solver", "leaf")] == 1


def test_same_seed_reproduces_and_other_seed_differs():
    def solve(seed):
        problem = run.make_problem("simplex_qp", seed, n=TINY_N["simplex_qp"])
        res = run.run_solve(problem).result
        return problem, res.iterations, res.trace.counters

    p0, k0, ops0 = solve(0)
    p0b, k0b, ops0b = solve(0)
    p1, _, _ = solve(1)
    assert (k0, ops0) == (k0b, ops0b)
    x = p0.x0
    assert p0.value(x) == p0b.value(x)
    assert not np.array_equal(p0.gradient(x), p1.gradient(x))


def test_missing_name_is_an_error_and_hooks_are_restored(monkeypatch):
    from conebarrier import solver

    problem = run.make_problem("simplex_qp", 0, n=TINY_N["simplex_qp"])
    original = solver.capped_cg
    with hooked(Tracer(), problem):
        assert solver.capped_cg is not original
    assert solver.capped_cg is original
    monkeypatch.delattr(solver, "line_search_nc")
    with pytest.raises(HookError, match="line_search_nc"):
        with hooked(Tracer(), problem):
            pass
    assert solver.capped_cg is original


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_failed_check_is_reported():
    problem = run.make_problem("simplex_qp", 0, n=TINY_N["simplex_qp"])
    good = run.run_solve(problem)
    assert run.output_failures(problem, good) == []
    tampered = run.Solve(good.seconds, good.result, good.csv + b"x")
    assert run.output_failures(problem, tampered, good) == [
        "CSV trace differs from the reference solve"]
