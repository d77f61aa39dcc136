"""Solve benchmark for conebarrier: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload simplex_qp --seed 0 --seconds 20 --trace 0

``--trace 0`` times untraced solves in a closed loop with one client and
prints the end-to-end metrics.  ``--trace 1`` alternates untraced and traced
solves of the same instance, then repeats the traced pass in a child process
with one BLAS thread, and prints the per-layer metrics.  Every solve's outputs
are checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and any failed check
makes the exit code 1.  bench/README.md describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS, Tracer, hooked

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT / "src"))

EPSILON = 1e-3
SOLVER_SEED = 7
# The warm-up solve runs at a loose tolerance: a few hundred iterations that
# still reach every layer (capped CG, line search, Lanczos, dense certify).
WARMUP_EPSILON = 0.1
SETUP_CHILDREN = 4  # set-up samples besides the main process's own
MIN_SOLVES = 3  # untraced solves per end-to-end run, whatever --seconds says
MIN_PAIRS = 2  # untraced/traced pairs in the main traced pass
ONE_THREAD_SHARE = 0.25  # share of --seconds given to the one-thread pass
ACCOUNTING_TOLERANCE = 0.03  # self times must sum to traced wall within this share


@dataclass(frozen=True)
class Workload:
    builtin: str
    n: int
    params: dict = field(default_factory=dict)  # builtin parameters besides the seed


WORKLOADS = {
    "simplex_qp": Workload("nonconvex_qp_simplex", 100),
    "soc_dense": Workload("soc_quadratic", 200, {"m": 2}),
    "loss_hessian": Workload("regularized_loss", 40),
}

END_TO_END = {
    "solve_s": "s",
    "ms_per_iter": "ms",
    "iters": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS[1:]
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "solver.self_s": "s",
    "capped_cg.inner_iters": "count",
    "capped_cg.nc_ratio": "ratio",
    "lanczos.iters": "count",
    "lanczos.nc_ratio": "ratio",
    "solver.line_search.trials_per_search": "count",
    **{f"ops.{c}": "count" for c in
       ("cholesky", "hess_vec", "tri_solve", "matT_mat", "grad_eval", "fun_eval")},
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    "blas.threads": "count",
    "solve_s_1t": "s",
    "cones.barrier_factor.self_s_1t": "s",
    "linops.workspace_build.self_s_1t": "s",
}
ONE_THREAD_KEYS = ("solve_s", "cones.barrier_factor.self_s", "linops.workspace_build.self_s")


def make_problem(workload: str, seed: int, n: int | None = None):
    """The workload's instance; its seed is the benchmark's workload seed."""
    import conebarrier as cb

    w = WORKLOADS[workload]
    return cb.builtin(w.builtin, w.n if n is None else n, seed=seed, **w.params)


@dataclass
class Solve:
    seconds: float
    result: object | None  # SolveResult, or None when solve raised
    csv: bytes = b""
    error: str = ""


def run_solve(problem, solve=None, epsilon: float = EPSILON) -> Solve:
    """One timed solve; the CSV trace is written and read back outside the timing."""
    import conebarrier as cb

    solve = cb.solve if solve is None else solve
    params = cb.SolverParams(epsilon=epsilon, seed=SOLVER_SEED)
    start = time.perf_counter()
    try:
        result = solve(problem, problem.x0, params)
    except Exception:  # a raising solve is a failed solve, reported below
        return Solve(time.perf_counter() - start, None, error=traceback.format_exc())
    seconds = time.perf_counter() - start
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{os.getpid()}.csv"
    result.trace.write_csv(path)
    csv = path.read_bytes()
    path.unlink()
    return Solve(seconds, result, csv)


def output_failures(problem, solve: Solve, reference: Solve | None = None) -> list[str]:
    """Every check a solve must pass; an empty list means correct."""
    if solve.result is None:
        return ["solve raised:\n" + solve.error]
    res = solve.result
    cert = res.trace.certificate
    ops = res.trace.counters
    k, m = res.iterations, problem.m
    fails = []
    if not res.certified:
        fails.append(f"not certified: {res.status.value}")
    if cert is None or not cert.fosp_ok:
        fails.append("certificate is not fosp_ok")
    elif problem.has_dense_hessian and not cert.sosp_ok:
        fails.append("dense certificate is not sosp_ok")
    if ops.get("cholesky") != k + 1:
        fails.append(f"cholesky {ops.get('cholesky')} != iters + 1 = {k + 1}")
    if m >= 1:
        slack = ops["tri_solve"] - 6 * ops["hess_vec"]
        if not 0 <= slack <= (m + 20) * (k + 1):
            fails.append(f"tri_solve - 6*hess_vec = {slack} outside [0, {(m + 20) * (k + 1)}]")
    if reference is not None and reference.result is not None:
        if solve.csv != reference.csv:
            fails.append("CSV trace differs from the reference solve")
        if ops != reference.result.trace.counters:
            fails.append("op counters differ from the reference solve")
    return fails


@dataclass
class Tally:
    """Solves attempted and the failures among them."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0

    def check(self, problem, solve: Solve, reference: Solve | None = None,
              also: tuple[str, ...] = ()) -> None:
        """Count one solve; ``also`` lists failures found outside its outputs."""
        self.attempted += 1
        fails = output_failures(problem, solve, reference) + list(also)
        if fails:
            self.failed += 1
            self.failures.extend(fails)

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.failures.extend(other["failures"])


def setup(workload: str, seed: int, tally: Tally, n: int | None = None):
    """Import, instance generation and one warm-up solve; returns (problem, seconds).

    First-call LAPACK and BLAS thread-pool start-up are paid here, not in the
    timed solves.
    """
    start = time.perf_counter()
    import conebarrier  # noqa: F401  (timed: the import is part of set-up)

    problem = make_problem(workload, seed, n)
    warm = run_solve(problem, epsilon=WARMUP_EPSILON)
    seconds = time.perf_counter() - start
    tally.check(problem, warm)
    return problem, seconds


def keep_going(times: list[float], minimum: int, start: float, seconds: float) -> bool:
    """Closed-loop stop rule: run another only if it should end within the budget."""
    if len(times) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(times) <= seconds


def blas_info() -> tuple[str, int]:
    """BLAS library string and its current thread count, read from the library."""
    import numpy as np

    cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
    name = f"{cfg.get('name')} {cfg.get('version', '')}".strip()
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return name, int(fn())
    return f"{name} (thread count not readable, assumed cpu count)", os.cpu_count() or 1


def run_child(mode: str, workload: str, seed: int, seconds: float, deadline: float,
              env: dict | None = None) -> dict:
    """Run this script in a child process and return its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if mode == "layers" else "0"]
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_end_to_end(workload: str, seed: int, seconds: float, deadline: float,
                       tally: Tally) -> tuple[dict, list[str]]:
    setup_s = []
    for _ in range(SETUP_CHILDREN):
        child = run_child("setup", workload, seed, 0, deadline)
        tally.merge(child)
        setup_s.append(child["setup_s"])
    problem, own_setup = setup(workload, seed, tally)
    setup_s.append(own_setup)

    times, first = [], None
    start = time.perf_counter()
    while keep_going(times, MIN_SOLVES, start, seconds):
        solve = run_solve(problem)
        tally.check(problem, solve, first)
        first = first or solve
        times.append(solve.seconds)
    iters = first.result.iterations if first.result is not None else 0
    median = statistics.median(times)
    metrics = {
        "solve_s": median,
        "ms_per_iter": 1e3 * median / max(iters, 1),
        "iters": iters,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    library, threads = blas_info()
    notes = [f"blas: {library}, {threads} threads",
             f"solve_s: median of {len(times)} solves; " + _percentile_note(times),
             f"setup_s: median of {len(setup_s)} set-ups "
             f"({', '.join(f'{s:.3f}' for s in setup_s)} s)"]
    return metrics, notes


def _percentile_note(samples: list[float]) -> str:
    """The highest of p99/p90 with at least ten samples beyond it, if any."""
    for pct in (99, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[pct - 1]
            return f"p{pct} {cut:.4f} s"
    return "no high percentile (needs 100 samples for p90)"


def measure_layers(workload: str, seed: int, seconds: float, tally: Tally,
                   min_pairs: int = MIN_PAIRS, n: int | None = None) -> tuple[dict, list[str]]:
    """Alternate untraced and traced solves; per-layer numbers are per solve."""
    problem, _ = setup(workload, seed, tally, n)
    tracer = Tracer()
    untraced, traced, pair_times, summaries, first = [], [], [], [], None
    start = time.perf_counter()
    while keep_going(pair_times, min_pairs, start, seconds):
        pair_start = time.perf_counter()
        plain = run_solve(problem)
        tally.check(problem, plain, first)
        first = first or plain
        tracer.reset()
        with hooked(tracer, problem) as (traced_solve, traced_problem):
            spanned = run_solve(traced_problem, traced_solve)
        summary = tracer.summary()
        tally.check(problem, spanned, plain, _trace_failures(summary, spanned, summaries))
        untraced.append(plain.seconds)
        traced.append(spanned.seconds)
        summaries.append(summary)
        pair_times.append(time.perf_counter() - pair_start)
    tracer.write(OUT / f"spans-{workload}-{seed}.npz")

    last = summaries[-1]
    metrics = {}
    for layer in LAYERS[1:]:
        metrics[f"{layer}.calls"] = last.calls[layer]
        metrics[f"{layer}.self_s"] = statistics.median(s.self_s[layer] for s in summaries)
    metrics["solver.self_s"] = statistics.median(s.self_s[LAYERS[0]] for s in summaries)
    metrics["capped_cg.inner_iters"], metrics["capped_cg.nc_ratio"] = \
        last.outcome_means("capped_cg")
    metrics["lanczos.iters"], metrics["lanczos.nc_ratio"] = last.outcome_means("lanczos")
    metrics["solver.line_search.trials_per_search"] = (
        last.child_calls.get(("solver.line_search", "problems.value"), 0)
        / max(last.calls["solver.line_search"], 1))
    counters = first.result.trace.counters if first.result is not None else {}
    for name, value in counters.items():
        metrics[f"ops.{name}"] = value
    metrics["trace.solve_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["solve_s"] = statistics.median(untraced)
    library, threads = blas_info()
    metrics["blas.threads"] = threads
    notes = [f"blas: {library}, {threads} threads",
             f"traced pass: {len(summaries)} untraced/traced pairs; spans of the last "
             f"traced solve in {(OUT / f'spans-{workload}-{seed}.npz').relative_to(ROOT)}"]
    return metrics, notes


def _trace_failures(summary, spanned: Solve, earlier: list) -> tuple[str, ...]:
    """Checks of the tracer's own accounting on one traced solve."""
    fails = []
    accounted = sum(summary.self_s.values())
    if abs(accounted - spanned.seconds) > ACCOUNTING_TOLERANCE * spanned.seconds:
        fails.append(f"self times sum to {accounted:.4f} s, traced wall {spanned.seconds:.4f} s")
    if earlier and summary.calls != earlier[0].calls:
        fails.append("span counts differ between traced solves")
    idle = [layer for layer in LAYERS if summary.calls.get(layer, 0) == 0]
    if idle:
        fails.append(f"no spans recorded for {idle}")
    return tuple(fails)


def _layer_table(metrics: dict) -> list[str]:
    wall = metrics["trace.solve_s"]
    rows = ["layer                              calls      self_s  share"]
    for key in [k for k in PER_LAYER if k.endswith(".self_s")]:
        layer = key[: -len(".self_s")]
        calls = metrics.get(f"{layer}.calls", "")
        rows.append(f"{layer:<32} {calls:>8} {metrics[key]:>10.4f}  "
                    f"{100 * metrics[key] / wall:5.1f}%")
    return rows


def report(units: dict, metrics: dict, notes: list[str], tally: Tally) -> dict:
    """Print every metric with its unit and return the JSON line's contents."""
    for line in notes:
        print(line)
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>14.6g} {unit}")
    ratio = tally.failed / max(tally.attempted, 1)
    print(f"{'fail_ratio':<40} {ratio:>14.6g} ratio ({tally.failed} of {tally.attempted} "
          f"solves failed a check)")
    for fail in tally.failures:
        print(f"FAILED CHECK: {fail}", file=sys.stderr)
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--child", choices=("setup", "layers"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + 170.0
    tally = Tally()

    if args.child == "setup":
        _, seconds = setup(args.workload, args.seed, tally)
        print(json.dumps({"setup_s": seconds, **vars(tally)}))
        return 0
    if args.child == "layers":
        metrics, _ = measure_layers(args.workload, args.seed, args.seconds, tally, min_pairs=1)
        print(json.dumps({"metrics": metrics, **vars(tally)}))
        return 0

    print(f"workload {args.workload} seed {args.seed}: {WORKLOADS[args.workload]}, "
          f"epsilon {EPSILON}, solver seed {SOLVER_SEED}, closed loop, one client")
    if args.trace == 0:
        metrics, notes = measure_end_to_end(args.workload, args.seed, args.seconds,
                                            deadline, tally)
        out = report(END_TO_END, metrics, notes, tally)
    else:
        metrics, notes = measure_layers(args.workload, args.seed, args.seconds, tally)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        child = run_child("layers", args.workload, args.seed,
                          ONE_THREAD_SHARE * args.seconds, deadline, env)
        tally.merge(child)
        if child["metrics"]["blas.threads"] != 1:
            tally.failures.append("one-thread pass did not run with one BLAS thread")
        for key in ONE_THREAD_KEYS:
            metrics[f"{key}_1t"] = child["metrics"][key]
        notes += _layer_table(metrics)
        out = report(PER_LAYER, metrics, notes, tally)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
