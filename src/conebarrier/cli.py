"""Command-line driver: solve, parameter sweeps, and certificate checks.

Exit codes: 0 success (certified where that applies), 1 ran but not
certified, 2 a usage error, a package error (``ConeBarrierError``) or an OS error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import certify as certify_mod
from .counters import CATEGORIES
from .errors import ConeBarrierError
from .problems import load_problem, load_vector
from .solver import SolverParams, solve

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_USAGE = 2


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    # an omitted flag is None and keeps the SolverParams default; each dest is a field name
    parser.add_argument("--beta", type=float,
                        help="trust radius in the local norm; default max(sqrt(eps), 0.5)")
    parser.add_argument("--zeta", type=float, help="inner CG relative accuracy")
    parser.add_argument("--theta", type=float, help="backtracking ratio")
    parser.add_argument("--eta", type=float, help="sufficient-decrease constant")
    parser.add_argument("--delta", type=float, help="eigenvalue-oracle failure probability")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--max-iters", dest="max_outer_iters", type=int,
                        help="outer iteration budget")
    parser.add_argument("--fosp-only", action="store_true", default=None,
                        help="stop at a first-order point; skip the eigenvalue oracle")


def _params_from_args(args, eps: float | None = None) -> SolverParams:
    given = {f.name: value for f in dataclasses.fields(SolverParams)
             if (value := getattr(args, f.name, None)) is not None}
    return SolverParams(epsilon=args.eps if eps is None else eps, **given)


def _summary_line(result) -> str:
    cert = result.trace.certificate
    sosp = cert.sosp_min_eig if cert is not None else None
    fosp = cert.fosp_residual if cert is not None else float("nan")
    counters = result.trace.counters
    return (
        f"status={result.status.value} iterations={result.iterations} "
        f"fosp_residual={fosp:.6e} "
        f"sosp_min_eig={'n/a' if sosp is None else format(sosp, '.6e')} "
        + " ".join(f"{name}={counters.get(name, 0)}" for name in CATEGORIES)
    )


def cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    params = _params_from_args(args)
    result = solve(problem, problem.x0, params)
    if args.out:
        if args.format == "csv":
            result.trace.write_csv(args.out)
        else:
            result.trace.write_json(args.out)
    if args.save_solution:
        payload = {
            "x": result.x_final.tolist(),
            "lambda": result.lambda_final.tolist(),
            "status": result.status.value,
        }
        Path(args.save_solution).write_text(json.dumps(payload, indent=2) + "\n")
    print(_summary_line(result))
    return EXIT_OK if result.certified else EXIT_NOT_CERTIFIED


def fit_loglog_slope(eps_list, iterations) -> float:
    """Least-squares slope of ln(iterations) against ln(1/eps); 0.0 for one distinct eps.

    Counts below 1 enter as 1, so a run that certifies its start (0
    iterations) contributes ln 1 = 0.  A sweep that mixes such runs with runs
    that escape the start measures that change of regime, not a growth
    exponent of the iteration count.
    """
    xs = np.log(1.0 / np.asarray(eps_list, dtype=float))
    ys = np.log(np.maximum(np.asarray(iterations, dtype=float), 1.0))
    if np.unique(xs).size < 2:
        return 0.0
    xc = xs - xs.mean()
    return float(xc @ (ys - ys.mean()) / (xc @ xc))


def cmd_sweep(args) -> int:
    problem = load_problem(args.problem)
    rows = []
    all_certified = True
    print(",".join(("eps", "iterations", *CATEGORIES, "status")))
    for eps in args.eps_list:
        params = _params_from_args(args, eps=eps)
        result = solve(problem, problem.x0, params)
        all_certified &= result.certified
        counters = result.trace.counters
        rows.append((eps, result.iterations))
        print(",".join((repr(eps), str(result.iterations),
                        *(str(counters.get(name, 0)) for name in CATEGORIES),
                        result.status.value)))
    slope = fit_loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    print(f"loglog_slope={slope:.4f}")
    return EXIT_OK if all_certified else EXIT_NOT_CERTIFIED


def cmd_certify(args) -> int:
    problem = load_problem(args.problem)
    x = load_vector(args.point, problem.n, "x")
    lam = load_vector(args.lam, problem.m, "lambda") if problem.m else np.zeros(0)
    if args.sosp:
        report = certify_mod.check_sosp_dense(
            problem, x, lam, eps_g=args.eps_g,
            # a negative eps_g reaches the certificate's own check, which refuses it first
            eps_h=args.eps_h if args.eps_h is not None else math.sqrt(max(args.eps_g, 0.0)),
        )
        ok = bool(report.sosp_ok)
    else:
        report = certify_mod.check_fosp(problem, x, lam, eps_g=args.eps_g)
        ok = report.fosp_ok
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if ok else EXIT_NOT_CERTIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conebarrier",
        description="Barrier Newton-CG solver for nonconvex conic programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file and write a trace")
    p_solve.add_argument("problem", help="path to a JSON problem file")
    p_solve.add_argument("--eps", type=float, default=1e-3, help="target tolerance in (0, 1)")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--out", default=None, help="trace output path")
    p_solve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_solve.add_argument("--save-solution", default=None,
                         help="write the final point and multiplier as JSON")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve across tolerances and fit the scaling slope")
    p_sweep.add_argument("problem", help="path to a JSON problem file")
    p_sweep.add_argument("--eps", dest="eps_list", type=float, nargs="+", required=True,
                         help="list of tolerances")
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cert = sub.add_parser("certify", help="verify a candidate point against a problem")
    p_cert.add_argument("problem", help="path to a JSON problem file")
    p_cert.add_argument("point", help="JSON file with the candidate x")
    p_cert.add_argument("lam", help="JSON file with the multiplier (ignored when m = 0)")
    p_cert.add_argument("--eps-g", type=float, default=1e-3)
    p_cert.add_argument("--eps-h", type=float, default=None,
                        help="second-order tolerance; default sqrt(eps-g)")
    p_cert.add_argument("--sosp", action="store_true", help="also run the second-order check")
    p_cert.set_defaults(func=cmd_certify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConeBarrierError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
