"""The reference solves and the recipe of their committed record, ``reference_solves.json``.

Each reference solve is an instance and its ``SolverParams``.  Its record holds
what every environment must reproduce exactly (status, iterations, the count of
each branch, the six operation counters and the terminating oracle's Lanczos
iterations) and what only the recorded environment is held to (sha256 of the CSV
trace, of ``x_final`` and of ``lambda_final``, and ``probability_bound`` written
with ``float.hex``).  The JSON trace adds only the counters, recorded as integers,
and the certificate, which ``x_final`` and ``lambda_final`` determine.  The record also holds the sha256 of a fixed set of
builtin instances and the environment it was written in.

The list covers every way a solve ends: the benchmark workloads at the
benchmark's epsilon and solver seed, the builtins that take an eigenvalue-oracle
negative-curvature step, a first-order stop, three runs stopped at
``max_outer_iters`` and one line-search failure.

Only a declared behaviour change rewrites the record:

    PYTHONPATH=src python tests/reference_solves.py --write
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from conebarrier import SolverParams, builtin, solve
from conebarrier.problems import BUILTIN_NAMES, problem_from_dict
from conebarrier.trace import BRANCH_TERMINATE, BRANCHES

RECORD_PATH = Path(__file__).with_name("reference_solves.json")

# one orthant group and one 2 x 3 stack of second-order cones, as in CI
STACKED_FILE = {
    "n": 8,
    "cone": [{"type": "orthant", "dim": 2}, {"type": "soc", "dim": 3}, {"type": "soc", "dim": 3}],
    "A": [[1, 1, 1, 0, 0, 1, 0, 0]], "b": [6], "x0": [1, 1, 2, 0.3, -0.2, 2, 0.1, 0.5],
    "objective": {"quadratic": {
        "Q": [[1, 0.5, 0, 0.3, 0, 0, 0.2, 0], [0.5, -1, 0.2, 0, 0.4, 0, 0, 0.1],
              [0, 0.2, 0.5, -0.6, 0, 0.1, 0, 0], [0.3, 0, -0.6, -1, 0.1, 0, 0, 0],
              [0, 0.4, 0, 0.1, 0.8, 0, 0.3, 0], [0, 0, 0.1, 0, 0, -0.5, 0, 0.2],
              [0.2, 0, 0, 0, 0.3, 0, 0.6, -0.4], [0, 0.1, 0, 0, 0, 0.2, -0.4, -0.7]],
        "c": [0.1, -0.2, 0.3, 0.1, -0.1, 0.2, 0.0, -0.3]}},
}

# Q = 1e32 I: capped CG's tau rounds to 1, and the first line search fails
HUGE_FILE = {
    "n": 2, "cone": [{"type": "orthant", "dim": 2}], "A": [[1, 1]], "b": [2], "x0": [1, 1],
    "objective": {"quadratic": {"Q": [[1e32, 0], [0, 1e32]], "c": [1e32, -1e32]}},
}


def _mixed_cone_quadratic():
    from test_solver import mixed_cone_quadratic

    return mixed_cone_quadratic()


# name -> (instance factory, SolverParams fields besides epsilon 1e-3 and seed 7)
SOLVES = {
    "simplex_qp-0": (lambda: builtin("nonconvex_qp_simplex", 100, seed=0), {}),
    "simplex_qp-1013": (lambda: builtin("nonconvex_qp_simplex", 100, seed=1013), {}),
    "soc_dense-0": (lambda: builtin("soc_quadratic", 200, m=2, seed=0), {}),
    "soc_dense-1013": (lambda: builtin("soc_quadratic", 200, m=2, seed=1013), {}),
    "loss_hessian-0": (lambda: builtin("regularized_loss", 40, seed=0), {}),
    "pnorm_simplex-100": (lambda: builtin("pnorm_simplex", 100), {}),
    "negnorm_simplex-5": (lambda: builtin("negnorm_simplex", 5), {}),
    "soc_quadratic-20-m3": (lambda: builtin("soc_quadratic", 20, m=3), {}),
    "soc_quadratic-20-m3-fosp": (lambda: builtin("soc_quadratic", 20, m=3), {"fosp_only": True}),
    "soc_quadratic-30-m2-blocks10": (lambda: builtin("soc_quadratic", 30, m=2, blocks=10), {}),
    "soc_quadratic-300-m1-blocks100-cap200": (
        lambda: builtin("soc_quadratic", 300, m=1, blocks=100), {"max_outer_iters": 200}),
    "soc_quadratic-300-m1-blocks1-cap200": (
        lambda: builtin("soc_quadratic", 300, m=1, blocks=1), {"max_outer_iters": 200}),
    "mixed_cone_quadratic-cap60": (_mixed_cone_quadratic, {"max_outer_iters": 60}),
    "stacked_file": (lambda: problem_from_dict(STACKED_FILE), {}),
    "huge_file": (lambda: problem_from_dict(HUGE_FILE), {}),
}


def _blas_threads() -> int | None:
    """OpenBLAS's current thread count, read from the library numpy ships, else None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return int(fn())
    return None


def environment() -> dict:
    """What the hashes may depend on: Python, numpy, its BLAS and threads, and the machine."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(name: str) -> dict:
    """One reference solve's record: its exact integers and its environment-bound hashes."""
    make, fields = SOLVES[name]
    problem = make()
    res = solve(problem, problem.x0, SolverParams(epsilon=1e-3, seed=7, **fields))
    trace = res.trace
    branches = [BRANCHES[code] for code in trace.branch]
    oracle_iters = trace.lanczos_iters[-1] if branches[-1] == BRANCH_TERMINATE else None
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp, "trace.csv")
        trace.write_csv(csv)
        csv_bytes = csv.read_bytes()
    bound = res.probability_bound
    return {
        "integers": {
            "status": res.status.value,
            "iterations": res.iterations,
            "branches": {branch: branches.count(branch) for branch in BRANCHES},
            "counters": dict(trace.counters),
            "oracle_iters": oracle_iters,
        },
        "hashes": {
            "csv": _sha256(csv_bytes),
            "x_final": _sha256(res.x_final.tobytes()),
            "lambda_final": _sha256(res.lambda_final.tobytes()),
            "probability_bound": None if bound is None else float(bound).hex(),
        },
    }


def instance_set_hash() -> str:
    """sha256 over a fixed set of builtin instances, each read at its x0.

    Per instance, in order: the float64 bytes of x0, A, b, the gradient and the
    Hessian at x0, and of f(x0); then ``repr(cone.blocks)``, the name and
    ``json.dumps(serial)``.  The set: every builtin at its defaults at n = 8,
    ``pnorm_simplex`` p=0.3, ``nonconvex_qp_simplex`` seed 4, ``regularized_loss``
    p=0.7 seed 2, ``soc_quadratic`` n=12 m=3 seed 5 at ``blocks=4`` and ``blocks=1``,
    and the two benchmark instances ``nonconvex_qp_simplex`` n=100 seed 0 and
    ``soc_quadratic`` n=200 m=2 seed 0.
    """
    instances = [builtin(name, 8) for name in BUILTIN_NAMES] + [
        builtin("pnorm_simplex", 8, p=0.3),
        builtin("nonconvex_qp_simplex", 8, seed=4),
        builtin("regularized_loss", 8, p=0.7, seed=2),
        builtin("soc_quadratic", 12, m=3, seed=5, blocks=4),
        builtin("soc_quadratic", 12, m=3, seed=5, blocks=1),
        builtin("nonconvex_qp_simplex", 100, seed=0),
        builtin("soc_quadratic", 200, m=2, seed=0),
    ]
    digest = hashlib.sha256()
    for p in instances:
        x0 = p.x0
        for array in (x0, p.affine.A, p.affine.b, p.gradient(x0), p.hessian(x0), p.value(x0)):
            digest.update(np.asarray(array, dtype=float).tobytes())
        for text in (repr(p.cone.blocks), p.name, json.dumps(p.serial)):
            digest.update(text.encode())
    return digest.hexdigest()


def read_record() -> dict:
    return json.loads(RECORD_PATH.read_text())


def write_record() -> None:
    record = {
        "environment": environment(),
        "instance_set_sha256": instance_set_hash(),
        "solves": {name: outcome(name) for name in SOLVES},
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/reference_solves.py --write")
    write_record()
