"""The library runs on numpy alone: scipy is a test-only oracle.

A subprocess installs an import hook that refuses every ``scipy`` module,
then solves one instance per Schur path (m >= 2, m = 0, and an
eigenvalue-oracle escape at m = 1) and certifies a saved point through the
command line with the dense second-order check.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import conebarrier

SCRIPT = textwrap.dedent(
    """
    import importlib.abc
    import json
    import sys


    class NoScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is not available")
            return None


    sys.meta_path.insert(0, NoScipy())

    from conebarrier import SolverParams, builtin, solve
    from conebarrier.cli import main
    from conebarrier.trace import BRANCH_MEO_NC

    results = {}
    for name, n, params, eps in [
        ("soc_quadratic", 20, {"m": 3, "seed": 0}, 1e-2),
        ("regularized_loss", 20, {"seed": 0}, 1e-1),
        ("negnorm_simplex", 5, {}, 1e-3),
    ]:
        problem = builtin(name, n, **params)
        res = solve(problem, problem.x0, SolverParams(epsilon=eps, seed=7))
        cert = res.trace.certificate
        results[name] = {
            "m": problem.m,
            "status": res.status.value,
            "sosp_ok": cert.sosp_ok,
            "meo_steps": sum(r.branch == BRANCH_MEO_NC for r in res.trace.records),
        }

    workdir = sys.argv[1]
    problem_path, solution = f"{workdir}/problem.json", f"{workdir}/solution.json"
    with open(problem_path, "w") as fh:
        json.dump({"builtin": "soc_quadratic", "n": 20, "params": {"m": 3, "seed": 0}}, fh)
    solve_code = main(["solve", problem_path, "--eps", "1e-2", "--save-solution", solution])
    certify_code = main(["certify", problem_path, solution, solution,
                         "--eps-g", "1e-2", "--sosp"])
    results["cli"] = {"solve": solve_code, "certify": certify_code}
    results["scipy_loaded"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    print("RESULTS " + json.dumps(results))
    """
)


def test_solves_and_certifies_with_scipy_unimportable(tmp_path):
    src = str(Path(conebarrier.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("RESULTS "))
    results = json.loads(line[len("RESULTS "):])
    assert results["soc_quadratic"]["m"] == 3
    assert results["regularized_loss"]["m"] == 0
    for name in ("soc_quadratic", "regularized_loss", "negnorm_simplex"):
        assert results[name]["status"] == "sosp_certified", (name, results[name])
        assert results[name]["sosp_ok"] is True, name
    # the negnorm run escapes its start along an oracle direction
    assert results["negnorm_simplex"]["meo_steps"] > 0
    assert results["cli"] == {"solve": 0, "certify": 0}
    assert results["scipy_loaded"] == []
