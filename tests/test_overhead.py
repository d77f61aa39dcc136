"""Deterministic guard on the solver's Python call overhead.

At n up to a few hundred a solve's wall time is mostly per-call overhead,
which no operation counter sees and which a timer on a shared machine
measures only through noise.  The number of Python frames the package
enters per outer iteration is a proxy that is exact and repeatable: a
``sys.setprofile`` hook counts ``call`` events whose code lives in the
package's own directory.  ``c_call`` events are not counted, because they
would penalise the cheaper form: ``v.dot(w)`` is one, while ``v @ w`` is
none.

The limits are the measured counts plus 5 %.  Before one walk per accepted
point and the leaner solve and product paths, the same instances took 119.5
and 156.4 frames per iteration, 79.4 and 86.9 while the barrier value
was summed in a second walk over the reads, 78.4 and 85.0 while the
cone layer counted its own operations, and 74.4 and 80.9 while the outer
iteration took its norms through ``norm2``, built the barrier gradient by
slice writes and formed mu nabla B of the previous point a second time, and
70.4 and 75.6 while capped CG formed its monitors at entry and again at the
first refresh of U, 69.3 and 74.7 while the multiplier lambda2 took a
Hessian-vector product and a multiplier solve of its own, and 63.3 and 69.5
while capped CG's negative-curvature directions took a product of their own
for their curvature.
"""
import os
import sys

import pytest

import conebarrier
from conebarrier import SolverParams, builtin, solve

PACKAGE_DIR = os.path.dirname(os.path.abspath(conebarrier.__file__)) + os.sep


def frames_per_iteration(problem) -> float:
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        res = solve(problem, problem.x0, SolverParams(epsilon=1e-2, seed=7))
    finally:
        sys.setprofile(previous)
    assert res.certified and res.iterations > 100
    return count / res.iterations


@pytest.mark.parametrize("name, n, params, measured", [
    ("nonconvex_qp_simplex", 30, {"seed": 0}, 63.3),
    ("soc_quadratic", 20, {"m": 2, "seed": 0}, 67.9),
])
def test_frames_per_outer_iteration(name, n, params, measured):
    assert frames_per_iteration(builtin(name, n, **params)) <= 1.05 * measured
