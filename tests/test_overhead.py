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
Hessian-vector product and a multiplier solve of its own, 63.3 and 69.5
while capped CG's negative-curvature directions took a product of their own
for their curvature, and 63.3 and 67.9 while each triangular solve entered
a dispatch on the factor's block layout before its arithmetic.

A walk of the cone layer costs O(number of block types) calls, not
O(number of blocks).  Package frames per iteration cannot show that on their
own, because cones of different block counts give different solves:
``soc_quadratic`` n=30 m=2 spends 2.085 Hessian products per iteration in
its first 200 iterations with 2 blocks and 2.74 with 10.  So the frames
entered in ``cones.py`` are counted per counted cone operation, each
triangular solve and each Cholesky: 0.938 with 2 blocks and 0.891 with 10,
where the per-block walk took 1.742 and 5.055.
"""
import os
import sys

import pytest

import conebarrier
from conebarrier import SolverParams, builtin, solve

PACKAGE_DIR = os.path.dirname(os.path.abspath(conebarrier.__file__)) + os.sep


def frames_and_solve(problem, prefix: str = PACKAGE_DIR, **params):
    """(frames entered in files under ``prefix``, result) of a solve at epsilon 1e-2."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        res = solve(problem, problem.x0, SolverParams(epsilon=1e-2, seed=7, **params))
    finally:
        sys.setprofile(previous)
    return count, res


def frames_per_iteration(problem) -> float:
    count, res = frames_and_solve(problem)
    assert res.certified and res.iterations > 100
    return count / res.iterations


@pytest.mark.parametrize("name, n, params, measured", [
    ("nonconvex_qp_simplex", 30, {"seed": 0}, 47.2),
    ("soc_quadratic", 20, {"m": 2, "seed": 0}, 59.4),
])
def test_frames_per_outer_iteration(name, n, params, measured):
    assert frames_per_iteration(builtin(name, n, **params)) <= 1.05 * measured


def test_cone_frames_per_operation_do_not_grow_with_the_number_of_blocks():
    per_operation = []
    for blocks in (2, 10):
        problem = builtin("soc_quadratic", 30, m=2, seed=0, blocks=blocks)
        count, res = frames_and_solve(problem, PACKAGE_DIR + "cones.py", max_outer_iters=200)
        assert res.iterations == 200
        per_operation.append(count / (res.trace.counters["tri_solve"] + res.trace.counters["cholesky"]))
    few, many = per_operation
    assert many <= 1.05 * few
