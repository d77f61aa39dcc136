"""Independent verification of approximate stationarity at a candidate point.

Everything here recomputes its own dense linear algebra from the problem
callbacks; nothing is shared with the solver's iteration machinery, so a
passing report is an independent check of the returned point.

First-order test at (x, lambda):

    Ax = b,  x strictly interior,
    s = grad f(x) + A^T lambda  in the dual cone,
    ||s||_x* <= eps_g.

The dual norm ||s||_x* = sqrt(s^T grad^2 B(x)^{-1} s) is read off the
closed-form inverse barrier Hessian, block by block and without a
factorization: diag(x_b^2) on an orthant block, and
x_b x_b^T - (gamma/2) diag(1, -1, ..., -1) with gamma = t^2 - ||u||^2 on a
second-order cone block x_b = (t, u).

Second-order test (desk scale, dense Hessian required): the smallest
eigenvalue of the objective Hessian restricted to null(A), measured against
the barrier metric, is at least -eps_H.  With Z an orthonormal null-space
basis this is the smallest generalized eigenvalue of

    (Z^T grad^2 f(x) Z) w = lambda (Z^T grad^2 B(x) Z) w.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.linalg

from . import cones
from .cones import Cone
from .errors import BoundaryError, ConeMismatch, SizeError
from .problems import ConicProblem

DESK_SCALE_LIMIT = 500
FEAS_TOL = 1e-9  # max |Ax - b| allowed, relative to 1 + max |b|
DUAL_TOL = 1e-9  # per-block slack allowed in the dual-cone test


@dataclass
class CertificateReport:
    feasibility_ok: bool
    primal_residual: float
    interior_ok: bool
    dual_cone_ok: bool
    fosp_residual: float
    fosp_ok: bool
    sosp_min_eig: float | None = None
    sosp_ok: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def dual_norm(cone: Cone, x: np.ndarray, s: np.ndarray) -> float:
    """||s||_x* from the closed-form inverse barrier Hessian at an interior x; O(n)."""
    total = 0.0
    for block, sl in cone.slices():
        xb, sb = x[sl], s[sl]
        if block.kind == cones.ORTHANT:
            total += float(np.sum((xb * sb) ** 2))
        else:
            gap = float(xb[0] ** 2 - xb[1:] @ xb[1:])
            total += float(xb @ sb) ** 2 - 0.5 * gap * float(sb[0] ** 2 - sb[1:] @ sb[1:])
    return math.sqrt(max(total, 0.0))


def check_fosp(
    problem: ConicProblem,
    x: np.ndarray,
    lam: np.ndarray,
    eps_g: float,
) -> CertificateReport:
    """First-order report; failures are reported, never raised."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.shape != (problem.m,):
        raise ValueError(f"lambda has length {lam.shape[0]}, expected {problem.m}")
    affine = problem.affine
    if problem.m:
        primal_residual = float(np.max(np.abs(affine.A @ x - affine.b)))
        b_scale = 1.0 + float(np.max(np.abs(affine.b)))
    else:
        primal_residual = 0.0
        b_scale = 1.0
    feasibility_ok = primal_residual <= FEAS_TOL * b_scale

    interior_ok = cones.interior_membership(problem.cone, x, margin=0.0)
    s = problem.gradient(x) + (affine.A.T @ lam if problem.m else 0.0)
    dual_cone_ok = cones.dual_membership(problem.cone, s, tol=DUAL_TOL)
    fosp_residual = dual_norm(problem.cone, x, s) if interior_ok else math.inf
    fosp_ok = feasibility_ok and interior_ok and dual_cone_ok and fosp_residual <= eps_g
    return CertificateReport(
        feasibility_ok=feasibility_ok,
        primal_residual=primal_residual,
        interior_ok=interior_ok,
        dual_cone_ok=dual_cone_ok,
        fosp_residual=fosp_residual,
        fosp_ok=fosp_ok,
    )


def reduced_min_eig(problem: ConicProblem, x: np.ndarray) -> float:
    """Smallest eigenvalue of the null-space objective Hessian in the barrier metric.

    Returns +inf when the null space is trivial (m = n).
    """
    if not problem.has_dense_hessian:
        raise SizeError("dense second-order certification needs a dense Hessian")
    n = problem.n
    if n > DESK_SCALE_LIMIT:
        raise SizeError(f"dense certification limited to n <= {DESK_SCALE_LIMIT}")
    if problem.m == 0:
        z = np.eye(n)
    else:
        z = scipy.linalg.null_space(problem.affine.A)
    if z.shape[1] == 0:
        return math.inf
    hess_f = problem.hessian(np.asarray(x, dtype=float))
    hess_b = cones.barrier_hessian(problem.cone, x)
    g_red = z.T @ hess_f @ z
    b_red = z.T @ hess_b @ z
    g_red = 0.5 * (g_red + g_red.T)
    b_red = 0.5 * (b_red + b_red.T)
    vals = scipy.linalg.eigh(g_red, b_red, eigvals_only=True)
    return float(vals[0])


def check_sosp_dense(
    problem: ConicProblem,
    x: np.ndarray,
    lam: np.ndarray,
    eps_g: float,
    eps_h: float,
) -> CertificateReport:
    """First- plus second-order report using a dense reduced eigensolve."""
    report = check_fosp(problem, x, lam, eps_g)
    if report.interior_ok:
        report.sosp_min_eig = reduced_min_eig(problem, x)
        report.sosp_ok = report.fosp_ok and report.sosp_min_eig >= -eps_h
    else:
        report.sosp_min_eig = -math.inf
        report.sosp_ok = False
    return report


def _transformed_blocks(cone: Cone, weights: np.ndarray) -> None:
    """Reject scalings that do not map the cone onto itself."""
    if np.any(weights <= 0.0):
        raise ConeMismatch("scaling weights must be strictly positive")
    for block, sl in cone.slices():
        if block.kind == cones.SOC:
            wb = weights[sl]
            if not np.allclose(wb, wb[0], rtol=1e-12, atol=0.0):
                raise ConeMismatch(
                    "second-order cone blocks admit only per-block scalar scalings"
                )


def scale_invariance_check(
    problem: ConicProblem,
    x: np.ndarray,
    lam: np.ndarray,
    weights: np.ndarray,
) -> tuple[float, float]:
    """First-order residual before and after the change of variables x = W y.

    ``weights`` is the diagonal of W; positive and constant within each
    second-order cone block so that W^{-1} K = K.  The transformed problem is
    min f(Wy) s.t. (AW) y = b with barrier y -> B(Wy), and its residual is
    computed from scratch with the transformed quantities.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.shape != x.shape:
        raise ValueError("weights must match the variable dimension")
    _transformed_blocks(problem.cone, weights)
    if not cones.interior_membership(problem.cone, x, margin=0.0):
        raise BoundaryError("scale-invariance check needs an interior point")

    s = problem.gradient(x) + (problem.affine.A.T @ lam if problem.m else 0.0)
    residual_original = dual_norm(problem.cone, x, s)

    # transformed data at y = W^{-1} x: gradient W s, barrier Hessian W H W
    y = x / weights
    s_t = weights * s
    hess_t = weights[:, None] * cones.barrier_hessian(problem.cone, weights * y) * weights[None, :]
    lower_t = np.linalg.cholesky(hess_t)
    w_solve = scipy.linalg.solve_triangular(lower_t, s_t, lower=True)
    residual_transformed = float(np.linalg.norm(w_solve))
    return residual_original, residual_transformed
