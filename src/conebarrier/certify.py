"""Independent verification of approximate stationarity at a candidate point.

Everything here recomputes its own closed forms and dense linear algebra
from the problem callbacks, with numpy only, and takes only the ``Cone`` type
and the block kinds from ``cones``: a passing report is an independent check
of the returned point.  A second-order cone block x_b = (t, u) is read at
y = x_b / 2^e with its largest |y_i| in [1/2, 1), where no square over- or
underflows; power-of-two scaling is exact.

First-order test at (x, lambda):

    Ax = b,  x strictly interior,
    s = grad f(x) + A^T lambda  in the dual cone,
    ||s||_x* <= eps_g.

Interiority is 0 < x_b < inf on an orthant block and 0 < t - ||u|| < inf at
y, and both block types are self-dual.  ||s||_x* = sqrt(s^T grad^2 B(x)^{-1} s) is
read off the closed-form inverse barrier Hessian, block by block: diag(x_b^2)
on an orthant block, and x_b x_b^T - (gamma/2) diag(1, -1, ..., -1) with
gamma = t^2 - ||u||^2 on a second-order cone block.

Second-order test (desk scale, dense Hessian required): the smallest
eigenvalue of the objective Hessian restricted to null(A), measured against
the barrier metric, is at least -eps_H.  With Z an orthonormal null-space
basis this is the smallest generalized eigenvalue of

    (Z^T grad^2 f(x) Z) w = lambda (Z^T grad^2 B(x) Z) w.

It is formed at the unit-scaled y = x / d, d = 2^e per orthant entry and per
SOC block, from null(A) = D null(A D), D grad^2 f(x) D and grad^2 B(y) with
D = diag(d): the same eigenvalues, bit-equal under power-of-two rescalings.
Z is read off numpy's SVD of A D with scipy's ``null_space`` rank rule, and
the pencil is reduced to a standard problem as LAPACK ``sygv`` does it: with
Z^T grad^2 B(y) Z = C C^T, lambda_min is the smallest eigenvalue of
C^{-1} (Z^T D grad^2 f(x) D Z) C^{-T}.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .cones import ORTHANT, Cone
from .errors import BoundaryError, FactorizationError, ParamError, SizeError
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
        return asdict(self)


def _soc_read(xb: np.ndarray) -> tuple[np.ndarray, int, float, float]:
    """(y, e, t, ||u||) of an SOC block x_b = 2^e y, with t and ||u|| read at y."""
    e = math.frexp(float(np.max(np.abs(xb))))[1]
    y = np.ldexp(xb, -e)
    return y, e, float(y[0]), math.sqrt(y[1:].dot(y[1:]))


def _unit_scale(cone: Cone, x: np.ndarray) -> np.ndarray:
    """d with x / d unit-scaled: 2^e per orthant entry (``frexp``) and per SOC block (``_soc_read``)."""
    d = np.empty(cone.total_dim)
    for block, sl in cone.slices:
        d[sl] = np.ldexp(1.0, np.frexp(x[sl])[1] if block.kind == ORTHANT else _soc_read(x[sl])[1])
    return d


def _slices(cone: Cone, *vectors: np.ndarray) -> tuple:
    """``cone.slices``, after a ValueError unless each vector has length ``cone.total_dim``."""
    for v in vectors:
        if np.shape(v) != (cone.total_dim,):
            raise ValueError(f"expected vector of length {cone.total_dim}, got shape {np.shape(v)}")
    return cone.slices


def is_interior(cone: Cone, x: np.ndarray) -> bool:
    """True iff every orthant entry is in (0, inf) and every SOC block has 0 < t - ||u|| < inf at y."""
    for block, sl in _slices(cone, x):
        if block.kind == ORTHANT:
            if not np.all((x[sl] > 0.0) & (x[sl] < math.inf)):
                return False
            continue
        _, _, t, r = _soc_read(x[sl])
        if not 0.0 < t - r < math.inf:
            return False
    return True


def in_dual_cone(cone: Cone, s: np.ndarray, tol: float = 0.0) -> bool:
    """Dual-cone membership up to tol per block; an SOC block is compared at y, with tol / 2^e.

    Each test is stated so that it holds, and a NaN entry, which compares false, fails it.
    """
    for block, sl in _slices(cone, s):
        if block.kind == ORTHANT:
            if not np.all(s[sl] >= -tol):
                return False
            continue
        _, e, t, r = _soc_read(s[sl])
        try:
            if not t + math.ldexp(tol, -e) >= r:
                return False
        except OverflowError:  # tol / 2^e exceeds any ||u|| - t at y
            pass
    return True


def barrier_hessian(cone: Cone, x: np.ndarray) -> np.ndarray:
    """Dense grad^2 B(x) at an interior x (else BoundaryError): diag(1/x_b^2) per orthant block.

    An SOC block's is 4^-e [(2/gamma) diag(-1, 1, ..., 1) + (4/gamma^2) w w^T] at y, with
    w = (t, -u) and gamma = (t - ||u||)(t + ||u||) > 2^-56; FactorizationError where it overflows.
    """
    if not is_interior(cone, x):
        raise BoundaryError("the barrier Hessian needs a strictly interior point")
    hess = np.zeros((cone.total_dim, cone.total_dim))
    with np.errstate(divide="ignore", over="ignore"):
        for block, sl in cone.slices:
            if block.kind == ORTHANT:
                hess[sl, sl] = np.diag(1.0 / x[sl] ** 2)
                continue
            y, e, t, r = _soc_read(x[sl])
            gap = (t - r) * (t + r)
            w = np.concatenate(([y[0]], -y[1:]))
            hb = (4.0 / gap**2) * np.outer(w, w)
            hb[np.diag_indices(block.dim)] += 2.0 / gap
            hb[0, 0] -= 4.0 / gap
            hess[sl, sl] = np.ldexp(hb, -2 * e)
    if not np.isfinite(hess).all():
        raise FactorizationError("barrier Hessian is not finite (point at an extreme scale)")
    return hess


def dual_norm(cone: Cone, x: np.ndarray, s: np.ndarray) -> float:
    """||s||_x* from the closed-form inverse barrier Hessian at an interior x; O(n)."""
    total = 0.0
    for block, sl in _slices(cone, x, s):
        xb, sb = x[sl], s[sl]
        if block.kind == ORTHANT:
            total += float(np.sum((xb * sb) ** 2))
        else:
            # at (x_b / 2^e, s_b 2^e): exact, so bit-equal, and the gap cannot over- or underflow
            xb, e, _, _ = _soc_read(xb)
            sb = np.ldexp(sb, e)
            gap = float(xb[0] ** 2 - xb[1:] @ xb[1:])
            total += float(xb @ sb) ** 2 - 0.5 * gap * float(sb[0] ** 2 - sb[1:] @ sb[1:])
    return math.sqrt(max(total, 0.0))


def _require_tolerances(**tolerances: float) -> None:
    """ParamError unless every tolerance lies in (0, inf)."""
    for name, tol in tolerances.items():
        if not 0.0 < tol < math.inf:
            raise ParamError(f"{name} must lie in (0, inf), got {tol!r}")


def check_fosp(
    problem: ConicProblem,
    x: np.ndarray,
    lam: np.ndarray,
    eps_g: float,
) -> CertificateReport:
    """First-order report; certificate failures are reported, wrong shapes raise ValueError,
    and a tolerance outside (0, inf) raises ParamError."""
    _require_tolerances(eps_g=eps_g)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if x.shape != (problem.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({problem.n},)")
    if lam.shape != (problem.m,):
        raise ValueError(f"lambda has length {lam.shape[0]}, expected {problem.m}")
    affine = problem.affine
    primal_residual = float(np.max(np.abs(affine.A @ x - affine.b), initial=0.0))
    b_scale = 1.0 + float(np.max(np.abs(affine.b), initial=0.0))
    feasibility_ok = primal_residual <= FEAS_TOL * b_scale

    interior_ok = is_interior(problem.cone, x)
    grad = np.asarray(problem.gradient(x), dtype=float)
    if grad.shape != (problem.n,):
        raise ValueError(f"gradient has shape {grad.shape}, expected ({problem.n},)")
    s = grad + (affine.A.T @ lam if problem.m else 0.0)
    dual_cone_ok = in_dual_cone(problem.cone, s, tol=DUAL_TOL)
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

    Formed at x / d (module docstring).  Returns +inf when the null space is
    trivial (m = n); FactorizationError where the pencil is numerically singular.
    """
    if not problem.has_dense_hessian:
        raise SizeError("dense second-order certification needs a dense Hessian")
    n = problem.n
    if n > DESK_SCALE_LIMIT:
        raise SizeError(f"dense certification limited to n <= {DESK_SCALE_LIMIT}")
    x = np.asarray(x, dtype=float)
    d = _unit_scale(problem.cone, x)
    z = _null_space(problem.affine.A * d) if problem.m else np.eye(n)
    if z.shape[1] == 0:
        return math.inf
    g_red = z.T @ (d[:, None] * np.asarray(problem.hessian(x), dtype=float) * d) @ z
    b_red = z.T @ barrier_hessian(problem.cone, x / d) @ z
    try:
        lower = np.linalg.cholesky(0.5 * (b_red + b_red.T))
        # C^{-1} G C^{-T} from two solves with C, as the LAPACK sygst reduction forms it
        reduced = np.linalg.solve(lower, np.linalg.solve(lower, g_red).T)
        return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"dense second-order certificate failed: {exc}") from None


def _null_space(a_mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of null(A) from its SVD, with scipy's ``null_space`` rank rule."""
    _, sing, vh = np.linalg.svd(a_mat, full_matrices=True)
    tol = np.amax(sing, initial=0.0) * np.finfo(float).eps * max(a_mat.shape)
    return vh[int(np.sum(sing > tol)):].T


def check_sosp_dense(
    problem: ConicProblem,
    x: np.ndarray,
    lam: np.ndarray,
    eps_g: float,
    eps_h: float,
) -> CertificateReport:
    """First- plus second-order report using a dense reduced eigensolve."""
    _require_tolerances(eps_g=eps_g, eps_h=eps_h)
    report = check_fosp(problem, x, lam, eps_g)
    if report.interior_ok:
        report.sosp_min_eig = reduced_min_eig(problem, x)
        report.sosp_ok = report.fosp_ok and report.sosp_min_eig >= -eps_h
    else:
        report.sosp_min_eig = -math.inf
        report.sosp_ok = False
    return report
